"""Admissible ternary trees, skeletons, and canonical labelings.

Every collapsing map generates a rooted ternary tree on the labels
``1, 2, 4, ..., 2k``: node ``2l`` hangs off node ``2j`` as a left child
when ``mu(2l) = mu(2j)`` (same left branch), as a middle child when
``mu(2l) = 2j`` and as a right child when ``mu(2l) = 2j + 1``.  Node 1
has the single child 2.  Erasing labels (keeping the L/M/R slot of every
child, and optionally the signs) gives the skeleton, the complete
invariant of (signed) KM equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import NotAdmissible, OutOfRange
from .pairs import CollapsingPair

SLOT_NAMES = ("L", "M", "R")


@dataclass(frozen=True)
class SignedTree:
    """Admissible signed ternary tree.

    ``slots[x]`` is the (L, M, R) triple of child labels of even node
    ``x`` (``None`` for an empty slot); node 1 always has the single
    child 2.  Immutable after construction.
    """

    k: int
    slots: dict  # even label -> (L, M, R) child labels or None
    sign: dict  # even label -> '+' | '-'
    parent: dict = field(default_factory=dict)  # even label -> parent label (2 -> 1)

    def __post_init__(self):
        if not self.parent:
            parent = {2: 1}
            for x, (l, m, r) in self.slots.items():
                for c in (l, m, r):
                    if c is not None:
                        parent[c] = x
            object.__setattr__(self, "parent", parent)

    @property
    def labels(self) -> range:
        return range(2, 2 * self.k + 1, 2)

    def children(self, label: int) -> tuple:
        if label == 1:
            return (None, 2, None)
        return self.slots[label]

    def sign_of(self, label: int) -> str:
        return self.sign[label]

    def parent_of(self, label: int) -> int:
        if label not in self.parent:
            raise OutOfRange(f"no node {label}")
        return self.parent[label]

    def path_of(self, label: int) -> str:
        """Slot path from the root's child down to ``label`` ("" for node 2)."""
        steps = []
        x = label
        while x != 2:
            p = self.parent[x]
            steps.append(SLOT_NAMES[self.slots[p].index(x)])
            x = p
        return ".".join(reversed(steps))

    def positions(self) -> dict:
        """Map slot-path -> label for every even node."""
        return {self.path_of(x): x for x in self.labels}

    def to_json(self) -> dict:
        def node(x):
            l, m, r = self.slots[x]
            return {
                "label": x,
                "sign": self.sign[x],
                "L": node(l) if l else None,
                "M": node(m) if m else None,
                "R": node(r) if r else None,
            }

        return node(2)

    def to_dot(self, signed: bool = True) -> str:
        """Graphviz source: solid lines for L edges, arrows for M/R."""
        lines = ["digraph tree {", '  n1 [label="1"];']
        for x in self.labels:
            tag = f"{x}{self.sign[x]}" if signed else str(x)
            lines.append(f'  n{x} [label="{tag}"];')
        lines.append("  n1 -> n2;")
        for x in self.labels:
            l, m, r = self.slots[x]
            if l:
                lines.append(f"  n{x} -> n{l} [dir=none];")
            if m:
                lines.append(f'  n{x} -> n{m} [label="M"];')
            if r:
                lines.append(f'  n{x} -> n{r} [label="R"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Skeleton:
    """Unlabeled rooted ternary shape with L/M/R slot identity.

    ``shape`` is a nested tuple ``(sign, L, M, R)`` per node (children
    ``None`` when the slot is empty; ``sign`` is ``None`` in the
    unsigned variant), rooted at the position of node 2.  Structural
    equality coincides with equality of the canonical serialization.
    """

    k: int
    signed: bool
    shape: tuple

    @property
    def key(self) -> str:
        """Canonical preorder serialization; missing children print as '.'."""

        def ser(node):
            if node is None:
                return "."
            s, l, m, r = node
            return "(" + (s or "") + ser(l) + ser(m) + ser(r) + ")"

        return ser(self.shape)

    def __str__(self):
        return self.key


def _slots_from_mu(k: int, mu) -> dict:
    """Child slots per node, straight from the map (no tree object)."""
    groups: dict[int, list[int]] = {}
    for j in range(1, k + 1):
        groups.setdefault(mu[j - 1], []).append(2 * j)
    slots = {2 * j: [None, None, None] for j in range(1, k + 1)}
    for v, members in groups.items():
        if v > 1:
            head = members[0]
            if v % 2 == 0:
                slots[v][1] = head  # mu(2m) = 2j: middle child
            else:
                slots[v - 1][2] = head  # mu(2r) = 2j+1: right child
        for above, below in zip(members, members[1:]):
            slots[above][0] = below  # same mu: left chain
    return slots


def tree_from_pair(pair: CollapsingPair) -> SignedTree:
    """Generate the admissible tree of a pair (child rules L/M/R above)."""
    slots = _slots_from_mu(pair.k, pair.mu)
    sign = {2 * j: pair.sgn[j - 1] for j in range(1, pair.k + 1)}
    return SignedTree(pair.k, {x: tuple(c) for x, c in slots.items()}, sign)


def pair_from_tree(tree: SignedTree) -> CollapsingPair:
    """Read the collapsing map back off an admissible tree."""
    k = tree.k
    mu = {2: 1}
    for x in tree.labels:
        l, m, r = tree.slots[x]
        for c in (l, m, r):
            if c is not None and c <= x:
                raise NotAdmissible(f"child {c} of node {x} is not larger")
        if l is not None:
            mu[l] = mu[x]
        if m is not None:
            mu[m] = x
        if r is not None:
            mu[r] = x + 1
    if len(mu) != k:
        raise NotAdmissible("tree is not connected over all labels")
    return CollapsingPair(
        k,
        tuple(mu[2 * j] for j in range(1, k + 1)),
        tuple(tree.sign[2 * j] for j in range(1, k + 1)),
    )


def skeleton_of(tree: SignedTree, signed: bool = True) -> Skeleton:
    """Erase the labels; keep signs only when ``signed``."""

    def shape(x):
        if x is None:
            return None
        l, m, r = tree.slots[x]
        return (tree.sign[x] if signed else None, shape(l), shape(m), shape(r))

    return Skeleton(tree.k, signed, shape(2))


def skeleton_key(mu, sgn=None) -> str:
    """Canonical (signed) skeleton serialization straight from arrays.

    The shape in preorder, missing children as '.'; with ``sgn``, then
    "|" and the signs in the same preorder (:func:`preorder_positions`).
    Equal keys <=> equal (signed) skeletons.
    """
    k = len(mu)
    slots = _slots_from_mu(k, mu)
    out = []

    def ser(x):
        if x is None:
            out.append(".")
            return
        out.append("(")
        for c in slots[x]:
            ser(c)
        out.append(")")

    ser(2)
    if sgn is not None:
        out.append("|")
        out.extend(sgn[(x - 2) // 2] for x in preorder_positions(mu))
    return "".join(out)


def preorder_positions(mu) -> tuple[int, ...]:
    """Even labels in preorder (the node order of :func:`skeleton_key`).

    A signed skeleton key is the unsigned key, "|" and the signs in this
    order; censuses use that to reuse one shape pass for all sign arrays
    of a map.
    """
    k = len(mu)
    slots = _slots_from_mu(k, mu)
    order = []

    def walk(x):
        if x is None:
            return
        order.append(x)
        for c in slots[x]:
            walk(c)

    walk(2)
    return tuple(order)


# -- canonical labelings -----------------------------------------------------


class _ShapeNodes:
    """Mutable scratch view of a skeleton for the labeling algorithms."""

    def __init__(self, skeleton: Skeleton):
        self.sign: list[Optional[str]] = []
        self.kids: list[list[Optional[int]]] = []

        def build(node) -> Optional[int]:
            if node is None:
                return None
            s, l, m, r = node
            i = len(self.sign)
            self.sign.append(s)
            self.kids.append([None, None, None])
            self.kids[i][0] = build(l)
            self.kids[i][1] = build(m)
            self.kids[i][2] = build(r)
            return i

        self.root = build(skeleton.shape)
        self.label: dict[int, int] = {}
        self._next = 2

    def label_left_branch(self, start: int) -> list[int]:
        """Assign the next labels down the left chain from ``start``."""
        branch = []
        node: Optional[int] = start
        while node is not None:
            self.label[node] = self._next
            self._next += 2
            branch.append(node)
            node = self.kids[node][0]
        return branch

    def to_tree(self, k: int, default_sign: str = "+") -> SignedTree:
        slots = {}
        sign = {}
        for i, lab in self.label.items():
            slots[lab] = tuple(
                self.label[c] if c is not None else None for c in self.kids[i]
            )
            sign[lab] = self.sign[i] or default_sign
        return SignedTree(k, slots, sign)


def echelon_labeling(skeleton: Skeleton) -> SignedTree:
    """The unique labeling in upper echelon form (mu(2j) <= mu(2j+2)).

    Branches are opened in order of their attachment node's label,
    middle before right; each new branch's left chain is consumed at
    once.  Signs, if present on the skeleton, are carried through.
    """
    nodes = _ShapeNodes(skeleton)
    nodes.label_left_branch(nodes.root)
    while True:
        pending = [
            (nodes.label[i], slot, child)
            for i in nodes.label
            for slot, child in ((1, nodes.kids[i][1]), (2, nodes.kids[i][2]))
            if child is not None and child not in nodes.label
        ]
        if not pending:
            break
        _, _, child = min(pending)
        nodes.label_left_branch(child)
    return nodes.to_tree(skeleton.k)


def tamed_labeling(skeleton: Skeleton) -> SignedTree:
    """The unique tamed labeling of a signed skeleton.

    Queue discipline: dequeue a node, label its middle-child branch and
    then its right-child branch; each newly labeled left branch
    enqueues its ``+`` nodes (in label order) before its ``-`` nodes.
    """
    nodes = _ShapeNodes(skeleton)

    def enqueue(branch):
        queue.extend(i for i in branch if (nodes.sign[i] or "+") == "+")
        queue.extend(i for i in branch if (nodes.sign[i] or "+") == "-")

    queue: list[int] = []
    enqueue(nodes.label_left_branch(nodes.root))
    while queue:
        i = queue.pop(0)
        for slot in (1, 2):
            child = nodes.kids[i][slot]
            if child is not None:
                enqueue(nodes.label_left_branch(child))
    return nodes.to_tree(skeleton.k)
