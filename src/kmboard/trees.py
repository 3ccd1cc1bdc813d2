"""Admissible ternary trees, skeletons, and canonical labelings.

Every collapsing map generates a rooted ternary tree on the labels
``1, 2, 4, ..., 2k``: node ``2l`` hangs off node ``2j`` as a left child
when ``mu(2l) = mu(2j)`` (same left branch), as a middle child when
``mu(2l) = 2j`` and as a right child when ``mu(2l) = 2j + 1``.  Node 1
has the single child 2.  Erasing labels (keeping the L/M/R slot of every
child, and optionally the signs) gives the skeleton, the complete
invariant of (signed) KM equivalence, serialized by :func:`skeleton_key`.
A canonical labeling is a permutation of the tree's own labels.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .errors import OutOfRange
from .pairs import CollapsingPair, TimePermutation


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

    def parent_of(self, label: int) -> int:
        if label not in self.parent:
            raise OutOfRange(f"no node {label}")
        return self.parent[label]

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


def _grown(shape: str, spans: tuple, mu: tuple, v: int) -> tuple[str, tuple]:
    """The shape of map ``mu`` with one more coupling, ``v``, and its spans.

    ``spans`` holds per node, in label order, three offsets into the
    shape: its "(", its middle slot, and one past its ")".  The new node
    is a leaf, "(...)", in an empty slot: the left slot of the last node
    of its left branch (an earlier node with the same mu), else the
    middle slot of node v or the right slot of node v-1.  That slot's
    "." becomes the leaf, and every offset past it moves by 4.
    """
    if not mu:
        return "(...)", (0, 2, 5)
    if v in mu:
        pos = spans[3 * (len(mu) - 1 - mu[::-1].index(v))] + 1
    elif v & 1:
        pos = spans[3 * ((v - 3) >> 1) + 2] - 2
    else:
        pos = spans[3 * ((v - 2) >> 1) + 1]
    spans = tuple([o + 4 if o > pos else o for o in spans]) + (pos, pos + 2, pos + 5)
    return shape[:pos] + "(...)" + shape[pos + 1 :], spans


def _sign_order(spans: tuple) -> list[int]:
    """The sign index of each node in preorder, by :func:`_grown`'s spans."""
    return sorted(range(len(spans) // 3), key=spans[::3].__getitem__)


def _preorder(mu) -> tuple[str, list[int]]:
    """The unsigned skeleton key and the sign index of each node, both in preorder.

    The key is the shape in preorder, "(" and the three child slots and
    ")" per node, missing children as "."; node ``2j`` has sign index
    ``j - 1``.  :func:`_grown` adds the nodes in label order.
    """
    shape, spans = "", ()
    for j in range(len(mu)):
        shape, spans = _grown(shape, spans, mu[:j], mu[j])
    return shape, _sign_order(spans)


def skeleton_key(mu, sgn=None) -> str:
    """Canonical (signed) skeleton serialization straight from arrays.

    The shape in preorder, missing children as '.'; with ``sgn``, then
    "|" and the signs in the same preorder.  Equal keys <=> equal
    (signed) skeletons.
    """
    shape, order = _preorder(mu)
    if sgn is None:
        return shape
    return shape + "|" + "".join([sgn[i] for i in order])


# -- canonical labelings -----------------------------------------------------


def _queue_labeling(tree: SignedTree, signed: bool) -> TimePermutation:
    """rho(x) = the canonical label of node x under the queue discipline.

    Labels go out in increasing order, one whole left branch at a time,
    starting with node 2's.  A dequeued node opens its middle-child
    branch and then its right-child branch.  Each labeled branch is
    enqueued in label order, with its ``+`` nodes before its ``-`` nodes
    when ``signed``.  No recursion, so any depth works.
    """
    image = [0] * tree.k
    queue: deque[int] = deque()
    label = 2

    def open_branch(x: Optional[int]) -> None:
        nonlocal label
        branch = []
        while x is not None:
            image[(x - 2) >> 1] = label
            label += 2
            branch.append(x)
            x = tree.slots[x][0]
        if signed:
            branch.sort(key=tree.sign.__getitem__)  # stable, and "+" < "-"
        queue.extend(branch)

    open_branch(2)
    while queue:
        _, m, r = tree.slots[queue.popleft()]
        if m is not None:
            open_branch(m)
        if r is not None:
            open_branch(r)
    return TimePermutation(tree.k, tuple(image))


def echelon_labeling(tree: SignedTree) -> TimePermutation:
    """Relabeling of the tree's nodes into upper echelon form.

    The relabeled map satisfies mu(2j) <= mu(2j+2): branches open in
    order of their attachment node's label, middle before right.  Signs
    are ignored.
    """
    return _queue_labeling(tree, signed=False)


def tamed_labeling(tree: SignedTree) -> TimePermutation:
    """Relabeling of the tree's nodes into the unique tamed labeling.

    As :func:`echelon_labeling`, except that each left branch is queued
    with its ``+`` nodes before its ``-`` nodes.
    """
    return _queue_labeling(tree, signed=True)
