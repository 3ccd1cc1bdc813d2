"""Time-integration domains as forest orders on t_1, t_3, ..., t_{2k+1}.

A relation pair (a, b) reads "t_a >= t_b".  Every domain comes from a
tree rooted at t_1, so a poset here is a forest, compared and hashed by
its cover map; a total order is a tuple of the odd labels from largest
time to smallest.  The discrete semantics ignores boundary ties, so
unions and disjointness of simplexes become exact statements about
sets of total orders, which one Varol-Rotem walker lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .canonical import is_reference
from .duhamel import _slot_pass
from .errors import CapExceeded, CyclicRelations, NotAForest, NotReference, OutOfRange
from .pairs import CollapsingPair, TimePermutation
from .trees import tree_from_pair

#: Odd labels from largest time to smallest.
TotalOrder = tuple[int, ...]

EXTENSION_CAP = 10**6


def _check_labels(k: int, labels) -> None:
    bad = set(labels) - set(range(1, 2 * k + 2, 2))
    if bad:
        raise OutOfRange(f"label {min(bad)} is not an odd label in 1..{2 * k + 1}")


@dataclass(frozen=True)
class TimePoset:
    """Forest order on the k+1 odd time labels, canonical by its cover map.

    ``parent[i]`` is the upper cover of t_{2i+1}, or ``None`` for a root.
    A forest's Hasse diagram is unique, so equality and hashing use it.
    """

    k: int
    parent: tuple

    @classmethod
    def from_parents(cls, k: int, parent: dict) -> "TimePoset":
        """Forest order: ``parent[x]`` is the upper cover of ``x``.

        A root maps to ``None`` (a label missing from the map is a root
        too).  This validates a caller's map: it raises
        :class:`OutOfRange` for a label that is not odd in 1..2k+1 and
        :class:`CyclicRelations` if a parent chain returns to itself.
        """
        _check_labels(k, parent.keys() | (set(parent.values()) - {None}))
        poset = cls(k, tuple(parent.get(x) for x in range(1, 2 * k + 2, 2)))
        reached = poset._top_down()
        if len(reached) <= k:
            # an element no root reaches walks up into a cycle
            x = next(x for x in poset.elements if x not in reached)
            chain = []
            while x not in chain:
                chain.append(x)
                x = poset.parent[x // 2]
            cycle = sorted(chain[chain.index(x) :])
            a, b = cycle[0], cycle[min(1, len(cycle) - 1)]
            raise CyclicRelations(f"t_{a} and t_{b} are mutually ordered")
        return poset

    @classmethod
    def from_relations(cls, k: int, relations: Iterable[tuple[int, int]]) -> "TimePoset":
        """Close the relations, then read the cover map off the closure.

        Warshall's algorithm runs on one bitmask of upper labels per
        label.  Raises :class:`CyclicRelations` if some label lies above
        itself and :class:`NotAForest` if some label has two incomparable
        upper covers.
        """
        relations = [(a, b) for a, b in relations if a != b]
        _check_labels(k, [x for pair in relations for x in pair])
        n = k + 1
        above = [0] * n  # bit j of above[i]: t_{2j+1} >= t_{2i+1}
        for a, b in relations:
            above[b // 2] |= 1 << a // 2
        for m in range(n):
            bit, via = 1 << m, above[m]
            for i, row in enumerate(above):
                if row & bit:
                    above[i] = row | via
        for i, row in enumerate(above):
            if row >> i & 1:
                j = next(j for j in range(n) if j != i and row >> j & 1 and above[j] >> i & 1)
                raise CyclicRelations(f"t_{2 * i + 1} and t_{2 * j + 1} are mutually ordered")
        # A forest's up-sets are chains: each is its lowest member's up-set
        # plus that member.  Shallowest first, the first label that fails
        # has two incomparable upper covers.
        depth = [row.bit_count() for row in above]
        parent = [None] * n
        for i in sorted(range(n), key=depth.__getitem__):
            if above[i]:
                low = max((j for j in range(n) if above[i] >> j & 1), key=depth.__getitem__)
                if above[i] != above[low] | 1 << low:
                    raise NotAForest(f"t_{2 * i + 1} has two incomparable upper covers")
                parent[i] = 2 * low + 1
        return cls(k, tuple(parent))

    @property
    def elements(self) -> tuple[int, ...]:
        return tuple(range(1, 2 * self.k + 2, 2))

    def _top_down(self) -> dict:
        """The cover map as a dict, parents listed before children.

        Breadth first from the roots, with no recursion; elements on or
        below a parent cycle are left out.
        """
        children: dict = {x: [] for x in self.elements}
        order = []
        for x, p in zip(self.elements, self.parent):
            (order if p is None else children[p]).append(x)
        for x in order:  # the list grows while it is read
            order.extend(children[x])
        return {x: self.parent[x // 2] for x in order}

    @property
    def closure(self) -> frozenset:
        """Every relation (a, b) with t_a >= t_b, derived from the covers."""
        up: dict = {}
        for x, p in self._top_down().items():
            up[x] = () if p is None else up[p] + (p,)
        return frozenset((a, x) for x, ups in up.items() for a in ups)

    def reduction(self) -> frozenset:
        """Covers only: (parent, child) for every element that has a parent."""
        return frozenset((p, x) for x, p in zip(self.elements, self.parent) if p is not None)

    def relations_sorted(self) -> list[tuple[int, int]]:
        return sorted(self.reduction())

    def __str__(self):
        return ", ".join(f"t_{a}>=t_{b}" for a, b in self.relations_sorted())


def _hook_count(parent: dict) -> int:
    """Linear extensions of a forest: n! / prod of subtree sizes, exactly.

    ``parent[x]`` is the upper cover of ``x``, or ``None`` for a root;
    every parent comes before its children in the map's order.  This is
    the hook-length formula for forests (Knuth, TAOCP Vol. 3, 5.1.4
    ex. 20).
    """
    size = dict.fromkeys(parent, 1)
    for x in reversed(parent):
        if parent[x] is not None:
            size[parent[x]] += size[x]
    return math.factorial(len(size)) // math.prod(size.values())


def _extension_walk(up) -> Iterator[list]:
    """Every linear extension of a forest as a position array, each once.

    Nodes are numbered parents first: ``up[j] < j`` is node j's parent,
    0 for a root, and node 0 stays first.  Yields one live list ``pos``,
    ``pos[j]`` the position of node j.  Varol-Rotem (Knuth, TAOCP 4A,
    7.2.1.2, Algorithm V), constant amortized time per extension: move
    the largest node one place left unless its parent is there; else
    rotate it back home and try the next node down.
    """
    n = len(up) - 1
    at = list(range(n + 1))  # at[i]: the node at position i
    pos = at[:]
    while True:
        yield pos
        k = n
        while k:
            j = pos[k]
            left = at[j - 1]
            if left != up[k]:
                at[j - 1], at[j] = k, left
                pos[k], pos[left] = j - 1, j
                break
            while j < k:  # rotate k back to position k
                at[j] = left = at[j + 1]
                pos[left] = j
                j += 1
            at[k] = pos[k] = k
            k -= 1
        else:
            return


def _forest_orders(parent: dict) -> Iterator[tuple]:
    """Every linear extension of a forest as a tuple of labels; ``parent`` as
    for :func:`_hook_count`, numbered in its order for the walk."""
    labels = list(parent)
    number = {x: j for j, x in enumerate(labels, 1)}
    up = [0] + [0 if p is None else number[p] for p in parent.values()]
    for pos in _extension_walk(up):
        yield tuple(sorted(labels, key=lambda x: pos[number[x]]))


def count_linear_extensions(poset: TimePoset) -> int:
    """Exact count by the hook-length formula, O(k) at any k."""
    return _hook_count(poset._top_down())


def linear_extensions(poset: TimePoset, cap: int = EXTENSION_CAP) -> frozenset:
    """All total orders refining the poset (largest time first)."""
    parent = poset._top_down()
    if _hook_count(parent) > cap:
        raise CapExceeded(f"more than {cap} linear extensions")
    return frozenset(_forest_orders(parent))


# -- the three domains -------------------------------------------------------


def _attached_parents(mu, keys) -> dict:
    """Upper covers by the attachment rule, parents listed first (mu(2j) < 2j).

    t_{2j+1} hangs under the previous label with the same key, else
    under t_{v-v%2+1} for v = mu(2j).  Keyed by mu this is td, by
    (mu, sgn) the reference formula.
    """
    parent = {1: None}
    last = {}
    for x, v, key in zip(range(3, 2 * len(mu) + 2, 2), mu, keys):
        parent[x] = last.get(key, v - v % 2 + 1)
        last[key] = x
    return parent


# The attachment rule and the slot rule hang every label under a smaller
# one, so their maps list parents first and hold no cycle: the domains
# below build each poset straight from its parent tuple, with none of
# ``from_parents``' checks.


def td_domain(pair: CollapsingPair) -> TimePoset:
    """One cover per admissible-tree edge, read off the map: a node hangs
    under the previous node of its left branch, else at its M/R point."""
    return TimePoset(pair.k, tuple(_attached_parents(pair.mu, pair.mu).values()))


def _tc_parents(mu, sgn) -> tuple:
    """T_C as the parent tuple of :func:`tc_domain`, indexed by label >> 1."""
    return (None, *(1 if p == 0 else p + 1 for p in _slot_pass(mu, sgn)[2]))


def tc_domain(pair: CollapsingPair) -> TimePoset:
    """One cover per Duhamel-tree edge; the top node contributes t_1."""
    return TimePoset(pair.k, _tc_parents(pair.mu, pair.sgn))


def _wild_piece(mu, image) -> tuple[list, list]:
    """td(W(rho)(R)) relabeled by rho^-1, as arrays.

    The attachment rule of :func:`_attached_parents` runs on the moved
    map v -> rho(v) of the reference map ``mu``, in the moved pair's
    label order, which lists parents first; every label is then renamed
    by rho^-1.  Returns the renamed labels in that order and a
    label-indexed parent array: ``parent[x >> 1]`` is the upper cover of
    t_x, None for t_1.
    """
    k = len(mu)
    rho = [0, 1]  # rho on the labels 1..2k+1, with rho(2l+1) = rho(2l) + 1
    back = [0, 1] + [0] * (2 * k)  # rho^-1 likewise
    for i, w in enumerate(image):
        rho += (w, w + 1)
        back[w], back[w + 1] = 2 * i + 2, 2 * i + 3
    order = [1]
    parent = [None] * (k + 1)
    last = [0] * (2 * k + 2)  # moved value -> latest label hung under it so far
    for x, v in zip(range(3, 2 * k + 2, 2), mu):
        w = rho[v]
        p = last[w] or w - w % 2 + 1
        last[w] = x
        y = back[x]
        parent[y >> 1] = back[p]
        order.append(y)
    return order, parent


def tr_domain(reference: CollapsingPair) -> TimePoset:
    """Closed-formula domain of a reference pair.

    Same-branch same-sign pairs are ordered by label; every node is
    below its M/R attachment point; the branch at value 1 sits under
    t_1.
    """
    if not is_reference(reference):
        raise NotReference(f"not a reference pair: {reference}")
    mu = reference.mu
    return TimePoset(reference.k, tuple(_attached_parents(mu, zip(mu, reference.sgn)).values()))


# -- order-preserving relabelings (Sigma sets) -------------------------------


def sigma_set(pair: CollapsingPair, cap: int = EXTENSION_CAP) -> list[TimePermutation]:
    """All rho with rho(parent) < rho(child) along the tree of the map.

    In bijection with the linear extensions of the tree order; listed
    in lexicographic image order.
    """
    tree = tree_from_pair(pair)
    evens = tuple(tree.labels)
    parent = {x: None if tree.parent_of(x) == 1 else tree.parent_of(x) for x in evens}
    if _hook_count(parent) > cap:
        raise CapExceeded(f"more than {cap} order-preserving relabelings")
    perms = []
    for topo in _forest_orders(parent):
        image = {x: 2 * (i + 1) for i, x in enumerate(topo)}
        perms.append(
            TimePermutation(pair.k, tuple(image[2 * j] for j in range(1, pair.k + 1)))
        )
    return sorted(perms, key=lambda p: p.image)


def induced_order(rho: TimePermutation) -> TotalOrder:
    """The simplex of rho: t_1 >= t_{rho^-1(3)} >= ... >= t_{rho^-1(2k+1)}."""
    inv = rho.inverse()
    return (1,) + tuple(inv.of(2 * l + 1) for l in range(1, rho.k + 1))
