"""Time-integration domains as forest orders on t_1, t_3, ..., t_{2k+1}.

A relation pair (a, b) reads "t_a >= t_b".  Every domain comes from a
tree rooted at t_1, so a poset here is a forest, compared and hashed by
its cover map.  The discrete semantics ignores boundary ties, so
unions and disjointness of simplexes become exact statements about
sets of total orders (linear extensions).  The hook-length formula
counts them, and one Varol-Rotem walker lists them as position arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .canonical import is_reference
from .duhamel import _slot_pass
from .errors import CyclicRelations, NotAForest, NotReference, OutOfRange
from .pairs import CollapsingPair


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

    # kmbench wraps this, so moving it is a benchmark change.
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


def count_linear_extensions(poset: TimePoset) -> int:
    """Exact count by the hook-length formula, O(k) at any k."""
    return _hook_count(poset._top_down())


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
# below build each poset straight from its parent tuple, unchecked.


def td_domain(pair: CollapsingPair) -> TimePoset:
    """One cover per admissible-tree edge, read off the map: a node hangs
    under the previous node of its left branch, else at its M/R point."""
    return TimePoset(pair.k, tuple(_attached_parents(pair.mu, pair.mu).values()))


def _tc_parents(mu, sgn) -> tuple:
    """T_C as the parent tuple of :func:`tc_domain`, indexed by label >> 1.

    No one-member sign moves a parent: ``duhamel._slot_pass`` seeks such
    a branch's key (v, +-) only by coupling m's two sign slots for v,
    v = 2m or 2m+1 (the top's, for v = 1), and either makes m the parent.
    So the references of a ``counting._splits`` part share T_C.
    """
    return (None, *(1 if p == 0 else p + 1 for p in _slot_pass(mu, sgn)[2]))


def tc_domain(pair: CollapsingPair) -> TimePoset:
    """One cover per Duhamel-tree edge; the top node contributes t_1."""
    return TimePoset(pair.k, _tc_parents(pair.mu, pair.sgn))


def _wild_piece(mu, image) -> dict:
    """td(W(rho)(R)) relabeled by rho^-1, as a parent map listing parents first.

    :func:`_attached_parents` runs on the moved map rho.mu of the
    reference map ``mu``, which lists parents first; renaming every
    label by rho^-1 keeps that order.
    """
    back = [0, 1] + [0] * (2 * len(mu))  # rho^-1 on the labels 1..2k+1
    for i, w in enumerate(image):
        back[w], back[w + 1] = 2 * i + 2, 2 * i + 3
    moved = [1 if v == 1 else image[(v - 2) >> 1] + (v & 1) for v in mu]  # rho(2l+1) = rho(2l) + 1
    td = _attached_parents(moved, moved)
    return {back[x]: None if p is None else back[p] for x, p in td.items()}


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
