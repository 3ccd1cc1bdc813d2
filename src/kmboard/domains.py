"""Time-integration domains as posets on t_1, t_3, ..., t_{2k+1}.

A relation pair (a, b) reads "t_a >= t_b".  Posets are compared and
hashed by transitive closure; a total order is a tuple of the odd
labels from largest time to smallest.  The discrete semantics ignores
boundary ties, so unions and disjointness of simplexes become exact
statements about sets of total orders.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import CapExceeded, CyclicRelations, NotReference
from .pairs import CollapsingPair, TimePermutation
from .trees import tree_from_pair

#: Odd labels from largest time to smallest.
TotalOrder = tuple[int, ...]

EXTENSION_CAP = 10**6


def _transitive_closure(pairs: frozenset) -> frozenset:
    closure = set(pairs)
    while True:
        extra = {
            (a, d)
            for a, b in closure
            for c, d in closure
            if b == c and (a, d) not in closure
        }
        if not extra:
            return frozenset(closure)
        closure |= extra


@dataclass(frozen=True)
class TimePoset:
    """Partial order on the k+1 odd time labels, canonical by closure."""

    k: int
    closure: frozenset = field(default_factory=frozenset)

    @classmethod
    def from_relations(cls, k: int, relations: Iterable[tuple[int, int]]) -> "TimePoset":
        base = frozenset((a, b) for a, b in relations if a != b)
        closure = _transitive_closure(base)
        for a, b in closure:
            if (b, a) in closure:
                raise CyclicRelations(f"t_{a} and t_{b} are mutually ordered")
        return cls(k, closure)

    @property
    def elements(self) -> tuple[int, ...]:
        return tuple(range(1, 2 * self.k + 2, 2))

    def reduction(self) -> frozenset:
        """Covers only: (a,b) with no c strictly between."""
        return frozenset(
            (a, b)
            for a, b in self.closure
            if not any(
                (a, c) in self.closure and (c, b) in self.closure
                for c in self.elements
            )
        )

    def relations_sorted(self) -> list[tuple[int, int]]:
        return sorted(self.reduction())

    def __str__(self):
        return ", ".join(f"t_{a}>=t_{b}" for a, b in self.relations_sorted())


def _count_orders(elements: tuple, above: dict) -> int:
    """Downset DP: arrangements of all elements, larger-first.

    ``above[x]`` holds elements that must precede ``x``; covers suffice.
    """
    index = {x: i for i, x in enumerate(elements)}
    rules = []
    for i, x in enumerate(elements):
        need = 0
        for y in above[x]:
            need |= 1 << index[y]
        rules.append((1 << i, need))
    ways = [0] * (1 << len(elements))
    ways[0] = 1
    for mask, w in enumerate(ways):
        if w:
            for bit, need in rules:
                if not mask & bit and need & mask == need:
                    ways[mask | bit] += w
    return ways[-1]


def _enumerate_orders(elements: tuple, above: dict) -> Iterator[tuple]:
    def backtrack(prefix, left):
        if not left:
            yield tuple(prefix)
            return
        for x in list(left):
            if all(y not in left for y in above[x]):
                left.remove(x)
                prefix.append(x)
                yield from backtrack(prefix, left)
                prefix.pop()
                left.add(x)

    yield from backtrack([], set(elements))


def _above_map(poset: TimePoset) -> dict:
    above = {x: set() for x in poset.elements}
    for a, b in poset.closure:
        above[b].add(a)
    return above


def count_linear_extensions(poset: TimePoset) -> int:
    return _count_orders(poset.elements, _above_map(poset))


def linear_extensions(poset: TimePoset, cap: int = EXTENSION_CAP) -> frozenset:
    """All total orders refining the poset (largest time first)."""
    if count_linear_extensions(poset) > cap:
        raise CapExceeded(f"more than {cap} linear extensions")
    return frozenset(_enumerate_orders(poset.elements, _above_map(poset)))


# -- the three domains -------------------------------------------------------


def td_domain(pair: CollapsingPair) -> TimePoset:
    """One relation per admissible-tree edge, plus t_1 >= t_3."""
    tree = tree_from_pair(pair)
    relations = [(1, 3)]
    for x in tree.labels:
        p = tree.parent_of(x)
        if p != 1:
            relations.append((p + 1, x + 1))
    return TimePoset.from_relations(pair.k, relations)


def tc_domain(pair: CollapsingPair) -> TimePoset:
    """One relation per Duhamel-tree edge; the root contributes t_1."""
    from .duhamel import build_dtree  # one-way: duhamel never imports domains

    dtree = build_dtree(pair)
    relations = [
        (1 if p == 0 else p + 1, x + 1) for x, p in sorted(dtree.parent.items())
    ]
    return TimePoset.from_relations(pair.k, relations)


def tr_domain(reference: CollapsingPair) -> TimePoset:
    """Closed-formula domain of a reference pair.

    Same-branch same-sign pairs are ordered by label; every node is
    below its M/R attachment point; the branch at value 1 sits under
    t_1.
    """
    from .canonical import is_reference

    if not is_reference(reference):
        raise NotReference(f"not a reference pair: {reference}")
    relations = []
    evens = list(reference.even_labels)
    for x in evens:
        if reference.mu_of(x) == 1:
            relations.append((1, x + 1))
    for a, b in itertools.combinations(evens, 2):
        if reference.mu_of(a) == reference.mu_of(b) and reference.sgn_of(
            a
        ) == reference.sgn_of(b):
            relations.append((a + 1, b + 1))
    for b in evens:
        v = reference.mu_of(b)
        if v > 1:
            a = v if v % 2 == 0 else v - 1
            relations.append((a + 1, b + 1))
    return TimePoset.from_relations(reference.k, relations)


def relabel_domain(poset: TimePoset, sigma: TimePermutation) -> TimePoset:
    """sigma[poset]: t_a -> t_{sigma(a-1)+1} on every relation, t_1 fixed."""

    def rename(a: int) -> int:
        return 1 if a == 1 else sigma.of(a - 1) + 1

    return TimePoset.from_relations(
        poset.k, [(rename(a), rename(b)) for a, b in poset.reduction()]
    )


# -- order-preserving relabelings (Sigma sets) -------------------------------


def sigma_set(pair: CollapsingPair, cap: int = EXTENSION_CAP) -> list[TimePermutation]:
    """All rho with rho(parent) < rho(child) along the tree of the map.

    In bijection with the linear extensions of the tree order; listed
    in lexicographic image order.
    """
    tree = tree_from_pair(pair)
    evens = tuple(tree.labels)
    above = {x: set() for x in evens}
    for x in evens:
        p = tree.parent_of(x)
        if p != 1:
            above[x].add(p)
    if _count_orders(evens, above) > cap:
        raise CapExceeded(f"more than {cap} order-preserving relabelings")
    perms = []
    for topo in _enumerate_orders(evens, above):
        image = {x: 2 * (i + 1) for i, x in enumerate(topo)}
        perms.append(
            TimePermutation(pair.k, tuple(image[2 * j] for j in range(1, pair.k + 1)))
        )
    return sorted(perms, key=lambda p: p.image)


def induced_order(rho: TimePermutation) -> TotalOrder:
    """The simplex of rho: t_1 >= t_{rho^-1(3)} >= ... >= t_{rho^-1(2k+1)}."""
    inv = rho.inverse()
    return (1,) + tuple(inv.of(2 * l + 1) for l in range(1, rho.k + 1))
