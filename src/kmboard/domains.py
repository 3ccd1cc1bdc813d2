"""Time-integration domains as posets on t_1, t_3, ..., t_{2k+1}.

A relation pair (a, b) reads "t_a >= t_b".  Posets are compared and
hashed by transitive closure; a total order is a tuple of the odd
labels from largest time to smallest.  The discrete semantics ignores
boundary ties, so unions and disjointness of simplexes become exact
statements about sets of total orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import CapExceeded, CyclicRelations, NotReference
from .pairs import CollapsingPair, TimePermutation
from .trees import tree_from_pair

#: Odd labels from largest time to smallest.
TotalOrder = tuple[int, ...]

EXTENSION_CAP = 10**6


def _transitive_closure(pairs: frozenset) -> frozenset:
    """Warshall's algorithm on one bitmask of lower labels per label.

    Raises :class:`CyclicRelations` if some label lies below itself.
    """
    labels = sorted({x for pair in pairs for x in pair})
    index = {x: i for i, x in enumerate(labels)}
    below = [0] * len(labels)
    for a, b in pairs:
        below[index[a]] |= 1 << index[b]
    for m in range(len(labels)):
        bit, via = 1 << m, below[m]
        for i, row in enumerate(below):
            if row & bit:
                below[i] = row | via
    closure = []
    for i, row in enumerate(below):
        if row >> i & 1:
            j = next(
                j for j, other in enumerate(below) if j != i and row >> j & 1 and other >> i & 1
            )
            raise CyclicRelations(f"t_{labels[i]} and t_{labels[j]} are mutually ordered")
        while row:
            low = row & -row
            closure.append((labels[i], labels[low.bit_length() - 1]))
            row ^= low
    return frozenset(closure)


@dataclass(frozen=True)
class TimePoset:
    """Partial order on the k+1 odd time labels, canonical by closure."""

    k: int
    closure: frozenset = field(default_factory=frozenset)

    @classmethod
    def from_relations(cls, k: int, relations: Iterable[tuple[int, int]]) -> "TimePoset":
        base = frozenset((a, b) for a, b in relations if a != b)
        return cls(k, _transitive_closure(base))

    @classmethod
    def from_parents(cls, k: int, parent: dict) -> "TimePoset":
        """Forest order: ``parent[x]`` is the upper cover of ``x``.

        A root maps to ``None`` (a label missing from the map is a root
        too).  The up-set of x is its parent's up-set plus the parent, so
        the closure comes out of one pass with no Warshall step.  Raises
        :class:`CyclicRelations` if a parent chain returns to itself.
        """
        up: dict = {}
        limit = len(parent) + 1  # longer walks have entered a cycle
        for x in parent:
            chain = []
            while x is not None and x not in up:
                chain.append(x)
                if len(chain) > limit:
                    cycle = sorted(set(chain[chain.index(x) :]))
                    a, b = cycle[0], cycle[min(1, len(cycle) - 1)]
                    raise CyclicRelations(f"t_{a} and t_{b} are mutually ordered")
                x = parent.get(x)
            ups = () if x is None else up[x] + (x,)
            for y in reversed(chain):
                up[y] = ups
                ups += (y,)
        return cls(k, frozenset([(a, x) for x, ups in up.items() for a in ups]))

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


def _count_orders(elements: tuple, above: dict) -> int:
    """Downset DP: arrangements of all elements, larger-first.

    ``above[x]`` holds elements that must precede ``x``; covers suffice.
    Exponential in the number of elements; only non-forest posets use it.
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
    """Backtracking over arrangements; only non-forest posets use it."""

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


def _forest_orders(parent: dict) -> Iterator[tuple]:
    """Every linear extension of a forest, each exactly once.

    ``parent`` is as for :func:`_hook_count`.  Starting from the roots,
    pick any available node and make its children available; each
    choice sequence is one extension.  O(n) tuple work per prefix, not
    loopless (Varol-Rotem 1981, Pruesse-Ruskey 1994); an explicit stack
    keeps deep chains off the recursion limit.
    """
    children: dict = {x: () for x in parent}
    roots = []
    for x, p in parent.items():
        if p is None:
            roots.append(x)
        else:
            children[p] += (x,)
    n = len(parent)
    stack = [((), tuple(roots))]
    while stack:
        prefix, free = stack.pop()
        if len(prefix) == n:
            yield prefix
            continue
        for i, x in enumerate(free):
            stack.append((prefix + (x,), free[:i] + free[i + 1 :] + children[x]))


def _above_map(poset: TimePoset) -> dict:
    above = {x: set() for x in poset.elements}
    for a, b in poset.closure:
        above[b].add(a)
    return above


def _forest_parent(above: dict) -> dict | None:
    """Upper covers of a forest, parents listed first; ``None`` otherwise.

    The poset is a forest when every non-maximal element's up-set is its
    lowest ancestor's up-set plus that ancestor.
    """
    depth = {x: len(ups) for x, ups in above.items()}
    parent = {}
    for x in sorted(above, key=depth.__getitem__):
        low = max(above[x], key=depth.__getitem__, default=None)
        if low is not None and above[x] != above[low] | {low}:
            return None
        parent[x] = low
    return parent


def count_linear_extensions(poset: TimePoset) -> int:
    """Exact count: the hook formula on forests, the downset DP otherwise."""
    above = _above_map(poset)
    parent = _forest_parent(above)
    if parent is None:
        return _count_orders(poset.elements, above)
    return _hook_count(parent)


def linear_extensions(poset: TimePoset, cap: int = EXTENSION_CAP) -> frozenset:
    """All total orders refining the poset (largest time first)."""
    above = _above_map(poset)
    parent = _forest_parent(above)
    if parent is None:
        count = _count_orders(poset.elements, above)
        orders = _enumerate_orders(poset.elements, above)
    else:
        count, orders = _hook_count(parent), _forest_orders(parent)
    if count > cap:
        raise CapExceeded(f"more than {cap} linear extensions")
    return frozenset(orders)


# -- the three domains -------------------------------------------------------


def td_domain(pair: CollapsingPair) -> TimePoset:
    """One cover per admissible-tree edge; node 2 hangs under t_1."""
    tree = tree_from_pair(pair)
    parent = {1: None}
    for x in tree.labels:
        p = tree.parent_of(x)
        parent[x + 1] = 1 if p == 1 else p + 1
    return TimePoset.from_parents(pair.k, parent)


def tc_domain(pair: CollapsingPair) -> TimePoset:
    """One cover per Duhamel-tree edge; the root contributes t_1."""
    from .duhamel import build_dtree  # one-way: duhamel never imports domains

    dtree = build_dtree(pair)
    parent = {1: None}
    for x, p in sorted(dtree.parent.items()):
        parent[x + 1] = 1 if p == 0 else p + 1
    return TimePoset.from_parents(pair.k, parent)


def _reference_parents(mu, sgn) -> dict:
    """Upper covers of the reference-formula domain, parents listed first.

    t_{2j+1} hangs under the previous label with the same (mu, sgn),
    else under its M/R attachment point t_{a+1}, where a = mu(2j)
    rounded down to even (t_1 for the branch at value 1).
    """
    parent = {1: None}
    last = {}
    for j, key in enumerate(zip(mu, sgn), start=1):
        v = key[0]
        parent[2 * j + 1] = last.get(key, v - v % 2 + 1)
        last[key] = 2 * j + 1
    return parent


def tr_domain(reference: CollapsingPair) -> TimePoset:
    """Closed-formula domain of a reference pair.

    Same-branch same-sign pairs are ordered by label; every node is
    below its M/R attachment point; the branch at value 1 sits under
    t_1.
    """
    from .canonical import is_reference

    if not is_reference(reference):
        raise NotReference(f"not a reference pair: {reference}")
    return TimePoset.from_parents(reference.k, _reference_parents(reference.mu, reference.sgn))


def relabel_domain(poset: TimePoset, sigma: TimePermutation) -> TimePoset:
    """sigma[poset]: t_a -> t_{sigma(a-1)+1} on every relation, t_1 fixed.

    The renaming is a bijection of the labels fixing t_1, hence an order
    isomorphism: renaming the closure pairs gives the closure.
    """
    rename = {a: sigma.of(a) for a in poset.elements}
    return TimePoset(poset.k, frozenset((rename[a], rename[b]) for a, b in poset.closure))


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
