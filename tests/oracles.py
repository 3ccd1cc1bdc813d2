"""Slow literal definitions that the fast predicates in ``kmboard`` are checked against."""

import itertools

from kmboard.domains import TimePoset
from kmboard.duhamel import (
    Atom,
    Conj,
    Evolve,
    Prod,
    _merge_evolve,
    build_dtree,
    conj,
    evolve,
    expr_key,
    prod,
)
from kmboard.errors import CapExceeded
from kmboard.moves import groups_of
from kmboard.pairs import ENUMERATION_CAP, CollapsingPair, TimePermutation, enumerate_pairs
from kmboard.trees import skeleton_key, tree_from_pair


def literal_tiers(pair):
    """t(x) by iterating the extended map down to 1, one label at a time."""
    tiers = {}
    for x in pair.even_labels:
        q, y = 0, x
        while y != 1:
            y = pair.mu_of(y)
            q += 1
        tiers[x] = q
    return tiers


def _tamed_keys(pair):
    """(tier, mu^2, sgn(mu), mu) per even label; mu=1 parents get sentinels."""
    tiers = literal_tiers(pair)
    keys = {}
    for x in pair.even_labels:
        v = pair.mu_of(x)
        if v == 1:
            keys[x] = (tiers[x], 0, None, v)
        else:
            keys[x] = (tiers[x], pair.mu_of(v), pair.sgn_of(v), v)
    return keys


def _required_before(ka, kb) -> bool:
    """Must a node with key ``ka`` carry a smaller label than one with ``kb``?"""
    ta, m2a, sa, ma = ka
    tb, m2b, sb, mb = kb
    if ta != tb:
        return ta < tb
    if m2a == m2b:
        if sa == sb and ma < mb:
            return True
        return sa == "+" and sb == "-"
    return ma < mb


def literal_is_tamed(pair) -> bool:
    """The four ordering clauses, checked pairwise over labels."""
    keys = _tamed_keys(pair)
    labels = list(pair.even_labels)
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            if _required_before(keys[b], keys[a]):
                return False
    return True


def literal_is_reference(pair) -> bool:
    """Tamed, and every left branch is a + block followed by a - block."""
    if not literal_is_tamed(pair):
        return False
    for members in groups_of(pair).values():
        signs = [pair.sgn_of(x) for x in members]
        if "-" in signs and "+" in signs[signs.index("-") :]:
            return False
    return True


def fixpoint_closure(pairs) -> frozenset:
    """Transitive closure by adding composed pairs until nothing changes."""
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


def brute_force_extensions(poset) -> frozenset:
    """Orderings of the elements, larger first, that respect every relation."""
    orders = []
    for order in itertools.permutations(poset.elements):
        place = {x: i for i, x in enumerate(order)}
        if all(place[a] < place[b] for a, b in poset.closure):
            orders.append(order)
    return frozenset(orders)


# -- the domains as relation sets, before they were built from parent maps ----


def td_relations(pair) -> list:
    """One relation per admissible-tree edge, plus t_1 >= t_3."""
    tree = tree_from_pair(pair)
    relations = [(1, 3)]
    for x in tree.labels:
        p = tree.parent_of(x)
        if p != 1:
            relations.append((p + 1, x + 1))
    return relations


def tc_relations(pair) -> list:
    """One relation per Duhamel-tree edge; the root contributes t_1."""
    dtree = build_dtree(pair)
    return [(1 if p == 0 else p + 1, x + 1) for x, p in sorted(dtree.parent.items())]


def tr_relations(reference) -> list:
    """The reference formula, literally: same-branch same-sign pairs by
    label, every node below its M/R attachment point, the branch at
    value 1 under t_1."""
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
    return relations


def relabel_by_reduction(poset, sigma):
    """Rename the covers, then close again."""

    def rename(a: int) -> int:
        return 1 if a == 1 else sigma.of(a - 1) + 1

    return TimePoset.from_relations(
        poset.k, [(rename(a), rename(b)) for a, b in poset.reduction()]
    )


# -- moves and permutations, by their definitions ------------------------------


def all_permutations(k, cap=ENUMERATION_CAP):
    """Every permutation of the even labels (k! of them)."""
    if k > cap:
        raise CapExceeded(f"k={k} exceeds enumeration cap {cap}")
    for image in itertools.permutations(range(2, 2 * k + 1, 2)):
        yield TimePermutation(k, image)


def skeleton_fiber(pair, signed=True) -> frozenset:
    """All pairs with the same (signed) skeleton, by direct enumeration."""
    seed = pair if signed else pair.unsigned()
    want = skeleton_key(seed.mu, seed.sgn if signed else None)
    return frozenset(
        p
        for p in enumerate_pairs(pair.k, signed=signed)
        if skeleton_key(p.mu, p.sgn if signed else None) == want
    )


def _permuted_value(rho, v):
    return 1 if v == 1 else rho.of(v)


def literal_act(pair, rho, conjugate):
    """mu' = rho.mu.rho^-1 (KM, conjugate) or rho.mu (wild); sgn' = sgn.rho^-1,
    through the extended maps ``of``, ``mu_of`` and ``sgn_of``."""
    rho_inv = rho.inverse()
    k = pair.k
    if conjugate:
        mu = tuple(
            _permuted_value(rho, pair.mu_of(rho_inv.of(2 * j))) for j in range(1, k + 1)
        )
    else:
        mu = tuple(_permuted_value(rho, pair.mu[j - 1]) for j in range(1, k + 1))
    sgn = tuple(pair.sgn_of(rho_inv.of(2 * j)) for j in range(1, k + 1))
    return CollapsingPair(k, mu, sgn)


def literal_is_allowable(pair, rho) -> bool:
    """Group-preserving, and every same-sign pair of a group keeps its order."""
    for x in pair.even_labels:
        if pair.mu_of(rho.of(x)) != pair.mu_of(x):
            return False
    for members in groups_of(pair).values():
        for a, b in itertools.combinations(members, 2):
            if pair.sgn_of(a) == pair.sgn_of(b) and rho.of(a) > rho.of(b):
                return False
    return True


def literal_to_reference(pair):
    """The reference pair and witness through the extended maps, unguarded."""
    image = {}
    for members in groups_of(pair).values():
        plus = [x for x in members if pair.sgn_of(x) == "+"]
        minus = [x for x in members if pair.sgn_of(x) == "-"]
        for src, dst in zip(members, plus + minus):
            image[src] = dst
    rho = TimePermutation(pair.k, tuple(image[2 * j] for j in range(1, pair.k + 1)))
    rho_inv = rho.inverse()
    k = pair.k
    mu = tuple(
        1 if pair.mu[j - 1] == 1 else rho_inv.of(pair.mu[j - 1]) for j in range(1, k + 1)
    )
    sgn = tuple(pair.sgn_of(rho.of(2 * j)) for j in range(1, k + 1))
    return CollapsingPair(k, mu, sgn), rho


# -- Duhamel kernels: normal form in two passes, substitution by relabeling ----


def two_pass_normalize(e):
    """Normalize the body first, then push a conjugation through the result."""
    if isinstance(e, Atom):
        return e
    if isinstance(e, Conj):
        return _conj_normalized(two_pass_normalize(e.body))
    if isinstance(e, Evolve):
        return _merge_evolve(e.a, e.b, two_pass_normalize(e.body))
    factors = []
    for f in e.factors:
        nf = two_pass_normalize(f)
        if isinstance(nf, Prod):
            factors.extend(nf.factors)
        else:
            factors.append(nf)
    if len(factors) == 1:
        return factors[0]
    return Prod(tuple(sorted(factors, key=expr_key)))


def _conj_normalized(e):
    """Conjugate of an already-normalized expression, pushed to the atoms."""
    if isinstance(e, Atom):
        return Conj(e)
    if isinstance(e, Conj):
        return e.body
    if isinstance(e, Evolve):
        return _merge_evolve(e.b, e.a, _conj_normalized(e.body))
    return Prod(tuple(sorted((_conj_normalized(f) for f in e.factors), key=expr_key)))


def _map_labels(e, rename):
    if isinstance(e, Atom):
        return e
    if isinstance(e, Conj):
        return conj(_map_labels(e.body, rename))
    if isinstance(e, Evolve):
        return evolve(rename(e.a), rename(e.b), _map_labels(e.body, rename))
    return prod(tuple(_map_labels(f, rename) for f in e.factors))


def literal_substitute_times(e, sigma):
    """Relabel t_a -> t_{sigma(a-1)+1} (t_1 and absent slots fixed), then
    normalize in two passes."""

    def rename(a):
        if a is None or a == 1:
            return a
        return sigma.of(a - 1) + 1

    return two_pass_normalize(_map_labels(e, rename))
