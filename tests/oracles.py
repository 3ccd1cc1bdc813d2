"""Slow literal definitions that the fast predicates in ``kmboard`` are checked against."""

import itertools

from kmboard.moves import groups_of


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


def brute_force_extension_count(poset) -> int:
    """Orderings of the elements, larger first, that respect every relation."""
    count = 0
    for order in itertools.permutations(poset.elements):
        place = {x: i for i, x in enumerate(order)}
        count += all(place[a] < place[b] for a, b in poset.closure)
    return count
