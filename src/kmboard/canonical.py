"""Tier values, the three canonical-form predicates, and the reductions.

Tier t(2j) is the number of mu-iterations from 2j down to 1 (equal to
the count of M/R edges on the tree path to node 1, the root edge
included).  A tamed pair is the unique member of its signed-KM class
satisfying the four ordering clauses of :class:`_MapProfile`; a reference
pair is a tamed pair whose left branches list all + nodes before all -
nodes.  Both tests read one profile per map, shared by its 2^k sign
arrays.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .errors import NotReference, NotTamed, OutOfRange
from .moves import MoveState, apply_signed_km, groups_of, is_allowable
from .pairs import ENUMERATION_CAP, SIGNS, CollapsingPair, TimePermutation, enumerate_mus
from .trees import (
    SignedTree,
    echelon_labeling,
    pair_from_tree,
    skeleton_of,
    tamed_labeling,
    tree_from_pair,
)


def _tiers(mu) -> list[int]:
    """t(2j) for j = 1..k, in label order.

    mu(2j) < 2j, so the tier of mu(2j) (that of its even mate when odd)
    is already known when 2j is reached.
    """
    tiers: list[int] = []
    for v in mu:
        tiers.append(1 if v == 1 else tiers[(v - 2) // 2] + 1)
    return tiers


def tier(pair: CollapsingPair, label: int) -> int:
    """Minimal q with mu^q(label) = 1, the extension applied per step."""
    if label % 2 or not 2 <= label <= 2 * pair.k:
        raise OutOfRange(f"tier is defined on even labels 2..{2 * pair.k}")
    return _tiers(pair.mu)[label // 2 - 1]


def tier_table(pair: CollapsingPair) -> dict[int, int]:
    """t(2j) for every even label (t(2) = 1 by convention)."""
    return dict(zip(pair.even_labels, _tiers(pair.mu)))


def is_upper_echelon(pair: CollapsingPair) -> bool:
    return all(pair.mu[j - 1] <= pair.mu[j] for j in range(1, pair.k))


class _MapProfile:
    """What the tamed and reference tests reuse across a map's sign arrays.

    Label a must be smaller than label b when, with t the tier and
    m = mu(.), m2 = mu(m), s = sgn(m):
      1. t(a) < t(b);
      2. equal tiers, m2 differs, and m(a) < m(b);
      3. equal tiers and m2, s(a) = s(b), and m(a) < m(b);
      4. equal tiers and m2, s(a) = + and s(b) = -.
    Nodes hanging off 1 carry no m2 or s, so clauses 3 and 4 skip them.
    A pair is tamed when no two labels break a clause.

    ``static_ok`` is False when a sign-independent clause already fails,
    ``sign_checks`` lists (ia, ib, need_equal) sign-array index pairs
    that must not break clauses 3 and 4, and ``groups`` lists the sign
    indices of each left branch in label order.
    """

    __slots__ = ("static_ok", "sign_checks", "groups")

    def __init__(self, mu: tuple):
        self.static_ok = False
        self.sign_checks: list[tuple[int, int, bool]] = []
        self.groups: tuple = ()
        tiers = _tiers(mu)
        keys = [(t, 0 if v == 1 else mu[(v - 2) // 2], v) for t, v in zip(tiers, mu)]
        for jb in range(1, len(mu)):  # b = 2(jb+1), a ranges below it
            tb, m2b, vb = keys[jb]
            for ja in range(jb):
                ta, m2a, va = keys[ja]
                if tb < ta:
                    return
                if tb != ta:
                    continue
                if m2a != m2b:
                    if vb < va:
                        return
                    continue
                if va == 1:  # whole tier-1 branch: no sign clause applies
                    continue
                ia, ib = (va - 2) // 2, (vb - 2) // 2
                if vb < va:
                    self.sign_checks.append((ia, ib, True))  # equal signs would violate
                self.sign_checks.append((ia, ib, False))  # (+ at b, - at a) would violate
        groups: dict[int, list[int]] = {}
        for i, v in enumerate(mu):
            groups.setdefault(v, []).append(i)
        self.groups = tuple(tuple(g) for g in groups.values())
        self.static_ok = True

    def tamed(self, sgn) -> bool:
        if not self.static_ok:
            return False
        for ia, ib, need_equal in self.sign_checks:
            sa, sb = sgn[ia], sgn[ib]
            if need_equal:
                if sa == sb:
                    return False
            elif sb == "+" and sa == "-":
                return False
        return True

    def blocks_ordered(self, sgn) -> bool:
        """Every left branch lists its + members before its - members."""
        for g in self.groups:
            seen_minus = False
            for i in g:
                if sgn[i] == "-":
                    seen_minus = True
                elif seen_minus:
                    return False
        return True


def is_tamed(pair: CollapsingPair) -> bool:
    """No two labels break a clause of :class:`_MapProfile`."""
    return _MapProfile(pair.mu).tamed(pair.sgn)


def is_reference(pair: CollapsingPair) -> bool:
    """Tamed, and every left branch is a + block followed by a - block."""
    profile = _MapProfile(pair.mu)
    return profile.tamed(pair.sgn) and profile.blocks_ordered(pair.sgn)


def tamed_pairs(k: int, cap: int = ENUMERATION_CAP) -> Iterator[CollapsingPair]:
    """Every tamed pair of order k, in :func:`enumerate_pairs` order.

    One profile per map serves all 2^k sign arrays; maps failing a
    sign-independent clause are skipped whole.
    """
    for mu in enumerate_mus(k, cap=cap):
        profile = _MapProfile(mu)
        if profile.static_ok:
            for sgn in itertools.product(SIGNS, repeat=k):
                if profile.tamed(sgn):
                    yield CollapsingPair(k, mu, sgn)


def reduce_to_labeling(
    pair: CollapsingPair, target: SignedTree
) -> tuple[CollapsingPair, tuple[int, ...]]:
    """Carry ``pair`` onto a target labeling of the same signed skeleton.

    Walks the labels in order; the node that should carry label 2j is
    bubbled up from its current label 2l through the adjacent chain
    KM(2l-2,2l), ..., KM(2j,2j+2).  Every step is checked acceptable.
    Returns the final pair and the move indices in application order.
    """
    target_path = {lab: path for path, lab in target.positions().items()}
    state = MoveState.start(pair)
    moves: list[int] = []
    for j in range(1, pair.k + 1):
        positions = tree_from_pair(state.pair).positions()
        current = positions[target_path[2 * j]]
        for m in range(current // 2 - 1, j - 1, -1):
            state = apply_signed_km(state, m)
            moves.append(m)
    return state.pair, tuple(moves)


def to_tamed(pair: CollapsingPair) -> tuple[CollapsingPair, tuple[int, ...]]:
    """The unique tamed pair of the signed-KM class, with a move witness."""
    target = tamed_labeling(skeleton_of(tree_from_pair(pair), signed=True))
    return reduce_to_labeling(pair, target)


def to_echelon(pair: CollapsingPair) -> tuple[CollapsingPair, tuple[int, ...]]:
    """The unique upper-echelon member of the (unsigned) class."""
    seed = pair.unsigned()
    target = echelon_labeling(skeleton_of(tree_from_pair(seed), signed=False))
    return reduce_to_labeling(seed, target)


def echelon_pair(pair: CollapsingPair) -> CollapsingPair:
    """Upper-echelon form read straight off the skeleton labeling."""
    tree = echelon_labeling(skeleton_of(tree_from_pair(pair), signed=False))
    return pair_from_tree(tree)


def to_reference(pair: CollapsingPair) -> tuple[CollapsingPair, TimePermutation]:
    """Reference pair of the wild class and the allowable witness.

    Per left branch, the witness rho sends the block-leading labels to
    the + members (in order) and the rest to the - members (in order);
    then reference = W(rho)^-1 applied to the input, i.e.
    input = W(rho)(reference).
    """
    if not is_tamed(pair):
        raise NotTamed(f"reference reduction needs a tamed pair: {pair}")
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
    reference = CollapsingPair(k, mu, sgn)
    if not is_reference(reference):
        raise NotReference(f"constructed pair is not a reference pair: {reference}")
    if not is_allowable(reference, rho):
        raise NotReference(f"witness {rho.image} is not allowable for {reference}")
    return reference, rho


__all__ = [
    "tier",
    "tier_table",
    "is_upper_echelon",
    "is_tamed",
    "is_reference",
    "tamed_pairs",
    "to_tamed",
    "to_echelon",
    "echelon_pair",
    "to_reference",
    "reduce_to_labeling",
]
