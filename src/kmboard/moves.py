"""The three group actions of the board game.

KM acceptable moves conjugate the map by an adjacent double
transposition ``(2j,2j+2)(2j+1,2j+3)`` subject to an admissibility
condition; they permute tree labels but fix the (signed) skeleton.
Wild moves act by allowable permutations; they fix the left-branch
partition but change the skeleton.  Both accumulate a time relabeling
``sigma``.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .errors import CapExceeded, NotAcceptable, NotAllowable, NotTamed
from .pairs import CollapsingPair, TimePermutation, enumerate_pairs
from .trees import skeleton_key


@dataclass(frozen=True)
class MoveState:
    """A pair together with the accumulated time relabeling."""

    pair: CollapsingPair
    sigma: TimePermutation

    @classmethod
    def start(cls, pair: CollapsingPair) -> "MoveState":
        return cls(pair, TimePermutation.identity(pair.k))


def km_admissible_indices(pair: CollapsingPair) -> list[int]:
    """Indices j in {2..k-1} where the adjacent move is acceptable.

    The move at j needs ``mu(2j) != mu(2j+2)`` and ``mu(2j+2) < 2j``.
    j=1 is never offered: mu(2)=1 is pinned.
    """
    return [
        j
        for j in range(2, pair.k)
        if pair.mu[j - 1] != pair.mu[j] and pair.mu[j] < 2 * j
    ]


def _permuted_value(rho: TimePermutation, v: int) -> int:
    # mu values live in 1..2k-1; rho fixes 1 and extends to odd labels
    return 1 if v == 1 else rho.of(v)


def _act(pair: CollapsingPair, rho: TimePermutation, conjugate: bool) -> CollapsingPair:
    """mu' = rho.mu.rho^-1 (KM, conjugate) or rho.mu (wild); sgn' = sgn.rho^-1."""
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


def apply_signed_km(state: MoveState, j: int) -> MoveState:
    """One signed KM acceptable move at index j (an involution)."""
    pair = state.pair
    if j not in km_admissible_indices(pair):
        raise NotAcceptable(j)
    rho = TimePermutation.transposition(pair.k, 2 * j, 2 * j + 2)
    return MoveState(_act(pair, rho, conjugate=True), rho.compose(state.sigma))


def km_class(
    pair: CollapsingPair,
    signed: bool = True,
    cap: int | None = None,
    with_moves: bool = False,
):
    """Closure of the pair under all admissible (signed) moves.

    Breadth-first; unsigned mode forces all signs to ``+`` first.  With
    ``with_moves`` the result maps each member to a witnessing move
    sequence (j indices, in application order) from the seed.
    """
    seed = pair if signed else pair.unsigned()
    seen: dict[CollapsingPair, tuple[int, ...]] = {seed: ()}
    frontier = deque([seed])
    while frontier:
        current = frontier.popleft()
        for j in km_admissible_indices(current):
            nxt = apply_signed_km(MoveState.start(current), j).pair
            if nxt not in seen:
                if cap is not None and len(seen) >= cap:
                    raise CapExceeded(f"class size exceeds cap {cap}")
                seen[nxt] = seen[current] + (j,)
                frontier.append(nxt)
    return seen if with_moves else frozenset(seen)


def skeleton_fiber(pair: CollapsingPair, signed: bool = True) -> frozenset:
    """All pairs with the same (signed) skeleton, by direct enumeration.

    The independent route to the same set as :func:`km_class`; censuses
    and tests compare the two.
    """
    seed = pair if signed else pair.unsigned()
    want = skeleton_key(seed.mu, seed.sgn if signed else None)
    return frozenset(
        p
        for p in enumerate_pairs(pair.k, signed=signed)
        if skeleton_key(p.mu, p.sgn if signed else None) == want
    )


def groups_of(pair: CollapsingPair) -> dict[int, list[int]]:
    """The left-branch partition: value i -> sorted labels with mu = i."""
    groups: dict[int, list[int]] = {}
    for j in range(1, pair.k + 1):
        groups.setdefault(pair.mu[j - 1], []).append(2 * j)
    return groups


def is_allowable(pair: CollapsingPair, rho: TimePermutation) -> bool:
    """Group-preserving and same-sign order-preserving for this pair."""
    for x in pair.even_labels:
        if pair.mu_of(rho.of(x)) != pair.mu_of(x):
            return False
    for members in groups_of(pair).values():
        for a, b in itertools.combinations(members, 2):
            if pair.sgn_of(a) == pair.sgn_of(b) and rho.of(a) > rho.of(b):
                return False
    return True


def allowable_permutations(pair: CollapsingPair) -> list[TimePermutation]:
    """All permutations allowable for a tamed pair, identity included.

    Constructive: per left branch, every interleaving that keeps the
    ``+`` members and the ``-`` members in their own order; the branch
    choices multiply.  Listed in lexicographic image order.
    """
    from .canonical import is_tamed  # deferred: canonical builds on moves

    if not is_tamed(pair):
        raise NotTamed(f"allowable permutations are defined on tamed pairs: {pair}")
    per_group = []
    for members in groups_of(pair).values():
        plus = [x for x in members if pair.sgn_of(x) == "+"]
        minus = [x for x in members if pair.sgn_of(x) == "-"]
        options = []
        for plus_slots in itertools.combinations(range(len(members)), len(plus)):
            slot_set = set(plus_slots)
            targets_plus = [members[i] for i in plus_slots]
            targets_minus = [members[i] for i in range(len(members)) if i not in slot_set]
            mapping = dict(zip(plus, targets_plus))
            mapping.update(zip(minus, targets_minus))
            options.append(mapping)
        per_group.append(options)
    perms = []
    for combo in itertools.product(*per_group):
        image = {}
        for mapping in combo:
            image.update(mapping)
        perms.append(
            TimePermutation(pair.k, tuple(image[2 * j] for j in range(1, pair.k + 1)))
        )
    return sorted(perms, key=lambda p: p.image)


def apply_wild(state: MoveState, rho: TimePermutation) -> MoveState:
    """Wild move W(rho): mu' = rho.mu, sigma' = rho.sigma, sgn' = sgn.rho^-1."""
    from .canonical import is_tamed  # deferred: canonical builds on moves

    pair = state.pair
    if not is_tamed(pair):
        raise NotTamed(f"wild moves act on tamed pairs: {pair}")
    if not is_allowable(pair, rho):
        raise NotAllowable(f"{rho.image} is not allowable for {pair}")
    return MoveState(_act(pair, rho, conjugate=False), rho.compose(state.sigma))
