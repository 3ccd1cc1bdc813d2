"""The three group actions of the board game.

KM acceptable moves conjugate the map by an adjacent double
transposition ``(2j,2j+2)(2j+1,2j+3)`` subject to an admissibility
condition; they permute tree labels but fix the (signed) skeleton.
Wild moves act by allowable permutations; they fix the left-branch
partition but change the skeleton.  :func:`apply_signed_km` and
:func:`apply_wild` accumulate a time relabeling ``sigma`` in a
:class:`MoveState`.  :func:`km_class` needs only the pairs and acts by
each transposition without composing a ``sigma``; reductions apply KM
moves to the map directly (see :func:`kmboard.canonical.reduce_to_labeling`).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .errors import CapExceeded, KMismatch, NotAcceptable, NotAllowable, NotTamed
from .pairs import CollapsingPair, TimePermutation


@dataclass(frozen=True)
class MoveState:
    """A pair together with the accumulated time relabeling."""

    pair: CollapsingPair
    sigma: TimePermutation

    @classmethod
    def start(cls, pair: CollapsingPair) -> "MoveState":
        return cls(pair, TimePermutation.identity(pair.k))


def _km_acceptable(mu, j: int) -> bool:
    """Is the adjacent move at j acceptable for the map ``mu`` (``mu[j-1] = mu(2j)``)?

    It needs ``2 <= j < k``, ``mu(2j) != mu(2j+2)`` and ``mu(2j+2) < 2j``.
    j=1 is never offered: mu(2)=1 is pinned.
    """
    return 2 <= j < len(mu) and mu[j - 1] != mu[j] and mu[j] < 2 * j


def km_admissible_indices(pair: CollapsingPair) -> list[int]:
    """Indices j in {2..k-1} where the adjacent move is acceptable."""
    return [j for j in range(2, pair.k) if _km_acceptable(pair.mu, j)]


def _act(pair: CollapsingPair, rho: TimePermutation, conjugate: bool) -> CollapsingPair:
    """mu' = rho.mu.rho^-1 (KM, conjugate) or rho.mu (wild); sgn' = sgn.rho^-1.

    Indexes ``pair.mu``, ``pair.sgn`` and ``rho.image`` directly: mu
    values live in 1..2k-1, rho fixes 1 and sends the odd label 2l+1 to
    rho(2l) + 1.
    """
    image = rho.image
    src = [0] * len(image)  # src[j-1] = i-1 where rho(2i) = 2j
    for i, v in enumerate(image):
        src[(v - 2) >> 1] = i
    values = [pair.mu[i] for i in src] if conjugate else pair.mu
    mu = tuple(
        1 if v == 1 else image[(v - 2) >> 1] if v % 2 == 0 else image[(v - 3) >> 1] + 1
        for v in values
    )
    sgn = tuple(pair.sgn[i] for i in src)
    return CollapsingPair(pair.k, mu, sgn)


def apply_signed_km(state: MoveState, j: int) -> MoveState:
    """One signed KM acceptable move at index j (an involution)."""
    pair = state.pair
    if not _km_acceptable(pair.mu, j):
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
            rho = TimePermutation.transposition(current.k, 2 * j, 2 * j + 2)
            nxt = _act(current, rho, conjugate=True)
            if nxt not in seen:
                if cap is not None and len(seen) >= cap:
                    raise CapExceeded(f"class size exceeds cap {cap}")
                seen[nxt] = seen[current] + (j,)
                frontier.append(nxt)
    return seen if with_moves else frozenset(seen)


def groups_of(pair: CollapsingPair) -> dict[int, list[int]]:
    """The left-branch partition: value i -> sorted labels with mu = i."""
    groups: dict[int, list[int]] = {}
    for j in range(1, pair.k + 1):
        groups.setdefault(pair.mu[j - 1], []).append(2 * j)
    return groups


def is_allowable(pair: CollapsingPair, rho: TimePermutation) -> bool:
    """Group-preserving and same-sign order-preserving for this pair.

    Same-sign members of a left branch keep their order exactly when
    each one's image exceeds that of the previous one, so one pass over
    the labels decides both conditions.
    """
    if rho.k != pair.k:
        raise KMismatch(f"permutation of order {rho.k} acts on a pair of order {pair.k}")
    mu, sgn = pair.mu, pair.sgn
    last: dict[tuple, int] = {}  # (mu value, sign) -> image of the previous such label
    for i, v in enumerate(rho.image):
        m = mu[i]
        if mu[(v - 2) >> 1] != m:
            return False
        key = (m, sgn[i])
        if last.get(key, 0) > v:
            return False
        last[key] = v
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
    sgn = pair.sgn
    per_group = []
    for members in groups_of(pair).values():
        plus = [x for x in members if sgn[x // 2 - 1] == "+"]
        minus = [x for x in members if sgn[x // 2 - 1] == "-"]
        if not plus or not minus:
            continue  # one sign: the branch's only interleaving fixes it
        options = []
        for plus_slots in itertools.combinations(members, len(plus)):
            minus_slots = [x for x in members if x not in plus_slots]
            options.append(tuple(zip(plus, plus_slots)) + tuple(zip(minus, minus_slots)))
        per_group.append(options)
    perms = []
    for combo in itertools.product(*per_group):
        image = list(range(2, 2 * pair.k + 1, 2))
        for mapping in combo:
            for x, y in mapping:
                image[x // 2 - 1] = y
        # each branch goes onto itself, so the image is a permutation
        perms.append(TimePermutation._unchecked(pair.k, tuple(image)))
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
