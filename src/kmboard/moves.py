"""The three group actions of the board game.

KM acceptable moves conjugate the map by an adjacent double
transposition ``(2j,2j+2)(2j+1,2j+3)`` subject to an admissibility
condition; they permute tree labels but fix the (signed) skeleton.
Reductions apply them to the map directly (see
:func:`kmboard.canonical.reduce_to_labeling`).  Wild moves act by
allowable permutations; they fix the left-branch partition but change
the skeleton.  The checks run them on map and sign arrays
(:func:`_act_arrays`, :func:`_allowable`, :func:`_interleavings`);
:func:`apply_wild` accumulates the time relabeling ``sigma`` in a
:class:`MoveState`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import KMismatch, NotAllowable, NotTamed
from .pairs import CollapsingPair, TimePermutation


# kmbench's query workload reaches this, so moving it is a benchmark change.
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


def _act_arrays(mu, sgn, image, conjugate: bool) -> tuple[tuple, tuple]:
    """The arrays of :func:`_act`, from the arrays of the pair and of rho.

    ``ext`` is rho on the labels 1..2k+1 (rho fixes 1 and sends the odd
    label 2l+1 to rho(2l) + 1), indexed by label.
    """
    src = [0] * len(image)  # src[j-1] = i-1 where rho(2i) = 2j
    ext = [0, 1]
    for i, v in enumerate(image):
        src[(v - 2) >> 1] = i
        ext.append(v)
        ext.append(v + 1)
    values = [mu[i] for i in src] if conjugate else mu
    return tuple([ext[v] for v in values]), tuple([sgn[i] for i in src])


def _act(pair: CollapsingPair, rho: TimePermutation, conjugate: bool) -> CollapsingPair:
    """mu' = rho.mu.rho^-1 (KM, conjugate) or rho.mu (wild); sgn' = sgn.rho^-1."""
    return CollapsingPair(pair.k, *_act_arrays(pair.mu, pair.sgn, rho.image, conjugate))


def _allowable(mu, sgn, image) -> bool:
    """Is ``image`` a permutation of the even labels allowable for ``mu``, ``sgn``?

    Same-sign members of a left branch keep their order exactly when
    each one's image exceeds that of the previous one, so one pass over
    the labels decides both conditions; the labels it meets must be
    2, 4, ..., 2k, each once.
    """
    last: dict[tuple, int] = {}  # (mu value, sign) -> image of the previous such label
    seen = 0
    for i, v in enumerate(image):
        m = mu[i]
        if mu[(v - 2) >> 1] != m:
            return False
        key = (m, sgn[i])
        if last.get(key, 0) > v:
            return False
        last[key] = v
        seen |= 1 << v
    return seen == ((1 << 2 * len(image) + 2) - 4) // 3  # bits 2, 4, ..., 2k


def is_allowable(pair: CollapsingPair, rho: TimePermutation) -> bool:
    """Group-preserving and same-sign order-preserving for this pair."""
    if rho.k != pair.k:
        raise KMismatch(f"permutation of order {rho.k} acts on a pair of order {pair.k}")
    return _allowable(pair.mu, pair.sgn, rho.image)


def _interleavings(groups, sgn) -> list[tuple[int, ...]]:
    """The images of every allowable permutation, in lexicographic order.

    ``groups`` lists the sign indices of each left branch (see
    ``canonical._MapProfile.groups``).  Per branch, every interleaving
    keeps the ``+`` members and the ``-`` members in their own order;
    the branch choices multiply.
    """
    per_group = []
    for g in groups:
        plus = [i for i in g if sgn[i] == "+"]
        if not 0 < len(plus) < len(g):
            continue  # one sign: the branch's only interleaving fixes it
        members = plus + [i for i in g if sgn[i] == "-"]
        options = []
        for plus_slots in itertools.combinations(g, len(plus)):
            slots = plus_slots + tuple(i for i in g if i not in plus_slots)
            options.append(tuple(zip(members, [2 * i + 2 for i in slots])))
        per_group.append(options)
    identity = list(range(2, 2 * len(sgn) + 1, 2))
    images = []
    for combo in itertools.product(*per_group):
        image = identity[:]
        for mapping in combo:
            for i, y in mapping:
                image[i] = y
        images.append(tuple(image))
    images.sort()
    return images


# kmbench's query workload reaches this, so moving it is a benchmark change.
def apply_wild(state: MoveState, rho: TimePermutation) -> MoveState:
    """Wild move W(rho): mu' = rho.mu, sigma' = rho.sigma, sgn' = sgn.rho^-1."""
    from .canonical import is_tamed  # deferred: canonical builds on moves

    pair = state.pair
    if not is_tamed(pair):
        raise NotTamed(f"wild moves act on tamed pairs: {pair}")
    if not is_allowable(pair, rho):
        raise NotAllowable(f"{rho.image} is not allowable for {pair}")
    return MoveState(_act(pair, rho, conjugate=False), rho.compose(state.sigma))
