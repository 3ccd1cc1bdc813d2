"""The tamed and reference predicates, and the reductions.

A tamed pair is the unique member of its signed-KM class
satisfying the four ordering clauses of :class:`_MapProfile`; a reference
pair is a tamed pair whose left branches list all + nodes before all -
nodes.  Both are one bitmask test, :meth:`_MapProfile.sign_sets`, on
a :func:`_sign_table` of sign arrays: a map's profile is shared by its
2^k arrays, and a single pair is a table of one array.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator

from .errors import NotAcceptable, NotReference, NotTamed
from .moves import _act_arrays, _allowable, _km_acceptable
from .pairs import ENUMERATION_CAP, SIGNS, CollapsingPair, TimePermutation, enumerate_mus
from .trees import echelon_labeling, tamed_labeling, tree_from_pair


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

    A profile grows one coupling at a time: ``_MapProfile(mu)`` folds
    :meth:`_step` over mu, and :meth:`extended` adds one coupling to a
    copy, so a walk over maps in order shares their common prefixes.
    ``keys`` holds (t, m2, m) per label, t(2j) being the number of
    mu-iterations from 2j down to 1 (the count of M/R edges on the tree
    path to node 1, the root edge included), and ``tier_from`` indexes
    the first label of the last tier.  ``static_ok`` is False
    when a sign-independent clause fails.  The sign index pairs (ia, ib)
    that clauses 3 and 4 compare are split in two: ``equal_checks``
    break a clause with equal signs, and ``order_checks`` with - at ia
    and + at ib; both are empty once ``static_ok`` is False.  ``groups``
    lists each left branch's sign indices in order, ``multi`` those of
    two or more, ``steps`` each adjacent pair, all three empty unless
    ``static_ok``.  :meth:`sign_sets` is the one tamed and reference
    test, for one sign array or for many.
    """

    __slots__ = (
        "mu",
        "keys",
        "tier_from",
        "static_ok",
        "equal_checks",
        "order_checks",
        "groups",
        "multi",
        "steps",
    )

    def __init__(self, mu: tuple):
        self.mu = mu = tuple(mu)
        self.keys, self.tier_from, self.static_ok = [], 0, True
        self.equal_checks, self.order_checks = [], []
        for jb in range(len(mu)):
            self._step(jb)
        self._branches()

    def extended(self, v: int) -> "_MapProfile":
        """The profile of this map with one more coupling, ``mu(2k+2) = v``."""
        new = object.__new__(type(self))
        new.mu, new.keys, new.tier_from = self.mu + (v,), self.keys.copy(), self.tier_from
        new.static_ok, new.equal_checks = self.static_ok, self.equal_checks.copy()
        new.order_checks = self.order_checks.copy()
        new._step(len(self.mu))
        new._branches()
        return new

    def _step(self, jb: int) -> None:
        """Add label b = 2(jb+1) of ``mu`` to the profile of its first jb labels.

        A clause that fails between two labels fails in every extension,
        so a failed profile records only the key.  Otherwise tiers never
        fall along the labels (clause 1), so b compares with the labels
        of its own tier alone, ``keys[tier_from:]``, in label order.
        """
        mu, keys = self.mu, self.keys
        v = mu[jb]
        p = (v - 2) >> 1  # if v > 1: the sign index of b's parent, node v or v - 1
        key = (1, 0, 1) if v == 1 else (keys[p][0] + 1, mu[p], v)
        keys.append(key)
        if not self.static_ok:
            return
        last = keys[jb - 1][0] if jb else 0
        if key[0] > last:
            self.tier_from = jb
            return
        if key[0] < last:
            return self._fail()
        m2b = key[1]
        equal, order = [], []
        for _, m2a, va in keys[self.tier_from : jb]:
            if m2a != m2b:
                if v < va:
                    return self._fail()
            elif va != 1:  # whole tier-1 branch: no sign clause applies
                ia = (va - 2) >> 1
                if v < va:
                    equal.append((ia, p))
                order.append((ia, p))
        self.equal_checks += equal
        self.order_checks += order

    def _fail(self) -> None:
        self.static_ok = False
        self.equal_checks, self.order_checks = [], []

    def _branches(self) -> None:
        """Set ``groups``, ``multi`` and ``steps`` from the map."""
        self.groups = self.multi = self.steps = ()
        if not self.static_ok:
            return
        groups: dict[int, list[int]] = {}
        for i, v in enumerate(self.mu):
            groups.setdefault(v, []).append(i)
        self.groups = tuple(map(tuple, groups.values()))
        self.multi = tuple([g for g in self.groups if len(g) > 1])
        self.steps = tuple([step for g in self.multi for step in zip(g, g[1:])])

    def sign_sets(self, table) -> tuple[int, int]:
        """The tamed and the reference arrays of a :func:`_sign_table` list, as bitmasks."""
        if not self.static_ok:
            return 0, 0
        full, plus = table
        bad = 0
        for ia, ib in self.equal_checks:
            bad |= ~(plus[ia] ^ plus[ib])
        for ia, ib in self.order_checks:
            bad |= plus[ib] & ~plus[ia]
        tamed = full & ~bad
        for ia, ib in self.steps:  # a branch with a - before a + has a - right before a +
            bad |= plus[ib] & ~plus[ia]
        return tamed, full & ~bad


def _sign_table(sign_arrays) -> tuple[int, list[int]]:
    """Every array of a sign-array list, bit n for the n-th, and per sign
    index the arrays with + there.  A one-array list tests one pair."""
    plus, bit = [0] * len(sign_arrays[0]), 1
    for sgn in sign_arrays:
        plus = [p | bit if s == "+" else p for p, s in zip(plus, sgn)]
        bit <<= 1
    return bit - 1, plus


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, ascending."""
    while mask:
        yield (low := mask & -mask).bit_length() - 1
        mask ^= low


#: Profiles kept by :func:`_profile`; sweeps visit a map's sign arrays
#: together, so a few dozen recent maps serve nearly every call.
_PROFILE_MEMO = 64


@functools.lru_cache(maxsize=_PROFILE_MEMO)
def _profile(mu: tuple) -> _MapProfile:
    return _MapProfile(mu)


def _pair_sign_sets(mu, sgn) -> tuple[int, int]:
    """One pair's :meth:`_MapProfile.sign_sets` bits, with no table on a static failure."""
    profile = _profile(tuple(mu))
    return profile.sign_sets(_sign_table((sgn,))) if profile.static_ok else (0, 0)


def is_tamed(pair: CollapsingPair) -> bool:
    """No two labels break a clause of :class:`_MapProfile`."""
    return _pair_sign_sets(pair.mu, pair.sgn)[0] == 1


def is_reference(pair: CollapsingPair) -> bool:
    """Tamed, and every left branch is a + block followed by a - block."""
    return _pair_sign_sets(pair.mu, pair.sgn)[1] == 1


def tamed_pairs(k: int, cap: int = ENUMERATION_CAP) -> Iterator[CollapsingPair]:
    """Every tamed pair of order k, in :func:`enumerate_pairs` order.

    One profile per map reads the tamed bits of all 2^k sign arrays.
    """
    table = None
    for mu in enumerate_mus(k, cap=cap):
        if table is None:  # past enumerate_mus's cap check: no 2^k table at a large k
            table = _sign_table(sign_arrays := list(itertools.product(SIGNS, repeat=k)))
        for n in _bits(_profile(mu).sign_sets(table)[0]):
            yield CollapsingPair(k, mu, sign_arrays[n])


def reduce_to_labeling(
    pair: CollapsingPair, rho: TimePermutation
) -> tuple[CollapsingPair, tuple[int, ...]]:
    """Carry ``pair`` onto the relabeling ``rho`` of its own tree's nodes.

    ``target[i]`` is the label that the node now labeled 2(i+1) should
    end up with.  For each label 2j in order, that node is bubbled down
    from its current label 2l through KM(2l-2,2l), ..., KM(2j,2j+2), each
    move swapping two entries of ``target``.  Every step is checked
    acceptable (:class:`NotAcceptable` otherwise) and applied to the map
    in place: the move at m swaps entries m-1 and m of ``mu`` and
    ``sgn`` and renames the values 2m <-> 2m+2 and 2m+1 <-> 2m+3.
    Acceptability keeps both swapped entries below 2m, so the renamed
    values sit after them.  Returns the final pair and the move indices
    in application order.
    """
    k = pair.k
    mu, sgn = list(pair.mu), list(pair.sgn)
    target = list(rho.image)
    moves: list[int] = []
    for j in range(1, k + 1):
        for m in range(target.index(2 * j, j - 1), j - 1, -1):
            if not _km_acceptable(mu, m):
                raise NotAcceptable(m)
            mu[m - 1], mu[m] = mu[m], mu[m - 1]
            sgn[m - 1], sgn[m] = sgn[m], sgn[m - 1]
            lo = 2 * m
            for i in range(m + 1, k):
                v = mu[i]
                if lo <= v <= lo + 3:
                    mu[i] = v + 2 if v < lo + 2 else v - 2
            target[m - 1], target[m] = target[m], target[m - 1]
            moves.append(m)
    return CollapsingPair(k, tuple(mu), tuple(sgn)), tuple(moves)


def to_tamed(pair: CollapsingPair) -> tuple[CollapsingPair, tuple[int, ...]]:
    """The unique tamed pair of the signed-KM class, with a move witness."""
    return reduce_to_labeling(pair, tamed_labeling(tree_from_pair(pair)))


def to_echelon(pair: CollapsingPair) -> tuple[CollapsingPair, tuple[int, ...]]:
    """The unique upper-echelon member of the (unsigned) class."""
    seed = pair.unsigned()
    return reduce_to_labeling(seed, echelon_labeling(tree_from_pair(seed)))


def _reference_arrays(mu, sgn, groups) -> tuple[tuple, tuple, tuple]:
    """The reference arrays of a tamed pair's wild class and the witness image, unguarded.

    ``groups`` lists the sign indices of each left branch
    (:attr:`_MapProfile.groups`).  Per branch, the witness rho sends the
    block-leading labels to the + members (in order) and the rest to the
    - members (in order); the reference arrays are those of
    W(rho)^-1 applied to the input.
    """
    image = [0] * len(mu)  # image[j-1] = rho(2j)
    back = [0] * len(mu)  # rho^-1 likewise
    for g in groups:
        for src, dst in zip(g, [i for i in g if sgn[i] == "+"] + [i for i in g if sgn[i] == "-"]):
            image[src] = 2 * dst + 2
            back[dst] = 2 * src + 2
    return (*_act_arrays(mu, sgn, back, conjugate=False), tuple(image))


def to_reference(pair: CollapsingPair) -> tuple[CollapsingPair, TimePermutation]:
    """Reference pair of the wild class and the allowable witness.

    The witness rho is that of :func:`_reference_arrays`, and
    input = W(rho)(reference).
    """
    if not _pair_sign_sets(pair.mu, pair.sgn)[0]:
        raise NotTamed(f"reference reduction needs a tamed pair: {pair}")
    mu, sgn, image = _reference_arrays(pair.mu, pair.sgn, _profile(tuple(pair.mu)).groups)
    reference = CollapsingPair(pair.k, mu, sgn)
    rho = TimePermutation(pair.k, image)
    if not is_reference(reference):
        raise NotReference(f"constructed pair is not a reference pair: {reference}")
    if not _allowable(mu, sgn, image):
        raise NotReference(f"witness {rho.image} is not allowable for {reference}")
    return reference, rho


__all__ = [
    "is_tamed",
    "is_reference",
    "tamed_pairs",
    "to_tamed",
    "to_echelon",
    "to_reference",
    "reduce_to_labeling",
]
