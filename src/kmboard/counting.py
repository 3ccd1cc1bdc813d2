"""Exact counting: generalized Catalan numbers, wild classes and the class census.

The census folds every map of a coupling order into one table keyed by
unsigned skeleton shape.  :func:`_walk` carries each map's shape and
profile down a stack of prefixes, one coupling per step, so maps in
enumeration order share all but their last couplings.  The preorder
that reads a signed skeleton off a sign array is a permutation of the
sign indices, so each map of a shape meets each of the shape's 2^k
signed classes exactly once: a signed class holds as many pairs as its
shape has maps, and no pair needs a look of its own.  One profile per
map gives its tamed and reference sign arrays as two bitmasks; the
tamed mask, its index bits permuted into preorder, is one bit per
signed class, folded into an int per shape with a second int for the
classes met twice, and with the set of its tamed maps' td hook counts.
T_R is built once per split of a map's references over its left
branches, for the census and verify's fold.  Every counting claim is
cross-checked against that table: class totals against the Catalan
numbers, one tamed pair per signed class, each class as large as the
hook count of its tamed member's td, the linear-extension mass
identity, and the reference count against the closed form of
:func:`wild_class_count`.  A failing shape is walked again to name its
witness, so chunks merge in any order.  Unsigned mode is the same fold
over the all-plus sign array alone.  All integers are exact.
:func:`_fold_maps` is the one walk over an order's maps, shared with
``kmboard.verify``.
"""

from __future__ import annotations

import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, islice, product
from operator import itemgetter

from .canonical import _bits, _MapProfile, _sign_table
from .domains import _attached_parents, _hook_count
from .errors import CapExceeded, CensusViolation
from .pairs import double_factorial_odd, enumerate_mus
from .trees import _grown, _sign_order

CENSUS_CAP = 7


def catalan_ternary(k: int) -> int:
    """Ternary trees with k nodes: C(3k, k-1) / k, exactly."""
    if k < 1:
        raise ValueError("k must be >= 1")
    q, r = divmod(math.comb(3 * k, k - 1), k)
    assert r == 0
    return q


def wild_class_count(k: int) -> int:
    """Wild classes of order k: 2 C(5k+1, k-1) / k, exactly.

    A shape is a ternary tree whose left chains are its left branches,
    and a wild class takes a branch's signs as a multiset, so a branch of
    m members gives m+1 classes: the count is [x^k] B for
    B = sum_{m>=1} (m+1) y^m, y = x (1+B)^2 (a chain node with its
    optional M and R subtrees, each a new branch).  That B counts the wild
    classes is checked numerically (against the census and verify's
    walk, k <= 8), not proved.  Lagrange inversion, which is proved, reads
    the binomial off y = x (1-y)^-4, as B = (1-y)^-2 - 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    q, r = divmod(2 * math.comb(5 * k + 1, k - 1), k)
    assert r == 0
    return q


@dataclass
class CensusReport:
    k: int
    signed: bool
    total_pairs: int
    unsigned_classes: int
    signed_classes: int
    tamed_count: int
    wild_classes: int
    class_size_histogram: dict
    mass_total: int
    reference_masses: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "signed": self.signed,
            "total_pairs": self.total_pairs,
            "unsigned_classes": self.unsigned_classes,
            "signed_classes": self.signed_classes,
            "tamed_count": self.tamed_count,
            "wild_classes": self.wild_classes,
            "class_size_histogram": {
                str(size): n for size, n in sorted(self.class_size_histogram.items())
            },
            "mass_total": self.mass_total,
        }


def _splits(references, plus, multi) -> list[int]:
    """A map's reference mask cut by each multi-member sign column, by lowest
    bit: T_R reads no other, as a one-member branch's key (v, sgn) meets no label."""
    splits = [references]
    for i in chain(*multi):
        splits = [part for s in splits for part in (s & plus[i], s & ~plus[i]) if part]
    return sorted(splits, key=lambda s: s & -s)


def _swap_selectors(k) -> dict:
    """Per pair of sign-index bits q < r, the positions of a 2^k-bit mask
    with bit q set and bit r clear: the low side of the delta swap that
    exchanges the two index bits."""
    return {
        (q, r): sum(1 << x for x in range(1 << k) if x >> q & 1 and not x >> r & 1)
        for r in range(k)
        for q in range(r)
    }


def _class_swaps(order, selectors) -> list[tuple[int, int]] | None:
    """The delta swaps that carry a mask over sign arrays to one over classes.

    Array n has - at sign index i when bit k-1-i of n is set, as in
    ``product("+-", repeat=k)``; class bit c is the array whose signs,
    read in ``order``, are array c's.  So class index bit q reads array
    index bit ``want[q]``, and swapping index bits q and r of a mask
    permutes its bits by that transposition: at most k-1 swaps, each a
    (shift, selector) pair.  None if ``order`` is not a permutation of
    the sign indices.
    """
    k = len(order)
    if sorted(order) != list(range(k)):
        return None
    want = [k - 1 - order[k - 1 - q] for q in range(k)]
    have, where, swaps = list(range(k)), list(range(k)), []
    for q in range(k):
        if have[q] != want[q]:
            r = where[want[q]]  # > q: bits below q already read their own
            swaps.append(((1 << r) - (1 << q), selectors[q, r]))
            have[q], have[r] = have[r], have[q]
            where[have[q]], where[have[r]] = q, r
    return swaps


def _class_bits(mask, swaps) -> int:
    """``mask`` over sign arrays as a mask over classes, by :func:`_class_swaps`."""
    for shift, low in swaps:
        t = (mask ^ mask >> shift) & low
        mask ^= t | t << shift
    return mask


def _fold_slice(k, i, n, fn, *args):
    """``fn`` over every n-th map of order k from the i-th: one worker's share."""
    return fn(islice(enumerate_mus(k), i, None, n), *args)


def _fold_maps(k, threads, fn, *args) -> list:
    """``fn(maps, *args)`` per chunk of the maps of order k, as a list.

    Worker i of n = min(threads, (2k-1)!!, CPUs) enumerates every n-th
    map from the i-th itself, so no map list is pickled; with n < 2 the
    one chunk is folded here."""
    n = min(threads, double_factorial_odd(k), os.cpu_count() or 1)
    if n < 2:
        return [fn(enumerate_mus(k), *args)]
    import multiprocessing

    # forked workers share the parent's code as it stands
    with multiprocessing.Pool(n) as pool:
        return pool.starmap(_fold_slice, [(k, i, n, fn, *args) for i in range(n)])


def _unshaped(shape, spans, mu, v):
    return shape, spans


def _walk(mus, shapes=True):
    """(mu, profile, shape, spans) per map of ``mus``: its :class:`_MapProfile`
    and :func:`_grown` shape and spans, carried down a stack of prefixes.

    ``stack[j]`` holds the profile, shape and spans of the first j
    couplings of the last map.  Each map pops the stack to its common
    prefix with the last map, pushes one entry per new coupling but its
    last, and derives its own from the top.  Any order of maps gives
    the same per-map results; in enumeration order consecutive maps
    share all but their last few couplings.  With ``shapes`` False no
    shape is grown: every map's shape and spans stay "" and ().
    """
    grow = _grown if shapes else _unshaped
    stack = [(_MapProfile(()), "", ())]
    prefix: tuple = ()
    for mu in mus:
        n = len(mu) - 1
        if mu[:n] != prefix:
            c = 0
            while c < n and c < len(prefix) and mu[c] == prefix[c]:
                c += 1
            del stack[c + 1 :]
            for v in mu[c:n]:
                profile, shape, spans = stack[-1]
                stack.append((profile.extended(v), *grow(shape, spans, profile.mu, v)))
            prefix = mu[:n]
        profile, shape, spans = stack[-1]
        yield (mu, profile.extended(mu[n]), *grow(shape, spans, prefix, mu[n]))


def _census_chunk(mus, sign_arrays, wild=None, census=True) -> tuple[dict, dict, int]:
    """Fold a run of maps into one table entry per unsigned shape.

    The table maps each shape to ``[maps, acc, twice, tds]``.  ``acc``
    and ``twice`` have one bit per signed class of the shape, numbered
    as ``sign_arrays`` (class c holds the pairs whose signs in preorder
    are ``sign_arrays[c]``): the classes met by a tamed pair, and those
    met by two (every bit, -1, once a tamed map's preorder is no
    permutation of the sign indices).  ``tds`` holds the td hook counts
    of the maps that hold a tamed pair.  The second dict maps each
    reference pair, keyed by its own ``(mu, sgn)`` arrays, to its
    extension count; the int counts the tamed pairs.  :func:`_walk`
    carries each map's profile and shape, and
    :meth:`_MapProfile.sign_sets` gives its tamed and reference arrays
    as bitmasks over ``sign_arrays``, read in list order.  Only a map
    with a tamed pair reads its preorder (:func:`_sign_order`), and
    :func:`_class_swaps` (memoised per preorder) permutes its tamed mask
    into class bits.  T_R and its mass are built once per :func:`_splits`
    part, from its lowest reference.  ``wild.map_references(mu, profile,
    table, splits)`` sees each map's (split mask, T_R, mass) list, ``table``
    being :func:`_sign_table`'s; ``census=False`` leaves both dicts empty
    and grows no shape.
    """
    table: dict[str, list] = {}
    masses: dict[tuple, int] = {}
    n_tamed = 0
    signs = _sign_table(sign_arrays)
    selectors = _swap_selectors(len(sign_arrays[0])) if census else {}
    swaps_of: dict[tuple, list] = {}
    for mu, profile, shape, spans in _walk(mus, census):
        if census:
            entry = table.get(shape)
            if entry is None:
                entry = table[shape] = [0, 0, 0, set()]
            entry[0] += 1
        tamed, references = profile.sign_sets(signs)
        if not tamed:
            continue
        n_tamed += tamed.bit_count()
        if census:
            order = _sign_order(spans)
            preorder = tuple(order)
            if preorder not in swaps_of:
                swaps_of[preorder] = _class_swaps(order, selectors)
            swaps = swaps_of[preorder]
            if swaps is None:  # no class to read: fail the shape, whose re-walk names the map
                entry[2] = -1
            else:
                classes = _class_bits(tamed, swaps)
                entry[2] |= entry[1] & classes
                entry[1] |= classes
            entry[3].add(_hook_count(_attached_parents(mu, mu)))
        if not references:
            continue
        splits = []
        for split in _splits(references, signs[1], profile.multi):
            whole = _attached_parents(mu, zip(mu, sign_arrays[(split & -split).bit_length() - 1]))
            splits.append((split, whole, _hook_count(whole)))
        if census:  # in sign-array order
            for n, mass in sorted([(n, mass) for split, _, mass in splits for n in _bits(split)]):
                masses[mu, sign_arrays[n]] = mass
        if wild is not None:
            wild.map_references(mu, profile, signs, splits)
    return table, masses, n_tamed


def _merge_chunks(parts: list[tuple[dict, dict, int]]) -> tuple[dict, dict]:
    """One table and mass dict from chunks in any order; a class met in two is met twice."""
    table, masses, _ = parts[0]
    for part_table, part_masses, _ in parts[1:]:
        for shape, (maps, acc, twice, tds) in part_table.items():
            entry = table.setdefault(shape, [0, 0, 0, set()])
            entry[0] += maps
            entry[2] |= twice | entry[1] & acc
            entry[1] |= acc
            entry[3] |= tds
        masses.update(part_masses)
    return table, masses


def _name_witness(k, table, sign_arrays) -> None:
    """Raise :class:`CensusViolation` if a shape fails the class clause (one
    tamed pair per class) or, if none does, the size clause (each tamed
    map's td hook count is the shape's map count).  A second walk in
    enumeration order names the witness, whatever chunks the fold made:
    the first failing shape by its first map, then its first class (in
    the order the fold met them) or its first tamed map that fails."""
    full = (1 << len(sign_arrays)) - 1
    by_class = {shape for shape, (_, acc, twice, _) in table.items() if acc != full or twice}
    failing = by_class or {shape for shape, (maps, *_, tds) in table.items() if tds != {maps}}
    if not failing:
        return
    first, shape, counts = None, None, Counter()
    signs = _sign_table(sign_arrays)
    for mu, profile, this, spans in _walk(enumerate_mus(k)):
        if shape is None and this in failing:
            shape, maps = this, table[this][0]
        if this != shape:
            continue
        order = _sign_order(spans)
        if by_class and sorted(order) != list(range(k)):
            raise CensusViolation(
                f"preorder of mu={mu} reads sign indices {order}, not each of 0..{k - 1} once"
            )
        if first is None:
            first, first_order = mu, order
        tamed = profile.sign_sets(signs)[0]
        tamed_signs = [sign_arrays[n] for n in _bits(tamed)]
        if by_class:
            counts.update(map(itemgetter(*order), tamed_signs))  # a bare sign when k = 1
        elif tamed and (td := _hook_count(_attached_parents(mu, mu))) != maps:
            text = f"class of mu={mu} sgn={''.join(tamed_signs[0])} holds {maps} pairs"
            raise CensusViolation(f"{text} != td hook count {td}")
    signs_in_preorder = itemgetter(*first_order)
    for sgn in sign_arrays:
        n = counts[signs_in_preorder(sgn)]
        if n != 1:
            raise CensusViolation(f"class of mu={first} sgn={''.join(sgn)} holds {n} tamed pairs")
    raise CensusViolation(
        f"shape of mu={first} has {len(counts)} signed classes with a tamed pair, "
        f"not {len(sign_arrays)}"
    )


def census(k: int, signed: bool = True, threads: int = 1, chunks=None) -> CensusReport:
    """Fold all pairs of order k into their skeleton classes and verify.

    Signed mode folds every map with every sign array; unsigned mode
    folds every map with the all-plus sign array alone.  KM moves keep
    an all-plus pair all-plus, so its classes are the unsigned classes
    and every claim holds with 2^k replaced by 1: catalan(k) classes,
    one tamed pair in each, reference masses summing to (2k-1)!!.
    :func:`_fold_maps` splits the maps over at most ``threads`` worker
    processes.  ``chunks`` hands over the :func:`_census_chunk` folds of
    a walk over every map that the caller has made (``kmboard.verify``
    makes one per order), and only the claims are checked here.  Raises
    :class:`CensusViolation` naming a witness if any claim fails; the
    witness does not depend on how the maps were split.
    """
    if k > CENSUS_CAP:
        raise CapExceeded(f"census k={k} exceeds cap {CENSUS_CAP}")
    start = time.monotonic()
    sign_arrays = list(product("+-", repeat=k)) if signed else [("+",) * k]
    mode, times = ("signed", "2^k") if signed else ("unsigned", "2^0")
    n_signs = len(sign_arrays)
    cat = catalan_ternary(k)
    expected_total = double_factorial_odd(k) * n_signs

    if chunks is None:
        chunks = _fold_maps(k, threads, _census_chunk, sign_arrays)
    table, masses = _merge_chunks(chunks)

    total = sum(entry[0] for entry in table.values()) * n_signs
    if total != expected_total:
        raise CensusViolation(f"{mode} total {total} != (2k-1)!! {times} = {expected_total}")
    if len(table) != cat:
        raise CensusViolation(f"unsigned class count {len(table)} != {cat}")
    _name_witness(k, table, sign_arrays)
    mass_total = sum(masses.values())
    if mass_total != expected_total:
        raise CensusViolation(
            f"extension mass {mass_total} over {len(masses)} reference pairs "
            f"!= {expected_total}"
        )
    references = wild_class_count(k) if signed else cat
    if len(masses) != references:
        raise CensusViolation(
            f"{len(masses)} reference pairs != {references}, the closed-form wild class count"
        )
    signed_classes = cat * n_signs
    return CensusReport(
        k=k,
        signed=signed,
        total_pairs=total,
        unsigned_classes=len(table),
        signed_classes=signed_classes,
        tamed_count=signed_classes,  # exactly one per class, checked above
        wild_classes=len(masses),
        class_size_histogram={
            maps: n * n_signs for maps, n in Counter(e[0] for e in table.values()).items()
        },
        mass_total=mass_total,
        reference_masses=masses,
        elapsed=time.monotonic() - start,
    )
