"""Exact counting: generalized Catalan numbers, wild classes and the class census.

The census folds every map of a coupling order into one table keyed by
unsigned skeleton shape.  :func:`_walk` carries each map's shape and
profile down a stack of prefixes, one coupling per step, so maps in
enumeration order share all but their last couplings.  The preorder
that reads a signed skeleton off a sign array is a permutation of the
sign indices, so each map of a shape meets each of the shape's 2^k
signed classes exactly once: a signed class holds as many pairs as its
shape has maps, and no pair needs a look of its own.  One profile per
map gives its tamed and reference sign arrays as two bitmasks, and,
on the sign columns read in preorder, its tamed mask by signed class:
per shape, an int of the classes met, a count of tamed pairs and the
set of its tamed maps' td hook counts.
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

import heapq
import math
import os
import time
from array import array
from bisect import bisect_left
from collections import Counter
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass, field
from itertools import chain, islice, product
from operator import itemgetter

from .canonical import _bits, _MapProfile, _sign_table
from .domains import _attached_parents, _hook_count
from .errors import CapExceeded, CensusViolation, LengthMismatch
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
    #: read-only, in enumeration order, the same at any thread count
    reference_masses: Mapping = field(default_factory=dict)
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


def _reference_code(mu, n) -> int:
    """``mu``'s entries in 5 bits each, then sign array n in k bits: 60 bits at k = 10."""
    code = 0
    for v in mu:
        code = code << 5 | v
    return code << len(mu) | n


class _ReferenceMasses(Mapping):
    """``(mu, sgn) -> mass`` read off two arrays: rising :func:`_reference_code` s,
    signs numbered as in ``sign_arrays``, and their masses."""

    def __init__(self, sign_arrays, codes, masses):
        self._signs, self._codes, self._masses = sign_arrays, codes, masses
        self._k = len(sign_arrays[0])

    def _key(self, code):
        k = self._k
        mu = tuple([code >> s & 31 for s in range(6 * k - 5, k - 1, -5)])
        return mu, self._signs[code & ~(-1 << k)]

    def __getitem__(self, key):
        try:
            mu, sgn = key
            code = _reference_code(mu, self._signs.index(sgn))
        except (TypeError, ValueError):
            raise KeyError(key) from None
        i = bisect_left(self._codes, code)
        # a map of another order or past 5 bits may share a code, not decode to it
        if i == len(self._codes) or self._codes[i] != code or self._key(code) != key:
            raise KeyError(key)
        return self._masses[i]

    def __iter__(self):
        return map(self._key, self._codes)

    def __len__(self):
        return len(self._codes)

    def __repr__(self):
        return f"{type(self).__name__}(k={self._k}, references={len(self)})"

    class _Values(ValuesView):
        def __iter__(self):
            return iter(self._mapping._masses)

    class _Items(ItemsView):
        def __iter__(self):
            return zip(self._mapping, self._mapping._masses)

    def values(self):
        return self._Values(self)

    def items(self):
        return self._Items(self)


def _splits(references, plus, multi) -> list[int]:
    """A map's reference mask cut by each multi-member sign column, by lowest
    bit: T_R reads no other, as a one-member branch's key (v, sgn) meets no label."""
    splits = [references]
    for i in chain(*multi):
        splits = [part for s in splits for part in (s & plus[i], s & ~plus[i]) if part]
    return sorted(splits, key=lambda s: s & -s)


def _class_columns(order, plus) -> list[int] | None:
    """The + column of each sign index over a shape's classes, or None if
    ``order`` is not a permutation of the sign indices.  Class c holds the
    pairs whose signs, read in ``order``, are sign array c: index
    ``order[q]`` reads ``plus[q]``, so :meth:`_MapProfile.sign_sets` on
    these columns numbers a map's tamed mask by class."""
    k = len(order)
    if sorted(order) != list(range(k)):
        return None
    columns = [0] * k
    for q, i in enumerate(order):
        columns[i] = plus[q]
    return columns


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


def _census_chunk(mus, sign_arrays, wild=None, census=True) -> tuple[dict, tuple, int]:
    """Fold a run of maps into one table entry per unsigned shape.

    The table maps each shape to ``[maps, acc, tamed, tds, first]``:
    ``acc`` has one bit per signed class met by a tamed pair, numbered as
    ``sign_arrays`` (class c holds the pairs whose signs in preorder are
    ``sign_arrays[c]``), ``tamed`` counts the tamed pairs, ``tds`` holds
    the td hook counts of the maps that hold one and ``first`` is its
    first map.  ``codes`` and ``masses``, two ``array("Q")`` s, hold each
    reference pair's rising :func:`_reference_code` and its extension
    count; the int counts the tamed pairs.  :func:`_walk` carries each
    map's profile and shape, and
    :meth:`_MapProfile.sign_sets` gives its tamed and reference arrays
    as bitmasks over ``sign_arrays``, read in list order.  Only a map
    with a tamed pair reads its preorder (:func:`_sign_order`), and
    ``sign_sets`` on its :func:`_class_columns` gives its class bits; a
    map whose preorder gives none counts its tamed pairs but meets no
    class, so its shape fails.  T_R and its mass are built once per :func:`_splits`
    part, from its lowest reference.  ``wild.map_references(mu, profile,
    table, splits)`` sees each map's (split mask, T_R, mass) list, ``table``
    being :func:`_sign_table`'s; ``census=False`` leaves the table and the
    arrays empty and grows no shape.
    """
    table: dict[str, list] = {}
    codes, masses = array("Q"), array("Q")
    n_tamed = 0
    signs = _sign_table(sign_arrays)
    for mu, profile, shape, spans in _walk(mus, census):
        if census:
            entry = table.get(shape)
            if entry is None:
                entry = table[shape] = [0, 0, 0, set(), mu]
            entry[0] += 1
        tamed, references = profile.sign_sets(signs)
        if not tamed:
            continue
        n = tamed.bit_count()
        n_tamed += n
        if census:
            columns = _class_columns(_sign_order(spans), signs[1])
            if columns is not None:  # else no class to read: the shape's re-walk names the map
                entry[1] |= profile.sign_sets((signs[0], columns))[0]
            entry[2] += n
            entry[3].add(_hook_count(_attached_parents(mu, mu)))
        if not references:
            continue
        splits = []
        for split in _splits(references, signs[1], profile.multi):
            whole = _attached_parents(mu, zip(mu, sign_arrays[(split & -split).bit_length() - 1]))
            splits.append((split, whole, _hook_count(whole)))
        if census:  # in sign-array order, so the codes rise
            base = _reference_code(mu, 0)
            for n, mass in sorted([(n, mass) for split, _, mass in splits for n in _bits(split)]):
                codes.append(base | n)
                masses.append(mass)
        if wild is not None:
            wild.map_references(mu, profile, signs, splits)
    return table, (codes, masses), n_tamed


def _merge_chunks(parts: list[tuple[dict, tuple, int]]) -> tuple[dict, tuple]:
    """One table and ``(codes, masses)`` from chunks in any order: counts add, class
    masks join, shapes go by first map and arrays merge by code, in enumeration order."""
    table, (codes, masses), _ = parts[0]
    for part_table, _, _ in parts[1:]:
        for shape, (maps, acc, tamed, tds, first) in part_table.items():
            entry = table.setdefault(shape, [0, 0, 0, set(), first])
            entry[0] += maps
            entry[1] |= acc
            entry[2] += tamed
            entry[3] |= tds
            entry[4] = min(entry[4], first)
    if len(parts) > 1:
        table = dict(sorted(table.items(), key=lambda item: item[1][4]))
        codes, masses = array("Q"), array("Q")
        for code, mass in heapq.merge(*(zip(*references) for _, references, _ in parts)):
            codes.append(code)
            masses.append(mass)
    return table, (codes, masses)


def _name_witness(k, table, sign_arrays) -> None:
    """Raise :class:`CensusViolation` if a shape fails the class clause (one
    tamed pair per class) or, if none does, the size clause (each tamed
    map's td hook count is the shape's map count).  By pigeonhole a
    shape holds one tamed pair per class when its tamed pairs meet every
    class and number as many as the classes.  A second walk in
    enumeration order names the witness, whatever chunks the fold made:
    the first failing shape by its first map, then its first class (in
    the order the fold met them) or its first tamed map that fails.  If
    the re-walk finds the flagged clause holding, the fold and the
    re-walk disagree, and the message says so."""
    full = (1 << len(sign_arrays)) - 1
    by_class = {s for s, (_, acc, n, _, _) in table.items() if acc != full or n != len(sign_arrays)}
    failing = by_class or {shape for shape, (maps, _, _, tds, _) in table.items() if tds != {maps}}
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
        if by_class and _class_columns(order, signs[1]) is None:
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
    if by_class:
        signs_in_preorder = itemgetter(*first_order)
        for sgn in sign_arrays:
            n = counts[signs_in_preorder(sgn)]
            if n != 1:
                raise CensusViolation(
                    f"class of mu={first} sgn={''.join(sgn)} holds {n} tamed pairs"
                )
    clause = "class" if by_class else "size"
    raise CensusViolation(
        f"the fold flags the {clause} clause at the shape of mu={first}, "
        "but the re-walk finds that clause holding"
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
    makes one per order), and only the claims are checked here.  Their
    ``(codes, masses)`` merge by code into ``reference_masses``.  Raises
    :class:`CensusViolation` naming a witness if any claim fails; the
    witness does not depend on how the maps were split.  A k below 1
    raises :class:`LengthMismatch` before any work.
    """
    if k < 1:
        raise LengthMismatch(f"k must be >= 1, got {k}")
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
    table, (codes, masses) = _merge_chunks(chunks)

    total = sum(entry[0] for entry in table.values()) * n_signs
    if total != expected_total:
        raise CensusViolation(f"{mode} total {total} != (2k-1)!! {times} = {expected_total}")
    if len(table) != cat:
        raise CensusViolation(f"unsigned class count {len(table)} != {cat}")
    _name_witness(k, table, sign_arrays)
    mass_total = sum(masses)
    if mass_total != expected_total:
        raise CensusViolation(
            f"extension mass {mass_total} over {len(codes)} reference pairs "
            f"!= {expected_total}"
        )
    references = wild_class_count(k) if signed else cat
    if len(codes) != references:
        raise CensusViolation(
            f"{len(codes)} reference pairs != {references}, the closed-form wild class count"
        )
    signed_classes = cat * n_signs
    return CensusReport(
        k=k,
        signed=signed,
        total_pairs=total,
        unsigned_classes=len(table),
        signed_classes=signed_classes,
        tamed_count=signed_classes,  # exactly one per class, checked above
        wild_classes=len(codes),
        class_size_histogram={
            maps: n * n_signs for maps, n in Counter(e[0] for e in table.values()).items()
        },
        mass_total=mass_total,
        reference_masses=_ReferenceMasses(sign_arrays, codes, masses),
        elapsed=time.monotonic() - start,
    )
