"""Exact counting: generalized Catalan numbers and the class census.

The census folds every (map, sign array) pair of a coupling order into
one table keyed by signed skeleton, walking each map's tree once, and
cross-checks every counting claim against that table: class totals
against the Catalan numbers, one tamed pair per class, the
linear-extension mass identity.  Unsigned mode is the same fold over
the all-plus sign array alone.  All integers are exact.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from operator import itemgetter

from .canonical import _MapProfile
from .domains import _attached_parents, _hook_count
from .errors import CapExceeded, CensusViolation
from .pairs import double_factorial_odd, enumerate_mus
from .trees import _preorder

CENSUS_CAP = 6


def catalan_ternary(k: int) -> int:
    """Ternary trees with k nodes: C(3k, k-1) / k, exactly."""
    if k < 1:
        raise ValueError("k must be >= 1")
    q, r = divmod(math.comb(3 * k, k - 1), k)
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


def _census_chunk(mus, sign_arrays) -> tuple[dict, dict]:
    """Fold every (map, sign array) pair into one class table.

    The table maps each signed skeleton key ``(shape, signs in
    preorder)`` to ``[size, tamed members, first member]``; the second
    dict maps each reference pair to its extension count.
    """
    table: dict[tuple, list] = {}
    masses: dict[str, int] = {}
    for mu in mus:
        shape, order = _preorder(mu)
        signs_in_preorder = itemgetter(*order)  # a bare sign when k = 1
        profile = _MapProfile(mu)
        for sgn in sign_arrays:
            skey = (shape, signs_in_preorder(sgn))
            entry = table.get(skey)
            if entry is None:
                entry = table[skey] = [0, 0, (mu, sgn)]
            entry[0] += 1
            if profile.tamed(sgn):
                entry[1] += 1
                if profile.blocks_ordered(sgn):
                    ref_key = f"mu={','.join(map(str, mu))} sgn={','.join(sgn)}"
                    masses[ref_key] = _hook_count(_attached_parents(mu, zip(mu, sgn)))
    return table, masses


def _merge_chunks(parts: list[tuple[dict, dict]]) -> tuple[dict, dict]:
    table, masses = parts[0]
    for part_table, part_masses in parts[1:]:
        for skey, (size, tamed, first) in part_table.items():
            entry = table.setdefault(skey, [0, 0, first])
            entry[0] += size
            entry[1] += tamed
        masses.update(part_masses)
    return table, masses


def census(k: int, signed: bool = True, cap: int = CENSUS_CAP, threads: int = 1) -> CensusReport:
    """Fold all pairs of order k into their skeleton classes and verify.

    Signed mode folds every map with every sign array; unsigned mode
    folds every map with the all-plus sign array alone.  KM moves keep
    an all-plus pair all-plus, so its classes are the unsigned classes
    and every claim holds with 2^k replaced by 1: catalan(k) classes,
    one tamed pair in each, reference masses summing to (2k-1)!!.
    Raises :class:`CensusViolation` naming a witness if any claim fails.
    """
    if k > cap:
        raise CapExceeded(f"census k={k} exceeds cap {cap}")
    start = time.monotonic()
    sign_arrays = list(product("+-", repeat=k)) if signed else [("+",) * k]
    mode, times = ("signed", "2^k") if signed else ("unsigned", "2^0")
    cat = catalan_ternary(k)
    expected_classes = cat * len(sign_arrays)
    expected_total = double_factorial_odd(k) * len(sign_arrays)

    mus = list(enumerate_mus(k))
    if threads > 1:
        import multiprocessing

        chunks = [(mus[i::threads], sign_arrays) for i in range(threads)]
        with multiprocessing.Pool(threads) as pool:
            table, masses = _merge_chunks(pool.starmap(_census_chunk, chunks))
    else:
        table, masses = _census_chunk(mus, sign_arrays)

    total = sum(size for size, _, _ in table.values())
    if total != expected_total:
        raise CensusViolation(f"{mode} total {total} != (2k-1)!! {times} = {expected_total}")
    if len(table) != expected_classes:
        raise CensusViolation(
            f"{mode} class count {len(table)} != catalan*{times} = {expected_classes}"
        )
    shapes = {shape for shape, _ in table}
    if len(shapes) != cat:
        raise CensusViolation(f"unsigned class count {len(shapes)} != {cat}")
    for _, tamed, (mu, sgn) in table.values():
        if tamed != 1:
            raise CensusViolation(
                f"class of mu={mu} sgn={''.join(sgn)} holds {tamed} tamed pairs"
            )
    mass_total = sum(masses.values())
    if mass_total != expected_total:
        raise CensusViolation(
            f"extension mass {mass_total} over {len(masses)} reference pairs "
            f"!= {expected_total}"
        )
    return CensusReport(
        k=k,
        signed=signed,
        total_pairs=total,
        unsigned_classes=len(shapes),
        signed_classes=len(table),
        tamed_count=len(table),  # exactly one per class, checked above
        wild_classes=len(masses),
        class_size_histogram=dict(Counter(size for size, _, _ in table.values())),
        mass_total=mass_total,
        reference_masses=masses,
        elapsed=time.monotonic() - start,
    )
