"""Exact counting: generalized Catalan numbers and the class census.

The census streams every pair of a coupling order, folds it into hash
buckets keyed by canonical forms, and cross-checks every counting claim
(class totals against the Catalan numbers, one tamed pair per signed
class, the linear-extension mass identity).  All integers are exact.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .canonical import _MapProfile
from .domains import _count_orders
from .errors import CapExceeded, CensusViolation
from .pairs import double_factorial_odd, enumerate_mus
from .trees import preorder_positions, skeleton_key

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

    def to_json(self, include_masses: bool = False) -> dict:
        out = {
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
        if include_masses:
            out["reference_masses"] = dict(sorted(self.reference_masses.items()))
        return out


def _tc_extension_count(mu, sgn) -> int:
    """Linear extensions of the compatible domain, straight off the arrays."""
    k = len(mu)
    above = {1: ()}  # t_{2j+1} waits for its Duhamel parent; the root's is t_1
    seen = {}
    for j in range(1, k + 1):
        key = (mu[j - 1], sgn[j - 1])
        if key in seen:
            parent = seen[key]
        elif mu[j - 1] == 1:
            parent = 0
        else:
            v = mu[j - 1]
            parent = v if v % 2 == 0 else v - 1
        above[2 * j + 1] = (parent + 1,)
        seen[key] = 2 * j
    return _count_orders(tuple(above), above)


def _census_signed_chunk(k: int, mus) -> dict:
    from itertools import product

    unsigned: set[str] = set()
    signed_first: dict[tuple, tuple] = {}
    signed_sizes: dict[tuple, int] = {}
    tamed_per_class: dict[tuple, int] = {}
    tamed = 0
    masses: dict[str, int] = {}
    sign_arrays = list(product("+-", repeat=k))
    for mu in mus:
        ukey = skeleton_key(mu)
        unsigned.add(ukey)
        order = [(x - 2) // 2 for x in preorder_positions(mu)]
        profile = _MapProfile(mu)
        for sgn in sign_arrays:
            skey = (ukey, tuple(sgn[i] for i in order))
            signed_sizes[skey] = signed_sizes.get(skey, 0) + 1
            if skey not in signed_first:
                signed_first[skey] = (mu, sgn)
            if profile.tamed(sgn):
                tamed += 1
                tamed_per_class[skey] = tamed_per_class.get(skey, 0) + 1
                if profile.blocks_ordered(sgn):
                    ref_key = f"mu={','.join(map(str, mu))} sgn={','.join(sgn)}"
                    masses[ref_key] = _tc_extension_count(mu, sgn)
    return {
        "unsigned": unsigned,
        "signed_first": signed_first,
        "signed_sizes": signed_sizes,
        "tamed_per_class": tamed_per_class,
        "tamed": tamed,
        "masses": masses,
    }


def _merge_chunks(parts: list[dict]) -> dict:
    out = parts[0]
    for part in parts[1:]:
        out["unsigned"] |= part["unsigned"]
        for skey, n in part["signed_sizes"].items():
            out["signed_sizes"][skey] = out["signed_sizes"].get(skey, 0) + n
        for skey, first in part["signed_first"].items():
            out["signed_first"].setdefault(skey, first)
        for skey, n in part["tamed_per_class"].items():
            out["tamed_per_class"][skey] = out["tamed_per_class"].get(skey, 0) + n
        out["tamed"] += part["tamed"]
        out["masses"].update(part["masses"])
    return out


def census(k: int, signed: bool = True, cap: int = CENSUS_CAP, threads: int = 1) -> CensusReport:
    """Stream all pairs of order k, bucket by canonical keys, verify.

    Raises :class:`CensusViolation` naming a witness if any counting
    claim fails.  Unsigned mode stops after the Catalan cross-check.
    """
    if k > cap:
        raise CapExceeded(f"census k={k} exceeds cap {cap}")
    start = time.monotonic()
    expected_unsigned = double_factorial_odd(k)
    cat = catalan_ternary(k)

    if not signed:
        buckets: dict[str, int] = {}
        for mu in enumerate_mus(k):
            key = skeleton_key(mu)
            buckets[key] = buckets.get(key, 0) + 1
        total = sum(buckets.values())
        if total != expected_unsigned:
            raise CensusViolation(f"unsigned total {total} != (2k-1)!! = {expected_unsigned}")
        if len(buckets) != cat:
            raise CensusViolation(f"unsigned class count {len(buckets)} != catalan {cat}")
        hist: dict[int, int] = {}
        for size in buckets.values():
            hist[size] = hist.get(size, 0) + 1
        return CensusReport(
            k, False, total, len(buckets), 0, 0, 0, hist, 0, {}, time.monotonic() - start
        )

    mus = list(enumerate_mus(k))
    if threads > 1:
        import multiprocessing

        chunks = [mus[i::threads] for i in range(threads)]
        with multiprocessing.Pool(threads) as pool:
            parts = pool.starmap(_census_signed_chunk, [(k, c) for c in chunks])
        data = _merge_chunks(parts)
    else:
        data = _census_signed_chunk(k, mus)

    total = sum(data["signed_sizes"].values())
    expected_total = expected_unsigned * 2**k
    if total != expected_total:
        raise CensusViolation(f"signed total {total} != (2k-1)!! 2^k = {expected_total}")
    signed_classes = len(data["signed_sizes"])
    if signed_classes != cat * 2**k:
        raise CensusViolation(
            f"signed class count {signed_classes} != catalan*2^k = {cat * 2 ** k}"
        )
    if len(data["unsigned"]) != cat:
        raise CensusViolation(f"unsigned class count {len(data['unsigned'])} != {cat}")
    for skey in data["signed_sizes"]:
        n = data["tamed_per_class"].get(skey, 0)
        if n != 1:
            mu, sgn = data["signed_first"][skey]
            raise CensusViolation(
                f"class of mu={mu} sgn={''.join(sgn)} holds {n} tamed pairs"
            )
    if data["tamed"] != cat * 2**k:
        raise CensusViolation(f"tamed count {data['tamed']} != catalan*2^k")
    mass_total = sum(data["masses"].values())
    if mass_total != expected_total:
        raise CensusViolation(
            f"extension mass {mass_total} over {len(data['masses'])} reference pairs "
            f"!= {expected_total}"
        )
    hist = {}
    for size in data["signed_sizes"].values():
        hist[size] = hist.get(size, 0) + 1
    return CensusReport(
        k=k,
        signed=True,
        total_pairs=total,
        unsigned_classes=len(data["unsigned"]),
        signed_classes=signed_classes,
        tamed_count=data["tamed"],
        wild_classes=len(data["masses"]),
        class_size_histogram=hist,
        mass_total=mass_total,
        reference_masses=data["masses"],
        elapsed=time.monotonic() - start,
    )
