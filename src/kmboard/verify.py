"""The structure checks behind ``kmboard verify``.

Each check takes the order k, the :class:`VerifyRun` it belongs to and
the report lines, appends its lines and returns whether it passed.
Reference-unique, compat and mass read one :class:`WildSweep` per order,
built by whichever of them runs first and dropped with the run, so every
verify call does the sweep's work again.  Mass proves each reference's
simplex partition by containment, branch signatures and hook counts
(:func:`_partition_failure`), so it lists no linear extension.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import canonical, counting, domains, duhamel, moves
from .errors import CensusViolation
from .pairs import double_factorial_odd, enumerate_pairs, random_pair


@dataclass
class WildSweep:
    """One walk over the tamed pairs of an order, grouped by wild class.

    ``classes`` maps each reference pair to the witness images of its
    class members and ``hits`` to the number of members that
    ``canonical.is_reference`` accepts, both in enumeration order.  The
    walk stops at the first member that its witness does not carry back
    from the reference, and ``failure`` holds that report line.
    """

    n_tamed: int
    classes: dict
    hits: dict
    failure: str | None


def wild_sweep(k: int) -> WildSweep:
    """Reduce every tamed pair of order k to its reference and check the witness.

    ``to_reference`` guards its input (tamed) and its output (reference,
    witness allowable), so the round trip applies the wild move directly
    rather than through ``apply_wild``, which would repeat both guards.
    """
    classes: dict = {}
    hits: dict = {}
    n_tamed = 0
    for pair in canonical.tamed_pairs(k):
        n_tamed += 1
        reference, rho = canonical.to_reference(pair)
        if moves._act(reference, rho, conjugate=False) != pair:
            return WildSweep(n_tamed, classes, hits, f"k={k}: witness failed for {pair} FAIL")
        witnesses = classes.get(reference)
        if witnesses is None:
            witnesses = classes[reference] = []
            hits[reference] = 0
        witnesses.append(rho.image)
        hits[reference] += canonical.is_reference(pair)
    return WildSweep(n_tamed, classes, hits, None)


class VerifyRun:
    """The options of one verify call and the wild sweeps its checks share."""

    def __init__(self, seed: int, threads: int):
        self.seed = seed
        self.threads = threads
        self._sweeps: dict[int, WildSweep] = {}

    def sweep(self, k: int) -> WildSweep:
        if k not in self._sweeps:
            self._sweeps[k] = wild_sweep(k)
        return self._sweeps[k]


def _check_catalan(k, run, lines) -> bool:
    for kk in range(1, k + 1):
        try:
            report = counting.census(kk, signed=False)
        except CensusViolation as exc:
            lines.append(f"k={kk}: {exc} FAIL")
            return False
        lines.append(
            f"unsigned classes: {report.unsigned_classes} == "
            f"catalan({kk}): {counting.catalan_ternary(kk)} OK"
        )
    return True


def _check_tamed_unique(k, run, lines) -> bool:
    for kk in range(1, k + 1):
        try:
            report = counting.census(kk, signed=True, threads=run.threads)
        except CensusViolation as exc:
            lines.append(f"k={kk}: {exc} FAIL")
            return False
        lines.append(
            f"k={kk}: {report.signed_classes} signed classes, {report.tamed_count} "
            "tamed pairs, one per class OK"
        )
    return True


def _check_reference_unique(k, run, lines) -> bool:
    for kk in range(1, k + 1):
        sweep = run.sweep(kk)
        if sweep.failure:
            lines.append(sweep.failure)
            return False
        if not sweep.classes:
            lines.append(f"k={kk}: no tamed pairs FAIL")
            return False
        for reference, n in sweep.hits.items():
            if n != 1:
                lines.append(f"k={kk}: wild class of {reference} holds {n} reference pairs FAIL")
                return False
        lines.append(
            f"k={kk}: {sweep.n_tamed} tamed pairs in {len(sweep.classes)} wild classes, "
            "each with a verified reference witness OK"
        )
    return True


def _check_domain_bijection(k, run, lines) -> bool:
    for kk in range(1, k + 1):
        for pair in enumerate_pairs(kk, signed=False):
            orders = [domains.induced_order(rho) for rho in domains.sigma_set(pair)]
            if len(set(orders)) != len(orders):
                lines.append(f"k={kk}: duplicate induced order for {pair} FAIL")
                return False
            if set(orders) != domains.linear_extensions(domains.td_domain(pair)):
                lines.append(f"k={kk}: order sets differ for {pair} FAIL")
                return False
        lines.append(f"k={kk}: relabelings <-> linear extensions, exhaustively OK")
    rng = random.Random(run.seed)
    for _ in range(200):
        pair = random_pair(7, rng, signed=False)
        if len(domains.sigma_set(pair)) != domains.count_linear_extensions(
            domains.td_domain(pair)
        ):
            lines.append(f"random k=7: count mismatch for {pair} FAIL")
            return False
    lines.append("random k=7 (200 maps): relabeling count == extension count OK")
    return True


def _check_compat(k, run, lines) -> bool:
    for kk in range(1, k + 1):
        sweep = run.sweep(kk)
        if sweep.failure:
            lines.append(sweep.failure)
            return False
        for reference in sweep.classes:
            if domains.tr_domain(reference) != domains.tc_domain(reference):
                lines.append(f"k={kk}: T_R != T_C for {reference} FAIL")
                return False
        lines.append(f"k={kk}: T_R == T_C for all {len(sweep.classes)} reference pairs OK")
    return True


def _partition_failure(reference, whole, mass, orbit) -> str | None:
    """Do the orbit's relabeled simplexes partition T_R?  Say what fails, or None.

    ``whole`` is T_R, with ``mass`` orders.  Each piece is td(W(rho)(R))
    relabeled by rho^-1, built from the arrays.  Containment (every cover
    of T_R holds in each piece) puts each piece inside T_R; signatures
    (each left branch is a chain in each piece, and no two pieces chain
    all branches alike) make the pieces disjoint; counts (the pieces'
    hook counts sum to ``mass``) make them cover T_R.
    """
    covers = [(1 << p, x) for x, p in zip(whole.elements, whole.parent) if p is not None]
    branches = []  # (mu value, time labels, their bitmask) per left branch
    for v, evens in moves.groups_of(reference).items():
        if len(evens) > 1:  # a one-label branch is a chain in every piece and tells none apart
            xs = [x + 1 for x in evens]
            branches.append((v, xs, sum(1 << x for x in xs)))
    signatures = set()
    count = 0
    for rho in orbit:
        piece = domains._wild_piece(reference.mu, rho.image)
        above = {}  # label -> bitmask of the labels above it in the piece
        for x, p in piece.items():
            above[x] = 0 if p is None else above[p] | 1 << p
        where = f"rho={','.join(map(str, rho.image))}"
        if not all(above[x] & bit for bit, x in covers):
            return f"simplex of {where} leaves T_R of {reference}"
        signature = []
        for v, xs, m in branches:
            # a chain: its lowest label has all the others above it
            if not any((above[x] | 1 << x) & m == m for x in xs):
                return f"branch at {v} is not a chain in the simplex of {where} for {reference}"
            signature += (above[x] & m for x in xs)  # fixes the chain's order
        signature = tuple(signature)
        if signature in signatures:
            return f"overlapping simplexes for {reference} at {where}"
        signatures.add(signature)
        count += domains._hook_count(piece)
    if count != mass:
        return (
            f"partition misses extensions for {reference}: the pieces hold {count} of {mass} orders"
        )
    return None


def _check_mass(k, run, lines) -> bool:
    for kk in range(1, k + 1):
        sweep = run.sweep(kk)
        if sweep.failure:
            lines.append(sweep.failure)
            return False
        total = 0
        for reference, witnesses in sweep.classes.items():
            orbit = moves.allowable_permutations(reference)
            if sorted(witnesses) != [rho.image for rho in orbit]:
                lines.append(f"k={kk}: wild class of {reference} != its orbit FAIL")
                return False
            whole = domains.tr_domain(reference)
            # T_R's label-ordered map lists parents first, as _hook_count needs
            mass = domains._hook_count(dict(zip(whole.elements, whole.parent)))
            failure = _partition_failure(reference, whole, mass, orbit)
            if failure:
                lines.append(f"k={kk}: {failure} FAIL")
                return False
            total += mass
        expected = double_factorial_odd(kk) * 2**kk
        if total != expected:
            lines.append(f"k={kk}: mass {total} != {expected} FAIL")
            return False
        lines.append(f"k={kk}: disjoint partition, mass {total} == (2k-1)!!2^k OK")
    return True


def _check_duhamel(k, run, lines) -> bool:
    for kk in range(1, min(k, 3) + 1):
        for pair in enumerate_pairs(kk, signed=True):
            if duhamel.expand(pair) != tuple(
                map(duhamel.normalize, duhamel.expand_oracle(pair))
            ):
                lines.append(f"k={kk}: expansion != oracle for {pair} FAIL")
                return False
        lines.append(f"k={kk}: tree expansion == operator oracle, exhaustively OK")
    rng = random.Random(run.seed)
    for _ in range(50):
        pair = random_pair(5, rng, signed=True)
        if duhamel.expand(pair) != tuple(
            map(duhamel.normalize, duhamel.expand_oracle(pair))
        ):
            lines.append(f"random k=5: expansion != oracle for {pair} FAIL")
            return False
    lines.append("random k=5 (50 pairs): tree expansion == operator oracle OK")
    return True


#: The checks in report order.  Benchmarks wrap the entries in place, so
#: :func:`run_checks` looks each one up at call time.
CHECKS = {
    "catalan": _check_catalan,
    "tamed-unique": _check_tamed_unique,
    "reference-unique": _check_reference_unique,
    "domain-bijection": _check_domain_bijection,
    "compat": _check_compat,
    "mass": _check_mass,
    "duhamel": _check_duhamel,
}


def run_checks(names, k: int, seed: int, threads: int) -> tuple[list[str], dict]:
    """Run the named checks in order; return the report lines and name -> passed."""
    run = VerifyRun(seed, threads)
    lines: list[str] = []
    results = {name: CHECKS[name](k, run, lines) for name in names}
    return lines, results
