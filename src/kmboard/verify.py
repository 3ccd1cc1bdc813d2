"""The structure checks behind ``kmboard verify``.

Each check takes the order k, the :class:`VerifyRun` it belongs to and
the report lines, and appends its OK lines.  At its first failure it
raises :class:`CheckFailed` with the failure line, which
:func:`run_checks` alone marks FAIL.  A :class:`VerifyRun` builds each
order's signed census and :class:`WildSweep` once, for whichever check
asks first, and drops them with the run: catalan and tamed-unique read
the census, reference-unique, compat and mass the sweep.  Mass proves
each reference's simplex partition by containment, branch signatures
and hook counts (:func:`_partition_failure`), so it lists no linear
extension.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache

from . import canonical, counting, domains, duhamel, moves
from .errors import CensusViolation
from .pairs import double_factorial_odd, enumerate_pairs, random_pair


class CheckFailed(Exception):
    """A check failed; the message is its report line without ``FAIL``."""


@dataclass
class WildSweep:
    """One walk over the tamed pairs of an order, grouped by wild class.

    ``classes`` maps each reference pair to the witness images of its
    class members and ``hits`` to the number of members that
    ``canonical.is_reference`` accepts, both in enumeration order.
    """

    n_tamed: int
    classes: dict
    hits: dict


def wild_sweep(k: int) -> WildSweep:
    """Reduce every tamed pair of order k to its reference and check the witness.

    ``to_reference`` guards its input (tamed) and its output (reference,
    witness allowable), so the round trip applies the wild move directly
    rather than through ``apply_wild``, which would repeat both guards.
    Raises :class:`CheckFailed` at the first pair that its witness does
    not carry back from the reference.
    """
    classes: dict = {}
    hits: dict = {}
    n_tamed = 0
    for pair in canonical.tamed_pairs(k):
        n_tamed += 1
        reference, rho = canonical.to_reference(pair)
        if moves._act(reference, rho, conjugate=False) != pair:
            raise CheckFailed(f"k={k}: witness failed for {pair}")
        witnesses = classes.get(reference)
        if witnesses is None:
            witnesses = classes[reference] = []
            hits[reference] = 0
        witnesses.append(rho.image)
        hits[reference] += canonical.is_reference(pair)
    return WildSweep(n_tamed, classes, hits)


def _signed_census(k: int, threads: int) -> counting.CensusReport:
    """The signed census of order k; a violation fails the check that asked."""
    try:
        return counting.census(k, signed=True, threads=threads)
    except CensusViolation as exc:
        raise CheckFailed(f"k={k}: {exc}") from exc


class VerifyRun:
    """The options of one verify call and the per-order folds its checks share.

    ``census(k)`` and ``sweep(k)`` build the signed census and the wild
    sweep of order k on first use and keep them for the rest of the run.
    """

    def __init__(self, seed: int, threads: int):
        self.seed = seed
        self.census = cache(lambda k: _signed_census(k, threads))
        self.sweep = cache(wild_sweep)


def _check_catalan(k, run, lines) -> None:
    # the signed census checks every unsigned claim on its all-plus classes
    for kk in range(1, k + 1):
        lines.append(
            f"unsigned classes: {run.census(kk).unsigned_classes} == "
            f"catalan({kk}): {counting.catalan_ternary(kk)} OK"
        )


def _check_tamed_unique(k, run, lines) -> None:
    for kk in range(1, k + 1):
        report = run.census(kk)
        lines.append(
            f"k={kk}: {report.signed_classes} signed classes, {report.tamed_count} "
            "tamed pairs, one per class OK"
        )


def _check_reference_unique(k, run, lines) -> None:
    for kk in range(1, k + 1):
        sweep = run.sweep(kk)
        if not sweep.classes:
            raise CheckFailed(f"k={kk}: no tamed pairs")
        for reference, n in sweep.hits.items():
            if n != 1:
                raise CheckFailed(f"k={kk}: wild class of {reference} holds {n} reference pairs")
        lines.append(
            f"k={kk}: {sweep.n_tamed} tamed pairs in {len(sweep.classes)} wild classes, "
            "each with a verified reference witness OK"
        )


def _check_domain_bijection(k, run, lines) -> None:
    for kk in range(1, k + 1):
        for pair in enumerate_pairs(kk, signed=False):
            orders = [domains.induced_order(rho) for rho in domains.sigma_set(pair)]
            if len(set(orders)) != len(orders):
                raise CheckFailed(f"k={kk}: duplicate induced order for {pair}")
            # distinct orders of td, as many as its hook count, are all of them
            td = domains.td_domain(pair)
            covers = td.reduction()
            if len(orders) != domains.count_linear_extensions(td) or not all(
                order.index(p) < order.index(x) for order in orders for p, x in covers
            ):
                raise CheckFailed(f"k={kk}: order sets differ for {pair}")
        lines.append(f"k={kk}: relabelings <-> linear extensions, exhaustively OK")
    rng = random.Random(run.seed)
    for _ in range(200):
        pair = random_pair(7, rng, signed=False)
        if len(domains.sigma_set(pair)) != domains.count_linear_extensions(
            domains.td_domain(pair)
        ):
            raise CheckFailed(f"random k=7: count mismatch for {pair}")
    lines.append("random k=7 (200 maps): relabeling count == extension count OK")


def _check_compat(k, run, lines) -> None:
    for kk in range(1, k + 1):
        sweep = run.sweep(kk)
        for reference in sweep.classes:
            if domains.tr_domain(reference) != domains.tc_domain(reference):
                raise CheckFailed(f"k={kk}: T_R != T_C for {reference}")
        lines.append(f"k={kk}: T_R == T_C for all {len(sweep.classes)} reference pairs OK")


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


def _check_mass(k, run, lines) -> None:
    for kk in range(1, k + 1):
        total = 0
        for reference, witnesses in run.sweep(kk).classes.items():
            orbit = moves.allowable_permutations(reference)
            if sorted(witnesses) != [rho.image for rho in orbit]:
                raise CheckFailed(f"k={kk}: wild class of {reference} != its orbit")
            whole = domains.tr_domain(reference)
            # T_R's label-ordered map lists parents first, as _hook_count needs
            mass = domains._hook_count(dict(zip(whole.elements, whole.parent)))
            failure = _partition_failure(reference, whole, mass, orbit)
            if failure:
                raise CheckFailed(f"k={kk}: {failure}")
            total += mass
        expected = double_factorial_odd(kk) * 2**kk
        if total != expected:
            raise CheckFailed(f"k={kk}: mass {total} != {expected}")
        lines.append(f"k={kk}: disjoint partition, mass {total} == (2k-1)!!2^k OK")


def _expansion_matches_oracle(pair) -> bool:
    return duhamel.expand(pair) == tuple(map(duhamel.normalize, duhamel.expand_oracle(pair)))


def _check_duhamel(k, run, lines) -> None:
    for kk in range(1, min(k, 3) + 1):
        for pair in enumerate_pairs(kk, signed=True):
            if not _expansion_matches_oracle(pair):
                raise CheckFailed(f"k={kk}: expansion != oracle for {pair}")
        lines.append(f"k={kk}: tree expansion == operator oracle, exhaustively OK")
    rng = random.Random(run.seed)
    for _ in range(50):
        pair = random_pair(5, rng, signed=True)
        if not _expansion_matches_oracle(pair):
            raise CheckFailed(f"random k=5: expansion != oracle for {pair}")
    lines.append("random k=5 (50 pairs): tree expansion == operator oracle OK")


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
    """Run the named checks in order; return the report lines and name -> passed.

    A check that raises :class:`CheckFailed` ends with its line marked
    FAIL and the next check runs; any other exception propagates.
    """
    run = VerifyRun(seed, threads)
    lines: list[str] = []
    results = {}
    for name in names:
        try:
            CHECKS[name](k, run, lines)
            results[name] = True
        except CheckFailed as exc:
            lines.append(f"{exc} FAIL")
            results[name] = False
    return lines, results
