"""The structure checks behind ``kmboard verify``.

Each check takes the order k, the :class:`VerifyRun` it belongs to and
the report lines, and appends its OK lines.  At its first failure it
raises :class:`CheckFailed` with the failure line, which
:func:`run_checks` alone marks FAIL.  A :class:`VerifyRun` builds each
order's signed census and :class:`WildSweep` once, for whichever check
asks first, and drops them with the run: catalan and tamed-unique read
the census, reference-unique, compat and mass the sweep.  The sweep and
mass run on map, sign and image arrays through the private kernels
that the public reduction and move functions wrap, so they validate
no pair or permutation per tamed pair.  Mass proves each
reference's simplex partition by containment, branch signatures and
hook counts (:func:`_partition_failure`), so it lists no linear
extension.  Domain-bijection walks each map's relabelings as position
arrays, and compat compares T_R and T_C as parent tuples.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import cache

from . import canonical, counting, domains, duhamel, moves, trees
from .errors import CensusViolation
from .pairs import (
    SIGNS,
    CollapsingPair,
    double_factorial_odd,
    enumerate_mus,
    enumerate_pairs,
    random_pair,
)


class CheckFailed(Exception):
    """A check failed; the message is its report line without ``FAIL``."""


def _rho_text(image) -> str:
    return f"rho={','.join(map(str, image))}"


@dataclass
class WildSweep:
    """One walk over the tamed pairs of an order, grouped by wild class.

    ``classes`` maps each reference pair to the witness images of its
    class members and ``hits`` to the number of members that are
    reference pairs themselves, both in enumeration order.
    """

    n_tamed: int
    classes: dict
    hits: dict


def wild_sweep(k: int) -> WildSweep:
    """Reduce every tamed pair of order k to its reference and check the witness.

    The walk runs on the map and sign arrays: one profile per map finds
    its tamed sign arrays, and ``canonical._reference_arrays`` reduces
    each.  Per tamed pair it checks that the reduced arrays are tamed
    and block-ordered (a reference pair), that the witness is
    allowable, and that the wild move by the witness carries them back
    to the pair; a pair is a hit when its own branches are
    block-ordered.  Raises :class:`CheckFailed` at the first pair that
    fails.  Each distinct reference is built once, as a validated
    :class:`CollapsingPair`.
    """
    classes: dict = {}
    hits: dict = {}
    n_tamed = 0
    for mu in enumerate_mus(k):
        profile = canonical._profile(mu)
        if not profile.static_ok:
            continue
        for sgn in itertools.product(SIGNS, repeat=k):
            if not profile.tamed(sgn):
                continue
            n_tamed += 1
            ref_mu, ref_sgn, image = canonical._reference_arrays(mu, sgn, profile.groups)
            # an unchecked pair finds the class; a new class keys a validated one
            reference = CollapsingPair._unchecked(k, ref_mu, ref_sgn)
            images = classes.get(reference)
            if images is None:
                reference = CollapsingPair(k, ref_mu, ref_sgn)
                images = classes[reference] = []
                hits[reference] = 0
            ref_profile = canonical._profile(ref_mu)
            if not (ref_profile.tamed(ref_sgn) and ref_profile.blocks_ordered(ref_sgn)):
                raise CheckFailed(
                    f"k={k}: {CollapsingPair(k, mu, sgn)} reduces to {reference}, "
                    "not a reference pair"
                )
            if not moves._allowable(ref_mu, ref_sgn, image):
                raise CheckFailed(
                    f"k={k}: witness {_rho_text(image)} of {CollapsingPair(k, mu, sgn)} "
                    f"is not allowable for {reference}"
                )
            if moves._act_arrays(ref_mu, ref_sgn, image, conjugate=False) != (mu, sgn):
                raise CheckFailed(f"k={k}: witness failed for {CollapsingPair(k, mu, sgn)}")
            images.append(image)
            if profile.blocks_ordered(sgn):
                hits[reference] += 1
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
    sweep of order k on first use and keep them for the rest of the run;
    a failed sweep is kept as its :class:`CheckFailed`, raised again for
    each later reader.
    """

    def __init__(self, seed: int, threads: int):
        self.seed = seed
        self.census = cache(lambda k: _signed_census(k, threads))
        self._sweeps: dict = {}  # order -> its WildSweep, or the CheckFailed it raised

    def sweep(self, k: int) -> WildSweep:
        """The wild sweep of order k; a failed sweep fails every reader alike."""
        if k not in self._sweeps:
            try:
                self._sweeps[k] = wild_sweep(k)
            except CheckFailed as exc:
                self._sweeps[k] = exc
        result = self._sweeps[k]
        if isinstance(result, CheckFailed):
            raise result
        return result


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


def _tree_parents(k, mu) -> list:
    """The admissible tree as a parent array: node 2j is j, node 1 is 0."""
    up = [0] * (k + 1)
    for x, children in trees._slots_from_mu(k, mu).items():
        for c in children:
            if c:
                up[c >> 1] = x >> 1
    return up


def _bijection_failure(k, mu) -> str | None:
    """Which clause fails between the relabelings and td of the map, or None.

    rho in Sigma ranks the tree's nodes topologically, and its simplex
    puts t_{2j+1} where rho puts node 2j, so each walked position array
    is one simplex, indexed by td label >> 1.
    """
    td = domains._attached_parents(mu, mu)
    covers = [(p >> 1, x >> 1) for x, p in td.items() if p is not None]
    orders = set()
    n = 0
    holds = True
    for pos in domains._extension_walk(_tree_parents(k, mu)):
        orders.add(tuple(pos))
        n += 1
        for p, x in covers:
            if pos[p] > pos[x]:
                holds = False
    if len(orders) != n:
        return "duplicate induced order"
    # distinct orders of td, as many as its hook count, are all of them
    if not holds or n != domains._hook_count(td):
        return "order sets differ"
    return None


def _check_domain_bijection(k, run, lines) -> None:
    for kk in range(1, k + 1):
        for mu in enumerate_mus(kk):
            failure = _bijection_failure(kk, mu)
            if failure:
                raise CheckFailed(f"k={kk}: {failure} for {CollapsingPair(kk, mu, ('+',) * kk)}")
        lines.append(f"k={kk}: relabelings <-> linear extensions, exhaustively OK")
    rng = random.Random(run.seed)
    for _ in range(200):
        pair = random_pair(7, rng, signed=False)
        walked = sum(1 for _ in domains._extension_walk(_tree_parents(7, pair.mu)))
        if walked != domains._hook_count(domains._attached_parents(pair.mu, pair.mu)):
            raise CheckFailed(f"random k=7: count mismatch for {pair}")
    lines.append("random k=7 (200 maps): relabeling count == extension count OK")


def _check_compat(k, run, lines) -> None:
    # the sweep has checked that every key is a reference pair
    for kk in range(1, k + 1):
        sweep = run.sweep(kk)
        for reference in sweep.classes:
            mu, sgn = reference.mu, reference.sgn
            if domains._tc_parents(mu, sgn) != tuple(
                domains._attached_parents(mu, zip(mu, sgn)).values()
            ):
                raise CheckFailed(f"k={kk}: T_R != T_C for {reference}")
        lines.append(f"k={kk}: T_R == T_C for all {len(sweep.classes)} reference pairs OK")


def _partition_failure(reference, whole, mass, orbit) -> str | None:
    """Do the orbit's relabeled simplexes partition T_R?  Say what fails, or None.

    ``whole`` is T_R as a parent map listing parents first, with
    ``mass`` orders; ``orbit`` lists the images of the allowable
    permutations.  Each piece is td(W(rho)(R)) relabeled by rho^-1
    (``domains._wild_piece``), kept as a label-indexed array of the
    labels above each label.  Containment (every cover of T_R holds in
    each piece) puts each piece inside T_R; signatures (each left branch
    is a chain in each piece, and no two pieces chain all branches
    alike) make the pieces disjoint; counts (the pieces' hook counts sum
    to ``mass``) make them cover T_R.
    """
    k = reference.k
    covers = [(1 << p, x >> 1) for x, p in whole.items() if p is not None]
    branches = []  # (mu value, time labels, their bitmask) per left branch
    for g in canonical._profile(reference.mu).groups:
        if len(g) > 1:  # a one-label branch is a chain in every piece and tells none apart
            xs = [2 * i + 3 for i in g]
            branches.append((reference.mu[g[0]], xs, sum(1 << x for x in xs)))
    n_orders = math.factorial(k + 1)
    signatures = set()
    count = 0
    for image in orbit:
        order, parent = domains._wild_piece(reference.mu, image)
        above = [0] * (k + 1)  # above[x >> 1]: bitmask of the labels above t_x
        for x in order[1:]:
            p = parent[x >> 1]
            above[x >> 1] = above[p >> 1] | 1 << p
        if not all(above[x] & bit for bit, x in covers):
            return f"simplex of {_rho_text(image)} leaves T_R of {reference}"
        signature = []
        for v, xs, m in branches:
            # a chain: its lowest label has all the others above it
            if not any((above[x >> 1] | 1 << x) & m == m for x in xs):
                return (
                    f"branch at {v} is not a chain in the simplex of {_rho_text(image)} "
                    f"for {reference}"
                )
            signature += (above[x >> 1] & m for x in xs)  # fixes the chain's order
        signature = tuple(signature)
        if signature in signatures:
            return f"overlapping simplexes for {reference} at {_rho_text(image)}"
        signatures.add(signature)
        # the hook-length formula of domains._hook_count, on the arrays
        size = [1] * (k + 1)  # subtree sizes, children before parents
        for x in reversed(order[1:]):
            size[parent[x >> 1] >> 1] += size[x >> 1]
        count += n_orders // math.prod(size)
    if count != mass:
        return (
            f"partition misses extensions for {reference}: the pieces hold {count} of {mass} orders"
        )
    return None


def _check_mass(k, run, lines) -> None:
    for kk in range(1, k + 1):
        total = 0
        for reference, witnesses in run.sweep(kk).classes.items():
            mu, sgn = reference.mu, reference.sgn
            orbit = moves._interleavings(canonical._profile(mu).groups, sgn)
            if sorted(witnesses) != orbit:
                raise CheckFailed(f"k={kk}: wild class of {reference} != its orbit")
            whole = domains._attached_parents(mu, zip(mu, sgn))  # T_R, parents first
            mass = domains._hook_count(whole)
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
