"""The structure checks behind ``kmboard verify``.

Each check takes the order k, the :class:`VerifyRun` it belongs to and
the report lines, and appends its OK lines.  At its first failure it
raises :class:`CheckFailed` with the failure line, which
:func:`run_checks` alone marks FAIL.  Catalan, tamed-unique,
reference-unique, compat and mass read one :class:`_Fold` per order: a
walk of the map and sign arrays for the census table, the tamed count,
and, once per split of each map's reference pairs, their orbits, T_R
against T_C and simplex partitions.  Domain-bijection walks each map's
relabelings as position arrays.  Both walks go through
``counting._fold_maps``.
"""

from __future__ import annotations

import itertools
import random

from . import canonical, counting, domains, duhamel, moves, trees
from .canonical import _bits, _MapProfile
from .errors import BoardError, CapExceeded, CensusViolation
from .pairs import (
    ENUMERATION_CAP,
    SIGNS,
    CollapsingPair,
    _check_pair,
    double_factorial_odd,
    enumerate_pairs,
    random_pair,
)


class CheckFailed(Exception):
    """A check failed; the message is its report line without ``FAIL``."""


def _rho_text(image) -> str:
    return f"rho={','.join(map(str, image))}"


def _is_pair(pair) -> bool:
    """Are a pair's arrays those of a legal pair of its order?"""
    try:
        _check_pair(pair.k, pair.mu, pair.sgn)
    except BoardError:
        return False
    return True


def _orbit_failure(mu, profile, split, table, arrays, orbit, members) -> tuple[int, str] | None:
    """Is each reference's orbit its wild class?  Say (bit, line) for the first
    that fails, or None; ``arrays`` is the sign-array list that ``split`` and
    ``table`` number, and ``members`` keeps map, src, profile per image."""
    k, full, plus = len(mu), *table
    r = next(_bits(split))
    sgn = arrays[r]
    pair = lambda n: CollapsingPair._unchecked(k, mu, arrays[n])  # noqa: E731
    reference = pair(r)
    differ = 0  # premise 1: the split has R's signs on every multi-member branch
    for i in itertools.chain(*profile.multi):
        differ |= split & (plus[i] ^ (full if sgn[i] == "+" else 0))
    if differ:
        other = pair(next(_bits(differ)))
        return r, f"{other} is walked with {reference}, but not on its left-branch signs"
    if not orbit or orbit[0] != tuple(range(2, 2 * k + 1, 2)):
        return r, f"wild class of {reference} != its orbit"
    if len(set(orbit)) != len(orbit):
        repeated = next(image for i, image in enumerate(orbit) if image in orbit[:i])
        return r, f"orbit of {reference} repeats {_rho_text(repeated)}"
    singles = [g[0] for g in profile.groups if len(g) == 1]
    once, twice, lost, masks = 0, 0, 0, []  # masks: the members' tamed, ordered bits per image
    for image in orbit:
        if any(image[i] != 2 * i + 2 for i in singles):  # premise 2
            return r, f"{_rho_text(image)} moves a one-member branch of {reference}"
        if not moves._allowable(mu, sgn, image):
            return r, f"{_rho_text(image)} is not allowable for {reference}"
        if image not in members:
            member_mu, src = moves._act_arrays(mu, range(k), image, conjugate=False)
            members[image] = member_mu, src, _MapProfile(member_mu)
        member_mu, src, member = members[image]
        tamed, ordered = member.sign_sets((full, [plus[i] for i in src]))
        masks.append((tamed, ordered))
        lost |= split & ~tamed
        if lost >> r & 1:
            break
        # by the premises, R's round trip is that of every reference of the split
        member_sgn = tuple([sgn[i] for i in src])
        got = canonical._reference_arrays(member_mu, member_sgn, member.groups)
        if got != (mu, sgn, image):
            moved = CollapsingPair._unchecked(k, member_mu, member_sgn)
            back = CollapsingPair._unchecked(k, got[0], got[1])
            if not _is_pair(back) or not canonical.is_reference(back):
                return r, f"{moved} reduces to {back}, not a reference pair"
            if not moves._allowable(*got):
                return r, f"witness {_rho_text(got[2])} of {moved} is not allowable for {back}"
            return r, f"witness failed for {moved}"
        twice |= once & ordered
        once |= ordered
    failed = split & (lost | ~once | twice)
    if not failed:
        return None
    n = next(_bits(failed))
    for image, (tamed, _) in zip(orbit, masks):
        if not tamed >> n & 1:
            member_mu, src, _ = members[image]
            member = CollapsingPair._unchecked(k, member_mu, tuple([arrays[n][i] for i in src]))
            return n, f"{_rho_text(image)} carries {pair(n)} to {member}, not a tamed pair"
    hits = sum(ordered >> n & 1 for _, ordered in masks)
    return n, f"wild class of {pair(n)} holds {hits} reference pairs"


def _uncovered(k) -> str | None:
    """Name the first tamed pair of order k that no reference's orbit holds."""
    for pair in canonical.tamed_pairs(k):
        mu, sgn = pair.mu, pair.sgn
        ref_mu, ref_sgn, image = canonical._reference_arrays(mu, sgn, canonical._profile(mu).groups)
        if not (
            canonical._pair_sign_sets(ref_mu, ref_sgn)[1]
            and image in moves._interleavings(canonical._profile(ref_mu).groups, ref_sgn)
            and moves._act_arrays(ref_mu, ref_sgn, image, conjugate=False) == (mu, sgn)
        ):
            return f"no reference's orbit holds {pair}"
    return None


class _Fold:
    """A walk over one chunk of ``counting._fold_maps`` for the named clause groups.

    ``counting._census_chunk`` counts the tamed pairs, builds the census
    table if ``census`` is named, and hands :meth:`map_references` each
    map's references as one list of (split mask, T_R, mass): a split
    holds the references that agree on every branch of two or more
    members.  The lemma: references are block-ordered, so a split's
    differ only at one-member branches, which allowable images fix; so
    they share T_R, the orbit, allowability, member maps and round trip,
    and differ only in tamedness, a bitmask.  A reference's signs are
    read from ``sign_arrays`` by its bit.  The orbit clauses run
    once per (map, split, image) after two O(k) premise checks: the split
    has its first reference's signs on every multi-member branch, and each
    image fixes every one-member index.  Partition and compat run once
    per split on its first reference: T_C reads no one-member sign either
    (see ``domains._tc_parents``), so a split shares it too.  ``failures``
    keeps each group's first failure as (mu, sgn, line); an orbit failure
    fails every wild check and stops the walk.  Maps compare in
    enumeration order, so the earliest over the chunks is the one walk's
    first, whatever the split.
    """

    def __init__(self, k, groups):
        self.k, self.groups = k, groups
        self.sign_arrays = list(itertools.product(SIGNS, repeat=k))
        self.census = None  # the census chunk, then the order's CensusReport
        self.n_tamed = self.covered = self.references = self.mass = 0
        self.failures: dict = {}

    def map_references(self, mu, profile, table, splits) -> None:
        """Walk a map's references split by split: (split mask, T_R, mass) each."""
        failures, k, sign_arrays = self.failures, self.k, self.sign_arrays
        if "orbit" in failures:
            return
        members, pieces, failed = {}, {}, None
        for split, whole, mass in splits:
            r = next(_bits(split))
            if failed and r > failed[0]:
                break  # no later split holds an earlier failing reference
            sgn = sign_arrays[r]
            orbit = moves._interleavings(profile.groups, sgn)
            failure = _orbit_failure(mu, profile, split, table, sign_arrays, orbit, members)
            if failure:
                failed = min(failed or failure, failure)
                continue
            n = split.bit_count()
            self.covered += n * len(orbit)
            self.references += n
            self.mass += n * mass
            if "compat" in self.groups and "compat" not in failures:
                if domains._tc_parents(mu, sgn) != tuple(whole.values()):
                    pair = CollapsingPair._unchecked(k, mu, sgn)
                    failures["compat"] = (mu, sgn, f"k={k}: T_R != T_C for {pair}")
            if "partition" in self.groups and "partition" not in failures:
                reference = CollapsingPair._unchecked(k, mu, sgn)
                failure = _partition_failure(reference, whole, mass, orbit, pieces)
                if failure:
                    failures["partition"] = (mu, sgn, f"k={k}: {failure}")
        if failed:  # it fails every wild check, so no compat or partition line shows
            failures["orbit"] = (mu, sign_arrays[failed[0]], f"k={k}: {failed[1]}")

    def passed(self, *groups) -> "_Fold":
        """Raise the first failure among ``groups``; else return self."""
        for group in groups:
            if group in self.failures:
                raise CheckFailed(self.failures[group][2])
        return self


def _walk(mus, k, groups) -> _Fold:
    """Fold a run of maps of order k (a chunk) for the clause groups."""
    fold = _Fold(k, groups)
    wild = fold if groups - {"census"} else None
    fold.census = counting._census_chunk(mus, fold.sign_arrays, wild, "census" in groups)
    fold.n_tamed = fold.census[2]
    return fold


#: The clause groups each check reads from the per-order fold.
GROUPS = {
    "catalan": ("census",),
    "tamed-unique": ("census",),
    "reference-unique": ("orbit",),
    "compat": ("orbit", "compat"),
    "mass": ("orbit", "partition"),
}


class VerifyRun:
    """The options of one verify call and the per-order folds its checks share.

    ``fold(k)`` walks the maps of order k once, on first use, for every
    clause group the run's checks read, and keeps the result in ``folds``
    for the run.  ``counting._fold_maps`` splits the maps over at most
    ``threads`` workers, as for the census and domain-bijection.
    """

    def __init__(self, names, seed: int, threads: int):
        self.seed, self.threads = seed, threads
        self.groups = frozenset(g for name in names for g in GROUPS.get(name, ()))
        self.folds: dict[int, _Fold] = {}

    def fold(self, k: int) -> _Fold:
        if k in self.folds:
            return self.folds[k]
        parts = counting._fold_maps(k, self.threads, _walk, k, self.groups)
        fold = parts[0]
        chunks = [part.census for part in parts]
        for part in parts[1:]:
            for count in ("n_tamed", "covered", "references", "mass"):
                setattr(fold, count, getattr(fold, count) + getattr(part, count))
            for group, failure in part.failures.items():  # the earliest in enumeration order
                fold.failures[group] = min(fold.failures.get(group, failure), failure)
        if "census" in self.groups:
            try:
                fold.census = counting.census(k, signed=True, chunks=chunks)
            except CensusViolation as exc:
                fold.failures["census"] = (None, None, f"k={k}: {exc}")
        if "orbit" in self.groups and "orbit" not in fold.failures:
            # reduction is a function, so the orbits that passed are disjoint;
            # if they hold as many pairs as were counted tamed, they hold all
            if not fold.references:
                fold.failures["orbit"] = (None, None, f"k={k}: no tamed pairs")
            elif fold.covered != fold.n_tamed:
                line = _uncovered(k) or f"the orbits hold {fold.covered} of {fold.n_tamed} pairs"
                fold.failures["orbit"] = (None, None, f"k={k}: {line}")
        self.folds[k] = fold
        return fold


def _check_catalan(k, run, lines) -> None:
    # the signed census checks every unsigned claim on its all-plus classes
    for kk in range(1, k + 1):
        report = run.fold(kk).passed("census").census
        lines.append(
            f"unsigned classes: {report.unsigned_classes} == "
            f"catalan({kk}): {counting.catalan_ternary(kk)} OK"
        )


def _check_tamed_unique(k, run, lines) -> None:
    for kk in range(1, k + 1):
        report = run.fold(kk).passed("census").census
        lines.append(
            f"k={kk}: {report.signed_classes} signed classes, {report.tamed_count} "
            "tamed pairs, one per class OK"
        )


def _counted(k, fold) -> "_Fold":
    """Raise unless the fold's references, then its tamed pairs, are
    wild_class_count(k), then catalan(k) 2^k; else return the fold."""
    if fold.references != (want := counting.wild_class_count(k)):
        raise CheckFailed(
            f"k={k}: {fold.n_tamed} tamed pairs in {fold.references} wild classes, "
            f"not the closed form's {want}"
        )
    if fold.n_tamed != (want := counting.catalan_ternary(k) * 2**k):
        raise CheckFailed(f"k={k}: {fold.n_tamed} tamed pairs != catalan({k})*2^{k} = {want}")
    return fold


def _check_reference_unique(k, run, lines) -> None:
    for kk in range(1, k + 1):
        fold = _counted(kk, run.fold(kk).passed("orbit"))
        lines.append(
            f"k={kk}: {fold.n_tamed} tamed pairs in {fold.references} wild classes, "
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


def _bijection_failure(mus, k) -> tuple[tuple, str] | None:
    """The first map of a run whose relabelings and td differ, and the clause that fails.

    rho in Sigma ranks the tree's nodes topologically, and its simplex
    puts t_{2j+1} where rho puts node 2j, so each walked position array
    is one simplex, indexed by td label >> 1.
    """
    for mu in mus:
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
            return mu, "duplicate induced order"
        # distinct orders of td, as many as its hook count, are all of them
        if not holds or n != domains._hook_count(td):
            return mu, "order sets differ"
    return None


def _check_domain_bijection(k, run, lines) -> None:
    for kk in range(1, k + 1):
        failures = [f for f in counting._fold_maps(kk, run.threads, _bijection_failure, kk) if f]
        if failures:  # maps compare in enumeration order, so this is the first failing map
            mu, failure = min(failures)
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
    for kk in range(1, k + 1):
        fold = _counted(kk, run.fold(kk).passed("orbit")).passed("compat")
        lines.append(f"k={kk}: T_R == T_C for all {fold.references} reference pairs OK")


def _partition_failure(reference, whole, mass, orbit, pieces=None) -> str | None:
    """Do the orbit's relabeled simplexes partition T_R?  Say what fails, or None.

    ``whole`` is T_R as a parent map listing parents first, with
    ``mass`` orders; ``orbit`` lists the allowable images.  Each image's
    piece is td(W(rho)(R)) relabeled by rho^-1 (``domains._wild_piece``);
    it depends on the map and the image, not the signs, so ``pieces``
    keeps per image of the map the labels above each label as bitmasks,
    the first left branch that is not a chain in it (or None), how it
    orders the branches, and its hook count.  Containment (every cover
    of T_R holds in each piece) puts each piece inside T_R; signatures
    (each branch is a chain in each piece, and no two pieces chain all
    alike) make the pieces disjoint; counts (the hook counts sum to
    ``mass``) make them cover T_R.
    """
    mu, k = reference.mu, reference.k
    pieces = {} if pieces is None else pieces
    covers = [(1 << p, x >> 1) for x, p in whole.items() if p is not None]
    signatures = set()
    count = 0
    for image in orbit:
        if image not in pieces:
            piece = domains._wild_piece(mu, image)
            above = [0] * (k + 1)  # above[x >> 1]: bitmask of the labels above t_x
            for x, p in piece.items():
                if p is not None:
                    above[x >> 1] = above[p >> 1] | 1 << p
            unchained, signature = None, []
            for g in canonical._profile(mu).groups:
                if len(g) > 1:  # a one-label branch is a chain in every piece and tells none apart
                    xs = [2 * i + 3 for i in g]
                    m = sum(1 << x for x in xs)
                    # a chain: its lowest label has all the others above it
                    if not any((above[x >> 1] | 1 << x) & m == m for x in xs):
                        unchained = mu[g[0]]
                        break
                    signature += (above[x >> 1] & m for x in xs)  # fixes the chain's order
            pieces[image] = above, unchained, tuple(signature), domains._hook_count(piece)
        above, unchained, signature, hooks = pieces[image]
        if not all(above[x] & bit for bit, x in covers):
            return f"simplex of {_rho_text(image)} leaves T_R of {reference}"
        if unchained is not None:
            return (
                f"branch at {unchained} is not a chain in the simplex of {_rho_text(image)} "
                f"for {reference}"
            )
        if signature in signatures:
            return f"overlapping simplexes for {reference} at {_rho_text(image)}"
        signatures.add(signature)
        count += hooks
    if count != mass:
        return (
            f"partition misses extensions for {reference}: the pieces hold {count} of {mass} orders"
        )
    return None


def _check_mass(k, run, lines) -> None:
    for kk in range(1, k + 1):
        total = run.fold(kk).passed("orbit", "partition").mass
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
    FAIL and the next check runs; any other exception propagates.  An
    order past a named check's cap (the census cap, or the enumeration
    cap of the map walks) raises :class:`CapExceeded` before any work.
    """
    for name in names:
        if "census" in GROUPS.get(name, ()) and k > counting.CENSUS_CAP:
            raise CapExceeded(f"census k={k} exceeds cap {counting.CENSUS_CAP}")
        if name != "duhamel" and k > ENUMERATION_CAP:
            raise CapExceeded(f"k={k} exceeds enumeration cap {ENUMERATION_CAP}")
    run = VerifyRun(names, seed, threads)
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
