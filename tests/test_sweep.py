"""Verify's per-map wild fold against the forward sweep it replaced, the
lemma that lets compat run once per split, and the defects its orbit,
coverage, compat and partition clauses must catch."""

import itertools
import json
import subprocess
import sys

import oracles
import pytest

from kmboard import canonical, counting, domains, moves, verify
from kmboard.canonical import _bits
from kmboard.cli import main
from kmboard.pairs import CollapsingPair, enumerate_mus
from oracles import (
    PairFold,
    blocks_ordered,
    object_wild_sweep,
    tamed,
    unmemoised_partition_failure,
    wild_sweep,
)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_wild_sweep_matches_the_object_sweep(k):
    n_tamed, classes, hits = wild_sweep(k)
    object_n_tamed, object_classes, object_hits = object_wild_sweep(k)
    assert n_tamed == object_n_tamed
    assert list(classes.items()) == list(object_classes.items())
    assert list(hits.items()) == list(object_hits.items())


def _fold(k):
    return verify.VerifyRun(_WILD, 0, 1).fold(k)


def _walked_orbits(monkeypatch, k):
    """Fold order k for the wild checks; return the fold and each (reference, orbit) it walked."""
    walked = []
    original = verify._orbit_failure

    def recorded(mu, profile, split, table, sign_arrays, orbit, members):
        walked.extend((CollapsingPair(k, mu, sign_arrays[n]), orbit) for n in _bits(split))
        return original(mu, profile, split, table, sign_arrays, orbit, members)

    monkeypatch.setattr(verify, "_orbit_failure", recorded)
    return _fold(k), walked


def _broken_off_identity(original):
    """A piece that hangs the last label under t_1, for every image but the identity."""

    def piece(mu, image):
        parent = original(mu, image)
        if list(image) != sorted(image):
            parent = {**parent, 2 * len(mu) + 1: 1}
        return parent

    return piece


def _drop_an_image(original):
    def dropped(groups, sgn):
        orbit = original(groups, sgn)
        return orbit[:-1] if len(orbit) > 1 else orbit

    return dropped


def _repeat_an_image(original):
    def repeated(groups, sgn):
        orbit = original(groups, sgn)
        return orbit + orbit[-1:]

    return repeated


def _one_more_reference(monkeypatch):
    # mu=1,1 sgn=-,+ is tamed, but its branch lists - before +
    class OneMoreReference(counting._MapProfile):
        def __init__(self, mu):
            super().__init__(mu)
            self.mu = mu

        def sign_sets(self, table):
            tamed, references = super().sign_sets(table)
            return tamed, references | (tamed & 1 << 2 if self.mu == (1, 1) else 0)

    monkeypatch.setattr(counting, "_MapProfile", OneMoreReference)


def _without_equal_clause(monkeypatch):
    step = canonical._MapProfile._step

    def without(self, jb):
        step(self, jb)
        self.equal_checks = []

    monkeypatch.setattr(canonical._MapProfile, "_step", without)
    monkeypatch.setattr(canonical, "_profile", canonical._MapProfile)


def _planted(owner, name, defect):
    """A patch that replaces ``owner.name`` by ``defect(owner.name)``."""
    return lambda monkeypatch: monkeypatch.setattr(owner, name, defect(getattr(owner, name)))


def _last_branch_all_plus(original):
    """The per-split T_R build with + throughout the last branch of two or
    more members, so each split is handed the T_R of the split with + there."""

    def built(mu, keys):
        keys = list(keys)
        multi = canonical._profile(mu).multi
        if multi and isinstance(keys[0], tuple):  # a T_R, not a td
            for i in multi[-1]:
                keys[i] = (mu[i], "+")
        return original(mu, keys)

    return built


def _misplaced(original):
    def misplaced(mu, sgn):
        parent = original(mu, sgn)
        return parent[:-1] + (1,) if len(mu) > 1 else parent  # the last label under t_1

    return misplaced


def _reversed_witness(original):
    def reversed_image(mu, sgn, groups):
        ref_mu, ref_sgn, image = original(mu, sgn, groups)
        return ref_mu, ref_sgn, image[::-1]

    return reversed_image


def _member_profiles(defect):
    """A patch of the member profiles of both orbit walks: where the last
    index is a branch of its own, ``defect(tamed, ordered, minus)`` rereads
    the masks, ``minus`` the arrays with - there.  Such arrays come after
    their + twin, the first reference of the split."""

    class Defective(canonical._MapProfile):
        def sign_sets(self, table):
            tamed, ordered = super().sign_sets(table)
            if self.groups[-1] != (len(table[1]) - 1,):
                return tamed, ordered
            return defect(tamed, ordered, table[0] & ~table[1][-1])

    def plant(monkeypatch):
        monkeypatch.setattr(verify, "_MapProfile", Defective)
        monkeypatch.setattr(oracles, "_MapProfile", Defective)

    return plant


#: The planted defects of the wild checks here and in test_cli, each as a patch;
#: the last two fail at references that are not the first of their split.
PLANTED = {
    "orbit-drops-an-image": _planted(moves, "_interleavings", _drop_an_image),
    "orbit-repeats-an-image": _planted(moves, "_interleavings", _repeat_an_image),
    "orbit-drops-its-last-image": _planted(
        moves, "_interleavings", lambda f: lambda groups, sgn: f(groups, sgn)[:-1]
    ),
    "pieces-off-identity": _planted(domains, "_wild_piece", _broken_off_identity),
    "act-keeps-the-pair": _planted(
        moves, "_act_arrays", lambda f: lambda mu, sgn, image, conjugate: (mu, sgn)
    ),
    "reduction-gives-a-non-reference": _planted(
        canonical,
        "_reference_arrays",
        lambda f: lambda mu, sgn, groups: (mu, sgn, tuple(range(2, 2 * len(mu) + 1, 2))),
    ),
    "witness-not-allowable": _planted(canonical, "_reference_arrays", _reversed_witness),
    "t-c-hangs-a-node-elsewhere": _planted(domains, "_tc_parents", _misplaced),
    "t-r-memo-ignores-a-branch": _planted(counting, "_attached_parents", _last_branch_all_plus),
    "every-tamed-pair-a-reference": _planted(
        canonical._MapProfile, "sign_sets", lambda f: lambda self, table: (f(self, table)[0],) * 2
    ),
    "reference-mask-admits-an-unordered-pair": _one_more_reference,
    "kernel-drops-its-equal-sign-clause": _without_equal_clause,
    "member-with-minus-last-untamed": _member_profiles(lambda t, o, minus: (t & ~minus, o)),
    "member-with-minus-last-ordered": _member_profiles(lambda t, o, minus: (t, o | t & minus)),
}


def _shown(fold):
    """The failures a verify run prints: an orbit failure hides compat and partition ones."""
    return {g: f for g, f in fold.failures.items() if g == "orbit" or "orbit" not in fold.failures}


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_fold_matches_the_forward_sweep(monkeypatch, k):
    fold, walked = _walked_orbits(monkeypatch, k)
    n_tamed, classes, hits = wild_sweep(k)
    assert fold.failures == {}
    assert fold.n_tamed == n_tamed
    assert fold.references == len(classes) == len(walked)
    # the fold meets the references in enumeration order, the sweep its classes
    # in the order of their first tamed member
    orbits = dict(walked)
    assert orbits.keys() == classes.keys()
    for reference, images in classes.items():
        orbit = orbits[reference]
        assert sorted(images) == orbit
        mu, sgn = reference.mu, reference.sgn
        members = [moves._act_arrays(mu, sgn, image, conjugate=False) for image in orbit]
        ordered = sum(blocks_ordered(canonical._profile(m), s) for m, s in members)
        assert ordered == hits[reference] == 1
    # the split walk against the per-pair walk it replaced: the same counts,
    # and the same first failures under every planted defect (at k <= 4)
    monkeypatch.undo()
    planted = {"none": None, **(PLANTED if k <= 4 else {})}
    for name, plant in planted.items():
        with monkeypatch.context() as m:
            if plant:
                plant(m)
                fold = _fold(k)
            m.setattr(verify, "_Fold", PairFold)
            pair = _fold(k)
        assert _shown(fold) == _shown(pair), name
        if "orbit" not in fold.failures:
            counts = (fold.n_tamed, fold.covered, fold.references, fold.mass)
            assert counts == (pair.n_tamed, pair.covered, pair.references, pair.mass), name


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_the_references_of_a_split_share_t_c(k):
    # the lemma that lets compat compare T_R with T_C once per split
    sign_arrays = list(itertools.product("+-", repeat=k))
    signs = canonical._sign_table(sign_arrays)
    sizes = []
    for mu in enumerate_mus(k):
        profile = canonical._MapProfile(mu)
        references = profile.sign_sets(signs)[1]
        if not references:  # as in the census loop, which hands such a map no splits
            continue
        for split in counting._splits(references, signs[1], profile.multi):
            t_c = {domains._tc_parents(mu, sign_arrays[n]) for n in _bits(split)}
            assert len(t_c) == 1, (mu, [sign_arrays[n] for n in _bits(split)])
            sizes.append(split.bit_count())
    assert sum(sizes) == counting.wild_class_count(k) and max(sizes) > 1


def _reads_a_one_member_sign(original):
    """T_C with the last label under t_1 where the last index is a branch of
    its own signed -: such an array comes after its + twin in a split."""

    def misread(mu, sgn):
        parent = original(mu, sgn)
        if len(mu) > 1 and mu.count(mu[-1]) == 1 and sgn[-1] == "-":
            return parent[:-1] + (1,)
        return parent

    return misread


def test_compat_sees_a_t_c_that_reads_a_one_member_sign_only_per_reference(monkeypatch):
    # compat reads T_C off each split's first reference alone, so this defect
    # shows only on the per-reference route, not as a PLANTED row
    monkeypatch.setattr(domains, "_tc_parents", _reads_a_one_member_sign(domains._tc_parents))
    first = {}
    for k in range(1, 5):
        split = _fold(k).failures.get("compat")
        with monkeypatch.context() as m:
            m.setattr(verify, "_Fold", PairFold)
            pair = _fold(k).failures.get("compat")
        first[k] = split and split[2], pair and pair[2]
    assert first == {
        1: (None, None),
        2: (None, "k=2: T_R != T_C for mu=1,2 sgn=+,-"),
        3: (None, "k=3: T_R != T_C for mu=1,1,2 sgn=+,+,-"),
        4: (None, "k=4: T_R != T_C for mu=1,1,1,2 sgn=+,+,+,-"),
    }


@pytest.mark.parametrize("broken", [False, True], ids=["true-pieces", "pieces-off-identity"])
def test_memoised_partition_verdicts_match_the_unmemoised_route(monkeypatch, broken):
    if broken:
        monkeypatch.setattr(domains, "_wild_piece", _broken_off_identity(domains._wild_piece))
    verdicts = set()
    for k in range(1, 5):
        for mu in enumerate_mus(k):
            profile = canonical._MapProfile(mu)
            if not profile.static_ok:
                continue
            pieces = {}  # one per map, as the fold keeps it
            for sgn in itertools.product("+-", repeat=k):
                if not (tamed(profile, sgn) and blocks_ordered(profile, sgn)):
                    continue
                reference = CollapsingPair(k, mu, sgn)
                whole = domains._attached_parents(mu, zip(mu, sgn))
                mass = domains._hook_count(whole)
                orbit = moves._interleavings(profile.groups, sgn)
                for m in (mass, mass + 1):
                    got = verify._partition_failure(reference, whole, m, orbit, pieces)
                    assert got == unmemoised_partition_failure(reference, whole, m, orbit)
                    verdicts.add(got is None)
    assert verdicts == {True, False}


def _verify(capsys, *argv):
    code = main(["verify", *argv])
    out = capsys.readouterr().out
    fails = [line for line in out.splitlines() if "FAIL" in line]
    assert len(fails) == 1, out
    return code, fails[0], json.loads(out.strip().splitlines()[-1])


_WILD = ["reference-unique", "compat", "mass"]


@pytest.mark.parametrize(
    "defect, line",
    [
        (_drop_an_image, "k=2: no reference's orbit holds mu=1,1 sgn=-,+ FAIL"),
        (_repeat_an_image, "k=1: orbit of mu=1 sgn=+ repeats rho=2 FAIL"),
    ],
    ids=["orbit-drops-an-image", "orbit-repeats-an-image"],
)
@pytest.mark.parametrize("check", _WILD)
def test_an_orbit_defect_fails_every_wild_check(capsys, monkeypatch, defect, line, check):
    monkeypatch.setattr(moves, "_interleavings", defect(moves._interleavings))
    code, fail, results = _verify(capsys, "--k", "3", "--check", check)
    assert code == 1
    assert fail == line
    assert results == {check: "fail"}


def _sorted_across_branches(original):
    # every index in one branch: the signs of one-member branches now move labels
    return lambda mu, sgn, groups: original(mu, sgn, (tuple(sorted(i for g in groups for i in g)),))


def _one_member_index_moved(original):
    def moved(groups, sgn):
        orbit = original(groups, sgn)
        singles = [g[0] for g in groups if len(g) == 1]
        if len(singles) < 2:
            return orbit
        image = list(orbit[-1])
        i, j = singles[-2:]
        image[i], image[j] = image[j], image[i]
        return orbit + [tuple(image)]

    return moved


def _last_branch_skipped(original):
    return lambda references, plus, multi: original(references, plus, multi[:-1])


@pytest.mark.parametrize(
    "owner, name, defect, line",
    [
        # a reference that is not the first of its split meets the reduction only
        # through the first one's round trip: the per-pair walk failed at k=2
        # (mu=1,2 sgn=-,+), the split walk fails where a first reference meets it
        (
            canonical,
            "_reference_arrays",
            _sorted_across_branches,
            "k=3: witness rho=2,6,4 of mu=1,1,2 sgn=+,-,+ is not allowable for "
            "mu=1,1,2 sgn=+,+,- FAIL",
        ),
        (
            moves,
            "_interleavings",
            _one_member_index_moved,
            "k=2: rho=4,2 moves a one-member branch of mu=1,2 sgn=+,+ FAIL",
        ),
        (
            counting,
            "_splits",
            _last_branch_skipped,
            "k=2: mu=1,1 sgn=+,- is walked with mu=1,1 sgn=+,+, "
            "but not on its left-branch signs FAIL",
        ),
    ],
    ids=["reduction-reads-a-one-member-sign", "image-moves-a-one-member-index", "splits-merge"],
)
def test_a_defect_under_the_split_walk_fails_mass(capsys, monkeypatch, owner, name, defect, line):
    # mass reads the orbit and the partition clause, which skips a split that failed
    monkeypatch.setattr(owner, name, defect(getattr(owner, name)))
    code, fail, results = _verify(capsys, "--k", "4", "--check", "mass")
    assert code == 1
    assert fail == line
    assert results == {"mass": "fail"}


def test_a_piece_wrong_off_the_identity_fails_mass(capsys, monkeypatch):
    # mu=1,1,1's first reference meets only the identity, whose piece is
    # right; the next one must read its other pieces from the memo by image
    monkeypatch.setattr(domains, "_wild_piece", _broken_off_identity(domains._wild_piece))
    code, fail, results = _verify(capsys, "--k", "3", "--check", "mass")
    assert code == 1
    assert fail == "k=3: simplex of rho=2,6,4 leaves T_R of mu=1,1,1 sgn=+,+,- FAIL"
    assert results == {"mass": "fail"}


def test_a_reduction_to_arrays_that_are_not_a_map_fails_without_a_traceback(capsys, monkeypatch):
    # the round-trip diagnosis must not build a profile of arrays outside the maps
    def last_entry_out_of_range(original):
        def reduced(mu, sgn, groups):
            ref_mu, ref_sgn, image = original(mu, sgn, groups)
            return ref_mu[:-1] + (2 * len(mu),), ref_sgn, image

        return reduced

    monkeypatch.setattr(
        canonical, "_reference_arrays", last_entry_out_of_range(canonical._reference_arrays)
    )
    code, fail, results = _verify(capsys, "--k", "3", "--check", "reference-unique")
    assert code == 1
    assert fail == "k=1: mu=1 sgn=+ reduces to mu=2 sgn=+, not a reference pair FAIL"
    assert results == {"reference-unique": "fail"}


def test_a_planted_defect_prints_the_same_with_two_workers(capsys, monkeypatch):
    # workers fork with the defect in place; each chunk keeps its earliest
    # failure and the merge keeps the earliest of those
    monkeypatch.setattr(moves, "_interleavings", _drop_an_image(moves._interleavings))
    outs = []
    for threads in ("1", "2"):
        code = main(["verify", "--k", "4", "--check", "all", "--threads", threads])
        outs.append((code, capsys.readouterr().out))
    assert outs[0] == outs[1]
    assert outs[0][0] == 1
    assert "k=2: no reference's orbit holds mu=1,1 sgn=-,+ FAIL" in outs[0][1].splitlines()


def test_one_thread_imports_no_multiprocessing():
    script = (
        "import sys; from kmboard.cli import main; "
        "main(['verify', '--k', '3', '--check', 'all', '--threads', '1']); "
        "sys.exit('multiprocessing' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
