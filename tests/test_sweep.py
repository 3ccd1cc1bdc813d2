"""Verify's per-map wild fold against the forward sweep it replaced, and the
defects its orbit, coverage and partition clauses must catch."""

import itertools
import json
import subprocess
import sys

import pytest

from kmboard import canonical, domains, moves, verify
from kmboard.cli import main
from kmboard.pairs import CollapsingPair, enumerate_mus
from oracles import (
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


def _walked_orbits(monkeypatch, k):
    """Fold order k for the wild checks; return the fold and each (reference, orbit) it walked."""
    walked = []
    original = verify._orbit_failure

    def recorded(reference, orbit, members):
        walked.append((reference, orbit))
        return original(reference, orbit, members)

    monkeypatch.setattr(verify, "_orbit_failure", recorded)
    run = verify.VerifyRun(["reference-unique", "compat", "mass"], 0, 1)
    fold = run.fold(k)
    run.close()
    return fold, walked


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


def _broken_off_identity(original):
    """A piece that hangs the last label under t_1, for every image but the identity."""

    def piece(mu, image):
        parent = original(mu, image)
        if list(image) != sorted(image):
            parent = {**parent, 2 * len(mu) + 1: 1}
        return parent

    return piece


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


def test_a_piece_wrong_off_the_identity_fails_mass(capsys, monkeypatch):
    # mu=1,1,1's first reference meets only the identity, whose piece is
    # right; the next one must read its other pieces from the memo by image
    monkeypatch.setattr(domains, "_wild_piece", _broken_off_identity(domains._wild_piece))
    code, fail, results = _verify(capsys, "--k", "3", "--check", "mass")
    assert code == 1
    assert fail == "k=3: simplex of rho=2,6,4 leaves T_R of mu=1,1,1 sgn=+,+,- FAIL"
    assert results == {"mass": "fail"}


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
