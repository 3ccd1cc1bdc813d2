"""The mass check: pieces built from the arrays, its three clauses, and the routes it replaced."""

import json

from kmboard import domains, moves, verify
from kmboard.canonical import is_reference
from kmboard.cli import main
from kmboard.domains import count_linear_extensions, td_domain, tr_domain
from kmboard.pairs import TimePermutation, enumerate_pairs, validate_pair
from oracles import (
    allowable_permutations,
    poset_from_parents,
    relabel_domain,
    set_partition_holds,
    tree_td_domain,
)


def _reference_orbits(max_k):
    """Every reference pair of order <= max_k with T_R, its mass and its orbit."""
    for k in range(1, max_k + 1):
        for pair in enumerate_pairs(k, signed=True):
            if is_reference(pair):
                whole = tr_domain(pair)
                orbit = allowable_permutations(pair)
                parents = dict(zip(whole.elements, whole.parent))
                yield pair, parents, count_linear_extensions(whole), orbit


def test_td_domain_matches_the_tree_route_on_every_map():
    n = 0
    for k in range(1, 7):
        for pair in enumerate_pairs(k, signed=False):
            assert td_domain(pair) == tree_td_domain(pair)
            n += 1
    assert n == 11464


def test_array_built_piece_is_the_relabeled_td_of_the_moved_pair():
    n = 0
    for reference, _, _, orbit in _reference_orbits(5):
        for rho in orbit:
            piece = domains._wild_piece(reference.mu, rho.image)
            place = {x: i for i, x in enumerate(piece)}
            assert all(p is None or place[p] < place[x] for x, p in piece.items())
            moved = moves._act(reference, rho, conjugate=False)
            expected = relabel_domain(td_domain(moved), rho.inverse())
            assert poset_from_parents(reference.k, piece) == expected
            n += 1
    assert n == 9726


def test_mass_verdict_matches_the_set_oracle():
    n = 0
    for reference, whole, mass, orbit in _reference_orbits(5):
        whole_poset = tr_domain(reference)
        images = [rho.image for rho in orbit]
        holds = verify._partition_failure(reference, whole, mass, images) is None
        assert holds == set_partition_holds(reference, whole_poset, orbit) is True
        if reference.k <= 4 and len(orbit) > 1:
            for broken in (orbit[1:], orbit[:-1], orbit + orbit[:1], orbit[:1] + orbit):
                broken_images = [rho.image for rho in broken]
                assert verify._partition_failure(reference, whole, mass, broken_images) is not None
                assert not set_partition_holds(reference, whole_poset, broken)
        n += 1
    assert n == 6738


def _run_mass(capsys):
    code = main(["verify", "--k", "4", "--check", "mass"])
    out = capsys.readouterr().out
    fails = [line for line in out.splitlines() if "FAIL" in line]
    assert len(fails) == 1, out
    assert json.loads(out.strip().splitlines()[-1]) == {"mass": "fail"}
    return code, fails[0]


def test_pieces_renamed_by_rho_fail_containment(capsys, monkeypatch):
    def renamed_by_rho(mu, image):
        rho = TimePermutation(len(image), image)
        moved = [rho.of(v) for v in mu]
        td = domains._attached_parents(moved, moved)
        return {rho.of(x): None if p is None else rho.of(p) for x, p in td.items()}

    monkeypatch.setattr(domains, "_wild_piece", renamed_by_rho)
    code, line = _run_mass(capsys)
    assert code == 1
    assert line == "k=3: simplex of rho=4,6,2 leaves T_R of mu=1,1,1 sgn=+,+,- FAIL"


def test_pieces_that_leave_a_branch_unchained_fail_the_chain_clause(monkeypatch):
    # T_R itself holds every cover of T_R, but hangs the + and - members of
    # a branch side by side
    reference = validate_pair(2, (1, 1), "+-")
    whole = domains._attached_parents(reference.mu, zip(reference.mu, reference.sgn))
    monkeypatch.setattr(domains, "_wild_piece", lambda mu, image: whole)
    orbit = [rho.image for rho in allowable_permutations(reference)]
    assert verify._partition_failure(reference, whole, 2, orbit) == (
        "branch at 1 is not a chain in the simplex of rho=2,4 for mu=1,1 sgn=+,-"
    )


def test_a_repeated_orbit_member_fails_signatures(capsys, monkeypatch):
    original = verify._partition_failure

    def repeated(reference, whole, mass, orbit, pieces=None):
        return original(reference, whole, mass, orbit + orbit[-1:], pieces)

    monkeypatch.setattr(verify, "_partition_failure", repeated)
    code, line = _run_mass(capsys)
    assert code == 1
    assert line == "k=1: overlapping simplexes for mu=1 sgn=+ at rho=2 FAIL"


def test_a_dropped_orbit_member_fails_counts(capsys, monkeypatch):
    original = verify._partition_failure

    def dropped(reference, whole, mass, orbit, pieces=None):
        return original(reference, whole, mass, orbit[:-1] if len(orbit) > 1 else orbit, pieces)

    monkeypatch.setattr(verify, "_partition_failure", dropped)
    code, line = _run_mass(capsys)
    assert code == 1
    assert line == (
        "k=2: partition misses extensions for mu=1,1 sgn=+,-: the pieces hold 1 of 2 orders FAIL"
    )
