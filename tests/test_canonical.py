import random

import pytest
from hypothesis import given, settings

from kmboard.canonical import (
    is_reference,
    is_tamed,
    reduce_to_labeling,
    tamed_pairs,
    to_echelon,
    to_reference,
    to_tamed,
)
from kmboard.errors import NotAcceptable, NotTamed, OutOfRange
from kmboard.moves import MoveState, apply_wild
from kmboard.pairs import TimePermutation, enumerate_pairs, random_pair, validate_pair
from kmboard.trees import skeleton_key
from oracles import (
    allowable_permutations,
    apply_signed_km,
    is_identity,
    is_upper_echelon,
    km_admissible_indices,
    literal_echelon_pair,
    literal_is_reference,
    literal_is_tamed,
    literal_tiers,
    literal_to_echelon,
    literal_to_reference,
    literal_to_tamed,
    signed_pairs,
    tier,
    tier_table,
    transposition,
)

TAMED13 = validate_pair(
    13,
    (1, 1, 1, 1, 1, 6, 6, 7, 2, 3, 10, 13, 18),
    ("-", "-", "+", "+", "-", "-", "+", "+", "-", "+", "+", "-", "+"),
)
UNTAMED13 = validate_pair(
    13,
    (1, 1, 1, 6, 1, 6, 7, 1, 2, 16, 9, 18, 3),
    ("-", "-", "+", "-", "+", "+", "+", "-", "-", "+", "-", "+", "+"),
)


def test_tier_row_of_large_chart():
    assert [tier_table(TAMED13)[x] for x in TAMED13.even_labels] == [
        1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3,
    ]
    assert tier(TAMED13, 24) == 3


def test_tier_of_left_chain_is_one():
    p = validate_pair(5, (1, 1, 1, 1, 1), "+++++")
    assert all(tier(p, x) == 1 for x in p.even_labels)


def test_tier_rejects_bad_labels():
    with pytest.raises(OutOfRange):
        tier(TAMED13, 3)
    with pytest.raises(OutOfRange):
        tier(TAMED13, 28)


def test_tier_counts_arrow_edges():
    # q equals the M/R edges on the path to node 1, root edge included
    from kmboard.trees import tree_from_pair

    rng = random.Random(4)
    for _ in range(100):
        p = random_pair(rng.randint(1, 7), rng)
        tree = tree_from_pair(p)
        for x in p.even_labels:
            arrows, node = 1, x  # root edge 2 -> 1 is an arrow
            while node != 2:
                parent = tree.parent_of(node)
                if tree.slots[parent][0] != node:
                    arrows += 1
                node = parent
            assert tier(p, x) == arrows


def test_predicates_on_worked_examples():
    assert is_tamed(TAMED13)
    assert not is_tamed(UNTAMED13)
    assert is_reference(validate_pair(7, (1, 1, 1, 2, 3, 7, 7), "++--++-"))
    assert is_upper_echelon(validate_pair(5, (1, 1, 1, 2, 3), "+++++"))
    assert not is_upper_echelon(validate_pair(5, (1, 1, 3, 1, 2), "+++++"))


def test_predicates_match_literal_definitions_exhaustively():
    # every signed pair with k <= 5 (30,240 at k = 5)
    for k in range(1, 6):
        tamed = []
        for p in enumerate_pairs(k, signed=True):
            literal = literal_is_tamed(p)
            assert is_tamed(p) == literal, p
            assert is_reference(p) == literal_is_reference(p), p
            if literal:
                tamed.append(p)
        assert list(tamed_pairs(k)) == tamed
        for p in enumerate_pairs(k, signed=False):
            assert tier_table(p) == literal_tiers(p)


def test_reference_equals_tamed_when_sign_blocks_are_trivial():
    # branches that are singletons, or already a +block then -block,
    # leave nothing for the reference condition to add
    from oracles import groups_of

    checked = 0
    for p in enumerate_pairs(4, signed=True):
        blocks_trivial = all(
            sorted((p.sgn_of(x) for x in members), reverse=False)
            == [p.sgn_of(x) for x in members]
            for members in groups_of(p).values()
        )
        if blocks_trivial:
            assert is_reference(p) == is_tamed(p)
            checked += 1
    assert checked > 0


def test_to_tamed_of_reduction_example():
    tamed, move_seq = to_tamed(UNTAMED13)
    assert tamed == TAMED13
    assert move_seq == (4, 7, 6, 5, 12, 11, 10)  # KM(8,10); KM(14,16) KM(12,14) KM(10,12); KM(24,26) KM(22,24) KM(20,22)


def test_to_tamed_fixes_tamed_input():
    tamed, move_seq = to_tamed(TAMED13)
    assert tamed == TAMED13 and move_seq == ()


def test_to_tamed_of_order_five_example():
    tamed, _ = to_tamed(validate_pair(5, (1, 1, 3, 1, 8), "++--+"))
    assert tamed == validate_pair(5, (1, 1, 1, 3, 6), "++--+")


def test_to_tamed_witness_replays():
    rng = random.Random(21)
    for _ in range(60):
        p = random_pair(rng.randint(2, 7), rng)
        tamed, move_seq = to_tamed(p)
        state = MoveState.start(p)
        for j in move_seq:
            state = apply_signed_km(state, j)
        assert state.pair == tamed


def test_tamed_unique_per_class_exhaustive():
    for k in range(1, 6):
        buckets = {}
        for p in enumerate_pairs(k, signed=True):
            buckets.setdefault(skeleton_key(p.mu, p.sgn), []).append(p)
        for members in buckets.values():
            tamed_members = [q for q in members if is_tamed(q)]
            assert len(tamed_members) == 1
            assert all(to_tamed(q)[0] == tamed_members[0] for q in members)


def test_echelon_unique_per_class_exhaustive():
    for k in range(1, 6):
        by_skeleton = {}
        for p in enumerate_pairs(k, signed=False):
            by_skeleton.setdefault(skeleton_key(p.mu), []).append(p)
        for members in by_skeleton.values():
            echelons = [q for q in members if is_upper_echelon(q)]
            assert len(echelons) == 1
            assert to_echelon(members[0])[0] == echelons[0]


def test_to_echelon_witness_and_fixed_point():
    for p in enumerate_pairs(4, signed=False):
        ech, move_seq = to_echelon(p)
        assert is_upper_echelon(ech)
        assert ech == literal_echelon_pair(p)
        state = MoveState.start(p)
        for j in move_seq:
            state = apply_signed_km(state, j)
        assert state.pair == ech


def test_canonical_forms_match_their_slot_path_oracles():
    rng = random.Random(43)
    cases = [p for k in range(1, 6) for p in enumerate_pairs(k, signed=True)]
    cases += [random_pair(rng.randint(6, 14), rng) for _ in range(200)]
    cases += [random_pair(rng.randint(20, 40), rng) for _ in range(10)]  # long bubbling runs
    for p in cases:
        assert to_tamed(p) == literal_to_tamed(p)
    # the echelon forms drop the signs first, so one sign array per map covers them
    for p in cases:
        if all(s == "+" for s in p.sgn) or p.k > 5:
            assert to_echelon(p) == literal_to_echelon(p)
            assert to_echelon(p)[0] == literal_echelon_pair(p)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(signed_pairs())
def test_in_place_move_matches_apply_signed_km_property(p):
    # relabeling by the swap of 2j and 2j+2 is exactly the one move at j
    for j in km_admissible_indices(p):
        swap = transposition(p.k, 2 * j, 2 * j + 2)
        assert reduce_to_labeling(p, swap) == (apply_signed_km(MoveState.start(p), j).pair, (j,))


def test_reduce_to_labeling_rejects_an_unacceptable_move():
    p = validate_pair(5, (1, 1, 1, 2, 3), "++--+")  # acceptable at j = 3, 4 only
    for m in (1, 2):
        with pytest.raises(NotAcceptable) as raised:
            reduce_to_labeling(p, transposition(5, 2 * m, 2 * m + 2))
        assert raised.value.j == m
    # five moves bubble 10 to 4 and 8 to 6; then mu(8) = mu(10) = 1 forbids KM(8,10)
    with pytest.raises(NotAcceptable) as raised:
        reduce_to_labeling(p, TimePermutation(5, (2, 10, 8, 6, 4)))
    assert raised.value.j == 4


@settings(derandomize=True, max_examples=200, deadline=None)
@given(signed_pairs())
def test_to_tamed_is_idempotent_and_its_witness_replays_property(p):
    tamed, witness = to_tamed(p)
    assert to_tamed(tamed) == (tamed, ())
    state = MoveState.start(p)
    for j in witness:
        state = apply_signed_km(state, j)
    assert state.pair == tamed


def test_to_reference_of_wild_example_matches_table():
    reference = validate_pair(7, (1, 1, 1, 2, 3, 7, 7), "++--++-")
    expected_rho = {
        ((1, 1, 1, 2, 3, 7, 7), ("+", "+", "-", "-", "+", "+", "-")): (2, 4, 6, 8, 10, 12, 14),
        ((1, 1, 1, 2, 3, 5, 5), ("+", "-", "+", "-", "+", "+", "-")): (2, 6, 4, 8, 10, 12, 14),
        ((1, 1, 1, 4, 5, 3, 3), ("-", "+", "+", "-", "+", "+", "-")): (4, 6, 2, 8, 10, 12, 14),
        ((1, 1, 1, 2, 3, 7, 7), ("+", "+", "-", "-", "+", "-", "+")): (2, 4, 6, 8, 10, 14, 12),
        ((1, 1, 1, 2, 3, 5, 5), ("+", "-", "+", "-", "+", "-", "+")): (2, 6, 4, 8, 10, 14, 12),
        ((1, 1, 1, 4, 5, 3, 3), ("-", "+", "+", "-", "+", "-", "+")): (4, 6, 2, 8, 10, 14, 12),
    }
    for rho in allowable_permutations(reference):
        member = apply_wild(MoveState.start(reference), rho).pair
        back, witness = to_reference(member)
        assert back == reference
        assert witness.image == expected_rho[(member.mu, member.sgn)] == rho.image


def test_to_reference_fixes_reference():
    p = validate_pair(5, (1, 1, 1, 3, 6), "++--+")
    back, rho = to_reference(p)
    assert back == p and is_identity(rho)


def test_to_reference_of_order_five_wild_image():
    p5 = validate_pair(5, (1, 1, 1, 3, 4), "+-+-+")
    back, rho = to_reference(p5)
    assert back == validate_pair(5, (1, 1, 1, 3, 6), "++--+")
    assert apply_wild(MoveState.start(back), rho).pair == p5


def test_to_reference_matches_its_oracle():
    rng = random.Random(41)
    cases = [p for k in range(1, 6) for p in tamed_pairs(k)]
    cases += [to_tamed(random_pair(rng.randint(6, 12), rng))[0] for _ in range(200)]
    for p in cases:
        reference, rho = to_reference(p)
        assert (reference, rho) == literal_to_reference(p)


def test_to_reference_rejects_untamed():
    with pytest.raises(NotTamed):
        to_reference(UNTAMED13)


def test_reference_unique_per_wild_class_exhaustive():
    for k in range(1, 5):
        classes = {}
        for p in enumerate_pairs(k, signed=True):
            if not is_tamed(p):
                continue
            reference, rho = to_reference(p)
            assert apply_wild(MoveState.start(reference), rho).pair == p
            classes.setdefault(reference, []).append(p)
        for reference, members in classes.items():
            assert sum(1 for q in members if is_reference(q)) == 1
            assert reference in members


def test_tier_invariant_under_wild_moves():
    rng = random.Random(31)
    for _ in range(80):
        p = to_tamed(random_pair(rng.randint(2, 6), rng))[0]
        tiers = tier_table(p)
        for rho in allowable_permutations(p):
            moved = apply_wild(MoveState.start(p), rho).pair
            moved_tiers = tier_table(moved)
            for x in p.even_labels:
                assert moved_tiers[rho.of(x)] == tiers[x]


def test_sign_set_masks_match_the_per_pair_predicates():
    # sign_sets is the one tamed and reference test.  Each bit of its masks, for
    # the signed list and the one-array unsigned list, against the per-array
    # oracle and against a one-array table
    import itertools

    from kmboard.canonical import _MapProfile, _sign_table
    from kmboard.pairs import enumerate_mus
    from oracles import blocks_ordered, tamed

    for k in range(1, 6):
        signed = list(itertools.product("+-", repeat=k))
        singles = {sgn: _sign_table((sgn,)) for sgn in signed}
        for sign_arrays in (signed, [("+",) * k]):
            table = _sign_table(sign_arrays)
            for mu in enumerate_mus(k):
                profile = _MapProfile(mu)
                tamed_mask, references = profile.sign_sets(table)
                for n, sgn in enumerate(sign_arrays):
                    bits = (tamed_mask >> n & 1, references >> n & 1)
                    is_t = tamed(profile, sgn)
                    assert bits == (is_t, is_t and blocks_ordered(profile, sgn)), (mu, sgn)
                    assert profile.sign_sets(singles[sgn]) == bits, (mu, sgn)
                assert tamed_mask >> len(sign_arrays) == references >> len(sign_arrays) == 0
