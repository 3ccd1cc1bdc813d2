import random

import pytest

from kmboard.canonical import (
    echelon_pair,
    is_reference,
    is_tamed,
    is_upper_echelon,
    tamed_pairs,
    tier,
    tier_table,
    to_echelon,
    to_reference,
    to_tamed,
)
from kmboard.errors import NotTamed, OutOfRange
from kmboard.moves import (
    MoveState,
    allowable_permutations,
    apply_signed_km,
    apply_wild,
    km_class,
)
from kmboard.pairs import enumerate_pairs, random_pair, validate_pair
from kmboard.trees import skeleton_key
from oracles import literal_is_reference, literal_is_tamed, literal_tiers

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
    from kmboard.moves import groups_of

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
            assert echelon_pair(members[0]) == echelons[0]


def test_to_echelon_witness_and_fixed_point():
    for p in enumerate_pairs(4, signed=False):
        ech, move_seq = to_echelon(p)
        assert is_upper_echelon(ech)
        assert ech == echelon_pair(p)
        state = MoveState.start(p)
        for j in move_seq:
            state = apply_signed_km(state, j)
        assert state.pair == ech


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
    assert back == p and rho.is_identity


def test_to_reference_of_order_five_wild_image():
    p5 = validate_pair(5, (1, 1, 1, 3, 4), "+-+-+")
    back, rho = to_reference(p5)
    assert back == validate_pair(5, (1, 1, 1, 3, 6), "++--+")
    assert apply_wild(MoveState.start(back), rho).pair == p5


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
