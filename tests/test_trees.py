import random

import pytest

from kmboard.errors import NotAdmissible
from kmboard.moves import MoveState
from kmboard.pairs import enumerate_pairs, random_pair, validate_pair
from kmboard.trees import (
    SignedTree,
    echelon_labeling,
    skeleton_key,
    tamed_labeling,
    tree_from_pair,
)
from oracles import (
    apply_signed_km,
    is_identity,
    km_admissible_indices,
    km_class,
    pair_from_tree,
)


def relabeled(tree, rho):
    """The same tree with node x carrying label rho(x), slots and signs riding along."""
    slots = {
        rho.of(x): tuple(None if c is None else rho.of(c) for c in tree.slots[x])
        for x in tree.labels
    }
    return SignedTree(tree.k, slots, {rho.of(x): tree.sign[x] for x in tree.labels})


def test_tree_of_worked_example():
    tree = tree_from_pair(validate_pair(5, (1, 1, 1, 2, 3), "++--+"))
    assert tree.slots[2] == (4, 8, 10)
    assert tree.slots[4] == (6, None, None)
    assert all(tree.slots[x] == (None, None, None) for x in (6, 8, 10))


def test_tree_of_single_pair_is_chain():
    tree = tree_from_pair(validate_pair(1, (1,), "+"))
    assert tree.parent_of(2) == 1
    assert tree.slots[2] == (None, None, None)


def test_tree_of_quintic_example_map():
    # the order-7 map behind the Duhamel-tree figure: 12 and 14 share mu=6
    tree = tree_from_pair(validate_pair(7, (1, 1, 1, 2, 3, 6, 6), "++--++-"))
    assert tree.slots[6] == (None, 12, None)
    assert tree.slots[12] == (14, None, None)
    assert tree.sign[12] == "+" and tree.sign[14] == "-"


def test_pair_from_tree_reads_worked_example():
    tree = tree_from_pair(validate_pair(5, (1, 1, 1, 2, 3), "++--+"))
    assert pair_from_tree(tree).mu == (1, 1, 1, 2, 3)


def test_left_chain_reads_all_ones():
    k = 6
    slots = {2 * j: (2 * j + 2 if j < k else None, None, None) for j in range(1, k + 1)}
    tree = SignedTree(k, slots, {2 * j: "+" for j in range(1, k + 1)})
    assert pair_from_tree(tree).mu == (1,) * k


def test_round_trip_exhaustive_small_and_random_large():
    for k in range(1, 6):
        for p in enumerate_pairs(k, signed=True):
            assert pair_from_tree(tree_from_pair(p)) == p
    rng = random.Random(5)
    for _ in range(300):
        p = random_pair(rng.randint(6, 8), rng)
        assert pair_from_tree(tree_from_pair(p)) == p


def test_not_admissible_raises():
    slots = {2: (None, None, None), 4: (2, None, None)}
    tree = SignedTree(2, slots, {2: "+", 4: "+"})
    with pytest.raises(NotAdmissible):
        pair_from_tree(tree)


def test_skeleton_equal_across_km_class():
    seed = validate_pair(5, (1, 1, 1, 2, 3), "+++++")
    keys = {skeleton_key(p.mu) for p in km_class(seed, signed=False)}
    assert len(keys) == 1


def test_single_node_skeleton():
    assert skeleton_key(validate_pair(1, (1,), "+").mu) == "(...)"


def test_skeleton_key_matches_its_recursive_oracle():
    from oracles import literal_preorder_positions, literal_skeleton_key

    from kmboard.pairs import enumerate_mus
    from kmboard.trees import _preorder

    rng = random.Random(10)
    maps = [mu for k in range(1, 7) for mu in enumerate_mus(k)]
    maps += [random_pair(rng.randint(7, 40), rng).mu for _ in range(300)]
    for mu in maps:
        sgn = tuple(rng.choice("+-") for _ in mu)
        assert skeleton_key(mu) == literal_skeleton_key(mu)
        assert skeleton_key(mu, sgn) == literal_skeleton_key(mu, sgn)
        assert _preorder(mu)[1] == [(x - 2) // 2 for x in literal_preorder_positions(mu)]


def test_skeleton_key_of_a_deep_middle_chain():
    # mu = 1,2,4,...: each node is the middle child of the one before, far
    # deeper than the recursion limit
    k = 1500
    mu = (1,) + tuple(range(2, 2 * k - 1, 2))
    sgn = ("+", "-") * (k // 2)
    assert skeleton_key(mu) == "(." * (k - 1) + "(...)" + ".)" * (k - 1)
    assert skeleton_key(mu, sgn).endswith("|" + "+-" * (k // 2))


def test_signed_skeleton_invariant_under_moves_with_label_map():
    rng = random.Random(9)
    for _ in range(100):
        p = random_pair(rng.randint(3, 7), rng)
        js = km_admissible_indices(p)
        if not js:
            continue
        j = rng.choice(js)
        state = apply_signed_km(MoveState.start(p), j)
        old, new = tree_from_pair(p), tree_from_pair(state.pair)
        assert skeleton_key(p.mu, p.sgn) == skeleton_key(state.pair.mu, state.pair.sgn)
        # node 2j trades places with 2j+2 in its slot, signs riding along
        swap = {2 * j: 2 * j + 2, 2 * j + 2: 2 * j}
        for label in old.labels:
            image = swap.get(label, label)
            assert new.slots[image] == tuple(swap.get(c, c) for c in old.slots[label])
            assert new.sign[image] == old.sign[label]


def test_echelon_labeling_of_worked_skeleton():
    tree = tree_from_pair(validate_pair(5, (1, 1, 1, 2, 3), "++--+"))
    assert pair_from_tree(relabeled(tree, echelon_labeling(tree))).mu == (1, 1, 1, 2, 3)


def test_echelon_labeling_of_left_chain():
    tree = tree_from_pair(validate_pair(4, (1, 1, 1, 1), "++++"))
    assert pair_from_tree(relabeled(tree, echelon_labeling(tree))).mu == (1, 1, 1, 1)


def test_every_k3_skeleton_yields_distinct_echelon_pair():
    # brute-force classification of all 15 maps against the labelings
    from oracles import is_upper_echelon

    by_skeleton = {}
    for p in enumerate_pairs(3, signed=False):
        by_skeleton.setdefault(skeleton_key(p.mu), []).append(p)
    assert len(by_skeleton) == 12
    echelons = set()
    for members in by_skeleton.values():
        tree = tree_from_pair(members[0])
        ech = pair_from_tree(relabeled(tree, echelon_labeling(tree)))
        assert is_upper_echelon(ech)
        assert ech in members
        echelons.add(ech.mu)
    assert len(echelons) == 12


def test_tamed_labeling_of_large_example():
    mu = (1, 1, 1, 1, 1, 6, 6, 7, 2, 3, 10, 13, 18)
    sgn = ("-", "-", "+", "+", "-", "-", "+", "+", "-", "+", "+", "-", "+")
    pair = validate_pair(13, mu, sgn)
    tree = tree_from_pair(pair)
    # the chart is already the tamed enumeration
    assert pair_from_tree(relabeled(tree, tamed_labeling(tree))) == pair
    assert is_identity(tamed_labeling(tree))


def test_tamed_labeling_one_node():
    tree = tree_from_pair(validate_pair(1, (1,), "+"))
    out = pair_from_tree(relabeled(tree, tamed_labeling(tree)))
    assert out.mu == (1,) and out.sgn == ("+",)


def test_tamed_labeling_of_order_five_reference():
    pair = validate_pair(5, (1, 1, 1, 3, 6), "++--+")
    tree = tree_from_pair(pair)
    assert pair_from_tree(relabeled(tree, tamed_labeling(tree))) == pair


def test_skeleton_count_matches_catalan():
    from kmboard.counting import catalan_ternary

    for k in range(1, 6):
        keys = {skeleton_key(p.mu) for p in enumerate_pairs(k, signed=False)}
        assert len(keys) == catalan_ternary(k)


def test_dot_export_is_deterministic():
    tree = tree_from_pair(validate_pair(5, (1, 1, 1, 2, 3), "++--+"))
    dot = tree.to_dot()
    assert dot == tree.to_dot()
    assert "n2 -> n4 [dir=none];" in dot
    assert 'n2 -> n8 [label="M"];' in dot
    assert 'n2 -> n10 [label="R"];' in dot


def test_json_export_nests_children():
    tree = tree_from_pair(validate_pair(3, (1, 1, 2), "+-+"))
    obj = tree.to_json()
    assert obj["label"] == 2 and obj["L"]["label"] == 4
    assert obj["M"]["label"] == 6 and obj["M"]["sign"] == "+"
