import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmboard import domains, verify
from kmboard.domains import (
    TimePoset,
    count_linear_extensions,
    tc_domain,
    td_domain,
    tr_domain,
)
from kmboard.errors import CapExceeded, CyclicRelations, NotAForest, NotReference, OutOfRange
from kmboard.moves import MoveState, apply_wild
from kmboard.canonical import is_reference, to_reference, to_tamed
from kmboard.pairs import TimePermutation, enumerate_pairs, random_pair, validate_pair
from oracles import (
    _forest_orders,
    allowable_permutations,
    brute_force_extensions,
    fixpoint_closure,
    induced_order,
    is_identity,
    linear_extensions,
    poset_from_parents,
    relabel_by_reduction,
    relabel_domain,
    relabeling_orders,
    sigma_set,
    stack_forest_orders,
    tc_relations,
    td_relations,
    tr_relations,
)

MU1 = validate_pair(5, (1, 1, 1, 2, 3), "+++++")

TABLE_ROWS = [
    # (rho image, rho^-1 image, induced descending time order)
    ((2, 4, 6, 8, 10), (2, 4, 6, 8, 10), (1, 3, 5, 7, 9, 11)),
    ((2, 4, 6, 10, 8), (2, 4, 6, 10, 8), (1, 3, 5, 7, 11, 9)),
    ((2, 4, 8, 6, 10), (2, 4, 8, 6, 10), (1, 3, 5, 9, 7, 11)),
    ((2, 4, 8, 10, 6), (2, 4, 10, 6, 8), (1, 3, 5, 11, 7, 9)),
    ((2, 4, 10, 6, 8), (2, 4, 8, 10, 6), (1, 3, 5, 9, 11, 7)),
    ((2, 4, 10, 8, 6), (2, 4, 10, 8, 6), (1, 3, 5, 11, 9, 7)),
    ((2, 6, 8, 4, 10), (2, 8, 4, 6, 10), (1, 3, 9, 5, 7, 11)),
    ((2, 6, 8, 10, 4), (2, 10, 4, 6, 8), (1, 3, 11, 5, 7, 9)),
    ((2, 6, 10, 4, 8), (2, 8, 4, 10, 6), (1, 3, 9, 5, 11, 7)),
    ((2, 6, 10, 8, 4), (2, 10, 4, 8, 6), (1, 3, 11, 5, 9, 7)),
    ((2, 8, 10, 4, 6), (2, 8, 10, 4, 6), (1, 3, 9, 11, 5, 7)),
    ((2, 8, 10, 6, 4), (2, 10, 8, 4, 6), (1, 3, 11, 9, 5, 7)),
]


def test_poset_equality_is_by_closure():
    chain = TimePoset.from_relations(2, [(1, 3), (3, 5)])
    redundant = TimePoset.from_relations(2, [(1, 3), (3, 5), (1, 5)])
    assert chain == redundant
    assert hash(chain) == hash(redundant)
    assert chain.reduction() == frozenset({(1, 3), (3, 5)})


def test_poset_rejects_cycles():
    with pytest.raises(CyclicRelations, match="t_3 and t_5 are mutually ordered"):
        TimePoset.from_relations(2, [(3, 5), (5, 3)])
    with pytest.raises(CyclicRelations, match="t_3 and t_5 are mutually ordered"):
        TimePoset.from_relations(3, [(1, 3), (3, 5), (5, 7), (7, 3)])


def _every_domain(max_k):
    for k in range(1, max_k + 1):
        for p in enumerate_pairs(k, signed=True):
            yield td_domain(p)
            yield tc_domain(p)
            if is_reference(p):
                yield tr_domain(p)


def _random_relations(rng, k, density):
    labels = range(1, 2 * k + 2, 2)
    return frozenset(
        (a, b) for a in labels for b in labels if a < b and rng.random() < density
    )


def _is_forest(closure):
    """Every element's strict up-set is a chain."""
    above = {}
    for a, b in closure:
        above.setdefault(b, set()).add(a)
    return all(
        (a, c) in closure or (c, a) in closure
        for ups in above.values()
        for a, c in itertools.combinations(ups, 2)
    )


def _assert_closes_or_not_a_forest(k, relations, closure):
    if _is_forest(closure):
        assert TimePoset.from_relations(k, relations).closure == closure
    else:
        with pytest.raises(NotAForest, match=r"t_\d+ has two incomparable upper covers"):
            TimePoset.from_relations(k, relations)


def test_closure_matches_fixpoint_oracle():
    for poset in _every_domain(3):
        assert poset.closure == fixpoint_closure(poset.reduction())
    rng = random.Random(31)
    for _ in range(300):
        relations = _random_relations(rng, rng.randint(1, 7), 0.3)
        _assert_closes_or_not_a_forest(7, relations, fixpoint_closure(relations))


def test_closure_rejects_every_random_cycle():
    rng = random.Random(32)
    for _ in range(200):
        relations = {
            (b, a) if rng.random() < 0.2 else (a, b) for a, b in _random_relations(rng, 5, 0.4)
        }
        closure = fixpoint_closure(relations)
        cyclic = any((b, a) in closure for a, b in closure)
        if cyclic:
            with pytest.raises(CyclicRelations, match=r"t_\d+ and t_\d+ are mutually ordered"):
                TimePoset.from_relations(5, relations)
        else:
            _assert_closes_or_not_a_forest(5, relations, closure)


def test_from_relations_rejects_the_diamond():
    with pytest.raises(NotAForest, match="t_7 has two incomparable upper covers"):
        TimePoset.from_relations(3, [(1, 3), (1, 5), (3, 7), (5, 7)])


def test_poset_compares_by_parent_tuple():
    chain = TimePoset.from_relations(2, [(1, 3), (3, 5), (1, 5)])
    assert chain.parent == (None, 1, 3)
    assert chain == TimePoset(2, (None, 1, 3)) == poset_from_parents(2, {1: None, 3: 1, 5: 3})
    assert chain != TimePoset(2, (None, 1, 1))


def test_labels_outside_the_order_are_rejected():
    with pytest.raises(OutOfRange, match="label 7"):
        TimePoset.from_relations(2, [(1, 7)])
    with pytest.raises(OutOfRange, match="label 4"):
        poset_from_parents(2, {1: None, 3: 1, 4: 3})


def test_count_matches_brute_force_on_every_small_domain():
    # the 4,386 domains at k <= 4 are 25 distinct posets: check each once
    for poset in dict.fromkeys(_every_domain(4)):
        orders = brute_force_extensions(poset)
        assert count_linear_extensions(poset) == len(orders)
        assert linear_extensions(poset) == orders


def _parent_edges(parent):
    return frozenset((p, x) for x, p in parent.items() if p is not None)


@st.composite
def _parent_maps(draw):
    """Random forests on up to 8 nodes, parents listed before children."""
    labels = draw(st.permutations(range(1, 17, 2)))[: draw(st.integers(1, 8))]
    parent = {}
    for i, x in enumerate(labels):
        parent[x] = draw(st.one_of(st.none(), st.sampled_from(labels[:i]))) if i else None
    return parent


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_parent_maps())
def test_forest_generator_lists_each_extension_once(parent):
    # the labels are not increasing, so this goes through the renumbering
    orders = list(_forest_orders(parent))
    assert len(set(orders)) == len(orders) == domains._hook_count(parent)
    assert set(orders) == set(stack_forest_orders(parent))
    for order in orders:
        assert sorted(order) == sorted(parent)
        place = {x: i for i, x in enumerate(order)}
        assert all(place[p] < place[x] for p, x in _parent_edges(parent))


def test_walker_orders_are_the_relabelings_simplexes():
    # verify's domain-bijection reads t_{2j+1} at the walked position of node 2j
    for k in range(1, 6):
        labels = range(1, 2 * k + 2, 2)
        for p in enumerate_pairs(k, signed=False):
            expected = relabeling_orders(p)
            walked = [
                tuple(sorted(labels, key=lambda x: pos[x >> 1]))
                for pos in domains._extension_walk(verify._tree_parents(k, p.mu))
            ]
            assert len(walked) == len(expected)
            assert set(walked) == set(expected)
            assert [induced_order(rho) for rho in sigma_set(p)] == expected


def test_extensions_of_a_larger_label_above_a_smaller_one():
    poset = poset_from_parents(3, {1: None, 7: 1, 3: 7, 5: 1})
    assert linear_extensions(poset) == {(1, 7, 3, 5), (1, 7, 5, 3), (1, 5, 7, 3)}


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_parent_maps())
def test_closure_from_parents_matches_fixpoint_oracle(parent):
    children_first = dict(reversed(parent.items()))  # walks whole chains
    for order in (parent, children_first):
        poset = poset_from_parents(8, order)
        assert poset.closure == fixpoint_closure(_parent_edges(parent))
        assert poset == TimePoset.from_relations(8, _parent_edges(parent))


def test_from_parents_rejects_cycles():
    with pytest.raises(CyclicRelations, match="t_3 and t_5 are mutually ordered"):
        poset_from_parents(2, {1: None, 3: 5, 5: 3})
    with pytest.raises(CyclicRelations, match="t_5 and t_7 are mutually ordered"):
        poset_from_parents(4, {1: None, 3: 1, 5: 7, 7: 9, 9: 5})


def _assert_domains_match_relation_builders(p):
    assert td_domain(p) == TimePoset.from_relations(p.k, td_relations(p))
    assert tc_domain(p) == TimePoset.from_relations(p.k, tc_relations(p))
    if is_reference(p):
        assert tr_domain(p) == TimePoset.from_relations(p.k, tr_relations(p))
        parent = domains._attached_parents(p.mu, zip(p.mu, p.sgn))
        assert poset_from_parents(p.k, parent).closure == fixpoint_closure(
            _parent_edges(parent)
        )


def test_domains_match_relation_builders_exhaustively():
    for k in range(1, 6):
        for p in enumerate_pairs(k, signed=True):
            _assert_domains_match_relation_builders(p)


def test_domains_built_unchecked_pass_the_checks():
    """td, tc and tr skip ``poset_from_parents``' checks: each map must pass them
    and hang every label but t_1 under a smaller one."""
    for k in range(1, 6):
        for p in enumerate_pairs(k, signed=True):
            posets = [td_domain(p), tc_domain(p)]
            if is_reference(p):
                posets.append(tr_domain(p))
            for poset in posets:
                parent = dict(zip(poset.elements, poset.parent))
                assert poset == poset_from_parents(k, parent)
                assert parent[1] is None
                assert all(parent[x] < x for x in poset.elements[1:])


def test_domains_match_relation_builders_on_large_reference_pairs():
    rng = random.Random(41)
    for _ in range(200):
        tamed, _ = to_tamed(random_pair(rng.randint(8, 14), rng, signed=True))
        reference, _ = to_reference(tamed)
        assert is_reference(reference)
        _assert_domains_match_relation_builders(reference)


def test_relabel_matches_reduce_rename_close():
    for k in range(1, 5):
        for p in enumerate_pairs(k, signed=True):
            if not is_reference(p):
                continue
            for rho in allowable_permutations(p):
                moved = apply_wild(MoveState.start(p), rho).pair
                for poset in (td_domain(moved), tr_domain(p)):
                    for sigma in (rho, rho.inverse()):
                        assert relabel_domain(poset, sigma) == relabel_by_reduction(
                            poset, sigma
                        )


def test_td_of_worked_example():
    assert td_domain(MU1) == TimePoset.from_relations(
        5, [(1, 3), (3, 5), (5, 7), (3, 9), (3, 11)]
    )


def test_td_smallest_and_chain():
    assert td_domain(validate_pair(1, (1,), "+")) == TimePoset.from_relations(1, [(1, 3)])
    chain = td_domain(validate_pair(3, (1, 1, 1), "+++"))
    assert chain == TimePoset.from_relations(3, [(1, 3), (3, 5), (5, 7)])
    assert count_linear_extensions(chain) == 1


def test_tc_of_quintic_example():
    p = validate_pair(7, (1, 1, 1, 2, 3, 6, 6), "++--++-")
    expected = [(1, 3), (1, 7), (3, 5), (3, 9), (3, 11), (7, 13), (7, 15)]
    assert tc_domain(p) == TimePoset.from_relations(7, expected)
    assert tc_domain(p).relations_sorted() == sorted(expected)


def test_tc_smallest():
    assert tc_domain(validate_pair(1, (1,), "-")) == TimePoset.from_relations(1, [(1, 3)])


def test_tc_of_order_five_reference():
    # the five relations forced by the tree-of-couplings definition
    p = validate_pair(5, (1, 1, 1, 3, 6), "++--+")
    assert tc_domain(p) == TimePoset.from_relations(
        5, [(1, 3), (1, 7), (3, 5), (3, 9), (7, 11)]
    )


def test_tr_matches_tc_exhaustively():
    for k in range(1, 5):
        for p in enumerate_pairs(k, signed=True):
            if is_reference(p):
                assert tr_domain(p) == tc_domain(p)


def test_tr_rejects_non_reference():
    with pytest.raises(NotReference):
        tr_domain(validate_pair(2, (1, 1), "-+"))


def test_relabel_identity_is_noop():
    poset = td_domain(MU1)
    assert relabel_domain(poset, TimePermutation.identity(5)) == poset


def test_relabeled_domains_of_wild_example_rows():
    reference = validate_pair(7, (1, 1, 1, 2, 3, 7, 7), "++--++-")
    printed = {
        (2, 4, 6, 8, 10, 12, 14): [(1, 3), (3, 5), (5, 7), (7, 13), (13, 15), (3, 9), (3, 11)],
        (2, 6, 4, 8, 10, 12, 14): [(1, 3), (3, 7), (7, 5), (7, 13), (13, 15), (3, 9), (3, 11)],
        (4, 6, 2, 8, 10, 12, 14): [(1, 7), (7, 3), (3, 5), (7, 13), (13, 15), (3, 9), (3, 11)],
        (2, 4, 6, 8, 10, 14, 12): [(1, 3), (3, 5), (5, 7), (7, 15), (15, 13), (3, 9), (3, 11)],
        (2, 6, 4, 8, 10, 14, 12): [(1, 3), (3, 7), (7, 5), (7, 15), (15, 13), (3, 9), (3, 11)],
        (4, 6, 2, 8, 10, 14, 12): [(1, 7), (7, 3), (3, 5), (7, 15), (15, 13), (3, 9), (3, 11)],
    }
    for rho in allowable_permutations(reference):
        moved = apply_wild(MoveState.start(reference), rho).pair
        got = relabel_domain(td_domain(moved), rho.inverse())
        assert got == TimePoset.from_relations(7, printed[rho.image])


def test_extension_partition_of_wild_example():
    reference = validate_pair(7, (1, 1, 1, 2, 3, 7, 7), "++--++-")
    union = set()
    for rho in allowable_permutations(reference):
        moved = apply_wild(MoveState.start(reference), rho).pair
        piece = linear_extensions(relabel_domain(td_domain(moved), rho.inverse()))
        assert not piece & union
        union |= piece
    assert union == linear_extensions(tr_domain(reference))


def test_linear_extension_counts():
    assert len(linear_extensions(td_domain(MU1))) == 12
    total_order = TimePoset.from_relations(2, [(1, 3), (3, 5)])
    assert linear_extensions(total_order) == frozenset({(1, 3, 5)})
    k = 4
    antichain = TimePoset.from_relations(k, [(1, 2 * j + 1) for j in range(1, k + 1)])
    assert count_linear_extensions(antichain) == math.factorial(k)
    assert len(linear_extensions(antichain)) == math.factorial(k)


def test_linear_extension_cap():
    antichain = TimePoset.from_relations(5, [(1, 2 * j + 1) for j in range(1, 6)])
    with pytest.raises(CapExceeded):
        linear_extensions(antichain, cap=10)


def test_sigma_set_reproduces_table():
    perms = sigma_set(MU1)
    assert [rho.image for rho in perms] == [row[0] for row in TABLE_ROWS]
    for rho, (_, inverse, order) in zip(perms, TABLE_ROWS):
        assert rho.inverse().image == inverse
        assert induced_order(rho) == order


def test_sigma_set_cap():
    with pytest.raises(CapExceeded):
        sigma_set(validate_pair(5, (1, 2, 3, 4, 5), "+++++"), cap=3)


def test_sigma_set_of_chain_is_identity():
    perms = sigma_set(validate_pair(4, (1, 1, 1, 1), "++++"))
    assert len(perms) == 1 and is_identity(perms[0])


def test_sigma_set_size_matches_extension_count_random():
    rng = random.Random(12)
    for _ in range(500):
        p = random_pair(rng.randint(1, 7), rng, signed=False)
        assert len(sigma_set(p)) == count_linear_extensions(td_domain(p))


def test_relabeling_order_bijection_exhaustive():
    for k in range(1, 5):
        for p in enumerate_pairs(k, signed=False):
            orders = [induced_order(rho) for rho in sigma_set(p)]
            assert len(set(orders)) == len(orders)
            assert set(orders) == linear_extensions(td_domain(p))


def test_total_orders_start_at_t1():
    rng = random.Random(8)
    for _ in range(50):
        p = random_pair(rng.randint(1, 6), rng)
        for order in linear_extensions(td_domain(p)):
            assert order[0] == 1
