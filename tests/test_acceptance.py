"""Acceptance criteria, one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
tolerance is exact (structural or integer equality throughout).
"""

import random
import time

from kmboard.canonical import is_reference, is_tamed, to_reference, to_tamed
from kmboard.counting import catalan_ternary, census
from kmboard.domains import (
    TimePoset,
    tc_domain,
    td_domain,
    tr_domain,
)
from kmboard.duhamel import (
    build_dtree,
    estimate_schedule,
    expand,
    expand_oracle,
    expand_text,
    mark_dtree,
    normalize,
)
from kmboard.moves import MoveState, apply_wild
from kmboard.pairs import double_factorial_odd, enumerate_pairs, random_pair, validate_pair
from oracles import (
    allowable_permutations,
    apply_signed_km,
    as_flow,
    induced_order,
    linear_extensions,
    relabel_domain,
    sigma_set,
    substitute_times,
    tier_table,
    unclogged_count,
)


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_catalan_census():
    start = time.monotonic()
    counts = [census(k, signed=False).unsigned_classes for k in range(1, 7)]
    elapsed = time.monotonic() - start
    assert counts == [1, 3, 12, 55, 273, 1428]
    assert counts == [catalan_ternary(k) for k in range(1, 7)]
    assert elapsed < 60.0
    report(1, f"unsigned class counts k=1..6 are {counts} ({elapsed:.2f}s)")


def test_criterion_02_tamed_uniqueness():
    for k in range(1, 6):
        r = census(k, signed=True)  # raises naming a witness on any violation
        assert r.tamed_count == catalan_ternary(k) * 2**k
        assert r.tamed_count == r.signed_classes
    assert census(5, signed=True).tamed_count == 8736
    report(2, "every signed class k<=5 holds exactly one tamed pair; 8736 at k=5")


def test_criterion_03_reference_uniqueness():
    for k in range(1, 6):
        classes = {}
        for p in enumerate_pairs(k, signed=True):
            if not is_tamed(p):
                continue
            reference, rho = to_reference(p)
            assert apply_wild(MoveState.start(reference), rho).pair == p
            classes.setdefault(reference, []).append(p)
        for reference, members in classes.items():
            assert [q for q in members if is_reference(q)] == [reference]
    report(3, "each wild class k<=5 holds one reference pair, witnesses verified")


def test_criterion_04_table_golden():
    mu1 = validate_pair(5, (1, 1, 1, 2, 3), "+++++")
    perms = sigma_set(mu1)
    assert len(perms) == 12
    expected = [
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
    got = [(r.image, r.inverse().image, induced_order(r)) for r in perms]
    assert got == expected
    assert td_domain(mu1) == TimePoset.from_relations(
        5, [(1, 3), (3, 5), (5, 7), (3, 9), (3, 11)]
    )
    report(4, "the 12 relabelings, inverses, simplexes, and the domain all match")


def test_criterion_05_domain_bijection():
    for k in range(1, 6):
        for p in enumerate_pairs(k, signed=False):
            orders = [induced_order(rho) for rho in sigma_set(p)]
            assert len(set(orders)) == len(orders)
            assert set(orders) == linear_extensions(td_domain(p))
    rng = random.Random(2024)
    for _ in range(200):
        p = random_pair(7, rng, signed=False)
        orders = [induced_order(rho) for rho in sigma_set(p)]
        assert len(set(orders)) == len(orders)
        assert set(orders) == linear_extensions(td_domain(p))
    report(5, "relabelings biject onto linear extensions (k<=5 exhaustive, 200 at k=7)")


def test_criterion_06_compatibility():
    for k in range(1, 6):
        for p in enumerate_pairs(k, signed=True):
            if is_reference(p):
                assert tr_domain(p) == tc_domain(p)
    example = validate_pair(7, (1, 1, 1, 2, 3, 6, 6), "++--++-")
    assert tc_domain(example).relations_sorted() == [
        (1, 3), (1, 7), (3, 5), (3, 9), (3, 11), (7, 13), (7, 15),
    ]
    report(6, "closed-formula domain == tree domain for every reference pair k<=5")


def test_criterion_07_mass_identity():
    for k in range(1, 6):
        total = 0
        for p in enumerate_pairs(k, signed=True):
            if not is_reference(p):
                continue
            whole = linear_extensions(tr_domain(p))
            union = set()
            for rho in allowable_permutations(p):
                moved = apply_wild(MoveState.start(p), rho).pair
                piece = linear_extensions(
                    relabel_domain(td_domain(moved), rho.inverse())
                )
                assert not piece & union
                union |= piece
            assert union == whole
            total += len(whole)
        assert total == double_factorial_odd(k) * 2**k
    report(7, "per-reference simplexes partition disjointly; mass 30240 at k=5")


def test_criterion_08_duhamel_equivalence():
    start = time.monotonic()
    count = 0
    for k in range(1, 5):
        for p in enumerate_pairs(k, signed=True):
            assert expand(p) == tuple(map(normalize, expand_oracle(p)))
            count += 1
    assert count == 2 + 12 + 120 + 1680
    rng = random.Random(88)
    for _ in range(200):
        p = random_pair(6, rng)
        assert expand(p) == tuple(map(normalize, expand_oracle(p)))
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    example = validate_pair(7, (1, 1, 1, 2, 3, 6, 6), "++--++-")
    assert expand_text(example) == (
        "U_{1,3}[(U_{3,5}(|U_{5,15}phi|^4U_{5,15}phi))(|U_{3,15}phi|^2)"
        "(conj(U_{3,9}(|U_{9,15}phi|^4U_{9,15}phi)))"
        "(U_{3,11}(|U_{11,15}phi|^4U_{11,15}phi))]\n"
        "conj(U_{1,7}[(|U_{7,15}phi|^2U_{7,15}phi)"
        "(conj(U_{7,13}(|U_{13,15}phi|^4U_{13,15}phi)))(U_{7,15}(|phi|^4phi))])\n"
    )
    report(8, f"recursion == oracle on 2014 pairs ({elapsed:.2f}s); closed form verbatim")


def test_criterion_09_wild_kernel_identity():
    reference = validate_pair(7, (1, 1, 1, 2, 3, 7, 7), "++--++-")
    want = tuple(normalize(as_flow(e, 7)) for e in expand(reference))
    for rho in allowable_permutations(reference):
        moved = apply_wild(MoveState.start(reference), rho).pair
        got = tuple(
            substitute_times(as_flow(e, 7), rho.inverse()) for e in expand(moved)
        )
        assert got == want
    for k in range(1, 5):
        for p in enumerate_pairs(k, signed=True):
            if not is_reference(p):
                continue
            want = tuple(normalize(as_flow(e, k)) for e in expand(p))
            for rho in allowable_permutations(p):
                moved = apply_wild(MoveState.start(p), rho).pair
                got = tuple(
                    substitute_times(as_flow(e, k), rho.inverse())
                    for e in expand(moved)
                )
                assert got == want
    report(9, "relabeled kernels agree across all wild classes k<=4 and the 6-row table")


def test_criterion_10_marking_estimate_golden():
    example = validate_pair(7, (1, 1, 1, 2, 3, 6, 6), "++--++-")
    marked = mark_dtree(build_dtree(example))
    assert {x: set(s) for x, s in marked.marks.items()} == {
        2: {"phi"}, 4: {"phi"}, 8: {"phi"}, 10: {"phi"}, 12: {"phi"},
        6: {"phi", "R"}, 14: {"R"},
    }
    assert unclogged_count(marked) == 6
    schedule = estimate_schedule(marked)
    assert schedule.small_factor_power == 6
    assert schedule.h_norm_power == 24
    report(10, "marks, unclogged count 6, small power 6, norm power 24")


def test_criterion_11_tamed_reduction_golden():
    pair = validate_pair(
        13,
        (1, 1, 1, 6, 1, 6, 7, 1, 2, 16, 9, 18, 3),
        ("-", "-", "+", "-", "+", "+", "+", "-", "-", "+", "-", "+", "+"),
    )
    tamed, move_seq = to_tamed(pair)
    assert [(2 * j, 2 * j + 2) for j in move_seq] == [
        (8, 10), (14, 16), (12, 14), (10, 12), (24, 26), (22, 24), (20, 22),
    ]
    expected = validate_pair(
        13,
        (1, 1, 1, 1, 1, 6, 6, 7, 2, 3, 10, 13, 18),
        ("-", "-", "+", "+", "-", "-", "+", "+", "-", "+", "+", "-", "+"),
    )
    assert tamed == expected
    assert [tier_table(tamed)[x] for x in tamed.even_labels] == [
        1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3,
    ]
    state = MoveState.start(pair)
    for j in move_seq:
        state = apply_signed_km(state, j)
    assert state.pair == tamed
    report(11, "the chart reduces through the printed move chains to its tamed form")
