import pytest

from kmboard.counting import CENSUS_CAP, catalan_ternary, census
from kmboard.domains import count_linear_extensions, td_domain
from kmboard.errors import CapExceeded
from kmboard.pairs import double_factorial_odd, enumerate_pairs
from kmboard.canonical import is_tamed


def test_catalan_values():
    assert [catalan_ternary(k) for k in range(1, 7)] == [1, 3, 12, 55, 273, 1428]


def test_catalan_bounds():
    for k in range(1, 65):
        assert catalan_ternary(k) <= 8**k
        assert catalan_ternary(k) * 2**k <= 16**k


def test_census_small_values():
    r1 = census(1)
    assert (r1.total_pairs, r1.signed_classes, r1.tamed_count) == (2, 2, 2)
    r2 = census(2)
    assert r2.total_pairs == 12
    assert r2.unsigned_classes == 3
    assert r2.tamed_count == 12
    assert r2.mass_total == 12


def test_census_order_five():
    r = census(5)
    assert r.total_pairs == 30240
    assert r.unsigned_classes == 273
    assert r.tamed_count == 8736
    assert r.mass_total == 30240
    assert sum(size * n for size, n in r.class_size_histogram.items()) == 30240


def test_census_order_six_full():
    r = census(6, signed=True)
    assert r.total_pairs == double_factorial_odd(6) * 64 == 665280
    assert r.signed_classes == catalan_ternary(6) * 64
    assert r.tamed_count == r.signed_classes
    assert r.mass_total == r.total_pairs


def test_census_unsigned_mode():
    r = census(6, signed=False)
    assert r.unsigned_classes == 1428
    assert r.total_pairs == double_factorial_odd(6)


def test_census_cap():
    with pytest.raises(CapExceeded):
        census(CENSUS_CAP + 1)


def test_census_threads_match_sequential():
    assert census(4, threads=2).to_json() == census(4).to_json()


def test_census_tamedness_agrees_with_literal_predicate():
    # the census reads tamedness off one profile per map; it must agree
    # with the pairwise definition everywhere
    from itertools import product

    from kmboard.canonical import _MapProfile
    from kmboard.pairs import enumerate_mus, validate_pair
    from oracles import literal_is_tamed

    for k in range(1, 5):
        for mu in enumerate_mus(k):
            profile = _MapProfile(mu)
            for sgn in product("+-", repeat=k):
                assert profile.tamed(sgn) == literal_is_tamed(validate_pair(k, mu, sgn))


def test_census_extension_counter_agrees_with_domain_module():
    from kmboard.counting import _tc_extension_count
    from kmboard.domains import tc_domain
    from kmboard.canonical import is_reference

    for k in range(1, 5):
        for p in enumerate_pairs(k, signed=True):
            if is_reference(p):
                assert _tc_extension_count(p.mu, p.sgn) == count_linear_extensions(
                    tc_domain(p)
                )


def test_signed_class_size_equals_relabeling_count():
    # the class of a tamed pair is as large as its relabeling set
    from kmboard.domains import sigma_set
    from kmboard.trees import skeleton_key

    for k in range(1, 6):
        buckets = {}
        for p in enumerate_pairs(k, signed=True):
            buckets.setdefault(skeleton_key(p.mu, p.sgn), []).append(p)
        for members in buckets.values():
            tamed = [q for q in members if is_tamed(q)]
            assert len(tamed) == 1
            assert len(members) == count_linear_extensions(td_domain(tamed[0]))
            if k <= 4:
                assert len(members) == len(sigma_set(tamed[0]))
