import random

import pytest

from kmboard.errors import CapExceeded, ConstraintViolation, KMismatch, LengthMismatch, OutOfRange
from kmboard.pairs import (
    CollapsingPair,
    TimePermutation,
    all_permutations,
    double_factorial_odd,
    enumerate_pairs,
    random_pair,
    validate_pair,
)

EX41 = validate_pair(5, (1, 1, 1, 2, 3), "++--+")


def test_validate_worked_example():
    assert EX41.mu == (1, 1, 1, 2, 3)
    assert EX41.sgn == ("+", "+", "-", "-", "+")


def test_validate_smallest():
    p = validate_pair(1, (1,), ("+",))
    assert p.k == 1 and p.mu == (1,)


def test_validate_rejects_mu_too_large():
    with pytest.raises(ConstraintViolation) as err:
        validate_pair(3, (1, 4, 1), "+++")
    assert err.value.j == 2


def test_validate_rejects_bad_first_entry():
    with pytest.raises(ConstraintViolation) as err:
        validate_pair(2, (2, 1), "++")
    # both the mu(2)=1 pin and the range bound point at j=1
    assert err.value.j == 1


def test_validate_rejects_length_mismatch():
    with pytest.raises(LengthMismatch):
        validate_pair(3, (1, 1), "+++")
    with pytest.raises(LengthMismatch):
        validate_pair(0, (), "")


def test_validate_rejects_bad_sign():
    with pytest.raises(ConstraintViolation):
        validate_pair(2, (1, 1), ("+", "?"))


def test_extended_mu_worked_example():
    assert EX41.mu_of(5) == 1  # mu(5) = mu(4)
    assert EX41.mu_of(8) == 2
    assert EX41.mu_of(11) == 3  # mu(11) = mu(10)
    assert EX41.sgn_of(9) == EX41.sgn_of(8) == "-"
    with pytest.raises(OutOfRange):
        EX41.mu_of(12)
    with pytest.raises(OutOfRange):
        EX41.mu_of(1)


def test_enumerate_counts_small():
    assert len(list(enumerate_pairs(2, signed=True))) == 12
    only = list(enumerate_pairs(1, signed=False))
    assert only == [validate_pair(1, (1,), "+")]
    assert len(list(enumerate_pairs(5, signed=True))) == 30240


def test_enumerate_counts_match_double_factorial():
    for k in range(1, 8):
        count = sum(1 for _ in enumerate_pairs(k, signed=False))
        assert count == double_factorial_odd(k)
    for k in range(1, 6):
        assert sum(1 for _ in enumerate_pairs(k, signed=True)) == double_factorial_odd(
            k
        ) * 2**k


def test_enumerate_is_deterministic_and_lexicographic():
    first = [(p.mu, p.sgn) for p in enumerate_pairs(3, signed=True)]
    second = [(p.mu, p.sgn) for p in enumerate_pairs(3, signed=True)]
    assert first == second
    assert first == sorted(first, key=lambda t: (t[0], ["+-".index(s) for s in t[1]]))
    assert first[0][0] == (1, 1, 1) and first[0][1] == ("+", "+", "+")


def test_enumerate_cap():
    with pytest.raises(CapExceeded):
        next(enumerate_pairs(11, signed=False))


def test_json_round_trip():
    rng = random.Random(7)
    for _ in range(50):
        p = random_pair(rng.randint(1, 8), rng)
        assert CollapsingPair.from_json(p.to_json()) == p


def test_random_pairs_are_legal():
    rng = random.Random(3)
    for _ in range(200):
        p = random_pair(rng.randint(1, 9), rng)
        validate_pair(p.k, p.mu, p.sgn)


def test_permutation_group_laws():
    rng = random.Random(11)
    perms = list(all_permutations(4))
    for _ in range(50):
        a, b = rng.choice(perms), rng.choice(perms)
        assert a.compose(a.inverse()).is_identity
        ab = a.compose(b)
        for x in range(2, 10):
            assert ab.of(x) == a.of(b.of(x))


def test_transposition_is_involution():
    t = TimePermutation.transposition(3, 2, 4)
    assert t.compose(t).is_identity


def test_table_inverse_row():
    # the (2,6,8,4,10) relabeling inverts to (2,8,4,6,10)
    rho7 = TimePermutation(5, (2, 6, 8, 4, 10))
    assert rho7.inverse().image == (2, 8, 4, 6, 10)


def test_odd_extension_of_permutation():
    rho = TimePermutation(3, (4, 6, 2))
    assert rho.of(3) == 5 and rho.of(5) == 7 and rho.of(7) == 3
    assert rho.of(1) == 1


def test_compose_k_mismatch():
    with pytest.raises(KMismatch):
        TimePermutation.identity(2).compose(TimePermutation.identity(3))
