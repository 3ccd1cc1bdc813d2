import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmboard.canonical import is_tamed
from kmboard.errors import ConstraintViolation, KMismatch, NotAcceptable, NotAllowable, NotTamed
from kmboard.moves import (
    MoveState,
    _act,
    _allowable,
    apply_wild,
    is_allowable,
)
from kmboard.pairs import (
    CollapsingPair,
    TimePermutation,
    enumerate_pairs,
    random_pair,
    validate_pair,
)
from kmboard.trees import skeleton_key
from oracles import (
    all_permutations,
    allowable_permutations,
    apply_signed_km,
    groups_of,
    is_identity,
    km_admissible_indices,
    km_class,
    literal_act,
    literal_is_allowable,
    signed_pairs,
    skeleton_fiber,
    transposition,
)

SEC2_CLASS = [
    validate_pair(5, (1, 1, 1, 3, 6), "++--+"),
    validate_pair(5, (1, 1, 1, 6, 3), "++-+-"),
    validate_pair(5, (1, 1, 3, 1, 8), "++--+"),
    validate_pair(5, (1, 3, 1, 1, 8), "+-+-+"),
]


def test_admissible_indices_worked_example():
    p = validate_pair(5, (1, 1, 1, 2, 3), "+++++")
    indices = km_admissible_indices(p)
    assert 4 in indices  # mu(8)=2 != 3=mu(10) and mu(10)=3 < 8
    assert 2 not in indices  # mu(4) = mu(6)
    assert indices == [3, 4]


def test_admissible_indices_empty_cases():
    assert km_admissible_indices(validate_pair(2, (1, 1), "++")) == []
    assert km_admissible_indices(validate_pair(3, (1, 1, 1), "+++")) == []


def test_move_is_involution():
    p = validate_pair(4, (1, 1, 2, 1), "+-+-")
    j = km_admissible_indices(p)[0]
    state = apply_signed_km(apply_signed_km(MoveState.start(p), j), j)
    assert state.pair == p and is_identity(state.sigma)


def test_move_rejects_inadmissible_index():
    with pytest.raises(NotAcceptable):
        apply_signed_km(MoveState.start(validate_pair(3, (1, 1, 1), "+++")), 2)


def test_signed_move_of_reduction_example():
    # KM(8,10) on the order-13 chart
    mu = (1, 1, 1, 6, 1, 6, 7, 1, 2, 16, 9, 18, 3)
    sgn = ("-", "-", "+", "-", "+", "+", "+", "-", "-", "+", "-", "+", "+")
    state = apply_signed_km(MoveState.start(validate_pair(13, mu, sgn)), 4)
    assert state.pair.mu == (1, 1, 1, 1, 6, 6, 7, 1, 2, 16, 11, 18, 3)
    assert state.pair.sgn == ("-", "-", "+", "+", "-", "+", "+", "-", "-", "+", "-", "+", "+")
    assert state.sigma.image == (2, 4, 6, 10, 8, 12, 14, 16, 18, 20, 22, 24, 26)


def test_sigma_accumulates_composition():
    p = validate_pair(5, (1, 1, 1, 2, 3), "++--+")
    state = MoveState.start(p)
    rho_total = TimePermutation.identity(5)
    for j in (4, 3):
        state = apply_signed_km(state, j)
        rho_total = transposition(5, 2 * j, 2 * j + 2).compose(rho_total)
    assert state.sigma == rho_total


def test_unsigned_class_of_worked_example():
    expected = {
        (1, 1, 1, 2, 3), (1, 1, 1, 3, 2), (1, 1, 2, 1, 3), (1, 1, 3, 1, 2),
        (1, 1, 2, 3, 1), (1, 1, 3, 2, 1), (1, 2, 1, 1, 3), (1, 3, 1, 1, 2),
        (1, 2, 1, 3, 1), (1, 3, 1, 2, 1), (1, 2, 3, 1, 1), (1, 3, 2, 1, 1),
    }
    cls = km_class(validate_pair(5, (1, 1, 1, 2, 3), "+++++"), signed=False)
    assert {p.mu for p in cls} == expected


def test_k1_class_is_singleton():
    p = validate_pair(1, (1,), "-")
    assert km_class(p, signed=True) == frozenset({p})


def test_signed_class_of_order_five_example():
    cls = km_class(SEC2_CLASS[0], signed=True)
    assert cls == frozenset(SEC2_CLASS)


def test_class_equals_skeleton_fiber_exhaustively():
    for k in range(1, 4):
        seen = set()
        for p in enumerate_pairs(k, signed=True):
            if p in seen:
                continue
            cls = km_class(p, signed=True)
            seen |= cls
            assert cls == skeleton_fiber(p, signed=True)


def test_orbit_consistency_via_buckets_order_five():
    # BFS closures against a one-pass bucketing of the whole space
    from kmboard.trees import skeleton_key

    for signed in (True, False):
        buckets = {}
        for p in enumerate_pairs(5, signed=signed):
            key = skeleton_key(p.mu, p.sgn if signed else None)
            buckets.setdefault(key, set()).add(p)
        for members in buckets.values():
            representative = next(iter(members))
            assert km_class(representative, signed=signed) == frozenset(members)


def test_class_enumeration_cap():
    from kmboard.errors import CapExceeded

    with pytest.raises(CapExceeded):
        km_class(validate_pair(5, (1, 1, 1, 2, 3), "+++++"), signed=False, cap=3)


def test_class_equals_skeleton_fiber_sampled_k4():
    rng = random.Random(23)
    for _ in range(20):
        p = random_pair(4, rng)
        assert km_class(p, signed=True) == skeleton_fiber(p, signed=True)
        assert km_class(p, signed=False) == skeleton_fiber(p, signed=False)


def test_class_with_moves_witnesses_replay():
    p = validate_pair(5, (1, 1, 1, 2, 3), "++--+")
    for member, move_seq in km_class(p, signed=True, with_moves=True).items():
        state = MoveState.start(p)
        for j in move_seq:
            state = apply_signed_km(state, j)
        assert state.pair == member


def test_allowable_of_wild_example():
    p1 = validate_pair(7, (1, 1, 1, 2, 3, 7, 7), "++--++-")
    images = {rho.image for rho in allowable_permutations(p1)}
    assert images == {
        (2, 4, 6, 8, 10, 12, 14),
        (2, 4, 6, 8, 10, 14, 12),
        (2, 6, 4, 8, 10, 12, 14),
        (2, 6, 4, 8, 10, 14, 12),
        (4, 6, 2, 8, 10, 12, 14),
        (4, 6, 2, 8, 10, 14, 12),
    }


def test_allowable_trivial_when_groups_are_singletons():
    p = validate_pair(3, (1, 2, 3), "+-+")
    perms = allowable_permutations(p)
    assert len(perms) == 1 and is_identity(perms[0])


def test_allowable_k2():
    perms = allowable_permutations(validate_pair(2, (1, 1), "+-"))
    assert {rho.image for rho in perms} == {(2, 4), (4, 2)}


def test_allowable_rejects_untamed():
    with pytest.raises(NotTamed):
        allowable_permutations(validate_pair(5, (1, 1, 3, 1, 8), "++--+"))


def _allowable_bruteforce(pair):
    out = []
    for rho in all_permutations(pair.k):
        if is_allowable(pair, rho):
            out.append(rho)
    return out


def test_allowable_matches_bruteforce_and_count_formula():
    import math

    from kmboard.canonical import to_tamed

    rng = random.Random(2)
    cases = [p for k in range(1, 5) for p in enumerate_pairs(k, signed=True) if is_tamed(p)]
    cases += [to_tamed(random_pair(rng.choice([5, 6]), rng))[0] for _ in range(60)]
    for p in cases:
        perms = allowable_permutations(p)
        # the brute force walks every permutation in lexicographic order
        assert [t.image for t in perms] == [t.image for t in _allowable_bruteforce(p)]
        expected = 1
        for members in groups_of(p).values():
            plus = sum(1 for x in members if p.sgn_of(x) == "+")
            expected *= math.comb(len(members), plus)
        assert len(perms) == expected
        assert any(is_identity(t) for t in perms)


def test_wild_move_of_wild_example():
    p1 = validate_pair(7, (1, 1, 1, 2, 3, 7, 7), "++--++-")
    rho3 = TimePermutation(7, (4, 6, 2, 8, 10, 12, 14))
    out = apply_wild(MoveState.start(p1), rho3).pair
    assert out.mu == (1, 1, 1, 4, 5, 3, 3)
    assert out.sgn == ("-", "+", "+", "-", "+", "+", "-")


def test_wild_identity_fixes_state():
    p = validate_pair(5, (1, 1, 1, 3, 6), "++--+")
    state = apply_wild(MoveState.start(p), TimePermutation.identity(5))
    assert state.pair == p and is_identity(state.sigma)


def test_wild_class_of_order_five_example():
    p1 = validate_pair(5, (1, 1, 1, 3, 6), "++--+")
    images = {apply_wild(MoveState.start(p1), rho).pair for rho in allowable_permutations(p1)}
    assert images == {
        p1,
        validate_pair(5, (1, 1, 1, 3, 4), "+-+-+"),
        validate_pair(5, (1, 1, 1, 5, 2), "-++-+"),
    }


def test_wild_rejects_non_allowable():
    p = validate_pair(2, (1, 2), "++")
    with pytest.raises(NotAllowable):
        apply_wild(MoveState.start(p), TimePermutation(2, (4, 2)))


def test_wild_moves_preserve_tamedness_exhaustively():
    for k in range(1, 6):
        for p in enumerate_pairs(k, signed=True):
            if not is_tamed(p):
                continue
            for rho in allowable_permutations(p):
                assert is_tamed(apply_wild(MoveState.start(p), rho).pair)


def test_wild_moves_compose_as_group_action():
    rng = random.Random(17)
    from kmboard.canonical import to_tamed

    for _ in range(100):
        p = to_tamed(random_pair(rng.randint(2, 6), rng))[0]
        rho = rng.choice(allowable_permutations(p))
        mid = apply_wild(MoveState.start(p), rho)
        rho2 = rng.choice(allowable_permutations(mid.pair))
        two_step = apply_wild(mid, rho2)
        combined = rho2.compose(rho)
        assert is_allowable(p, combined)
        assert apply_wild(MoveState.start(p), combined) == two_step


def _outcome(act, pair, rho, conjugate):
    try:
        return act(pair, rho, conjugate)
    except ConstraintViolation as exc:
        return type(exc), exc.args


def test_indexed_kernels_match_their_oracles_exhaustively():
    illegal = 0
    for k in range(1, 5):
        perms = list(all_permutations(k))
        for pair in enumerate_pairs(k, signed=True):
            for rho in perms:
                assert is_allowable(pair, rho) == literal_is_allowable(pair, rho)
                for conjugate in (False, True):
                    got = _outcome(_act, pair, rho, conjugate)
                    assert got == _outcome(literal_act, pair, rho, conjugate)
                    illegal += not isinstance(got, CollapsingPair)
    assert illegal > 0  # the error branch was compared too


def test_is_allowable_rejects_a_permutation_of_another_order():
    with pytest.raises(KMismatch):
        is_allowable(validate_pair(2, (1, 1), "++"), TimePermutation.identity(3))


@pytest.mark.parametrize("image", [(2, 2), (4, 4), (2, 3)])
def test_allowable_kernel_rejects_an_image_that_is_not_a_permutation(image):
    # one branch of two opposite signs: every image passes the group and
    # same-sign tests, so only the labels met can tell these apart
    mu, sgn = (1, 1), ("+", "-")
    assert _allowable(mu, sgn, (2, 4)) and _allowable(mu, sgn, (4, 2))
    assert not _allowable(mu, sgn, image)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(signed_pairs(), st.data())
def test_km_move_is_an_involution_property(p, data):
    js = km_admissible_indices(p)
    if js:
        j = data.draw(st.sampled_from(js))
        twice = apply_signed_km(apply_signed_km(MoveState.start(p), j), j)
        assert twice.pair == p and is_identity(twice.sigma)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(signed_pairs(), st.lists(st.integers(0, 2**16), max_size=24))
def test_signed_skeleton_key_is_constant_along_km_walks_property(p, picks):
    key = skeleton_key(p.mu, p.sgn)
    state = MoveState.start(p)
    for pick in picks:
        js = km_admissible_indices(state.pair)
        if not js:
            break
        state = apply_signed_km(state, js[pick % len(js)])
        assert skeleton_key(state.pair.mu, state.pair.sgn) == key
