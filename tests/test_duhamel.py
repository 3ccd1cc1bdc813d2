import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmboard import duhamel, verify
from kmboard.canonical import is_reference, tamed_pairs
from kmboard.domains import tc_domain, TimePoset
from kmboard.duhamel import (
    Atom,
    Conj,
    Evolve,
    FLeaf,
    Prod,
    build_dtree,
    estimate_schedule,
    expand,
    expand_display,
    expand_oracle,
    expand_text,
    integrated_expand,
    mark_dtree,
    normalize,
    render_expr,
)
from kmboard.moves import MoveState, apply_wild
from kmboard.pairs import (
    TimePermutation,
    enumerate_pairs,
    random_pair,
    validate_pair,
)
from oracles import (
    allowable_permutations,
    apply_signed_km,
    as_flow,
    km_admissible_indices,
    literal_expr_key,
    literal_substitute_times,
    recursive_dtree_dot,
    relation_pairs,
    scan_build_dtree,
    signed_pairs,
    stepwise_expand_oracle,
    substitute_times,
    two_pass_normalize,
    unclogged_count,
)

QUINTIC = validate_pair(7, (1, 1, 1, 2, 3, 6, 6), "++--++-")

X1_TEXT = (
    "U_{1,3}[(U_{3,5}(|U_{5,15}phi|^4U_{5,15}phi))(|U_{3,15}phi|^2)"
    "(conj(U_{3,9}(|U_{9,15}phi|^4U_{9,15}phi)))(U_{3,11}(|U_{11,15}phi|^4U_{11,15}phi))]"
)
X1P_TEXT = (
    "conj(U_{1,7}[(|U_{7,15}phi|^2U_{7,15}phi)"
    "(conj(U_{7,13}(|U_{13,15}phi|^4U_{13,15}phi)))(U_{7,15}(|phi|^4phi))])"
)


def test_dtree_of_quintic_example():
    dt = build_dtree(QUINTIC)
    assert dt.root == (2, 6)
    assert dt.kids[2] == (4, FLeaf(2, "+"), 8, 10, FLeaf(3, "-"))
    assert dt.kids[6] == (FLeaf(1, "-"), 12, 14, FLeaf(7, "+"), FLeaf(7, "-"))
    assert dt.kids[4] == (
        FLeaf(1, "+"), FLeaf(4, "+"), FLeaf(4, "-"), FLeaf(5, "+"), FLeaf(5, "-"),
    )
    assert dt.parent[14] == 6 and dt.parent[2] == 0


def _assert_matches_the_scan(p):
    got, want = build_dtree(p), scan_build_dtree(p)
    assert got.root == want.root
    assert list(got.kids.items()) == list(want.kids.items())  # labels and slots in order
    assert got.parent == want.parent


def test_build_dtree_matches_the_scan_exhaustively():
    for k in range(1, 6):
        for p in enumerate_pairs(k, signed=True):
            _assert_matches_the_scan(p)


def test_build_dtree_matches_the_scan_on_random_pairs():
    for k in (18, 60, 300):
        rng = random.Random(k)
        for _ in range(50):
            _assert_matches_the_scan(random_pair(k, rng, signed=True))


def test_dtree_dot_matches_the_recursive_drawing():
    for k in range(1, 5):
        for p in enumerate_pairs(k, signed=True):
            dt = build_dtree(p)
            marked = mark_dtree(dt)
            assert dt.to_dot() == recursive_dtree_dot(dt)
            assert marked.to_dot() == recursive_dtree_dot(marked)
            assert marked.to_dot(marked=True) == recursive_dtree_dot(marked, marked=True)


def test_dtree_smallest():
    dt = build_dtree(validate_pair(1, (1,), "+"))
    assert dt.root == (2, FLeaf(1, "-"))
    assert all(isinstance(c, FLeaf) for c in dt.kids[2])


def test_marks_of_quintic_example():
    marked = mark_dtree(build_dtree(QUINTIC))
    assert {x: set(s) for x, s in marked.marks.items()} == {
        2: {"phi"}, 4: {"phi"}, 8: {"phi"}, 10: {"phi"}, 12: {"phi"},
        6: {"phi", "R"}, 14: {"R"},
    }
    assert unclogged_count(marked) == 6


def test_left_chain_is_fully_unclogged():
    p = validate_pair(6, (1,) * 6, "++++++")
    assert unclogged_count(build_dtree(p)) == 5


def test_schedule_of_quintic_example():
    schedule = estimate_schedule(mark_dtree(build_dtree(QUINTIC)))
    assert schedule.small_factor_power == 6
    assert schedule.h_norm_power == 24
    assert schedule.constant_power == 7
    assert dict(schedule.cases)[3] == "phi-R"
    assert dict(schedule.cases)[1] == "phi"


def test_schedule_smallest():
    schedule = estimate_schedule(build_dtree(validate_pair(1, (1,), "+")))
    assert schedule.cases == ()
    assert schedule.small_factor_power == 0
    assert schedule.h_norm_power == 6


def test_schedule_small_power_equals_unclogged_random():
    rng = random.Random(14)
    for _ in range(500):
        p = random_pair(rng.randint(1, 7), rng)
        dt = build_dtree(p)
        assert estimate_schedule(mark_dtree(dt)).small_factor_power == unclogged_count(dt)


def _unclogged_fast(mu, sgn):
    # a coupling is congested iff its node fills all five child slots
    k = len(mu)
    child_count = [0] * (k + 1)
    seen = {}
    for j in range(1, k + 1):
        key = (mu[j - 1], sgn[j - 1])
        if key in seen:
            child_count[seen[key]] += 1
        elif mu[j - 1] > 1:
            v = mu[j - 1]
            child_count[v // 2 if v % 2 == 0 else (v - 1) // 2] += 1
        seen[key] = j
    return sum(1 for l in range(1, k) if child_count[l] < 5)


def test_unclogged_fast_scan_matches_tree():
    for k in range(1, 5):
        for p in enumerate_pairs(k, signed=True):
            assert _unclogged_fast(p.mu, p.sgn) == unclogged_count(build_dtree(p))


def test_minimum_unclogged_fraction_report():
    # recorded, not asserted: the guaranteed decay fraction is asymptotic
    from itertools import product

    from kmboard.pairs import enumerate_mus

    for k in range(1, 7):
        worst = min(
            _unclogged_fast(mu, sgn) / k
            for mu in enumerate_mus(k)
            for sgn in product("+-", repeat=k)
        )
        print(f"k={k}: minimum unclogged fraction {worst:.3f}")


def test_rough_marks_sit_on_ancestor_chain():
    rng = random.Random(15)
    for _ in range(200):
        p = random_pair(rng.randint(2, 7), rng)
        dt = mark_dtree(build_dtree(p))
        rough = {x for x, s in dt.marks.items() if "R" in s}
        assert rough == {2 * p.k, *dt.ancestors(2 * p.k)}
        for l in range(1, p.k):
            assert ("phi" in dt.marks.get(2 * l, frozenset())) == dt.has_f_child(2 * l)


def test_expansion_text_of_quintic_example():
    assert expand_text(QUINTIC) == X1_TEXT + "\n" + X1P_TEXT + "\n"


def test_expansion_text_smallest():
    assert expand_text(validate_pair(1, (1,), "+")) == (
        "U_{1,3}(|phi|^4phi)\nconj(U_{1,3}phi)\n"
    )


def test_oracle_trace_reproduces_printed_intermediates():
    _, snapshots = expand_oracle(QUINTIC, trace=True)
    state = dict(snapshots)
    after13 = state[7]
    assert render_expr(after13[6][0]) == "U_{13,15}phi"
    assert render_expr(after13[6][1]) == "conj(U_{13,15}(|phi|^4phi))"
    after11 = state[6]
    assert render_expr(after11[6][0]) == "U_{11,13}(|U_{13,15}phi|^4U_{13,15}phi)"
    assert render_expr(after11[6][1]) == "conj(U_{11,15}(|phi|^4phi))"
    after7 = state[4]
    assert render_expr(after7[2][0]) == "U_{7,15}phi"
    assert render_expr(after7[2][1]) == "conj(U_{7,9}(|U_{9,15}phi|^4U_{9,15}phi))"
    assert render_expr(after7[3][0]) == "U_{7,11}(|U_{11,15}phi|^4U_{11,15}phi)"
    assert render_expr(after7[3][1]) == "conj(U_{7,15}phi)"
    assert render_expr(after7[6][0]) == "U_{7,13}(|U_{13,15}phi|^4U_{13,15}phi)"
    assert render_expr(after7[6][1]) == "conj(U_{7,15}(|phi|^4phi))"


def test_expand_display_builds_a_middle_chain_a_thousand_deep():
    # mu = 1,2,4,...,2k-2: each coupling sits in its parent's (2j, +) slot,
    # the second of five.  Walked by hand: equality, hash and repr recurse.
    k = 1000
    left, right = expand_display(validate_pair(k, (1,) + tuple(range(2, 2 * k - 1, 2)), "+" * k))
    assert (type(left), type(right)) == (Evolve, Conj)
    e, products = left, 0
    while True:
        while isinstance(e, (Evolve, Conj)):
            e = e.body
        if not isinstance(e, Prod):
            break
        products += 1
        e = e.factors[1]
    assert products == k


def test_expand_equals_oracle_small_and_random():
    for k in (1, 2, 3):
        for p in enumerate_pairs(k, signed=True):
            assert expand(p) == tuple(map(normalize, expand_oracle(p)))
    rng = random.Random(16)
    for _ in range(60):
        p = random_pair(rng.randint(4, 6), rng)
        assert expand(p) == tuple(map(normalize, expand_oracle(p)))


def _assert_expand_equals_the_normalized_display_pass():
    # expand builds the normal form itself; the display pass plus normalize is its check
    rng = random.Random(31)
    small = [p for k in range(1, 5) for p in enumerate_pairs(k, signed=True)]
    for p in small + [random_pair(rng.randint(1, 12), rng) for _ in range(200)]:
        got, want = expand(p), tuple(map(normalize, expand_display(p)))
        assert got == want and repr(got) == repr(want), p


def test_expand_equals_the_normalized_display_pass():
    _assert_expand_equals_the_normalized_display_pass()


def test_a_flipped_slot_orientation_fails_verify_and_the_display_cross_check(monkeypatch):
    # slot 1 of a "-" coupling takes U_{t,_}; give it U_{_,t}
    slots, own = duhamel._ORIENT["-"]
    monkeypatch.setitem(duhamel._ORIENT, "-", ((slots[0], not slots[1], *slots[2:]), own))
    p = validate_pair(1, (1,), "-")
    assert expand(p) != tuple(map(normalize, expand_oracle(p)))
    assert verify.run_checks(["duhamel"], 3, 0, 1) == (
        ["k=1: expansion != oracle for mu=1 sgn=- FAIL"],
        {"duhamel": False},
    )
    with pytest.raises(AssertionError):
        _assert_expand_equals_the_normalized_display_pass()


def test_expand_builds_a_middle_chain_five_hundred_deep():
    # normalizing the display form recurses on depth and overflows here; the
    # keys grow with the square of the depth, so the suite goes no deeper
    k = 500
    left, right = expand(validate_pair(k, (1,) + tuple(range(2, 2 * k - 1, 2)), "+" * k))
    assert right == Evolve(2 * k + 1, 1, Conj(Atom()))
    e = left
    for j in range(1, k + 1):  # coupling j's product, reached from its parent at t_{2j-1}
        assert (type(e), e.a, e.b, type(e.body)) == (Evolve, 2 * j - 1, 2 * j + 1, Prod)
        assert len(e.body.factors) == 5
        inner = [f for f in e.body.factors if isinstance(getattr(f, "body", None), Prod)]
        assert len(inner) == (j < k)
        e = inner[0] if inner else None


def test_expand_oracle_equals_the_stepwise_replay():
    # node == compares classes and fields, so equal nodes print equal: the
    # snapshots' repr, by far the dearest check, runs on the exhaustive pairs
    rng = random.Random(28)
    small = [p for k in range(1, 5) for p in enumerate_pairs(k, signed=True)]
    for p in small + [random_pair(rng.randint(5, 40), rng) for _ in range(200)]:
        got, got_trace = expand_oracle(p, trace=True)
        want, want_trace = stepwise_expand_oracle(p, trace=True)
        assert got == want == expand_oracle(p) and repr(got) == repr(want), p
        snapshots = [[(j, list(s.items())) for j, s in t] for t in (got_trace, want_trace)]
        assert snapshots[0] == snapshots[1], p
        if p.k < 5:
            assert repr(got_trace) == repr(want_trace), p


def test_expand_oracle_builds_a_linear_number_of_propagators(monkeypatch):
    # the stepwise replay wraps every live coordinate at each coupling: about k^2 calls
    calls = 0
    inner = duhamel.evolve

    def counted(a, b, e):
        nonlocal calls
        calls += 1
        return inner(a, b, e)

    monkeypatch.setattr(duhamel, "evolve", counted)
    for k in (100, 200):
        calls = 0
        expand_oracle(random_pair(k, random.Random(k)))
        # each coupling brings three coordinates forward, two kernels each; an
        # oracle that stopped calling duhamel.evolve by name would count none
        assert 6 * k <= calls <= 10 * k, (k, calls)


def test_normalize_basic_laws():
    phi = Atom()
    assert normalize(Conj(Conj(phi))) == phi
    assert normalize(Evolve(3, 5, Evolve(5, 15, phi))) == Evolve(3, 15, phi)
    assert normalize(Evolve(3, 3, phi)) == phi
    # conjugation flips the propagator orientation; |phi|^2 is self-conjugate
    lhs = normalize(Conj(Evolve(3, 5, Prod((phi, Conj(phi))))))
    assert lhs == normalize(Evolve(5, 3, Prod((phi, Conj(phi)))))


_PHI = Atom()


@pytest.mark.parametrize(
    "node",
    [
        Conj(_PHI),
        Evolve(3, 15, _PHI),
        Evolve(None, 7, Conj(_PHI)),
        Prod((Conj(_PHI), Evolve(3, 15, _PHI), _PHI)),
    ],
    ids=["conj", "evolve", "evolve-open", "prod"],
)
def test_nodes_stay_frozen_dataclasses_and_normal_nodes_normalize_to_equal_nodes(node):
    fields = dataclasses.fields(node)
    values = {f.name: getattr(node, f.name) for f in fields}
    assert vars(node) == values  # no key yet, nothing besides the fields
    for f in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, f.name, values[f.name])
    cls = type(node)
    assert repr(node) == f"{cls.__qualname__}(" + ", ".join(
        f"{name}={value!r}" for name, value in values.items()
    ) + ")"
    twin = cls(**values)
    assert twin == node and twin is not node
    assert hash(node) == hash(twin) == hash(tuple(values.values()))
    assert node != cls(**{**values, fields[-1].name: Conj(Conj(_PHI))})
    assert normalize(node) == node


def test_normalize_hands_back_a_propagator_that_merges_nothing():
    # unflipped and over a body that comes back unchanged: the same object
    inner = Evolve(7, 9, _PHI)
    for e in (inner, Evolve(3, 5, inner), Evolve(None, 5, inner)):
        assert normalize(e) is e


def _random_expr(rng, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        return Atom()
    if roll < 0.5:
        return Conj(_random_expr(rng, depth - 1))
    if roll < 0.75:
        a = rng.choice([None, 1, 3, 5, 7, 9])
        b = rng.choice([1, 3, 5, 7, 9, None])
        if a is None and b is None:
            b = 7
        return Evolve(a, b, _random_expr(rng, depth - 1))
    return Prod(tuple(_random_expr(rng, depth - 1) for _ in range(rng.randint(2, 4))))


def test_normalize_is_idempotent_on_random_expressions():
    rng = random.Random(99)
    for _ in range(1000):
        e = _random_expr(rng, 5)
        n = normalize(e)
        assert normalize(n) == n
        assert normalize(Conj(Conj(e))) == n


def test_conj_commutes_through_evolve_with_flip():
    rng = random.Random(100)
    for _ in range(300):
        e = _random_expr(rng, 4)
        lhs = normalize(Conj(Evolve(3, 9, e)))
        rhs = normalize(Evolve(9, 3, Conj(e)))
        assert lhs == rhs


def test_normalize_and_substitute_times_match_their_oracles():
    rng = random.Random(102)
    pairs = [p for k in range(1, 5) for p in enumerate_pairs(k, signed=True)]
    pairs += [random_pair(rng.randint(6, 12), rng) for _ in range(200)]
    for p in pairs:
        display, oracle = expand_display(p), expand_oracle(p)
        exprs = display + oracle + (Conj(Prod(display)),)
        if p.k <= 4:
            exprs += tuple(as_flow(e, p.k) for e in display)
        for e in exprs:
            assert normalize(e) == two_pass_normalize(e)
    for _ in range(300):
        e = _random_expr(rng, 5)
        assert normalize(e) == two_pass_normalize(e)
    for k in range(1, 5):
        for reference in filter(is_reference, tamed_pairs(k)):
            kernels = [as_flow(e, k) for e in expand(reference)]
            for rho in allowable_permutations(reference):
                for e in kernels:
                    assert substitute_times(e, rho) == literal_substitute_times(e, rho)


_LABELS = st.sampled_from([None, 1, 3, 5, 7, 9])

_EXPRS = st.recursive(
    st.just(Atom()),
    lambda inner: st.one_of(
        inner.map(Conj),
        st.builds(Evolve, _LABELS, _LABELS, inner).filter(
            lambda e: e.a is not None or e.b is not None
        ),
        st.lists(inner, min_size=2, max_size=4).map(lambda fs: Prod(tuple(fs))),
    ),
    max_leaves=24,
)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(signed_pairs())
def test_expand_equals_normalized_oracle_property(p):
    assert expand(p) == tuple(map(normalize, expand_oracle(p)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_EXPRS)
def test_conjugation_commutes_with_normalize_property(e):
    assert normalize(Conj(e)) == normalize(Conj(normalize(e)))


def _nodes(e):
    """Every node of ``e``, a shared subtree once per place it occurs."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (Conj, Evolve)):
            stack.append(node.body)
        elif isinstance(node, Prod):
            stack.extend(node.factors)


def test_cached_keys_equal_the_literal_serialization():
    rng = random.Random(104)
    pairs = [p for k in range(1, 4) for p in enumerate_pairs(k, signed=True)]
    pairs += [random_pair(rng.randint(4, 12), rng) for _ in range(60)]
    pairs += [random_pair(rng.randint(13, 18), rng) for _ in range(100)]
    for p in pairs:
        # the normal-form builders write every key as they build the node,
        # so it is in the instance dict before anything reads it
        built = expand(p) + tuple(map(normalize, expand_oracle(p)))
        assert all("key" in vars(node) for e in built for node in _nodes(e)), p
        display = expand_display(p)
        flows = tuple(as_flow(e, p.k) for e in display)
        sigma = TimePermutation(p.k, tuple(rng.sample(range(2, 2 * p.k + 1, 2), p.k)))
        substituted = tuple(substitute_times(e, sigma) for e in flows)
        for e in built + expand_oracle(p) + flows + substituted:
            for node in _nodes(e):
                assert node.key == literal_expr_key(node)


def test_reading_a_key_keeps_equality_hash_and_repr():
    rng = random.Random(105)
    for _ in range(30):
        p = random_pair(rng.randint(1, 12), rng)
        unread, read = expand_oracle(p), expand_oracle(p)  # equal trees, no node shared
        nodes = [n for e in read for n in _nodes(e)]
        before = [(repr(n), hash(n)) for n in nodes]
        for e in read:
            e.key
        assert all("key" in vars(n) for n in nodes)  # the read was kept on every node
        assert not any("key" in vars(n) for e in unread for n in _nodes(e))
        assert [(repr(n), hash(n)) for n in nodes] == before
        assert read == unread and hash(read) == hash(unread)


def test_expand_text_renders_each_subexpression_once(monkeypatch):
    calls = 0
    render = duhamel.render_expr

    def counted(e):
        nonlocal calls
        calls += 1
        assert calls < 1000, "render_expr repeats the bases of nested products"
        return render(e)

    monkeypatch.setattr(duhamel, "render_expr", counted)
    k = 20  # the middle chain: every product nests inside the one before
    duhamel.expand_text(validate_pair(k, (1, *range(2, 2 * k - 1, 2)), "+-" * (k // 2)))
    assert calls < 1000


def test_substitute_times_identity_and_composition():
    rng = random.Random(101)
    p = validate_pair(3, (1, 2, 3), "+-+")
    left, _ = expand(p)
    assert substitute_times(left, TimePermutation.identity(3)) == normalize(left)
    a = TimePermutation(3, (4, 2, 6))
    b = TimePermutation(3, (2, 6, 4))
    assert substitute_times(substitute_times(left, b), a) == substitute_times(
        left, a.compose(b)
    )


def test_wild_kernel_identity_on_wild_example():
    reference = validate_pair(7, (1, 1, 1, 2, 3, 7, 7), "++--++-")
    want = tuple(normalize(as_flow(e, 7)) for e in expand(reference))
    for rho in allowable_permutations(reference):
        moved = apply_wild(MoveState.start(reference), rho).pair
        got = tuple(
            substitute_times(as_flow(e, 7), rho.inverse()) for e in expand(moved)
        )
        assert got == want


def test_km_relabeling_identity_report():
    # tested and reported, not asserted: the adjacent-move analogue of the
    # wild relabeling identity, in flow basing
    held = failed = 0
    cases = []
    for p in enumerate_pairs(3, signed=True):
        cases.extend((p, j) for j in km_admissible_indices(p))
    rng = random.Random(18)
    for _ in range(60):
        p = random_pair(5, rng)
        js = km_admissible_indices(p)
        if js:
            cases.append((p, rng.choice(js)))
    for p, j in cases:
        state = apply_signed_km(MoveState.start(p), j)
        want = tuple(normalize(as_flow(e, p.k)) for e in expand(p))
        got = tuple(
            substitute_times(as_flow(e, p.k), state.sigma.inverse())
            for e in expand(state.pair)
        )
        if got == want:
            held += 1
        else:
            failed += 1
    print(f"km relabeling identity: held {held}, failed {failed} of {held + failed}")
    assert held + failed == len(cases)


def test_integrated_bounds_of_quintic_example():
    integrated = integrated_expand(QUINTIC)
    assert integrated.outer == (15, 0, 1)
    assert integrated.bounds == {
        2: (0, 1), 4: (0, 3), 6: (15, 1), 8: (0, 3), 10: (0, 3), 12: (0, 7),
    }
    text = integrated.render_text()
    assert text.startswith("Int[t15:0..t1] Int[t3:0..t1] Int[t7:t15..t1]")


def test_integrated_bounds_match_the_duhamel_tree_route():
    from oracles import dtree_integrated_bounds

    rng = random.Random(31)
    pairs = [p for k in range(1, 5) for p in enumerate_pairs(k, signed=True)]
    pairs += [random_pair(rng.randint(1, 60), rng) for _ in range(200)]
    for p in pairs:
        assert integrated_expand(p).bounds == dtree_integrated_bounds(p), p


def test_integrals_render_in_depth_then_label_order():
    rng = random.Random(30)
    pairs = [p for k in range(1, 5) for p in enumerate_pairs(k, signed=True)]
    pairs += [random_pair(rng.randint(1, 30), rng) for _ in range(100)]
    for p in pairs:
        ancestors = build_dtree(p).ancestors
        head = integrated_expand(p).render_text().split("\n", 1)[0].split(" ")
        labels = [int(piece[len("Int[t") : piece.index(":")]) - 1 for piece in head[1:]]
        assert labels == sorted(range(2, 2 * p.k, 2), key=lambda x: (len(ancestors(x)) + 1, x))


def test_integrated_bounds_smallest():
    integrated = integrated_expand(validate_pair(1, (1,), "-"))
    assert integrated.bounds == {} and integrated.outer == (3, 0, 1)


def test_integrated_bounds_graph_matches_compatible_domain():
    rng = random.Random(19)
    for _ in range(100):
        p = random_pair(rng.randint(1, 7), rng)
        integrated = integrated_expand(p)
        from_bounds = TimePoset.from_relations(p.k, relation_pairs(integrated))
        assert from_bounds == TimePoset.from_relations(
            p.k, list(tc_domain(p).reduction()) + [(1, 2 * p.k + 1)]
        )


def test_flow_basing_rebases_the_profile():
    # U_{1,3}(|phi|^4 phi) becomes U_{1,3}(|U_3 phi0|^4 U_3 phi0)
    left, right = expand(validate_pair(1, (1,), "+"))
    u3 = Evolve(3, None, Atom())
    assert normalize(as_flow(left, 1)) == normalize(
        Evolve(1, 3, Prod((u3, u3, u3, Conj(u3), Conj(u3))))
    )
    # the conjugate side conj(U_{1,3} phi) becomes conj(U_1 phi0)
    assert normalize(as_flow(right, 1)) == normalize(Conj(Evolve(1, None, Atom())))
