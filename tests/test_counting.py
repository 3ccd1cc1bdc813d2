import dataclasses
import itertools

import pytest

from kmboard.counting import CENSUS_CAP, catalan_ternary, census
from kmboard.domains import count_linear_extensions, td_domain
from kmboard.errors import CapExceeded, CensusViolation
from kmboard.pairs import double_factorial_odd, enumerate_mus, enumerate_pairs
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
    # the all-plus slice of the signed census: one tamed pair per class and
    # reference masses summing to (2k-1)!!
    r = census(6, signed=False)
    assert r.unsigned_classes == r.signed_classes == 1428
    assert r.total_pairs == double_factorial_odd(6) == 10395
    assert r.tamed_count == r.wild_classes == 1428
    assert r.mass_total == 10395
    assert sum(r.reference_masses.values()) == 10395


def test_unsigned_census_matches_literal_buckets():
    from collections import Counter

    from oracles import literal_unsigned_census

    for k in range(1, 7):
        buckets = literal_unsigned_census(k)
        r = census(k, signed=False)
        assert r.unsigned_classes == len(buckets)
        assert r.class_size_histogram == Counter(buckets.values())


def test_unsigned_census_checks_tamed_uniqueness(monkeypatch):
    from kmboard import counting

    # the census reads tamedness off the sign-set masks, so the defect goes there
    class EveryPairTamed(counting._MapProfile):
        def sign_sets(self, table):
            every = table[0] if self.static_ok else 0  # table[0] holds every sign array
            return every, every

    monkeypatch.setattr(counting, "_MapProfile", EveryPairTamed)
    with pytest.raises(CensusViolation, match=r"class of mu=\(.*\) sgn=\+{3} holds \d+ tamed"):
        census(3, signed=False)


def test_census_cap():
    with pytest.raises(CapExceeded):
        census(CENSUS_CAP + 1)


def test_census_threads_match_sequential():
    for signed in (True, False):
        threaded, sequential = census(5, signed, threads=2), census(5, signed)
        assert threaded.to_json() == sequential.to_json()
        assert threaded.reference_masses == sequential.reference_masses


@pytest.mark.parametrize("cpus, workers", [(64, [3]), (2, [2]), (None, [])])
def test_census_starts_at_most_one_worker_per_cpu_and_per_map(monkeypatch, cpus, workers):
    import multiprocessing
    import os

    sizes = []

    class InProcessPool:
        """Records the pool size it is asked for and runs the chunks here."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def starmap(self, fn, args):
            return list(itertools.starmap(fn, args))

    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    pooled = dataclasses.asdict(census(2, threads=10_000))
    sequential = dataclasses.asdict(census(2))
    del pooled["elapsed"], sequential["elapsed"]
    assert pooled == sequential
    assert sizes == workers  # k=2 has 3 maps


@pytest.fixture
def in_process_pool(monkeypatch):
    """A fake ``multiprocessing.Pool`` that runs the chunks here; it records
    each pool size it is asked for and the argument tuples it is handed."""
    import multiprocessing

    seen = {"sizes": [], "args": []}

    class InProcessPool:
        def __init__(self, processes):
            seen["sizes"].append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def starmap(self, fn, args):
            seen["args"] += args
            return list(itertools.starmap(fn, args))

    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    return seen


def test_the_walker_deals_every_nth_map_from_the_ith(monkeypatch, in_process_pool):
    import os

    from kmboard import counting

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    for k in range(1, 6):
        mus = list(enumerate_mus(k))
        for threads in range(1, 5):
            n = min(threads, len(mus))
            assert counting._fold_maps(k, threads, list) == [mus[i::n] for i in range(n)]
    assert in_process_pool["sizes"] == [2, 3, 3] + [2, 3, 4] * 3  # k=2 has 3 maps


@pytest.mark.parametrize("cpus, workers", [(64, 3), (2, 2), (None, None)])
def test_verify_starts_at_most_one_worker_per_cpu_and_per_map(
    monkeypatch, in_process_pool, cpus, workers
):
    # the census fold and domain-bijection each walk order 2 (3 maps) on
    # one pool; order 1 has one map and starts none
    import os

    from kmboard import verify

    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    names = list(verify.CHECKS)
    pooled = verify.run_checks(names, 2, 0, threads=10_000)
    assert in_process_pool["sizes"] == ([workers] * 2 if workers else [])
    assert pooled == verify.run_checks(names, 2, 0, threads=1)
    maps = set(enumerate_mus(1)) | set(enumerate_mus(2))
    for args in in_process_pool["args"]:  # each worker enumerates its own maps
        assert not any(isinstance(a, (list, tuple)) and maps & set(a) for a in args), args


@pytest.mark.parametrize("k", range(1, 6))
def test_unsigned_census_is_the_all_plus_slice_of_the_signed_census(k):
    # verify's catalan check reads the signed census alone
    signed, unsigned = census(k), census(k, signed=False)
    assert unsigned.total_pairs == signed.total_pairs >> k
    assert unsigned.unsigned_classes == signed.unsigned_classes
    assert (
        unsigned.signed_classes
        == unsigned.tamed_count
        == unsigned.wild_classes
        == catalan_ternary(k)
    )
    assert unsigned.class_size_histogram == {
        size: n >> k for size, n in signed.class_size_histogram.items()
    }
    assert unsigned.mass_total == unsigned.total_pairs
    assert unsigned.reference_masses.items() <= signed.reference_masses.items()


def _fields(report) -> dict:
    """Every report field but the elapsed time, dicts as ordered item lists."""
    fields = dataclasses.asdict(report)
    del fields["elapsed"]
    for name in ("class_size_histogram", "reference_masses"):
        fields[name] = list(fields[name].items())
    return fields


def test_census_matches_signed_class_table_oracle():
    # one table entry per shape must report what one entry per signed
    # class reports, field for field and in the same order
    from oracles import signed_class_table_census

    for k in range(1, 6):
        for signed in (True, False):
            assert _fields(census(k, signed)) == _fields(signed_class_table_census(k, signed))


def test_census_rejects_a_preorder_that_repeats_a_sign_index(monkeypatch):
    from kmboard import counting

    real = counting._sign_order

    def repeating(spans):
        order = real(spans)
        return order[:-1] + order[:1]

    monkeypatch.setattr(counting, "_sign_order", repeating)
    with pytest.raises(CensusViolation):
        census(3)


def test_verify_names_the_map_whose_preorder_repeats_a_sign_index(capsys, monkeypatch):
    # the fold gives such a map no class bits and fails its shape; the census
    # names the map, and verify prints that as the check's one FAIL line
    from kmboard import counting
    from kmboard.cli import main

    real = counting._sign_order

    def repeating(spans):
        order = real(spans)
        return order[:-1] + order[:1]

    monkeypatch.setattr(counting, "_sign_order", repeating)
    assert main(["verify", "--k", "3", "--check", "tamed-unique"]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
    line = "k=2: preorder of mu=(1, 1) reads sign indices [0, 0], not each of 0..1 once FAIL"
    assert fails == [line]


def test_census_names_the_first_member_of_a_class_that_lost_its_tamed_pair(monkeypatch):
    # drop one tamed pair whose map is not the first of its shape: the
    # census must name its class by the class's first member, as the
    # per-signed-class fold does
    import oracles
    from kmboard import counting
    from kmboard.trees import skeleton_key

    firsts = {}
    for mu in enumerate_mus(4):
        firsts.setdefault(skeleton_key(mu), mu)
    target = next(
        (p.mu, p.sgn)
        for p in enumerate_pairs(4, signed=True)
        if p.mu not in firsts.values() and is_tamed(p)
    )

    # the census reads the sign-set masks, the oracle asks its per-array
    # predicate: the same pair drops out of both
    target_bit = 1 << list(itertools.product("+-", repeat=4)).index(target[1])

    class OneUntamed(counting._MapProfile):
        def __init__(self, mu):
            super().__init__(mu)
            self.mu = mu

        def sign_sets(self, table):
            tamed, references = super().sign_sets(table)
            if self.mu == target[0]:
                return tamed & ~target_bit, references & ~target_bit
            return tamed, references

    per_array = oracles.tamed

    def tamed_but_target(profile, sgn):
        return (profile.mu, tuple(sgn)) != target and per_array(profile, sgn)

    monkeypatch.setattr(counting, "_MapProfile", OneUntamed)
    monkeypatch.setattr(oracles, "_MapProfile", OneUntamed)
    monkeypatch.setattr(oracles, "tamed", tamed_but_target)
    with pytest.raises(CensusViolation) as expected:
        oracles.signed_class_table_census(4)
    with pytest.raises(CensusViolation) as got:
        census(4)
    assert str(got.value) == str(expected.value)
    assert str(got.value).endswith("holds 0 tamed pairs")
    assert f"mu={target[0]} " not in str(got.value)


def test_class_mask_is_the_tamed_mask_read_in_preorder():
    # class bit c is the tamed member whose signs in preorder are sign_arrays[c]
    from operator import itemgetter

    from kmboard.counting import (
        _bits,
        _class_bits,
        _class_swaps,
        _MapProfile,
        _sign_table,
        _swap_selectors,
    )
    from kmboard.trees import _preorder

    for k in range(1, 6):
        selectors = _swap_selectors(k)
        for sign_arrays in (list(itertools.product("+-", repeat=k)), [("+",) * k]):
            table = _sign_table(sign_arrays)
            for mu in enumerate_mus(k):
                order = _preorder(mu)[1]
                read = itemgetter(*order)
                in_preorder = read if k > 1 else lambda sgn: (read(sgn),)  # a bare sign at k = 1
                tamed = _MapProfile(mu).sign_sets(table)[0]
                classes = _class_bits(tamed, _class_swaps(order, selectors))
                expected = {sign_arrays.index(in_preorder(sign_arrays[n])) for n in _bits(tamed)}
                assert set(_bits(classes)) == expected, (mu, sign_arrays[0])
    assert itemgetter(*_preorder((1,))[1])(("-",)) == "-"
    assert _class_bits(0b11, _class_swaps([0], _swap_selectors(1))) == 0b11


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_census_names_a_class_that_holds_two_tamed_pairs(monkeypatch, threads):
    # one extra tamed pair at a map that is not the first of its shape, whose
    # class's own tamed pair lies at a map of another of three chunks: with
    # three workers only the merge sees the class met twice.  Two workers
    # never split a shape: a KM move keeps the parity of mu's entry sum,
    # which fixes the parity of the map's place in enumeration order
    import os

    import oracles
    from kmboard import counting
    from kmboard.trees import skeleton_key

    mus = list(enumerate_mus(4))
    firsts = {}
    for mu in mus:
        firsts.setdefault(skeleton_key(mu), mu)
    tamed_at = {
        skeleton_key(p.mu, p.sgn): mus.index(p.mu)
        for p in enumerate_pairs(4, signed=True)
        if is_tamed(p)
    }
    target = next(
        (p.mu, p.sgn)
        for p in enumerate_pairs(4, signed=True)
        if p.mu not in firsts.values()
        and not is_tamed(p)
        and tamed_at[skeleton_key(p.mu, p.sgn)] % 3 != mus.index(p.mu) % 3
    )
    target_bit = 1 << list(itertools.product("+-", repeat=4)).index(target[1])

    class OneMoreTamed(counting._MapProfile):
        def __init__(self, mu):
            super().__init__(mu)
            self.mu = mu

        def sign_sets(self, table):
            tamed, references = super().sign_sets(table)
            if self.mu == target[0]:
                return tamed | target_bit, references
            return tamed, references

    per_array = oracles.tamed

    def tamed_and_target(profile, sgn):
        return (profile.mu, tuple(sgn)) == target or per_array(profile, sgn)

    monkeypatch.setattr(counting, "_MapProfile", OneMoreTamed)
    monkeypatch.setattr(oracles, "_MapProfile", OneMoreTamed)
    monkeypatch.setattr(oracles, "tamed", tamed_and_target)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    with pytest.raises(CensusViolation) as expected:
        oracles.signed_class_table_census(4)
    with pytest.raises(CensusViolation) as got:
        census(4, threads=threads)
    assert str(got.value) == str(expected.value)
    assert str(got.value).endswith("holds 2 tamed pairs")


def test_census_checks_class_sizes_against_td(monkeypatch):
    # td without its left-branch chains: every other clause still holds,
    # so only the size check can fail
    import oracles
    from kmboard import counting

    real = counting._attached_parents

    def chainless(mu, keys):
        return real(mu, range(len(mu)) if keys is mu else keys)

    monkeypatch.setattr(counting, "_attached_parents", chainless)
    monkeypatch.setattr(oracles, "_attached_parents", chainless)
    oracles.signed_class_table_census(3)
    size_message = r"class of mu=\(.*\) sgn=[+-]{3} holds \d+ pairs != td hook count \d+"
    with pytest.raises(CensusViolation, match=size_message):
        census(3)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_a_census_witness_does_not_depend_on_the_threads(capsys, monkeypatch, threads):
    # the first failing shape by its first map, whatever chunks hold its maps:
    # every pair planted as tamed fails the class clause, and td broken at
    # (1, 1, 2) and (1, 1, 4), a chunk apart at three workers, the size clause
    import os

    from kmboard import canonical, counting
    from kmboard.cli import main

    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    sign_sets, parents = canonical._MapProfile.sign_sets, counting._attached_parents

    def all_tamed(self, table):
        return table[0], sign_sets(self, table)[1]

    def broken_td(mu, keys):
        broken = keys is mu and mu in ((1, 1, 2), (1, 1, 4))
        return parents(mu, range(len(mu)) if broken else keys)

    planted = [
        (canonical._MapProfile, "sign_sets", all_tamed, "holds 2 tamed pairs"),
        (counting, "_attached_parents", broken_td, "holds 2 pairs != td hook count 3"),
    ]
    for owner, name, defect, text in planted:
        with monkeypatch.context() as m:
            m.setattr(owner, name, defect)
            with pytest.raises(CensusViolation) as got:
                census(3, threads=threads)
            assert str(got.value) == f"class of mu=(1, 1, 2) sgn=+++ {text}"
            for n in ("1", "2"):
                assert main(["verify", "--k", "3", "--check", "tamed-unique", "--threads", n]) == 1
                fails = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
                assert fails == [f"k=3: {got.value} FAIL"]


def test_census_tamedness_agrees_with_literal_predicate():
    # the census reads tamedness and reference form off the sign-set masks of
    # one profile per map; they must agree with the pairwise definitions
    from kmboard.counting import _MapProfile, _sign_table
    from kmboard.pairs import validate_pair
    from oracles import literal_is_reference, literal_is_tamed

    for k in range(1, 5):
        signed = list(itertools.product("+-", repeat=k))
        table = _sign_table(signed)
        for mu in enumerate_mus(k):
            tamed_mask, references = _MapProfile(mu).sign_sets(table)
            for n, sgn in enumerate(signed):
                pair = validate_pair(k, mu, sgn)
                is_t = literal_is_tamed(pair)
                assert tamed_mask >> n & 1 == is_t, pair
                assert references >> n & 1 == (is_t and literal_is_reference(pair)), pair


def test_census_extension_counter_agrees_with_domain_module():
    # the census counts reference masses from the reference-formula parent
    # map; the Duhamel-tree domain is the independent route to each count
    from kmboard.domains import tc_domain
    from kmboard.canonical import is_reference

    for k in range(1, 5):
        masses = census(k).reference_masses
        references = [p for p in enumerate_pairs(k, signed=True) if is_reference(p)]
        for p in references:
            assert masses[p.mu, p.sgn] == count_linear_extensions(tc_domain(p))
        # keyed by each reference's own arrays, in enumeration order
        assert list(masses) == [(p.mu, p.sgn) for p in references]


def test_signed_class_size_equals_relabeling_count():
    # the class of a tamed pair is as large as its relabeling set
    from oracles import sigma_set
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


def test_memoised_t_r_matches_a_fresh_build_at_every_reference():
    # the census walk builds T_R once per map and branch split; each
    # reference must get what the attachment rule builds from its own signs,
    # and the splits must group the references by their signs on every
    # left branch of two or more members
    from kmboard import counting
    from kmboard.canonical import _bits
    from kmboard.domains import _attached_parents, _hook_count

    class Recorder:
        def __init__(self, sign_arrays):
            self.sign_arrays, self.seen = sign_arrays, []

        def map_references(self, mu, profile, table, splits):
            grouping = {}
            for split, whole, mass in splits:
                for n in _bits(split):
                    sgn = self.sign_arrays[n]
                    self.seen.append((mu, sgn, whole, mass))
                    key = tuple(sgn[i] for i in itertools.chain(*profile.multi))
                    grouping[key] = grouping.get(key, 0) | 1 << n
            want = sorted(grouping.values(), key=lambda s: s & -s)
            assert [split for split, _, _ in splits] == want, mu

    for k in range(1, 6):
        sign_arrays = list(itertools.product("+-", repeat=k))
        recorder = Recorder(sign_arrays)
        counting._census_chunk(enumerate_mus(k), sign_arrays, recorder, census=False)
        assert len(recorder.seen) == len(census(k).reference_masses)
        for mu, sgn, whole, mass in recorder.seen:
            fresh = _attached_parents(mu, zip(mu, sgn))
            assert list(whole.items()) == list(fresh.items()), (mu, sgn)
            assert mass == _hook_count(fresh)


def _first_walk_mismatch(stream, want):
    """The first map of ``stream`` whose carried walk differs from ``want[mu]``."""
    from oracles import walked

    return next((got for got in walked(stream) if got != want[got[0]]), None)


@pytest.mark.parametrize("k", range(1, 7))
def test_the_carried_walk_equals_the_whole_map_oracles_on_any_stream(k):
    # the stack pops to each map's common prefix with the last one, so any
    # order of maps must give every map's own shape, preorder and profile
    import random

    from oracles import whole_map

    mus = list(enumerate_mus(k))
    want = {mu: whole_map(mu) for mu in mus}
    shuffled = random.Random(k).sample(mus, len(mus))
    streams = [mus, mus[::-1], *(mus[i::3] for i in range(3)), shuffled]
    for stream in streams:
        assert _first_walk_mismatch(stream, want) is None


def test_a_walk_without_shapes_carries_the_same_profiles(monkeypatch):
    # verify's wild checks fold with census=False and read no shape, so none is grown
    from kmboard import counting
    from kmboard.canonical import _MapProfile

    def profiles(walk):
        return [(mu, [getattr(p, f) for f in _MapProfile.__slots__]) for mu, p, *_ in walk]

    for k in range(1, 7):
        shaped = list(counting._walk(enumerate_mus(k)))
        unshaped = list(counting._walk(enumerate_mus(k), shapes=False))
        assert profiles(unshaped) == profiles(shaped)
        assert {(shape, spans) for *_, shape, spans in unshaped} == {("", ())}
    sign_arrays = list(itertools.product("+-", repeat=4))
    tamed = counting._census_chunk(enumerate_mus(4), sign_arrays)[2]

    def no_shape(*args):
        raise AssertionError("a fold without the census grew a shape")

    monkeypatch.setattr(counting, "_grown", no_shape)
    assert counting._census_chunk(enumerate_mus(4), sign_arrays, census=False)[2] == tamed


def test_planted_walk_defects_differ_from_the_whole_map_oracles(monkeypatch):
    # a new node's "(" one place late, so a leaf in its left slot lands inside
    # the wrong node; and a step that compares the new label with none of its tier
    from oracles import whole_map

    from kmboard import canonical, counting

    grown, step = counting._grown, canonical._MapProfile._step

    def late_open(shape, spans, mu, v):
        shape, spans = grown(shape, spans, mu, v)
        return shape, spans[:-3] + (spans[-3] + 1, *spans[-2:])

    def skipping_its_tier(self, jb):
        first = self.tier_from
        self.tier_from = jb
        step(self, jb)
        if jb and self.keys[jb][0] == self.keys[jb - 1][0]:  # still the same tier
            self.tier_from = first

    mus = list(enumerate_mus(4))
    want = {mu: whole_map(mu) for mu in mus}
    planted = [(counting, "_grown", late_open), (canonical._MapProfile, "_step", skipping_its_tier)]
    for owner, name, defect in planted:
        with monkeypatch.context() as m:
            m.setattr(owner, name, defect)
            assert _first_walk_mismatch(mus, want) is not None, name


def test_wild_class_counts_follow_the_closed_form():
    from oracles import wild_class_series

    from kmboard.counting import wild_class_count

    pinned = [2, 11, 80, 665, 5980, 56637, 556512, 5620485, 57985070, 608462470]
    assert [wild_class_count(k) for k in range(1, 11)] == pinned
    # the binomial against the series it is read from by Lagrange inversion
    assert all(wild_class_count(k) == wild_class_series(k) for k in range(1, 16))
    for k in range(1, 6):
        assert census(k).wild_classes == pinned[k - 1]
    with pytest.raises(ValueError):
        wild_class_count(0)


def test_census_checks_its_reference_count_against_the_closed_form(monkeypatch):
    from kmboard import counting

    real = counting.wild_class_count
    monkeypatch.setattr(counting, "wild_class_count", lambda k: real(k) + (k == 3))
    census(2)
    census(3, signed=False)  # one reference per unsigned class: catalan(3)
    with pytest.raises(CensusViolation) as got:
        census(3)
    assert str(got.value) == "80 reference pairs != 81, the closed-form wild class count"
