import decimal
import hashlib
import itertools
import json
import math
import random
import sys

import pytest

from kmboard.cli import main
from kmboard.domains import count_linear_extensions, tc_domain, td_domain
from kmboard.pairs import CollapsingPair, random_pair
from kmboard.trees import tree_from_pair


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_enumerate_k1_signed(capsys):
    code, out = run(capsys, "enumerate", "--k", "1", "--signed")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0]) == {"k": 1, "mu": [1], "sgn": ["+"]}
    assert json.loads(lines[1]) == {"k": 1, "mu": [1], "sgn": ["-"]}


def test_enumerate_round_trips_through_schema(capsys):
    code, out = run(capsys, "enumerate", "--k", "3", "--signed")
    assert code == 0
    pairs = [CollapsingPair.from_json(json.loads(line)) for line in out.splitlines()]
    assert len(pairs) == 120


def test_outputs_are_byte_identical(capsys):
    args = ("classify", "--k", "3", "--moves", "signed-km")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_domain_td_text(capsys):
    code, out = run(capsys, "domain", "--mu", "1,1,1,2,3", "--kind", "td")
    assert code == 0
    assert out == "t_1>=t_3\nt_3>=t_5\nt_3>=t_9\nt_3>=t_11\nt_5>=t_7\n"


def test_domain_tc_json(capsys):
    code, out = run(
        capsys, "domain", "--mu", "1,1,1,2,3,6,6", "--sgn", "+,+,-,-,+,+,-",
        "--kind", "tc", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["relations"] == [
        [1, 3], [1, 7], [3, 5], [3, 9], [3, 11], [7, 13], [7, 15],
    ]
    assert payload["extensions"] > 0


def test_domain_json_counts_extensions_exactly_at_k40(capsys):
    pair = random_pair(40, random.Random(40), signed=False)
    tree = tree_from_pair(pair)
    size = dict.fromkeys([1, *tree.labels], 1)
    for x in tree.labels:
        while x != 1:
            x = tree.parent_of(x)
            size[x] += 1
    expected = math.factorial(41) // math.prod(size.values())
    code, out = run(
        capsys, "domain", "--mu", ",".join(map(str, pair.mu)), "--kind", "td", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["extensions"] == expected


@pytest.mark.parametrize("kind", ["td", "tc"])
def test_domain_json_prints_a_count_past_the_digit_limit(capsys, kind):
    pair = random_pair(2000, random.Random(2000))
    limit = sys.get_int_max_str_digits()
    code, out = run(
        capsys, "domain", "--mu", ",".join(map(str, pair.mu)), "--sgn", ",".join(pair.sgn),
        "--kind", kind, "--format", "json",
    )
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    expected = count_linear_extensions((td_domain if kind == "td" else tc_domain)(pair))
    assert expected > 10**limit
    # Decimal reads and compares the digits exactly, whatever the limit
    assert json.loads(out, parse_int=decimal.Decimal)["extensions"] == decimal.Decimal(expected)


def test_tree_dot_and_json(capsys):
    code, out = run(capsys, "tree", "--mu", "1,1,1,2,3")
    assert code == 0 and out.startswith("digraph tree {")
    code, out = run(capsys, "tree", "--mu", "1,1,1,2,3", "--format", "json")
    assert json.loads(out)["label"] == 2


def test_dtree_marked_dot(capsys):
    code, out = run(
        capsys, "dtree", "--mu", "1,1,1,2,3,6,6", "--sgn", "+,+,-,-,+,+,-",
        "--marked", "--format", "dot",
    )
    assert code == 0
    assert 'd6 [label="D(6)[R,phi]"];' in out
    assert 'd14 [label="D(14)[R]"];' in out


def test_canon_tamed_moves(capsys):
    code, out = run(
        capsys, "canon",
        "--mu", "1,1,1,6,1,6,7,1,2,16,9,18,3",
        "--sgn", "-,-,+,-,+,+,+,-,-,+,-,+,+",
        "--form", "tamed",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["canonical"]["mu"] == [1, 1, 1, 1, 1, 6, 6, 7, 2, 3, 10, 13, 18]
    assert payload["moves"] == [
        [8, 10], [14, 16], [12, 14], [10, 12], [24, 26], [22, 24], [20, 22],
    ]


def test_canon_reference_outputs_witness(capsys):
    code, out = run(
        capsys, "canon", "--mu", "1,1,1,3,4", "--sgn", "+,-,+,-,+", "--form", "reference",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["canonical"]["mu"] == [1, 1, 1, 3, 6]
    assert payload["canonical"]["sgn"] == ["+", "+", "-", "-", "+"]
    assert "image" in payload["permutation"]


def test_classify_km_sizes(capsys):
    code, out = run(capsys, "classify", "--k", "3", "--moves", "km")
    records = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    assert len(records) == 12
    assert sum(r["size"] for r in records) == 15


def test_classify_wild_counts_tamed(capsys):
    code, out = run(capsys, "classify", "--k", "2", "--moves", "wild", "--members")
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 11
    assert sum(r["size"] for r in records) == 12


def test_expand_text_golden(capsys):
    code, out = run(
        capsys, "expand", "--mu", "1,1,1,2,3,6,6", "--sgn", "+,+,-,-,+,+,-",
    )
    assert code == 0
    assert out.splitlines()[0].startswith("U_{1,3}[(U_{3,5}(|U_{5,15}phi|^4U_{5,15}phi))")


def test_expand_integrated_json(capsys):
    code, out = run(
        capsys, "expand", "--mu", "1,1,1,2,3,6,6", "--sgn", "+,+,-,-,+,+,-",
        "--integrated", "--format", "json",
    )
    payload = json.loads(out)
    assert payload["outer"] == [15, 0, 1]
    assert payload["bounds"]["6"] == [15, 1]


def test_expand_builds_no_duhamel_tree(capsys, monkeypatch):
    # the bounds read the slot pass's parents and the text renders the oracle's form,
    # so neither the text nor the integrated form builds a tree
    from kmboard import duhamel

    built = []
    build_dtree = duhamel.build_dtree

    def counted(pair):
        built.append(pair)
        return build_dtree(pair)

    monkeypatch.setattr(duhamel, "build_dtree", counted)
    pair = ("--mu", "1,1,1,2,3,6,6", "--sgn", "+,+,-,-,+,+,-")
    assert run(capsys, "expand", *pair)[0] == 0
    assert run(capsys, "expand", *pair, "--integrated")[0] == 0
    assert built == []


def test_schedule_json(capsys):
    code, out = run(capsys, "schedule", "--mu", "1,1,1,2,3,6,6", "--sgn", "+,+,-,-,+,+,-")
    payload = json.loads(out)
    assert payload["small_factor_power"] == 6
    assert payload["h_norm_power"] == 24


def test_verify_catalan(capsys):
    code, out = run(capsys, "verify", "--k", "3", "--check", "catalan")
    assert code == 0
    assert "unsigned classes: 12 == catalan(3): 12 OK" in out


def test_verify_all_small(capsys):
    code, out = run(capsys, "verify", "--k", "2", "--check", "all")
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1]) == {
        "catalan": "ok",
        "tamed-unique": "ok",
        "reference-unique": "ok",
        "domain-bijection": "ok",
        "compat": "ok",
        "mass": "ok",
        "duhamel": "ok",
    }


@pytest.mark.parametrize("check", ["catalan", "tamed-unique"])
def test_census_violation_fails_the_check_with_exit_1(capsys, monkeypatch, check):
    from kmboard import counting
    from kmboard.errors import CensusViolation

    def violated(k, **kwargs):
        raise CensusViolation(f"class count off at k={k}")

    monkeypatch.setattr(counting, "census", violated)
    code, out = run(capsys, "verify", "--k", "3", "--check", check)
    assert code == 1
    assert "k=1: class count off at k=1 FAIL" in out.splitlines()
    assert json.loads(out.strip().splitlines()[-1]) == {check: "fail"}


def test_census_cap_in_verify_exits_2(capsys, monkeypatch):
    from kmboard import counting
    from kmboard.errors import CapExceeded

    def capped(k, **kwargs):
        raise CapExceeded(f"census k={k} exceeds cap 0")

    monkeypatch.setattr(counting, "census", capped)
    assert input_error(capsys, "verify", "--k", "2", "--check", "catalan") == (
        "error: census k=1 exceeds cap 0"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--k", "8", "--check", "tamed-unique"), "census k=8 exceeds cap 7"),
        (("--k", "11", "--check", "reference-unique"), "k=11 exceeds enumeration cap 10"),
    ],
    ids=["census-cap", "enumeration-cap"],
)
def test_verify_refuses_an_order_past_a_checks_cap_before_any_work(
    capsys, monkeypatch, argv, message
):
    from kmboard import counting

    def no_work(*args, **kwargs):
        raise AssertionError("verify walked maps for an order past its cap")

    monkeypatch.setattr(counting, "census", no_work)
    monkeypatch.setattr(counting, "_census_chunk", no_work)
    assert input_error(capsys, "verify", *argv) == f"error: {message}"


def test_verify_folds_each_census_once_per_call(capsys, monkeypatch):
    from kmboard import counting

    calls = []
    original = counting.census

    def counted(k, **kwargs):
        calls.append(k)
        return original(k, **kwargs)

    monkeypatch.setattr(counting, "census", counted)
    assert run(capsys, "verify", "--k", "3")[0] == 0
    assert calls == [1, 2, 3]
    assert run(capsys, "verify", "--k", "3")[0] == 0
    assert calls == [1, 2, 3] * 2


def test_reference_unique_fails_when_a_class_holds_two_references(capsys, monkeypatch):
    from kmboard import canonical

    # every tamed pair counts as a reference: the census walk reads the references off
    # the sign-set masks, and the orbit walk counts its block-ordered members by them
    sign_sets = canonical._MapProfile.sign_sets
    monkeypatch.setattr(
        canonical._MapProfile, "sign_sets", lambda self, table: (sign_sets(self, table)[0],) * 2
    )
    code, out = run(capsys, "verify", "--k", "3", "--check", "reference-unique")
    assert code == 1
    assert out.splitlines()[-2].endswith("reference pairs FAIL")
    assert "holds 2 reference pairs" in out
    assert json.loads(out.strip().splitlines()[-1]) == {"reference-unique": "fail"}


def _drop_the_equal_sign_clause(monkeypatch):
    """Plant the defect in the profile step, which every profile and walk runs."""
    from kmboard import canonical

    step = canonical._MapProfile._step

    def without_equal_clause(self, jb):
        step(self, jb)
        self.equal_checks = []

    monkeypatch.setattr(canonical._MapProfile, "_step", without_equal_clause)
    monkeypatch.setattr(canonical, "_profile", canonical._MapProfile)  # no memoised profile


def test_tamed_unique_and_mass_fail_when_the_kernel_drops_its_equal_sign_clause(
    capsys, monkeypatch
):
    # clause 3 unchecked: two members of the class of mu=1,2,3 sgn=+++ pass as tamed
    _drop_the_equal_sign_clause(monkeypatch)
    code, out = run(capsys, "verify", "--k", "4", "--check", "tamed-unique")
    assert code == 1
    assert _single_fail_line(out) == "k=3: class of mu=(1, 2, 3) sgn=+++ holds 2 tamed pairs FAIL"
    code, out = run(capsys, "verify", "--k", "4", "--check", "mass")
    assert code == 1
    assert _single_fail_line(out) == "k=3: mass 136 != 120 FAIL"


def test_reference_unique_fails_when_the_kernel_drops_its_equal_sign_clause(
    capsys, monkeypatch
):
    # the orbits still pass, but 88 references at k=3 are not the closed form's 80
    _drop_the_equal_sign_clause(monkeypatch)
    code, out = run(capsys, "verify", "--k", "3", "--check", "reference-unique")
    assert code == 1
    line = "k=3: 104 tamed pairs in 88 wild classes, not the closed form's 80 FAIL"
    assert _single_fail_line(out) == line
    assert json.loads(out.strip().splitlines()[-1]) == {"reference-unique": "fail"}
    # compat reads the same count clause, though each T_R still equals its T_C
    code, out = run(capsys, "verify", "--k", "4", "--check", "compat")
    assert code == 1
    assert _single_fail_line(out) == line
    assert json.loads(out.strip().splitlines()[-1]) == {"compat": "fail"}


def test_reference_unique_checks_its_tamed_count_against_the_closed_form(capsys, monkeypatch):
    from kmboard import counting

    real = counting.catalan_ternary
    monkeypatch.setattr(counting, "catalan_ternary", lambda k: real(k) + (k == 3))
    code, out = run(capsys, "verify", "--k", "4", "--check", "reference-unique")
    assert code == 1
    assert _single_fail_line(out) == "k=3: 96 tamed pairs != catalan(3)*2^3 = 104 FAIL"
    assert json.loads(out.strip().splitlines()[-1]) == {"reference-unique": "fail"}


def test_usage_error_exits_2(capsys):
    assert main(["domain", "--mu", "1,1"]) == 2  # missing --kind
    capsys.readouterr()
    assert main(["nonsense"]) == 2
    capsys.readouterr()


def test_bad_pair_exits_2(capsys):
    assert main(["tree", "--mu", "1,4"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "pairs.jsonl"
    code = main(["enumerate", "--k", "2", "--out", str(target)])
    assert code == 0
    assert len(target.read_text().splitlines()) == 3


def input_error(capsys, *argv):
    """Run a command that must fail on its input; return its one stderr line."""
    code = main(list(argv))
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert code == 2 and captured.out == ""
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
    return lines[0]


@pytest.mark.parametrize("mu_flag", [("--mu", "1,a"), ("--mu=",)])
def test_malformed_mu_exits_2(capsys, mu_flag):
    assert "mu" in input_error(capsys, "tree", *mu_flag)


def test_unwritable_out_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "pairs.jsonl"
    assert str(target) in input_error(capsys, "enumerate", "--k", "2", "--out", str(target))


def test_enumerate_negative_k_exits_2(capsys):
    input_error(capsys, "enumerate", "--k", "-1", "--signed")


@pytest.mark.parametrize("argv", [("--k", "0"), ("--k", "-2", "--check", "catalan")])
def test_verify_k_below_one_exits_2(capsys, argv):
    assert "--k" in input_error(capsys, "verify", *argv)


def test_verify_threads_below_one_exits_2(capsys):
    assert "--threads" in input_error(capsys, "verify", "--k", "2", "--threads", "0")


def middle_chain(k):
    """--mu and --sgn of the chain 2 -> 4 -> ... -> 2k through middle slots."""
    return "--mu", ",".join(map(str, (1, *range(2, 2 * k - 1, 2)))), "--sgn", ",".join("+" * k)


def test_too_deep_input_exits_2_without_a_traceback(capsys):
    line = input_error(capsys, "dtree", *middle_chain(600), "--format", "json")
    assert line == "error: input nests too deeply for this command"


@pytest.mark.parametrize("marked", [(), ("--marked",)])
def test_dtree_dot_draws_a_deep_chain(capsys, marked):
    code, out = run(capsys, "dtree", *middle_chain(1200), *marked, "--format", "dot")
    assert code == 0
    assert out.count(" -> ") == 5 * 1200 + 2  # one edge per slot
    assert "  d2398 -> d2400;\n" in out


@pytest.mark.parametrize("form", ["tamed", "echelon"])
def test_canon_labels_a_deep_chain(capsys, form):
    code, out = run(capsys, "canon", *middle_chain(1200), "--form", form)
    assert code == 0
    payload = json.loads(out)
    assert payload["canonical"] == payload["input"] and payload["moves"] == []


@pytest.mark.parametrize(
    "argv",
    [("enumerate",), ("enumerate", "--signed"), ("classify", "--moves", "km")],
    ids=["enumerate", "enumerate-signed", "classify-km"],
)
def test_an_order_past_any_index_size_exits_2_at_the_enumeration_cap(capsys, argv):
    # nothing k-long may be built before the cap check: k = 2**63 overflows an index
    line = input_error(capsys, *argv, "--k", str(2**63))
    assert line == f"error: k={2**63} exceeds enumeration cap 10"


def test_enumerate_negative_limit_exits_2(capsys):
    assert "--limit" in input_error(capsys, "enumerate", "--k", "2", "--limit", "-1")


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--k", "2", "--cap", "0"),
        ("enumerate", "--k", "2", "--cap", "-1"),
        ("enumerate", "--k", "11", "--cap", "11"),
        ("classify", "--k", "2", "--moves", "km", "--cap", "0"),
        ("classify", "--k", "11", "--moves", "km", "--cap", "20"),
        ("classify", "--k", "11", "--moves", "wild", "--cap", "11"),
    ],
)
def test_cap_outside_enumeration_bound_exits_2(capsys, argv):
    assert "--cap" in input_error(capsys, *argv)


def test_cap_at_its_bounds_is_accepted(capsys):
    assert run(capsys, "enumerate", "--k", "1", "--cap", "1")[0] == 0
    assert run(capsys, "classify", "--k", "1", "--moves", "km", "--cap", "10")[0] == 0


VERIFY_K4_ALL = """\
unsigned classes: 1 == catalan(1): 1 OK
unsigned classes: 3 == catalan(2): 3 OK
unsigned classes: 12 == catalan(3): 12 OK
unsigned classes: 55 == catalan(4): 55 OK
k=1: 2 signed classes, 2 tamed pairs, one per class OK
k=2: 12 signed classes, 12 tamed pairs, one per class OK
k=3: 96 signed classes, 96 tamed pairs, one per class OK
k=4: 880 signed classes, 880 tamed pairs, one per class OK
k=1: 2 tamed pairs in 2 wild classes, each with a verified reference witness OK
k=2: 12 tamed pairs in 11 wild classes, each with a verified reference witness OK
k=3: 96 tamed pairs in 80 wild classes, each with a verified reference witness OK
k=4: 880 tamed pairs in 665 wild classes, each with a verified reference witness OK
k=1: relabelings <-> linear extensions, exhaustively OK
k=2: relabelings <-> linear extensions, exhaustively OK
k=3: relabelings <-> linear extensions, exhaustively OK
k=4: relabelings <-> linear extensions, exhaustively OK
random k=7 (200 maps): relabeling count == extension count OK
k=1: T_R == T_C for all 2 reference pairs OK
k=2: T_R == T_C for all 11 reference pairs OK
k=3: T_R == T_C for all 80 reference pairs OK
k=4: T_R == T_C for all 665 reference pairs OK
k=1: disjoint partition, mass 2 == (2k-1)!!2^k OK
k=2: disjoint partition, mass 12 == (2k-1)!!2^k OK
k=3: disjoint partition, mass 120 == (2k-1)!!2^k OK
k=4: disjoint partition, mass 1680 == (2k-1)!!2^k OK
k=1: tree expansion == operator oracle, exhaustively OK
k=2: tree expansion == operator oracle, exhaustively OK
k=3: tree expansion == operator oracle, exhaustively OK
random k=5 (50 pairs): tree expansion == operator oracle OK
{"catalan": "ok","compat": "ok","domain-bijection": "ok","duhamel": "ok","mass": "ok","reference-unique": "ok","tamed-unique": "ok"}
"""


def test_verify_k4_all_stdout_is_pinned(capsys):
    assert run(capsys, "verify", "--k", "4", "--check", "all") == (0, VERIFY_K4_ALL)


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("--moves", "km"), "dee7169f860e36ba0fd4b0d624af6f9ce3356f744ce6e526826ebdd7a9840684"),
        (("--moves", "signed-km"), "04cfe8a6dfb8fca654634960c89dbe6c0df0d53594a59f1f1b49f0cdc31f2c84"),
        (
            ("--moves", "wild", "--members"),
            "959759b6b8436f1131167e371d7d89beca792f56cf07ba92c57487fea470b1a7",
        ),
    ],
    ids=["km", "signed-km", "wild-members"],
)
def test_classify_k4_stdout_is_pinned(capsys, argv, digest):
    code, out = run(capsys, "classify", "--k", "4", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_wild_sweep_does_not_outlive_a_verify_call(capsys, monkeypatch):
    from kmboard import canonical

    calls = []
    original = canonical._reference_arrays

    def counted(mu, sgn, groups):
        calls.append((mu, sgn))
        return original(mu, sgn, groups)

    monkeypatch.setattr(canonical, "_reference_arrays", counted)
    made = []
    for _ in range(2):
        calls.clear()
        assert run(capsys, "verify", "--k", "3")[0] == 0
        made.append(len(calls))
    # one round trip per (map, split of its references, image) at k = 1, 2, 3
    assert made == [1 + 6 + 37] * 2


@pytest.mark.parametrize(
    "check, marker",
    [
        ("reference-unique", "wild classes"),
        ("compat", "T_R == T_C"),
        ("mass", "disjoint partition"),
    ],
)
def test_sweep_consumer_alone_prints_its_lines_from_all(capsys, check, marker):
    expected = [line for line in VERIFY_K4_ALL.splitlines() if marker in line]
    code, out = run(capsys, "verify", "--k", "4", "--check", check)
    assert code == 0
    assert out.splitlines() == expected + [json.dumps({check: "ok"}, separators=(",", ": "))]


def _single_fail_line(out):
    fails = [line for line in out.splitlines() if "FAIL" in line]
    assert len(fails) == 1, out
    return fails[0]


def _drop_last_order(original):
    def dropped(up):
        orders = [tuple(pos) for pos in original(up)]
        return orders[:-1] if len(orders) > 1 else orders

    return dropped


def _reverse_positions(original):
    def flipped(up):
        n = len(up)
        return ([0] + [n - i for i in pos[1:]] for pos in original(up))

    return flipped


def _repeat_first_order(original):
    def repeated(up):
        orders = [tuple(pos) for pos in original(up)]
        return orders[:-1] + orders[:1] if len(orders) > 1 else orders

    return repeated


@pytest.mark.parametrize(
    "defect, line",
    [
        # the walker also feeds the oracles' sigma_set and linear_extensions, so
        # the check reads td from the attachment rule instead
        (_drop_last_order, "k=3: order sets differ for mu=1,1,2 sgn=+,+,+ FAIL"),
        (_reverse_positions, "k=2: order sets differ for mu=1,1 sgn=+,+ FAIL"),
        (_repeat_first_order, "k=3: duplicate induced order for mu=1,1,2 sgn=+,+,+ FAIL"),
    ],
    ids=["generator-drops-an-order", "orders-break-covers", "repeated-relabeling"],
)
def test_domain_bijection_names_the_clause_that_fails(capsys, monkeypatch, defect, line):
    from kmboard import domains

    monkeypatch.setattr(domains, "_extension_walk", defect(domains._extension_walk))
    code, out = run(capsys, "verify", "--k", "3", "--check", "domain-bijection")
    assert code == 1
    assert _single_fail_line(out) == line
    assert json.loads(out.strip().splitlines()[-1]) == {"domain-bijection": "fail"}


def test_compat_fails_when_t_c_hangs_a_node_elsewhere(capsys, monkeypatch):
    from kmboard import domains

    original = domains._tc_parents

    def misplaced(mu, sgn):
        parent = original(mu, sgn)
        return parent[:-1] + (1,) if len(mu) > 1 else parent  # the last label under t_1

    monkeypatch.setattr(domains, "_tc_parents", misplaced)
    code, out = run(capsys, "verify", "--k", "3", "--check", "compat")
    assert code == 1
    assert _single_fail_line(out) == "k=2: T_R != T_C for mu=1,1 sgn=+,+ FAIL"
    assert json.loads(out.strip().splitlines()[-1]) == {"compat": "fail"}


def test_mass_fails_when_a_wild_class_is_not_its_orbit(capsys, monkeypatch):
    from kmboard import moves

    original = moves._interleavings
    monkeypatch.setattr(moves, "_interleavings", lambda groups, sgn: original(groups, sgn)[:-1])
    code, out = run(capsys, "verify", "--k", "3", "--check", "mass")
    assert code == 1
    assert _single_fail_line(out) == "k=1: wild class of mu=1 sgn=+ != its orbit FAIL"
    assert json.loads(out.strip().splitlines()[-1]) == {"mass": "fail"}


def test_mass_alone_fails_when_a_witness_does_not_round_trip(capsys, monkeypatch):
    from kmboard import moves

    monkeypatch.setattr(moves, "_act_arrays", lambda mu, sgn, image, conjugate: (mu, sgn))
    code, out = run(capsys, "verify", "--k", "3", "--check", "mass")
    assert code == 1
    # the member of mu=1,1 sgn=+,- at rho=4,2 comes out as that pair itself,
    # which reduces back at the identity
    assert _single_fail_line(out) == "k=2: witness failed for mu=1,1 sgn=+,- FAIL"
    assert json.loads(out.strip().splitlines()[-1]) == {"mass": "fail"}


def test_a_failed_sweep_is_walked_once_and_fails_every_reader(monkeypatch):
    from kmboard import canonical, moves, verify

    calls = []
    original = canonical._reference_arrays

    def counted(mu, sgn, groups):
        calls.append((mu, sgn))
        return original(mu, sgn, groups)

    monkeypatch.setattr(canonical, "_reference_arrays", counted)
    monkeypatch.setattr(moves, "_act_arrays", lambda mu, sgn, image, conjugate: (mu, sgn))
    names = ["reference-unique", "compat", "mass"]
    lines, results = verify.run_checks(names, 3, 0, 1)
    # one split at k=1, then k=2 fails at its third image: once, not once per reader
    assert len(calls) == 1 + 3
    fail = "k=2: witness failed for mu=1,1 sgn=+,- FAIL"
    assert lines == [
        "k=1: 2 tamed pairs in 2 wild classes, each with a verified reference witness OK",
        fail,
        "k=1: T_R == T_C for all 2 reference pairs OK",
        fail,
        "k=1: disjoint partition, mass 2 == (2k-1)!!2^k OK",
        fail,
    ]
    assert results == dict.fromkeys(names, False)


def _identity_witness(original):
    return lambda mu, sgn, groups: (mu, sgn, tuple(range(2, 2 * len(mu) + 1, 2)))


def _reversed_witness(original):
    def reversed_image(mu, sgn, groups):
        ref_mu, ref_sgn, image = original(mu, sgn, groups)
        return ref_mu, ref_sgn, image[::-1]

    return reversed_image


@pytest.mark.parametrize(
    "defect, line",
    [
        (
            _identity_witness,
            "k=2: mu=1,1 sgn=-,+ reduces to mu=1,1 sgn=-,+, not a reference pair FAIL",
        ),
        (
            _reversed_witness,
            "k=2: witness rho=4,2 of mu=1,1 sgn=+,+ is not allowable for mu=1,1 sgn=+,+ FAIL",
        ),
    ],
    ids=["reduction-gives-a-non-reference", "witness-not-allowable"],
)
def test_sweep_names_the_pair_whose_reduction_fails(capsys, monkeypatch, defect, line):
    from kmboard import canonical

    monkeypatch.setattr(canonical, "_reference_arrays", defect(canonical._reference_arrays))
    code, out = run(capsys, "verify", "--k", "3", "--check", "reference-unique")
    assert code == 1
    assert _single_fail_line(out) == line
    assert json.loads(out.strip().splitlines()[-1]) == {"reference-unique": "fail"}


@pytest.mark.parametrize(
    "check, line",
    [
        ("compat", "k=2: T_R != T_C for mu=1,1 sgn=+,- FAIL"),
        ("mass", "k=2: simplex of rho=4,2 leaves T_R of mu=1,1 sgn=+,- FAIL"),
    ],
)
def test_compat_and_mass_fail_when_the_t_r_memo_ignores_a_branch(
    capsys, monkeypatch, check, line
):
    from kmboard import counting

    # the per-split T_R build hands mu=1,1 sgn=+,- the T_R of sgn=+,+
    original = counting._attached_parents

    def built(mu, keys):
        keys = tuple(keys)
        return original(mu, ((1, "+"), (1, "+")) if keys == ((1, "+"), (1, "-")) else keys)

    monkeypatch.setattr(counting, "_attached_parents", built)
    code, out = run(capsys, "verify", "--k", "4", "--check", check)
    assert code == 1
    assert _single_fail_line(out) == line
    assert json.loads(out.strip().splitlines()[-1]) == {check: "fail"}


def test_reference_unique_fails_when_the_reference_mask_admits_an_unordered_pair(
    capsys, monkeypatch
):
    from kmboard import counting

    # mu=1,1 sgn=-,+ is tamed, but its branch lists - before +
    target_bit = 1 << list(itertools.product("+-", repeat=2)).index(("-", "+"))

    class OneMoreReference(counting._MapProfile):
        def __init__(self, mu):
            super().__init__(mu)
            self.mu = mu

        def sign_sets(self, table):
            tamed, references = super().sign_sets(table)
            if self.mu == (1, 1):
                assert tamed & target_bit and not references & target_bit
                references |= target_bit
            return tamed, references

    monkeypatch.setattr(counting, "_MapProfile", OneMoreReference)
    code, out = run(capsys, "verify", "--k", "3", "--check", "reference-unique")
    assert code == 1
    # its orbit starts at itself, which reduces to mu=1,1 sgn=+,- at rho=4,2
    assert _single_fail_line(out) == "k=2: witness failed for mu=1,1 sgn=-,+ FAIL"
    assert json.loads(out.strip().splitlines()[-1]) == {"reference-unique": "fail"}
