import hashlib
import json

import pytest

from kmboard.cli import main
from kmboard.pairs import CollapsingPair


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


def test_enumerate_negative_limit_exits_2(capsys):
    assert "--limit" in input_error(capsys, "enumerate", "--k", "2", "--limit", "-1")


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
