"""The package surface: what the benchmark reaches still works, the test-only
reference API lives in ``oracles`` alone, and no module keeps a dead import."""

import ast
from pathlib import Path

import kmboard
import oracles
from kmboard import canonical, cli, domains, duhamel, moves, pairs, trees, verify
from kmboard.canonical import to_reference, to_tamed
from kmboard.counting import census
from kmboard.pairs import validate_pair

#: Names that left each module or class for ``tests/oracles.py``.
MOVED = {
    moves: ("km_class", "km_admissible_indices", "apply_signed_km", "allowable_permutations"),
    domains: (
        "linear_extensions",
        "sigma_set",
        "induced_order",
        "_forest_orders",
        "EXTENSION_CAP",
        "TotalOrder",
    ),
    duhamel: ("substitute_times", "as_flow", "_substitute", "unclogged_count", "expand_display"),
    trees: ("pair_from_tree",),
    pairs.TimePermutation: ("transposition", "is_identity"),
    domains.TimePoset: ("from_parents",),
    duhamel.IntegratedExpansion: ("relation_pairs",),
    canonical._MapProfile: ("tamed", "blocks_ordered"),
}

#: The oracle's name where it differs from the old one.
RENAMED = {"from_parents": "poset_from_parents"}


def test_what_the_benchmark_reaches_still_works():
    pair = validate_pair(5, (1, 1, 3, 1, 8), "++--+")
    tamed, _ = to_tamed(pair)
    reference, rho = to_reference(tamed)
    assert moves.apply_wild(moves.MoveState.start(reference), rho).pair == tamed

    assert isinstance(domains.TimePoset.__dict__["from_relations"], classmethod)
    poset = domains.TimePoset.from_relations(2, [(1, 3), (3, 5)])
    assert poset.closure == {(1, 3), (3, 5), (1, 5)}
    assert poset.elements == (1, 3, 5)

    report = census(3, signed=True, threads=1)
    assert len(report.reference_masses) == report.wild_classes == 80
    assert sum(report.reference_masses.values()) == report.mass_total
    hist = report.class_size_histogram
    assert sum(size * n for size, n in hist.items()) == report.total_pairs

    assert cli.CHECKS is verify.CHECKS
    assert list(cli.CHECKS) == [
        "catalan",
        "tamed-unique",
        "reference-unique",
        "domain-bijection",
        "compat",
        "mass",
        "duhamel",
    ]


def test_the_test_only_api_lives_in_the_oracles_alone():
    for owner, names in MOVED.items():
        for name in names:
            assert name not in vars(owner), (owner, name)
            assert not hasattr(kmboard, name), name
            assert hasattr(oracles, RENAMED.get(name, name)), name
    assert not hasattr(duhamel, "expr_key")  # nodes carry ``key`` themselves


def _names_in(node) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _unused_imports(source: str) -> list:
    """Names a module imports and never reads, string annotations counted as reads."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        annotations = [getattr(node, "annotation", None), getattr(node, "returns", None)]
        for annotation in filter(None, annotations):
            for text in ast.walk(annotation):
                if isinstance(text, ast.Constant) and isinstance(text.value, str):
                    used |= _names_in(ast.parse(text.value, mode="eval"))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_keeps_an_unused_import():
    planted = "import os\nfrom typing import Iterator\nfrom x import Y\ndef f() -> 'Y': pass\n"
    assert _unused_imports(planted) == [(1, "os"), (2, "Iterator")]
    for path in sorted(Path(kmboard.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            assert _unused_imports(path.read_text(encoding="utf-8")) == [], path.name
