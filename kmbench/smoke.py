"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 kmbench/smoke.py        (or: python3 -m pytest kmbench/smoke.py)

Runs every workload untraced and traced at the ``smoke`` scale (verify
k=3, census k=4, queries at k=8) for one second each, and checks that
every metric named in ``BENCHMARK.json`` and every workload-specific
metric appears with its unit, that a wrong golden fails the run, and that
a directory without the kmboard sources makes ``run.py`` exit nonzero.
These tests live outside ``tests/`` so the tier-1 suite does not run them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

NAMED = {
    "verify-k5": {
        "verify_s": "s",
        "verify.reference-unique_s": "s",
        "verify.compat_s": "s",
        "verify.mass_s": "s",
    },
    "census-k6": {"census_s": "s"},
    "query-k18": {"query_p50_ms": "ms", "query_p90_ms": "ms", "queries_per_s": "1/s"},
}


def _units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def test_untraced_runs_report_every_end_to_end_metric():
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    with tempfile.TemporaryDirectory() as tmp:
        for name in run.WORKLOADS:
            result = run.measure(name, 0, 1, False, scale="smoke", out_dir=Path(tmp))
            assert result["failed"] == 0 and result["attempted"] >= 1, result["failures"]
            assert _units(result["metrics"]) == want
            assert all(m["value"] > 0 for m in result["metrics"].values())
            named = _units(result["named"])
            assert {k: named.get(k) for k in NAMED[name]} == NAMED[name]
            assert result["error_rate"] == 0
            assert result["context"]["nproc"] >= 1 and result["seed"] == 0
            assert run.report_lines(result)


def test_query_fingerprints_are_checked_at_smoke_size():
    with tempfile.TemporaryDirectory() as tmp:
        result = run.measure("query-k18", 1, 1, False, scale="smoke", out_dir=Path(tmp))
    assert result["query_fingerprints_recorded"] and result["failed"] == 0


def test_traced_runs_report_every_per_layer_metric():
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    with tempfile.TemporaryDirectory() as tmp:
        for name in run.WORKLOADS:
            result = run.measure(name, 0, 1, True, scale="smoke", out_dir=Path(tmp))
            assert result["failed"] == 0, result["failures"]
            assert _units(result["metrics"]) == want
            assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
            assert Path(tmp, result["spans_file"]).is_file()
        layers = result["layers"]
    # the traced query run went through the counting DP and the oracle
    assert layers["domains.count_linear_extensions"]["calls"] > 0
    assert layers["domains.count_linear_extensions"]["masks_computed"] > 0
    assert layers["duhamel.expand_oracle"]["calls"] > 0


def test_wrong_golden_counts_every_op_as_failed():
    saved = run.GOLDENS
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(saved, Path(tmp, "goldens"))
        golden = Path(tmp, "goldens", "verify-k3.stdout")
        golden.write_text(golden.read_text(encoding="utf-8").replace("OK", "FAIL", 1))
        run.GOLDENS = Path(tmp, "goldens")
        try:
            result = run.measure("verify-k5", 0, 1, False, scale="smoke", out_dir=Path(tmp))
        finally:
            run.GOLDENS = saved
    assert result["failed"] == result["attempted"] >= 1
    assert result["error_rate"] == 1


def test_run_fails_without_the_program_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.HERE, Path(tmp, run.HERE.name), ignore=shutil.ignore_patterns("out"))
        proc = subprocess.run(
            [sys.executable, "kmbench/run.py", "--workload", "census-k6", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=120,
        )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
