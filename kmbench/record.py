"""Record the goldens that the benchmark's output checks compare against.

    python3 kmbench/record.py

Runs the current program and writes, under ``kmbench/goldens/``:

* ``verify-k3.stdout`` and ``verify-k5.stdout``: stdout of ``kmboard verify
  --check all``; seeds 0 and 1 must print the same bytes, else nothing is
  written.
* ``query-fingerprints.json``: the fingerprints of the first
  ``DIGEST_QUERIES`` queries for seeds 0 and 1 at k = 8 and k = 18.  Seed 1
  is the held-out seed: tune on other seeds and recheck claims on it.

Re-record only in a change that is meant to alter these outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

SEEDS = (0, 1)


def verify_stdout(kb, k: int, seed: int) -> str:
    buf = io.StringIO()
    argv = ["verify", "--k", str(k), "--check", "all", "--seed", str(seed), "--threads", "1"]
    with contextlib.redirect_stdout(buf):
        code = kb.cli.main(argv)
    if code != 0:
        raise SystemExit(f"verify --k {k} --seed {seed} exited {code}")
    return buf.getvalue()


def query_fingerprints(kb, k: int, seed: int) -> list[str]:
    workload = run.QueryWorkload()
    st = workload.state(kb, k, seed, recorded=None)
    for i in range(run.DIGEST_QUERIES):
        record = workload.run_op(kb, st, i)
        if record["error"]:
            raise SystemExit(f"query {i} at k={k} seed={seed} failed: {record['error']}")
    return [st["fingerprints"][i] for i in range(run.DIGEST_QUERIES)]


def main() -> int:
    kb = run.import_kmboard()
    run.GOLDENS.mkdir(exist_ok=True)
    for k in (3, 5):
        outputs = {verify_stdout(kb, k, seed) for seed in SEEDS}
        if len(outputs) != 1:
            raise SystemExit(f"verify --k {k} prints different stdout for seeds {SEEDS}")
        (run.GOLDENS / f"verify-k{k}.stdout").write_text(outputs.pop(), encoding="utf-8")
    fingerprints = {
        f"k{k}-seed{seed}": query_fingerprints(kb, k, seed) for k in (8, 18) for seed in SEEDS
    }
    (run.GOLDENS / "query-fingerprints.json").write_text(
        json.dumps(fingerprints, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
