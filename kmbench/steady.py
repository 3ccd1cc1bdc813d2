"""Steadiness report: repeated untraced runs of the same code, one seed each.

    python3 kmbench/steady.py --runs 10 --sets 2 --out kmbench/out/steadiness.json

Runs ``run.py`` once per (set, run, workload), workloads interleaved so
that a change in machine load hits all of them alike, each run with its
own seed.  For every workload x metric (the end-to-end metrics of
``BENCHMARK.json`` and each workload's own named metrics) it prints the
median, the quartiles, the spread (q3 - q1) / median and the largest
deviation |v - median| / median, and whether each bounded spread is
within its bound and below a third of it (``setup_s`` is exempt from the
spread test).  With two sets it also prints how far the second median
moved from the first, in the worse direction, against the bound.  Exit
code 0 when every spread and drift is within its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "kmbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace0.json").read_text())
    if proc.returncode != 0 or not line["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed: {record['failures']}")
    values = {name: m["value"] for name, m in record["named"].items()}
    values.update({name: m["value"] for name, m in line["metrics"].items()})
    return {"seed": seed, "values": values, "loadavg": record["context"]["loadavg_start"][0]}


def stats(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med,
        "max_dev": max(abs(v - med) for v in values) / med,
    }


def summarize(runs: list[dict], spec: dict, seconds: int) -> dict:
    """Statistics per set, workload and metric; drift between two sets.

    ``runs`` holds one ``{workload: [run, ...]}`` dict per set.  A bounded
    metric is ``within`` when its spread is at most its bound (``setup_s``
    is exempt) and ``steady`` when the spread is below a third of it.
    """
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    report = {"seconds": seconds, "runs": len(next(iter(runs[0].values()))), "sets": []}
    within = steady = True
    for per_workload in runs:
        table = {}
        for w, w_runs in per_workload.items():
            table[w] = {n: stats([run["values"][n] for run in w_runs]) for n in w_runs[0]["values"]}
            for n, st in table[w].items():
                st["bound"] = bounds[n][0] if n in bounds else None
                if st["bound"] is None or n == "setup_s":
                    st["steady"] = None
                    continue
                st["steady"] = st["spread"] < st["bound"] / 3
                steady &= st["steady"]
                within &= st["spread"] <= st["bound"]
        report["sets"].append({"metrics": table, "runs": per_workload})

    print(f"{'workload':<10} {'metric':<28} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'maxdev':>7} {'bound':>6} steady")
    for w in runs[0]:
        for n in report["sets"][0]["metrics"][w]:
            for s, data in enumerate(report["sets"]):
                st = data["metrics"][w][n]
                bound = "" if st["bound"] is None else f"{st['bound']:.2f}"
                mark = "" if st["steady"] is None else ("yes" if st["steady"] else "NO")
                print(f"{w:<10} {n:<28} {s:>3} {st['median']:>12.5g} {st['q1']:>12.5g} "
                      f"{st['q3']:>12.5g} {st['spread']:>7.3f} {st['max_dev']:>7.3f} {bound:>6} {mark}")
    if len(runs) == 2:
        report["drift"] = {}
        print(f"\n{'workload':<10} {'metric':<28} {'drift':>7} {'bound':>6} within")
        for w in runs[0]:
            for n, (bound, better) in bounds.items():
                m0 = report["sets"][0]["metrics"][w][n]["median"]
                m1 = report["sets"][1]["metrics"][w][n]["median"]
                worse = (m1 - m0) / m0 if better == "lower" else (m0 - m1) / m0
                ok = worse <= bound
                within &= ok
                report["drift"][f"{w}/{n}"] = {"worse_by": worse, "bound": bound, "within": ok}
                print(f"{w:<10} {n:<28} {worse:>7.3f} {bound:>6.2f} {'yes' if ok else 'NO'}")
    report["all_within"] = within
    report["all_steady"] = steady
    print(f"\nevery spread and drift within its bound: {'yes' if within else 'NO'}; "
          f"every spread below a third of its bound: {'yes' if steady else 'NO'}")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--out", type=Path, default=HERE / "out" / "steadiness.json")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    workloads = args.workloads.split(",")

    runs = [{w: [] for w in workloads} for _ in range(args.sets)]
    for s in range(args.sets):
        for r in range(args.runs):
            for w in workloads:
                seed = args.first_seed + s * args.runs + r
                runs[s][w].append(one_run(w, seed, args.seconds))
                print(f"set {s} run {r} {w} seed {seed} done", file=sys.stderr, flush=True)

    report = summarize(runs, spec, args.seconds)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"report in {args.out}")
    return 0 if report["all_within"] else 1


if __name__ == "__main__":
    sys.exit(main())
