"""kmboard benchmark: three seeded closed-loop workloads with output checks.

Run from the repository root:

    python3 kmbench/run.py --workload verify-k5 --seed 0 --seconds 35 --trace 0

The program under test is the ``kmboard`` package in ``src/`` of the same
checkout, imported in-process.  Each op runs only after the previous one
finished (closed loop, one client, one thread).  Every op's output is
checked; a failed check or an exception counts the op as failed.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` first runs a quarter of the time untraced, then wraps the
kmboard modules (see ``spans.py``) and reports the per-layer metrics, per
traced op, and the tracing overhead.  Human-readable lines come first; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record, machine context included,
goes to ``kmbench/out/<workload>-seed<seed>-trace<t>.json``; traced runs
also write every span to ``kmbench/out/<workload>-seed<seed>-spans.tsv.gz``.
Exit code: 0 when every check passed, 1 when one failed, 2 on a usage
error or a checkout without ``src/kmboard``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from spans import MODULES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens"
OUT = HERE / "out"

#: Imports and input generations per run; setup_s is their median.
SETUP_REPEATS = 5
#: Iterations of the speed-sampling loop (see SpeedSampler).
REFERENCE_STEPS = 40_000
#: Calibrated times read as seconds on a machine where the sampling loop
#: takes this long on average, about its mean on the 2-core Xeon the
#: benchmark was defined on.
REFERENCE_NOMINAL_S = 0.004
#: Seconds between two speed samples.
SAMPLE_EVERY = 0.2
#: Seconds before and after an interval whose speed samples calibrate it.
SAMPLE_MARGIN = 1.0
#: Share of a traced run spent on untraced ops, the base of the overhead ratio.
UNTRACED_SHARE = 0.25
#: A traced run starts no further op once this many spans are held.
MAX_SPANS = 1_500_000
#: Queries whose results are pinned by a recorded fingerprint per seed.
DIGEST_QUERIES = 32
#: Distinct seeded pairs generated per query run; the loop cycles through them.
QUERY_POOL = 512

#: Wild classes (reference pairs) per k, from ``kmboard verify`` at k <= 5
#: and the published k = 6 census.
WILD_CLASSES = {1: 2, 2: 11, 3: 80, 4: 665, 5: 5980, 6: 56637}


# -- program import -------------------------------------------------------------


def import_kmboard() -> SimpleNamespace:
    """Import kmboard afresh from this checkout's ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for key in [k for k in sys.modules if k == "kmboard" or k.startswith("kmboard.")]:
        del sys.modules[key]
    pkg = importlib.import_module("kmboard")
    if Path(pkg.__file__).resolve().parent != SRC / "kmboard":
        raise RuntimeError(f"imported kmboard from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"kmboard.{m}") for m in MODULES})


# -- workloads --------------------------------------------------------------------


def _timed(fn, name, sink):
    def timed(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            sink[name] = (t0, perf_counter())

    return timed


class VerifyWorkload:
    """``kmboard verify --k 5 --check all`` in-process, stdout against a golden.

    When every check passes, verify's stdout names no seed-dependent
    value (the seed only picks the random samples of domain-bijection
    and duhamel), so one golden per k serves every seed.
    """

    name = "verify-k5"
    sizes = {"full": 5, "smoke": 3}
    min_ops = 1

    def prepare(self, kb, seed, scale):
        k = self.sizes[scale]
        check_times: dict[str, tuple] = {}
        checks = kb.cli.CHECKS
        for check, fn in list(checks.items()):
            checks[check] = _timed(fn, check, check_times)
        return {
            "argv": ["verify", "--k", str(k), "--check", "all", "--seed", str(seed), "--threads", "1"],
            "golden": (GOLDENS / f"verify-k{k}.stdout").read_text(encoding="utf-8"),
            "check_times": check_times,
        }

    def run_op(self, kb, st, i):
        st["check_times"].clear()
        buf = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(buf):
            code = kb.cli.main(st["argv"])
        t1 = perf_counter()
        error = None
        if code != 0:
            error = f"exit code {code}"
        elif buf.getvalue() != st["golden"]:
            got, want = buf.getvalue().splitlines(), st["golden"].splitlines()
            line = next(
                (n for n, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want))
            )
            error = f"stdout differs from the golden at line {line + 1}"
        return {"t0": t0, "t1": t1, "error": error, "checks": dict(st["check_times"])}

    def summary(self, records):
        out = {"verify_s": (_median(r["cal_s"] for r in records), "s")}
        checks = next((r["checks"] for r in records if "checks" in r), {})
        for check in checks:
            values = [r["checks"][check] for r in records if check in r.get("checks", ())]
            out[f"verify.{check}_s"] = (_median(values), "s")
        return out


def census_closed_forms(k: int) -> dict:
    catalan = math.comb(3 * k, k - 1) // k
    total = math.prod(range(1, 2 * k, 2)) * 2**k
    return {
        "total_pairs": total,
        "unsigned_classes": catalan,
        "signed_classes": catalan * 2**k,
        "tamed_count": catalan * 2**k,
        "wild_classes": WILD_CLASSES[k],
        "mass_total": total,
    }


class CensusWorkload:
    """``counting.census(6, signed=True)``: the report against its closed forms.

    The census has no input besides k, so the seed changes nothing here.
    """

    name = "census-k6"
    sizes = {"full": 6, "smoke": 4}
    min_ops = 1

    def prepare(self, kb, seed, scale):
        k = self.sizes[scale]
        return {"k": k, "expected": census_closed_forms(k)}

    def run_op(self, kb, st, i):
        t0 = perf_counter()
        report = kb.counting.census(st["k"], signed=True, threads=1)
        t1 = perf_counter()
        problems = [
            f"{field}={getattr(report, field)} != {want}"
            for field, want in st["expected"].items()
            if getattr(report, field) != want
        ]
        hist = report.class_size_histogram
        if sum(size * n for size, n in hist.items()) != report.total_pairs:
            problems.append("class size histogram does not sum to the pair count")
        if sum(hist.values()) != report.signed_classes:
            problems.append("class size histogram does not count the signed classes")
        masses = report.reference_masses
        if len(masses) != report.wild_classes or sum(masses.values()) != report.mass_total:
            problems.append("reference masses disagree with wild_classes/mass_total")
        return {"t0": t0, "t1": t1, "error": "; ".join(problems) or None}

    def summary(self, records):
        return {"census_s": (_median(r["cal_s"] for r in records), "s")}


def hook_count(closure, elements) -> int:
    """Linear extensions of a forest poset by the hook-length formula.

    Raises ValueError when the poset is not a forest (some element has
    two incomparable elements above it).
    """
    below = {x: 0 for x in elements}
    above = {x: [] for x in elements}
    for a, b in closure:
        below[a] += 1
        above[b].append(a)
    for ups in above.values():
        for i, a in enumerate(ups):
            for b in ups[i + 1 :]:
                if (a, b) not in closure and (b, a) not in closure:
                    raise ValueError("poset is not a forest")
    out = math.factorial(len(elements))
    for x in elements:
        out //= below[x] + 1
    return out


def random_arrays(rng: random.Random, k: int):
    """Uniform legal (mu, sgn) arrays: mu(2j) in 1..2j-1, signs fair."""
    mu = tuple(1 if j == 1 else rng.randint(1, 2 * j - 1) for j in range(1, k + 1))
    sgn = tuple(rng.choice("+-") for _ in range(k))
    return mu, sgn


class QueryWorkload:
    """Seeded random signed pairs at k=18, one single-pair pipeline per op.

    Untimed checks per query: the wild round trip, tr == tc, expansion
    == oracle, both extension counts against the hook-length formula,
    the same result whenever the loop revisits a pair, and, for seeds
    with a recorded golden, the fingerprint of each of the first
    DIGEST_QUERIES queries.
    """

    name = "query-k18"
    sizes = {"full": 18, "smoke": 8}
    min_ops = DIGEST_QUERIES

    def prepare(self, kb, seed, scale):
        k = self.sizes[scale]
        goldens = json.loads((GOLDENS / "query-fingerprints.json").read_text(encoding="utf-8"))
        return self.state(kb, k, seed, goldens.get(f"k{k}-seed{seed}"))

    @staticmethod
    def state(kb, k, seed, recorded):
        rng = random.Random(seed)
        pool = [kb.pairs.validate_pair(k, *random_arrays(rng, k)) for _ in range(QUERY_POOL)]
        return {"k": k, "pool": pool, "fingerprints": {}, "recorded": recorded}

    def run_op(self, kb, st, i):
        canonical, moves, domains, duhamel = kb.canonical, kb.moves, kb.domains, kb.duhamel
        index = i % len(st["pool"])
        pair = st["pool"][index]
        t0 = perf_counter()
        tamed, _ = canonical.to_tamed(pair)
        reference, rho = canonical.to_reference(tamed)
        back = moves.apply_wild(moves.MoveState.start(reference), rho).pair
        tc = domains.tc_domain(reference)
        same_domain = domains.tr_domain(reference) == tc
        td = domains.td_domain(pair)
        n_tc = domains.count_linear_extensions(tc)
        n_td = domains.count_linear_extensions(td)
        kernel = duhamel.expand(pair)
        oracle = tuple(map(duhamel.normalize, duhamel.expand_oracle(pair)))
        schedule = duhamel.estimate_schedule(duhamel.mark_dtree(duhamel.build_dtree(pair)))
        integrated = duhamel.integrated_expand(pair)
        t1 = perf_counter()

        problems = []
        if back != tamed:
            problems.append("wild move of the reference does not give the tamed pair back")
        if not same_domain:
            problems.append("tr_domain != tc_domain")
        if kernel != oracle:
            problems.append("expand != normalize(expand_oracle)")
        for label, poset, count in (("tc", tc, n_tc), ("td", td, n_td)):
            try:
                want = hook_count(poset.closure, poset.elements)
            except ValueError as exc:
                problems.append(f"{label}: {exc}")
                continue
            if count != want:
                problems.append(f"{label} count {count} != hook-length {want}")
        text = "|".join(
            (
                str(tamed),
                str(reference),
                repr(rho.image),
                str(n_tc),
                str(n_td),
                repr(kernel),
                json.dumps(schedule.to_json(), sort_keys=True),
                repr(sorted(integrated.bounds.items())),
            )
        )
        fingerprint = hashlib.sha256(text.encode()).hexdigest()[:16]
        first = st["fingerprints"].setdefault(index, fingerprint)
        if first != fingerprint:
            problems.append("result differs from the first query of the same pair")
        recorded = st["recorded"]
        if recorded is not None and index < len(recorded) and recorded[index] != fingerprint:
            problems.append(f"fingerprint {fingerprint} != recorded {recorded[index]}")
        return {"t0": t0, "t1": t1, "error": "; ".join(problems) or None, "pair": str(pair)}

    def summary(self, records):
        ms = [r["cal_s"] * 1000 for r in records]
        out = {
            "query_p50_ms": (_median(ms), "ms"),
            "queries_per_s": (1000 * len(ms) / sum(ms), "1/s"),
        }
        if len(ms) >= 2:
            out["query_p90_ms"] = (statistics.quantiles(ms, n=10)[8], "ms")
        return out

    @staticmethod
    def digest(st) -> str:
        prefix = [st["fingerprints"][i] for i in range(DIGEST_QUERIES) if i in st["fingerprints"]]
        return hashlib.sha256("".join(prefix).encode()).hexdigest()


WORKLOADS = {w.name: w for w in (VerifyWorkload(), CensusWorkload(), QueryWorkload())}


# -- measurement --------------------------------------------------------------------


def _median(values) -> float:
    return statistics.median(list(values))


class SpeedSampler:
    """Times a fixed arithmetic loop on SIGALRM every SAMPLE_EVERY seconds.

    On the shared host the benchmark was defined on, the speed the
    machine grants this process moves by tens of percent from minute to
    minute.  The loop does integer arithmetic on a few ints, allocates
    nothing and runs with the collector paused, so the mean of its
    timings over an interval measures the speed granted over that
    interval.  (A variant that also read a 16k-entry dict tracked the
    census workload worse: its own cache misses added noise.)
    :meth:`timed` removes the sampling time from an interval and scales
    the rest to a machine where the loop takes REFERENCE_NOMINAL_S.  Used
    as a context manager around a whole run.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, *_signal_args) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        x = 0
        for i in range(REFERENCE_STEPS):
            x = (x * 3 + i) & 0xFFFF
        t1 = perf_counter()
        if enabled:
            gc.enable()
        self.starts.append(t0)
        self.durations.append(t1 - t0)

    def __enter__(self) -> "SpeedSampler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def timed(self, t0: float, t1: float) -> tuple[float, float]:
        """(wall seconds, calibrated seconds) of [t0, t1], sampling excluded.

        The speed is the mean loop time over the samples taken from
        SAMPLE_MARGIN before the interval to SAMPLE_MARGIN after it, so
        that a short op is calibrated by several samples, not by one.
        """
        first_inside = bisect.bisect_left(self.starts, t0)
        after = bisect.bisect_left(self.starts, t1)
        wall = (t1 - t0) - sum(self.durations[first_inside:after])
        lo = bisect.bisect_left(self.starts, t0 - SAMPLE_MARGIN)
        hi = bisect.bisect_right(self.starts, t1 + SAMPLE_MARGIN)
        window = self.durations[min(lo, len(self.durations) - 1) : max(hi, lo + 1)]
        return wall, wall * REFERENCE_NOMINAL_S * len(window) / sum(window)


def machine_context() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
    }


def run_ops(workload, kb, st, seconds, tracer=None, first_op=0):
    """Closed loop: ops back to back until the next would pass ``seconds``.

    Each record holds the op's timed interval ``t0``..``t1``;
    :func:`finish` turns it into seconds once the run's samples are in.
    """
    records = []
    begin = perf_counter()
    while True:
        i = len(records)
        if tracer is not None:
            tracer.op_id = first_op + i
        t0 = perf_counter()
        try:
            record = workload.run_op(kb, st, i)
        except Exception as exc:  # any failure of the program counts as a failed op
            record = {
                "t0": t0,
                "t1": perf_counter(),
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
            }
        records.append(record)
        done = len(records)
        if done < workload.min_ops:
            continue
        elapsed = perf_counter() - begin
        if elapsed + elapsed / done > seconds or (tracer is not None and tracer.full):
            return records


def finish(records, sampler) -> None:
    """Wall and calibrated seconds of every op and of every verify check."""
    for r in records:
        r["seconds"], r["cal_s"] = sampler.timed(r.pop("t0"), r.pop("t1"))
        if "checks" in r:
            r["checks"] = {name: sampler.timed(*span)[1] for name, span in r["checks"].items()}


def setup(workload, seed, scale):
    """Import and prepare SETUP_REPEATS times; returns the last state and every interval."""
    spans = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        kb = import_kmboard()
        st = workload.prepare(kb, seed, scale)
        spans.append((t0, perf_counter()))
    return kb, st, spans


def _per_layer(name, agg, n_ops, extra):
    if name in extra:
        return extra[name]
    if name.startswith("cli.verify.") and name.endswith("_s"):
        layer, field = name[: -len("_s")], "busy_s"
    else:
        layer, field = name.rsplit(".", 1)
    return agg.get(layer, {}).get(field, 0) / n_ops


def measure(workload_name, seed, seconds, trace, scale="full", out_dir=OUT):
    """One run; returns the result record (the JSON line plus context)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[workload_name]
    context = machine_context()
    tracer = Tracer(MAX_SPANS) if trace else None
    with SpeedSampler() as sampler:
        kb, st, setup_spans = setup(workload, seed, scale)
        gc.collect()
        if not trace:
            records = run_ops(workload, kb, st, seconds)
        else:
            untraced = run_ops(workload, kb, st, seconds * UNTRACED_SHARE)
            tracer.install()
            try:
                traced = run_ops(
                    workload, kb, st, seconds * (1 - UNTRACED_SHARE), tracer, len(untraced)
                )
            finally:
                tracer.uninstall()
            records = untraced + traced
    finish(records, sampler)
    setup_times = [sampler.timed(*span)[1] for span in setup_spans]
    result = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "scale": scale,
        "setup_times_s": setup_times,
    }
    if not trace:
        named = {
            "setup_s": (_median(setup_times), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "op_p50_ms": (_median(r["cal_s"] for r in records) * 1000, "ms"),
            "ops_per_s": (len(records) / sum(r["cal_s"] for r in records), "1/s"),
        }
        named.update(workload.summary(records))
        named["wall.op_p50_ms"] = (_median(r["seconds"] for r in records) * 1000, "ms")
        wanted = spec["end_to_end"]
    else:
        agg = tracer.aggregate()
        n = len(traced)
        untraced_s = _median(r["cal_s"] for r in untraced)
        traced_s = _median(r["cal_s"] for r in traced)
        extra = {
            "trace.overhead_ratio": traced_s / untraced_s,
            "trace.untraced_op_s": untraced_s,
            "trace.traced_op_s": traced_s,
            "trace.spans_per_op": len(tracer.span_name) / n,
            "trace.traced_ops": n,
        }
        wanted = spec["per_layer"]
        named = {
            m["name"]: (_per_layer(m["name"], agg, n, extra), m["unit"]) for m in wanted
        }
        result["layers"] = agg
        result["untraced_ops"] = len(untraced)
        out_dir.mkdir(parents=True, exist_ok=True)
        spans_path = out_dir / f"{workload_name}-seed{seed}-spans.tsv.gz"
        tracer.write(spans_path)
        result["spans_file"] = spans_path.name
    named["wall.sample_loop_ms"] = (statistics.fmean(sampler.durations) * 1000, "ms")
    if isinstance(workload, QueryWorkload):
        result["query_digest"] = workload.digest(st)
        result["query_fingerprints_recorded"] = st["recorded"] is not None
    failures = [r for r in records if r.get("error")]
    context["loadavg_end"] = list(os.getloadavg())
    result.update(
        context=context,
        attempted=len(records),
        failed=len(failures),
        error_rate=len(failures) / len(records),
        op_seconds=[r["seconds"] for r in records],
        op_calibrated_s=[r["cal_s"] for r in records],
        speed_samples=len(sampler.durations),
        failures=[
            {k: v for k, v in r.items() if k in ("error", "traceback", "pair")} for r in failures[:5]
        ],
        named={k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        metrics={m["name"]: {"value": named[m["name"]][0], "unit": m["unit"]} for m in wanted},
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{workload_name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True), encoding="utf-8"
    )
    return result


def report_lines(result) -> list[str]:
    ctx = result["context"]
    lines = [
        f"# kmbench {result['workload']} seed={result['seed']} seconds={result['seconds']} "
        f"trace={int(result['trace'])} scale={result['scale']}",
        f"# python {ctx['python']}, nproc {ctx['nproc']}, cpu {ctx['cpu_model']!r}, "
        f"loadavg {ctx['loadavg_start']} -> {ctx['loadavg_end']}",
        f"# ops attempted {result['attempted']}, failed {result['failed']}, "
        f"error_rate {result['error_rate']:.4f}",
    ]
    if "query_digest" in result:
        lines.append(
            f"# query digest {result['query_digest'][:16]} "
            f"(recorded fingerprints: {'yes' if result['query_fingerprints_recorded'] else 'no'})"
        )
    n_ops = len(result["op_seconds"])
    if result["trace"]:
        samples = f"{n_ops - result['untraced_ops']} traced ops (per-op figures), {result['untraced_ops']} untraced"
    else:
        samples = f"{n_ops} ops (medians over ops), setup_s over {len(result['setup_times_s'])} setups"
    lines.append(f"# samples: {samples}")
    for name, metric in result["named"].items():
        lines.append(f"{name:<48} {metric['value']:>16.6f} {metric['unit']}")
    if result["workload"] == "query-k18" and not result["trace"]:
        beyond = n_ops - math.ceil(0.9 * n_ops)
        lines.append(f"# query_p90_ms has {beyond} samples beyond it")
    for failure in result["failures"]:
        lines.append(f"# FAILED: {failure['error']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="kmbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "kmboard" / "__init__.py").is_file():
        print(f"error: no kmboard sources under {SRC}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in report_lines(result):
        print(line)
    for failure in result["failures"]:
        if "traceback" in failure:
            print(failure["traceback"], file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
