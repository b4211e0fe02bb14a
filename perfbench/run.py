#!/usr/bin/env python3
"""lagspec benchmark: time to a certified verdict, and CLI query service.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every measurement happens in a fresh
interpreter (perfbench/worker.py), so the library's caches start cold.

--trace 0 measures set-up (the median of SETUP_RUNS fresh interpreters,
half before and half after the workload) and the workload for S seconds,
untraced, and reports the end-to-end metrics; set-up and operation times
are scaled to a reference machine speed measured alongside them
(speed.py).
--trace 1 runs the workload untraced for S/4 seconds and replays the same
operations with spans around lagspec's public functions, twice, and
reports the per-layer metrics and the tracing overhead.

Lines before the last print every metric by name with its unit; the full
report, with provenance and every failed operation, goes to
perfbench/out/.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when the
benchmark ran, whatever the gate found, and 1 when it could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import operator
import os
import platform
import statistics
import subprocess
import sys
import time

import speed
from tracing import OP

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("certify-sweep", "certify-audit", "queries")
SETUP_RUNS = 10
TIME_BUDGET_S = 170.0
TRACE_PAIRS = 2

END_TO_END = {
    "setup_s": "s",
    "verdict_s": "s",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# span name and statistic; see metric_value for how each is derived
PER_LAYER = {
    "quadfield.squarefree_decompose.calls": "count/op",
    "quadfield.squarefree_decompose.s": "s/op",
    "quadfield.squarefree_decompose.max_bits": "bits",
    "quadfield.compare.calls": "count/op",
    "quadfield.compare.s": "s/op",
    "cfrac.eval_periodic.calls": "count/op",
    "cfrac.eval_periodic.s": "s/op",
    "cfrac.expand.calls": "count/op",
    "cfrac.expand.s": "s/op",
    "cfrac.expand.terms": "count/op",
    "cfrac.convergents.calls": "count/op",
    "cfrac.convergents.s": "s/op",
    "cfrac.convergents.terms": "count/op",
    "cfrac.cylinder.calls": "count/op",
    "cfrac.cylinder.s": "s/op",
    "cfrac.eval_finite.calls": "count/op",
    "cfrac.eval_finite.s": "s/op",
    "bisequence.lambda_at.calls": "count/op",
    "bisequence.lambda_at.s": "s/op",
    "bisequence.sup_lambda.calls": "count/op",
    "bisequence.sup_lambda.s": "s/op",
    "certify.pattern_necessity.s": "s/op",
    "certify.pattern_necessity.windows": "count/op",
    "certify.pattern_necessity.windows_per_s": "1/s",
    "certify.site_lambda_bounds.calls": "count/op",
    "certify.site_lambda_bounds.s": "s/op",
    "certify.one_sided_lambda_bracket.calls": "count/op",
    "certify.one_sided_lambda_bracket.s": "s/op",
    "certify.audit_not_attained.s": "s/op",
    "certify.audit_not_attained.positions_per_s": "1/s",
    "constructions.build.s": "s/op",
    "parsing.parse.s": "s/op",
    "parsing.evaluate.s": "s/op",
    "cli.main.self_s": "s/op",
    "trace.overhead_ratio": "ratio",
}

# per-second rates and the tally they divide by the span's time
RATES = {"windows_per_s": "windows", "positions_per_s": "positions"}


def metric_value(name: str, traced: dict, overhead: float) -> float:
    """Per-operation value of a per-layer metric from the traced run."""
    if name == "trace.overhead_ratio":
        return overhead
    span, stat = name.rsplit(".", 1)
    spans, tallies, ops = traced["spans"], traced["tallies"], traced["ops"]
    row = spans.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0})
    if stat in RATES:
        return tallies.get(f"{span}.{RATES[stat]}", 0) / row["s"] if row["s"] else 0.0
    if stat == "max_bits":
        return tallies.get(name, 0)
    if stat in row:
        return row[stat] / ops
    return tallies.get(name, 0) / ops


def worker(args: list[str], deadline: float) -> dict:
    """Run perfbench/worker.py in a fresh interpreter and return its result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, WORKER] + args,
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "clients": 1,
        "loop": "closed",
    }


def _git_commit() -> str | None:
    """HEAD of a .git directory in the checkout root, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float):
    """(report, end-to-end or per-layer metrics, attempted, failed, correct)."""
    base = ["run", "--workload", workload, "--seed", str(seed)]
    report = {"workload": workload, "seconds": seconds, "trace": int(trace)}
    if not trace:
        # half the set-ups before the workload and half after, so that a
        # slow or fast spell of a shared machine does not set them all
        worker(["setup"], deadline)  # compiles bytecode; not counted
        setups = [worker(["setup"], deadline) for _ in range(SETUP_RUNS // 2)]
        run = worker(base + ["--seconds", str(seconds)], deadline)
        setups += [worker(["setup"], deadline) for _ in range(SETUP_RUNS // 2)]
        report["setup_runs"] = setups
        report["unscaled_setup_s"] = statistics.median(r["setup_s"] for r in setups)
        report["runs"] = [run]
        values = {
            "setup_s": statistics.median(
                r["setup_s"] * speed.IMPORT_REFERENCE_S / r["import_probe_s"] for r in setups
            ),
            "verdict_s": run["verdict_s"],
            "queries_per_s": run["queries_per_s"],
            "peak_rss_mb": run["peak_rss_mb"],
        }
        metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
        return report, metrics, run["ops"], run["failed"], run["correct"]

    # untraced and traced halves alternate, so that a slow or fast spell
    # of a shared machine falls on both sides of the overhead ratio
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"{workload}-spans.bin")
    plain, traced = [], []
    for i in range(TRACE_PAIRS):
        plain.append(worker(base + ["--seconds", str(seconds / (2 * TRACE_PAIRS))], deadline))
        replay = ["--seconds", str(seconds / (2 * TRACE_PAIRS)), "--ops", str(plain[-1]["ops"])]
        spans = ["--spans", spans_path] if i == TRACE_PAIRS - 1 else []
        traced.append(worker(base + replay + ["--trace"] + spans, deadline))
    merged = _merge_traces(traced)
    overhead = _mean_op_s(traced) / _mean_op_s(plain)
    report.update(runs=plain + traced, tracing_overhead=overhead, spans_file=spans_path)
    report["traced_total"] = merged
    metrics = {k: (metric_value(k, merged, overhead), unit) for k, unit in PER_LAYER.items()}
    runs = plain + traced
    attempted = sum(r["ops"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return report, metrics, attempted, failed, all(r["correct"] for r in runs)


def _mean_op_s(runs: list[dict]) -> float:
    return sum(r["busy_s"] for r in runs) / sum(r["ops"] for r in runs)


def _merge_traces(runs: list[dict]) -> dict:
    """Span statistics and tallies of several traced runs, added up."""
    spans: dict[str, dict[str, float]] = {}
    tallies: dict[str, int] = {}
    for run in runs:
        for name, row in run["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += row[k]
        for key, value in run["tallies"].items():
            combine = max if key.endswith(".max_bits") else operator.add
            tallies[key] = combine(tallies.get(key, 0), value)
    return {"spans": spans, "tallies": tallies, "ops": sum(r["ops"] for r in runs)}


def _print_summary(report: dict, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    if "unscaled_setup_s" in report:
        print(f"unscaled setup_s {report['unscaled_setup_s']:.6g} s")
    for run in report["runs"]:
        label = "traced" if "spans" in run else "untraced"
        ops = run["ops"]
        line = f"{label}: {ops} ops, verdict_s {run['verdict_s']:.6g} s (median of {ops})"
        if run["workload"] == "queries":
            line += (
                f", query_p50_ms {run['verdict_s'] * 1e3:.6g} ms,"
                f" query_p99_ms {run['p99_s'] * 1e3:.6g} ms,"
                f" long_share {run['long_share']:.4g} ({run['long_skipped']} long-period"
                f" candidates passed over), repeat_share {run['repeat_share']:.4g}"
            )
        print(
            f"{line}, queries_per_s {run['queries_per_s']:.6g} 1/s,"
            f" fail_ratio {run['failed'] / ops:.6g}, peak_rss_mb {run['peak_rss_mb']:.4g} MB"
        )
        if run["scaled_to_reference_speed"]:
            print(
                f"  unscaled: verdict_s {run['unscaled_verdict_s']:.6g} s, queries_per_s"
                f" {run['unscaled_queries_per_s']:.6g} 1/s; {run['probe_samples']} probe samples,"
                f" mean {run['probe_mean_s'] * 1e3:.4g} ms"
            )
        for f in run["failures"]:
            print(f"  failed op {f['op']} ({f['kind']}{', long period' if f['long'] else ''}):"
                  f" {f['outcome']}: {f['detail']}")
    if "tracing_overhead" in report:
        traced = report["traced_total"]
        total = traced["spans"].get(OP, {}).get("s", 0.0)
        print(f"tracing overhead {report['tracing_overhead']:.4g}x; share of traced op time:")
        rows = sorted(traced["spans"].items(), key=lambda kv: -kv[1]["s"])
        for name, row in rows:
            if name != OP and total:
                print(f"  {name}: {row['s'] / total:.1%} incl, {row['self_s'] / total:.1%} self,"
                      f" {row['calls']} calls")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_BUDGET_S
    try:
        report, metrics, attempted, failed, correct = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), deadline
        )
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    report["provenance"] = provenance(args.seed)
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    _print_summary(report, metrics)
    print(f"provenance: {json.dumps(report['provenance'])}; report: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
