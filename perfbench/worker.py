"""One measurement in a fresh interpreter; started by perfbench/run.py.

    python3 perfbench/worker.py setup
    python3 perfbench/worker.py run --workload W --seed N --seconds S
                                    [--ops K] [--trace] [--spans PATH]

`setup` times importing lagspec and building its reference objects, and
then, in the same interpreter, importing a fixed set of stdlib modules
(the import-speed probe, see speed.py).
`run` drives one workload in a closed loop with one client until S
seconds have passed (or K operations are done).  An operation fails when
it raises, answers wrongly, or is stopped by signal.setitimer at its
deadline; the deadlines are far above the slowest operation of either
kind, so that which operations fail does not depend on the speed of the
machine.  Either prints one JSON object on stdout.  lagspec is
imported from the src/ directory next to this one and from nowhere else.
"""

import os
import sys
import time
from collections import namedtuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# the slowest query (a kept long period, queries.LONG_RHO_STEPS) takes
# under 0.3 s and a pipeline about 4 s on a 2-vCPU VM
QUERY_DEADLINE_S = 2.0
PIPELINE_DEADLINE_S = 40.0
SETUP_BLOCKS = 8
A0_TEXT = "<(2,1) | 1,2,3,3*,3,2,1 | (1,2)>"
# stdlib modules that lagspec does not import; setup() times importing them
IMPORT_PROBE = ("difflib", "email.mime.text", "http.client", "pydoc", "tarfile", "unittest",
                "xml.etree.ElementTree")


# one attempted operation; seconds exclude the speed probe's own time
Record = namedtuple("Record", "op kind long skipped repeat outcome seconds detail probes")


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM; a BaseException so no handler in the library catches it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


def import_lagspec():
    sys.path.insert(0, SRC)
    import lagspec
    import lagspec.cli  # imports every other module

    if os.path.dirname(os.path.abspath(lagspec.__file__)) != os.path.join(SRC, "lagspec"):
        raise SystemExit(f"lagspec was imported from {lagspec.__file__}, not from {SRC}")
    return lagspec


def call_cli(cli, argv):
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue() or err.getvalue()


def setup() -> dict:
    import contextlib
    import io

    t0 = time.perf_counter()
    lagspec = import_lagspec()
    cons = lagspec.constructions
    cons.gap_left_endpoint()
    cons.build_a0()
    lagspec.certify.gap_constraints()
    cons.alpha0_prefix(SETUP_BLOCKS)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = lagspec.cli.main(["construct", "a0"])  # builds the CLI parser
    elapsed = time.perf_counter() - t0
    if rc != 0 or out.getvalue().strip() != A0_TEXT:
        raise SystemExit(f"construct a0 gave {rc} {out.getvalue()!r}")
    return {"setup_s": elapsed, "import_probe_s": import_probe()}


def import_probe() -> float:
    import importlib

    loaded = [name for name in IMPORT_PROBE if name in sys.modules]
    if loaded:
        raise SystemExit(f"the import-speed probe needs modules not yet imported: {loaded}")
    t0 = time.perf_counter()
    for name in IMPORT_PROBE:
        importlib.import_module(name)
    return time.perf_counter() - t0


def _operations(lagspec, workload: str, seed: int):
    """(kind, long, skipped, repeat, callable, check) per operation, and
    the deadline."""
    import pipeline
    import queries

    if workload in pipeline.PROFILES:
        profile = pipeline.PROFILES[workload]

        def pipeline_ops():
            while True:
                yield (
                    "pipeline",
                    False,
                    0,
                    False,
                    lambda: pipeline.run_pipeline(lagspec, profile),
                    lambda problems: "; ".join(problems) or None,
                )

        return pipeline_ops(), PIPELINE_DEADLINE_S
    if workload != "queries":
        raise SystemExit(f"unknown workload {workload!r}")
    cli = lagspec.cli

    def query_ops():
        for q in queries.stream(seed):
            yield (
                q.kind,
                q.long,
                q.skipped,
                q.repeat,
                lambda q=q: call_cli(cli, q.argv),
                lambda answer, q=q: queries.check(q, *answer),
            )

    return query_ops(), QUERY_DEADLINE_S


def _attempt(run_op, fn, limit):
    """(outcome, value or detail, seconds) of one operation stopped after
    `limit` wall-clock seconds."""
    import signal

    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            value = run_op(fn)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        return "deadline", f"stopped after {limit:.3g} s", time.perf_counter() - t0
    except Exception as e:  # a raising operation is a failed one; the loop goes on
        return "error", repr(e), time.perf_counter() - t0
    return "ok", value, time.perf_counter() - t0


def run(workload: str, seed: int, seconds: float, max_ops, trace: bool, spans_path) -> dict:
    """Traced runs report raw times; untraced ones also scale each
    operation to reference speed with the speed probe (speed.py)."""
    import resource
    import signal
    import statistics

    import speed

    lagspec = import_lagspec()
    tracer = None

    def run_op(fn):
        return fn()

    if trace:
        from tracing import OP, Tracer

        tracer = Tracer()
        tracer.install()
        run_op = tracer.wrap(run_op, OP)
    ops, deadline = _operations(lagspec, workload, seed)
    signal.signal(signal.SIGALRM, _on_alarm)
    probe = None if trace else speed.SpeedProbe()

    records = []
    t_start = time.perf_counter()
    for kind, long, skipped, repeat, fn, check in ops:
        done = time.perf_counter() - t_start
        if records and (len(records) == max_ops or (max_ops is None and done >= seconds)):
            break
        if max_ops is not None and done >= 4 * seconds:
            break  # a traced replay that runs far slower than the untraced run
        first = len(probe.samples) if probe else 0
        outcome, value, elapsed = _attempt(run_op, fn, deadline)
        taken = probe.samples[first:] if probe else []
        if tracer and outcome != "ok":
            tracer.unwind()
        detail = value if outcome != "ok" else check(value)
        if outcome == "ok" and detail is not None:
            outcome = "wrong"
        seconds_net = elapsed - sum(taken)
        record = Record(len(records), kind, long, skipped, repeat, outcome, seconds_net, detail, taken)
        records.append(record)
    if probe:
        probe.stop()

    factors = speed.scale_factors([r.probes for r in records]) if probe else [1.0] * len(records)
    # a failed operation counts at its deadline
    scaled = [r.seconds * f if r.outcome == "ok" else deadline for r, f in zip(records, factors)]
    n = len(records)
    ok = [r for r in records if r.outcome == "ok"]
    latencies = sorted(scaled)
    busy = sum(scaled)
    unscaled = sum(r.seconds for r in records)
    samples = [s for r in records for s in r.probes]
    return {
        "workload": workload,
        "ops": n,
        "ok": len(ok),
        "failed": n - len(ok),
        "correct": not any(r.outcome in ("wrong", "error") for r in records),
        "deadline_s": deadline,
        "scaled_to_reference_speed": bool(probe),
        "busy_s": busy,
        "mean_op_s": busy / n,
        "verdict_s": statistics.median(latencies),
        "p99_s": latencies[max(0, -(-99 * n // 100) - 1)],
        "queries_per_s": len(ok) / busy,
        "unscaled_busy_s": unscaled,
        "unscaled_verdict_s": statistics.median(r.seconds for r in records),
        "unscaled_queries_per_s": len(ok) / unscaled,
        "probe_samples": len(samples),
        "probe_mean_s": statistics.mean(samples) if samples else None,
        "long_share": sum(r.long for r in records) / n,
        "long_skipped": sum(r.skipped for r in records),
        "repeat_share": sum(r.repeat for r in records) / n,
        "long_failed": sum(1 for r in records if r.long and r.outcome != "ok"),
        "failures": [
            {"op": r.op, "kind": r.kind, "long": r.long, "outcome": r.outcome,
             "seconds": r.seconds, "detail": r.detail}
            for r in records
            if r.outcome != "ok"
        ],
        "slowest_ok": [
            {"op": r.op, "kind": r.kind, "long": r.long, "seconds": r.seconds}
            for r in sorted(ok, key=lambda r: -r.seconds)[:5]
        ],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **(_trace_result(tracer, spans_path) if tracer else {}),
    }


def _trace_result(tracer, spans_path) -> dict:
    if spans_path:
        tracer.write(spans_path)
    return {"spans": tracer.summary(), "tallies": tracer.tallies, "span_count": len(tracer.start)}


def main(argv) -> int:
    # setup is timed from a bare interpreter, so it parses no arguments:
    # argparse and json would otherwise be imported before lagspec needs them
    if argv == ["setup"]:
        result = setup()
    else:
        import argparse

        ap = argparse.ArgumentParser(description=__doc__)
        ap.add_argument("mode", choices=["run"])
        ap.add_argument("--workload", required=True)
        ap.add_argument("--seed", type=int, required=True)
        ap.add_argument("--seconds", type=float, required=True)
        ap.add_argument("--ops", type=int, default=None)
        ap.add_argument("--trace", action="store_true")
        ap.add_argument("--spans", default=None)
        args = ap.parse_args(argv)
        result = run(args.workload, args.seed, args.seconds, args.ops, args.trace, args.spans)
    import json

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
