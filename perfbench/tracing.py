"""Spans around lagspec's public functions, installed from outside the library.

Each traced function is replaced, in every lagspec module that binds it,
by a wrapper that records one span: name, start, end and parent.  Spans
are kept in flat arrays while the workload runs and are only summarised
or written out after it ends, so tracing adds no I/O to the measured
interval.  The library's sources are not modified.
"""

from __future__ import annotations

import json
import operator
import sys
import time
from array import array

# span name -> (module, attribute) pairs to wrap, plus an optional tally:
# (suffix, combine, fn(args, result) -> int) accumulated over the run.
_FUNCTIONS = {
    "quadfield.squarefree_decompose": (
        [("quadfield", "squarefree_decompose")],
        ("max_bits", max, lambda a, r: a[0].bit_length()),
    ),
    "cfrac.eval_periodic": ([("cfrac", "eval_periodic")], None),
    "cfrac.expand": (
        [("cfrac", "expand")],
        ("terms", operator.add, lambda a, r: _quotients(r)),
    ),
    "cfrac.convergents": (
        [("cfrac", "convergents")],
        ("terms", operator.add, lambda a, r: len(r)),
    ),
    "cfrac.cylinder": ([("cfrac", "cylinder")], None),
    "cfrac.eval_finite": ([("cfrac", "eval_finite")], None),
    "bisequence.lambda_at": ([("bisequence", "lambda_at")], None),
    "bisequence.sup_lambda": ([("bisequence", "sup_lambda")], None),
    "certify.pattern_necessity": (
        [("certify", "pattern_necessity")],
        ("windows", operator.add, lambda a, r: r.windows_total),
    ),
    "certify.site_lambda_bounds": ([("certify", "site_lambda_bounds")], None),
    "certify.one_sided_lambda_bracket": (
        [("certify", "one_sided_lambda_bracket")],
        None,
    ),
    "certify.audit_not_attained": (
        [("certify", "audit_not_attained")],
        ("positions", operator.add, lambda a, r: r.stop - r.start + 1),
    ),
    "constructions.build": (
        [
            ("constructions", "gap_left_endpoint"),
            ("constructions", "build_a0"),
            ("constructions", "alpha0_prefix"),
        ],
        None,
    ),
    "parsing.parse": (
        [
            ("parsing", "parse_expression"),
            ("parsing", "parse_biseq"),
            ("parsing", "parse_cf"),
            ("parsing", "parse_word"),
        ],
        None,
    ),
    "parsing.evaluate": ([("parsing", "evaluate")], None),
    "cli.main": ([("cli", "main")], None),
}

_COMPARISONS = ("__lt__", "__le__", "__gt__", "__ge__", "__eq__")

OP = "bench.op"


def _quotients(cf) -> int:
    if hasattr(cf, "period"):
        return 1 + len(cf.preperiod) + len(cf.period)
    return len(cf.word)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # per span: name id, stored as ~id when nested in a span of the
        # same name; start and end in perf_counter_ns; parent index or -1
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: list[int] = []
        self._open: list[int] = []  # open spans per name id
        self.tallies: dict[str, int] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return self._ids[name]

    def wrap(self, fn, name: str, tally=None):
        nid = self._id(name)
        key, combine, measure = tally if tally else (None, None, None)
        if key:
            key = f"{name}.{key}"
            self.tallies.setdefault(key, 0)
        name_ids, starts, ends, parents = self.name, self.start, self.end, self.parent
        stack, opened, tallies, clock = self._stack, self._open, self.tallies, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(~nid if opened[nid] else nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            opened[nid] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                opened[nid] -= 1
                stack.pop()
            if key:
                tallies[key] = combine(tallies[key], measure(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def unwind(self) -> None:
        """Close spans left open by an exception raised inside the tracer
        itself (a deadline signal can land between its statements)."""
        now = time.perf_counter_ns()
        for idx in self._stack:
            if self.end[idx] == 0:
                self.end[idx] = now
        self._stack.clear()
        self._open[:] = [0] * len(self._open)

    def install(self) -> None:
        """Wrap every listed function wherever a lagspec module binds it."""
        modules = [m for n, m in sys.modules.items() if n == "lagspec" or n.startswith("lagspec.")]
        for name, (targets, tally) in _FUNCTIONS.items():
            for mod_name, attr in targets:
                original = getattr(sys.modules.get(f"lagspec.{mod_name}"), attr, None)
                if original is None:
                    continue
                wrapped = self.wrap(original, name, tally)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
        quadfield = sys.modules["lagspec.quadfield"]
        for cls_name in ("QuadExt", "QuadSum"):
            cls = getattr(quadfield, cls_name, None)
            for meth in _COMPARISONS:
                original = cls.__dict__.get(meth) if cls else None
                if original is not None:
                    setattr(cls, meth, self.wrap(original, "quadfield.compare"))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds of the outermost calls,
        and self seconds (duration minus the time direct children cover)."""
        n = len(self.start)
        child = [0] * n
        parents, starts, ends = self.parent, self.start, self.end
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        incl = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        calls = [0] * len(self.names)
        for i, raw in enumerate(self.name):
            nid = raw if raw >= 0 else ~raw
            dur = ends[i] - starts[i]
            calls[nid] += 1
            self_ns[nid] += dur - child[i]
            if raw >= 0:
                incl[nid] += dur
        return {
            name: {"calls": calls[nid], "s": incl[nid] / 1e9, "self_s": self_ns[nid] / 1e9}
            for nid, name in enumerate(self.names)
        }

    def write(self, path: str) -> None:
        """Write the spans as a JSON header line followed by the four
        arrays (name, start, end, parent) in native byte order."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name", "i"], ["start_ns", "q"], ["end_ns", "q"], ["parent", "i"]],
            "nested_name": "~id marks a span nested in a span of the same name",
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.start, self.end, self.parent):
                arr.tofile(f)
