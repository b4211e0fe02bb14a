"""Command-line front end: evaluate, expand, certify, audit.

Each subcommand computes one report, printed once: as one line of JSON
under --structured, as text otherwise.

Exit codes: 0 on success or a certified result, 2 when a certification
is not separated or inconclusive (or an audit/sweep reports findings),
1 on parse or precondition errors.

Parsing: plain argv is read in one pass from the command table, other
argv by an argparse parser built from the same table, only when needed.
An expression that begins with "-" needs "--".  The expression grammar
(lagspec.parsing) loads only for the commands that read an expression or
a word: eval, expand, lambda, sup, limsup, certify-pattern, surgery and
necessity --forbid.
"""

from __future__ import annotations

import os
import re
import sys
from fractions import Fraction
from functools import cache
from time import time
from types import SimpleNamespace

from .bisequence import lambda_at, limsup_lambda, sup_lambda
from .cfrac import EPCF, PeriodNotFoundError, expand
from .certify import (
    _MAX_NODES,
    GAP_CERTIFICATION_ORDER,
    Constraints,
    NotSeparatedError,
    Pattern,
    _check_depth,
    _check_sweep,
    audit_not_attained,
    certify_forbidden,
    gap_constraints,
    pattern_necessity,
)
from .constructions import (alpha0_core_indices, alpha0_prefix, build_a0, c_block,
                            gap_left_endpoint, surgery)
from .quadfield import _MAX_DIGITS, MixedRadicandError, QuadExt, QuadSum, _digits

_SHOWN = 20  # exception lines a necessity report prints as text; --structured lists them all
_MAX_EXPONENT = 4300  # of a threshold; Fraction("1e1000000000") alone runs past 30 s


class CliError(Exception):
    pass


def _value_report(v: QuadSum, digits: int, label: str = "value") -> tuple[int, dict, str]:
    """Exit code, record and text of one exact value."""
    value, decimal = str(v), v.approx(digits)
    terms = [{"a": t.a, "b": t.b, "c": t.c, "d": t.d} for t in v.terms()]
    return 0, {label: value, "terms": terms, "decimal": decimal}, f"{value} ≈ {decimal}"


def _parse_threshold(text: str) -> Fraction:
    if m := re.fullmatch(r"\s*[-+]?[\d_]*\.?[\d_]*[eE]([-+]?)([\d_]+)\s*", text):
        e = m[2].replace("_", "").lstrip("0")  # its length first: no int() of a long digit string
        if len(e) > len(str(_MAX_EXPONENT)) or int(e or 0) > _MAX_EXPONENT:
            e = ("-" if m[1] == "-" else "") + e
            raise CliError(f"threshold exponent {e} exceeds the cap of {_MAX_EXPONENT}")
    if any(len(run) > _MAX_DIGITS for run in re.findall(r"\d+", text.replace("_", ""))):
        raise CliError(f"threshold exceeds the cap of {_MAX_DIGITS} digits")
    try:
        return Fraction(text)
    except ValueError as e:
        raise CliError(f"threshold must be rational: {e}")


def _ratio(q: Fraction) -> str:
    """q as "n/d", past the int-to-str limit too."""
    return f"{_digits(q.numerator)}/{_digits(q.denominator)}"


def _parse_forbidden(text: str | None) -> frozenset[tuple[int, ...]]:
    from .parsing import parse_word
    if not text:
        return frozenset()
    return frozenset(parse_word(part) for part in text.split(";") if part.strip())


# Each handler returns (exit code, record, text); main prints one of the two.
# Handlers call library functions through this module's globals, which
# perfbench/tracing.py rebinds, so keep no table of library functions; the
# handlers that read an expression or a word import the parser's entry
# points where they call them, so that no other command loads it.


def _cmd_eval(args) -> tuple[int, dict, str]:
    from .parsing import evaluate, parse_expression
    return _value_report(evaluate(parse_expression(args.expr)), args.digits)


def _cmd_expand(args) -> tuple[int, dict, str]:
    from .parsing import evaluate, parse_expression
    v = evaluate(parse_expression(args.value))
    try:
        q = v.to_quadext()
    except MixedRadicandError:
        raise CliError("value spans two radicands; expansion needs one field")
    cf = expand(q, max_terms=args.max_terms)
    rec = {"input": str(q), "expansion": str(cf)}
    if isinstance(cf, EPCF):
        rec["preperiod"] = list(cf.preperiod)
        rec["period"] = list(cf.period)
    return 0, rec, rec["expansion"]


def _cmd_lambda(args) -> tuple[int, dict, str]:
    from .parsing import parse_biseq
    lv = lambda_at(parse_biseq(args.biseq), args.index)
    code, rec, text = _value_report(lv.value, args.digits)
    tails = {"left_tail": str(lv.left_tail), "right_tail": str(lv.right_tail)}
    return code, {"index": lv.index, **rec, **tails}, text


def _cmd_sup(args) -> tuple[int, dict, str]:
    from .parsing import parse_biseq
    cert = sup_lambda(parse_biseq(args.biseq), max_window_periods=args.max_window)
    rec = {
        "sup": str(cert.sup),
        "decimal": cert.sup.approx(args.digits),
        "attained": cert.attained,
        "attaining_indices": list(cert.attaining_indices),
        "window": list(cert.window),
        "margin": str(QuadExt.from_rational(cert.margin)),  # past the int-to-str limit too
        "status": cert.status,
    }
    text = (
        f"sup = {rec['sup']} ≈ {rec['decimal']}\n"
        f"attained: {cert.attained} at {rec['attaining_indices']}\n"
        f"window: {rec['window']}  margin: {rec['margin']}\n"
        f"status: {cert.status}"
    )
    return (0 if cert.status == "certified" else 2), rec, text


def _cmd_limsup(args) -> tuple[int, dict, str]:
    from .parsing import parse_biseq
    return _value_report(limsup_lambda(parse_biseq(args.biseq)), args.digits, label="limsup")


def _cmd_certify_pattern(args) -> tuple[int, dict, str]:
    from .parsing import evaluate, parse_expression, parse_word
    pattern = Pattern(parse_word(args.pattern), args.site)
    threshold = evaluate(parse_expression(args.threshold))
    constraints = Constraints(args.alphabet_max, _parse_forbidden(args.forbid))
    relation = None  # how the bounds sit against the threshold when not separated
    try:
        cert, certified = certify_forbidden(pattern, threshold, constraints, args.depth), True
    except NotSeparatedError as e:
        cert, certified, relation = e.certificate, False, e.relation
    lower, upper = (QuadSum(b).approx(args.digits) for b in (cert.lower, cert.upper))
    rec = {
        "pattern": list(cert.pattern.word),
        "site": cert.pattern.site,
        "alphabet_max": cert.constraints.alphabet_max,
        "forbidden": [list(f) for f in sorted(cert.constraints.forbidden)],
        "depth": cert.depth,
        "lower": _ratio(cert.lower),
        "upper": _ratio(cert.upper),
        "lower_decimal": lower,
        "upper_decimal": upper,
        "kind": "site_lower_bound",
        "certified": certified,
    }
    limit = threshold.approx(args.digits)
    text = (
        f"not separated: bounds [{lower}, {upper}] {relation} {threshold} ≈ {limit}"
        if not certified
        else f"certified: lambda at site {pattern.site} of {rec['pattern']}"
        f" >= {lower} > threshold {limit}"
    )
    return (0 if certified else 2), rec, text


def _necessity_record(report) -> dict:
    return {
        "threshold": str(QuadExt.from_rational(report.threshold)),  # past the int-to-str limit too
        "window_len": report.window_len,
        "depth": report.depth,
        "windows_total": report.windows_total,
        "passed_by_bound": report.passed_by_bound,
        "passed_by_pattern": report.passed_by_pattern,
        "exceptions": [list(w) for w in report.exceptions],
        "nodes": report.nodes,
        "holds": report.holds,
    } | ({"status": "inconclusive"} if report.inconclusive else {})


def _cmd_necessity(args) -> tuple[int, dict, str]:
    constraints = Constraints(
        args.alphabet_max,
        _parse_forbidden(args.forbid) if args.forbid is not None else gap_constraints().forbidden,
    )
    report = pattern_necessity(
        _parse_threshold(args.threshold),
        constraints,
        window_len=args.window,
        depth=args.depth,
        max_nodes=args.max_nodes,
    )
    rec = _necessity_record(report)
    counts = report.windows_total, report.passed_by_bound, report.passed_by_pattern
    text = "windows: {}  below threshold: {}  center-pattern: {}".format(*map(_digits, counts))
    text += f"  exceptions: {len(report.exceptions)}"  # _digits: counts past the int-to-str limit
    text += "".join(f"\n  exception: {','.join(map(str, w))}" for w in report.exceptions[:_SHOWN])
    if len(report.exceptions) > _SHOWN:
        text += f"\n  ... and {len(report.exceptions) - _SHOWN} more"
    if report.inconclusive:
        text += f"\ninconclusive: the counts are partial after {args.max_nodes} nodes"
    return (0 if report.holds else 2), rec, text


def _audit(blocks: int, prefix):
    """The block word's audit against the gap endpoint, and its record: from the second
    block's first position to the last block's centre."""
    stop = alpha0_core_indices(blocks)[-1][1]
    start, guard = len(c_block(1)) + 1, len(prefix.tail) - stop
    report = audit_not_attained(prefix, gap_left_endpoint(), start=start, guard=guard)
    return report, {
        "blocks": blocks,
        "word_length": len(prefix.tail),
        "start": report.start,
        "stop": report.stop,
        "guard": report.guard,
        "flagged": list(report.flagged),
        "clean": report.clean,
        "note": "truncated verification on a finite prefix",
    }


def _cmd_audit_alpha0(args) -> tuple[int, dict, str]:
    report, rec = _audit(args.blocks, alpha0_prefix(args.blocks))
    text = (
        f"audited positions {report.start}..{report.stop} of the {args.blocks}-block word"
        f" (guard {report.guard}); flagged: {rec['flagged']}\n"
        f"{'clean' if report.clean else 'NOT clean'} - {rec['note']}"
    )
    return (0 if report.clean else 2), rec, text


def _cmd_certify_gap(args) -> tuple[int, dict, str]:
    """The sup certificate of the reference sequence, the six forbidden patterns in
    cumulative order, the window sweep and the block-word audit; the text times each."""
    # the block word, the forbid stages' and the sweep's checks, then the audit, whose range
    # may be empty: a bad argument runs no other stage
    prefix = alpha0_prefix(args.blocks)
    _check_depth(args.depth)
    _check_sweep(args.window, args.depth, _MAX_NODES)
    t = time()
    audit, audit_rec = _audit(args.blocks, prefix)
    audit_s = time() - t
    lam0, gap = gap_left_endpoint(), gap_constraints()
    lines = [f"gap endpoint: {lam0} ≈ {lam0.approx(7)}"]
    t = time()
    cert = sup_lambda(build_a0())
    indices = list(cert.attaining_indices)
    lines.append(f"[sup] {cert.status}: sup = {cert.sup.approx(7)}, attained at {indices}"
                 f" ({time() - t:.2f}s)")
    steps = []
    for pattern, forbidden in GAP_CERTIFICATION_ORDER:
        t, certified, constraints = time(), True, Constraints(gap.alphabet_max, forbidden)
        try:
            c = certify_forbidden(pattern, lam0, constraints, args.depth)
        except NotSeparatedError as e:
            c, certified = e.certificate, False
        lines.append(
            f"[forbid] {pattern.word} site {pattern.site}: lower"
            f" {QuadSum(c.lower).approx(6)} > endpoint ({time() - t:.2f}s)"
            if certified else f"[forbid] {pattern.word}: NOT separated, bounds {c}"
        )
        steps.append({"pattern": list(pattern.word), "site": pattern.site,
                      "lower": _ratio(c.lower), "certified": certified})
    t = time()
    rep = pattern_necessity(Fraction(3691, 1000), gap, args.window, args.depth)
    lines.append(f"[necessity] windows {_digits(rep.windows_total)}, center-pattern"
                 f" {_digits(rep.passed_by_pattern)}, exceptions {len(rep.exceptions)}"
                 f" ({time() - t:.2f}s)")
    lines.append(f"[audit] positions {audit.start}..{audit.stop}: flagged {list(audit.flagged)}"
                 f" ({audit_s:.2f}s)  [truncated verification on a finite prefix]")
    ok = (cert.status == "certified" and cert.sup == lam0 and rep.holds and audit.clean
          and all(step["certified"] for step in steps))
    lines.append("ALL CERTIFIED" if ok else "CERTIFICATION FAILED")
    rec = {
        "window": args.window, "depth": args.depth, "blocks": args.blocks,
        "sup": {"sup": str(cert.sup), "status": cert.status, "attaining_indices": indices},
        "forbidden": steps,
        "necessity": _necessity_record(rep),
        "audit": audit_rec,
        "certified": ok,
    }
    return (0 if ok else 2), rec, "\n".join(lines)


def _cmd_surgery(args) -> tuple[int, dict, str]:
    from .parsing import parse_word
    result = surgery(parse_word(args.word), args.n1, args.n2)
    rec = {
        "c1": list(result.c1),
        "c2": list(result.c2),
        "chosen": result.chosen,
        "witness_index": result.witness_index,
    }
    text = (
        f"c1: {','.join(map(str, result.c1))}\n"
        f"c2: {','.join(map(str, result.c2))}\n"
        f"chosen: {result.chosen}  witness_index: {result.witness_index}"
    )
    return 0, rec, text


def _cmd_construct(args) -> tuple[int, dict, str]:
    text = str(build_a0() if args.object == "a0" else alpha0_prefix(args.blocks))
    return 0, {"object": args.object, "value": text}, text


_STRUCTURED = {"action": "store_true", "default": False, "help": "machine-readable output"}
_DIGITS = {"type": int, "default": 7}
_ALPHABET_MAX = {"type": int, "default": gap_constraints().alphabet_max}

# Per subcommand: its help, its handler, and each argument's name or option
# string with its add_argument keywords, in --help order.  Only type,
# default, required, choices, help and the store_true action occur, and no
# default is a str (argparse would pass one through type).
_COMMANDS = {
    name: (text, fn, {"--structured": _STRUCTURED} | arguments)
    for name, text, fn, arguments in (
        ("eval", "evaluate an expression exactly", _cmd_eval, {"expr": {}, "--digits": _DIGITS}),
        ("expand", "continued fraction expansion with period detection", _cmd_expand,
         {"value": {}, "--max-terms": {"type": int, "default": 512}}),
        ("lambda", "two-sided value of a sequence at an index", _cmd_lambda,
         {"biseq": {}, "--index": {"type": int, "required": True}, "--digits": _DIGITS}),
        ("sup", "certified sup of the two-sided values", _cmd_sup,
         {"biseq": {}, "--max-window": {"type": int, "default": 12}, "--digits": _DIGITS}),
        ("limsup", "exact limsup of the two-sided values", _cmd_limsup,
         {"biseq": {}, "--digits": _DIGITS}),
        ("certify-pattern", "forbidden-pattern certificate", _cmd_certify_pattern, {
            "pattern": {"help": 'comma list, e.g. "3,1"'},
            "--site": {"type": int, "default": 0},
            "--threshold": {"required": True, "help": "expression, e.g. the gap endpoint"},
            "--alphabet-max": _ALPHABET_MAX,
            "--forbid": {"help": 'semicolon-separated patterns, e.g. "1,3;3,1"'},
            "--depth": {"type": int, "default": 25},
            "--digits": _DIGITS,
        }),
        ("necessity", "window sweep for the center-pattern claim", _cmd_necessity, {
            "--threshold": {"required": True, "help": 'rational, e.g. "3691/1000"'},
            "--window": {"type": int, "default": 15},
            "--depth": {"type": int, "default": 25},
            "--alphabet-max": _ALPHABET_MAX,
            "--forbid": {"help": "override the default forbidden list"},
            "--max-nodes": {
                "type": int, "default": _MAX_NODES, "help": "search budget (default: %(default)s)"
            },
        }),
        ("audit-alpha0", "non-attainability audit of the block word", _cmd_audit_alpha0,
         {"--blocks": {"type": int, "default": 8}}),
        ("certify-gap", "the full certification pipeline for the gap endpoint", _cmd_certify_gap, {
            "--window": {"type": int, "default": 15},
            "--depth": {"type": int, "default": 25},
            "--blocks": {"type": int, "default": 8},
        }),
        ("surgery", "delete/duplicate a repeated segment", _cmd_surgery, {
            "word": {"help": 'comma list, e.g. "2,1,2,1,3"'},
            "--n1": {"type": int, "required": True},
            "--n2": {"type": int, "required": True},
        }),
        ("construct", "print a reference object", _cmd_construct,
         {"object": {"choices": ["a0", "alpha0"]}, "--blocks": {"type": int, "default": 8}}),
    )
}


@cache
def _parser():
    """The argparse parser of _COMMANDS, for the argv that _parse_plain declines."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise CliError(message)

    # --help shows the docstring without its note on parsing
    p = _Parser(prog="lagspec", description=__doc__.partition("\nParsing:")[0])
    sub = p.add_subparsers(dest="command", required=True)
    for name, (text, fn, arguments) in _COMMANDS.items():
        sp = sub.add_parser(name, help=text)
        sp.set_defaults(fn=fn)
        for arg, keywords in arguments.items():
            sp.add_argument(arg, **keywords)
    return p


def _parse_plain(argv) -> SimpleNamespace | None:
    """_parser().parse_args(argv) for a plain argv: an exact subcommand, then
    positionals not starting with "-" and exact, unrepeated option strings,
    each value the next token (an ASCII negative integer too: argparse takes
    one as a value).  Otherwise, or if a type or choice fails, None."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, fn, arguments = _COMMANDS[argv[0]]
    positionals = (name for name in arguments if name[0] != "-")
    given, tokens = {}, iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            name = next(positionals, None)
        elif (name := token) in arguments and "action" not in arguments[name]:
            token = next(tokens, "-")  # a missing value reads as "-", which declines
            if token[:1] == "-" and not (token[1:].isascii() and token[1:].isdigit()):
                return None
        keywords = arguments.get(name)
        if keywords is None or name in given:
            return None
        if "action" in keywords:  # store_true
            given[name] = True
            continue
        try:
            value = keywords["type"](token) if "type" in keywords else token
        except (TypeError, ValueError):
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        given[name] = value
    values = {"command": argv[0], "fn": fn}
    for name, keywords in arguments.items():
        if name not in given and (name[0] != "-" or keywords.get("required")):
            return None  # a positional or a required option is missing
        values[name.lstrip("-").replace("-", "_")] = given.get(name, keywords.get("default"))
    return SimpleNamespace(**values)


def _json(record) -> str:
    """The record as one line of JSON; integers past the interpreter's
    int-to-str limit print in full, still as JSON numbers."""
    import json  # here, so that a text report never loads it

    try:
        return json.dumps(record)
    except ValueError:  # such an integer; mark each, then write it out
        big = []

    def mark(x):
        if isinstance(x, int) and x.bit_length() > 10_000:
            big.append(_digits(x))
            return f"\0{len(big) - 1}"  # no computed record string holds a NUL
        if isinstance(x, dict):
            return {k: mark(v) for k, v in x.items()}
        return list(map(mark, x)) if isinstance(x, list) else x

    return re.sub(r'"\\u0000(\d+)"', lambda m: big[int(m[1])], json.dumps(mark(record)))


def main(argv=None) -> int:
    try:
        args = _parse_plain(sys.argv[1:] if argv is None else argv) or _parser().parse_args(argv)
        code, record, text = args.fn(args)
    except MemoryError:  # inside every cap, a wide or deep sweep can still exhaust memory
        print("error: out of memory", file=sys.stderr)
        return 1
    except (CliError, ValueError, MixedRadicandError, ZeroDivisionError, PeriodNotFoundError) as e:
        print(f"{getattr(e, 'label', 'error')}: {e}", file=sys.stderr)  # a syntax error's own label
        return 1
    try:
        print(_json(record) if args.structured else text, flush=True)
    except BrokenPipeError:  # a closed stdout: keep the exit flush quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
