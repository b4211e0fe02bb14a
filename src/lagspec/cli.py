"""Command-line front end: evaluate, expand, certify, audit.

Each subcommand computes one report, printed once: as one line of JSON
under --structured, as text otherwise.

Exit codes: 0 on success or a certified result, 2 when a certification
is not separated or inconclusive (or an audit/sweep reports findings),
1 on parse or precondition errors.

Parsing: plain argv is read in one pass from the parser's own actions,
other argv by argparse.  An expression that begins with "-" needs "--".
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .bisequence import lambda_at, limsup_lambda, sup_lambda
from .cfrac import EPCF, PeriodNotFoundError, expand
from .certify import (
    _MAX_NODES,
    Constraints,
    NotSeparatedError,
    Pattern,
    audit_not_attained,
    certify_forbidden,
    gap_constraints,
    pattern_necessity,
)
from .constructions import alpha0_prefix, build_a0, gap_left_endpoint, surgery
from .parsing import (
    ExprSyntaxError,
    evaluate,
    parse_biseq,
    parse_expression,
    parse_word,
)
from .quadfield import MixedRadicandError, QuadSum, _digits


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _value_report(v: QuadSum, digits: int, label: str = "value") -> tuple[int, dict, str]:
    """Exit code, record and text of one exact value."""
    decimal = v.approx(digits)
    terms = [{"a": t.a, "b": t.b, "c": t.c, "d": t.d} for t in v.terms()]
    return 0, {label: str(v), "terms": terms, "decimal": decimal}, f"{v} ≈ {decimal}"


def _parse_threshold(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ValueError as e:
        raise CliError(f"threshold must be rational: {e}")


def _parse_forbidden(text: str | None) -> frozenset[tuple[int, ...]]:
    if not text:
        return frozenset()
    return frozenset(parse_word(part) for part in text.split(";") if part.strip())


# Each handler returns (exit code, record, text); main prints one of the two.
# Handlers call library functions through this module's globals, which
# perfbench/tracing.py rebinds, so keep no table of function references.


def _cmd_eval(args) -> tuple[int, dict, str]:
    return _value_report(evaluate(parse_expression(args.expr)), args.digits)


def _cmd_expand(args) -> tuple[int, dict, str]:
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
    lv = lambda_at(parse_biseq(args.biseq), args.index)
    code, rec, text = _value_report(lv.value, args.digits)
    tails = {"left_tail": str(lv.left_tail), "right_tail": str(lv.right_tail)}
    return code, {"index": lv.index, **rec, **tails}, text


def _cmd_sup(args) -> tuple[int, dict, str]:
    cert = sup_lambda(parse_biseq(args.biseq), max_window_periods=args.max_window)
    rec = {
        "sup": str(cert.sup),
        "decimal": cert.sup.approx(args.digits),
        "attained": cert.attained,
        "attaining_indices": list(cert.attaining_indices),
        "window": list(cert.window),
        "margin": str(cert.margin),
        "status": cert.status,
    }
    text = (
        f"sup = {cert.sup} ≈ {rec['decimal']}\n"
        f"attained: {cert.attained} at {rec['attaining_indices']}\n"
        f"window: {rec['window']}  margin: {cert.margin}\n"
        f"status: {cert.status}"
    )
    return (0 if cert.status == "certified" else 2), rec, text


def _cmd_limsup(args) -> tuple[int, dict, str]:
    return _value_report(limsup_lambda(parse_biseq(args.biseq)), args.digits, label="limsup")


def _cmd_certify_pattern(args) -> tuple[int, dict, str]:
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
        "lower": f"{_digits(cert.lower.numerator)}/{_digits(cert.lower.denominator)}",
        "upper": f"{_digits(cert.upper.numerator)}/{_digits(cert.upper.denominator)}",
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
    rec = {
        "threshold": str(report.threshold),
        "window_len": report.window_len,
        "depth": report.depth,
        "windows_total": report.windows_total,
        "passed_by_bound": report.passed_by_bound,
        "passed_by_pattern": report.passed_by_pattern,
        "exceptions": [list(w) for w in report.exceptions],
        "nodes": report.nodes,
        "holds": report.holds,
    }
    counts = report.windows_total, report.passed_by_bound, report.passed_by_pattern
    text = "windows: {}  below threshold: {}  center-pattern: {}".format(*map(_digits, counts))
    text += f"  exceptions: {len(report.exceptions)}"  # _digits: counts past the int-to-str limit
    text += "".join(f"\n  exception: {','.join(map(str, w))}" for w in report.exceptions)
    if report.inconclusive:
        rec["status"] = "inconclusive"
        text += f"\ninconclusive: the counts are partial after {args.max_nodes} nodes"
    return (0 if report.holds else 2), rec, text


def _cmd_audit_alpha0(args) -> tuple[int, dict, str]:
    prefix = alpha0_prefix(args.blocks)
    guard = args.guard if args.guard is not None else 2 * args.blocks + 3
    report = audit_not_attained(prefix, gap_left_endpoint(), start=args.start, guard=guard)
    rec = {
        "blocks": args.blocks,
        "word_length": len(prefix.tail),
        "start": report.start,
        "stop": report.stop,
        "guard": report.guard,
        "flagged": list(report.flagged),
        "clean": report.clean,
        "note": "truncated verification on a finite prefix",
    }
    text = (
        f"audited positions {report.start}..{report.stop} of the {args.blocks}-block word"
        f" (guard {report.guard}); flagged: {rec['flagged']}\n"
        f"{'clean' if report.clean else 'NOT clean'} - {rec['note']}"
    )
    return (0 if report.clean else 2), rec, text


def _cmd_surgery(args) -> tuple[int, dict, str]:
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


def _build_parser() -> _Parser:
    # --help shows the docstring without its note on parsing
    p = _Parser(prog="lagspec", description=__doc__.partition("\nParsing:")[0])
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        sp.add_argument("--structured", action="store_true", help="machine-readable output")
        return sp

    sp = add("eval", _cmd_eval, help="evaluate an expression exactly")
    sp.add_argument("expr")
    sp.add_argument("--digits", type=int, default=7)

    sp = add("expand", _cmd_expand, help="continued fraction expansion with period detection")
    sp.add_argument("value")
    sp.add_argument("--max-terms", type=int, default=512)

    sp = add("lambda", _cmd_lambda, help="two-sided value of a sequence at an index")
    sp.add_argument("biseq")
    sp.add_argument("--index", type=int, required=True)
    sp.add_argument("--digits", type=int, default=7)

    sp = add("sup", _cmd_sup, help="certified sup of the two-sided values")
    sp.add_argument("biseq")
    sp.add_argument("--max-window", type=int, default=12)
    sp.add_argument("--digits", type=int, default=7)

    sp = add("limsup", _cmd_limsup, help="exact limsup of the two-sided values")
    sp.add_argument("biseq")
    sp.add_argument("--digits", type=int, default=7)

    sp = add("certify-pattern", _cmd_certify_pattern, help="forbidden-pattern certificate")
    sp.add_argument("pattern", help='comma list, e.g. "3,1"')
    sp.add_argument("--site", type=int, default=0)
    sp.add_argument("--threshold", required=True, help="expression, e.g. the gap endpoint")
    sp.add_argument("--alphabet-max", type=int, default=3)
    sp.add_argument("--forbid", help='semicolon-separated patterns, e.g. "1,3;3,1"')
    sp.add_argument("--depth", type=int, default=25)
    sp.add_argument("--digits", type=int, default=7)

    sp = add("necessity", _cmd_necessity, help="window sweep for the center-pattern claim")
    sp.add_argument("--threshold", required=True, help='rational, e.g. "3691/1000"')
    sp.add_argument("--window", type=int, default=15)
    sp.add_argument("--depth", type=int, default=25)
    sp.add_argument("--alphabet-max", type=int, default=3)
    sp.add_argument("--forbid", help="override the default forbidden list")
    sp.add_argument(
        "--max-nodes", type=int, default=_MAX_NODES, help="search budget (default: %(default)s)"
    )

    sp = add("audit-alpha0", _cmd_audit_alpha0, help="non-attainability audit of the block word")
    sp.add_argument("--blocks", type=int, default=8)
    sp.add_argument("--start", type=int, default=12)
    sp.add_argument("--guard", type=int, default=None)

    sp = add("surgery", _cmd_surgery, help="delete/duplicate a repeated segment")
    sp.add_argument("word", help='comma list, e.g. "2,1,2,1,3"')
    sp.add_argument("--n1", type=int, required=True)
    sp.add_argument("--n2", type=int, required=True)

    sp = add("construct", _cmd_construct, help="print a reference object")
    sp.add_argument("object", choices=["a0", "alpha0"])
    sp.add_argument("--blocks", type=int, default=8)

    return p


def _plain_table(parser) -> dict:
    """Per subcommand of help, one-value store and store_true actions, none
    with a str default: options by string and positionals by index, the
    required dests, and the defaults with fn and command."""
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    table = {}
    for name, sp in sub.choices.items():
        acts = [a for a in sp._actions if type(a) is not argparse._HelpAction]
        if all(type(a) in (argparse._StoreAction, argparse._StoreTrueAction)
               and a.nargs in (None, 0) and type(a.default) is not str for a in acts):
            actions = {s: a for a in acts for s in a.option_strings}
            actions.update(enumerate(a for a in acts if not a.option_strings))
            defaults = {a.dest: a.default for a in acts} | sp._defaults | {sub.dest: name}
            table[name] = actions, {a.dest for a in acts if a.required}, defaults  # positionals too
    return table


_PARSER = _build_parser()
_PLAIN = _plain_table(_PARSER)


def _parse_plain(argv) -> argparse.Namespace | None:
    """_PARSER.parse_args(argv) for a plain argv: an exact subcommand, then
    positionals not starting with "-" and exact, unrepeated option strings,
    each value the next token (an ASCII negative integer too: argparse takes
    one as a value).  Otherwise, or if a type or choice fails, None."""
    if not argv or argv[0] not in _PLAIN:
        return None
    actions, required, defaults = _PLAIN[argv[0]]
    given, tokens, n = {}, iter(argv[1:]), 0
    for token in tokens:
        if token[:1] != "-":
            action, n = actions.get(n), n + 1  # the next positional
        elif (action := actions.get(token)) is not None and action.nargs is None:
            token = next(tokens, "-")  # a missing value reads as "-", which declines
            if token[:1] == "-" and not (token[1:].isascii() and token[1:].isdigit()):
                return None
        if action is None or action.dest in given:
            return None
        if action.nargs == 0:  # store_true
            given[action.dest] = action.const
            continue
        try:
            value = token if action.type is None else action.type(token)
        except (TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        given[action.dest] = value
    return argparse.Namespace(**(defaults | given)) if required <= given.keys() else None


def _json(record) -> str:
    """The record as one line of JSON; integers past the interpreter's
    int-to-str limit print in full, still as JSON numbers."""
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
        args = _parse_plain(sys.argv[1:] if argv is None else argv) or _PARSER.parse_args(argv)
        code, record, text = args.fn(args)
    except ExprSyntaxError as e:
        print(f"syntax error: {e}", file=sys.stderr)
        return 1
    except (CliError, ValueError, MixedRadicandError, ZeroDivisionError, PeriodNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        print(_json(record) if args.structured else text, flush=True)
    except BrokenPipeError:  # a closed stdout: keep the exit flush quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
