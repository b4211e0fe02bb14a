import argparse
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import deadline
from test_acceptance import PIPELINE_REPORT
from lagspec import cli
from lagspec.bisequence import lambda_at, sup_lambda
from lagspec.certify import (
    Constraints,
    NecessityReport,
    NotSeparatedError,
    Pattern,
    certify_forbidden,
    gap_constraints,
    site_lambda_bounds,
)
from lagspec.cli import main
from lagspec.constructions import gap_left_endpoint
from lagspec.parsing import parse_biseq

LAM0_EXPR = "[3;3,3,2,1,(1,2)]+[0;2,1,(1,2)]"
A0_TEXT = "<(2,1) | 1,2,3,3*,3,2,1 | (1,2)>"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", LAM0_EXPR, "--digits", "7")
    assert code == 0
    assert out.strip() == "(62976-1498*sqrt(3))/16357 ≈ 3.6914708"


def test_eval_structured(capsys):
    code, out, _ = run(capsys, "eval", LAM0_EXPR, "--structured")
    assert code == 0
    rec = json.loads(out)
    assert rec["value"] == "(62976-1498*sqrt(3))/16357"
    assert rec["decimal"] == "3.6914708"
    assert rec["terms"] == [{"a": 62976, "b": -1498, "c": 16357, "d": 3}]


def test_eval_deterministic(capsys):
    _, out1, _ = run(capsys, "eval", LAM0_EXPR)
    _, out2, _ = run(capsys, "eval", LAM0_EXPR)
    assert out1 == out2


def test_values_print_past_the_int_to_str_limit(capsys):
    # the coefficients at index 10000 have about 5700 digits, past the
    # interpreter's 4300-digit int-to-str limit, in str() and in the record
    argv = ["lambda", A0_TEXT, "--index", "10000"]
    code, text, _ = run(capsys, *argv)
    assert code == 0
    code, out, _ = run(capsys, *argv, "--structured")
    rec = json.loads(out, parse_int=str)  # JSON numbers, read back as digits
    assert code == 0 and text.startswith(rec["value"] + " ≈ ")
    (term,) = rec["terms"]
    a, b, c, d = (term[k] for k in "abcd")
    assert rec["value"] == f"({a}+{b}*sqrt({d}))/{c}" and len(a) > 4300
    (exact,) = lambda_at(parse_biseq(A0_TEXT), 10000).value.terms()
    for digits, n in zip((a, b, c, d), (exact.a, exact.b, exact.c, exact.d)):
        head = max(len(digits) - 1000, 0)
        assert int(digits[:1000]) == n // 10**head and int(digits[-1000:]) == n % 10**1000


def test_lambda_far_outside_the_core_exits_1(capsys):
    # the tails 10**11 places out would have preperiods of 10**11 terms
    with deadline(5, "lambda --index 100000000000"):
        code, out, err = run(capsys, "lambda", A0_TEXT, "--index", "100000000000")
    assert code == 1 and out == ""
    assert err == "error: index 100000000000 lies more than 100000 places outside the core\n"


@pytest.mark.parametrize("command", [("construct", "alpha0"), ("audit-alpha0",)])
def test_alpha0_above_the_block_cap_exits_1(capsys, command):
    # 10,000 blocks are 200 million symbols
    with deadline(5, f"{command[0]} --blocks 10000"):
        code, out, err = run(capsys, *command, "--blocks", "10000")
    assert (code, out) == (1, "")
    assert err == "error: 10000 blocks exceed the cap of 1000\n"


def test_lambda(capsys):
    code, out, _ = run(capsys, "lambda", A0_TEXT, "--index", "0", "--digits", "5")
    assert code == 0
    assert out.startswith("(246+sqrt(3))/69 ≈ 3.59032")
    code, out, _ = run(capsys, "lambda", A0_TEXT, "--index", "1", "--digits", "7")
    assert out.startswith("(62976-1498*sqrt(3))/16357")


def test_expand(capsys):
    code, out, _ = run(capsys, "expand", "[0;(1,2)]", "--max-terms", "50")
    assert code == 0 and out.strip() == "[0;(1,2)]"
    code, out, _ = run(capsys, "expand", "1/3")
    assert code == 0 and out.strip() == "[0;3]"


def test_sup_certified(capsys):
    code, out, _ = run(capsys, "sup", A0_TEXT, "--structured")
    assert code == 0
    rec = json.loads(out)
    assert rec["attained"] is True
    assert rec["attaining_indices"] == [-1, 1]
    assert rec["status"] == "certified"
    assert rec["sup"] == "(62976-1498*sqrt(3))/16357"


def test_sup_inconclusive_exit_2(capsys):
    code, out, _ = run(capsys, "sup", A0_TEXT, "--max-window", "1")
    assert code == 2
    assert "inconclusive" in out


def test_sup_nonpositive_max_window_exit_1(capsys):
    for k in ("0", "-2"):
        code, out, err = run(capsys, "sup", A0_TEXT, "--max-window", k)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "max_window_periods" in err


def test_limsup(capsys):
    code, out, _ = run(capsys, "limsup", A0_TEXT, "--digits", "6")
    assert code == 0
    assert out.strip() == "2*sqrt(3) ≈ 3.464102"


@pytest.mark.parametrize(
    "argv, key, prefix",
    [
        (["eval", LAM0_EXPR], "value", ""),
        (["eval", "[0;(2)]-[0;(1)]"], "value", ""),  # two fields, printed with " - "
        (["eval", "0-7/3"], "value", ""),
        (["lambda", A0_TEXT, "--index", "1"], "value", ""),
        (["limsup", A0_TEXT], "limsup", ""),
        (["sup", A0_TEXT], "sup", "sup = "),
        (["sup", A0_TEXT, "--max-window", "1"], "sup", "sup = "),  # inconclusive, exit 2
    ],
)
def test_text_and_record_carry_the_same_value(capsys, argv, key, prefix):
    # each value is rendered once, for the record and the text alike
    code, out, _ = run(capsys, *argv, "--structured")
    rec = json.loads(out)
    text_code, text, _ = run(capsys, *argv)
    assert text_code == code
    assert text.splitlines()[0] == f"{prefix}{rec[key]} ≈ {rec['decimal']}"


def test_certify_pattern_exit_codes(capsys):
    code, out, _ = run(
        capsys,
        "certify-pattern", "3,1", "--site", "0",
        "--threshold", LAM0_EXPR, "--alphabet-max", "3", "--depth", "20",
    )
    assert code == 0 and "certified" in out
    code, out, _ = run(
        capsys,
        "certify-pattern", "2,2", "--site", "0", "--threshold", LAM0_EXPR, "--depth", "20",
    )
    assert code == 2 and "not separated" in out


def test_certify_pattern_says_lie_below_when_both_bounds_are_under(capsys):
    cases = (
        ("3,3,3", "1", LAM0_EXPR, "20", "[3.5275252, 3.6127897] lie below (62976-1498*sqrt(3))/16357 ≈ 3.6914708"),
        ("2,2", "0", "3", "20", "[2.6220202, 3.2330303] straddle 3 ≈ 3.0000000"),
        # a threshold equal to the lower bound is not separated: the bound must exceed it
        ("3,1", "0", "15/4", "1", "[3.7500000, 4.8000000] straddle 15/4 ≈ 3.7500000"),
    )
    for pattern, site, threshold, depth, text in cases:
        argv = ["certify-pattern", pattern, "--site", site, "--threshold", threshold, "--depth", depth]
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (2, f"not separated: bounds {text}\n")
        code, out, _ = run(capsys, *argv, "--structured")
        assert code == 2 and json.loads(out)["certified"] is False
    with pytest.raises(NotSeparatedError, match=r"\] lie below the threshold"):
        certify_forbidden(Pattern((3, 3, 3), 1), Fraction(3691, 1000), Constraints(3), 20)


def test_certify_pattern_structured(capsys):
    code, out, _ = run(
        capsys,
        "certify-pattern", "3,2,2", "--site", "0", "--threshold", LAM0_EXPR,
        "--forbid", "1,3;3,1", "--depth", "25", "--structured",
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["certified"] is True
    assert rec["pattern"] == [3, 2, 2]
    assert rec["forbidden"] == [[1, 3], [3, 1]]
    num, den = rec["lower"].split("/")
    assert int(den) > 0


def _read_int(digits):
    """A decimal string of any length, read in chunks below the int-to-str limit."""
    n = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i : i + 1000]
        n = n * 10 ** len(chunk) + int(chunk)
    return n


@pytest.mark.parametrize("pattern, site, exit_code", [("3,1", 0, 0), ("3,3,3", 1, 2)])
def test_certify_pattern_past_the_int_to_str_limit(capsys, pattern, site, exit_code):
    # at depth 20000 the bounds' terms have over 13,000 digits
    argv = ["certify-pattern", pattern, "--site", str(site), "--threshold", LAM0_EXPR, "--depth", "20000"]
    code, text, _ = run(capsys, *argv)
    assert code == exit_code and text.startswith(("certified", "not separated"))
    code, out, _ = run(capsys, *argv, "--structured")
    assert code == exit_code
    rec = json.loads(out)
    cert = site_lambda_bounds(Pattern(tuple(map(int, pattern.split(","))), site), Constraints(3), 20000)
    assert len(rec["lower"]) > 4300
    for key, bound in (("lower", cert.lower), ("upper", cert.upper)):
        num, den = rec[key].split("/")
        assert Fraction(_read_int(num), _read_int(den)) == bound


BIG = "9" * 4300  # a quotient of 4300 digits: twice it is past the int-to-str limit


def test_sup_margin_prints_past_the_int_to_str_limit(capsys):
    argv = ["sup", f"<(1) | 2*,{BIG} | (1)>"]
    code, text, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    code, out, err = run(capsys, *argv, "--structured")
    rec = json.loads(out)
    assert (code, err, rec["status"]) == (0, "", "certified")
    num, den = rec["margin"].split("/")
    margin = sup_lambda(parse_biseq(argv[1])).margin
    assert Fraction(_read_int(num), _read_int(den)) == margin and len(num) > 4300
    assert f"  margin: {rec['margin']}\nstatus: certified" in text


@pytest.mark.parametrize(
    "value, expansion",
    [(f"2*[{BIG}]", f"[1{'9' * 4299}8]"), (f"1/2*[0;{BIG},(1)]", f"[0;1{'9' * 4300},(4)]")],
    ids=["finite", "periodic"],
)
def test_expand_prints_quotients_past_the_int_to_str_limit(capsys, value, expansion):
    code, text, err = run(capsys, "expand", value)
    assert (code, text, err) == (0, expansion + "\n", "")
    code, out, err = run(capsys, "expand", value, "--structured")
    assert (code, err, json.loads(out, parse_int=str)["expansion"]) == (0, "", expansion)


@pytest.mark.parametrize(
    "threshold, printed, exit_code",
    [("1e4300", "1" + "0" * 4300, 0), ("1e-4300", "1/1" + "0" * 4300, 2)],
    ids=["1e4300", "1e-4300"],
)
def test_necessity_threshold_prints_past_the_int_to_str_limit(capsys, threshold, printed,
                                                              exit_code):
    argv = ["necessity", "--threshold", threshold, "--window", "7", "--depth", "1"]
    code, text, err = run(capsys, *argv)
    assert (code, err) == (exit_code, "") and text.startswith("windows: 243  ")
    code, out, err = run(capsys, *argv, "--structured")
    assert (code, err, json.loads(out)["threshold"]) == (exit_code, "", printed)


@pytest.mark.parametrize(
    "threshold, exponent",
    [("1e4301", "4301"), ("1e-4301", "-4301"), ("2.5E+0_4301", "4301"),
     ("1e10000000", "10000000"), ("1e1000000000", "1000000000"), ("1e" + "9" * 5000, "9" * 5000)],
    ids=["1e4301", "1e-4301", "2.5E+0_4301", "1e10000000", "1e1000000000", "5000-digit exponent"],
)
def test_threshold_exponent_above_the_cap_exits_1_before_the_sweep(
    capsys, monkeypatch, threshold, exponent
):
    def refused(*args, **kwargs):
        raise AssertionError("a threshold above the exponent cap reached the sweep")

    monkeypatch.setattr(cli, "pattern_necessity", refused)
    with deadline(5, f"necessity --threshold {threshold[:20]}"):
        code, out, err = run(capsys, "necessity", f"--threshold={threshold}", "--window", "7")
    message = f"error: threshold exponent {exponent} exceeds the cap of 4300\n"
    assert (code, out, err) == (1, "", message)


@pytest.mark.parametrize("threshold", ["1e4300", "-1e-4300", "1E+4300", "3691e-3", "3691/1000"])
def test_threshold_exponent_at_the_cap_reaches_the_sweep(capsys, monkeypatch, threshold):
    seen = []

    def sweep(threshold, *args, **kwargs):
        seen.append(threshold)
        raise ValueError("stopped")

    monkeypatch.setattr(cli, "pattern_necessity", sweep)
    assert run(capsys, "necessity", f"--threshold={threshold}") == (1, "", "error: stopped\n")
    assert seen == [Fraction(threshold)]


@pytest.mark.parametrize("form", ["{}", "0.{}", "1/{}"], ids=["integer", "decimal", "fraction"])
def test_threshold_digits_above_the_cap_exit_1_before_the_sweep(capsys, monkeypatch, form):
    seen = []

    def sweep(threshold, *args, **kwargs):
        seen.append(threshold)
        raise ValueError("stopped")

    monkeypatch.setattr(cli, "pattern_necessity", sweep)
    at_cap, over = form.format("9" * 4300), form.format("9" * 4301)
    assert run(capsys, "necessity", "--threshold", at_cap) == (1, "", "error: stopped\n")
    assert seen == [Fraction(at_cap)]
    message = "error: threshold exceeds the cap of 4300 digits\n"
    assert run(capsys, "necessity", "--threshold", over) == (1, "", message)
    assert len(seen) == 1


# certify-gap: the pipeline scripts/certify_gap.py runs, pinned at --depth 1,
# where three patterns are not separated (every stage's time masked)
GAP_REPORT_AT_DEPTH_1 = """\
gap endpoint: (62976-1498*sqrt(3))/16357 ≈ 3.6914708
[sup] certified: sup = 3.6914708, attained at [-1, 1] (T)
[forbid] (3, 1) site 0: lower 3.750000 > endpoint (T)
[forbid] (1, 3) site 1: lower 3.750000 > endpoint (T)
[forbid] (3, 2, 2): NOT separated, bounds BoundCertificate(pattern=Pattern(word=(3, 2, 2),\
 site=0), constraints=Constraints(alphabet_max=3, forbidden=frozenset({(3, 1), (1, 3)})),\
 depth=1, lower=Fraction(161, 44), upper=Fraction(55, 14))
[forbid] (2, 2, 3): NOT separated, bounds BoundCertificate(pattern=Pattern(word=(2, 2, 3),\
 site=2), constraints=Constraints(alphabet_max=3, forbidden=frozenset({(3, 1), (1, 3)})),\
 depth=1, lower=Fraction(161, 44), upper=Fraction(55, 14))
[forbid] (3, 2, 3): NOT separated, bounds BoundCertificate(pattern=Pattern(word=(3, 2, 3),\
 site=0), constraints=Constraints(alphabet_max=3, forbidden=frozenset({(3, 1), (3, 2, 2),\
 (1, 3), (2, 2, 3)})), depth=1, lower=Fraction(221, 60), upper=Fraction(63, 16))
[forbid] (1, 2, 3, 2, 1) site 2: lower 3.727273 > endpoint (T)
[necessity] windows 77345, center-pattern 70, exceptions 0 (T)
[audit] positions 12..181: flagged [] (T)  [truncated verification on a finite prefix]
CERTIFICATION FAILED
"""


def _masked(text):
    return re.sub(r"\(\d+\.\d\ds\)", "(T)", text)


@pytest.mark.parametrize(
    "argv, stop", [([], 181), (["--window", "15", "--depth", "200", "--blocks", "32"], 2269)]
)
def test_certify_gap_prints_the_pipeline_report(capsys, argv, stop):
    code, out, err = run(capsys, "certify-gap", *argv)
    assert (code, err) == (0, "")
    assert _masked(out) == PIPELINE_REPORT.format(stop=stop)


def test_certify_gap_at_depth_1_is_not_certified(capsys):
    code, out, err = run(capsys, "certify-gap", "--depth", "1")
    assert (code, err, _masked(out)) == (2, "", GAP_REPORT_AT_DEPTH_1)
    code, out, err = run(capsys, "certify-gap", "--depth", "1", "--structured")
    rec = json.loads(out)
    assert (code, err, rec["certified"]) == (2, "", False)
    failed = [(s["pattern"], s["site"], s["lower"]) for s in rec["forbidden"] if not s["certified"]]
    assert failed == [([3, 2, 2], 0, "161/44"), ([2, 2, 3], 2, "161/44"), ([3, 2, 3], 0, "221/60")]


def test_certify_gap_structured_record(capsys):
    code, out, err = run(capsys, "certify-gap", "--structured")
    assert (code, err) == (0, "")
    rec = json.loads(out)
    assert (rec["window"], rec["depth"], rec["blocks"], rec["certified"]) == (15, 25, 8, True)
    assert rec["sup"] == {
        "sup": "(62976-1498*sqrt(3))/16357", "status": "certified", "attaining_indices": [-1, 1]
    }
    steps = [([3, 1], 0), ([1, 3], 1), ([3, 2, 2], 0), ([2, 2, 3], 2), ([3, 2, 3], 0),
             ([1, 2, 3, 2, 1], 2)]
    assert [(s["pattern"], s["site"]) for s in rec["forbidden"]] == steps
    lam0 = gap_left_endpoint()
    for step in rec["forbidden"]:  # the exact lower bound, as certify-pattern writes it
        assert step["certified"] is True and Fraction(step["lower"]) > lam0
    nec, audit = rec["necessity"], rec["audit"]
    counts = nec["windows_total"], nec["passed_by_bound"], nec["passed_by_pattern"]
    assert counts == (77345, 77275, 70) and nec["exceptions"] == [] and nec["holds"] is True
    assert (audit["start"], audit["stop"], audit["guard"]) == (12, 181, 19)
    assert audit["flagged"] == [] and audit["clean"] is True
    # the record holds no times, so a second run prints it again
    assert run(capsys, "certify-gap", "--structured") == (0, out, "")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--blocks", "1001"], "1001 blocks exceed the cap of 1000"),
        (["--window", "5"], "window_len must be at least 7"),
        (["--depth", "-1"], "depth must be nonnegative"),
        (["--depth", "100001"], "depth 100001 exceeds the cap of 100000"),
        (["--window", "20003"], "window_len 20003 exceeds the cap of 20001"),
        (["--depth", "-1", "--window", "5"], "depth must be nonnegative"),
        (["--blocks", "1", "--window", "5"], "window_len must be at least 7"),
    ],
)
def test_certify_gap_bad_argument_exits_1(capsys, monkeypatch, argv, message):
    # every argument is checked before any stage: blocks, then depth, then window,
    # then the block word's audit range
    monkeypatch.setattr(cli, "sup_lambda", lambda *args: pytest.fail("a stage ran"))
    code, out, err = run(capsys, "certify-gap", *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("structured", [[], ["--structured"]])
def test_certify_gap_empty_audit_range_exits_1_before_any_stage(capsys, monkeypatch, structured):
    # one block ends before the second block's first position: the audit range is empty
    for name in ("sup_lambda", "certify_forbidden", "pattern_necessity"):
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: pytest.fail("a stage ran"))
    code, out, err = run(capsys, "certify-gap", "--blocks", "1", *structured)
    message = "error: audit range [12, 6] is empty for a word of length 11\n"
    assert (code, out, err) == (1, "", message)


def test_necessity(capsys):
    code, out, _ = run(capsys, "necessity", "--threshold", "3691/1000", "--window", "9", "--depth", "15")
    assert code == 0
    assert "exceptions: 0" in out


def test_necessity_failing_threshold(capsys):
    code, out, _ = run(
        capsys, "necessity", "--threshold", "3.83", "--window", "7", "--depth", "10", "--forbid", "",
    )
    assert code == 2
    assert "exception" in out


@pytest.mark.parametrize(
    "argv, total",
    [
        (["--threshold", "3.83", "--window", "7", "--depth", "10", "--forbid", ""], 440),
        (["--threshold", "3.83", "--window", "7", "--depth", "5", "--forbid", "1,3;3,1"], 21),
        (["--threshold", "3691/1000", "--window", "7", "--depth", "5"], 2),
    ],
)
def test_necessity_text_lists_the_first_20_exceptions(capsys, argv, total):
    # the text shows at most 20 exceptions and counts the rest; --structured lists every one
    code, out, _ = run(capsys, "necessity", *argv, "--structured")
    exceptions = json.loads(out)["exceptions"]
    assert code == 2 and len(exceptions) == total
    code, text, _ = run(capsys, "necessity", *argv)
    first, *lines = text.splitlines()
    assert code == 2 and first.endswith(f"  exceptions: {total}")
    shown = [f"  exception: {','.join(map(str, w))}" for w in exceptions[:20]]
    assert lines == shown + [f"  ... and {total - 20} more"] * (total > 20)


def test_necessity_node_budget_exit_2(capsys):
    argv = ["necessity", "--threshold", "3691/1000", "--window", "31", "--max-nodes", "100"]
    code, out, _ = run(capsys, *argv)
    assert code == 2 and "inconclusive" in out
    code, out, _ = run(capsys, *argv, "--structured")
    rec = json.loads(out)
    assert code == 2 and rec["status"] == "inconclusive" and rec["holds"] is False
    # a budget the sweep does not reach leaves the record as it is without one
    argv = ["necessity", "--threshold", "3691/1000", "--structured"]
    code, plain, _ = run(capsys, *argv)
    nodes = str(json.loads(plain)["nodes"])
    assert code == 0 and run(capsys, *argv, "--max-nodes", nodes)[1] == plain
    code, _, err = run(capsys, *argv, "--max-nodes", "-1")
    assert code == 1 and "max_nodes" in err


def test_necessity_counts_print_past_the_int_to_str_limit(capsys, monkeypatch):
    # a holding sweep at window 20001 counts a 6,261-digit number of windows;
    # this report of counts that long stands in for that sweep, which takes seconds
    total, by_pattern = 3**13000 + 7, 3**12000 + 1
    counts = [total, total - by_pattern, by_pattern]
    report = NecessityReport(
        Fraction(3691, 1000), gap_constraints(), 20001, 5, *counts, (), 511
    )
    monkeypatch.setattr(cli, "pattern_necessity", lambda *args, **kwargs: report)
    argv = ["necessity", "--threshold", "3691/1000", "--window", "20001", "--depth", "5"]
    code, text, err = run(capsys, *argv)
    line = r"windows: (\d+)  below threshold: (\d+)  center-pattern: (\d+)  exceptions: 0\n"
    assert (code, err) == (0, "")
    assert list(map(_read_int, re.fullmatch(line, text).groups())) == counts
    code, out, err = run(capsys, *argv, "--structured")
    rec = json.loads(out, parse_int=str)  # JSON numbers, read back as digits
    assert (code, err, rec["holds"], rec["nodes"]) == (0, "", True, "511")
    keys = ("windows_total", "passed_by_bound", "passed_by_pattern")
    assert [_read_int(rec[k]) for k in keys] == counts


def test_audit(capsys):
    code, out, _ = run(capsys, "audit-alpha0", "--blocks", "4")
    assert code == 0
    assert "clean" in out


@pytest.mark.parametrize("argv", [["--blocks", "8", "--start", "12"], ["--guard", "5"]])
def test_audit_range_is_not_an_option(capsys, argv):
    # the range is read off the block word: from the second block to the last block's centre
    code, out, err = run(capsys, "audit-alpha0", *argv)
    unrecognized = " ".join(argv[-2:])
    assert (code, out, err) == (1, "", f"error: unrecognized arguments: {unrecognized}\n")


def test_negative_depth_and_guard_exit_1(capsys):
    for argv in (
        ["certify-pattern", "3,1", "--threshold", "3", "--depth", "-3"],
        ["necessity", "--threshold", "3691/1000", "--depth", "-3"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 1 and err.startswith("error:") and "depth" in err


@pytest.mark.parametrize(
    "argv, depth",
    [
        (["certify-pattern", "3,1", "--threshold", "3", "--depth", "10000000"], 10**7),
        (["necessity", "--threshold", "3691/1000", "--window", "9", "--depth", "100000000"], 10**8),
        (["necessity", "--threshold", "3691/1000", "--window", "9", "--depth", "100001"], 100001),
    ],
)
def test_depth_above_the_cap_exits_1(capsys, argv, depth):
    with deadline(10, "a depth above the cap"):
        code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: depth {depth} exceeds the cap of 100000\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        ("necessity --threshold 3691/1000 --window 20003", "window_len 20003 exceeds the cap of 20001"),
        ("necessity --threshold 4 --window 7 --alphabet-max 11", "alphabet_max 11 exceeds the cap of 10"),
        ("certify-pattern 1 --threshold 3 --alphabet-max 11", "alphabet_max 11 exceeds the cap of 10"),
        ("certify-pattern 3,1 --forbid 3,1 --threshold 3 --depth 100000",
         "pattern word violates the constraints"),
        ("necessity --threshold 3691/1000 --window 20001 --depth 5 --max-nodes -1",
         "max_nodes must be nonnegative"),
    ],
)
def test_caps_and_checks_exit_1_before_any_work(capsys, argv, message):
    with deadline(10, argv):
        code, out, err = run(capsys, *argv.split())
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_depth_at_the_cap_is_accepted(capsys):
    argv = ["certify-pattern", "3,1", "--threshold", LAM0_EXPR, "--depth", "100000", "--digits", "3"]
    with deadline(20, "certify-pattern at the depth cap"):
        code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and out.startswith("certified:")


def test_necessity_default_node_budget_exit_2(capsys):
    # without a budget this sweep ran past 20 s; the default cuts it at 10**5 words
    argv = ["necessity", "--threshold", "4", "--window", "25", "--depth", "5", "--alphabet-max", "5"]
    with deadline(30, "the default-budget sweep"):
        code, out, err = run(capsys, *argv, "--structured")
    rec = json.loads(out)
    assert (code, err) == (2, "")
    assert rec["status"] == "inconclusive" and rec["nodes"] == 100000 and rec["holds"] is False
    with pytest.raises(SystemExit):
        main(["necessity", "--help"])
    assert "search budget (default: 100000)" in " ".join(capsys.readouterr().out.split())


def test_depth_1200_runs_without_recursion(capsys):
    for argv in (
        ["certify-pattern", "3,1", "--threshold", LAM0_EXPR, "--depth", "1200"],
        ["necessity", "--threshold", "3691/1000", "--window", "9", "--depth", "1200"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 0 and "Traceback" not in err


def test_surgery(capsys):
    code, out, _ = run(capsys, "surgery", "2,1,2,1,3", "--n1", "1", "--n2", "3")
    assert code == 0
    assert "c1: 2,1,3" in out and "c2: 2,1,2,1,2,1,3" in out


def test_surgery_suffixes_agree_to_the_end(capsys):
    code, out, err = run(capsys, "surgery", "1,2,1,2,1,2", "--n1", "1", "--n2", "3")
    assert code == 1 and out == ""
    assert err == "error: shifted suffixes agree to the end of the word\n"


def test_construct(capsys):
    code, out, _ = run(capsys, "construct", "a0")
    assert code == 0 and out.strip() == A0_TEXT
    code, out, _ = run(capsys, "construct", "alpha0", "--blocks", "1")
    assert out.strip() == "[0;2,1,1,2,3,3,3,2,1,1,2]"


def test_parser_is_built_once(capsys, monkeypatch):
    def fail():
        raise AssertionError("main built the parser for a plain argv")

    monkeypatch.setattr(cli, "_parser", fail)
    code, out, _ = run(capsys, "construct", "a0")
    assert code == 0 and out.strip() == A0_TEXT
    for argv, expected in README_STRUCTURED:
        assert run(capsys, *argv, "--structured") == (0, expected + "\n", ""), argv
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.endswith("\n"), argv


def test_fallback_builds_the_parser_at_most_once(capsys, monkeypatch):
    builds = []
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def counted(self, **kwargs):
        builds.append(self)
        return add_subparsers(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counted)
    cli._parser.cache_clear()
    for argv in (["ev", "1/3"], ["eval", "1/3", "--digits=3"], ["eval", "--", "-1/3"], ["eval"]):
        run(capsys, *argv)
    assert run(capsys, "eval", "1/3", "--dig", "3") == (0, "1/3 ≈ 0.333\n", "")
    assert len(builds) == 1


def test_out_of_memory_exits_1_with_a_named_error(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "pattern_necessity", exhausted)
    assert run(capsys, "necessity", "--threshold", "3691/1000") == (
        1, "", "error: out of memory\n"
    )


def test_parser_loads_only_for_commands_that_read_an_expression():
    # a fresh interpreter per run: each prints whether lagspec.parsing is loaded
    # after the import, then each command's exit code and the same again
    script = (
        "import contextlib, io, sys\n"
        "from lagspec import cli\n"
        "print('lagspec.parsing' in sys.modules)\n"
        "for argv in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv.split())\n"
        "    print(code, 'lagspec.parsing' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))

    def fresh(*commands):
        proc = subprocess.run([sys.executable, "-c", script, *commands], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
        return proc.stdout, proc.stderr

    quiet = ("construct a0", "audit-alpha0 --blocks 2",
             "necessity --threshold 3691/1000 --window 9 --depth 5")
    assert fresh(*quiet, "eval 1/3") == ("False\n0 False\n0 False\n0 False\n0 True\n", "")
    # the first parse raises: the syntax error keeps its prefix
    error = "syntax error: zero denominator at line 1, column 3: '0'\n"
    assert fresh("eval 1/0") == ("False\n1 True\n", error)


def test_out_of_memory_in_a_child_process_exits_1_without_a_traceback():
    # the address-space limit applies to the child alone; the sweep's tail
    # levels at this window and depth need more than it allows
    resource = pytest.importorskip("resource")
    limit = 512 * 2**20
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    argv = [sys.executable, "-m", "lagspec.cli", "necessity", "--threshold", "3691/1000",
            "--window", "20001", "--depth", "100000"]
    proc = subprocess.run(
        argv, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: out of memory\n")


def test_parser_reuse_leaks_no_state(capsys):
    failing = ["necessity", "--threshold", "3.83", "--window", "7", "--depth", "10"]
    code, out, _ = run(capsys, *failing, "--forbid", "")
    assert code == 2 and "exceptions: 440" in out
    # without --forbid the gap list applies again: 243 windows, no exception
    code, out, _ = run(capsys, *failing)
    assert code == 0 and out.startswith("windows: 243 ") and "exceptions: 0" in out
    code, out, _ = run(capsys, "eval", LAM0_EXPR, "--structured")
    assert json.loads(out)["decimal"] == "3.6914708"
    code, out, _ = run(capsys, "eval", LAM0_EXPR)
    assert out == "(62976-1498*sqrt(3))/16357 ≈ 3.6914708\n"


def test_parse_error_exit_1(capsys):
    code, _, err = run(capsys, "eval", "[0;1,(])")
    assert code == 1
    assert "syntax error" in err and "line 1" in err


def test_precondition_error_exit_1(capsys):
    code, _, err = run(capsys, "surgery", "1,2,3", "--n1", "1", "--n2", "2")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "expand", "[0;(1,2)]+[0;(1,3)]")
    assert code == 1


@pytest.mark.parametrize(
    "argv, err",
    [
        (
            ["certify-pattern", "1,3", "--forbid", "1,3", "--threshold", "3"],
            "error: pattern word violates the constraints\n",
        ),
        (
            ["necessity", "--threshold", "abc"],
            "error: threshold must be rational: Invalid literal for Fraction: 'abc'\n",
        ),
        (["eval", "1/0"], "syntax error: zero denominator at line 1, column 3: '0'\n"),
        (["eval", "[0;1.5]"], "syntax error: expected an integer at line 1, column 4: '1.5'\n"),
        (["eval", "1/0+1"], "syntax error: zero denominator at line 1, column 3: '0'\n"),
        (["eval", "2*[0;1]+3/00"], "syntax error: zero denominator at line 1, column 11: '00'\n"),
        (["eval", "1/0*[0;(1,2)]"], "syntax error: zero denominator at line 1, column 3: '0'\n"),
        # the second marker itself, and the bar that closes a core without one
        (
            ["lambda", "<(2,1) | 1,2,3*,3*,3 | (1,2)>", "--index", "0"],
            "syntax error: second origin marker at line 1, column 18: '*'\n",
        ),
        (
            ["eval", "<(1)|1|(1)>+1"],
            "syntax error: core must carry exactly one origin marker at line 1, column 7: '|'\n",
        ),
    ],
)
def test_refused_input_exits_1_with_its_message(capsys, argv, err):
    assert run(capsys, *argv) == (1, "", err)


# a sequence literal parses, from the one-pass reader or, past 4,300 characters,
# the token parser, and is then refused as a value
LONG_SEQUENCE = "<(1) | " + "1," * 2200 + "2* | (1)>"


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "<(1) | 2* | (1)>"],
        ["eval", "<(1)|2*|(1)>"],
        ["expand", "<(1) | 2* | (1)>"],
        ["expand", "<(1)|2*|(1)>"],
        ["certify-pattern", "3,1", "--threshold", "<(1)|2*|(1)>"],
        ["eval", LONG_SEQUENCE],
    ],
    ids=["eval", "eval-unspaced", "expand", "expand-unspaced", "certify-pattern", "eval-long"],
)
def test_a_sequence_literal_has_no_numeric_value(capsys, argv):
    assert run(capsys, *argv) == (1, "", "error: a sequence literal has no numeric value\n")


def test_closed_stdout_exits_1_without_a_traceback():
    # 365 kB of output: the writer meets the closed pipe, in print or in its flush
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    argv = [sys.executable, "-m", "lagspec.cli", "construct", "alpha0", "--blocks", "300"]
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(10) == b"[0;2,1,1,2"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


def test_bad_flag_exit_1(capsys):
    code, _, err = run(capsys, "eval")
    assert code == 1


# The README CLI examples with --structured and the exact line each one
# prints, so that any change to a CLI output fails here.  `construct`
# prints {"object": ..., "value": <its text form>}.
README_STRUCTURED = [
    (
        ["eval", LAM0_EXPR, "--digits", "7"],
        '{"value": "(62976-1498*sqrt(3))/16357", "terms": [{"a": 62976, "b": -1498,'
        ' "c": 16357, "d": 3}], "decimal": "3.6914708"}',
    ),
    (
        ["lambda", A0_TEXT, "--index", "0", "--digits", "5"],
        '{"index": 0, "value": "(246+sqrt(3))/69", "terms": [{"a": 246, "b": 1, "c": 69,'
        ' "d": 3}], "decimal": "3.59032", "left_tail": "[3;3,2,1,(1,2)]",'
        ' "right_tail": "[0;3,2,1,(1,2)]"}',
    ),
    (
        ["sup", A0_TEXT],
        '{"sup": "(62976-1498*sqrt(3))/16357", "decimal": "3.6914708", "attained": true,'
        ' "attaining_indices": [-1, 1], "window": [-7, 7], "margin": "1339562217/13085600000",'
        ' "status": "certified"}',
    ),
    (
        ["limsup", A0_TEXT],
        '{"limsup": "2*sqrt(3)", "terms": [{"a": 0, "b": 2, "c": 1, "d": 3}],'
        ' "decimal": "3.4641016"}',
    ),
    (
        ["expand", "4-2/11*[0;(1,2)]", "--max-terms", "50"],
        '{"input": "(46-2*sqrt(3))/11", "expansion": "[3;1,6,(1,1,18,1,1,9,76,9)]",'
        ' "preperiod": [1, 6], "period": [1, 1, 18, 1, 1, 9, 76, 9]}',
    ),
    (
        ["certify-pattern", "3,1", "--site", "0", "--threshold", LAM0_EXPR,
         "--alphabet-max", "3", "--depth", "20"],
        '{"pattern": [3, 1], "site": 0, "alphabet_max": 3, "forbidden": [], "depth": 20,'
        ' "lower": "240726188857457/62984018185452", "upper": "30547445/6665999",'
        ' "lower_decimal": "3.8220202", "upper_decimal": "4.5825757",'
        ' "kind": "site_lower_bound", "certified": true}',
    ),
    (
        ["necessity", "--threshold", "3691/1000", "--window", "15", "--depth", "25"],
        '{"threshold": "3691/1000", "window_len": 15, "depth": 25, "windows_total": 77345,'
        ' "passed_by_bound": 77275, "passed_by_pattern": 70, "exceptions": [], "nodes": 125,'
        ' "holds": true}',
    ),
    (
        ["audit-alpha0", "--blocks", "8"],
        '{"blocks": 8, "word_length": 200, "start": 12, "stop": 181, "guard": 19,'
        ' "flagged": [], "clean": true, "note": "truncated verification on a finite prefix"}',
    ),
    (
        ["certify-gap"],
        '{"window": 15, "depth": 25, "blocks": 8, "sup": {"sup": "(62976-1498*sqrt(3))/16357",'
        ' "status": "certified", "attaining_indices": [-1, 1]}, "forbidden": [{"pattern": [3, 1],'
        ' "site": 0, "lower": "303916765763978415/79517310487047844", "certified": true},'
        ' {"pattern": [1, 3], "site": 1, "lower": "303916765763978415/79517310487047844",'
        ' "certified": true}, {"pattern": [3, 2, 2], "site": 0,'
        ' "lower": "514861095008350099054241/139098239551108371103964", "certified": true},'
        ' {"pattern": [2, 2, 3], "site": 2,'
        ' "lower": "514861095008350099054241/139098239551108371103964", "certified": true},'
        ' {"pattern": [3, 2, 3], "site": 0,'
        ' "lower": "703797570394758532592141/188936475386408433537900", "certified": true},'
        ' {"pattern": [1, 2, 3, 2, 1], "site": 2, "lower": "299303201/80198051",'
        ' "certified": true}], "necessity": {"threshold": "3691/1000", "window_len": 15,'
        ' "depth": 25, "windows_total": 77345, "passed_by_bound": 77275, "passed_by_pattern": 70,'
        ' "exceptions": [], "nodes": 125, "holds": true}, "audit": {"blocks": 8,'
        ' "word_length": 200, "start": 12, "stop": 181, "guard": 19, "flagged": [],'
        ' "clean": true, "note": "truncated verification on a finite prefix"},'
        ' "certified": true}',
    ),
    (
        ["surgery", "2,1,2,1,3", "--n1", "1", "--n2", "3"],
        '{"c1": [2, 1, 3], "c2": [2, 1, 2, 1, 2, 1, 3], "chosen": "second", "witness_index": 2}',
    ),
    (["construct", "a0"], '{"object": "a0", "value": "<(2,1) | 1,2,3,3*,3,2,1 | (1,2)>"}'),
    (
        ["construct", "alpha0", "--blocks", "2"],
        '{"object": "alpha0",'
        ' "value": "[0;2,1,1,2,3,3,3,2,1,1,2,2,1,2,1,1,2,3,3,3,2,1,1,2,1,2]"}',
    ),
]


@pytest.mark.parametrize(
    "argv, expected", README_STRUCTURED, ids=[a[0] for a, _ in README_STRUCTURED]
)
def test_readme_examples_structured_output_unchanged(capsys, argv, expected):
    code, out, _ = run(capsys, *argv, "--structured")
    assert code == 0
    assert out == expected + "\n"


def test_expand_term_budget_below_1_exits_1(capsys):
    for value in ("1/3", "[0;(1,2)]"):
        for budget in ("0", "-1"):
            code, out, err = run(capsys, "expand", value, "--max-terms", budget)
            assert (code, out, err) == (1, "", "error: max_terms must be positive\n")


# The one-pass parse of plain argv (cli._parse_plain) against argparse.

_SUBPARSERS = next(
    a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)
).choices
# values that argparse reads in different ways: ints, ASCII and non-ASCII
# negative numbers, option-like and empty tokens, choices and bad choices
_VALUES = (
    "3", "0", "-4", "-0", "-٣", "٣", " 7", "-x", "--", "-", "", "-1/3", "-1 2",
    "1/3", "2,1", A0_TEXT, "3691/1000", "a0", "alpha0", "bogus",
)


@st.composite
def _argvs(draw):
    """An argv for one subcommand (or an unknown name): its positionals,
    its required options and some others, each with a value of its type,
    in any order; then up to three edits, each inserting an irregular chunk
    (an exact, abbreviated or --opt=value option string and a value from
    _VALUES), deleting a chunk or repeating one."""
    name = draw(st.sampled_from([*_SUBPARSERS, "con", "bogus", "-h", ""]))
    sp = _SUBPARSERS.get(name, _SUBPARSERS["certify-pattern"])
    chunks = []
    for action in sp._actions:
        if not action.option_strings:
            chunks.append([draw(st.sampled_from(action.choices or ("1/3", "2,1", A0_TEXT)))])
        elif isinstance(action, argparse._HelpAction):
            continue
        elif action.required or draw(st.booleans()):
            chunks.append([draw(st.sampled_from(action.option_strings))])
            if action.nargs is None:
                typed = ("3", "-4", "0") if action.type else ("1/3", "-4")
                chunks[-1].append(draw(st.sampled_from(typed)))
    chunks = draw(st.permutations(chunks))
    options = sorted(sp._option_string_actions)
    value = st.sampled_from(_VALUES)
    option = st.one_of(
        st.sampled_from(options),
        st.sampled_from([o[:k] for o in options for k in range(3, len(o))]),
        st.builds("{}={}".format, st.sampled_from(options), value),
    )
    irregular = st.one_of(st.tuples(option, value), st.tuples(value), st.tuples(option))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(chunks)))
        edit = draw(st.sampled_from(("insert", "delete", "repeat")))
        if edit == "insert":
            chunks.insert(i, draw(irregular))
        elif edit == "delete":
            del chunks[i:i + 1]
        else:
            chunks[i:i] = chunks[i:i + 1]
    return [name, *(token for chunk in chunks for token in chunk)]


@given(_argvs())
@settings(max_examples=1500)
def test_plain_parse_declines_or_matches_argparse(argv):
    fast = cli._parse_plain(argv)
    if fast is not None:  # then argparse accepts argv too, with the same namespace
        assert vars(fast) == vars(cli._parser().parse_args(argv))


@pytest.mark.parametrize("name", list(_SUBPARSERS))
def test_plain_parse_takes_the_minimal_argv_of_every_subcommand(name):
    # a subcommand the one pass dropped would fall back to argparse silently
    argv = [name]
    for action in _SUBPARSERS[name]._actions:
        if not action.option_strings:
            argv.append((action.choices or ["1"])[0])
        elif action.required:
            argv += [action.option_strings[0], "1"]
    fast = cli._parse_plain(argv)
    assert fast is not None, argv
    assert vars(fast) == vars(cli._parser().parse_args(argv))


def test_command_table_holds_only_what_the_one_pass_reads():
    for name, (_, _, arguments) in cli._COMMANDS.items():
        for arg, keywords in arguments.items():
            assert keywords.keys() <= {"type", "default", "required", "choices", "help", "action"}
            assert keywords.get("action", "store_true") == "store_true", (name, arg)
            # argparse would pass a str default through type; the one pass does not
            assert type(keywords.get("default")) is not str, (name, arg)


@pytest.mark.parametrize("structured", [False, True])
def test_plain_parse_takes_the_readme_examples(structured):
    cases = [argv for argv, _ in README_STRUCTURED] + [["lambda", A0_TEXT, "--index", "-4"]]
    for argv in cases:
        argv = argv + ["--structured"] * structured
        fast = cli._parse_plain(argv)
        assert fast is not None, argv
        assert vars(fast) == vars(cli._parser().parse_args(argv))


# Invocations that only argparse parses: help, errors, abbreviations,
# --opt=value, option-like values and repeated options.
IRREGULAR = [
    [],
    ["bogus"],
    ["ev", "1/3"],
    ["-h"],
    ["--help"],
    ["eval", "-h"],
    ["eval"],
    ["eval", "1/3", "--dig", "3"],
    ["eval", "1/3", "--struct"],
    ["eval", "1/3", "--digits=3"],
    ["eval", "1/3", "--structured=1"],
    ["eval", "1/3", "2/3"],
    ["eval", "1/3", "--digits", "x"],
    ["eval", "1/3", "--digits", ""],
    ["eval", "1/3", "--digits"],
    ["eval", "-1/3"],
    ["eval", "-3"],
    ["eval", "-"],
    ["eval", "--", "-1/3"],
    ["eval", "1/3", "-x"],
    ["eval", "1/3", "--digits", "3", "--digits", "4"],
    ["lambda", A0_TEXT, "--index", "-x"],
    ["lambda", A0_TEXT, "--index", "--digits", "3"],
    ["lambda", A0_TEXT, "--index", "-٣"],
    ["lambda", A0_TEXT],
    ["surgery", "2,1,2,1,3", "--n1", "1"],
    ["necessity", "--threshold", "-x"],
    ["construct", "bogus"],
]


@pytest.mark.parametrize("argv", IRREGULAR, ids=" ".join)
def test_plain_parse_declines_irregular_argv(argv):
    assert cli._parse_plain(argv) is None


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as e:
        code = ("SystemExit", e.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# compared in one interpreter, because argparse's wording differs between versions
@pytest.mark.parametrize("argv", IRREGULAR + [["eval", "1/3", "--digits", "٣"]], ids=" ".join)
def test_fallback_output_equals_argparse_alone(capsys, monkeypatch, argv):
    with_fast_path = _outcome(capsys, list(argv))
    monkeypatch.setattr(cli, "_parse_plain", lambda argv: None)
    assert _outcome(capsys, list(argv)) == with_fast_path
    if "-h" in argv or "--help" in argv:
        code, out, _ = with_fast_path
        assert code == ("SystemExit", 0) and out.startswith("usage: lagspec")


def test_main_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["lagspec", "eval", LAM0_EXPR])
    assert _outcome(capsys, None) == (0, "(62976-1498*sqrt(3))/16357 ≈ 3.6914708\n", "")
    monkeypatch.setattr(sys, "argv", ["lagspec", "eval"])
    code, out, err = _outcome(capsys, None)
    assert (code, out) == (1, "") and err.endswith("the following arguments are required: expr\n")
