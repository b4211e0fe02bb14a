"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line when its criterion holds; assertions are
exact (QuadExt/QuadSum equality and sign tests) except where a stated
decimal tolerance applies.  Criteria 3, 4 and 6 are truncated desk-scale
verifications on finite words and are labeled as such in their reports.
"""

import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from lagspec.bisequence import periodic_phase_limits, sup_lambda
from lagspec.cfrac import EPCF, cylinder, distance_bounds, eval_periodic, expand
from lagspec.certify import (
    GAP_CERTIFICATION_ORDER,
    Constraints,
    Pattern,
    audit_not_attained,
    certify_forbidden,
    gap_constraints,
    one_sided_lambda_bracket,
    pattern_necessity,
)
from lagspec.constructions import (
    alpha0_core_indices,
    alpha0_prefix,
    attainable_from_periodic,
    build_a0,
    dirichlet_repeat,
    gap_left_endpoint,
    surgery,
)
from lagspec.parsing import evaluate, parse_expression
from lagspec.quadfield import QuadExt, QuadSum

TOL = Fraction(1, 100_000)

CONSTANTS = [
    # (label, expression, exact value, reference decimal)
    ("1a", "[3;3,3,2,1,(1,2)]+[0;2,1,(1,2)]", QuadExt(62976, -1498, 16357, 3), "3.69147"),
    ("1b", "3+2*[0;3,2,1,(1,2)]", QuadExt(246, 1, 69, 3), "3.59032"),
    ("1c", "2+2*[0;(1,3)]", QuadExt(-1, 1, 1, 21), None),
    ("1d", "[3;1,(1,3)]+[0;(3,1)]", QuadExt(39, 4, 15, 21), "3.82202"),
    ("1e", "[3;2,2,(3,2)]+[0;(3,2)]", QuadExt(39, 10, 21, 15), "3.70142"),
    ("1f", "[3;2,1,(2,1)]+[0;(2,1)]", QuadExt(2, 1, 1, 3), "3.73205"),
    ("1g", "2+2*[0;(1,2)]", QuadExt(0, 2, 1, 3), "3.46410"),
    ("1h", "3+2*[0;3,(3,2)]", QuadExt(33, -2, 7, 15), "3.60772"),
    ("1i", "[3;3,2,1,(2,1)]+[0;2,1,(1,2)]", QuadExt(44, -2, 11, 3), "3.68508"),
    ("1j", "[3;3,3,3,3,2,1,(1,2)]+[0;2,1,(1,2)]", QuadExt(681609, -16103, 177122, 3), "3.69078"),
    ("1k", "4+[0;3,2,1,1,(3,1,3,1,2,1)]+[0;4,3,2,2,(3,1,3,1,2,1)]", None, "4.52783"),
]


def test_criterion_1_exact_constants():
    for label, expr, exact, decimal in CONSTANTS:
        value = evaluate(parse_expression(expr))
        if exact is not None:
            assert value == exact, label
        if decimal is not None:
            rendered = Fraction(value.approx(5))
            assert abs(rendered - Fraction(decimal)) <= TOL, label
            diff = value - Fraction(decimal)
            diff = diff if diff.sign() >= 0 else -diff
            assert (diff - TOL).sign() <= 0, label
        print(f"PASS criterion {label}: {expr} = {value}")
    # the c-case bound quoted with the identity
    assert QuadSum(QuadExt(-1, 1, 1, 21)) < Fraction(36, 10)
    print("PASS criterion 1: all identities exact, decimals within 1e-5")


def test_criterion_2_reference_certificate():
    lam0 = gap_left_endpoint()
    A = build_a0()
    cert = sup_lambda(A)
    assert cert.status == "certified"
    assert cert.sup == lam0
    assert cert.attained
    assert cert.attaining_indices == (-1, 1)
    assert lam0 > QuadExt(246, 1, 69, 3)
    for lim in periodic_phase_limits(A.right_period) + periodic_phase_limits(
        A.left_period
    ):
        assert lam0 > lim
    print(
        "PASS criterion 2: sup certificate = gap endpoint, attained exactly at"
        f" {list(cert.attaining_indices)}, status {cert.status}"
    )


def test_criterion_3_block_word_climb():
    lam0 = gap_left_endpoint()
    word = alpha0_prefix(8).tail
    cores = alpha0_core_indices(8)
    prev_hi = None
    last_bracket = None
    for m, (_, _, last) in enumerate(cores, 1):
        lo, hi = one_sided_lambda_bracket(word, last)
        if m < 8:
            assert lam0 > hi  # strictly below the endpoint, certified
        else:
            assert lam0 > lo  # final block: bracket still reaches below it
        if prev_hi is not None:
            assert prev_hi < lo  # strictly increasing, certified by brackets
        prev_hi = hi
        last_bracket = (lo, hi)
    lam0_lo, _ = lam0.bracket(40)
    assert lam0_lo - last_bracket[0] < Fraction(1, 1000)  # within 1e-3 at m = 8
    outer = set()
    for first, _, last in cores:
        outer.update((first, last))
    stop = len(word) - 19
    for n in range(1, stop + 1):
        if n in outer:
            continue
        _, hi = one_sided_lambda_bracket(word, n)
        assert hi < Fraction(36, 10), n
    print(
        "PASS criterion 3 (truncated verification): block-word values climb"
        f" strictly over 8 blocks, within 1e-3 of the endpoint at m=8;"
        f" all non-outer-3 positions bracketed below 3.6"
    )


def test_criterion_4_non_attainability_audit():
    report = audit_not_attained(alpha0_prefix(8), gap_left_endpoint(), start=12, guard=19)
    assert report.clean
    print(
        "PASS criterion 4 (truncated verification): audit of the 8-block word"
        f" positions {report.start}..{report.stop} flags none"
    )


CUMULATIVE = [
    (Pattern((3, 1), 0), frozenset()),
    (Pattern((1, 3), 1), frozenset()),
    (Pattern((3, 2, 2), 0), frozenset({(1, 3), (3, 1)})),
    (Pattern((2, 2, 3), 2), frozenset({(1, 3), (3, 1)})),
    (Pattern((3, 2, 3), 0), frozenset({(1, 3), (3, 1), (3, 2, 2), (2, 2, 3)})),
    (
        Pattern((1, 2, 3, 2, 1), 2),
        frozenset({(1, 3), (3, 1), (3, 2, 2), (2, 2, 3), (3, 2, 3)}),
    ),
]


def test_criterion_5_forbidden_pattern_certificates():
    assert list(GAP_CERTIFICATION_ORDER) == CUMULATIVE
    lam0 = gap_left_endpoint()
    for pattern, forbidden in CUMULATIVE:
        cert = certify_forbidden(pattern, lam0, Constraints(3, forbidden), 25)
        assert QuadSum(cert.lower) > lam0
        print(
            f"PASS criterion 5: pattern {pattern.word} site {pattern.site}"
            f" certified above the endpoint at depth {cert.depth}"
        )


def test_criterion_6_necessity_sweep():
    report = pattern_necessity(Fraction(3691, 1000), gap_constraints(), 15, 25)
    assert report.exceptions == ()
    print(
        "PASS criterion 6 (truncated verification): necessity sweep over"
        f" {report.windows_total} admissible windows, no exceptions"
        f" ({report.passed_by_pattern} windows carry the center pattern)"
    )


def test_criterion_7_property_suites():
    rng = random.Random(777)

    # prefix order agrees with exact order under common continuations
    for _ in range(200):
        a0 = rng.randint(0, 4)
        shared = [rng.randint(1, 4) for _ in range(rng.randint(0, 18))]
        u, v = rng.sample([1, 2, 3, 4], 2)
        t1 = [rng.randint(1, 4) for _ in range(rng.randint(0, 4))]
        t2 = [rng.randint(1, 4) for _ in range(rng.randint(0, 4))]
        per = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
        x = (a0, *shared, u, *t1)
        y = (a0, *shared, v, *t2)
        from lagspec.cfrac import cmp_prefix

        order, idx = cmp_prefix(x, y)
        assert idx == len(shared) + 1
        va = QuadSum(eval_periodic(EPCF(x[0], x[1:], per)))
        vb = QuadSum(eval_periodic(EPCF(y[0], y[1:], per)))
        assert (va - vb).sign() == order
    print("PASS criterion 7: prefix comparison agrees with exact order (200 cases)")

    # sandwich bounds
    for _ in range(200):
        n = rng.randint(0, 12)
        shared = tuple(rng.randint(1, 4) for _ in range(n))
        u, v = rng.sample([1, 2, 3, 4], 2)
        p1 = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
        p2 = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
        alpha = QuadSum(eval_periodic(EPCF(0, shared + (u,), p1)))
        beta = QuadSum(eval_periodic(EPCF(0, shared + (v,), p2)))
        d = alpha - beta if (alpha - beta).sign() > 0 else beta - alpha
        b = distance_bounds(n)
        assert (d - b.delta).sign() > 0 and (b.eps - d).sign() > 0
    print("PASS criterion 7: delta/eps sandwich (200 cases)")

    # cylinder containment and nesting
    for _ in range(200):
        a0 = rng.randint(0, 4)
        tail = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 10)))
        ext = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 5)))
        per = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
        lo, hi = cylinder((a0,) + tail)
        val = QuadSum(eval_periodic(EPCF(a0, tail + ext, per)))
        assert val > lo and val < hi
        ilo, ihi = cylinder((a0,) + tail + ext[:1])
        assert lo <= ilo and ihi <= hi and (ilo > lo or ihi < hi)
    print("PASS criterion 7: cylinder containment and nesting (200 cases)")

    # expansion round trip
    ds = [2, 3, 5, 7, 13, 15, 21]
    for _ in range(200):
        q = QuadExt(
            rng.randint(-50, 50),
            rng.choice([x for x in range(-50, 51) if x]),
            rng.randint(1, 50),
            rng.choice(ds),
        )
        assert eval_periodic(expand(q, max_terms=50_000)) == q
    print("PASS criterion 7: expand/eval round trip (200 cases)")

    # surgery: the chosen variant exceeds the original by more than delta
    done = 0
    while done < 200:
        w = tuple(rng.randint(1, 4) for _ in range(rng.randint(10, 22)))
        pairs = [
            (i, j)
            for i in range(1, len(w))
            for j in range(i + 2, len(w) + 1, 2)
            if w[i - 1] == w[j - 1]
        ]
        rng.shuffle(pairs)
        res = None
        for n1, n2 in pairs:
            try:
                res = surgery(w, n1, n2)
                break
            except ValueError:
                continue
        if res is None:
            continue
        tail = (1, 2, 3)
        orig = QuadSum(eval_periodic(EPCF(0, w, tail)))
        chosen = QuadSum(eval_periodic(EPCF(0, res.chosen_word, tail)))
        excess = chosen - orig
        assert excess.sign() > 0
        delta = distance_bounds(len(w) + res.witness_index).delta
        assert (excess - delta).sign() > 0
        done += 1
    print("PASS criterion 7: surgery strict excess beyond delta (200 cases)")

    # repetition exists at the guarantee length over alphabet 1..4
    for _ in range(200):
        w = tuple(rng.randint(1, 4) for _ in range(195))
        n1, n2 = dirichlet_repeat(w, 1)
        assert (n2 - n1) % 2 == 0
        assert w[n1 - 1 : n1 + 2] == w[n2 - 1 : n2 + 2]
    print("PASS criterion 7: repetition search succeeds at length 195 (200 cases)")


def test_criterion_8_attainability_construction():
    gamma, report = attainable_from_periodic((2, 2), (2, 1), check_m=5)
    assert gamma == EPCF(0, (2, 1), (2, 2))
    assert report.checked_m == (1, 2, 3, 4, 5)
    for lam in report.lambda_values:
        assert lam > report.mu
    print(
        "PASS criterion 8: [0;2,1,(2,2)] exceeds its periodic limit at the"
        f" checked sites for m = 1..5"
    )


PIPELINE_REPORT = """\
gap endpoint: (62976-1498*sqrt(3))/16357 ≈ 3.6914708
[sup] certified: sup = 3.6914708, attained at [-1, 1] (T)
[forbid] (3, 1) site 0: lower 3.822020 > endpoint (T)
[forbid] (1, 3) site 1: lower 3.822020 > endpoint (T)
[forbid] (3, 2, 2) site 0: lower 3.701421 > endpoint (T)
[forbid] (2, 2, 3) site 2: lower 3.701421 > endpoint (T)
[forbid] (3, 2, 3) site 0: lower 3.725049 > endpoint (T)
[forbid] (1, 2, 3, 2, 1) site 2: lower 3.732051 > endpoint (T)
[necessity] windows 77345, center-pattern 70, exceptions 0 (T)
[audit] positions 12..{stop}: flagged [] (T)  [truncated verification on a finite prefix]
ALL CERTIFIED
"""


@pytest.mark.parametrize(
    "argv, stop", [([], 181), (["--window", "15", "--depth", "200", "--blocks", "32"], 2269)]
)
def test_pipeline_report_is_pinned(argv, stop):
    # scripts/certify_gap.py prints the same lines, every stage's time masked
    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "certify_gap.py")
    run = subprocess.run([sys.executable, script, *argv], capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stderr) == (0, "")
    report = re.sub(r"\(\d+\.\d\ds\)", "(T)", run.stdout)
    assert report.splitlines() == PIPELINE_REPORT.format(stop=stop).splitlines()


CONSTANTS_TABLE = """\
gap endpoint                            [3;3,3,2,1,(1,2)]+[0;2,1,(1,2)]
                                        = (62976-1498*sqrt(3))/16357 ≈ 3.6914708
center value of the reference sequence  3+2*[0;3,2,1,(1,2)]
                                        = (246+sqrt(3))/69 ≈ 3.5903196
max off-center envelope                 2+2*[0;(1,3)]
                                        = -1+sqrt(21) ≈ 3.5825757
(3,1) site limit                        [3;1,(1,3)]+[0;(3,1)]
                                        = (39+4*sqrt(21))/15 ≈ 3.8220202
(3,2,2) site limit                      [3;2,2,(3,2)]+[0;(3,2)]
                                        = (39+10*sqrt(15))/21 ≈ 3.7014206
(1,2,3,2,1) site limit                  [3;2,1,(2,1)]+[0;(2,1)]
                                        = 2+sqrt(3) ≈ 3.7320508
small-quotient ceiling                  2+2*[0;(1,2)]
                                        = 2*sqrt(3) ≈ 3.4641016
three-3s ceiling                        3+2*[0;3,(3,2)]
                                        = (33-2*sqrt(15))/7 ≈ 3.6077190
3,3 with 2,1 ceiling                    [3;3,2,1,(2,1)]+[0;2,1,(1,2)]
                                        = (44-2*sqrt(3))/11 ≈ 3.6850817
four-3s ceiling                         [3;3,3,3,3,2,1,(1,2)]+[0;2,1,(1,2)]
                                        = (681609-16103*sqrt(3))/177122 ≈ 3.6907769
ray threshold                           4+[0;3,2,1,1,(3,1,3,1,2,1)]+[0;4,3,2,2,(3,1,3,1,2,1)]
                                        = (2221564096+283748*sqrt(462))/491993569 ≈ 4.5278296
"""


def test_constants_table_is_pinned():
    # every row goes through parse_expression and evaluate; the output is pinned byte for byte
    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "reproduce_constants.py")
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    run = subprocess.run([sys.executable, script], capture_output=True, env=env, timeout=60)
    assert (run.returncode, run.stderr) == (0, b"")
    assert run.stdout == CONSTANTS_TABLE.encode()
    assert len(CONSTANTS_TABLE.splitlines()) == 22
