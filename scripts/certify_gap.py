#!/usr/bin/env python3
"""Run the full certification pipeline for the gap endpoint.

Steps, in order: the sup certificate of the reference two-sided sequence,
the six forbidden-pattern certificates in their cumulative order, the
window-necessity sweep, and the non-attainability audit of the block
word.  Exits nonzero if any step fails to certify.
"""

import argparse
import os
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from lagspec.bisequence import sup_lambda
from lagspec.certify import (
    GAP_CERTIFICATION_ORDER,
    Constraints,
    NotSeparatedError,
    audit_not_attained,
    certify_forbidden,
    gap_constraints,
    pattern_necessity,
)
from lagspec.constructions import alpha0_prefix, build_a0, gap_left_endpoint
from lagspec.quadfield import QuadSum, _digits


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--depth", type=int, default=25)
    ap.add_argument("--window", type=int, default=15)
    ap.add_argument("--blocks", type=int, default=8)
    args = ap.parse_args()

    ok = True
    lam0 = gap_left_endpoint()
    print(f"gap endpoint: {lam0} ≈ {lam0.approx(7)}")

    t = time.time()
    cert = sup_lambda(build_a0())
    print(
        f"[sup] {cert.status}: sup = {cert.sup.approx(7)}, attained at"
        f" {list(cert.attaining_indices)} ({time.time() - t:.2f}s)"
    )
    ok &= cert.status == "certified" and cert.sup == lam0

    for pattern, forbidden in GAP_CERTIFICATION_ORDER:
        t = time.time()
        try:
            c = certify_forbidden(pattern, lam0, Constraints(3, forbidden), args.depth)
            print(
                f"[forbid] {pattern.word} site {pattern.site}: lower"
                f" {QuadSum(c.lower).approx(6)} > endpoint ({time.time() - t:.2f}s)"
            )
        except NotSeparatedError as e:
            print(f"[forbid] {pattern.word}: NOT separated, bounds {e.certificate}")
            ok = False

    t = time.time()
    rep = pattern_necessity(Fraction(3691, 1000), gap_constraints(), args.window, args.depth)
    print(
        f"[necessity] windows {_digits(rep.windows_total)}, center-pattern"
        f" {_digits(rep.passed_by_pattern)}, exceptions {len(rep.exceptions)}"
        f" ({time.time() - t:.2f}s)"
    )
    ok &= rep.holds

    t = time.time()
    audit = audit_not_attained(
        alpha0_prefix(args.blocks), lam0, start=12, guard=2 * args.blocks + 3
    )
    print(
        f"[audit] positions {audit.start}..{audit.stop}: flagged"
        f" {list(audit.flagged)} ({time.time() - t:.2f}s)"
        "  [truncated verification on a finite prefix]"
    )
    ok &= audit.clean

    print("ALL CERTIFIED" if ok else "CERTIFICATION FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
