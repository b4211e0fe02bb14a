"""The certification pipeline as scripts/certify_gap.py runs it, with a gate.

One operation is one full pipeline run: the sup certificate of the
reference sequence, the six cumulative forbidden-pattern certificates,
the window-necessity sweep and the block-word audit.  The gate compares
every outcome with the answers the library gave when this benchmark was
defined, and with an upper bound on the gap endpoint computed here from
integers alone.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

# (window, depth, blocks) and the expected sweep and audit outcomes
PROFILES = {
    "certify-sweep": {
        "window": 25,
        "depth": 25,
        "blocks": 8,
        "windows_total": 104373561,
        "passed_by_bound": 104291901,
        "passed_by_pattern": 81660,
        "audit_range": (12, 181),
    },
    "certify-audit": {
        "window": 15,
        "depth": 200,
        "blocks": 32,
        "windows_total": 77345,
        "passed_by_bound": 77275,
        "passed_by_pattern": 70,
        "audit_range": (12, 2269),
    },
}

# the same table as scripts/certify_gap.py: pattern word, site, and the
# factors already forbidden when it is certified
CUMULATIVE = [
    ((3, 1), 0, ()),
    ((1, 3), 1, ()),
    ((3, 2, 2), 0, ((1, 3), (3, 1))),
    ((2, 2, 3), 2, ((1, 3), (3, 1))),
    ((3, 2, 3), 0, ((1, 3), (3, 1), (3, 2, 2), (2, 2, 3))),
    ((1, 2, 3, 2, 1), 2, ((1, 3), (3, 1), (3, 2, 2), (2, 2, 3), (3, 2, 3))),
]

NECESSITY_THRESHOLD = Fraction(3691, 1000)

LAM0_TEXT = "(62976-1498*sqrt(3))/16357"


def _lam0_upper() -> Fraction:
    """A rational strictly above (62976 - 1498*sqrt(3))/16357."""
    scale = 10**30
    sqrt3_low = Fraction(isqrt(3 * scale * scale), scale)
    return (62976 - 1498 * sqrt3_low) / 16357


LAM0_UPPER = _lam0_upper()


def run_pipeline(lagspec, profile: dict) -> list[str]:
    """Run the pipeline once; return the gate's findings (empty if all pass)."""
    bis, cert, cons = lagspec.bisequence, lagspec.certify, lagspec.constructions
    problems = []
    lam0 = cons.gap_left_endpoint()
    sup = bis.sup_lambda(cons.build_a0())
    if sup.status != "certified" or str(sup.sup) != LAM0_TEXT:
        problems.append(f"sup: {sup.status} {sup.sup}")
    if tuple(sup.attaining_indices) != (-1, 1):
        problems.append(f"sup attained at {sup.attaining_indices}, expected (-1, 1)")

    for word, site, forbidden in CUMULATIVE:
        constraints = cert.Constraints(3, frozenset(forbidden))
        try:
            c = cert.certify_forbidden(cert.Pattern(word, site), lam0, constraints, profile["depth"])
        except cert.NotSeparatedError:
            problems.append(f"forbid {word}: not separated")
            continue
        if not Fraction(c.lower) > LAM0_UPPER:
            problems.append(f"forbid {word}: lower bound {c.lower} not above the endpoint")

    rep = cert.pattern_necessity(
        NECESSITY_THRESHOLD, cert.gap_constraints(), profile["window"], profile["depth"]
    )
    got = (rep.windows_total, rep.passed_by_bound, rep.passed_by_pattern, len(rep.exceptions))
    want = (profile["windows_total"], profile["passed_by_bound"], profile["passed_by_pattern"], 0)
    if got != want:
        problems.append(f"necessity {got}, expected {want}")

    blocks = profile["blocks"]
    audit = cert.audit_not_attained(
        cons.alpha0_prefix(blocks), lam0, start=12, guard=2 * blocks + 3
    )
    if (audit.start, audit.stop) != profile["audit_range"] or audit.flagged:
        problems.append(f"audit {audit.start}..{audit.stop} flagged {list(audit.flagged)}")
    return problems
