"""A seeded stream of lagspec CLI queries, and an independent check of each answer.

The stream is cut into blocks of BLOCK_SIZE queries with a fixed mix, so
every run, whatever its seed or length, has the same shares of query
kinds.  Inputs use the alphabet {1, 2, 3}.  Two kinds are there on
purpose:

- "long": an eventually periodic continued fraction whose period has
  LONG_PERIOD terms.  Its discriminant is large and, when trial division
  leaves a composite cofactor, squarefree reduction falls back to
  Pollard-Brent factoring.  For about half of such periods that runs for
  minutes or more, so a timed run could not finish them; the stream
  keeps only periods whose discriminant this file factors within
  LONG_RHO_STEPS Pollard-Brent steps (see long_period), which the
  library then factors in well under a second.  The candidates passed
  over are counted in Query.skipped.
- "repeat": one of the named constants of scripts/reproduce_constants.py,
  so the same radicands recur and the squarefree cache is hit.

Answers are checked with code of this file only: continued fractions are
truncated to N_TERMS quotients and summed as exact rationals, which pins
a value to far more digits than the CLI prints.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, cycle, islice
from math import gcd, isqrt

DIGITS = 7
BLOCK_SIZE = 200
BLOCK = (
    ("eval", 36),
    ("expand", 36),
    ("lambda", 36),
    ("sup", 36),
    ("limsup", 34),
    ("repeat", 20),
    ("long", 2),
)
LONG_PERIOD = (40, 80)
# the largest factoring work, in Pollard-Brent steps, of a kept long period:
# with this budget lagspec answers every kept query in under 0.3 s on a
# 2-vCPU VM, and a passed-over candidate costs the stream under 0.15 s
LONG_RHO_STEPS = 200_000
SUP_SAMPLES = 6

# the rows of scripts/reproduce_constants.py
NAMED = (
    "[3;3,3,2,1,(1,2)]+[0;2,1,(1,2)]",
    "3+2*[0;3,2,1,(1,2)]",
    "2+2*[0;(1,3)]",
    "[3;1,(1,3)]+[0;(3,1)]",
    "[3;2,2,(3,2)]+[0;(3,2)]",
    "[3;2,1,(2,1)]+[0;(2,1)]",
    "2+2*[0;(1,2)]",
    "3+2*[0;3,(3,2)]",
    "[3;3,2,1,(2,1)]+[0;2,1,(1,2)]",
    "[3;3,3,3,3,2,1,(1,2)]+[0;2,1,(1,2)]",
    "4+[0;3,2,1,1,(3,1,3,1,2,1)]+[0;4,3,2,2,(3,1,3,1,2,1)]",
)

N_TERMS = 160  # truncation error below 1/F(160)**2 < 1e-66
TOL = Fraction(1, 10**30)
HALF_ULP = Fraction(1, 2 * 10**DIGITS)


@dataclass(frozen=True)
class Query:
    qid: int
    kind: str  # eval, expand, lambda, sup, limsup
    argv: tuple[str, ...]
    long: bool
    repeat: bool
    data: tuple  # what the check needs: parsed terms or the sequence
    skipped: int = 0  # long-period candidates passed over before this one


def stream(seed: int):
    """Endless query stream; the same seed gives the same queries."""
    block = 0
    while True:
        rng = random.Random(seed * 1_000_003 + block)
        kinds = [k for k, n in BLOCK for _ in range(n)]
        rng.shuffle(kinds)
        for j, kind in enumerate(kinds):
            yield _make(rng, kind, block * BLOCK_SIZE + j)
        block += 1


def _word(rng, lo, hi) -> tuple[int, ...]:
    return tuple(rng.randint(1, 3) for _ in range(rng.randint(lo, hi)))


def _cf_text(a0, pre, per) -> str:
    body = ",".join(map(str, pre)) + ("," if pre else "")
    return f"[{a0};{body}({','.join(map(str, per))})]"


def _biseq(rng):
    lp, rp = _word(rng, 1, 4), _word(rng, 1, 4)
    core = _word(rng, 1, 8)
    origin = rng.randrange(len(core))
    cells = [f"{v}*" if k == origin else str(v) for k, v in enumerate(core)]
    text = f"<({','.join(map(str, lp))}) | {','.join(cells)} | ({','.join(map(str, rp))})>"
    return text, (lp, core, origin, rp)


def _make(rng, kind: str, qid: int) -> Query:
    digits = ("--digits", str(DIGITS), "--structured")
    if kind == "repeat":
        text = rng.choice(NAMED)
        return Query(qid, "eval", ("eval", text) + digits, False, True, parse_sum(text))
    if kind == "long":
        cf, skipped = long_period(rng)
        if rng.random() < 0.5:
            return Query(qid, "eval", ("eval", cf) + digits, True, False, parse_sum(cf), skipped)
        text = f"{cf}+{rng.randint(1, 3)}"
        argv = ("expand", text, "--structured")
        return Query(qid, "expand", argv, True, False, parse_sum(text), skipped)
    if kind == "eval":
        first = _cf_text(rng.randint(0, 3), _word(rng, 0, 4), _word(rng, 1, 6))
        second = _cf_text(0, _word(rng, 0, 4), _word(rng, 1, 6))
        text = f"{first}{rng.choice('+-')}{rng.choice(['1', '2', '1/2', '3/2'])}*{second}"
        return Query(qid, "eval", ("eval", text) + digits, False, False, parse_sum(text))
    if kind == "expand":
        cf = _cf_text(rng.randint(0, 3), _word(rng, 0, 3), _word(rng, 1, 4))
        text = f"{rng.choice(['2', '1/2', '3', '3/2'])}*{cf}{rng.choice('+-')}{rng.randint(1, 3)}"
        return Query(qid, "expand", ("expand", text, "--structured"), False, False, parse_sum(text))
    text, seq = _biseq(rng)
    if kind == "lambda":
        index = rng.randint(-12, 12)
        argv = ("lambda", text, "--index", str(index)) + digits
        return Query(qid, kind, argv, False, False, (seq, index))
    lp, core, origin, rp = seq
    start, end = -origin, len(core) - 1 - origin
    samples = tuple(rng.randint(start - 8, end + 8) for _ in range(SUP_SAMPLES))
    return Query(qid, kind, (kind, text) + digits, False, False, (seq, samples))


def long_period(rng) -> tuple[str, int]:
    """A continued fraction with a long period whose discriminant factors
    within LONG_RHO_STEPS, and the number of candidates passed over.

    Which candidates are kept depends on the seed alone, not on timing,
    so two runs of one seed attempt the same queries."""
    skipped = 0
    while True:
        a0, pre, per = rng.randint(0, 3), _word(rng, 0, 3), _word(rng, *LONG_PERIOD)
        if rho_steps(discriminant(per), LONG_RHO_STEPS) is not None:
            return _cf_text(a0, pre, per), skipped
        skipped += 1


def discriminant(period) -> int:
    """Discriminant of the quadratic whose root is the purely periodic
    continued fraction [(period)]."""
    p1, p0, q1, q0 = 1, 0, 0, 1
    for a in period:
        p1, p0 = a * p1 + p0, p1
        q1, q0 = a * q1 + q0, q1
    # y = (p1*y + p0) / (q1*y + q0)
    return (q0 - p1) ** 2 + 4 * q1 * p0


# ---------------------------------------------------------------------------
# factoring work of a discriminant


def _sieve(bound: int) -> list[int]:
    flags = bytearray([1]) * bound
    flags[:2] = b"\x00\x00"
    for p in range(2, isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i, f in enumerate(flags) if f]


TRIAL_PRIMES = _sieve(10_000)


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in TRIAL_PRIMES[:12]:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in TRIAL_PRIMES[:12]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent(n: int, budget: int) -> tuple[int | None, int]:
    """(a proper factor of the odd composite n or None, steps taken)."""
    steps = 0
    for c in range(1, 100):
        y, g, r, q = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            steps += r
            k = 0
            while k < r and g == 1:
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            steps += r
            r *= 2
            if steps > budget:
                return None, steps
        if g != n:
            return g, steps
    return None, steps


def rho_steps(n: int, budget: int) -> int | None:
    """Pollard-Brent steps needed to split n completely once primes below
    10**4 are divided out, or None when that takes more than budget."""
    for p in TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            n //= p
    total, pending = 0, [n]
    while pending:
        n = pending.pop()
        if n == 1 or _is_probable_prime(n):
            continue
        r = isqrt(n)
        if r * r == n:
            pending.append(r)
            continue
        g, steps = _brent(n, budget - total)
        total += steps
        if g is None:
            return None
        pending += [g, n // g]
    return total


# ---------------------------------------------------------------------------
# independent evaluation


def parse_sum(text: str) -> list[tuple[Fraction, tuple | None]]:
    """Terms (coefficient, (a0, preperiod, period) or None for a rational)
    of the sums this stream writes, e.g. "3+2*[0;3,2,1,(1,2)]"."""
    terms, token, sign, depth = [], "", 1, 0
    for ch in text + "+":
        if ch in "+-" and depth == 0:
            if token:
                terms.append(_term(sign, token))
                token = ""
            sign = 1 if ch == "+" else -1
            continue
        depth += (ch == "[") - (ch == "]")
        token += ch
    return terms


def _term(sign: int, token: str):
    if "[" not in token:
        return sign * Fraction(token), None
    coef, _, cf = token.rpartition("*")
    a0, _, rest = cf[1:-1].partition(";")
    pre, _, per = rest.partition("(")
    pre_terms = tuple(int(x) for x in pre.split(",") if x)
    return sign * Fraction(coef or 1), (int(a0), pre_terms, tuple(int(x) for x in per.rstrip(")").split(",")))


def cf_value(quotients) -> Fraction:
    """[q0; q1, ...] truncated to N_TERMS quotients."""
    p1, p0, q1, q0 = 1, 0, 0, 1
    for a in islice(quotients, N_TERMS):
        p1, p0 = a * p1 + p0, p1
        q1, q0 = a * q1 + q0, q1
    return Fraction(p1, q1)


def _epcf(a0, pre, per) -> Fraction:
    return cf_value(chain((a0,), pre, cycle(per)))


def sum_value(terms) -> Fraction:
    return sum((c * _epcf(*cf) if cf else c for c, cf in terms), Fraction(0))


def terms_value(terms: list[dict]) -> Fraction:
    """Sum of (a + b*sqrt(d))/c to within 1e-50 of each square root."""
    scale = 10**50
    total = Fraction(0)
    for t in terms:
        root = Fraction(isqrt(t["d"] * scale * scale), scale)
        total += (t["a"] + t["b"] * root) / t["c"]
    return total


def _at(seq, i: int) -> int:
    lp, core, origin, rp = seq
    start, end = -origin, len(core) - 1 - origin
    if start <= i <= end:
        return core[i - start]
    if i > end:
        return rp[(i - end - 1) % len(rp)]
    k = start - 1 - i
    return lp[len(lp) - 1 - (k % len(lp))]


def lambda_value(seq, i: int) -> Fraction:
    left = cf_value(_at(seq, i - k) for k in range(N_TERMS))
    right = cf_value(chain((0,), (_at(seq, i + k) for k in range(1, N_TERMS))))
    return left + right


# ---------------------------------------------------------------------------
# checks


def check(q: Query, rc: int, out: str) -> str | None:
    """None when the CLI's answer is right, else what is wrong with it."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        rec = json.loads(out)
    except ValueError:
        return f"output is not JSON: {out[:80]!r}"
    if q.kind == "eval":
        return _near(rec, sum_value(q.data))
    if q.kind == "expand":
        if "period" not in rec:
            return f"expected a periodic expansion, got {rec.get('expansion')}"
        a0 = int(rec["expansion"][1:].split(";")[0])
        got = _epcf(a0, tuple(rec["preperiod"]), tuple(rec["period"]))
        if abs(got - sum_value(q.data)) > TOL:
            return f"expansion {rec['expansion']} does not evaluate to the input"
        return None
    seq, extra = q.data
    if q.kind == "lambda":
        return _near(rec, lambda_value(seq, extra))
    if q.kind == "limsup":
        lp, core, origin, rp = seq
        far = len(core) - origin + N_TERMS * len(rp)
        return _near(rec, max(lambda_value(seq, far + k) for k in range(len(rp))))
    # sup: certified, and no sampled value above it
    if rec.get("status") != "certified":
        return f"sup status {rec.get('status')}"
    sup = Fraction(rec["decimal"])
    for i in extra:
        if lambda_value(seq, i) > sup + HALF_ULP + TOL:
            return f"lambda at {i} exceeds the sup {rec['decimal']}"
    for i in rec["attaining_indices"]:
        if abs(lambda_value(seq, i) - sup) > HALF_ULP + TOL:
            return f"lambda at attaining index {i} is not the sup {rec['decimal']}"
    return None


def _near(rec: dict, want: Fraction) -> str | None:
    if abs(terms_value(rec["terms"]) - want) > TOL:
        return f"value {rec.get('value') or rec.get('limsup')} is wrong"
    if abs(Fraction(rec["decimal"]) - want) > HALF_ULP + TOL:
        return f"decimal {rec['decimal']} is not {DIGITS} correct digits"
    return None
