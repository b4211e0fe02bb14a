"""Explicit sequences and word transformations used by the spectrum analysis.

Includes the reference two-sided sequence whose sup realizes the gap
endpoint, the block word whose one-sided values approach it from below,
repetition search, block surgery (delete or duplicate a repeated segment
to enlarge the value), and builders for eventually periodic numbers with
certified attainability excursions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bisequence import BiSeq, lambda_at, periodic_phase_limits
from .cfrac import EPCF, FiniteCF, cmp_prefix, eval_finite, eval_periodic
from .quadfield import QuadExt, QuadSum

__all__ = [
    "AttainReport",
    "BadRError",
    "NoRepeatError",
    "PeriodicWithinWordError",
    "SurgeryResult",
    "alpha0_core_indices",
    "alpha0_prefix",
    "attainable_from_periodic",
    "block_word",
    "build_a0",
    "c_block",
    "dirichlet_repeat",
    "gap_left_endpoint",
    "surgery",
]


class NoRepeatError(ValueError):
    """No same-parity repeated window was found in the word."""


class PeriodicWithinWordError(ValueError):
    """The two shifted suffixes agree to the end of the word."""


class BadRError(ValueError):
    """The supplied prefix word fails the strict reversed-tail inequality."""


def build_a0() -> BiSeq:
    """The reference sequence <(2,1) | 1,2,3,3*,3,2,1 | (1,2)>."""
    return BiSeq((2, 1), (1, 2, 3, 3, 3, 2, 1), 3, (1, 2))


def gap_left_endpoint() -> QuadSum:
    """[3;3,3,2,1,(1,2)] + [0;2,1,(1,2)] = (62976 - 1498*sqrt(3))/16357."""
    return QuadSum(
        eval_periodic(EPCF(3, (3, 3, 2, 1), (1, 2))),
        eval_periodic(EPCF(0, (2, 1), (1, 2))),
    )


def c_block(n: int) -> tuple[int, ...]:
    """Block ((2,1) n times, 1,2,3,3,3,2,1, (1,2) n times); length 4n + 7."""
    if n < 1:
        raise ValueError("block index must be positive")
    return (2, 1) * n + (1, 2, 3, 3, 3, 2, 1) + (1, 2) * n


def alpha0_prefix(m: int) -> FiniteCF:
    """[0; C1, C2, ..., Cm] with the blocks concatenated in order."""
    if m < 1:
        raise ValueError("need at least one block")
    word: tuple[int, ...] = ()
    for n in range(1, m + 1):
        word += c_block(n)
    return FiniteCF(0, word)


def alpha0_core_indices(m: int) -> list[tuple[int, int, int]]:
    """1-based positions of the three core 3s of each block, first m blocks."""
    out = []
    pos = 1
    for n in range(1, m + 1):
        first = pos + 2 * n + 2
        out.append((first, first + 1, first + 2))
        pos += 4 * n + 7
    return out


def dirichlet_repeat(word, n: int) -> tuple[int, int]:
    """Earliest same-parity pair (n1, n2), 1-based, with equal length-(2n+1)
    windows: word[n1+i] = word[n2+i] for 0 <= i <= 2n.

    Existence is guaranteed for words of length (2n+1)*(4**(2n+1)+1) over
    the alphabet 1..4: among same-parity start positions there are more
    windows than distinct window contents.
    """
    w = tuple(word)
    for q in w:
        if not 1 <= q <= 4:
            raise ValueError("word elements must lie in 1..4")
    if n < 0:
        raise ValueError("n must be nonnegative")
    width = 2 * n + 1
    last = len(w) - width  # last 0-based window start
    for s1 in range(0, last + 1):
        for s2 in range(s1 + 2, last + 1, 2):
            if w[s1 : s1 + width] == w[s2 : s2 + width]:
                return s1 + 1, s2 + 1
    raise NoRepeatError(f"no repeated parity-aligned window of length {width}")


@dataclass(frozen=True)
class SurgeryResult:
    """Outcome of deleting/duplicating the repeated segment of a word."""

    c1: tuple[int, ...]
    c2: tuple[int, ...]
    chosen: str  # "first" (deletion) or "second" (duplication)
    witness_index: int  # first disagreement offset r of the shifted suffixes

    @property
    def chosen_word(self) -> tuple[int, ...]:
        return self.c1 if self.chosen == "first" else self.c2


def surgery(word, n1: int, n2: int) -> SurgeryResult:
    """Delete or duplicate word[n1..n2-1] (1-based); exactly one variant
    evaluates strictly greater than the original under any common
    continuation, decided by the parity rule at the first disagreement
    of the shifted suffixes.
    """
    w = tuple(word)
    if not (1 <= n1 < n2 <= len(w)):
        raise ValueError("need 1 <= n1 < n2 <= len(word)")
    if (n2 - n1) % 2:
        raise ValueError("n1 and n2 must have equal parity")
    if w[n1 - 1] != w[n2 - 1]:
        raise ValueError("word[n1] and word[n2] must agree")
    r = None
    for i in range(1, len(w) - n2 + 1):
        if w[n1 - 1 + i] != w[n2 - 1 + i]:
            r = i
            break
    if r is None:
        raise PeriodicWithinWordError(
            "shifted suffixes agree to the end of the word"
        )
    seg = w[n1 - 1 : n2 - 1]
    c1 = w[: n1 - 1] + w[n2 - 1 :]
    c2 = w[: n1 - 1] + seg + seg + w[n2 - 1 :]
    ord1, _ = cmp_prefix((0,) + c1, (0,) + w)
    ord2, _ = cmp_prefix((0,) + c2, (0,) + w)
    assert ord1 * ord2 == -1, "exactly one variant must exceed the original"
    chosen = "first" if ord1 > 0 else "second"
    return SurgeryResult(c1, c2, chosen, r)


@dataclass(frozen=True)
class AttainReport:
    """Verified strict excursions of an eventually periodic number."""

    j: int  # within-period site maximizing the periodic two-sided value
    mu: QuadSum  # that maximum, = mu of the purely periodic number
    checked_m: tuple[int, ...]
    lambda_values: tuple[QuadSum, ...]  # lambda_{j + 2mn + l} for each m


def attainable_from_periodic(P, R, check_m: int) -> tuple[EPCF, AttainReport]:
    """Build [0; R, (P)] and verify its attainability excursions exactly.

    Requires the strict reversed-tail inequality
    [0; c_{j-1},...,c_1, reversed(R)] > [0; c_{j-1},...,c_1, backward period]
    at the site j maximizing the periodic two-sided value (ties to the
    smallest j); raises BadRError otherwise.  The report then certifies
    lambda_{j + 2mn + l} > mu for m = 1..check_m.
    """
    P = tuple(P)
    R = tuple(R)
    if not P:
        raise ValueError("P must be nonempty")
    if check_m < 1:
        raise ValueError("check_m must be positive")
    limits = periodic_phase_limits(P)
    j0 = max(range(len(P)), key=limits.__getitem__)
    mu = limits[j0]
    j = j0 + 1  # 1-based site within the period

    # both tails of the purely periodic word at j0
    lv = lambda_at(BiSeq(P, P, 0, P), j0)
    back_pre = lv.left_tail.preperiod  # c_{j-1}..c_1
    periodic_back = eval_periodic(EPCF(0, back_pre, lv.left_tail.period))
    finite_back = eval_finite(FiniteCF(0, back_pre + tuple(reversed(R)))) if (
        back_pre or R
    ) else None
    if finite_back is None or not QuadSum(finite_back) > QuadSum(periodic_back):
        raise BadRError(
            "[0; c_{j-1},...,c_1, reversed(R)] must exceed the periodic tail"
        )

    gamma_prime = EPCF(0, R, P)
    forward = eval_periodic(EPCF(P[j0], lv.right_tail.preperiod, lv.right_tail.period))
    ms = tuple(range(1, check_m + 1))
    lams = []
    for m in ms:
        back_word = back_pre + tuple(reversed(P)) * 2 * m + tuple(reversed(R))
        lam = QuadSum(forward, QuadExt.from_rational(eval_finite(FiniteCF(0, back_word))))
        if not lam > mu:
            raise AssertionError(f"excursion fails at m={m}: {lam} <= {mu}")
        lams.append(lam)
    return gamma_prime, AttainReport(j, mu, ms, tuple(lams))


def block_word(periods, reps) -> tuple[int, ...]:
    """Concatenate each period repeated 2*reps[i] + 1 times."""
    periods = [tuple(p) for p in periods]
    reps = list(reps)
    if len(periods) != len(reps):
        raise ValueError("periods and reps must have equal length")
    out: tuple[int, ...] = ()
    for p, r in zip(periods, reps):
        if r < 1:
            raise ValueError("repetition counts must be positive")
        out += p * (2 * r + 1)
    return out
