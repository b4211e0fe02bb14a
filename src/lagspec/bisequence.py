"""Doubly infinite eventually periodic sequences and their two-sided values.

A BiSeq is a left period, a finite core with a marked origin, and a right
period.  The value at position i is

    lambda_i = [a_i; a_{i-1}, a_{i-2}, ...] + [0; a_{i+1}, a_{i+2}, ...]

with both tails eventually periodic, hence exactly evaluable.  sup over
all i is certified by finite inspection plus an exact envelope on the
tails: far from the core every lambda_i is within 2**-(n-1) of one of
finitely many phase limits, and ties against a limit are resolved by the
parity rule at the first position where the sequence leaves the periodic
pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cfrac import EPCF, distance_bounds, eval_periodic
from .quadfield import QuadSum

__all__ = [
    "BiSeq",
    "LambdaValue",
    "SupCertificate",
    "lambda_at",
    "limsup_lambda",
    "periodic_phase_limits",
    "sup_lambda",
]


@dataclass(frozen=True)
class BiSeq:
    """Eventually periodic two-sided sequence of positive integers.

    Periods are stored in display order, the order they are written in
    the text form ``<(2,1) | 1,2,3,3*,3,2,1 | (1,2)>``.  Reading outward
    from the core, the left tail therefore cycles through the reversed
    left period.  ``origin`` marks which core element is a_0.
    """

    left_period: tuple[int, ...]
    core: tuple[int, ...]
    origin: int
    right_period: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "left_period", tuple(self.left_period))
        object.__setattr__(self, "core", tuple(self.core))
        object.__setattr__(self, "right_period", tuple(self.right_period))
        if not self.left_period or not self.right_period:
            raise ValueError("periods must be nonempty")
        if not self.core:
            raise ValueError("core must be nonempty")
        if not (0 <= self.origin < len(self.core)):
            raise ValueError("origin outside core")
        for q in self.left_period + self.core + self.right_period:
            if q < 1:
                raise ValueError("sequence elements must be positive")

    @property
    def start(self) -> int:
        """Index of the first core element."""
        return -self.origin

    @property
    def end(self) -> int:
        """Index of the last core element."""
        return len(self.core) - 1 - self.origin

    def __call__(self, i: int) -> int:
        return self.at(i)

    def at(self, i: int) -> int:
        if self.start <= i <= self.end:
            return self.core[i - self.start]
        if i > self.end:
            return self.right_period[(i - self.end - 1) % len(self.right_period)]
        k = self.start - 1 - i  # outward distance into the left tail
        lp = self.left_period
        return lp[len(lp) - 1 - (k % len(lp))]

    def shifted(self, k: int) -> "BiSeq":
        """Move the origin marker k places to the right within the core."""
        return BiSeq(self.left_period, self.core, self.origin + k, self.right_period)

    def reversed(self) -> "BiSeq":
        """The reflected sequence a'(i) = a(-i)."""
        return BiSeq(
            tuple(reversed(self.right_period)),
            tuple(reversed(self.core)),
            len(self.core) - 1 - self.origin,
            tuple(reversed(self.left_period)),
        )

    def __str__(self):
        parts = [
            str(v) + ("*" if k == self.origin else "")
            for k, v in enumerate(self.core)
        ]
        lp = ",".join(map(str, self.left_period))
        rp = ",".join(map(str, self.right_period))
        return f"<({lp}) | {','.join(parts)} | ({rp})>"


def _right_tail(lp, core, c: int, rp, a0: int = 0) -> EPCF:
    """[a0; x_{c+1}, x_{c+2}, ...] as an EPCF, for the sequence x with
    left period lp, core x_0, x_1, ... and right period rp."""
    pre = tuple(lp[j % len(lp)] for j in range(c + 1, 0)) + core[max(c + 1, 0) :]
    k = max(0, c + 1 - len(core)) % len(rp)
    return EPCF(a0, pre, rp[k:] + rp[:k])


@dataclass(frozen=True)
class LambdaValue:
    """Exact two-sided value at one index, with both tails."""

    index: int
    value: QuadSum
    left_tail: EPCF
    right_tail: EPCF


def lambda_at(A: BiSeq, i: int) -> LambdaValue:
    # the left tail [a_i; a_{i-1}, ...] is a right tail of the reflection
    c, lp, core, rp = i + A.origin, A.left_period, A.core, A.right_period
    lt = _right_tail(rp[::-1], core[::-1], len(core) - 1 - c, lp[::-1], A.at(i))
    rt = _right_tail(lp, core, c, rp)
    return LambdaValue(i, QuadSum(eval_periodic(lt), eval_periodic(rt)), lt, rt)


def periodic_phase_limits(period: tuple[int, ...]) -> list[QuadSum]:
    """Two-sided values of the purely periodic word, one per phase."""
    pure = BiSeq(period, period, 0, period)
    return [lambda_at(pure, k).value for k in range(len(period))]


def limsup_lambda(A: BiSeq) -> QuadSum:
    """Exact limsup of lambda_i as i -> +infinity.

    Along each right-period phase the values converge to the two-sided
    value of the pure periodic word, so the limsup is the exact maximum
    over phases.
    """
    return max(periodic_phase_limits(A.right_period))


@dataclass(frozen=True)
class SupCertificate:
    """Certified value of sup over all i of lambda_i.

    When attained, attaining_indices lists every attaining index found in
    the inspected window (for purely periodic sequences the attainment
    repeats outside it, certified by exact tail equality).  margin is a
    positive rational separating sup from the envelope of every class of
    uninspected indices whose phase limit lies strictly below sup; classes
    whose limit equals sup are certified by the exact parity argument
    instead.  status is "certified" or "inconclusive".
    """

    sup: QuadSum
    attained: bool
    attaining_indices: tuple[int, ...]
    window: tuple[int, int]
    margin: Fraction
    status: str


def _rational_lower_bound(v: QuadSum) -> Fraction:
    """A positive rational strictly below the positive value v."""
    k = 4
    while True:
        lo, _ = v.bracket(k)
        if lo > 0:
            return lo
        k *= 2


def _may_exceed(A: BiSeq, phase: int) -> bool:
    """Whether some lambda_i, i > end in one phase class, may exceed its limit.

    The right tails agree exactly, so the comparison is between the left
    tail and the purely periodic left tail.  Scanning leftward from the
    core edge finds the first position x where A leaves the periodic
    pattern; beyond it the parity rule decides every comparison at once.
    If no such position exists the two sequences agree everywhere and
    every lambda_i in the class equals the limit.
    """
    R = len(A.right_period)
    for x in range(A.end, A.start - len(A.left_period) - R - 1, -1):
        u, v = A.at(x), A.right_period[(x - A.end - 1) % R]
        if u != v:
            break
    else:
        # periodic structures coincide on a full L+R stretch, hence everywhere
        return False
    # indices i > end in this class have first difference at tail index i - x;
    # i steps by R, so the parity of i - x is constant iff R is even
    if R % 2 == 1:
        return True
    r = A.end + 1 + phase - x
    return (u > v) if (r - 1) % 2 == 1 else (u < v)


def _side_classes(A: BiSeq) -> list[tuple[QuadSum, bool, int]]:
    """(phase limit, may exceed it, period length) for both directions."""
    return [
        (lim, _may_exceed(seq, phase), len(seq.right_period))
        for seq in (A, A.reversed())
        for phase, lim in enumerate(periodic_phase_limits(seq.right_period))
    ]


def sup_lambda(A: BiSeq, max_window_periods: int = 12) -> SupCertificate:
    """Certified sup of lambda_i over all integers i.

    Inspects the core widened by K copies of each period, K deepening up
    to max_window_periods, evaluating each window index once, and
    certifies every uninspected index against the phase limits of the
    purely periodic tails.  A class whose limit is the sup is certified
    only if none of its values can exceed the limit; if A is purely
    periodic the limit is then attained inside the window.  Returns an
    inconclusive certificate if the window cap is reached without
    separation; raises ValueError if the cap is below 1.
    """
    if max_window_periods < 1:
        raise ValueError("max_window_periods must be positive")
    classes = _side_classes(A)
    max_lim = max(lim for lim, _, _ in classes)
    values: dict[int, QuadSum] = {}
    for K in range(1, max_window_periods + 1):
        window = (A.start - K * len(A.left_period), A.end + K * len(A.right_period))
        span = range(window[0], window[1] + 1)
        for i in span:
            if i not in values:
                values[i] = lambda_at(A, i).value
        best = max(values[i] for i in span)
        target = best if best >= max_lim else max_lim
        margins: list[Fraction] = []
        for lim, may_exceed, plen in classes:
            if lim == target:
                if may_exceed:
                    break
                continue
            # lim < target: need the envelope lim + eps below target
            gap = target - lim - distance_bounds(K * plen).eps
            if gap.sign() <= 0:
                break
            margins.append(_rational_lower_bound(gap))
        else:
            margin = min(margins, default=Fraction(1))
            if best >= max_lim:
                arg = tuple(i for i in span if values[i] == best)
                return SupCertificate(best, True, arg, window, margin, "certified")
            return SupCertificate(max_lim, False, (), window, margin, "certified")
    return SupCertificate(target, False, (), window, Fraction(0), "inconclusive")
