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


def _rot(word: tuple[int, ...], k: int) -> tuple[int, ...]:
    k %= len(word)
    return word[k:] + word[:k]


def _left_tail(A: BiSeq, i: int) -> EPCF:
    """[a_i; a_{i-1}, a_{i-2}, ...] as an EPCF."""
    outward = tuple(reversed(A.left_period))
    if i >= A.start:
        pre = tuple(A.at(j) for j in range(i - 1, A.start - 1, -1))
        return EPCF(A.at(i), pre, outward)
    k = A.start - 1 - i
    return EPCF(A.at(i), (), _rot(outward, k + 1))


def _right_tail(A: BiSeq, i: int) -> EPCF:
    """[0; a_{i+1}, a_{i+2}, ...] as an EPCF."""
    if i < A.end:
        pre = tuple(A.at(j) for j in range(i + 1, A.end + 1))
        return EPCF(0, pre, A.right_period)
    return EPCF(0, (), _rot(A.right_period, i - A.end))


@dataclass(frozen=True)
class LambdaValue:
    """Exact two-sided value at one index, with both tails."""

    index: int
    value: QuadSum
    left_tail: EPCF
    right_tail: EPCF


def lambda_at(A: BiSeq, i: int) -> LambdaValue:
    lt = _left_tail(A, i)
    rt = _right_tail(A, i)
    return LambdaValue(i, QuadSum(eval_periodic(lt), eval_periodic(rt)), lt, rt)


def periodic_phase_limits(period: tuple[int, ...]) -> list[QuadSum]:
    """Two-sided values of the purely periodic word, one per phase."""
    m = len(period)
    out = []
    for phase in range(m):
        left = EPCF(
            period[phase], (), tuple(period[(phase - 1 - k) % m] for k in range(m))
        )
        right = EPCF(0, (), _rot(period, phase + 1))
        out.append(QuadSum(eval_periodic(left), eval_periodic(right)))
    return out


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


# classification of all lambda_i beyond the window edge, per phase class
_BELOW = "below"
_EQUAL = "equal"
_ABOVE_POSSIBLE = "above_possible"


def _class_relation(A: BiSeq, phase: int) -> str:
    """Relate lambda_i to its phase limit for all i > end in one phase class.

    The right tails agree exactly, so the comparison is between the left
    tail and the purely periodic left tail.  Scanning leftward from the
    core edge finds the first position where A leaves the periodic
    pattern; beyond it the parity rule decides every comparison at once.
    If no such position exists the two sequences agree everywhere and
    every lambda_i in the class equals the limit.
    """
    R = len(A.right_period)
    L = len(A.left_period)

    def pure(j: int) -> int:
        return A.right_period[(j - A.end - 1) % R]

    lo = A.start - (L + R)
    x = None
    for j in range(A.end, lo - 1, -1):
        if A.at(j) != pure(j):
            x = j
            break
    if x is None:
        # periodic structures coincide on a full L+R stretch, hence everywhere
        return _EQUAL
    u, v = A.at(x), pure(x)
    # indices i > end in this class have first difference at tail index i - x;
    # i steps by R, so the parity of i - x is constant iff R is even
    if R % 2 == 1:
        return _ABOVE_POSSIBLE
    i0 = A.end + 1 + phase
    r = i0 - x
    above = (u > v) if (r - 1) % 2 == 1 else (u < v)
    return _ABOVE_POSSIBLE if above else _BELOW


def _side_classes(A: BiSeq):
    """(phase limit, relation, period length) for both directions."""
    out = []
    rev = A.reversed()
    for seq in (A, rev):
        limits = periodic_phase_limits(seq.right_period)
        for phase, lim in enumerate(limits):
            out.append((lim, _class_relation(seq, phase), len(seq.right_period)))
    return out


def sup_lambda(A: BiSeq, max_window_periods: int = 12) -> SupCertificate:
    """Certified sup of lambda_i over all integers i.

    Inspects the core widened by K copies of each period, K deepening up
    to max_window_periods, and certifies every uninspected index against
    the phase limits.  Returns an inconclusive certificate if the window
    cap is reached without separation.
    """
    classes = _side_classes(A)
    max_lim = max(lim for lim, _, _ in classes)

    window: tuple[int, int] = (A.start, A.end)
    best: QuadSum | None = None
    for K in range(1, max_window_periods + 1):
        lo = A.start - K * len(A.left_period)
        hi = A.end + K * len(A.right_period)
        window = (lo, hi)
        values = {i: lambda_at(A, i).value for i in range(lo, hi + 1)}
        best = None
        arg: list[int] = []
        for i in range(lo, hi + 1):
            v = values[i]
            if best is None or v > best:
                best, arg = v, [i]
            elif v == best:
                arg.append(i)
        target = best if best >= max_lim else max_lim

        ok = True
        margins: list[Fraction] = []
        attained_by_tail = False
        for lim, rel, plen in classes:
            eps = distance_bounds(K * plen).eps
            if lim == target:
                if rel == _ABOVE_POSSIBLE:
                    ok = False
                    break
                if rel == _EQUAL:
                    attained_by_tail = True
                continue
            # lim < target: need the envelope lim + eps below target
            gap = target - lim
            if gap.sign() <= 0 or (gap - eps).sign() <= 0:
                ok = False
                break
            margins.append(_rational_lower_bound(gap - eps))
        if not ok:
            continue

        margin = min(margins) if margins else Fraction(1)
        if best >= max_lim:
            return SupCertificate(
                sup=best,
                attained=True,
                attaining_indices=tuple(arg),
                window=window,
                margin=margin,
                status="certified",
            )
        if attained_by_tail:
            # a tail class equals max_lim yet no window value reaches it
            continue
        return SupCertificate(
            sup=max_lim,
            attained=False,
            attaining_indices=(),
            window=window,
            margin=margin,
            status="certified",
        )

    sup = best if best is not None and best >= max_lim else max_lim
    return SupCertificate(
        sup=sup,
        attained=False,
        attaining_indices=(),
        window=window,
        margin=Fraction(0),
        status="inconclusive",
    )
