"""Doubly infinite eventually periodic sequences and their two-sided values.

A BiSeq is a left period, a finite core with a marked origin, and a right
period.  The value at position i is

    lambda_i = [a_i; a_{i-1}, a_{i-2}, ...] + [0; a_{i+1}, a_{i+2}, ...]

with both tails eventually periodic, hence exactly evaluable.  sup over
all i is certified by finite inspection plus an exact envelope on the
tails: far from the core every lambda_i is within 2**-(n-1) of one of
finitely many phase limits, and ties against a limit are resolved by the
parity rule at the first position where the sequence leaves the periodic
pattern.  A phase limit is one surd, sqrt(disc)/p0 for the matrix
(p1, p0, q1, q0) of a rotation of the period (Perron; Cusick & Flahive,
The Markoff and Lagrange Spectra, 1989, ch. 1-2).  Each period's rotation
matrices are built once per sup, each from the last in O(1) steps, for the
limits and the sweep.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, count, cycle, islice

from .cfrac import EPCF, _alternating, _eval_mobius, _fixed_box, _fixed_point, _mobius_box, _mul
from .cfrac import _root, eval_periodic, mobius
from .quadfield import _SCALE, _ZERO, QuadExt, QuadSum, _Record

_MAX_OUTSIDE_CORE = 10**5  # lambda_at i places out: ~i tail terms, ~i/2 digits; 10**5 takes ~2 s

__all__ = [
    "BiSeq",
    "LambdaValue",
    "SupCertificate",
    "lambda_at",
    "limsup_lambda",
    "periodic_phase_limits",
    "sup_lambda",
]


class BiSeq(_Record):
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

    def at(self, i: int) -> int:
        if self.start <= i <= self.end:
            return self.core[i - self.start]
        if i > self.end:
            return self.right_period[(i - self.end - 1) % len(self.right_period)]
        k = self.start - 1 - i  # outward distance into the left tail
        lp = self.left_period
        return lp[len(lp) - 1 - (k % len(lp))]

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


class LambdaValue(_Record):
    """Exact two-sided value at one index, with both tails."""

    index: int
    value: QuadSum
    left_tail: EPCF
    right_tail: EPCF


def lambda_at(A: BiSeq, i: int) -> LambdaValue:
    """lambda_i and its tails [a_i; a_{i-1}, ...] and [0; a_{i+1}, ...] as EPCFs.
    Raises ValueError when i lies more than _MAX_OUTSIDE_CORE places outside the core."""
    if max(A.start - i, i - A.end) > _MAX_OUTSIDE_CORE:
        raise ValueError(f"index {i} lies more than {_MAX_OUTSIDE_CORE} places outside the core")
    lp, rp = A.left_period[::-1], A.right_period
    k, h = max(0, A.start - i) % len(lp), max(0, i - A.end) % len(rp)
    lt = EPCF(A.at(i), tuple(map(A.at, range(i - 1, A.start - 1, -1))), lp[k:] + lp[:k])
    rt = EPCF(0, tuple(map(A.at, range(i + 1, A.end + 1))), rp[h:] + rp[:h])
    return LambdaValue(i, QuadSum(eval_periodic(lt), eval_periodic(rt)), lt, rt)


def _rotations(P) -> list[tuple[int, int, int, int]]:
    """The matrices mobius(P[k:] + P[:k]) of the word's rotations, k = 0..len(P) - 1, each
    from the last in O(1) steps: moving the first symbol a to the back is X_a^-1 * M * X_a."""
    M, out = mobius(P), []
    for a in P:
        out.append(M)
        M = _mul(_mul((0, 1, 1, -a), M), (a, 1, 1, 0))
    return out


def _phase_limits(rotations, radicands: dict) -> list[QuadSum]:
    """One limit per phase from a period's _rotations.  At phase k both tails are periodic in
    rotation k + 1, M = (p1, p0, q1, q0): the right tail is 1/y at M's fixed point y, the left one
    the fixed point y_T of M transposed (the reversed period), which by Galois is -1/y' for the
    conjugate y'.  So the limit y_T + 1/y = sqrt(disc)/p0, over M's discriminant (_fixed_point)."""
    limits = []
    for M in rotations[1:] + rotations[:1]:
        s, d = _root(_fixed_point(M)[1], radicands)
        limits.append(QuadSum._of(QuadExt._reduced(0, s, M[1], d), _ZERO))
    return limits


def periodic_phase_limits(period: tuple[int, ...]) -> list[QuadSum]:
    """Two-sided values of the purely periodic word, one per phase, over one radicand."""
    return _phase_limits(_rotations(tuple(period)), {})


def limsup_lambda(A: BiSeq) -> QuadSum:
    """Exact limsup of lambda_i as i -> +infinity.

    Along each right-period phase the values converge to the two-sided
    value of the pure periodic word, so the limsup is the exact maximum
    over phases.
    """
    return max(periodic_phase_limits(A.right_period))


class SupCertificate(_Record):
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
    """A positive rational in [v - 10**-4, v] for the positive value v."""
    k = 4
    while True:
        ln, ld, _, _ = v._pairs(k)  # v.bracket(k)'s lower end, before its Fraction
        if ln > 0:
            return Fraction(ln, ld)
        k *= 2


def _exceeding(A: BiSeq) -> tuple[bool, bool]:
    """Whether some lambda_i, i > end in a phase class, may exceed its limit,
    for the even phases and for the odd ones.

    The right tails agree exactly, so one _alternating call orders the left
    tail against the purely periodic one: A read leftward from the core edge
    against the right period extended leftward, over the core and both periods
    (agreement there is agreement everywhere, and every lambda_i of the class
    equals the limit).  A first difference j places left of the edge sits at
    tail index phase + 1 + j + kR, whose parity is constant iff R is even, so
    the sign is decided once and only its parity test depends on the phase.
    """
    R = len(A.right_period)
    n = len(A.core) + len(A.left_period) + R
    edge = islice(chain(reversed(A.core), cycle(A.left_period[::-1])), n)
    sign, _ = _alternating(edge, islice(cycle(A.right_period[::-1]), n))
    return tuple(sign != 0 and (R % 2 == 1 or sign == (-1) ** (phase + 1)) for phase in (0, 1))


def _side_classes(A: BiSeq, rotations, radicands: dict) -> list[tuple[QuadSum, bool, int]]:
    """(phase limit, may exceed it, period length) for both directions, from the _rotations
    of the right period and of the reversed left period, the right periods of A and A.reversed()."""
    return [
        (lim, may[phase % 2], len(rots))
        for seq, rots in zip((A, A.reversed()), rotations)
        for may in (_exceeding(seq),)
        for phase, lim in enumerate(_phase_limits(rots, radicands))
    ]


def _outward_tails(A: BiSeq, rotations):
    """(i, lead, period, lead, period) of the two tails of lambda_i as in lambda_at's
    EPCFs, a period being (matrix, _fixed_box) of a rotation, from the _rotations of the right
    period and of the reversed left period: the core, then one period further out per side per
    step.  Each lead is _mul(X_a, frontier), a frontier with one symbol more; X_0 reads [0; w]."""
    right, left = ([(M, _fixed_box(M)) for M in rots] for rots in rotations)
    lw, rw = (1, 0, 0, 1), mobius(A.core)  # the words a_i..a_start and a_{i+1}..a_end
    frontier, start, end, L, R = rw, A.start, A.end, len(left), len(right)
    for i, a in enumerate(A.core, start):
        lw, rw = _mul((a, 1, 1, 0), lw), _mul((0, 1, 1, -a), rw)  # rw loses a_i
        yield i, lw, left[0], _mul((0, 1, 1, 0), rw), right[0]
    for k in count():
        for i in range(start - k * L - 1, start - (k + 1) * L - 1, -1):
            a = A.left_period[(i - start) % L]
            yield i, (a, 1, 1, 0), left[(start - i) % L], _mul((0, 1, 1, 0), frontier), right[0]
            frontier = _mul((a, 1, 1, 0), frontier)
        for i in range(end + k * R + 1, end + (k + 1) * R + 1):
            lw = _mul((A.right_period[(i - end - 1) % R], 1, 1, 0), lw)
            yield i, lw, left[0], (0, 1, 1, 0), right[(i - end) % R]


def sup_lambda(A: BiSeq, max_window_periods: int = 12) -> SupCertificate:
    """Certified sup of lambda_i over all integers i.

    Inspects the core widened by K copies of each period, K deepening up
    to max_window_periods, and certifies every uninspected index against
    the phase limits of the purely periodic tails, each sqrt(disc)/p0 of a
    rotation matrix that the sweep reads too: each period's rotations are
    built once.  An outward matrix sweep per side brackets lambda_i * 2**64
    in O(1) steps per index; only indices whose bracket reaches the highest
    lower end keep matrices and are evaluated exactly, with one radicand per
    period.  Limits meet the sup exactly only where brackets overlap;
    margins are computed only where an integer test on their lower bracket
    ends shows they can be the least.  A class whose limit is the sup is
    certified only if none of its values can exceed the limit; if A is
    purely periodic the limit is then attained inside the window.  Returns
    an inconclusive certificate at the window cap; raises ValueError if the
    cap is below 1.
    """
    if max_window_periods < 1:
        raise ValueError("max_window_periods must be positive")
    radicands, rotations = {}, [_rotations(P) for P in (A.right_period, A.left_period[::-1])]
    classes = [(lim, lim._scaled_box(), may, n)
               for lim, may, n in _side_classes(A, rotations, radicands)]
    max_lim = max(lim for lim, _, _, _ in classes)
    L, R, one = len(A.left_period), len(A.right_period), 1 << _SCALE
    tails, near, values, top = _outward_tails(A, rotations), [], {}, -1  # every bracket end is >= 0
    for K in range(1, max_window_periods + 1):
        window = (A.start - K * L, A.end + K * R)
        for i, lm, (lM, lbox), rm, (rM, rbox) in islice(tails, L + R + (K == 1) * len(A.core)):
            (llo, lhi), (rlo, rhi) = _mobius_box(lm, lbox), _mobius_box(rm, rbox)
            # top only rises, so an index dropped here cannot hold the sup; `>` would do as well:
            # _fixed_box holds an irrational periodic tail strictly, as does its image under a
            # det +-1 matrix, so lhi + rhi == top means lambda_i < lambda_j, j the index of top
            if lhi + rhi >= top:
                near.append((i, llo + rlo, lhi + rhi, (lm, lM), (rm, rM)))
                top = max(top, llo + rlo)
        near = sorted(t for t in near if t[2] >= top)  # every index of the sup is here
        values = {
            i: values[i] if i in values else QuadSum(*(_eval_mobius(*t, radicands) for t in ends))
            for i, _, _, *ends in near
        }
        best = max(values.values())
        target = best if best >= max_lim else max_lim
        tlo, thi = target._scaled_box()
        gaps = []
        for lim, (llo, lhi), may_exceed, plen in classes:
            if llo <= thi and tlo <= lhi and lim == target:
                if may_exceed:
                    break
                continue
            n = K * plen - 1  # lim < target: need the envelope lim + 2**-n below target
            tie = (tlo - lhi) << n <= one  # too close for the brackets to tell
            if (thi - llo) << n <= one or tie and (target - lim - Fraction(1, 1 << n)).sign() <= 0:
                break
            gaps.append((thi - llo, ((tlo - lhi) << n) - one, n, lim))  # lower end * (one << n)
        else:
            # a margin is at least its gap - 10**-4 (_rational_lower_bound): a gap whose lower
            # end low / unit is that far above the least margin so far cannot lower it
            margin = None
            for _, low, n, lim in sorted(gaps, key=lambda g: g[0]):
                unit = one << n
                if not margin or ((low * 10**4 - unit) * margin.denominator
                                  < margin.numerator * unit * 10**4):
                    m = _rational_lower_bound(target - lim - Fraction(1, 1 << n))
                    margin = min(m, margin or m)
            margin = margin or Fraction(1)
            if best >= max_lim:
                arg = tuple(i for i, v in values.items() if v == best)
                return SupCertificate(best, True, arg, window, margin, "certified")
            return SupCertificate(max_lim, False, (), window, margin, "certified")
    return SupCertificate(target, False, (), window, Fraction(0), "inconclusive")
