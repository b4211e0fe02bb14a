"""Finite and eventually periodic continued fractions.

Words are kept as combinatorial objects: [0;2,1] and [0;3] denote the
same rational but stay distinct words, since trailing quotients matter
for pattern analysis.  Every convergent recurrence runs through one 2x2
matrix kernel, mobius, and every cylinder interval is the image of a tail
interval under such a matrix, by mobius_pairs on integer pairs; cylinder
is its Fraction face.  _FREE is the free tail [1, inf], and _END the point
inf, an end that stops exactly.  Evaluation is exact (Fraction or QuadExt),
and period detection works on exact surd states.  One order kernel,
_alternating, decides the alternating parity rule for continued fractions:
cmp_prefix and every other comparison by first difference use it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import inf

from .quadfield import _SCALE, QuadExt, _Record, _floor_root, squarefree_decompose

__all__ = [
    "EPCF",
    "EpsDelta",
    "FiniteCF",
    "PeriodNotFoundError",
    "PrefixOrderUndecided",
    "convergents",
    "cylinder",
    "cmp_prefix",
    "distance_bounds",
    "eval_finite",
    "eval_periodic",
    "expand",
    "mobius",
    "mobius_pairs",
]


class PeriodNotFoundError(RuntimeError):
    """Surd state did not repeat within the term budget."""


class PrefixOrderUndecided(ValueError):
    """One word is a prefix of the other; the parity rule does not apply."""


def _check_quotients(seq, what):
    for q in seq:
        if q < 1:
            raise ValueError(f"{what} must be positive integers, got {q}")


class FiniteCF(_Record):
    """Finite continued fraction [a0; a1, ..., an]."""

    a0: int
    tail: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "tail", tuple(self.tail))
        _check_quotients(self.tail, "partial quotients")

    @property
    def word(self) -> tuple[int, ...]:
        return (self.a0,) + self.tail

    def __len__(self):
        return 1 + len(self.tail)

    def __str__(self):
        if not self.tail:
            return f"[{self.a0}]"
        return f"[{self.a0};{','.join(map(str, self.tail))}]"


class EPCF(_Record):
    """Eventually periodic continued fraction [a0; pre..., (period...)]."""

    a0: int
    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "preperiod", tuple(self.preperiod))
        object.__setattr__(self, "period", tuple(self.period))
        if not self.period:
            raise ValueError("period must be nonempty")
        _check_quotients(self.preperiod, "partial quotients")
        _check_quotients(self.period, "partial quotients")

    def quotient(self, i: int) -> int:
        """The i-th term of the infinite word, i = 0 giving a0."""
        if i == 0:
            return self.a0
        i -= 1
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def __str__(self):
        per = f"({','.join(map(str, self.period))})"
        if self.preperiod:
            return f"[{self.a0};{','.join(map(str, self.preperiod))},{per}]"
        return f"[{self.a0};{per}]"


class EpsDelta(_Record):
    """Distance bounds for words agreeing on an n-term prefix."""

    n: int
    eps: Fraction
    delta: Fraction


def distance_bounds(n: int) -> EpsDelta:
    """eps = 2**-(n-1) and delta = 5**-2(n+2) for prefix length n >= 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return EpsDelta(n, Fraction(2) ** (1 - n), Fraction(5) ** (-2 * (n + 2)))


def _word_of(w) -> tuple[int, ...]:
    if isinstance(w, FiniteCF):
        return w.word
    return tuple(w)


def mobius(word, m=(1, 0, 0, 1)) -> tuple[int, int, int, int]:
    """Matrix of the homographic map x -> [word..., x] = (p1*x + p0)/(q1*x + q0),
    continued from m; from the identity, p1/q1 and p0/q0 are the word's last
    two convergents, and mobius(u + v) == mobius(v, mobius(u))."""
    p1, p0, q1, q0 = m
    for a in word:
        p1, p0 = a * p1 + p0, p1
        q1, q0 = a * q1 + q0, q1
    return p1, p0, q1, q0


_FREE = (1, 1, 1, 0)  # the free tail [1, inf] as (ln, ld, hn, hd), den 0 being inf
_END = (1, 0, 1, 0)  # the point inf, an end that stops exactly: m maps it to (p1, q1) twice


def mobius_pairs(m, tail) -> tuple[int, int, int, int]:
    """The image of the tail interval (ln/ld, hn/hd), hd 0 being +inf, under
    x -> (p1*x + p0)/(q1*x + q0), as unreduced ends (ln, ld, hn, hd), lower
    end first, with positive denominators for a nonempty word's m and a tail
    in [1, inf]; the tail _END gives the word's last convergent twice.  A
    word's map rises when its length is even, det m > 0."""
    p1, p0, q1, q0 = m
    ln, ld, hn, hd = tail
    lo, hi = (p1 * ln + p0 * ld, q1 * ln + q0 * ld), (p1 * hn + p0 * hd, q1 * hn + q0 * hd)
    return lo + hi if p1 * q0 > p0 * q1 else hi + lo


def convergents(w) -> list[tuple[int, int]]:
    """Convergents (p, q) of a finite word, leading term included."""
    m = (1, 0, 0, 1)
    out = []
    for a in _word_of(w):
        m = mobius((a,), m)
        out.append((m[0], m[2]))
    return out


def eval_finite(w) -> Fraction:
    """Exact rational value of a finite word; equals its last convergent."""
    p, _, q, _ = mobius(_word_of(w))
    return Fraction(p, q)


def _fixed_point(M) -> tuple[int, int, int]:
    """(u, disc, v) with the fixed point above 1 of the period matrix M = (u + sqrt(disc)) / v."""
    p1, p0, q1, q0 = M
    return p1 - q0, (p1 - q0) ** 2 + 4 * q1 * p0, 2 * q1


def eval_periodic(cf: EPCF) -> QuadExt:
    """Exact value of an eventually periodic continued fraction, by _eval_mobius."""
    return _eval_mobius(mobius((cf.a0,) + cf.preperiod), mobius(cf.period), {})


def _eval_mobius(m, M, radicands: dict) -> QuadExt:
    """The map m of a0 and the preperiod at the fixed point y = (u + s*sqrt(d)) / v of
    the period's M is (n1 + n2*sqrt(d)) / (m1 + m2*sqrt(d)), rationalised in one step;
    radicands memoises squarefree_decompose by disc, shared by a period's rotations."""
    u, disc, v = _fixed_point(M)
    if disc not in radicands:
        radicands[disc] = squarefree_decompose(disc)
    s, d = radicands[disc]
    p1, p0, q1, q0 = m
    n1, n2, m1, m2 = p1 * u + p0 * v, p1 * s, q1 * u + q0 * v, q1 * s
    return QuadExt._reduced(n1 * m1 - n2 * m2 * d, n2 * m1 - n1 * m2, m1 * m1 - m2 * m2 * d, d)


def _fixed_box(M) -> tuple[int, int, int, int]:
    """Integer pairs (n/v, (n + 1)/v) around the fixed point above 1 of M, by _floor_root."""
    u, disc, v = _fixed_point(M)
    n = (u << _SCALE) + _floor_root(1 << _SCALE, disc)
    return n, v << _SCALE, n + 1, v << _SCALE


def _mobius_box(m, box) -> tuple[int, int]:
    """Integers lo <= x * 2**_SCALE <= hi for x = m(y), y in the pair bracket box."""
    ln, ld, hn, hd = mobius_pairs(m, box)
    return (ln << _SCALE) // ld, -((-hn << _SCALE) // hd)


def expand(x, max_terms: int = 512):
    """Continued fraction of an exact value, with period detection.

    Rational input yields its FiniteCF in canonical Euclid form; quadratic irrationals yield
    the EPCF of the first repeated surd state (P + sqrt(D))/Q, whose quotient is
    (P + _floor_root(1, D) + (Q < 0)) // Q, so eval_periodic(expand(x)) == x exactly.  Raises
    PeriodNotFoundError if no state repeats in max_terms quotients; ValueError if max_terms < 1.
    """
    if max_terms < 1:
        raise ValueError("max_terms must be positive")
    if isinstance(x, (int, Fraction)):
        x = QuadExt.from_rational(x)
    if x.is_rational:
        num, den = x.a, x.c
        quots = []
        while den:
            a, num = divmod(num, den)
            quots.append(a)
            num, den = den, num
        return FiniteCF(quots[0], tuple(quots[1:]))
    # surd state (P + sqrt(D)) / Q with Q dividing D - P*P
    D = x.b * x.b * x.d
    if x.b > 0:
        P, Q = x.a, x.c
    else:
        P, Q = -x.a, -x.c
    if (D - P * P) % Q:
        P, D, Q = P * abs(Q), D * Q * Q, Q * abs(Q)
    s = _floor_root(1, D)
    seen: dict[tuple[int, int], int] = {}
    quots = []
    for i in range(max_terms):
        if (P, Q) in seen:
            k = seen[(P, Q)]
            if k == 0:
                # purely periodic: the tail period wraps around to a0
                return EPCF(quots[0], (), tuple(quots[1:]) + (quots[0],))
            return EPCF(quots[0], tuple(quots[1:k]), tuple(quots[k:]))
        seen[(P, Q)] = i
        a = (P + s + (Q < 0)) // Q
        quots.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
    raise PeriodNotFoundError(f"no repeated state within {max_terms} terms")


def _alternating(x, y) -> tuple[int, int | None]:
    """Sign of [x0; x1, ...] - [y0; y1, ...] and the first index where the quotient
    sequences x and y differ: the larger quotient wins at an even index and loses at
    an odd one, and a sequence that has ended counts as the larger (its tail is +inf).
    Returns (0, None) when both end together; callers bound every periodic side."""
    for i, (a, b) in enumerate(zip_longest(x, y, fillvalue=inf)):
        if a != b:
            return (1 if (a > b) == (i % 2 == 0) else -1), i
    return 0, None


def cmp_prefix(x, y) -> tuple[int, int | None]:
    """Order two words by the parity rule at their first differing quotient.

    Returns (ordering, first_diff_index) with ordering in {-1, 0, +1};
    the ordering agrees with exact comparison of the evaluated values
    under any common infinite extension.  Raises PrefixOrderUndecided
    when one word is a strict prefix of the other.
    """
    xw, yw = _word_of(x), _word_of(y)
    order, i = _alternating(xw, yw)
    if i == min(len(xw), len(yw)):
        raise PrefixOrderUndecided("one word is a prefix of the other")
    return order, i


def cylinder(w) -> tuple[Fraction, Fraction]:
    """Open interval containing every infinite extension of the word.

    Endpoints are the last convergent and the mediant with the previous
    one, the image of the free tail [1, inf]; the word itself needs a
    nonempty tail.
    """
    word = _word_of(w)
    if len(word) < 2:
        raise ValueError("cylinder needs a word with nonempty tail")
    ln, ld, hn, hd = mobius_pairs(mobius(word), _FREE)
    return Fraction(ln, ld), Fraction(hn, hd)
