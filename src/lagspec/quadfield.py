"""Exact arithmetic in real quadratic fields.

Values are numbers (a + b*sqrt(d))/c kept in a canonical form: c > 0,
gcd(a, b, c) = 1, and d = 1 exactly when the value is rational; otherwise
d has no square factor p*p with p < 10**4 and is not a perfect square.
No integer is factored, so values of one field may carry radicands that
differ by a square factor, such as 10009 and 10007**2 * 10009; equality,
hashing and arithmetic treat them as one field (the square-class test).
Sums of two values over different fields are handled by QuadSum.  Both
types share one set of operators; one fold puts every QuadSum in canonical
form, and every comparison, across fields or not, is the sign of the
folded difference.  Every sign, order, floor and rounding query is decided
exactly with integer arithmetic; nothing here touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

__all__ = [
    "MixedRadicandError",
    "QuadExt",
    "QuadSum",
    "squarefree_decompose",
]


class MixedRadicandError(ArithmeticError):
    """The result would need more distinct radicands than the type carries."""


def _sign(n) -> int:
    return (n > 0) - (n < 0)


# ---------------------------------------------------------------------------
# squarefree decomposition


def _sieve(bound):
    flags = bytearray([1]) * bound
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i, f in enumerate(flags) if f]


_SMALL_PRIMES = _sieve(10_000)


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Split n >= 1 as s*s*d; returns (s, d).

    Trial division by the primes below 10**4 moves every square factor p*p
    of such a prime into s; a cofactor that is a perfect square then joins s
    too, and any other cofactor stays in d as is.  So d has no square factor
    p*p with p < 10**4 and is not a perfect square unless d == 1, but d need
    not be squarefree: the radicand 10007**2 * 10009 is kept whole.  No
    integer is ever factored, so the cost is bounded for every n.
    """
    if n < 1:
        raise ValueError("radicand must be positive")
    s, d = 1, 1
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        s *= p ** (e // 2)
        if e % 2:
            d *= p
    r = isqrt(n)
    return (s * r, d) if r * r == n else (s, d * n)


# ---------------------------------------------------------------------------
# exact signs of radical combinations


def _sign_lin(A: int, B: int, d: int) -> int:
    """Sign of A + B*sqrt(d) for integers A, B and d >= 1."""
    if d == 1:
        return _sign(A + B)
    if B == 0:
        return _sign(A)
    if A == 0:
        return _sign(B)
    if A > 0 and B > 0:
        return 1
    if A < 0 and B < 0:
        return -1
    t = _sign(A * A - B * B * d)
    return t * _sign(A)


def _sign_two(A: int, B: int, d1: int, C: int, d2: int) -> int:
    """Sign of A + B*sqrt(d1) + C*sqrt(d2) for radicands d1, d2 >= 1.

    Isolates one radical and squares once, reducing the query to a single
    quadratic field; exact for every input.
    """
    sL = _sign_lin(A, B, d1)
    sR = _sign(C)
    if sR == 0:
        return sL
    if sL == 0:
        return sR
    if sL == sR:
        return sL
    # opposite signs: compare |A + B*sqrt(d1)| with |C*sqrt(d2)|
    return sL * _sign_lin(A * A + B * B * d1 - C * C * d2, 2 * A * B, d1)


def _canonical(a: int, b: int, c: int, d: int) -> tuple[int, int, int, int]:
    if c == 0:
        raise ZeroDivisionError("zero denominator")
    if d == 1:
        a, b = a + b, 0
    if b == 0:
        d = 1
    if c < 0:
        a, b, c = -a, -b, -c
    g = gcd(gcd(abs(a), abs(b)), c)
    return a // g, b // g, c // g, d


def _common_d(d1: int, d2: int) -> tuple[int, int, int] | None:
    """One radicand for two fields: (g, k1, k2) with sqrt(d1) = k1*sqrt(g)
    and sqrt(d2) = k2*sqrt(g), or None when they are different fields.

    Radicand 1 is the rational field and joins any other.  Otherwise
    g = gcd(d1, d2), and the fields agree exactly when d1/g and d2/g are
    both perfect squares (the square class of d1*d2).
    """
    if d1 == d2 or d1 == 1:
        return d2, 1, 1
    if d2 == 1:
        return d1, 1, 1
    g = gcd(d1, d2)
    k1 = isqrt(d1 // g)
    if k1 * k1 * g != d1:
        return None
    k2 = isqrt(d2 // g)
    return (g, k1, k2) if k2 * k2 * g == d2 else None


def _invariant(terms):
    """What a sum of canonical terms equals, whatever radicands they carry:
    the rational part, with the set of signed squares b*|b|*d/c**2 of the
    irrational parts when there are any (one per field)."""
    rat = sum(Fraction(t.a, t.c) for t in terms)
    irr = frozenset(Fraction(t.b * abs(t.b) * t.d, t.c * t.c) for t in terms if t.b)
    return (rat, irr) if irr else rat


# ---------------------------------------------------------------------------


class _Quad:
    """The operators QuadExt and QuadSum share, written once on top of each
    type's +, unary - and terms().  Order and equality are the sign of the
    folded difference (_cmp), so they work across fields."""

    __slots__ = ()

    def _coerce(self, other):
        if isinstance(other, (QuadExt, type(self))):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt.from_rational(other)
        return None

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _cmp(self, other) -> int:
        """Exact sign of self - other, whatever fields the two lie in."""
        if isinstance(other, (int, Fraction)):
            other = QuadExt.from_rational(other)
        elif not isinstance(other, _Quad):
            raise TypeError(f"cannot compare {type(self).__name__} with {type(other).__name__}")
        return QuadSum._of(*_fold(self.terms() + (-other).terms())).sign()

    def __eq__(self, other):
        if not isinstance(other, (_Quad, int, Fraction)):
            return NotImplemented
        return self._cmp(other) == 0

    def __hash__(self):
        return hash(_invariant(self.terms()))

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def approx(self, digits: int) -> str:
        """Correctly rounded decimal string with `digits` fractional digits."""
        return _decimal(self, digits)


class QuadExt(_Quad):
    """A quadratic irrational (a + b*sqrt(d))/c in canonical form."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int = 0, c: int = 1, d: int = 1):
        if d < 1:
            raise ValueError("radicand must be positive")
        if b != 0 and d != 1:
            s, d = squarefree_decompose(d)
            b *= s
        self.a, self.b, self.c, self.d = _canonical(a, b, c, d)

    @classmethod
    def _reduced(cls, a: int, b: int, c: int, d: int) -> "QuadExt":
        """Canonical value over a radicand that is already reduced; every
        arithmetic result is built here, so no radicand is reduced twice."""
        x = object.__new__(cls)
        x.a, x.b, x.c, x.d = _canonical(a, b, c, d)
        return x

    @classmethod
    def from_rational(cls, q) -> "QuadExt":
        q = Fraction(q)
        return cls._reduced(q.numerator, 0, q.denominator, 1)

    @classmethod
    def sqrt(cls, d: int) -> "QuadExt":
        return cls(0, 1, 1, d)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self} is irrational")
        return Fraction(self.a, self.c)

    def terms(self) -> tuple["QuadExt"]:
        return (self,)

    # -- arithmetic --------------------------------------------------------

    def _common(self, other: "QuadExt") -> tuple[int, int, int]:
        """_common_d of the two radicands; refuses two different fields."""
        common = _common_d(self.d, other.d)
        if common is None:
            raise MixedRadicandError(
                f"radicands {self.d} and {other.d} lie in different fields; use QuadSum"
            )
        return common

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _add(self, other, self._common(other))

    __radd__ = __add__

    def __neg__(self):
        return QuadExt._reduced(-self.a, -self.b, self.c, self.d)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d, k1, k2 = self._common(other)
        b1, b2 = self.b * k1, other.b * k2
        return QuadExt._reduced(
            self.a * other.a + b1 * b2 * d,
            self.a * b2 + b1 * other.a,
            self.c * other.c,
            d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        if not self:
            raise ZeroDivisionError("division by zero")
        # 1 / ((a + b*sqrt(d))/c) = c*(a - b*sqrt(d)) / (a^2 - b^2 d)
        n = self.a * self.a - self.b * self.b * self.d
        return QuadExt._reduced(self.a * self.c, -self.b * self.c, n, self.d)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    # -- predicates ---------------------------------------------------------

    def sign(self) -> int:
        return _sign_lin(self.a, self.b, self.d)

    def __bool__(self) -> bool:
        return not (self.a == 0 and self.b == 0)

    def __floor__(self) -> int:
        if self.b == 0:
            return self.a // self.c
        s = isqrt(self.b * self.b * self.d)
        num = self.a + (s if self.b > 0 else -s - 1)
        n = num // self.c
        while self._cmp(n) < 0:
            n -= 1
        while self._cmp(n + 1) >= 0:
            n += 1
        return n

    floor = __floor__

    # -- decimal output -----------------------------------------------------

    def bracket(self, k: int) -> tuple[Fraction, Fraction]:
        """Exact rationals lo <= value <= hi with hi - lo <= 10**-k."""
        if self.b == 0:
            f = Fraction(self.a, self.c)
            return f, f
        scale = 10**k
        s = isqrt(self.b * self.b * self.d * scale * scale)
        if self.b > 0:
            lo = Fraction(self.a * scale + s, self.c * scale)
            hi = Fraction(self.a * scale + s + 1, self.c * scale)
        else:
            lo = Fraction(self.a * scale - s - 1, self.c * scale)
            hi = Fraction(self.a * scale - s, self.c * scale)
        return lo, hi

    def __str__(self):
        return _format_terms(self.a, self.b, self.c, self.d)

    def __repr__(self):
        return f"QuadExt({self.a}, {self.b}, {self.c}, {self.d})"


_ZERO = QuadExt(0)


def _add(x: QuadExt, y: QuadExt, common: tuple[int, int, int]) -> QuadExt:
    """x + y, given common = _common_d(x.d, y.d) (not None)."""
    if not (y.a or y.b):
        return x
    d, k1, k2 = common
    return QuadExt._reduced(
        x.a * y.c + y.a * x.c, x.b * k1 * y.c + y.b * k2 * x.c, x.c * y.c, d
    )


def _fold(parts: tuple[QuadExt, ...]) -> tuple[QuadExt, QuadExt]:
    """The canonical (x, y) of a QuadSum equal to the sum of the parts:
    parts of one field (square-class test; rationals join any field) are
    added, and two irrational terms over different fields are ordered by
    radicand.  Of more than two parts, the rational ones and any field that
    cancelled go onto the first term; a third field raises."""
    if len(parts) == 2:
        x, y = parts
        common = _common_d(x.d, y.d)
        if common:
            return _add(x, y, common), _ZERO
        return (x, y) if x.d < y.d else (y, x)
    # one group per field, keyed by the first radicand seen in it
    rat, fields = _ZERO, {}
    for p in parts:
        if p.is_rational:
            rat = rat + p
            continue
        if p.d in fields:  # the keys lie in different fields: no other can match
            fields[p.d] = fields[p.d] + p
            continue
        for key in fields:
            if _common_d(key, p.d):
                fields[key] = fields[key] + p
                break
        else:
            fields[p.d] = p
    rat = sum((q for q in fields.values() if q.is_rational), rat)
    irr = sorted((q for q in fields.values() if not q.is_rational), key=lambda q: q.d)
    if len(irr) > 2:
        raise MixedRadicandError("sum spans more than two radicands")
    x, y = (irr + [_ZERO, _ZERO])[:2]
    return x + rat, y


class QuadSum(_Quad):
    """Exact sum x + y of two quadratic-field values; radicands may differ.

    The canonical form is the one _fold gives: either (value, 0) or a pair
    of irrational terms over different fields, ordered by radicand.
    """

    __slots__ = ("x", "y")

    def __init__(self, x: QuadExt, y: QuadExt | None = None):
        if not isinstance(x, QuadExt):
            x = QuadExt.from_rational(x)
        if y is None:
            y = _ZERO
        elif not isinstance(y, QuadExt):
            y = QuadExt.from_rational(y)
        self.x, self.y = _fold((x, y))

    @classmethod
    def _of(cls, x: QuadExt, y: QuadExt) -> "QuadSum":
        """A QuadSum of a pair already in canonical form."""
        s = object.__new__(cls)
        s.x, s.y = x, y
        return s

    @property
    def is_single(self) -> bool:
        return not self.y

    def terms(self) -> tuple[QuadExt, ...]:
        return (self.x,) if self.is_single else (self.x, self.y)

    def to_quadext(self) -> QuadExt:
        if not self.is_single:
            raise MixedRadicandError(f"{self} spans two fields")
        return self.x

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QuadSum._of(*_fold(self.terms() + other.terms()))

    __radd__ = __add__

    def __neg__(self):
        return QuadSum._of(-self.x, -self.y)

    # -- predicates ----------------------------------------------------------

    def sign(self) -> int:
        x, y = self.x, self.y
        return _sign_two(x.a * y.c + y.a * x.c, x.b * y.c, x.d, y.b * x.c, y.d)

    def __bool__(self):
        return self.sign() != 0

    # -- decimal output --------------------------------------------------------

    def bracket(self, k: int) -> tuple[Fraction, Fraction]:
        xlo, xhi = self.x.bracket(k + 1)
        ylo, yhi = self.y.bracket(k + 1)
        return xlo + ylo, xhi + yhi

    def __str__(self):
        if self.is_single:
            return str(self.x)
        y = self.y
        if y.sign() < 0:
            return f"{self.x} - {-y}"
        return f"{self.x} + {y}"

    def __repr__(self):
        return f"QuadSum({self.x!r}, {self.y!r})"


# ---------------------------------------------------------------------------
# decimal rendering


def _round_half_even(f: Fraction) -> int:
    n = f.numerator // f.denominator
    frac = f - n
    if 2 * frac.numerator > frac.denominator:
        return n + 1
    if 2 * frac.numerator < frac.denominator:
        return n
    return n if n % 2 == 0 else n + 1


def _digits(n: int, width: int = 1) -> str:
    """n >= 0 in decimal, zero-padded to width, in halves below the int-to-str limit."""
    if n.bit_length() <= 10_000:  # about 3010 digits, below the 4300 limit
        return f"{n:0{width}d}"
    k = n.bit_length() * 3 // 20  # about half of n's digits
    hi, lo = divmod(n, 10**k)
    return _digits(hi, max(width - k, 1)) + _digits(lo, k)


def _format_scaled(n: int, digits: int) -> str:
    ip, fp = divmod(abs(n), 10**digits)
    return ("-" if n < 0 else "") + _digits(ip) + (f".{_digits(fp, digits)}" if digits else "")


def _decimal(value, digits: int) -> str:
    """Round-half-even decimal rendering, last digit certified by brackets."""
    if digits < 0 or digits > 10_000:
        raise ValueError("digits out of range")
    scale = 10**digits
    guard = digits + 8
    while True:
        lo, hi = value.bracket(guard)
        rlo = _round_half_even(lo * scale)
        rhi = _round_half_even(hi * scale)
        if rlo == rhi:
            return _format_scaled(rlo, digits)
        guard *= 2


def _format_terms(a: int, b: int, c: int, d: int) -> str:
    if b == 0:
        return str(a) if c == 1 else f"{a}/{c}"
    if b == 1:
        root = f"sqrt({d})"
    elif b == -1:
        root = f"-sqrt({d})"
    else:
        root = f"{b}*sqrt({d})"
    if a == 0:
        num = root
        single = True
    else:
        num = f"{a}+{root}" if not root.startswith("-") else f"{a}{root}"
        single = False
    if c == 1:
        return num
    if single and "*" not in num:
        return f"{num}/{c}"
    return f"({num})/{c}"
