"""Exact arithmetic in real quadratic fields.

Values are numbers (a + b*sqrt(d))/c kept in a canonical form: c > 0,
gcd(a, b, c) = 1, d squarefree, and d = 1 exactly when the value is
rational.  Sums of two values over different radicands are handled by
QuadSum.  Every sign, order, floor and rounding query is decided exactly
with integer arithmetic; nothing in this module touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
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

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES[:25]:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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


def _pollard_brent(n: int) -> int:
    # n odd composite, no factor below the sieve bound
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"failed to factor {n}")


def _factor(n: int, out: dict) -> None:
    if n == 1:
        return
    if _is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    r = isqrt(n)
    if r * r == n:
        _factor(r, out)
        _factor(r, out)
        return
    g = _pollard_brent(n)
    _factor(g, out)
    _factor(n // g, out)


@lru_cache(maxsize=None)
def squarefree_decompose(n: int) -> tuple[int, int]:
    """Split n >= 1 as s*s*d with d squarefree; returns (s, d).

    Small primes come out by trial division; a perfect-square remainder
    or a prime remainder then needs no factoring at all, which keeps the
    huge discriminants of long-period evaluations cheap whenever the
    underlying field is small.
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
    if n > 1:
        r = isqrt(n)
        if r * r == n:
            s *= r
        elif _is_prime(n):
            d *= n
        else:
            rest: dict[int, int] = {}
            _factor(n, rest)
            for p, e in rest.items():
                s *= p ** (e // 2)
                if e % 2:
                    d *= p
    return s, d


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
    """Sign of A + B*sqrt(d1) + C*sqrt(d2), d1 != d2 both squarefree > 1.

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


# ---------------------------------------------------------------------------


class QuadExt:
    """A quadratic irrational (a + b*sqrt(d))/c in canonical form."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int = 0, c: int = 1, d: int = 1):
        if c == 0:
            raise ZeroDivisionError("zero denominator")
        if d < 1:
            raise ValueError("radicand must be positive")
        if b != 0 and d != 1:
            s, d = squarefree_decompose(d)
            b *= s
        if d == 1:
            a, b = a + b, 0
        if b == 0:
            d = 1
        if c < 0:
            a, b, c = -a, -b, -c
        g = gcd(gcd(abs(a), abs(b)), c)
        self.a = a // g
        self.b = b // g
        self.c = c // g
        self.d = d

    @classmethod
    def from_rational(cls, q) -> "QuadExt":
        q = Fraction(q)
        return cls(q.numerator, 0, q.denominator, 1)

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

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QuadExt):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt.from_rational(other)
        return None

    def _common_d(self, other: "QuadExt") -> int:
        if self.d == other.d:
            return self.d
        if self.d == 1:
            return other.d
        if other.d == 1:
            return self.d
        raise MixedRadicandError(
            f"distinct radicands {self.d} and {other.d}; use QuadSum"
        )

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d = self._common_d(other)
        return QuadExt(
            self.a * other.c + other.a * self.c,
            self.b * other.c + other.b * self.c,
            self.c * other.c,
            d,
        )

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.c, self.d)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d = self._common_d(other)
        return QuadExt(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            self.c * other.c,
            d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        if not self:
            raise ZeroDivisionError("division by zero")
        # 1 / ((a + b*sqrt(d))/c) = c*(a - b*sqrt(d)) / (a^2 - b^2 d)
        n = self.a * self.a - self.b * self.b * self.d
        return QuadExt(self.a * self.c, -self.b * self.c, n, self.d)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._common_d(other)
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

    def __eq__(self, other):
        if isinstance(other, QuadSum):
            return other == self
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self):
        if self.b == 0:
            return hash(Fraction(self.a, self.c))
        return hash((self.a, self.b, self.c, self.d))

    def _cmp(self, other) -> int:
        """Exact sign of self - other; works across radicands."""
        if isinstance(other, QuadSum):
            return -other._cmp(self)
        other = self._coerce(other)
        if other is None:
            raise TypeError(f"cannot compare QuadExt with {type(other).__name__}")
        try:
            return (self - other).sign()
        except MixedRadicandError:
            A = self.a * other.c - other.a * self.c
            return _sign_two(
                A, self.b * other.c, self.d, -other.b * self.c, other.d
            )

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

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

    def approx(self, digits: int) -> str:
        """Correctly rounded decimal string with `digits` fractional digits."""
        return _decimal(self, digits)

    def __str__(self):
        return _format_terms(self.a, self.b, self.c, self.d)

    def __repr__(self):
        return f"QuadExt({self.a}, {self.b}, {self.c}, {self.d})"


class QuadSum:
    """Exact sum x + y of two quadratic-field values; radicands may differ.

    Canonical form merges y into x whenever both lie in one field (equal
    radicands, or either side rational), so a canonical QuadSum is either
    (value, 0) or a pair of irrational terms with distinct radicands,
    ordered by radicand.
    """

    __slots__ = ("x", "y")

    def __init__(self, x: QuadExt, y: QuadExt | None = None):
        if not isinstance(x, QuadExt):
            x = QuadExt.from_rational(x)
        if y is None:
            y = QuadExt(0)
        elif not isinstance(y, QuadExt):
            y = QuadExt.from_rational(y)
        if x.d == y.d or x.d == 1 or y.d == 1:
            x, y = x + y, QuadExt(0)
        elif x.d > y.d:
            x, y = y, x
        self.x = x
        self.y = y

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

    def _merge(self, parts) -> "QuadSum":
        fields: dict[int, QuadExt] = {}
        for p in parts:
            if p.d in fields or p.d == 1:
                key = p.d if p.d in fields else 1
                fields[key] = fields.get(key, QuadExt(0)) + p
            else:
                fields[p.d] = p
        rat = fields.pop(1, QuadExt(0))
        irr = sorted(fields.values(), key=lambda q: q.d)
        if len(irr) > 2:
            raise MixedRadicandError("sum spans more than two radicands")
        if not irr:
            return QuadSum(rat)
        if len(irr) == 1:
            return QuadSum(irr[0] + rat, QuadExt(0))
        if rat:
            # fold the rational part into the first irrational term
            irr[0] = irr[0] + rat
        return QuadSum(irr[0], irr[1])

    def __add__(self, other):
        if isinstance(other, QuadSum):
            return self._merge(self.terms() + other.terms())
        if isinstance(other, (QuadExt, int, Fraction)):
            if not isinstance(other, QuadExt):
                other = QuadExt.from_rational(other)
            return self._merge(self.terms() + (other,))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return QuadSum(-self.x, -self.y)

    def __sub__(self, other):
        if isinstance(other, (QuadSum, QuadExt, int, Fraction)):
            if isinstance(other, QuadSum):
                return self + (-other)
            return self + (-(other if isinstance(other, QuadExt) else QuadExt.from_rational(other)))
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    # -- predicates ----------------------------------------------------------

    def sign(self) -> int:
        if self.is_single:
            return self.x.sign()
        x, y = self.x, self.y
        A = x.a * y.c + y.a * x.c
        return _sign_two(A, x.b * y.c, x.d, y.b * x.c, y.d)

    def __bool__(self):
        return self.sign() != 0

    def _cmp(self, other) -> int:
        if not isinstance(other, (QuadSum, QuadExt, int, Fraction)):
            raise TypeError(f"cannot compare QuadSum with {type(other).__name__}")
        return (self - other).sign()

    def __eq__(self, other):
        if not isinstance(other, (QuadSum, QuadExt, int, Fraction)):
            return NotImplemented
        return self._cmp(other) == 0

    def __hash__(self):
        return hash((self.x, self.y)) if not self.is_single else hash(self.x)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    # -- decimal output --------------------------------------------------------

    def bracket(self, k: int) -> tuple[Fraction, Fraction]:
        xlo, xhi = self.x.bracket(k + 1)
        ylo, yhi = self.y.bracket(k + 1)
        return xlo + ylo, xhi + yhi

    def approx(self, digits: int) -> str:
        return _decimal(self, digits)

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


def _format_scaled(n: int, digits: int) -> str:
    sign = "-" if n < 0 else ""
    n = abs(n)
    if digits == 0:
        return f"{sign}{n}"
    ip, fp = divmod(n, 10**digits)
    return f"{sign}{ip}.{fp:0{digits}d}"


def _decimal(value, digits: int) -> str:
    """Round-half-even decimal rendering, last digit certified by brackets."""
    if digits < 0 or digits > 10_000:
        raise ValueError("digits out of range")
    scale = 10**digits
    lo, hi = value.bracket(digits + 2)
    if lo == hi:
        return _format_scaled(_round_half_even(lo * scale), digits)
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
