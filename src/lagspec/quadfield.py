"""Exact arithmetic in real quadratic fields.

Values are numbers (a + b*sqrt(d))/c kept in a canonical form: c > 0,
gcd(a, b, c) = 1, and d = 1 exactly when the value is rational; otherwise
d has no square factor p*p with p < 10**4 and is not a perfect square.
No integer is factored, so values of one field may carry radicands that
differ by a square factor, such as 10009 and 10007**2 * 10009; equality,
hashing and arithmetic treat them as one field (the square-class test).
Sums of two values over different fields are handled by QuadSum.  Both
types share one set of operators; one fold puts every QuadSum in canonical
form.  One rule decides every sign and order, across any number of fields:
integer brackets of v * 2**64 (one _floor_root per term, once per value),
then, where they overlap, the folded difference if it is rational, else
decimal brackets of both sides, narrowed until they part.  Every sign, order,
floor and rounding query is decided exactly with integer arithmetic; nothing
here touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, isqrt

__all__ = [
    "MixedRadicandError",
    "QuadExt",
    "QuadSum",
    "squarefree_decompose",
]

_SCALE = 64  # comparisons first compare (cached) brackets of v * 2**_SCALE; it changes only speed


class MixedRadicandError(ArithmeticError):
    """The result would need more distinct radicands than the type carries."""


# ---------------------------------------------------------------------------
# squarefree decomposition


def _sieve(bound):
    flags = bytearray([1]) * bound
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, bound, p)))
    return list(compress(range(bound), flags))


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


def _floor_root(b: int, d: int) -> int:
    """The integer t with t <= b*sqrt(d) <= t + 1: the floor whenever b*sqrt(d) is irrational."""
    s = isqrt(b * b * d)
    return s if b > 0 else -s - 1


def _box(terms) -> tuple[int, int]:
    """Integers lo <= v * 2**_SCALE <= hi for the sum v of canonical terms, by _floor_root."""
    lo = hi = 0
    for t in terms:
        n = (t.a << _SCALE) + _floor_root(t.b << _SCALE, t.d)
        lo, hi = lo + n // t.c, hi - (-(n + 1) // t.c)
    return lo, hi


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
    type's +, unary - and terms().  Order, equality and sign rest on one rule,
    _cmp, which answers for values over any number of fields."""

    __slots__ = ("_scaled",)

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
        """Exact sign of self - other, whatever fields the two lie in.

        Disjoint cached brackets decide; else a rational folded difference
        does.  Any other difference, over up to four fields, is irrational and
        so not zero: square roots of distinct square classes are linearly
        independent over Q (Besicovitch, 1940).  So decimal brackets of the
        two sides, narrowing to their values, part at some k = 20, 40, 80, ...
        """
        if other is self:
            return 0
        if isinstance(other, (int, Fraction)):
            other = QuadExt.from_rational(other)
        elif not isinstance(other, _Quad):
            raise TypeError(f"cannot compare {type(self).__name__} with {type(other).__name__}")
        (lo, hi), (other_lo, other_hi) = self._scaled_box(), other._scaled_box()
        disjoint = (lo > other_hi) - (hi < other_lo)  # the sign, when the brackets are disjoint
        if disjoint:
            return disjoint
        try:
            x, _ = _fold(self.terms() + (-other).terms())
            if x.is_rational:  # then the whole difference is x
                return (x.a > 0) - (x.a < 0)
        except MixedRadicandError:  # three fields or more
            pass
        k = 10
        while not disjoint:
            k *= 2
            ln, ld, hn, hd = self._pairs(k)
            other_ln, other_ld, other_hn, other_hd = other._pairs(k)
            disjoint = (ln * other_hd > other_hn * ld) - (hn * other_ld < other_ln * hd)
        return disjoint

    def sign(self) -> int:
        """Exact sign: the cached bracket's when it excludes 0, else _cmp's."""
        lo, hi = self._scaled_box()
        return (lo > 0) - (hi < 0) or self._cmp(_ZERO)

    def __bool__(self):
        return self.sign() != 0

    def _scaled_box(self) -> tuple[int, int]:
        """_box(self.terms()), kept in a slot: each value is bracketed once."""
        box = getattr(self, "_scaled", None)  # no try: most values are bracketed once
        if box is None:
            box = self._scaled = _box(self.terms())
        return box

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

    def bracket(self, k: int) -> tuple[Fraction, Fraction]:
        """Exact rationals lo <= value <= hi with hi - lo <= 10**-k."""
        ln, ld, hn, hd = self._pairs(k)
        return Fraction(ln, ld), Fraction(hn, hd)

    def approx(self, digits: int) -> str:
        """Correctly rounded decimal string with `digits` fractional digits."""
        return _decimal(self, digits)


class _Record:
    """Base of the frozen value classes: the contract of @dataclass(frozen=True),
    without importing dataclasses (and inspect) at start-up.  The fields are a
    subclass's own annotations in order; a class attribute of the same name is
    that field's default.  __init__ takes the fields by position or keyword and
    then runs __post_init__.  Instances refuse assignment and deletion; ==
    (between instances of one class), hash and repr read the field tuple."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: vars(cls)[f] for f in cls._fields if f in vars(cls)}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            given = dict(zip(fields, args))
            values = {**self._defaults, **given, **kwargs}
            if len(args) > len(fields) or given.keys() & kwargs or values.keys() != set(fields):
                raise TypeError(f"{type(self).__name__}() takes the fields {fields}, once each")
            args = map(values.__getitem__, fields)
        for f, v in zip(fields, args):  # not through __dict__, which would slow every read
            object.__setattr__(self, f, v)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


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

    def __bool__(self) -> bool:
        return not (self.a == 0 and self.b == 0)

    def __floor__(self) -> int:
        """The lower end of bracket(0), floored: exact, as b*sqrt(d) is irrational if b != 0."""
        ln, ld, _, _ = self._pairs(0)
        return ln // ld

    floor = __floor__

    # -- decimal output -----------------------------------------------------

    def _pairs(self, k: int) -> tuple[int, int, int, int]:
        """bracket(k) as unreduced integer pairs (lo_num, lo_den, hi_num, hi_den)."""
        scale = 10**k
        n, den = self.a * scale + _floor_root(self.b * scale, self.d), self.c * scale
        return (n, den, n + 1, den) if self.b else (self.a, self.c, self.a, self.c)

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

    # -- decimal output --------------------------------------------------------

    def _pairs(self, k: int) -> tuple[int, int, int, int]:
        (xl, xd, xh, xe), (yl, yd, yh, ye) = self.x._pairs(k + 1), self.y._pairs(k + 1)
        return xl * yd + yl * xd, xd * yd, xh * ye + yh * xe, xe * ye

    def __str__(self):
        if self.is_single:
            return str(self.x)
        y = self.y
        if y.floor() < 0:  # y is irrational, so its floor decides its sign
            return f"{self.x} - {-y}"
        return f"{self.x} + {y}"

    def __repr__(self):
        return f"QuadSum({self.x!r}, {self.y!r})"


# ---------------------------------------------------------------------------
# decimal rendering


def _round_half_even(n: int, d: int) -> int:
    """n / d rounded to the nearest integer, ties to even, for d > 0."""
    q, r = divmod(n, d)
    return q + (2 * r > d or 2 * r == d and q % 2)


_MAX_DIGITS = 4300  # in one run of an input's digits; fixed, whatever the int-to-str limit


def _digits(n: int, width: int = 1) -> str:
    """n in decimal, zero-padded to width, in halves below the int-to-str limit."""
    if n.bit_length() <= 10_000:  # about 3010 digits, below the 4300 limit
        return str(n).zfill(width)
    if n < 0:
        return "-" + _digits(-n, width - 1)
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
        ln, ld, hn, hd = value._pairs(guard)
        rlo, rhi = _round_half_even(ln * scale, ld), _round_half_even(hn * scale, hd)
        if rlo == rhi:
            return _format_scaled(rlo, digits)
        guard *= 2


def _format_terms(a: int, b: int, c: int, d: int) -> str:
    a, b, c, d = map(_digits, (a, b, c, d))
    if b == "0":
        return a if c == "1" else f"{a}/{c}"
    num = {"1": "", "-1": "-"}.get(b, f"{b}*") + f"sqrt({d})"
    if a != "0":
        num = a + ("" if num[0] == "-" else "+") + num
    elif "*" not in num:  # a lone root, negated or not, takes no parentheses
        return num if c == "1" else f"{num}/{c}"
    return num if c == "1" else f"({num})/{c}"
