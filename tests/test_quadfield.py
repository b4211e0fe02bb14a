import operator
import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagspec import quadfield
from lagspec.quadfield import (
    MixedRadicandError,
    QuadExt,
    QuadSum,
    _box,
    _floor_root,
    _format_scaled,
    squarefree_decompose,
)

LAM0 = QuadExt(62976, -1498, 16357, 3)
P, Q = 10007, 10009  # primes above the trial-division bound 10**4


def test_squarefree_decompose():
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(12) == (2, 3)
    assert squarefree_decompose(49) == (7, 1)
    assert squarefree_decompose(2 * 3 * 5) == (1, 30)
    big = (10**12 + 39) ** 2 * 21
    assert squarefree_decompose(big) == (10**12 + 39, 21)
    # a large prime cofactor stays in d, next to the small odd primes
    assert squarefree_decompose(2 * 3**3 * (10**12 + 39)) == (3, 6 * (10**12 + 39))
    assert squarefree_decompose(P * Q) == (1, P * Q)


def test_square_class_without_factoring():
    # no factoring: the repeated large prime P stays inside the radicand
    assert squarefree_decompose(P * P * Q) == (1, P * P * Q)
    u, v = QuadExt(0, 1, 1, P * P * Q), QuadExt(0, P, 1, Q)
    assert (u.d, v.d) == (P * P * Q, Q)
    assert u == v and hash(u) == hash(v)
    diff = u - v
    assert diff == 0 and diff.is_rational
    assert QuadSum(u, v).is_single
    assert QuadSum(u, -v).sign() == 0
    # different square classes still refuse to mix
    with pytest.raises(MixedRadicandError):
        u + QuadExt.sqrt(P * Q)


def test_canonical_form():
    # b*sqrt(k^2 d) rewrites to (b k)*sqrt(d)
    assert QuadExt(0, 1, 1, 8) == QuadExt(0, 2, 1, 2)
    assert QuadExt(0, 3, 1, 12) == QuadExt(0, 6, 1, 3)
    # d = 1 folds into the rational part
    assert QuadExt(2, 5, 1, 1) == QuadExt(7)
    assert QuadExt(0, 1, 1, 9) == QuadExt(3)
    # gcd and sign normalization
    x = QuadExt(-4, -2, -6, 5)
    assert (x.a, x.b, x.c, x.d) == (2, 1, 3, 5)


def test_rational_embedding():
    x = QuadExt.from_rational(Fraction(6, 4))
    assert (x.a, x.b, x.c, x.d) == (3, 0, 2, 1)
    assert x.is_rational and x.as_fraction() == Fraction(3, 2)


def test_arith_examples():
    u = QuadExt(1, 1, 2, 3)
    v = QuadExt(1, -1, 2, 3)
    assert u + v == 1
    s3 = QuadExt.sqrt(3)
    assert s3 * s3 == 3
    assert QuadExt(246, 1, 69, 3) == 3 + 2 * QuadExt(39, 1, 138, 3)


def test_division():
    u = QuadExt(3, 2, 5, 7)
    v = QuadExt(1, -1, 2, 7)
    assert (u / v) * v == u
    assert u * u.inverse() == 1
    with pytest.raises(ZeroDivisionError):
        u / QuadExt(0)


def test_mixed_radicand_rejected():
    with pytest.raises(MixedRadicandError):
        QuadExt.sqrt(2) + QuadExt.sqrt(3)
    # rational operands mix freely
    assert QuadExt.sqrt(2) * QuadExt.from_rational(2) == QuadExt(0, 2, 1, 2)


def test_sign_examples():
    assert (QuadSum(QuadExt.sqrt(3)) - QuadExt.sqrt(3)).sign() == 0
    assert (QuadSum(QuadExt(39, 4, 15, 21)) - LAM0).sign() == 1
    assert (QuadSum(QuadExt(33, -2, 7, 15)) - Fraction(3691, 1000)).sign() == -1
    # differences far below the 2**-64 brackets
    signs = PELL.sign(), (-PELL).sign(), QuadSum(PELL).sign(), (ROOTS_2_3 - CONVERGENT).sign()
    assert signs == (1, -1, 1, -1) and PELL > 0 > -PELL and ROOTS_2_3 < CONVERGENT


def test_sign_zero_on_constructed_cancellations():
    x = QuadExt(7, -3, 11, 5)
    assert (QuadSum(x) - x).sign() == 0
    assert QuadSum(x, -x).sign() == 0
    # same value through different surface forms
    assert (QuadSum(QuadExt(0, 1, 1, 8)) - QuadExt(0, 2, 1, 2)).sign() == 0
    y = QuadExt(14, -6, 22, 5)  # same as x after gcd reduction
    assert (QuadSum(x) - y).sign() == 0


def test_cross_field_order():
    s = QuadSum(QuadExt.sqrt(2), QuadExt.sqrt(3))
    assert s > Fraction(314, 100)
    assert s < Fraction(315, 100)
    assert QuadExt.sqrt(2) < QuadExt.sqrt(3)
    assert QuadExt(1, 1, 1, 2) > QuadExt(0, 1, 1, 5)  # 2.414 > 2.236


def test_floor():
    assert QuadExt.sqrt(3).floor() == 1
    assert LAM0.floor() == 3
    x = QuadExt(-3, 1, 2, 21)
    lo, hi = x.bracket(30)
    assert lo.numerator // lo.denominator == 0 == hi.numerator // hi.denominator
    assert x.floor() == 0
    assert QuadExt(-1, -1, 1, 2).floor() == -3  # -2.414...
    assert QuadExt.from_rational(Fraction(-7, 2)).floor() == -4


def _cmp_root(n, b, d):
    """Sign of n - b*sqrt(d), from integer squares alone."""
    sn, sb = (n > 0) - (n < 0), (b > 0) - (b < 0)
    if sn != sb:
        return (sn > sb) - (sn < sb)
    return sn * ((n * n > b * b * d) - (n * n < b * b * d))


def test_floor_root_brackets_b_sqrt_d():
    assert [_floor_root(b, d) for b, d in [(0, 5), (3, 4), (-3, 4), (-1, 2)]] == [-1, 6, -7, -2]
    rng = random.Random(2301)
    for _ in range(3000):
        b = rng.choice([0, rng.randint(-50, 50), rng.randint(-(10**40), 10**40)])
        r = rng.randint(1, 10**6)
        d = rng.choice([r, r * r, rng.randint(1, 10**35)])
        t = _floor_root(b, d)
        assert _cmp_root(t, b, d) <= 0 <= _cmp_root(t + 1, b, d)
        if b and isqrt(d) ** 2 != d:  # b*sqrt(d) irrational: t is its floor
            assert _cmp_root(t, b, d) < 0 < _cmp_root(t + 1, b, d)


def test_floor_of_random_values_with_negative_b():
    # n <= x < n + 1 read through sign(), which rounds nothing
    rng = random.Random(2302)
    wide = 0
    for _ in range(2000):
        a, b = rng.randint(-(10**6), 10**6), rng.choice([-1, 1]) * rng.randint(1, 10**4)
        x = QuadExt(a, b, rng.randint(2, 500), rng.choice([2, 3, 7, 15, P * Q]))
        n = x.floor()
        assert (x - n).sign() >= 0 and (x - (n + 1)).sign() < 0
        wide += x.b < 0 and x.c > 1
    assert wide > 500


def test_approx():
    assert QuadSum(LAM0).approx(7) == "3.6914708"
    assert QuadExt(0, 2, 1, 3).approx(6) == "3.464102"
    assert QuadSum(QuadExt(0)).approx(6) == "0.000000"
    assert QuadExt(-1, 1, 1, 21).approx(5) == "3.58258"
    assert QuadExt(0, -2, 1, 3).approx(3) == "-3.464"


def test_approx_past_the_int_to_str_limit():
    # 5000 digits of sqrt(3) - 1 from isqrt, rendered in 1000-digit chunks
    # because str(int) stops at 4300 digits
    n = (isqrt(3 * 10**10002) + 5) // 10 - 10**5000
    chunks = (f"{n // 10 ** (1000 * i) % 10**1000:01000d}" for i in range(4, -1, -1))
    assert (QuadExt.sqrt(3) - 1).approx(5000) == "0." + "".join(chunks)


def test_approx_round_half_even_on_rationals():
    assert QuadExt.from_rational(Fraction(25, 1000)).approx(2) == "0.02"
    assert QuadExt.from_rational(Fraction(35, 1000)).approx(2) == "0.04"
    assert QuadExt.from_rational(Fraction(-25, 1000)).approx(2) == "-0.02"


def test_str_forms():
    assert str(LAM0) == "(62976-1498*sqrt(3))/16357"
    assert str(QuadExt(246, 1, 69, 3)) == "(246+sqrt(3))/69"
    assert str(QuadExt(0, 2, 1, 3)) == "2*sqrt(3)"
    assert str(QuadExt(-1, 1, 1, 21)) == "-1+sqrt(21)"
    assert str(QuadExt(0, 1, 1, 5)) == "sqrt(5)"
    assert str(QuadExt(5)) == "5"
    assert str(QuadExt(2, 0, 3, 1)) == "2/3"
    s = QuadSum(QuadExt(0, 1, 1, 2), QuadExt(0, -1, 1, 3))
    assert str(s) == "sqrt(2) - sqrt(3)"


def test_two_field_str_reads_the_sign_of_its_second_term_from_its_floor():
    # the second term is irrational, so its floor is negative exactly when it
    # is; printing leaves it unbracketed (no cached 2**-64 box)
    rng = random.Random(30)
    for _ in range(500):
        draw = lambda d: QuadExt(rng.randint(-60, 60), rng.choice((-1, 1)) * rng.randint(1, 60),
                                 rng.randint(1, 12), d)
        s = QuadSum(draw(2), draw(rng.choice((3, 5, 7))))
        text = str(s)
        assert getattr(s.y, "_scaled", None) is None
        assert text == (f"{s.x} - {-s.y}" if s.y < 0 else f"{s.x} + {s.y}")


def test_operators_on_mixed_operands():
    r2 = QuadExt.sqrt(2)
    assert 1 / r2 == QuadExt(0, 1, 2, 2) and str(1 / r2) == "sqrt(2)/2"
    assert QuadSum(r2, 2) == QuadSum(r2, QuadExt(2)) and str(QuadSum(r2, 2)) == "2+sqrt(2)"
    assert not QuadSum(0) and QuadSum(1)
    for x in (QuadExt(1), QuadSum(1)):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            for pair in ((x, "x"), ("x", x)):
                with pytest.raises(TypeError):
                    op(*pair)
        assert x != "x" and not x == "x"
    with pytest.raises(TypeError, match="^cannot compare QuadExt with str$"):
        QuadExt(1) < "x"
    with pytest.raises(ValueError, match=r"^sqrt\(2\) is irrational$"):
        r2.as_fraction()


def test_negative_integers_past_10000_bits_print_whole():
    # 3101 digits: past the 10,000 bits below which _digits calls str, so its
    # negative branch splits the magnitude in halves
    assert str(QuadExt(-(10**3100) - 7)) == "-1" + "0" * 3099 + "7"


small_ints = st.integers(min_value=-40, max_value=40)
pos_ints = st.integers(min_value=1, max_value=40)
rads = st.sampled_from([2, 3, 5, 7, 13, 15, 21])


@st.composite
def quadexts(draw, d=None):
    return QuadExt(
        draw(small_ints),
        draw(small_ints),
        draw(pos_ints),
        d if d is not None else draw(rads),
    )


@given(st.data(), rads)
@settings(max_examples=300)
def test_field_axioms_same_radicand(data, d):
    u = data.draw(quadexts(d=d))
    v = data.draw(quadexts(d=d))
    w = data.draw(quadexts(d=d))
    assert (u + v) + w == u + (v + w)
    assert u * (v + w) == u * v + u * w
    if u:
        assert u * u.inverse() == 1


@given(st.data())
@settings(max_examples=300)
def test_canonicalization_idempotent(data):
    u = data.draw(quadexts())
    again = QuadExt(u.a, u.b, u.c, u.d)
    assert (again.a, again.b, again.c, again.d) == (u.a, u.b, u.c, u.d)
    assert u.c > 0
    sq = squarefree_decompose(u.d)
    assert sq == (1, u.d)
    if u.b == 0:
        assert u.d == 1


def test_sign_agrees_with_certified_decimal():
    rng = random.Random(987654)
    rads = [2, 3, 5, 15, 21]
    checked = 0
    for _ in range(1000):
        x = QuadExt(
            rng.randint(-(10**6), 10**6),
            rng.randint(-(10**6), 10**6),
            rng.randint(1, 10**6),
            rng.choice(rads),
        )
        y = QuadExt(
            rng.randint(-(10**6), 10**6),
            rng.randint(-(10**6), 10**6),
            rng.randint(1, 10**6),
            rng.choice(rads),
        )
        s = QuadSum(x, y)
        lo, hi = s.bracket(60)
        if lo > 0:
            assert s.sign() == 1
            checked += 1
        elif hi < 0:
            assert s.sign() == -1
            checked += 1
        else:
            assert s.sign() == 0
    assert checked >= 990


def test_quadsum_canonical_merging():
    s = QuadSum(QuadExt(1, 1, 2, 3), QuadExt(1, -1, 2, 3))
    assert s.is_single and s.to_quadext() == 1
    t = QuadSum(QuadExt.sqrt(5), QuadExt.from_rational(2))
    assert t.is_single
    u = QuadSum(QuadExt.sqrt(5), QuadExt.sqrt(2))
    assert not u.is_single
    assert u.x.d == 2 and u.y.d == 5  # ordered by radicand
    with pytest.raises(MixedRadicandError):
        u.to_quadext()
    with pytest.raises(MixedRadicandError):
        (u + QuadExt.sqrt(3)).sign()


def test_quadsum_hash_ignores_rational_placement():
    x = QuadSum(QuadExt.sqrt(2), QuadExt(1, 1, 1, 3))
    y = QuadSum(QuadExt(1, 1, 1, 2), QuadExt.sqrt(3))
    assert x == y and hash(x) == hash(y)
    assert len({x, y, x - 1 + 1}) == 1


def test_quadsum_arithmetic_two_fields():
    a = QuadSum(QuadExt.sqrt(2), QuadExt.sqrt(3))
    b = QuadSum(QuadExt(0, 2, 1, 2), QuadExt(0, -1, 1, 3))
    d = a - b  # -sqrt(2) + 2 sqrt(3)
    assert d == QuadSum(QuadExt(0, -1, 1, 2), QuadExt(0, 2, 1, 3))
    assert (a - a).sign() == 0


def test_quadsum_cancelled_field_frees_its_slot():
    r2, r3, r5 = QuadExt.sqrt(2), QuadExt.sqrt(3), QuadExt.sqrt(5)
    expected = QuadSum(r2, r3)
    for s in (QuadSum(r2, r5) + QuadSum(r3, -r5), QuadSum(r2, r5) - QuadSum(-r3, r5)):
        assert s == expected and hash(s) == hash(expected)
        assert (s.x, s.y) == (r2, r3)


# two square classes, one of them under two radicands, plus the rationals:
# every sum of drawn values spans at most two fields
mixed_rads = st.sampled_from([3, Q, P * P * Q])


def _other_form(t: QuadExt) -> QuadExt:
    """The same value over the other radicand of the field of sqrt(Q)."""
    if t.d == Q:
        return QuadExt(t.a * P, t.b, t.c * P, P * P * Q)
    if t.d == P * P * Q:
        return QuadExt(t.a, t.b * P, t.c, Q)
    return t


@st.composite
def values(draw):
    """A QuadExt or a two-term QuadSum whose rational part sits on either term."""
    u = draw(quadexts(d=draw(mixed_rads)))
    if draw(st.booleans()):
        return u
    v = draw(quadexts(d=draw(mixed_rads)))
    r = Fraction(draw(small_ints), draw(pos_ints))
    return QuadSum(u + r, v) if draw(st.booleans()) else QuadSum(u, v + r)


def _lift(v):
    return v if isinstance(v, QuadSum) else QuadSum(v)


def _other_value(v):
    return _other_form(v) if isinstance(v, QuadExt) else QuadSum(*map(_other_form, v.terms()))


@given(values(), values(), values())
@settings(max_examples=300)
def test_equal_values_hash_equal(x, y, z):
    other = _other_value(x)
    pairs = [
        (x, other),
        (_lift(x) + (_lift(y) + z), (_lift(x) + y) + z),
        (_lift(x) + y, _lift(y) + x),
        (_lift(x) - y + y, x),
        (x, y),
    ]
    assert x == other
    for u, v in pairs:
        if u == v:
            assert hash(u) == hash(v)


ORDER = (operator.lt, operator.le, operator.gt, operator.ge, operator.eq)


@given(values(), values())
@settings(max_examples=300)
def test_order_across_types_and_radicands(x, y):
    answers = {
        tuple(op(u, v) for op in ORDER)
        for u in (x, _lift(x), _other_value(x))
        for v in (y, _lift(y), _other_value(y))
    }
    assert len(answers) == 1
    for u in (x, _lift(x), _other_value(x)):
        assert tuple(op(u, _other_value(x)) for op in ORDER) == (False, True, False, True, True)
    lt, le, gt, ge, eq = answers.pop()
    assert lt + eq + gt == 1
    assert (le, ge) == (lt or eq, gt or eq)
    assert (y == x) == eq
    (xlo, xhi), (ylo, yhi) = x.bracket(60), y.bracket(60)
    if xhi < ylo:
        assert lt
    elif yhi < xlo:
        assert gt


def _folded_sign(x, y) -> int:
    """Sign of x - y by an oracle that shares no code with _cmp, sign or
    _pairs: exact when the folded difference is rational, else the first of
    its Fraction brackets at k = 30, 60, 120, ... that excludes 0."""
    d = _lift(x) - y
    if d.is_single and d.x.is_rational:
        f = d.x.as_fraction()
        return (f > 0) - (f < 0)
    k = 30
    while True:
        lo, hi = _fraction_bracket(d, k)
        if lo > 0 or hi < 0:
            return 1 if lo > 0 else -1
        k *= 2


TINY = (Fraction(1, 2**80), Fraction(1, 2**200))  # below the filter's 2**-64 brackets
# irrational differences far below the brackets: (3 - 2*sqrt(2))**39, a Pell unit about
# 1.4e-30 above 0, and sqrt(2) + sqrt(3) against a convergent 3.2e-22 above it
PELL = QuadExt(359313438791966819268004696899, -254072969141257218722003304910, 1, 2)
ROOTS_2_3 = QuadSum(QuadExt.sqrt(2), QuadExt.sqrt(3))
CONVERGENT = Fraction(71873957185, 22844220553)


@given(values(), values(), st.fractions(-50, 50, max_denominator=50))
@settings(max_examples=200)
def test_filtered_order_matches_the_fold(x, y, r):
    # ties from the other radicand, near-ties below the brackets, rationals on either side
    r3 = QuadExt.sqrt(3)
    near = [_lift(x) + s * t for t in TINY for s in (1, -1)]
    for u in (x, _lift(x), _other_value(x)):
        for v in [y, r, x, _other_value(x), _lift(x) + r, *near]:
            assert u._cmp(v) == _folded_sign(u, v), (u, v)
            if u == v:
                assert hash(u) == hash(v)
        assert QuadExt.from_rational(r)._cmp(u) == _folded_sign(r, u)
        assert [near[0] > u, near[1] < u, near[2] > u, near[3] < u] == [True] * 4
        lo, hi = _box(u.terms())  # the filter's bracket holds the value
        assert _folded_sign(u, Fraction(lo, 2**64)) >= 0 >= _folded_sign(u, Fraction(hi, 2**64))
    q, c = QuadExt.from_rational(r), QuadExt.from_rational(CONVERGENT + r)
    for v, w in [(PELL + r, q), (-PELL + r, q), (QuadSum(PELL + r, r3), r3 + r), (ROOTS_2_3 + r, c)]:
        for a, b in ((v, w), (w, v), (_lift(v), w), (w, _lift(v))):
            assert a._cmp(b) == _folded_sign(a, b) == (a - b).sign() != 0, (a, b)


def test_order_across_three_and_four_fields():
    # 7.6e-25 and 3.0e-23 apart: the 2**-64 brackets overlap, and the difference
    # spans more fields than a QuadSum carries
    r2, r3, r5, r7 = map(QuadExt.sqrt, (2, 3, 5, 7))
    three = (ROOTS_2_3, QuadExt(0, 981614598306, 697639076515, 5))
    four = (ROOTS_2_3, QuadSum(r5, r7 + Fraction(-204980461358, 118106583179)))
    # each value as another object, built another way
    twins = {ROOTS_2_3: QuadSum(r2 + 1, r3) - 1, three[1]: QuadSum(three[1]),
             four[1]: four[1] + 1 - 1}
    hashes = {v: hash(v) for v in twins}
    for (x, y), order in ((three, 1), (four, -1)):
        (xlo, xhi), (ylo, yhi) = _fraction_bracket(x, 60), _fraction_bracket(y, 60)
        assert order == (1 if xlo > yhi else -1 if xhi < ylo else 0)
        (bxlo, bxhi), (bylo, byhi) = _box(x.terms()), _box(y.terms())
        assert bxlo <= byhi and bylo <= bxhi
        with pytest.raises(MixedRadicandError):
            x - y
        for a, b, sign in ((x, y, order), (y, x, -order), (twins[x], twins[y], order)):
            assert (a < b, a > b, a == b, a != b) == (sign < 0, sign > 0, False, True)
            assert (a <= b, a >= b, a._cmp(b)) == (sign < 0, sign > 0, sign)
    for v, twin in twins.items():
        assert v == twin and hash(v) == hash(twin) == hashes[v]
    assert len(set(twins) | set(twins.values())) == 3


def test_filtered_order_on_ties_and_wide_coefficients():
    r2, r3 = QuadExt.sqrt(2), QuadExt.sqrt(3)
    tie = (QuadSum(r2, 1 + r3), QuadSum(1 + r2, r3))
    u, v = QuadExt(0, 1, 1, P * P * Q), QuadExt(5, -P, 7, Q)
    # (a + b*sqrt(d))/c with a, b and c past 4300 digits, negative b
    big = QuadExt(7**5200 + 1, -(7**5200), 3 * 11**4000, 5)
    lo, hi = map(QuadExt.from_rational, big.bracket(40))
    cases = [
        tie,
        (u, QuadExt(0, P, 1, Q)),
        (v, QuadExt(5 * P, -1, 7 * P, P * P * Q)),
        (u, u + TINY[1]),
        (v - TINY[0], v),
        (big, big),
        (big, big + TINY[1]),
        (big - TINY[0], QuadSum(big, r3) - r3),
        (big, lo),
        (hi, big),
        (QuadSum(big, r2), QuadSum(big + TINY[1], r2)),
    ]
    for x, y in cases:
        for a, b in ((x, y), (y, x)):
            assert a._cmp(b) == _folded_sign(a, b)
            assert (a == b) == (_folded_sign(a, b) == 0)
            if a == b:
                assert hash(a) == hash(b)
    assert tie[0] == tie[1] and u == QuadExt(0, P, 1, Q)
    assert lo < big < hi and big < big + TINY[1] and big - TINY[0] < big


def test_self_comparison_decides_without_the_fold(monkeypatch):
    big = QuadExt(7**5200 + 1, -(7**5200), 3 * 11**4000, 5)
    cases = [LAM0, QuadExt(0, 1, 1, P * P * Q), big, QuadSum(LAM0), QuadSum(QuadExt(3, 1, 2, 3)),
             QuadSum(QuadExt.sqrt(2), QuadExt(1, 1, 1, 3)), QuadSum(big, QuadExt(0, -1, 7, Q))]
    # the same values as other objects: compared through the fold, and hashed alike
    twins = [QuadSum(*(QuadExt(t.a, t.b, t.c, t.d) for t in _lift(x).terms())) for x in cases]

    def refused(parts):
        raise AssertionError("a value compared with itself was folded")

    monkeypatch.setattr(quadfield, "_fold", refused)
    for x in cases:
        assert x == x and x <= x and x >= x and not x < x and not x > x and not x != x
        assert x._cmp(x) == 0
    monkeypatch.undo()
    for x, twin in zip(cases, twins):
        assert x == twin and x <= twin and x >= twin and not x < twin
        assert hash(x) == hash(twin) == hash(_lift(x))


# Decimal rendering as it was before the integer-pair kernel: Fraction brackets
# and Fraction rounding.  approx and bracket must give the same digits and the
# same rationals.
def _fraction_bracket(v, k):
    if isinstance(v, QuadSum):
        (xlo, xhi), (ylo, yhi) = _fraction_bracket(v.x, k + 1), _fraction_bracket(v.y, k + 1)
        return xlo + ylo, xhi + yhi
    if v.b == 0:
        f = Fraction(v.a, v.c)
        return f, f
    scale = 10**k
    s = isqrt(v.b * v.b * v.d * scale * scale)
    if v.b > 0:
        return Fraction(v.a * scale + s, v.c * scale), Fraction(v.a * scale + s + 1, v.c * scale)
    return Fraction(v.a * scale - s - 1, v.c * scale), Fraction(v.a * scale - s, v.c * scale)


def _fraction_round_half_even(f):
    n = f.numerator // f.denominator
    frac = f - n
    if 2 * frac.numerator > frac.denominator:
        return n + 1
    if 2 * frac.numerator < frac.denominator:
        return n
    return n if n % 2 == 0 else n + 1


def _fraction_approx(v, digits):
    scale, guard = 10**digits, digits + 8
    while True:
        lo, hi = _fraction_bracket(v, guard)
        rlo, rhi = _fraction_round_half_even(lo * scale), _fraction_round_half_even(hi * scale)
        if rlo == rhi:
            return _format_scaled(rlo, digits)
        guard *= 2


rationals = st.fractions(-50, 50, max_denominator=40).map(QuadExt.from_rational)


@given(
    st.one_of(values(), rationals, st.builds(QuadSum, rationals, rationals)),
    st.one_of(st.integers(min_value=0, max_value=60), st.just(5000)),
)
@settings(max_examples=150)
def test_integer_pair_decimals_match_fraction_reference(v, digits):
    assert v.approx(digits) == _fraction_approx(v, digits)
    k = digits % 61
    assert v.bracket(k) == _fraction_bracket(v, k)


def test_approx_widens_its_guard_until_the_rounding_is_decided():
    # (1 - 10**20 + sqrt(10**40 + 1))/2 = 0.5 + 2.5e-21...: the brackets at 8 and
    # 16 guard digits both hold 0.5, so the guard doubles twice
    x = QuadExt(1 - 10**20, 1, 2, 10**40 + 1)
    assert x.approx(0) == "1"
    for k in range(26):
        assert x.approx(k) == _fraction_approx(x, k)
