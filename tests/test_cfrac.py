import random
from fractions import Fraction
from itertools import chain, cycle, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import deadline
from lagspec.cfrac import (
    _END,
    EPCF,
    _alternating,
    _fixed_box,
    _mobius_box,
    _mul,
    FiniteCF,
    PeriodNotFoundError,
    PrefixOrderUndecided,
    cmp_prefix,
    cylinder,
    distance_bounds,
    eval_finite,
    eval_periodic,
    expand,
    mobius,
    mobius_pairs,
)
from lagspec.quadfield import QuadExt, QuadSum


def _recurrence(word):
    """The convergents (p_n, q_n) of a word by the textbook recurrence
    p_n = a_n*p_{n-1} + p_{n-2}, q_n = a_n*q_{n-1} + q_{n-2}, from (1, 0) and (0, 1)."""
    out, (p1, q1), (p0, q0) = [], (1, 0), (0, 1)
    for a in word:
        (p1, q1), (p0, q0) = (a * p1 + p0, a * q1 + q0), (p1, q1)
        out.append((p1, q1))
    return out


def test_convergents_examples():
    assert _recurrence((0, 2, 1)) == [(0, 1), (1, 2), (1, 3)]
    assert _recurrence((3, 3, 3)) == [(3, 1), (10, 3), (33, 10)]
    # mobius carries the last two convergents: p1/q1 and p0/q0
    assert mobius(FiniteCF(0, (2, 1)).word) == (1, 1, 3, 2)
    assert mobius(FiniteCF(3, (3, 3)).word) == (33, 10, 10, 3)
    # [0;1,2,1,2,1,2] is the 7-term prefix of the expansion of -1+sqrt(3)
    e = expand(QuadExt(-1, 1, 1, 3))
    prefix = tuple(islice(chain((e.a0,), e.preperiod, cycle(e.period)), 7))
    assert prefix == (0, 1, 2, 1, 2, 1, 2)
    assert mobius(FiniteCF(0, (1, 2, 1, 2, 1, 2)).word) == mobius(prefix) == (30, 11, 41, 15)


def test_convergents_coprime_increasing():
    from math import gcd

    word = FiniteCF(0, (3, 1, 4, 1, 5, 9, 2)).word
    convs = [mobius(word[:k])[::2] for k in range(1, len(word) + 1)]
    assert convs == _recurrence(word)
    for p, q in convs:
        assert gcd(p, q) == 1 and q >= 1
    qs = [q for _, q in convs]
    assert all(qs[i] < qs[i + 1] for i in range(1, len(qs) - 1))


@given(
    st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=20),
    st.lists(st.integers(min_value=1, max_value=6), max_size=20),
)
def test_mobius_matrix(u, v):
    word = tuple(u) + tuple(v)
    p1, p0, q1, q0 = mobius(word)
    convs = _recurrence(word)
    assert (p1, q1) == convs[-1]
    assert (p0, q0) == (convs[-2] if len(convs) > 1 else (1, 0))
    assert p1 * q0 - p0 * q1 == (-1) ** len(word)
    assert mobius(word) == mobius(v, mobius(u))


@given(
    st.lists(st.integers(min_value=0, max_value=1000), max_size=20),
    st.lists(st.integers(min_value=0, max_value=1000), max_size=20),
    st.integers(min_value=0, max_value=1000),
)
def test_mul_is_the_product_of_words(u, v, a):
    # the algebra that bisequence's prepend, drop and rotation steps stand on
    assert _mul(mobius(u), mobius(v)) == mobius(u + v)
    x, x_inv, m = (a, 1, 1, 0), (0, 1, 1, -a), mobius(u)
    assert x == mobius((a,)) and _mul(x, x_inv) == _mul(x_inv, x) == (1, 0, 0, 1)
    assert _mul(x, m) == mobius([a] + u) and _mul(x_inv, mobius([a] + u)) == m
    assert _mul(mobius(u + [a]), x_inv) == m
    if u:  # moving the first symbol to the back conjugates by X_a
        b = u[0]
        assert _mul(_mul((0, 1, 1, -b), m), (b, 1, 1, 0)) == mobius(u[1:] + u[:1])


def _value_with_tail(word, t):
    """[word..., t] evaluated from the right, without matrices."""
    x = Fraction(t)
    for a in reversed(word):
        x = a + 1 / x
    return x


@given(
    st.integers(min_value=0, max_value=5),
    st.lists(st.integers(min_value=1, max_value=5), max_size=8),
    st.fractions(min_value=1, max_value=50, max_denominator=30),
    st.fractions(min_value=1, max_value=50, max_denominator=30),
)
def test_mobius_image_of_tail_interval(a0, tail, s, t):
    word = (a0,) + tuple(tail)
    lo, hi = min(s, t), max(s, t)

    def image(end):  # the ends of mobius_pairs over [lo, end], as Fractions
        ln, ld, hn, hd = mobius_pairs(mobius(word), lo.as_integer_ratio() + end)
        return Fraction(ln, ld), Fraction(hn, hd)

    # x -> [word..., x] is monotone on [1, inf], so the endpoints span the image
    ends = sorted((_value_with_tail(word, lo), _value_with_tail(word, hi)))
    assert image(hi.as_integer_ratio()) == tuple(ends)
    # +inf as 1/0: the tail drops out and the word itself is the endpoint
    ends = sorted((_value_with_tail(word, lo), _value_with_tail(word[:-1], word[-1])))
    assert image((1, 0)) == tuple(ends)


@given(
    st.lists(st.integers(min_value=1, max_value=5), max_size=10),
    st.fractions(min_value=1, max_value=50, max_denominator=30),
    st.one_of(st.none(), st.fractions(min_value=0, max_value=50, max_denominator=30)),
)
def test_mobius_pairs_match_mobius_image(tail, lo, width):
    # [0; tail..., x] over x in [lo, hi], hi = lo + width or +inf (den 0);
    # the empty tail is the word (0,), x -> 1/x
    word = (0,) + tuple(tail)
    hi = None if width is None else lo + width
    pairs = lo.as_integer_ratio() + ((1, 0) if hi is None else hi.as_integer_ratio())
    ln, ld, hn, hd = mobius_pairs(mobius(word), pairs)
    assert ld > 0 and hd > 0
    ends = Fraction(ln, ld), Fraction(hn, hd)
    # the map rises for an even word length, so lo gives the lower end
    at_lo = _value_with_tail(word, lo)
    at_hi = _value_with_tail(word[:-1], word[-1]) if hi is None else _value_with_tail(word, hi)
    assert ends == ((at_lo, at_hi) if len(word) % 2 == 0 else (at_hi, at_lo))


def test_exact_end_is_the_last_convergent():
    # _END, the point inf, drops the tail: the word's own value at both ends
    rng = random.Random(2201)
    for _ in range(500):
        word = (rng.randint(0, 5),) + tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 12)))
        p, _, q, _ = mobius(word)
        assert mobius_pairs(mobius(word), _END) == (p, q, p, q)  # the last convergent twice
        assert Fraction(p, q) == eval_finite(word) == _value_with_tail(word[:-1], word[-1])


def test_eval_finite():
    assert eval_finite(FiniteCF(0, (2, 1))) == Fraction(1, 3)
    assert eval_finite(FiniteCF(3, ())) == 3
    # brute evaluation: 1/(3+1/(1+1/(3+1/1))) = 5/19
    assert eval_finite(FiniteCF(0, (3, 1, 3, 1))) == Fraction(5, 19)


def test_eval_periodic_examples():
    assert eval_periodic(EPCF(0, (), (1, 3))) == QuadExt(-3, 1, 2, 21)
    assert eval_periodic(EPCF(0, (), (2, 1))) == QuadExt(-1, 1, 2, 3)
    assert eval_periodic(EPCF(0, (), (1,))) == QuadExt(-1, 1, 2, 5)


def test_eval_periodic_with_preperiod():
    v = eval_periodic(EPCF(3, (3, 3, 2, 1), (1, 2)))
    w = eval_periodic(EPCF(0, (2, 1), (1, 2)))
    assert QuadSum(v, w) == QuadExt(62976, -1498, 16357, 3)


def _reference_eval_periodic(cf):
    """The generic path: the period's fixed point as a QuadExt, then the
    preperiod map by QuadExt arithmetic (two products, two sums, a quotient)."""
    p1, p0, q1, q0 = mobius(cf.period)
    A, B, C = q1, q0 - p1, -p0
    y = QuadExt(-B, 1, 2 * A, B * B - 4 * A * C)
    p1, p0, q1, q0 = mobius((cf.a0,) + cf.preperiod)
    return (p1 * y + p0) / (q1 * y + q0)


@given(
    st.integers(min_value=0, max_value=60),
    st.lists(st.integers(min_value=1, max_value=60), max_size=10),
    st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=8),
)
@settings(max_examples=400)
def test_eval_periodic_matches_generic_arithmetic(a0, pre, per):
    cf = EPCF(a0, pre, per)
    v, ref = eval_periodic(cf), _reference_eval_periodic(cf)
    assert (v.a, v.b, v.c, v.d) == (ref.a, ref.b, ref.c, ref.d)
    # the integer brackets the bracket-first sup reads hold the fixed point and the value
    n, d, n1, d1 = box = _fixed_box(mobius(cf.period))
    assert Fraction(n, d) < eval_periodic(EPCF(per[0], per[1:], per)) < Fraction(n1, d1) and n1 - n == 1
    lo, hi = _mobius_box(mobius((cf.a0,) + cf.preperiod), box)
    assert Fraction(lo, 2**64) < v < Fraction(hi, 2**64) and hi - lo <= 4


def test_expand_examples():
    assert expand(QuadExt(-1, 1, 1, 3)) == EPCF(0, (), (1, 2))
    assert expand(Fraction(1, 3)) == FiniteCF(0, (3,))
    assert expand(7) == FiniteCF(7, ())
    e = expand(eval_periodic(EPCF(3, (3, 3, 2, 1), (1, 2))))
    assert e.period == (1, 2)
    assert eval_periodic(e) == eval_periodic(EPCF(3, (3, 3, 2, 1), (1, 2)))


def test_expand_from_a_negative_denominator_state():
    # b < 0 starts the surd state (P + sqrt(D))/Q at Q < 0
    for x, cf in [
        (QuadExt(0, -1, 1, 2), EPCF(-2, (1, 1), (2,))),  # -sqrt(2)
        (QuadExt(1, -1, 3, 7), EPCF(-1, (2,), (4, 1, 1, 1))),  # (1 - sqrt(7))/3
    ]:
        assert expand(x) == cf and eval_periodic(cf) == x


def test_expand_period_not_found():
    with pytest.raises(PeriodNotFoundError):
        expand(QuadExt(0, 1, 1, 1999), max_terms=3)


def test_cmp_prefix_examples():
    assert cmp_prefix((0, 1, 3), (0, 1, 2)) == (1, 2)
    assert cmp_prefix((3, 2), (3, 1)) == (-1, 1)
    assert cmp_prefix((0, 1, 3), (0, 1, 3)) == (0, None)
    with pytest.raises(PrefixOrderUndecided):
        cmp_prefix((0, 1), (0, 1, 2))


def test_cmp_prefix_leading_term():
    assert cmp_prefix((4, 1), (3, 1)) == (1, 0)


def test_distance_bounds():
    b1 = distance_bounds(1)
    assert b1.eps == 1 and b1.delta == Fraction(1, 5**6)
    b3 = distance_bounds(3)
    assert b3.eps == Fraction(1, 4) and b3.delta == Fraction(1, 5**10)


@given(st.integers(min_value=0, max_value=100))
def test_delta_below_eps(n):
    b = distance_bounds(n)
    assert b.delta < b.eps


def test_sandwich_instance():
    # [0;1,2,1,(1,2)] and [0;1,2,2,(1,2)] share the 2-term prefix 1,2
    a = QuadSum(eval_periodic(EPCF(0, (1, 2, 1), (1, 2))))
    b = QuadSum(eval_periodic(EPCF(0, (1, 2, 2), (1, 2))))
    diff = a - b if (a - b).sign() > 0 else b - a
    bounds = distance_bounds(2)
    assert (diff - bounds.delta).sign() > 0
    assert (diff - bounds.eps).sign() < 0


def test_cylinder_examples():
    assert cylinder(FiniteCF(0, (1,))) == (Fraction(1, 2), Fraction(1, 1))
    assert cylinder(FiniteCF(0, (2, 1))) == (Fraction(1, 3), Fraction(2, 5))
    lo, hi = cylinder(FiniteCF(3, (3, 3, 2, 1)))
    v = eval_periodic(EPCF(3, (3, 3, 2, 1), (1, 2)))
    assert QuadSum(v) > lo and QuadSum(v) < hi
    with pytest.raises(ValueError):
        cylinder(FiniteCF(3, ()))


words = st.lists(st.integers(min_value=1, max_value=4), min_size=0, max_size=20)
periods = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4)


@given(
    st.integers(min_value=0, max_value=4),
    words,
    st.lists(st.integers(min_value=1, max_value=4), min_size=0, max_size=8),
    words,
    words,
    st.tuples(st.integers(1, 4), st.integers(1, 4)).filter(lambda t: t[0] != t[1]),
    periods,
)
@settings(max_examples=1000)
def test_cmp_prefix_matches_exact_order(a0, shared, _unused, t1, t2, diff, per):
    """Order of two words sharing a prefix equals the order of their values
    under any common periodic continuation."""
    x = (a0,) + tuple(shared) + (diff[0],) + tuple(t1)
    y = (a0,) + tuple(shared) + (diff[1],) + tuple(t2)
    order, idx = cmp_prefix(x, y)
    assert idx == len(shared) + 1
    va = QuadSum(eval_periodic(EPCF(x[0], x[1:], tuple(per))))
    vb = QuadSum(eval_periodic(EPCF(y[0], y[1:], tuple(per))))
    assert (va - vb).sign() == order


@given(
    words,
    st.tuples(st.integers(1, 4), st.integers(1, 4)).filter(lambda t: t[0] != t[1]),
    words,
    words,
    periods,
)
@settings(max_examples=300)
def test_alternating_matches_common_extension(shared, diff, t1, t2, per):
    """Words that first differ after a shared prefix, a0 included: the kernel's
    sign is the sign of the exact difference under a common periodic extension."""
    x = tuple(shared) + (diff[0],) + tuple(t1)
    y = tuple(shared) + (diff[1],) + tuple(t2)
    sign, i = _alternating(x, y)
    assert i == len(shared)
    exact = QuadSum(eval_periodic(EPCF(x[0], x[1:], tuple(per)))) - QuadSum(
        eval_periodic(EPCF(y[0], y[1:], tuple(per)))
    )
    assert exact.sign() == sign
    assert _alternating(y, x) == (-sign, i)


@given(
    st.integers(min_value=0, max_value=4),
    words,
    periods,
    st.integers(min_value=1, max_value=24),
    st.lists(st.integers(min_value=1, max_value=4), max_size=3),
)
@settings(max_examples=300)
def test_alternating_ended_word_against_periodic(a0, pre, per, k, tail):
    """A finite word that shares a prefix with an EPCF, often all of the word:
    the ended sequence counts as the larger quotient, and the sign is that of
    the exact difference of the rational and the quadratic irrational."""
    e = EPCF(a0, tuple(pre), tuple(per))
    quotients = lambda: chain((e.a0,), e.preperiod, cycle(e.period))  # the infinite word
    w = tuple(islice(quotients(), k)) + tuple(tail)
    sign, i = _alternating(w, islice(quotients(), len(w) + 1))
    exact = QuadSum(eval_finite(w)) - QuadSum(eval_periodic(e))
    assert sign == exact.sign() != 0
    assert k <= i <= len(w)


@given(st.integers(min_value=0, max_value=4), words)
def test_alternating_equal_words(a0, w):
    x = (a0,) + tuple(w)
    assert _alternating(x, x) == (0, None)
    assert _alternating(iter(x), list(x)) == (0, None)


@given(
    st.integers(min_value=0, max_value=3),
    st.lists(st.integers(min_value=1, max_value=4), min_size=0, max_size=12),
    st.tuples(st.integers(1, 4), st.integers(1, 4)).filter(lambda t: t[0] != t[1]),
    periods,
    periods,
)
@settings(max_examples=500)
def test_sandwich_property(a0, shared, diff, p1, p2):
    """delta_n < |alpha - beta| < eps_n for words sharing exactly an n-prefix
    with all quotients at most 4."""
    n = len(shared)
    alpha = QuadSum(eval_periodic(EPCF(a0, tuple(shared) + (diff[0],), tuple(p1))))
    beta = QuadSum(eval_periodic(EPCF(a0, tuple(shared) + (diff[1],), tuple(p2))))
    d = alpha - beta if (alpha - beta).sign() > 0 else beta - alpha
    bounds = distance_bounds(n)
    assert (d - bounds.delta).sign() > 0
    assert (bounds.eps - d).sign() > 0


@given(
    st.integers(min_value=0, max_value=4),
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=12),
    st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=6),
    periods,
)
@settings(max_examples=1000)
def test_cylinder_contains_extensions(a0, tail, ext, per):
    word = (a0,) + tuple(tail)
    lo, hi = cylinder(word)
    v = QuadSum(eval_periodic(EPCF(a0, tuple(tail) + tuple(ext), tuple(per))))
    assert v > lo and v < hi


@given(
    st.integers(min_value=0, max_value=4),
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=12),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=500)
def test_cylinder_nesting(a0, tail, nxt):
    outer = cylinder((a0,) + tuple(tail))
    inner = cylinder((a0,) + tuple(tail) + (nxt,))
    assert outer[0] <= inner[0] and inner[1] <= outer[1]
    assert inner[0] > outer[0] or inner[1] < outer[1]


def test_expand_eval_round_trip_500():
    rng = random.Random(20250808)
    ds = [2, 3, 5, 7, 13, 15, 21]
    for _ in range(500):
        u = QuadExt(
            rng.randint(-50, 50),
            rng.choice([x for x in range(-50, 51) if x]),
            rng.randint(1, 50),
            rng.choice(ds),
        )
        assert eval_periodic(expand(u, max_terms=50_000)) == u


def test_finite_words_not_canonicalized():
    a = FiniteCF(0, (2, 1))
    b = FiniteCF(0, (3,))
    assert a != b
    assert eval_finite(a) == eval_finite(b)


@pytest.mark.parametrize("length, seed", [(80, 2), (80, 4), (80, 6), (200, 1)])
def test_long_period_round_trip(length, seed):
    rng = random.Random(seed)
    cf = EPCF(0, (), tuple(rng.choice((1, 2, 3)) for _ in range(length)))

    with deadline(10, f"a period of {length} terms"):
        x = eval_periodic(cf)
        assert eval_periodic(expand(x)) == x
