import random
import sys
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagspec import bisequence, cfrac, quadfield
from lagspec.bisequence import (
    BiSeq,
    SupCertificate,
    _exceeding,
    _phase_limits,
    _rational_lower_bound,
    _rotations,
    _side_classes,
    lambda_at,
    limsup_lambda,
    periodic_phase_limits,
    sup_lambda,
)
from lagspec.cfrac import EPCF, _fixed_box, _mobius_box, distance_bounds, eval_periodic, mobius
from lagspec.constructions import build_a0, gap_left_endpoint
from lagspec.parsing import parse_biseq
from lagspec.quadfield import QuadExt, QuadSum


def test_accessor_matches_display():
    A = build_a0()
    assert [A.at(i) for i in range(-3, 4)] == [1, 2, 3, 3, 3, 2, 1]
    assert A.at(-4) == 1 and A.at(-5) == 2 and A.at(-6) == 1
    assert A.at(4) == 1 and A.at(5) == 2 and A.at(6) == 1
    assert A.start == -3 and A.end == 3


def test_accessor_validation():
    with pytest.raises(ValueError):
        BiSeq((1,), (1, 2), 5, (1,))
    with pytest.raises(ValueError):
        BiSeq((), (1,), 0, (1,))
    with pytest.raises(ValueError):
        BiSeq((1,), (0,), 0, (1,))


def test_lambda_at_reference_sequence():
    A = build_a0()
    lam0 = gap_left_endpoint()
    assert lambda_at(A, 1).value == lam0
    assert lambda_at(A, -1).value == lam0
    assert lambda_at(A, 0).value == QuadExt(246, 1, 69, 3)


def test_lambda_at_caps_the_distance_outside_the_core(monkeypatch):
    monkeypatch.setattr(bisequence, "_MAX_OUTSIDE_CORE", 3)
    A = build_a0()  # core indices -3..3
    assert lambda_at(A, 6).index == 6 and lambda_at(A, -6).index == -6
    for i in (7, -7):
        with pytest.raises(ValueError, match=f"index {i} lies more than 3 places outside the core"):
            lambda_at(A, i)


def test_lambda_at_all_ones():
    ones = BiSeq((1,), (1,), 0, (1,))
    for i in (-3, 0, 5):
        assert lambda_at(ones, i).value == QuadExt(0, 1, 1, 5)


def test_lambda_tails_recombine():
    from lagspec.cfrac import eval_periodic

    A = build_a0()
    lv = lambda_at(A, 2)
    assert QuadSum(eval_periodic(lv.left_tail), eval_periodic(lv.right_tail)) == lv.value


def test_sup_reference_certificate():
    A = build_a0()
    cert = sup_lambda(A)
    lam0 = gap_left_endpoint()
    assert cert.status == "certified"
    assert cert.sup == lam0
    assert cert.attained
    assert cert.attaining_indices == (-1, 1)
    assert cert.margin > 0
    assert lam0 > QuadExt(246, 1, 69, 3)
    for lim in periodic_phase_limits(A.right_period):
        assert lam0 > lim


def test_sup_purely_periodic_attained():
    ones = BiSeq((1,), (1,), 0, (1,))
    cert = sup_lambda(ones)
    assert cert.status == "certified" and cert.attained
    assert cert.sup == QuadExt(0, 1, 1, 5)
    assert limsup_lambda(ones) == cert.sup
    per = BiSeq((2, 2), (2, 2), 0, (2, 2))
    c2 = sup_lambda(per)
    assert c2.attained and c2.sup == limsup_lambda(per)


def test_sup_core_spike():
    A = BiSeq((1,), (2,), 0, (1,))
    cert = sup_lambda(A)
    assert cert.status == "certified" and cert.attained
    assert cert.attaining_indices == (0,)
    assert cert.sup == QuadExt(1, 1, 1, 5)


def test_sup_unattained_limit():
    B = BiSeq((1,), (1,), 0, (1, 2))
    cert = sup_lambda(B)
    assert cert.status == "certified"
    assert not cert.attained
    assert cert.attaining_indices == ()
    assert cert.sup == QuadExt(0, 2, 1, 3)
    for i in range(cert.window[0] - 40, cert.window[1] + 40):
        assert lambda_at(B, i).value < cert.sup


def test_sup_inconclusive_at_tiny_window():
    cert = sup_lambda(build_a0(), max_window_periods=1)
    assert cert.status == "inconclusive"
    assert cert.attained is False


def test_sup_needs_a_window():
    # an empty window would report a sup below the value attained at +-1
    for k in (0, -1):
        with pytest.raises(ValueError, match="max_window_periods"):
            sup_lambda(build_a0(), max_window_periods=k)


def test_limsup_examples():
    assert limsup_lambda(build_a0()) == QuadExt(0, 2, 1, 3)
    assert limsup_lambda(BiSeq((1,), (1,), 0, (1,))) == QuadExt(0, 1, 1, 5)
    assert limsup_lambda(BiSeq((2,), (2,), 0, (2, 2))) == QuadExt(0, 2, 1, 2)


def test_limsup_matches_far_samples():
    A = build_a0()
    L = limsup_lambda(A)
    best = None
    for i in range(A.end + 1, A.end + 60):
        v = lambda_at(A, i).value
        assert v < L
        if best is None or v > best:
            best = v
    assert (L - best) < Fraction(1, 10**6)


def test_shift_equivariance():
    A = build_a0()
    for k in (-2, 1, 3):
        shifted = A.shifted(k)
        for i in (-4, 0, 2, 7):
            assert lambda_at(shifted, i - k).value == lambda_at(A, i).value


def test_reflection():
    A = build_a0()
    assert A.reversed() == A
    B = BiSeq((2, 1), (1, 4, 2), 1, (3,))
    R = B.reversed()
    for i in range(-12, 13):
        assert R.at(i) == B.at(-i)
        assert lambda_at(R, i).value == lambda_at(B, -i).value


def test_grammar_round_trip():
    A = build_a0()
    assert str(A) == "<(2,1) | 1,2,3,3*,3,2,1 | (1,2)>"


def _random_biseq(rng):
    lp = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
    rp = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
    core = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 8)))
    return BiSeq(lp, core, rng.randrange(len(core)), rp)


def test_envelope_soundness_200_random():
    rng = random.Random(424242)
    certified = 0
    for _ in range(200):
        A = _random_biseq(rng)
        cert = sup_lambda(A, max_window_periods=8)
        if cert.status != "certified":
            continue
        certified += 1
        lo, hi = cert.window
        for dist in (1, 2, 3, 5, 17, 120, 500):
            for i in (lo - dist, hi + dist):
                v = lambda_at(A, i).value
                assert not v > cert.sup, (A, i)
    assert certified >= 190


def test_may_exceed_matches_exact_values():
    """Beyond the core, phase class by phase class: when _exceeding holds some
    lambda_i lies above the phase limit; otherwise every one lies below it or
    every one equals it.  Four indices per class, both reading directions."""
    rng = random.Random(6716)
    outcomes = set()
    for _ in range(2000):
        word = lambda lo, hi: tuple(rng.randint(1, 3) for _ in range(rng.randint(lo, hi)))
        core = word(1, 6)
        A = BiSeq(word(1, 3), core, rng.randrange(len(core)), word(1, 3))
        for seq in (A, A.reversed()):
            R = len(seq.right_period)
            for phase, lim in enumerate(_phase_limits(_rotations(seq.right_period), {})):
                vals = [lambda_at(seq, seq.end + 1 + phase + k * R).value for k in range(4)]
                if _exceeding(seq)[phase % 2]:
                    assert any(v > lim for v in vals), (seq, phase)
                    outcomes.add("all above" if all(v > lim for v in vals) else "some above")
                elif all(v < lim for v in vals):
                    outcomes.add("below")
                else:
                    assert all(v == lim for v in vals), (seq, phase)
                    outcomes.add("equal")
    assert outcomes == {"all above", "some above", "below", "equal"}


# Reference tail readers, copied from the earlier implementation that built
# each tail by hand: lambda_at and periodic_phase_limits must agree with them.
def _ref_rot(word, k):
    k %= len(word)
    return word[k:] + word[:k]


def _ref_left_tail(A, i):
    outward = tuple(reversed(A.left_period))
    if i >= A.start:
        pre = tuple(A.at(j) for j in range(i - 1, A.start - 1, -1))
        return EPCF(A.at(i), pre, outward)
    k = A.start - 1 - i
    return EPCF(A.at(i), (), _ref_rot(outward, k + 1))


def _ref_right_tail(A, i):
    if i < A.end:
        pre = tuple(A.at(j) for j in range(i + 1, A.end + 1))
        return EPCF(0, pre, A.right_period)
    return EPCF(0, (), _ref_rot(A.right_period, i - A.end))


def _ref_phase_limits(period):
    m = len(period)
    out = []
    for phase in range(m):
        left = EPCF(
            period[phase], (), tuple(period[(phase - 1 - k) % m] for k in range(m))
        )
        right = EPCF(0, (), _ref_rot(period, phase + 1))
        out.append(QuadSum(eval_periodic(left), eval_periodic(right)))
    return out


def test_tails_and_phase_limits_match_reference_readers():
    rng = random.Random(20160601)
    for _ in range(150):
        A = _random_biseq(rng)
        L, R = len(A.left_period), len(A.right_period)
        for i in range(A.start - 3 * L, A.end + 3 * R + 1):
            lv = lambda_at(A, i)
            assert lv.left_tail == _ref_left_tail(A, i), (A, i)
            assert lv.right_tail == _ref_right_tail(A, i), (A, i)
        for P in (A.left_period, A.core, A.right_period):
            got = [str(v) for v in periodic_phase_limits(P)]
            assert got == [str(v) for v in _ref_phase_limits(P)], P


def _canonical_terms(v):
    return [(t.a, t.b, t.c, t.d) for t in (v.x, v.y)]


@given(st.lists(st.integers(1, 1000), min_size=1, max_size=12))
@settings(max_examples=200)
def test_phase_limits_closed_form_matches_reference(period):
    # sqrt(disc)/p0 per rotation, against the two evaluated tails of the reference
    P = tuple(period)
    assert _rotations(P) == [mobius(_ref_rot(P, k)) for k in range(len(P))]
    got = _phase_limits(_rotations(P), {})
    assert list(map(_canonical_terms, got)) == list(map(_canonical_terms, _ref_phase_limits(P)))


def test_rotations_take_linear_work(monkeypatch):
    # one pass over each period, then O(1) steps per rotation, not len(P) words of len(P);
    # a sup reads each period and the core once
    symbols = []
    real = bisequence.mobius
    monkeypatch.setattr(bisequence, "mobius", lambda w, *m: symbols.extend(w) or real(w, *m))
    P = tuple(random.Random(26).choices((1, 2, 3), k=400))
    periodic_phase_limits(P)
    assert len(symbols) == 400
    symbols.clear()
    sup_lambda(BiSeq(P[:7], P[7:30], 3, P))
    assert len(symbols) == 7 + 23 + 400


# Every SupCertificate field at windows 1, 2 and 12, for sequences drawn from
# a seeded generator over the alphabet 1..4 plus the reference sequence:
# purely periodic, attained at once, attained after widening (inconclusive
# at small windows), and unattained.
# (sequence, max_window_periods, sup, attained, attaining_indices, window, margin, status)
_PINNED_SUP = [
    ('<(4) | 4* | (4)>', 1, '2*sqrt(5)', True, (-1, 0, 1), (-1, 1), '1', 'certified'),
    ('<(4) | 4* | (4)>', 2, '2*sqrt(5)', True, (-1, 0, 1), (-1, 1), '1', 'certified'),
    ('<(4) | 4* | (4)>', 12, '2*sqrt(5)', True, (-1, 0, 1), (-1, 1), '1', 'certified'),
    ('<(2,2,2) | 2*,2,2 | (2,2,2)>', 1, '2*sqrt(2)', True, (-3, -2, -1, 0, 1, 2, 3, 4, 5), (-3, 5), '1', 'certified'),
    ('<(2,2,2) | 2*,2,2 | (2,2,2)>', 2, '2*sqrt(2)', True, (-3, -2, -1, 0, 1, 2, 3, 4, 5), (-3, 5), '1', 'certified'),
    ('<(2,2,2) | 2*,2,2 | (2,2,2)>', 12, '2*sqrt(2)', True, (-3, -2, -1, 0, 1, 2, 3, 4, 5), (-3, 5), '1', 'certified'),
    ('<(2,3,4) | 2,3*,4 | (2,3,4)>', 1, 'sqrt(1093)/7', True, (-2, 1, 4), (-4, 4), '503711/630000', 'certified'),
    ('<(2,3,4) | 2,3*,4 | (2,3,4)>', 2, 'sqrt(1093)/7', True, (-2, 1, 4), (-4, 4), '503711/630000', 'certified'),
    ('<(2,3,4) | 2,3*,4 | (2,3,4)>', 12, 'sqrt(1093)/7', True, (-2, 1, 4), (-4, 4), '503711/630000', 'certified'),
    ('<(3,3,3) | 3,3*,3 | (3,3,3)>', 1, 'sqrt(13)', True, (-4, -3, -2, -1, 0, 1, 2, 3, 4), (-4, 4), '1', 'certified'),
    ('<(3,3,3) | 3,3*,3 | (3,3,3)>', 2, 'sqrt(13)', True, (-4, -3, -2, -1, 0, 1, 2, 3, 4), (-4, 4), '1', 'certified'),
    ('<(3,3,3) | 3,3*,3 | (3,3,3)>', 12, 'sqrt(13)', True, (-4, -3, -2, -1, 0, 1, 2, 3, 4), (-4, 4), '1', 'certified'),
    ('<(4,3,1) | 4,3,1,4,3,1* | (4,3,1)>', 1, 'sqrt(101)/2', True, (-8, -5, -2, 1), (-8, 3), '60399/80000', 'certified'),
    ('<(4,3,1) | 4,3,1,4,3,1* | (4,3,1)>', 2, 'sqrt(101)/2', True, (-8, -5, -2, 1), (-8, 3), '60399/80000', 'certified'),
    ('<(4,3,1) | 4,3,1,4,3,1* | (4,3,1)>', 12, 'sqrt(101)/2', True, (-8, -5, -2, 1), (-8, 3), '60399/80000', 'certified'),
    ('<(3) | 4,2,2,2,1,1* | (1)>', 1, '(51-sqrt(5))/118 + (5+sqrt(13))/2', True, (-5,), (-6, 1), '1303589/11800000', 'certified'),
    ('<(3) | 4,2,2,2,1,1* | (1)>', 2, '(51-sqrt(5))/118 + (5+sqrt(13))/2', True, (-5,), (-6, 1), '1303589/11800000', 'certified'),
    ('<(3) | 4,2,2,2,1,1* | (1)>', 12, '(51-sqrt(5))/118 + (5+sqrt(13))/2', True, (-5,), (-6, 1), '1303589/11800000', 'certified'),
    ('<(3) | 3,4,1* | (1)>', 1, '(-1+sqrt(5))/2 + (5+sqrt(13))/2', True, (-1,), (-3, 1), '1261/4000', 'certified'),
    ('<(3) | 3,4,1* | (1)>', 2, '(-1+sqrt(5))/2 + (5+sqrt(13))/2', True, (-1,), (-3, 1), '1261/4000', 'certified'),
    ('<(3) | 3,4,1* | (1)>', 12, '(-1+sqrt(5))/2 + (5+sqrt(13))/2', True, (-1,), (-3, 1), '1261/4000', 'certified'),
    ('<(1) | 1,4,3,4,3* | (3,1,1)>', 1, '(7+sqrt(5))/2 + (1069-sqrt(17))/3442', True, (-3,), (-5, 3), '381583039/688400000', 'certified'),
    ('<(1) | 1,4,3,4,3* | (3,1,1)>', 2, '(7+sqrt(5))/2 + (1069-sqrt(17))/3442', True, (-3,), (-5, 3), '381583039/688400000', 'certified'),
    ('<(1) | 1,4,3,4,3* | (3,1,1)>', 12, '(7+sqrt(5))/2 + (1069-sqrt(17))/3442', True, (-3,), (-5, 3), '381583039/688400000', 'certified'),
    ('<(1,1) | 4*,2,2,4,2 | (1,1,2)>', 1, '(7+sqrt(5))/2 + (396-sqrt(10))/962', True, (0,), (-2, 7), '12422191/7696000', 'certified'),
    ('<(1,1) | 4*,2,2,4,2 | (1,1,2)>', 2, '(7+sqrt(5))/2 + (396-sqrt(10))/962', True, (0,), (-2, 7), '12422191/7696000', 'certified'),
    ('<(1,1) | 4*,2,2,4,2 | (1,1,2)>', 12, '(7+sqrt(5))/2 + (396-sqrt(10))/962', True, (0,), (-2, 7), '12422191/7696000', 'certified'),
    ('<(3,4) | 3*,4,1,3,3 | (4,3)>', 1, '(27+2*sqrt(3))/6', False, (), (-2, 6), '0', 'inconclusive'),
    ('<(3,4) | 3*,4,1,3,3 | (4,3)>', 2, '(27+2*sqrt(3))/6', True, (1,), (-4, 8), '160103/480000', 'certified'),
    ('<(3,4) | 3*,4,1,3,3 | (4,3)>', 12, '(27+2*sqrt(3))/6', True, (1,), (-4, 8), '160103/480000', 'certified'),
    ('<(2,1,1) | 2* | (4,4,3)>', 1, '(10+sqrt(10))/3 + (-53+sqrt(3485))/26', False, (), (-3, 3), '0', 'inconclusive'),
    ('<(2,1,1) | 2* | (4,4,3)>', 2, '(10+sqrt(10))/3 + (-53+sqrt(3485))/26', True, (1,), (-6, 6), '736009/15600000', 'certified'),
    ('<(2,1,1) | 2* | (4,4,3)>', 12, '(10+sqrt(10))/3 + (-53+sqrt(3485))/26', True, (1,), (-6, 6), '736009/15600000', 'certified'),
    ('<(2,2,2) | 4* | (4)>', 1, '3+sqrt(2) + -2+sqrt(5)', False, (), (-3, 1), '0', 'inconclusive'),
    ('<(2,2,2) | 4* | (4)>', 2, '3+sqrt(2) + -2+sqrt(5)', False, (), (-6, 2), '0', 'inconclusive'),
    ('<(2,2,2) | 4* | (4)>', 12, '3+sqrt(2) + -2+sqrt(5)', True, (0,), (-12, 4), '21257/400000', 'certified'),
    ('<(4,2) | 3*,1,4,4,2 | (1)>', 1, '(11+sqrt(5))/58 + (12-sqrt(6))/2', False, (), (-2, 5), '0', 'inconclusive'),
    ('<(4,2) | 3*,1,4,4,2 | (1)>', 2, '(11+sqrt(5))/58 + (12-sqrt(6))/2', False, (), (-4, 6), '0', 'inconclusive'),
    ('<(4,2) | 3*,1,4,4,2 | (1)>', 12, '(11+sqrt(5))/58 + (12-sqrt(6))/2', True, (2,), (-6, 7), '1699007/23200000', 'certified'),
    ('<(3) | 1,3,4,2,3*,4 | (1,4,4)>', 1, '(275753+sqrt(13))/64278 + (-17+sqrt(629))/10', False, (), (-5, 4), '0', 'inconclusive'),
    ('<(3) | 1,3,4,2,3*,4 | (1,4,4)>', 2, '(275753+sqrt(13))/64278 + (-17+sqrt(629))/10', True, (1,), (-6, 7), '13067461549/257112000000', 'certified'),
    ('<(3) | 1,3,4,2,3*,4 | (1,4,4)>', 12, '(275753+sqrt(13))/64278 + (-17+sqrt(629))/10', True, (1,), (-6, 7), '13067461549/257112000000', 'certified'),
    ('<(4,3) | 4,2,4*,2,2 | (2)>', 1, '-1+sqrt(2) + (42+4*sqrt(3))/11', False, (), (-4, 3), '0', 'inconclusive'),
    ('<(4,3) | 4,2,4*,2,2 | (2)>', 2, '-1+sqrt(2) + (42+4*sqrt(3))/11', True, (0,), (-6, 4), '1563257/13200000', 'certified'),
    ('<(4,3) | 4,2,4*,2,2 | (2)>', 12, '-1+sqrt(2) + (42+4*sqrt(3))/11', True, (0,), (-6, 4), '1563257/13200000', 'certified'),
    ('<(2,1) | 1,2,3,3*,3,2,1 | (1,2)>', 1, '(62976-1498*sqrt(3))/16357', False, (), (-5, 5), '0', 'inconclusive'),
    ('<(2,1) | 1,2,3,3*,3,2,1 | (1,2)>', 2, '(62976-1498*sqrt(3))/16357', True, (-1, 1), (-7, 7), '1339562217/13085600000', 'certified'),
    ('<(2,1) | 1,2,3,3*,3,2,1 | (1,2)>', 12, '(62976-1498*sqrt(3))/16357', True, (-1, 1), (-7, 7), '1339562217/13085600000', 'certified'),
    ('<(4,4) | 3* | (4,1)>', 1, '4*sqrt(2)', False, (), (-2, 2), '68471/100000', 'certified'),
    ('<(4,4) | 3* | (4,1)>', 2, '4*sqrt(2)', False, (), (-2, 2), '68471/100000', 'certified'),
    ('<(4,4) | 3* | (4,1)>', 12, '4*sqrt(2)', False, (), (-2, 2), '68471/100000', 'certified'),
    ('<(4,3) | 3,2,1,2*,2,1 | (2)>', 1, '(8*sqrt(3))/3', False, (), (-5, 3), '6547/10000', 'certified'),
    ('<(4,3) | 3,2,1,2*,2,1 | (2)>', 2, '(8*sqrt(3))/3', False, (), (-5, 3), '6547/10000', 'certified'),
    ('<(4,3) | 3,2,1,2*,2,1 | (2)>', 12, '(8*sqrt(3))/3', False, (), (-5, 3), '6547/10000', 'certified'),
    ('<(3) | 3* | (4,3)>', 1, '(8*sqrt(3))/3', False, (), (-1, 2), '331/25000', 'certified'),
    ('<(3) | 3* | (4,3)>', 2, '(8*sqrt(3))/3', False, (), (-1, 2), '331/25000', 'certified'),
    ('<(3) | 3* | (4,3)>', 12, '(8*sqrt(3))/3', False, (), (-1, 2), '331/25000', 'certified'),
    ('<(3) | 3* | (1,3)>', 1, 'sqrt(21)', False, (), (-1, 2), '0', 'inconclusive'),
    ('<(3) | 3* | (1,3)>', 2, 'sqrt(21)', False, (), (-2, 4), '95403/200000', 'certified'),
    ('<(3) | 3* | (1,3)>', 12, 'sqrt(21)', False, (), (-2, 4), '95403/200000', 'certified'),
]


def _side_rotations(A):
    """The rotations sup_lambda passes on: the right period's, then the reversed left period's."""
    return [_rotations(P) for P in (A.right_period, A.left_period[::-1])]


def _classes(A):
    return _side_classes(A, _side_rotations(A), {})


def _purely_periodic(A):
    P = A.right_period
    return A.left_period == P and A.core == P * (len(A.core) // len(P))


def test_sup_certificates_pinned():
    periodic = 0
    for text, K, *fields in _PINNED_SUP:
        A = parse_biseq(text)
        c = sup_lambda(A, max_window_periods=K)
        got = [str(c.sup), c.attained, c.attaining_indices, c.window, str(c.margin), c.status]
        assert got == fields, (text, K)
        if _purely_periodic(A):
            periodic += 1
            # no class can exceed its limit, so the sup is attained in the window
            assert not any(may_exceed for _, may_exceed, _ in _classes(A)), text
            assert c.attained
    assert periodic == 15


def _reference_sup_lambda(A, max_window_periods=12):
    """sup_lambda as it was before the bracket-first window pass, built on the
    reference tail readers above: every window index evaluated exactly, the
    maximum re-taken over the whole span at each K, every envelope test an
    exact sum, and a margin computed for every class below the sup."""
    classes = [
        (lim, _exceeding(seq)[phase % 2], len(seq.right_period))
        for seq in (A, A.reversed())
        for phase, lim in enumerate(_ref_phase_limits(seq.right_period))
    ]
    max_lim = max(lim for lim, _, _ in classes)
    values = {}
    for K in range(1, max_window_periods + 1):
        window = (A.start - K * len(A.left_period), A.end + K * len(A.right_period))
        span = range(window[0], window[1] + 1)
        for i in span:
            if i not in values:
                tails = _ref_left_tail(A, i), _ref_right_tail(A, i)
                values[i] = QuadSum(*map(eval_periodic, tails))
        best = max(values[i] for i in span)
        target = best if best >= max_lim else max_lim
        margins = []
        for lim, may_exceed, plen in classes:
            if lim == target:
                if may_exceed:
                    break
                continue
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


def _fields(c):
    return [str(c.sup), c.attained, c.attaining_indices, c.window, str(c.margin), c.status]


@pytest.mark.parametrize("scale", [64, 2, 0])
def test_sup_matches_reference_sup(monkeypatch, scale):
    # the bracket scale changes only speed: coarse brackets overlap often,
    # so ties whose brackets differ and the exact fallbacks are exercised too
    for module in (bisequence, cfrac, quadfield):
        monkeypatch.setattr(module, "_SCALE", scale)
    rng = random.Random(15)
    word = lambda lo, hi: tuple(rng.randint(1, 4) for _ in range(rng.randint(lo, hi)))
    cases = [(build_a0(), K) for K in range(1, 13)]
    for _ in range(120):
        core = word(1, 10)
        A = BiSeq(word(1, 5), core, rng.randrange(len(core)), word(1, 5))
        cases += [(A, K) for K in (1, 2, rng.randint(3, 12))]
    # periods with repeated phases, so classes and indices tie exactly
    repeated = [(2, 2), (1, 2, 1, 2), (3,)]
    for lp, rp in list(zip(repeated, repeated)) + [((2, 2), (1, 2, 1, 2)), ((3,), (2, 2))]:
        for core in (lp, word(1, 6), rp * 3):
            A = BiSeq(lp, core, rng.randrange(len(core)), rp)
            cases += [(A, K) for K in (1, 2, rng.randint(3, 12))]
    # mirror images: lambda_{c-k} = lambda_{c+k} with the tails split differently,
    # so tied values carry different brackets
    for _ in range(30):
        half, rp = word(1, 6), word(1, 4)
        core = half + word(0, 1) + half[::-1]
        A = BiSeq(rp[::-1], core, rng.randrange(len(core)), rp)
        cases += [(A, K) for K in (1, rng.randint(2, 12))]
    # at coarse scales the sup's index is swept after an index with a higher lower end
    for text, K in [("<(3) | 4,3,1,1*,2,3,4,4 | (2)>", 3), ("<(3) | 4,1*,1,3,2,1,4 | (4)>", 11),
                    ("<(4) | 3,4,1,1*,2,1,4 | (4)>", 4)]:
        cases.append((parse_biseq(text), K))
    # long cores: the sweep carries frontier matrices of a few hundred symbols
    for n in (50, 120, 300):
        core = tuple(rng.randint(1, 4) for _ in range(n))
        A = BiSeq(word(1, 4), core, rng.randrange(n), word(1, 4))
        cases += [(A, K) for K in (1, rng.randint(2, 12))]
    statuses = set()
    for A, K in cases:
        got = sup_lambda(A, max_window_periods=K)
        assert _fields(got) == _fields(_reference_sup_lambda(A, K)), (str(A), K)
        statuses.add((got.status, got.attained, len(got.attaining_indices) > 1))
    # every path is taken: inconclusive, attained once and at several indices, unattained
    assert statuses >= {("inconclusive", False, False), ("certified", True, False),
                        ("certified", True, True), ("certified", False, False)}


def _work_cases():
    rng = random.Random(16)
    long_core = tuple(rng.randint(1, 3) for _ in range(200))
    return ([build_a0(), BiSeq((2, 1), long_core, 100, (1, 2)), BiSeq((2, 2), (2, 2), 0, (2, 2))]
            + [_random_biseq(rng) for _ in range(80)])


def test_sup_reduces_each_radicand_once(monkeypatch):
    # every rotation and reversal of a period shares its discriminant
    seen = []
    real = quadfield.squarefree_decompose
    for module in (cfrac, quadfield):
        monkeypatch.setattr(module, "squarefree_decompose", lambda n: seen.append(n) or real(n))
    for A in _work_cases():
        seen.clear()
        sup_lambda(A)
        assert len(seen) == len(set(seen)) <= 2, (str(A), seen)


def test_sup_brackets_each_value_once(monkeypatch):
    # every _box call comes from the value it brackets, which keeps the result
    owners = []
    real = quadfield._box

    def counting(terms):
        owners.append(sys._getframe(1).f_locals.get("self"))  # kept alive, so ids stay unique
        return real(terms)

    monkeypatch.setattr(quadfield, "_box", counting)
    for A in _work_cases():
        sup_lambda(A)
    assert owners and all(isinstance(v, quadfield._Quad) for v in owners)
    assert len(set(map(id, owners))) == len(owners)


def test_sup_prunes_margins(monkeypatch):
    calls = []
    real = bisequence._rational_lower_bound
    monkeypatch.setattr(bisequence, "_rational_lower_bound", lambda v: calls.append(v) or real(v))
    below = 0  # the classes that need a margin: limit below the sup
    for A in _work_cases():
        cert = sup_lambda(A)
        if cert.status == "certified":
            below += sum(lim < cert.sup for lim, _, _ in _classes(A))
    assert 0 < len(calls) < below


@pytest.mark.parametrize("scale", [64, 2, 0])
def test_outward_sweep_matches_tail_words(monkeypatch, scale):
    # each index's matrices are those of its tail words, and its integer
    # bracket holds lambda_i, at any scale
    monkeypatch.setattr(cfrac, "_SCALE", scale)
    rng = random.Random(17)
    for A in _work_cases()[:2] + [_random_biseq(rng) for _ in range(40)]:
        L, R = len(A.left_period), len(A.right_period)
        seen = []
        sweep = islice(bisequence._outward_tails(A, _side_rotations(A)), len(A.core) + 12 * (L + R))
        for i, lm, (lM, lbox), rm, (rM, rbox) in sweep:
            lt, rt = _ref_left_tail(A, i), _ref_right_tail(A, i)
            assert (lm, lM) == (mobius((lt.a0,) + lt.preperiod), mobius(lt.period)), (str(A), i)
            assert (rm, rM) == (mobius((0,) + rt.preperiod), mobius(rt.period)), (str(A), i)
            assert (lbox, rbox) == (_fixed_box(lM), _fixed_box(rM))
            (llo, lhi), (rlo, rhi) = _mobius_box(lm, lbox), _mobius_box(rm, rbox)
            value = lambda_at(A, i).value
            assert Fraction(llo + rlo, 2**scale) <= value <= Fraction(lhi + rhi, 2**scale), (str(A), i)
            seen.append(i)
        assert sorted(seen) == list(range(A.start - 12 * L, A.end + 12 * R + 1))
