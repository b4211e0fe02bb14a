import random

import pytest

import lagspec.constructions as constructions
from conftest import deadline
from lagspec.bisequence import lambda_at, periodic_phase_limits, sup_lambda
from lagspec.cfrac import EPCF, FiniteCF, distance_bounds, eval_periodic
from lagspec.certify import CENTER_PATTERN, one_sided_lambda_bracket
from lagspec.constructions import (
    BadRError,
    NoRepeatError,
    PeriodicWithinWordError,
    alpha0_core_indices,
    alpha0_prefix,
    attainable_from_periodic,
    block_word,
    build_a0,
    c_block,
    dirichlet_repeat,
    gap_left_endpoint,
    surgery,
)
from lagspec.quadfield import QuadExt, QuadSum


def test_reference_sequence():
    # a0 is the one literal of the gap instance: the endpoint and the center
    # pattern are read off it, once per process
    A = build_a0()
    assert str(A) == "<(2,1) | 1,2,3,3*,3,2,1 | (1,2)>" and build_a0() is A
    assert (A.at(0), A.at(1), A.at(2)) == (3, 3, 2)
    assert A.at(-5) == 2
    lam0 = gap_left_endpoint()
    assert lam0 == QuadExt(62976, -1498, 16357, 3) and str(lam0) == "(62976-1498*sqrt(3))/16357"
    assert lambda_at(A, 1).value == lam0 == lambda_at(A, -1).value == sup_lambda(A).sup
    assert gap_left_endpoint() is lam0
    assert CENTER_PATTERN == A.core == (1, 2, 3, 3, 3, 2, 1)


def test_c_block_shape():
    assert c_block(1) == (2, 1, 1, 2, 3, 3, 3, 2, 1, 1, 2)
    A = build_a0()
    for n in range(1, 51):
        w = c_block(n)
        assert len(w) == 4 * n + 7
        assert w == tuple(reversed(w))
        if n <= 5:  # a0 read from n left periods before its core to n right periods after it
            assert w == tuple(map(A.at, range(A.start - 2 * n, A.end + 2 * n + 1)))
    # the block-word audit's range, read off the layout: from the second block's first
    # position, 12, to the last block's centre, 2m + 3 symbols before the end of 2m^2 + 9m
    assert len(c_block(1)) + 1 == 12
    for m in range(1, 1001):
        assert 2 * m * m + 9 * m - alpha0_core_indices(m)[-1][1] == 2 * m + 3, m


def test_alpha0_prefix():
    p1 = alpha0_prefix(1)
    assert p1.word == (0, 2, 1, 1, 2, 3, 3, 3, 2, 1, 1, 2)
    p2 = alpha0_prefix(2)
    assert p2.tail == p1.tail + (2, 1, 2, 1, 1, 2, 3, 3, 3, 2, 1, 1, 2, 1, 2)
    assert len(alpha0_prefix(8).tail) == sum(4 * n + 7 for n in range(1, 9))


def test_alpha0_prefix_matches_block_concatenation():
    word = ()
    for m in range(1, 41):
        word += c_block(m)
        assert alpha0_prefix(m) == FiniteCF(0, word)


def test_alpha0_prefix_is_linear_in_its_length():
    # 1000 blocks are 2,009,000 symbols; concatenating block by block copies
    # the word once per block and takes seconds
    with deadline(5, "alpha0_prefix(1000)"):
        assert len(alpha0_prefix(1000).tail) == 2 * 1000**2 + 9 * 1000


def test_alpha0_prefix_above_the_cap_raises_at_once(monkeypatch):
    # 2m^2 + 9m symbols: 10,000 blocks would need about 16 GB
    def fail(n):
        raise AssertionError("built a block above the cap")

    monkeypatch.setattr(constructions, "c_block", fail)
    cap = constructions._MAX_BLOCKS
    assert cap >= 1000
    with pytest.raises(ValueError, match=f"{cap + 1} blocks exceed the cap of {cap}"):
        alpha0_prefix(cap + 1)


def test_alpha0_core_indices():
    word = alpha0_prefix(3).tail
    for first, mid, last in alpha0_core_indices(3):
        assert word[first - 1] == word[mid - 1] == word[last - 1] == 3
        assert word[first - 2] == 2 and word[last] == 2


def test_alpha0_lambda_climbs():
    """The one-sided value at the last 3 of each block increases strictly
    toward the gap endpoint."""
    word = alpha0_prefix(8).tail
    lam0 = gap_left_endpoint()
    prev_hi = None
    for _, _, last in alpha0_core_indices(8):
        lo, hi = one_sided_lambda_bracket(word, last)
        assert lam0 > lo
        if prev_hi is not None:
            assert prev_hi < lo
        prev_hi = hi


def test_dirichlet_examples():
    assert dirichlet_repeat((1, 2, 1, 2, 1), 0) == (1, 3)
    assert dirichlet_repeat((1, 1, 1, 1, 1, 1), 1) == (1, 3)
    with pytest.raises(NoRepeatError):
        dirichlet_repeat((1, 2, 3, 4), 1)
    with pytest.raises(ValueError):
        dirichlet_repeat((1, 5, 1), 0)


def test_dirichlet_exists_at_guarantee_length():
    rng = random.Random(13579)
    width = 3  # 2n+1 with n = 1
    for _ in range(100):
        w = tuple(rng.randint(1, 4) for _ in range(195))
        n1, n2 = dirichlet_repeat(w, 1)
        assert (n2 - n1) % 2 == 0
        assert w[n1 - 1 : n1 - 1 + width] == w[n2 - 1 : n2 - 1 + width]


def test_surgery_example():
    s = surgery((2, 1, 2, 1, 3), 1, 3)
    assert s.c1 == (2, 1, 3)
    assert s.c2 == (2, 1, 2, 1, 2, 1, 3)
    assert s.witness_index == 2
    assert s.chosen in ("first", "second")


def test_surgery_validation():
    with pytest.raises(ValueError):
        surgery((1, 2, 1), 1, 2)  # parity
    with pytest.raises(ValueError):
        surgery((1, 2, 3), 1, 3)  # unequal endpoints
    with pytest.raises(PeriodicWithinWordError):
        surgery((1, 2, 1, 2, 1, 2), 1, 3)


def _random_surgery_case(rng):
    while True:
        w = tuple(rng.randint(1, 4) for _ in range(rng.randint(10, 24)))
        starts = [
            (i, j)
            for i in range(1, len(w))
            for j in range(i + 2, len(w) + 1, 2)
            if w[i - 1] == w[j - 1]
        ]
        rng.shuffle(starts)
        for n1, n2 in starts:
            try:
                return w, surgery(w, n1, n2), n1, n2
            except PeriodicWithinWordError:
                continue


def test_surgery_chosen_exceeds_200_random():
    """The chosen variant strictly exceeds the original under a common
    periodic continuation, by more than delta_{N+r}; the other variant
    falls strictly below."""
    rng = random.Random(97531)
    tail = (1, 2, 3)
    for _ in range(200):
        w, s, n1, n2 = _random_surgery_case(rng)
        orig = QuadSum(eval_periodic(EPCF(0, w, tail)))
        v1 = QuadSum(eval_periodic(EPCF(0, s.c1, tail)))
        v2 = QuadSum(eval_periodic(EPCF(0, s.c2, tail)))
        chosen, other = (v1, v2) if s.chosen == "first" else (v2, v1)
        assert chosen > orig and other < orig
        excess = chosen - orig
        delta = distance_bounds(len(w) + s.witness_index).delta
        assert (excess - delta).sign() > 0


def test_attainable_from_periodic_22():
    gamma, report = attainable_from_periodic((2, 2), (2, 1), check_m=5)
    assert gamma == EPCF(0, (2, 1), (2, 2))
    assert report.mu == QuadExt(0, 2, 1, 2)
    assert report.checked_m == (1, 2, 3, 4, 5)
    for lam in report.lambda_values:
        assert lam > report.mu


def test_attainable_from_periodic_ones():
    gamma, report = attainable_from_periodic((1,), (1,), check_m=3)
    assert gamma == EPCF(0, (1,), (1,))
    assert report.mu == QuadExt(0, 1, 1, 5)
    for lam in report.lambda_values:
        assert lam > report.mu


def test_attainable_bad_prefix_word():
    with pytest.raises(BadRError):
        attainable_from_periodic((2, 1), (2, 1), check_m=2)
    with pytest.raises(BadRError):
        attainable_from_periodic((1,), (2,), check_m=2)


def test_attainable_checks_quotients_before_evaluating():
    # a bad P is rejected before periodic_phase_limits evaluates it
    with pytest.raises(ValueError, match="partial quotients must be positive integers, got -1"):
        attainable_from_periodic((2, -1), (2, 1), check_m=2)
    for P in ((1,), (2, 2)):  # a bad R is a bad quotient, never BadRError
        with pytest.raises(ValueError, match="partial quotients must be positive integers, got 0"):
            attainable_from_periodic(P, (0, 3), check_m=2)


def test_attainable_needs_a_check():
    for m in (0, -1):
        with pytest.raises(ValueError, match="check_m"):
            attainable_from_periodic((2, 2), (2, 1), check_m=m)


def test_block_word():
    assert block_word([(2, 2), (2, 1)], [1, 1]) == (2, 2, 2, 2, 2, 2, 2, 1, 2, 1, 2, 1)
    assert block_word([(1,)], [2]) == (1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        block_word([(1,)], [1, 2])


def test_block_word_lambda_near_periodic_value():
    """Inside a block the one-sided value approximates the block period's
    phase value to within the distance bound at the edge distance."""
    periods = [(2, 2), (2, 1)]
    reps = [4, 5]
    word = block_word(periods, reps)
    pos = 0
    for per, rep in zip(periods, reps):
        size = len(per) * (2 * rep + 1)
        limits = periodic_phase_limits(per)
        for phase in range(len(per)):
            site = pos + size // 2 + phase + 1  # 1-based, mid block
            edge = min(site - 1 - pos, pos + size - site)
            lo, hi = one_sided_lambda_bracket(word, site)
            lam_phase = limits[(site - 1 - pos) % len(per)]
            eps = 2 * distance_bounds(edge).eps
            assert lam_phase - eps < lo and hi < lam_phase + eps
        pos += size
