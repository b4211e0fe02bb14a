import math
import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lagspec.certify as certify
from conftest import deadline
from lagspec.bisequence import BiSeq, lambda_at
from lagspec.certify import (
    CENTER_PATTERN,
    GAP_CERTIFICATION_ORDER,
    Constraints,
    NotSeparatedError,
    Pattern,
    PrefixTooShortError,
    audit_not_attained,
    certify_forbidden,
    gap_constraints,
    one_sided_lambda_bracket,
    pattern_necessity,
    site_lambda_bounds,
    violates,
    _reversed,
    _sides,
    _tails,
)
from lagspec.cfrac import EPCF, FiniteCF, cylinder, eval_finite, eval_periodic, mobius, mobius_pairs
from lagspec.constructions import alpha0_prefix, gap_left_endpoint
from lagspec.quadfield import QuadExt, QuadSum

LAM0 = gap_left_endpoint()
ONLY_13_31 = Constraints(3, frozenset({(1, 3), (3, 1)}))


def admissible_extensions(prefix, constraints: Constraints, depth: int):
    """Reference enumeration: depth-first, in lexicographic order, every
    length-`depth` extension of the prefix that avoids every forbidden
    factor; yields the full concatenated words."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    prefix = tuple(prefix)
    state = constraints._walk(prefix)
    if state is None:
        raise ValueError("prefix violates the constraints")
    table = constraints._table
    stop = len(prefix) + depth
    stack = [(prefix, state)]
    while stack:
        word, state = stack.pop()
        if len(word) == stop:
            yield word
            continue
        row = table[state]
        for a in range(len(row), 0, -1):  # the smallest symbol is popped first
            if row[a - 1] is not None:
                stack.append((word + (a,), row[a - 1]))


def test_admissible_extensions_examples():
    c = Constraints(3, frozenset({(3, 1), (1, 3)}))
    assert list(admissible_extensions((3,), c, 1)) == [(3, 2), (3, 3)]
    assert list(admissible_extensions((), Constraints(2), 2)) == [
        (1, 1),
        (1, 2),
        (2, 1),
        (2, 2),
    ]
    c2 = Constraints(3, frozenset({(2, 2, 3)}))
    assert list(admissible_extensions((2, 2), c2, 1)) == [(2, 2, 1), (2, 2, 2)]
    with pytest.raises(ValueError):
        list(admissible_extensions((3, 1), c, 1))


def test_violates():
    c = gap_constraints()
    assert violates((1, 3), c)
    assert violates((2, 1, 2, 3, 2, 1), c)  # contains (1,2,3,2,1)
    assert not violates((1, 2, 3, 3, 3, 2, 1), c)
    assert violates((4,), c)


def _naive_violates(word, constraints):
    """Reference for the automaton: the alphabet check and a substring scan
    of every forbidden factor."""
    w = tuple(word)
    for q in w:
        if not 1 <= q <= constraints.alphabet_max:
            return True
    for f in constraints.forbidden:
        n = len(f)
        for i in range(len(w) - n + 1):
            if w[i : i + n] == f:
                return True
    return False


@st.composite
def constraints_and_words(draw):
    """Alphabet 1..m (m <= 3), 0-4 forbidden words of length 1-4, and words
    of length 0-12, some with a symbol spliced in from outside the alphabet."""
    m = draw(st.integers(1, 3))
    sym = st.integers(1, m)
    forbidden = draw(st.frozensets(st.lists(sym, min_size=1, max_size=4).map(tuple), max_size=4))
    words = draw(st.lists(st.lists(sym, max_size=12).map(tuple), min_size=1, max_size=4))
    bad = draw(st.lists(st.tuples(st.integers(0, 12), st.sampled_from((0, m + 1))), max_size=2))
    words += [w[:i] + (b,) + w[i:] for w, (i, b) in zip(words, bad)]
    return Constraints(m, forbidden), words


@given(constraints_and_words())
@example((Constraints(2, frozenset({(1, 1), (2, 1, 1, 2)})), [(2, 1, 1, 2), (2, 1, 2)]))
@example((Constraints(3, frozenset({(1, 2, 1), (2, 1, 2), (1, 2, 3, 1)})), [(1, 2, 3), (3, 1, 2)]))
@settings(max_examples=300)
def test_automaton_matches_naive_scan(case):
    c, words = case
    symbols = range(1, c.alphabet_max + 1)
    for w in words:
        assert violates(w, c) == _naive_violates(w, c)
        for n in range(5):
            if _naive_violates(w, c):
                with pytest.raises(ValueError):
                    list(admissible_extensions(w, c, n))
                continue
            expected = [w + t for t in product(symbols, repeat=n) if not _naive_violates(w + t, c)]
            assert list(admissible_extensions(w, c, n)) == expected
    total = sum(not _naive_violates(t, c) for t in product(symbols, repeat=7))
    assert pattern_necessity(Fraction(37, 10), c, 7, 2).windows_total == total


@st.composite
def automaton_cases(draw):
    """Alphabet 1..m (2 <= m <= 4) and up to 6 forbidden words of 1-4
    symbols, drawn freely: a set may hold a word with another forbidden word
    inside it, and is seldom closed under reversal."""
    m = draw(st.integers(2, 4))
    words = st.lists(st.integers(1, m), min_size=1, max_size=4).map(tuple)
    return Constraints(m, draw(st.frozensets(words, max_size=6)))


@given(automaton_cases())
# (2,1) is a prefix of (2,1,2) with the forbidden (1,) inside it, so it is no state
@example(Constraints(2, frozenset({(1,), (2, 1, 2)})))
# (1,2) is forbidden and a prefix of (1,2,3); (2,3,1) reaches (1,) by its suffix link
@example(Constraints(3, frozenset({(1, 2), (1, 2, 3), (2, 3, 1, 1), (3, 1, 3)})))
@example(gap_constraints())
@settings(max_examples=60, deadline=None)
def test_compiled_automaton_matches_suffix_reference(c):
    # every word of up to 6 symbols, and of up to 4 with symbols outside the alphabet
    table, m, forbidden = c._table, c.alphabet_max, c.forbidden
    # each state's word, the unique shortest word whose walk ends there (every other
    # such word ends with it), by a breadth-first walk over the table
    words, found = [()], {0}
    for w in words:  # grows as the states are found
        for a, t in enumerate(table[c._walk(w)], 1):
            if t is not None and t not in found:
                found.add(t)
                words.append(w + (a,))
    words = sorted(words, key=c._walk)
    bad = lambda w: any(w[i:j] in forbidden for i in range(len(w)) for j in range(i + 1, len(w) + 1))
    prefixes = {()} | {f[:i] for f in forbidden for i in range(len(f))}
    assert words[0] == () and len(set(words)) == len(words) == len(table)
    assert set(words) == {p for p in prefixes if not bad(p)}
    assert [len(w) for w in words] == sorted(len(w) for w in words)  # numbered by length
    number = {w: s for s, w in enumerate(words)}
    tests = [w for n in range(7) for w in product(range(1, m + 1), repeat=n)]
    tests += [w for n in range(1, 5) for w in product(range(m + 2), repeat=n) if {0, m + 1} & set(w)]
    for w in tests:
        if bad(w) or not all(1 <= a <= m for a in w):
            assert c._walk(w) is None
        else:  # the longest suffix that is a state
            assert c._walk(w) == next(number[w[i:]] for i in range(len(w) + 1) if w[i:] in number)


def _brute_bounds(pattern, constraints, depth):
    """Independent oracle: full enumeration of admissible one-sided
    extensions, folding cylinder endpoints of each leaf."""
    w = pattern.word
    site = pattern.site
    rev = Constraints(
        constraints.alphabet_max,
        frozenset(tuple(reversed(f)) for f in constraints.forbidden),
    )
    right_lo = right_hi = None
    for full in admissible_extensions(w, constraints, depth):
        word = (w[site],) + full[site + 1 :]
        lo, hi = cylinder(word)
        right_lo = lo if right_lo is None or lo < right_lo else right_lo
        right_hi = hi if right_hi is None or hi > right_hi else right_hi
    rw = tuple(reversed(w))
    left_lo = left_hi = None
    for full in admissible_extensions(rw, rev, depth):
        word = (w[site],) + full[len(w) - site :]
        lo, hi = cylinder(word)
        left_lo = lo if left_lo is None or lo < left_lo else left_lo
        left_hi = hi if left_hi is None or hi > left_hi else left_hi
    # cylinder of [a_site; u...] = a_site + interval of [0; u...]
    return (
        right_lo + left_lo - w[site],
        right_hi + left_hi - w[site],
    )


@pytest.mark.parametrize(
    "word,site,forbidden",
    [
        ((3, 1), 0, frozenset()),
        ((3, 2, 2), 0, frozenset({(1, 3), (3, 1)})),
        ((1, 2, 3, 2, 1), 2, frozenset({(1, 3), (3, 1)})),
        ((2, 2), 1, frozenset({(2, 2, 3)})),
    ],
)
def test_site_bounds_match_brute_enumeration(word, site, forbidden):
    c = Constraints(3, forbidden)
    p = Pattern(word, site)
    for depth in (1, 2, 4, 6):
        cert = site_lambda_bounds(p, c, depth)
        lo, hi = _brute_bounds(p, c, depth)
        assert cert.lower == lo and cert.upper == hi


def test_bounds_at_depth_1200():
    # the tail levels are built bottom-up, so depth is not bounded by recursion
    deep = site_lambda_bounds(Pattern((3, 1), 0), Constraints(3), 1200)
    assert deep.lower >= site_lambda_bounds(Pattern((3, 1), 0), Constraints(3), 40).lower


def test_long_forbidden_word_bounds_fast():
    # one forbidden word of 20 symbols: 20 automaton states
    c = Constraints(3, frozenset({(1,) * 19 + (3,)}))
    with deadline(10, "a 20-symbol forbidden word at depth 30"):
        cert = site_lambda_bounds(Pattern((2, 2), 0), c, 30)
    free = site_lambda_bounds(Pattern((2, 2), 0), Constraints(3), 30)
    assert free.lower <= cert.lower <= cert.upper <= free.upper


def test_site_bounds_known_limits():
    b = site_lambda_bounds(Pattern((3, 1), 0), Constraints(3), 20)
    assert b.lower > Fraction(382, 100)
    assert QuadSum(QuadExt(39, 4, 15, 21)) > b.lower
    b = site_lambda_bounds(Pattern((3, 2, 2), 0), ONLY_13_31, 20)
    assert b.lower > Fraction(370, 100)
    b = site_lambda_bounds(Pattern((1, 2, 3, 2, 1), 2), ONLY_13_31, 20)
    assert b.lower > Fraction(373, 100)


def test_certify_not_separated():
    with pytest.raises(NotSeparatedError) as err:
        certify_forbidden(Pattern((2, 2), 0), LAM0, Constraints(3), 20)
    cert = err.value.certificate
    assert QuadSum(cert.lower) < LAM0
    # witness: the all-2 periodic word contains (2,2) with value below LAM0
    all2 = BiSeq((2,), (2, 2), 0, (2,))
    assert lambda_at(all2, 0).value < LAM0


def test_bound_monotonicity_in_depth():
    for word, site in [((1, 3), 1), ((3, 1), 0), ((2, 2, 3), 2), ((3, 2, 2), 0), ((3, 2, 3), 0), ((1, 2, 3, 2, 1), 2)]:
        prev = None
        for depth in (5, 10, 15, 20):
            cert = site_lambda_bounds(Pattern(word, site), Constraints(3), depth)
            if prev is not None:
                assert cert.lower >= prev.lower
                assert cert.upper <= prev.upper
            prev = cert


LIMIT_CASES = [
    # lower bounds of the excluded factors
    ((3, 1), 0, Constraints(3), QuadSum(QuadExt(39, 4, 15, 21)), "lower"),
    ((1, 3), 1, Constraints(3), QuadSum(QuadExt(39, 4, 15, 21)), "lower"),
    ((3, 2, 2), 0, ONLY_13_31, QuadSum(QuadExt(39, 10, 21, 15)), "lower"),
    ((2, 2, 3), 2, ONLY_13_31, QuadSum(QuadExt(39, 10, 21, 15)), "lower"),
    ((1, 2, 3, 2, 1), 2, ONLY_13_31, QuadSum(QuadExt(2, 1, 1, 3)), "lower"),
    # upper bounds of the center-pattern analysis
    ((2,), 0, ONLY_13_31, QuadSum(QuadExt(0, 2, 1, 3)), "upper"),
    ((3, 3, 3), 1, ONLY_13_31, QuadSum(QuadExt(33, -2, 7, 15)), "upper"),
    ((1, 2, 3, 3, 2, 1), 3, ONLY_13_31, QuadSum(QuadExt(44, -2, 11, 3)), "upper"),
    # the four-3s case needs the full forbidden list: with only (1,3)/(3,1)
    # excluded a (3,2,3)-type tail pushes the sup slightly higher
    ((3, 3, 3, 3, 2, 1), 3, gap_constraints(), QuadSum(QuadExt(681609, -16103, 177122, 3)), "upper"),
]


def test_bounds_converge_to_closed_forms():
    from lagspec.cfrac import distance_bounds

    tol = 2 * distance_bounds(25).eps
    for word, site, constraints, limit, kind in LIMIT_CASES:
        cert = site_lambda_bounds(Pattern(word, site), constraints, 30)
        if kind == "lower":
            gap = limit - cert.lower
        else:
            gap = QuadSum(cert.upper) - limit
        assert gap.sign() >= 0, (word, kind)
        assert (gap - tol).sign() < 0, (word, kind)


def _admissible_biseq(rng, pattern, constraints):
    """Random bi-infinite periodic completion of the pattern, admissible
    for the constraints, by rejection sampling."""
    m = constraints.alphabet_max
    while True:
        lp = tuple(rng.randint(1, m) for _ in range(rng.randint(1, 3)))
        rp = tuple(rng.randint(1, m) for _ in range(rng.randint(1, 3)))
        seq = BiSeq(lp, pattern.word, pattern.site, rp)
        span = len(pattern.word) + 4 * (len(lp) + len(rp)) + 12
        window = tuple(seq.at(i) for i in range(seq.start - span, seq.end + span))
        if not violates(window, constraints):
            return seq


def test_certificate_soundness_200_random():
    rng = random.Random(11223344)
    pool = [
        (Pattern((3, 1), 0), Constraints(3)),
        (Pattern((2, 2), 1), Constraints(3)),
        (Pattern((1, 2, 3), 1), Constraints(3, frozenset({(3, 1), (1, 3)}))),
        (Pattern((2, 1, 2), 1), Constraints(2)),
        (Pattern((1, 1), 0), Constraints(4, frozenset({(4, 4)}))),
    ]
    for _ in range(200):
        pattern, constraints = rng.choice(pool)
        cert = site_lambda_bounds(pattern, constraints, rng.randint(3, 12))
        seq = _admissible_biseq(rng, pattern, constraints)
        lam = lambda_at(seq, 0).value
        assert not lam < QuadSum(cert.lower)
        assert not lam > QuadSum(cert.upper)


def test_necessity_sweep_holds():
    # the words visited pin the traversal order as well as the work
    for window, counts, nodes in (
        (15, (77345, 77275, 70), 125),
        (21, (5841517, 5836965, 4552), 207),
        (25, (104373561, 104291901, 81660), 272),
        (27, (441187243, 440842465, 344778), 311),
        (31, (7882933073, 7876767435, 6165638), 436),
        (33, (33321173362, 33295112598, 26060764), 495),
    ):
        report = pattern_necessity(Fraction(3691, 1000), gap_constraints(), window, 25)
        assert report.holds and report.nodes == nodes
        assert report.exceptions == ()
        assert report.passed_by_bound + report.passed_by_pattern == report.windows_total
        assert (report.windows_total, report.passed_by_bound, report.passed_by_pattern) == counts


def _leaf_classification(threshold, constraints, window_len, depth):
    """Reference for the sweep: every window from admissible_extensions,
    classified on its own.  It passes by bound when its certified upper
    bound is below the threshold or it has no admissible completion, by
    pattern when some occurrence of the center pattern puts the center on
    its first or last 3; otherwise it is an exception."""
    center, n = window_len // 2, len(CENTER_PATTERN)
    by_bound = by_pattern = 0
    exceptions = []
    for word in admissible_extensions((), constraints, window_len):
        try:
            below = site_lambda_bounds(Pattern(word, center), constraints, depth).upper < threshold
        except ValueError:
            below = True
        if below:
            by_bound += 1
        elif any(
            word[o : o + n] == CENTER_PATTERN and center in (o + 2, o + n - 3)
            for o in range(window_len - n + 1)
        ):
            by_pattern += 1
        else:
            exceptions.append(word)
    return by_bound, by_pattern, tuple(exceptions)


@st.composite
def sweep_cases(draw):
    """Alphabet 1..m (m <= 3), windows of 7-9 symbols, depths 0-6, and
    forbidden words of up to the window's length, so a forbidden word can
    reach across the center from either side.  At most 3**8 windows, so a
    case takes under two seconds: the reference bounds each window on its
    own."""
    m = draw(st.integers(1, 3))
    window = draw(st.integers(7, 9 if m < 3 else 8))
    words = st.lists(st.integers(1, m), min_size=1, max_size=window).map(tuple)
    forbidden = draw(st.frozensets(words, max_size=4))
    threshold = draw(st.fractions(2, 5, max_denominator=1000))
    return threshold, Constraints(m, forbidden), window, draw(st.integers(0, 6))


@given(sweep_cases())
@example((Fraction(3691, 1000), gap_constraints(), 9, 4))  # both pattern offsets
# a pattern subtree with a dead leaf: 1032 windows pass by bound, 2 by pattern
@example((Fraction(2), Constraints(3, frozenset({(1, 1, 1), (1, 1, 2), (1, 1, 3)})), 8, 3))
# a forbidden word longer than center + 1: (3,2,1,1,1,3,2) passes by bound only
# because its left tail may not start with 3 (it would complete 3,3,2,1,1), which
# the whole window's state tells and its left symbols' state does not
@example((Fraction(309, 125), Constraints(3, frozenset({(3, 3, 2, 1, 1), (3, 3, 3)})), 7, 3))
# only 2-symbol words forbidden: windows are counted from the center symbol on, so
# the counts at center unknown symbols on the left and window - center - 1 on the
# right are read, at windows of both parities
@example((Fraction(3691, 1000), ONLY_13_31, 7, 3))
@example((Fraction(3691, 1000), ONLY_13_31, 8, 3))
@settings(max_examples=30, deadline=None)
def test_necessity_counts_match_leaf_classification(case):
    threshold, constraints, window, depth = case
    report = pattern_necessity(threshold, constraints, window, depth)
    by_bound, by_pattern, exceptions = _leaf_classification(threshold, constraints, window, depth)
    assert report.passed_by_bound == by_bound
    assert report.passed_by_pattern == by_pattern
    assert report.exceptions == exceptions


def test_necessity_budget_is_inconclusive():
    threshold, gap = Fraction(3691, 1000), gap_constraints()
    cut = pattern_necessity(threshold, gap, 25, 25, max_nodes=100)
    assert pattern_necessity(threshold, gap, 25, 25).nodes > 100
    assert cut.inconclusive and not cut.holds and cut.nodes == 100
    assert cut.passed_by_bound + cut.passed_by_pattern + len(cut.exceptions) < cut.windows_total
    assert cut.windows_total == 104373561
    # the partial counts depend on which 100 words come first
    assert (cut.passed_by_bound, cut.passed_by_pattern, cut.exceptions) == (3481538, 40120, ())
    # a budget of exactly the words the sweep visits changes nothing
    full = pattern_necessity(threshold, gap, 15, 25)
    assert not full.inconclusive and full.holds
    assert pattern_necessity(threshold, gap, 15, 25, max_nodes=full.nodes) == full
    assert pattern_necessity(threshold, gap, 15, 25, max_nodes=full.nodes - 1).inconclusive
    empty = pattern_necessity(threshold, gap, 15, 25, max_nodes=0)
    assert empty.inconclusive and (empty.passed_by_bound, empty.passed_by_pattern) == (0, 0)
    with pytest.raises(ValueError, match="max_nodes"):
        pattern_necessity(threshold, gap, 15, 25, max_nodes=-1)


def test_wide_window_sweep_stays_small():
    # each node fixes the most significant unknown symbol of its side, so the
    # words visited stop growing with the window
    with deadline(10, "the window-61 sweep"):
        report = pattern_necessity(Fraction(3691, 1000), gap_constraints(), 61, 25)
    assert report.holds
    assert report.passed_by_bound + report.passed_by_pattern == report.windows_total
    assert report.nodes < 1000


def _peak_kib(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


def test_deep_budgeted_sweep_keeps_only_the_levels_it_reads():
    # a 10-node sweep at depth 1000 keeps the 5 right tail levels it reads,
    # not the 1005 below them
    sweep = lambda: pattern_necessity(Fraction(3691, 1000), gap_constraints(), 9, 1000, max_nodes=10)
    assert _peak_kib(sweep) < 1024


def test_deep_site_bounds_keep_one_level():
    assert _peak_kib(lambda: site_lambda_bounds(Pattern((3, 1), 0), Constraints(3), 1200)) < 256


def test_counts_keep_only_the_levels_the_sweep_reads():
    # the levels 0, ..., keep and the last one, stepped to without keeping the rest
    table = gap_constraints()._table
    tail = _tails(gap_constraints(), 5)[2][0]
    full = certify._counts(table, tail, 25, 25)
    assert len(full) == 26 and full[-1][0][0] == 104373561  # the w25 windows
    assert certify._counts(table, tail, 25, 12) == full[:13] + full[-1:]
    assert certify._counts(table, tail, 12, 12) == full[:13]


def _reference_tail_levels(constraints, depth, reach):
    """The tail levels depth, ..., depth + reach, folded level by level: each
    state's interval is the hull of the images of all its live children."""
    value = lambda end: Fraction(*end) if end[1] else math.inf
    table = constraints._table
    level, out = [(1, 1, 1, 0)] * len(table), []
    for n in range(depth + reach + 1):
        if n >= depth:
            out.append(level)
        images = [
            [mobius_pairs(mobius((a,)), level[t]) for a, t in enumerate(row, 1)
             if t is not None and level[t]]
            for row in table
        ]
        level = [
            min((iv[:2] for iv in ivs), key=value) + max((iv[2:] for iv in ivs), key=value)
            if ivs else None
            for ivs in images
        ]
    return out


@st.composite
def tail_cases(draw):
    """Alphabet 1..m (2 <= m <= 4), up to 8 forbidden words of 1-5 symbols,
    so states die and sets are seldom closed under reversal; depths up to
    300, far past the level where the live states stop shrinking."""
    m = draw(st.integers(2, 4))
    words = st.lists(st.integers(1, m), min_size=1, max_size=5).map(tuple)
    forbidden = draw(st.frozensets(words, max_size=8))
    return Constraints(m, forbidden), draw(st.integers(0, 300)), draw(st.integers(0, 6))


@given(tail_cases())
# (1,2,1) dies at level 1 and (1,2) at level 2, so the largest live child of
# (1,) changes at level 3; the reverse set has a state dying at level 1
@example((Constraints(2, frozenset({(1, 2, 1, 1), (1, 2, 1, 2), (1, 2, 2)})), 9, 2))
# (1,1,1,1), (1,1,1) and (1,1) die at levels 1, 2 and 3, so the smallest live
# child of (1,) changes at level 4
@example((Constraints(3, frozenset({(1, 1, 1, 1, 1), (1, 1, 1, 1, 2), (1, 1, 1, 1, 3),
                                    (1, 1, 1, 2), (1, 1, 1, 3), (1, 1, 2), (1, 1, 3)})), 40, 6))
@example((gap_constraints(), 300, 3))
# states still die inside the reach levels, so a level read from the graph
# before they stop dying would step to a dead state
@example((gap_constraints(), 0, 6))
@settings(max_examples=150)
def test_tails_match_level_by_level_fold(case):
    constraints, depth, reach = case
    rev, left, right = _tails(constraints, depth, reach)
    assert rev == _reversed(constraints)
    assert right == _reference_tail_levels(constraints, depth, reach)
    assert left == _reference_tail_levels(rev, depth, reach)


def test_necessity_middle_three_passes_by_bound():
    cert = site_lambda_bounds(Pattern((3, 3, 3), 1), ONLY_13_31, 25)
    assert QuadSum(cert.upper) < Fraction(3691, 1000)


def test_necessity_threshold_sensitivity():
    report = pattern_necessity(Fraction(383, 100), Constraints(3), 7, 15)
    assert not report.holds
    assert any(
        any(w[i : i + 2] == (3, 1) for i in range(len(w) - 1)) for w in report.exceptions
    )


def test_necessity_rejects_short_window():
    with pytest.raises(ValueError):
        pattern_necessity(Fraction(3691, 1000), gap_constraints(), 5, 10)


def test_negative_depth_rejected():
    with pytest.raises(ValueError, match="depth"):
        site_lambda_bounds(Pattern((3, 1), 0), Constraints(3), -3)
    with pytest.raises(ValueError, match="depth"):
        pattern_necessity(Fraction(3691, 1000), gap_constraints(), 15, -3)
    with pytest.raises(ValueError, match="depth"):
        list(admissible_extensions((), Constraints(2), -1))


def test_depth_above_the_cap_raises_before_any_level(monkeypatch):
    cap = certify._MAX_DEPTH
    assert cap == 10**5
    site = lambda d: site_lambda_bounds(Pattern((3, 1), 0), Constraints(3), d)
    sweep = lambda d: pattern_necessity(Fraction(3691, 1000), gap_constraints(), 9, d)
    with monkeypatch.context() as m:
        m.setattr(certify, "_tail_levels", lambda *args: pytest.fail("built a tail level"))
        for call in (site, sweep):
            for depth in (cap + 1, 10**7, 10**8):
                with pytest.raises(ValueError, match=f"^depth {depth} exceeds the cap of {cap}$"):
                    call(depth)
    with deadline(10, "site bounds at the depth cap"):
        cert = site(cap)  # the cap itself is accepted
    assert cert.depth == cap and QuadSum(cert.lower) > LAM0


def test_caps_on_the_alphabet_and_the_window():
    assert (certify._MAX_ALPHABET, certify._MAX_WINDOW) == (10, 20001)
    assert Constraints(10).alphabet_max == 10
    for m in (11, 10**8):
        with pytest.raises(ValueError, match=f"^alphabet_max {m} exceeds the cap of 10$"):
            Constraints(m)
    # the forbidden words are checked before the cap
    with pytest.raises(ValueError, match=r"^forbidden pattern \(12,\) leaves the alphabet$"):
        Constraints(11, {(12,)})


def test_every_check_runs_before_any_tail_level(monkeypatch):
    threshold, gap = Fraction(3691, 1000), gap_constraints()
    site = lambda word, depth: site_lambda_bounds(Pattern(word, 0), Constraints(3, {(3, 1)}), depth)
    sweep = lambda w, d, nodes=None: pattern_necessity(threshold, gap, w, d, max_nodes=nodes)
    cases = [
        (lambda: sweep(20002, 5), "^window_len 20002 exceeds the cap of 20001$"),
        (lambda: sweep(20003, 5), "^window_len 20003 exceeds the cap of 20001$"),
        (lambda: site((3, 1), 10**5), "^pattern word violates the constraints$"),
        (lambda: sweep(20001, 5, -1), "^max_nodes must be nonnegative$"),
        (lambda: sweep(20001, 5), "^max_nodes must be a number: every sweep has a budget$"),
        # several faults: the checks run in this order, the caps last
        (lambda: site((3, 1), -1), "^depth must be nonnegative$"),
        (lambda: site((3, 1), 10**5 + 1), "^depth 100001 exceeds the cap of 100000$"),
        (lambda: sweep(5, 10**8, -1), "^window_len must be at least 7$"),
        (lambda: sweep(20003, 10**8, -1), "^depth 100000000 exceeds the cap of 100000$"),
        (lambda: sweep(20003, 5, -1), "^max_nodes must be nonnegative$"),
    ]
    with monkeypatch.context() as m:
        m.setattr(certify, "_tail_levels", lambda *args: pytest.fail("built a tail level"))
        for call, message in cases:
            with pytest.raises(ValueError, match=message):
                call()


def test_sweep_has_a_default_node_budget():
    assert pattern_necessity.__defaults__[-1] == certify._MAX_NODES == 10**5
    # the gap-list sweeps stay far below it; None, no limit, is refused
    threshold, gap = Fraction(3691, 1000), gap_constraints()
    full = pattern_necessity(threshold, gap, 15, 25)
    assert full.holds and full.nodes < 1000
    with pytest.raises(ValueError, match="^max_nodes must be a number: every sweep has a budget$"):
        pattern_necessity(threshold, gap, 15, 25, max_nodes=None)


def test_admissible_extensions_at_depth_1200():
    # the enumeration walks an explicit stack, so depth is not bounded by recursion
    assert list(admissible_extensions((), Constraints(1), 1200)) == [(1,) * 1200]


def test_audit_reference_word():
    rep = audit_not_attained(alpha0_prefix(8), LAM0, start=12)
    assert rep.clean
    assert rep.stop == len(alpha0_prefix(8).tail) - 19


def test_audit_low_word():
    rep = audit_not_attained(FiniteCF(0, (1, 2) * 40), LAM0, start=3)
    assert rep.clean


def _reference_bracket(w, n):
    """The one-sided bracket from its definition: the exact backward word
    and the cylinder of the rest, (0, 1) when nothing is left."""
    back = eval_finite((0,) + tuple(reversed(w[: n - 1])))
    rest = w[n:]
    lo, hi = cylinder((0,) + rest) if rest else (Fraction(0), Fraction(1))
    return w[n - 1] + back + lo, w[n - 1] + back + hi


def test_audit_flags_adversarial_word():
    word = (2, 1) * 5 + (3, 1) + (1, 3) * 10 + (1, 2) * 10
    rep = audit_not_attained(FiniteCF(0, word), LAM0, start=1)
    assert not rep.clean
    assert 11 in rep.flagged  # the 3 of the planted (3,1)
    expected = [
        n for n in range(1, rep.stop + 1) if not LAM0 > _reference_bracket(word, n)[1]
    ]
    assert list(rep.flagged) == expected


def test_audit_prefix_too_short():
    with pytest.raises(PrefixTooShortError):
        audit_not_attained(FiniteCF(0, (1, 2) * 5), LAM0, start=1)
    # a negative guard would audit positions past the end of the word
    with pytest.raises(PrefixTooShortError, match="guard"):
        audit_not_attained(FiniteCF(0, (1, 2) * 20), LAM0, start=1, guard=-5)


@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=30))
@settings(max_examples=300)
def test_one_sided_bracket_matches_definition(word):
    w = tuple(word)
    for n in range(1, len(w) + 1):
        assert one_sided_lambda_bracket(w, n) == _reference_bracket(w, n)


def test_one_sided_bracket_edges():
    word = (1, 2, 3)
    lo, hi = one_sided_lambda_bracket(word, 3)  # backward word is (2, 1)
    assert lo == 3 + Fraction(1, 3) and hi == 3 + Fraction(1, 3) + 1
    with pytest.raises(ValueError):
        one_sided_lambda_bracket(word, 4)


@pytest.mark.parametrize(
    "reference, flagged",
    [
        (LAM0, (58, 68)),
        (Fraction(3691, 1000), (18, 20, 35, 37, 56, 58, 68)),
        (4, ()),
        (QuadExt(3, 1, 1, 2), ()),
    ],
)
def test_audit_accepts_rational_and_quadratic_references(reference, flagged):
    # an int or Fraction has no bracket method; it is its own lower bound
    rep = audit_not_attained(alpha0_prefix(4), reference, start=12, guard=0)
    assert (rep.stop, rep.flagged) == (68, flagged)


def _two_sided_periodic_limit(rot):
    """The value at a rot[0] of the bi-infinite word ...rot rot rot..."""
    forward = eval_periodic(EPCF(rot[0], (), rot[1:] + rot[:1]))
    backward = eval_periodic(EPCF(0, (), tuple(reversed(rot))))
    return QuadSum(forward) + QuadSum(backward)


@pytest.mark.parametrize(
    "period, reps", [((1, 2), 150), ((2, 1), 150), ((1, 1, 2), 100), ((2, 2, 1, 3), 60)]
)
def test_audit_periodic_word_against_its_own_limit(period, reps):
    # every position comes close to one of these limits, so windows must
    # grow deep and flagged positions come from the exact fallback
    word = period * reps
    for phase in range(len(period)):
        ref = _two_sided_periodic_limit(period[phase:] + period[:phase])
        rep = audit_not_attained(FiniteCF(0, word), ref, start=1, guard=0)
        expected = [
            n for n in range(1, len(word) + 1) if not ref > _reference_bracket(word, n)[1]
        ]
        assert expected and list(rep.flagged) == expected


class _Loose(Fraction):
    """A rational reference whose brackets are width 2 at every precision."""

    def bracket(self, k):
        return self - 1, self + 1


@given(st.lists(st.integers(1, 3), min_size=1, max_size=200), st.data())
@settings(max_examples=60)
def test_audit_flags_a_position_at_its_exact_bracket(word, data):
    # a reference equal to the exact upper end is never cleared by a window,
    # and a window may clear a position only below the reference's lower end
    w = tuple(word)
    n = data.draw(st.integers(1, len(w)))
    ref = _reference_bracket(w, n)[1]
    expected = [m for m in range(1, len(w) + 1) if not ref > _reference_bracket(w, m)[1]]
    for reference in (ref, _Loose(ref)):
        rep = audit_not_attained(FiniteCF(0, w), reference, start=1, guard=0)
        assert n in rep.flagged and list(rep.flagged) == expected


def test_audit_recurring_windows_match_exact_brackets():
    # pins the k = 16 level: a repeated block with one defect, so positions a
    # period apart share their 33-symbol window, yet their exact brackets
    # differ; each reference lies between two such brackets, so the shared
    # window clears neither position and one of them, in either order along
    # the word, is flagged
    rng = random.Random(14)
    pairs = set()
    for _ in range(30):
        block = [rng.randint(1, 3) for _ in range(rng.randint(2, 9))]
        w = block * (140 // len(block))
        w[rng.randrange(len(w))] = rng.randint(1, 3)
        w = tuple(w)
        uppers = {n: one_sided_lambda_bracket(w, n)[1] for n in range(1, len(w) + 1)}
        shared = [
            (n, n + len(block))
            for n in range(18, len(w) - 16 - len(block))
            if w[n - 17 : n + 16] == w[n - 17 + len(block) : n + 16 + len(block)]
            and uppers[n] != uppers[n + len(block)]
        ]
        for n, m in rng.sample(shared, min(3, len(shared))):
            reference = (uppers[n] + uppers[m]) / 2
            rep = audit_not_attained(FiniteCF(0, w), reference, start=1, guard=0)
            expected = tuple(p for p in range(1, len(w) + 1) if not reference > uppers[p])
            assert rep.flagged == expected and (n in expected) != (m in expected)
            pairs.add(m in expected)
    assert pairs == {False, True}  # the later position flagged, and the earlier one


def test_audit_failing_windows_match_exact_brackets():
    # positions that share their first, 5-symbol window yet differ in their
    # exact brackets: with the reference between the two, the window fails at
    # the first of them and sends the second straight to k = 4, and either
    # one, earlier or later along the word, is flagged
    rng = random.Random(18)
    orders = set()
    for _ in range(20):
        w = tuple(rng.randint(1, 3) for _ in range(rng.randint(20, 120)))
        uppers = {n: _reference_bracket(w, n)[1] for n in range(1, len(w) + 1)}
        by_window = {}
        for n in range(4, len(w) - 1):  # the test at k = 2 reads w[n-3 : n+2] whole
            by_window.setdefault(w[n - 3 : n + 2], []).append(n)
        pairs = [
            (n, m)
            for ns in by_window.values()
            for n, m in zip(ns, ns[1:])
            if uppers[n] != uppers[m]
        ]
        for n, m in rng.sample(pairs, min(3, len(pairs))):
            reference = (uppers[n] + uppers[m]) / 2
            rep = audit_not_attained(FiniteCF(0, w), reference, start=1, guard=0)
            expected = tuple(p for p in range(1, len(w) + 1) if not reference > uppers[p])
            assert rep.flagged == expected and (n in expected) != (m in expected)
            orders.add(m in expected)
    assert orders == {False, True}  # the later position flagged, and the earlier one


@pytest.mark.parametrize("seed", range(4))
def test_audit_first_window_changes_no_report(monkeypatch, seed):
    # the first window changes only which brackets are built, never a report
    rng = random.Random(seed)
    cases = [(alpha0_prefix(rng.randint(2, 6)).tail, LAM0, 12, 0)]
    for _ in range(5):
        w = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 150)))
        n = rng.randint(1, len(w))
        for reference in (_reference_bracket(w, n)[1], Fraction(rng.randint(3000, 4500), 1000)):
            guard = rng.randint(0, len(w) - 1)
            cases.append((w, reference, rng.randint(1, len(w) - guard), guard))
    reports = []
    for k in (1, 2, 3, 16):
        monkeypatch.setattr(certify, "_WINDOW", k)
        reports.append([audit_not_attained(FiniteCF(0, w), *rest) for w, *rest in cases])
    assert all(r == reports[0] for r in reports)
    assert any(rep.flagged for rep in reports[0])


@pytest.mark.parametrize("m, most", [(32, 120), (100, 300)])
def test_audit_brackets_few_windows(monkeypatch, m, most):
    # each distinct window the test reads whole is bracketed once, failing
    # or not; a 33-symbol first window needed 502 and 1,121 brackets
    calls = []
    site = certify._site
    monkeypatch.setattr(certify, "_site", lambda *args: calls.append(args[1:]) or site(*args))
    rep = audit_not_attained(alpha0_prefix(m), LAM0, 12, 2 * m + 3)
    assert rep.clean and len(calls) <= most


@pytest.mark.parametrize("m, most", [(32, 3800), (100, 34000)])
def test_audit_reads_each_symbol_once(monkeypatch, m, most):
    # a doubled window continues its half window's matrices over the new
    # symbols only; rebuilding every window from scratch passed 6,856 and
    # 61,668 symbols to mobius
    steps = []
    count = lambda word, *rest: steps.append(len(word)) or mobius(word, *rest)
    monkeypatch.setattr(certify, "mobius", count)
    rep = audit_not_attained(alpha0_prefix(m), LAM0, 12, 2 * m + 3)
    assert rep.clean and sum(steps) <= most


@pytest.mark.parametrize("m, symbols", [(8, 386), (32, 3378)])
def test_audit_continues_windows_cut_by_the_right_end(monkeypatch, m, symbols):
    # a doubled window whose left side is read whole continues its half window's
    # matrices where the word ends inside it too; building such a window from
    # _sides passed 420 and 3,508 symbols to mobius
    steps = []
    count = lambda word, *rest: steps.append(len(word)) or mobius(word, *rest)
    monkeypatch.setattr(certify, "mobius", count)
    rep = audit_not_attained(alpha0_prefix(m), LAM0, 12, 2 * m + 3)
    assert rep.clean and sum(steps) == symbols


def test_audit_keeps_side_matrices_of_failed_windows_only(monkeypatch):
    # only a window whose test failed is ever continued, so one that cleared
    # is kept without its matrices
    site, seen = certify._site, []

    def spy(*args):
        seen.append(sys._getframe(2).f_locals["clears"])  # upper's caller, the audit
        return site(*args)

    monkeypatch.setattr(certify, "_site", spy)
    rep = audit_not_attained(alpha0_prefix(32), LAM0, 12, 67)
    outcomes = seen[-1].values()
    assert rep.clean and {ok for ok, _ in outcomes} == {False, True}
    assert all((sides is None) == ok for ok, sides in outcomes)


def test_audit_side_matrices_equal_their_windows_from_scratch(monkeypatch):
    # every bracket's side matrices, continued from a half window or built
    # by _sides, are those of its window from scratch, integer for integer;
    # the audit's upper(n, k, sides) is the caller of _site
    rng = random.Random(24)
    site, levels = certify._site, set()

    def checked(c, sides, right, left):
        f = sys._getframe(1).f_locals
        n, k, w = f["n"], f["k"], f["w"]
        whole = k < n - 1 and n + k <= len(w)
        assert sides == _sides(w[max(n - 1 - k, 0) : n + k], min(k, n - 1))
        levels.add((k, whole))
        return site(c, sides, right, left)

    monkeypatch.setattr(certify, "_site", checked)
    for _ in range(40):
        w = tuple(rng.randint(1, 3) for _ in range(rng.randint(20, 160)))
        reference = _reference_bracket(w, rng.randint(1, len(w)))[1]
        audit_not_attained(FiniteCF(0, w), reference, 1, 0)
    assert {(2, True), (4, True), (8, True), (16, True), (32, False)} <= levels


@pytest.mark.parametrize("k", [1, 2, 3])
def test_audit_edge_positions_match_exact_brackets(monkeypatch, k):
    # short words audited from every start with guard 0, so that windows
    # read whole and windows cut by either end of the word interleave
    monkeypatch.setattr(certify, "_WINDOW", k)
    rng = random.Random(k)
    for _ in range(12):
        w = tuple(rng.randint(1, 3) for _ in range(rng.randint(5, 40)))
        uppers = {n: _reference_bracket(w, n)[1] for n in range(1, len(w) + 1)}
        for reference in (uppers[rng.randint(1, len(w))], Fraction(rng.randint(3400, 4200), 1000)):
            for start in range(1, len(w) + 1):
                rep = audit_not_attained(FiniteCF(0, w), reference, start, 0)
                expected = tuple(n for n in range(start, len(w) + 1) if not reference > uppers[n])
                assert rep.flagged == expected


BLOCK_WORD_AUDITS = {  # blocks -> (stop, flagged) at guard 0
    8: (200, (182, 200)),
    16: (656, (622, 656)),
    32: (2336, (2270, 2336)),
    48: (5040, (4942, 5040)),
}


@pytest.mark.parametrize("m", sorted(BLOCK_WORD_AUDITS))
def test_audit_block_word_pinned(m):
    word = alpha0_prefix(m)
    guarded = audit_not_attained(word, LAM0, 12, 2 * m + 3)
    assert (guarded.stop, guarded.flagged) == (len(word.tail) - 2 * m - 3, ())
    bare = audit_not_attained(word, LAM0, 12, 0)
    assert (bare.stop, bare.flagged) == BLOCK_WORD_AUDITS[m]


def test_audit_100_blocks_fast():
    # linear in the word length: 20,900 symbols in well under a second
    word = alpha0_prefix(100)
    with deadline(10, "the 100-block audit"):
        rep = audit_not_attained(word, LAM0, 12, 203)
    assert rep.clean and rep.stop == len(word.tail) - 203


def test_reversal_closed_constraints_are_their_own_reverse():
    for _, forbidden in GAP_CERTIFICATION_ORDER:
        c = Constraints(3, forbidden)
        assert _reversed(c) is c
    c = gap_constraints()
    assert _reversed(c) is c
    c = Constraints(3, {(1, 2)})
    assert _reversed(c) is not c and _reversed(c) == Constraints(3, {(2, 1)})
