"""Machine-checkable certificates over words with forbidden factors.

Every forbidden-factor test runs on one factor automaton compiled from
the constraints.  Bounds on the two-sided value at a site inside a
pattern are computed from exact cylinder intervals over the admissible
continuations to a fixed depth, at most _MAX_DEPTH.  Each state's
interval is read from two children only, the smallest live symbol's for
the lower end and the largest one's for the upper end; levels are
stepped one at a time until the set of live states repeats, and from
there pointer doubling over those fixed choices reaches the depth in
O(log depth) matrix products; the levels past the depth step on that
fixed graph, rebuilt only while the live states still shrink.
Every interval is the image of a tail interval under a Moebius matrix,
on unreduced integer (num, den) pairs.  One kernel, _site, adds a site
symbol to the images of its two tails, an end that stops exactly being
the point _END; the site bounds, the one-sided bracket and the audit
read it.  The window sweep grows each window from the center outward and
bounds both sides at every node, within _MAX_NODES words by default; it
counts a segment without enumeration once its bound is below the
threshold, or once it carries the center pattern with its lower bound at
or above it.  Everything is exact rational arithmetic, with Fractions
only in reported bounds; deepening a search never loosens a bound.  The
non-attainability audit clears each position of a known word from a
doubling window around it, five symbols first and exact once past the
word; each distinct window is bracketed once, and its outcome, clear or
not, serves every later position with that window.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from itertools import chain, islice

from .cfrac import _END, _FREE, FiniteCF, mobius, mobius_pairs
from .quadfield import QuadSum, _Record

__all__ = [
    "AuditReport",
    "BoundCertificate",
    "Constraints",
    "GAP_CERTIFICATION_ORDER",
    "GAP_FORBIDDEN",
    "NecessityReport",
    "NotSeparatedError",
    "Pattern",
    "PrefixTooShortError",
    "audit_not_attained",
    "certify_forbidden",
    "gap_constraints",
    "one_sided_lambda_bracket",
    "pattern_necessity",
    "site_lambda_bounds",
    "violates",
]

CENTER_PATTERN: tuple[int, ...] = (1, 2, 3, 3, 3, 2, 1)
_WINDOW = 2  # the audit's first window; it changes only speed, never a verdict
_MAX_DEPTH = 10**5  # tail ends grow ~0.7 digits per level; 10**5 takes ~0.3 s, 10**6 ~25 s
_MAX_NODES = 10**5  # the sweep's default budget: ~2 s and ~70 MB; the gap list needs 511


def _sum(a: int, x, y) -> tuple[int, int]:
    """a + x + y for (num, den) pairs, as one unreduced pair."""
    return a * x[1] * y[1] + x[0] * y[1] + y[0] * x[1], x[1] * y[1]


def _site(w, i: int, right, left) -> tuple[int, int, int, int]:
    """The interval (ln, ld, hn, hd) of w[i] + [0; w[i+1], ..., t] + [0; w[i-1],
    ..., w[0], u] for t in the tail interval right and u in left (_END: exact)."""
    rt = mobius_pairs(mobius((0,) + w[i + 1 :]), right)
    lt = mobius_pairs(mobius((0,) + w[:i][::-1]), left)
    return _sum(w[i], rt[:2], lt[:2]) + _sum(w[i], rt[2:], lt[2:])


class NotSeparatedError(Exception):
    """Bounds straddle the threshold at this depth (deepen the search) or lie below it."""

    def __init__(self, certificate: "BoundCertificate", threshold):
        self.certificate = certificate
        self.relation = "lie below" if threshold > certificate.upper else "straddle"
        lo, hi = QuadSum(certificate.lower), QuadSum(certificate.upper)  # past 4300 digits too
        super().__init__(f"bounds [{lo}, {hi}] {self.relation} the threshold")


class PrefixTooShortError(ValueError):
    """The known word does not cover the requested audit range."""


class Constraints(_Record):
    """Alphabet bound plus a set of forbidden factors."""

    alphabet_max: int
    forbidden: frozenset[tuple[int, ...]] = frozenset()

    def __post_init__(self):
        object.__setattr__(
            self, "forbidden", frozenset(tuple(f) for f in self.forbidden)
        )
        if self.alphabet_max < 1:
            raise ValueError("alphabet_max must be positive")
        for f in self.forbidden:
            if not f:
                raise ValueError("forbidden patterns must be nonempty")
            for q in f:
                if not 1 <= q <= self.alphabet_max:
                    raise ValueError(f"forbidden pattern {f} leaves the alphabet")

    @cached_property
    def _table(self) -> dict:
        """Factor automaton.  The states are () and the proper prefixes of
        the forbidden words; table[s][a-1] is the longest suffix of s+(a,)
        that is a state, or None when some suffix of s+(a,) is forbidden.
        The state of an admissible word, its longest suffix that is a
        state, holds all of its past that a forbidden factor can reach."""
        forbidden = self.forbidden
        states = {f[:i] for f in forbidden for i in range(len(f))} | {()}

        def step(t):
            # suffixes shortest first, so the last state seen is the longest
            for i in range(len(t), -1, -1):
                u = t[i:]
                if u in forbidden:
                    return None
                if u in states:
                    state = u
            return state

        return {
            s: tuple(step(s + (a,)) for a in range(1, self.alphabet_max + 1))
            for s in states
        }

    def _walk(self, word):
        """Automaton state after reading the word from (); None when the
        word leaves the alphabet or hits a forbidden factor."""
        state = ()
        for a in word:
            if state is None or not 1 <= a <= self.alphabet_max:
                return None
            state = self._table[state][a - 1]
        return state


def _reversed(constraints: Constraints) -> Constraints:
    """The constraints on words read right to left; the same object when
    the forbidden set is closed under reversal, so its tables are shared."""
    fs = frozenset(f[::-1] for f in constraints.forbidden)
    return constraints if fs == constraints.forbidden else Constraints(constraints.alphabet_max, fs)


def gap_constraints() -> Constraints:
    """Alphabet 1..3 with the full forbidden-factor list."""
    return Constraints(3, frozenset(GAP_FORBIDDEN))


class Pattern(_Record):
    """A word with a distinguished site where the value is evaluated."""

    word: tuple[int, ...]
    site: int

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(self.word))
        if not self.word:
            raise ValueError("pattern word must be nonempty")
        if not 0 <= self.site < len(self.word):
            raise ValueError("site outside pattern word")


# factors forcing the two-sided value at the site above the gap endpoint, in
# certification order; step (word, site, k) has the first k words forbidden
_GAP_STEPS = (
    ((3, 1), 0, 0),
    ((1, 3), 1, 0),
    ((3, 2, 2), 0, 2),
    ((2, 2, 3), 2, 2),
    ((3, 2, 3), 0, 4),
    ((1, 2, 3, 2, 1), 2, 5),
)
GAP_FORBIDDEN: tuple[tuple[int, ...], ...] = tuple(w for w, _, _ in _GAP_STEPS)
GAP_CERTIFICATION_ORDER: tuple[tuple[Pattern, frozenset], ...] = tuple(
    (Pattern(w, site), frozenset(GAP_FORBIDDEN[:k])) for w, site, k in _GAP_STEPS
)


class BoundCertificate(_Record):
    """Certified rational bounds on the value at a pattern site."""

    pattern: Pattern
    constraints: Constraints
    depth: int
    lower: Fraction
    upper: Fraction

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("lower bound exceeds upper bound")


def violates(word, constraints: Constraints) -> bool:
    """True when the word leaves the alphabet or contains a forbidden factor."""
    return constraints._walk(word) is None


def _counts(table, tail, n: int) -> list:
    """counts[r][s], r = 0, ..., n: the admissible r-symbol words read from
    automaton state s, and those among them whose last state t has an
    admissible tail (tail[t] not None), as one pair."""
    kids = [(s, [t for t in row if t is not None]) for s, row in table.items()]
    out = [{s: (1, int(tail[s] is not None)) for s in table}]
    for _ in range(n):
        level, nxt = out[-1], {}
        for s, ts in kids:
            words = live = 0
            for t in ts:
                tw, tl = level[t]
                words += tw
                live += tl
            nxt[s] = words, live
        out.append(nxt)
    return out


def _mul(m, n):
    """The 2x2 matrix product m n, both as (p1, p0, q1, q0)."""
    p1, p0, q1, q0 = m
    r1, r0, s1, s0 = n
    return p1 * r1 + p0 * s1, p1 * r0 + p0 * s0, q1 * r1 + q0 * s1, q1 * r0 + q0 * s0


def _tail_levels(table, depth: int, reach: int) -> list:
    """The tail levels depth, ..., depth + reach over one automaton (see
    _tails).  A level is kept as its ends: (s, 0) and (s, 2) map a live
    state s to the (num, den) pairs of its interval's lower and upper end.
    Every tail lies in [1, inf], so [a; x] lies in [a, a + 1]: the lower end
    is a + 1/(upper end of the child after a), a the smallest symbol with a
    live child, and the upper end is b + 1/(lower end of the child after b),
    b the largest.  The live states shrink level by level until they
    repeat, within len(table) levels; from there those extreme children are
    fixed, so the ends form a functional graph whose edges are one-symbol
    matrices, and pointer doubling pushes them the remaining levels in
    O(log depth) matrix products per end.  Each reach level is one push
    along the graph from before the doubling, rebuilt only while the live
    states still shrink, as they may past a small depth."""

    def edges(ends):
        # each end of a state with a live child: (its symbol's matrix, the child end it reads)
        g = {}
        for s, row in table.items():
            kids = [(a, t) for a, t in enumerate(row, 1) if (t, 0) in ends]
            if kids:
                (a, t), (b, u) = kids[0], kids[-1]
                g[s, 0], g[s, 2] = ((a, 1, 1, 0), (t, 2)), ((b, 1, 1, 0), (u, 0))
        return g

    def push(g, ends):
        return {v: (p * x + q * y, r * x + s * y)
                for v, ((p, q, r, s), w) in g.items() for x, y in (ends[w],)}

    ends = {(s, e): _FREE[e : e + 2] for s in table for e in (0, 2)}  # level 0
    g, n = edges(ends), 0
    while n < depth and len(g) < len(ends):  # the live states still shrink
        ends, n = push(g, ends), n + 1
        g = edges(ends)
    k, d = depth - n, g  # g is fixed from here on: apply it k times, by doubling d
    while k:
        if k & 1:
            ends = push(d, ends)
        k >>= 1
        if k:
            d = {v: (_mul(m, d[w][0]), d[w][1]) for v, (m, w) in d.items()}
    out = []
    for r in range(reach + 1):
        if r:  # from the graph before the doubling, rebuilt only while the live states shrink
            shrinks, ends = len(g) < len(ends), push(g, ends)
            g = edges(ends) if shrinks else g
        out.append({s: ends[s, 0] + ends[s, 2] if (s, 0) in ends else None for s in table})
    return out


def _tails(constraints: Constraints, depth: int, reach: int = 0):
    """(rev, left, right): the reversed constraints and the lists of left
    and right tail levels at depth, ..., depth + reach.  A tail
    level maps state s to the closed interval (ln, ld, hn, hd), hd 0 being
    +inf, containing every [x1; ..., xn, t] with the x's admissible from s
    and t free in [1, inf), or None when no such x's exist.  Level 0 is the
    free interval itself, so the leaf endpoints are exactly cylinder
    endpoints; the matrices have determinant -1 or 1, so each end stays in
    lowest terms.  Raises ValueError on a depth below 0 or above _MAX_DEPTH."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if depth > _MAX_DEPTH:
        raise ValueError(f"depth {depth} exceeds the cap of {_MAX_DEPTH}")
    rev = _reversed(constraints)
    right = _tail_levels(constraints._table, depth, reach)
    return rev, right if rev is constraints else _tail_levels(rev._table, depth, reach), right


def site_lambda_bounds(
    pattern: Pattern, constraints: Constraints, depth: int
) -> BoundCertificate:
    """Certified bounds on the two-sided value at the pattern site over
    all bi-infinite admissible sequences containing the word there."""
    w = pattern.word
    rev, left, right = _tails(constraints, depth)
    if violates(w, constraints):
        raise ValueError("pattern word violates the constraints")
    right, left = right[0][constraints._walk(w)], left[0][rev._walk(reversed(w))]
    if right is None or left is None:
        raise ValueError("pattern admits no admissible completion")
    ln, ld, hn, hd = _site(w, pattern.site, right, left)
    return BoundCertificate(pattern, constraints, depth, Fraction(ln, ld), Fraction(hn, hd))


def certify_forbidden(
    pattern: Pattern, threshold, constraints: Constraints, depth: int
) -> BoundCertificate:
    """Certificate that every sequence with limsup at most `threshold`
    contains the pattern only finitely often: the certified lower bound
    at the site must strictly exceed the threshold.  Raises
    NotSeparatedError when it does not at this depth."""
    cert = site_lambda_bounds(pattern, constraints, depth)
    if QuadSum(cert.lower) > threshold:
        return cert
    raise NotSeparatedError(cert, threshold)


class NecessityReport(_Record):
    """Window sweep outcome: every admissible window either has its center
    value certified below the threshold or carries the center pattern with
    the center on an outer 3; `exceptions` lists windows doing neither.
    An inconclusive sweep ran out of nodes, and its counts are partial."""

    threshold: Fraction
    constraints: Constraints
    window_len: int
    depth: int
    windows_total: int
    passed_by_bound: int
    passed_by_pattern: int
    exceptions: tuple[tuple[int, ...], ...]
    nodes: int  # the words visited
    inconclusive: bool = False

    @property
    def holds(self) -> bool:
        return not self.exceptions and not self.inconclusive


def pattern_necessity(
    threshold,
    constraints: Constraints,
    window_len: int = 15,
    depth: int = 25,
    max_nodes: int | None = _MAX_NODES,
) -> NecessityReport:
    """Sweep every admissible window of the given length.

    Unknown context beyond the window is bounded by worst-case admissible
    tails, so a window passes case (a) only if its center value is below
    the threshold for every completion.  Windows grow from the center out,
    one symbol right, then one left, so each step fixes the most
    significant unknown symbol of its side.  Segments whose bound is below
    the threshold are counted without enumeration, and so are segments
    that carry the center pattern with a lower bound at least the
    threshold: their live windows (admissible tails on both sides) pass by
    pattern, their dead ones by bound.  The search visits at most
    max_nodes words (default _MAX_NODES, None: no limit) and is
    inconclusive when it needs more; a depth above _MAX_DEPTH raises.
    """
    if window_len < 7:
        raise ValueError("window_len must be at least 7")
    center, n = window_len // 2, len(CENTER_PATTERN)
    # left[r], right[r]: the tail levels at depth + r, r the symbols that side has to choose
    rev, left, right = _tails(constraints, depth, center)
    if max_nodes is not None and max_nodes < 0:
        raise ValueError("max_nodes must be nonnegative")
    threshold = Fraction(threshold)
    tn, td = threshold.numerator, threshold.denominator
    ftable, rtable = constraints._table, rev._table
    right_counts = _counts(ftable, right[0], window_len)
    left_counts = right_counts if rev is constraints else _counts(rtable, left[0], center)
    h = max(map(len, constraints.forbidden), default=1) - 1  # the longest state's length
    # the window's positions from the center outward, right before left
    order = sorted(range(window_len), key=lambda p: (abs(p - center), p < center))
    by_bound = by_pattern = nodes = 0
    exceptions = []
    # a node: the segment, its length left of the center, its forward and reverse
    # states (a step on one side keeps the other's once the segment has h symbols),
    # the matrices of [0; its left part read outward ...] and [0; its right part ...],
    # and their images of that side's tail level (None: no admissible tail), so a
    # step on one side reuses the other side's image
    image = lambda m, tail: tail and mobius_pairs(m, tail)
    m0 = mobius((0,))
    stack = [((), 0, (), (), m0, m0, image(m0, left[center][()]), None)]  # rv: read from k = 1
    while stack and (max_nodes is None or nodes < max_nodes):
        nodes += 1
        seg, i, fs, rs, ml, mr, lv, rv = stack.pop()
        k = len(seg)
        lo, rest = center - i, window_len - center - k + i  # unknown symbols per side
        if k:
            c, below = seg[i], lv is None or rv is None
            if not below:  # the upper ends' sum c + lv + rv, as _sum, below the threshold
                (ln, ld, hn, hd), (rln, rld, rhn, rhd) = lv, rv
                below = (c * hd * rhd + hn * rhd + rhn * hd) * td < tn * hd * rhd
            # from h symbols on, no forbidden word spans both sides' extensions
            if k >= h or k == window_len:
                if below:
                    by_bound += left_counts[lo][rs][0] * right_counts[rest][fs][0]
                    continue
                if (i >= 2 and seg[i - 2 : i - 2 + n] == CENTER_PATTERN  # the center on its first
                        or i >= n - 3 and seg[i - n + 3 : i + 3] == CENTER_PATTERN):  # or last 3
                    num = c * ld * rld + ln * rld + rln * ld  # the lower ends' sum, over ld * rld
                    if k == window_len or num * td >= tn * ld * rld:
                        (lw, ll), (rw, rl) = left_counts[lo][rs], right_counts[rest][fs]
                        by_pattern += ll * rl
                        by_bound += lw * rw - ll * rl
                        continue
            if k == window_len:
                exceptions.append(seg)
                continue
        if order[k] >= center:  # the center itself, then the right side
            p1, p0, q1, q0 = mr
            for a, f in enumerate(ftable[fs], 1):
                if f is not None:
                    s = seg + (a,)
                    r = rs if k >= h else rev._walk(s[::-1])
                    m = (a * p1 + p0, p1, a * q1 + q0, q1) if k else mr  # mobius((a,), mr)
                    l_img = lv if k >= h else image(ml, left[lo][r])
                    stack.append((s, i, f, r, ml, m, l_img, image(m, right[rest - 1][f])))
        else:
            p1, p0, q1, q0 = ml
            for a, r in enumerate(rtable[rs], 1):
                if r is not None:
                    s = (a,) + seg
                    f = fs if k >= h else constraints._walk(s)
                    m = a * p1 + p0, p1, a * q1 + q0, q1  # mobius((a,), ml)
                    r_img = rv if k >= h else image(mr, right[rest][f])
                    stack.append((s, i + 1, f, r, m, mr, image(m, left[lo - 1][r]), r_img))
    return NecessityReport(
        threshold=threshold,
        constraints=constraints,
        window_len=window_len,
        depth=depth,
        windows_total=right_counts[window_len][()][0],
        passed_by_bound=by_bound,
        passed_by_pattern=by_pattern,
        exceptions=tuple(sorted(exceptions)),
        nodes=nodes,
        inconclusive=bool(stack),
    )


def one_sided_lambda_bracket(word, n: int) -> tuple[Fraction, Fraction]:
    """Exact bracket of the one-sided value at position n (1-based) of
    [0; b1, ..., bL, unknown...]: the backward word evaluates exactly, and
    the forward part is bracketed by the cylinder of the known rest."""
    w = tuple(word)
    if not 1 <= n <= len(w):
        raise ValueError("position outside the word")
    ln, ld, hn, hd = _site(w, n - 1, _FREE, _END)
    return Fraction(ln, ld), Fraction(hn, hd)


class AuditReport(_Record):
    """Truncated non-attainability audit of a known prefix.

    For each audited position the exact upper bracket of the one-sided
    value must stay strictly below the reference value; `flagged` lists
    the positions where it does not.  This is a desk-scale verification
    on a finite prefix, not a proof about the full infinite word.
    """

    start: int
    stop: int
    guard: int
    flagged: tuple[int, ...]

    @property
    def clean(self) -> bool:
        return not self.flagged


def audit_not_attained(
    alpha_prefix: FiniteCF, reference: QuadSum, start: int, guard: int = 19
) -> AuditReport:
    """Check reference > lambda_n exactly for n in [start, len - guard].

    The guard keeps enough of the word ahead of every audited position
    that the forward bracket is narrower than the separation from the
    reference; a site whose value approaches the reference needs the
    known word to reach one symbol past the point where it leaves the
    reference's periodic tail.  For the block word with m blocks that
    means guard >= 2m + 3 (19 covers the default 8 blocks).  A position
    is cleared once a rational lower bound of the reference exceeds its
    _site bracket from k symbols on each side, k = 2, 4, 8, ..., compared
    by cross-multiplication; the exact test runs only when the window
    covers the word, with the exact end _END, so `flagged` is its own.
    When the test at k reads its window w[n-1-k : n+k] whole (k < n-1 and
    n+k <= len), its outcome depends on that window alone and is kept for
    this call: a later position with the window clears without a bracket,
    or goes straight to 2k.  The block word has 17 distinct 5-symbol
    windows at 32 or 100 blocks, so one lookup clears almost every position.
    """
    w = alpha_prefix.tail
    stop = len(w) - guard
    if guard < 0:
        raise PrefixTooShortError(f"guard must be nonnegative, got {guard}")
    if start < 1 or start > stop:
        raise PrefixTooShortError(
            f"audit range [{start}, {stop}] is empty for a word of length {len(w)}"
        )
    bracket = getattr(reference, "bracket", lambda _: (reference,))  # int, Fraction
    # at most the reference, 10**-2k close, and the bracket's upper end only
    lower = cache(lambda k: bracket(2 * k)[0].as_integer_ratio())
    # the site of w[n-1-k : n+k], the left tail free until it reaches w[0]; dropping
    # known symbols only widens a cylinder, so this holds the exact bracket, and is
    # it once k >= max(n-1, len(w)-n)
    upper = lambda n, k: _site(
        w[max(n - 1 - k, 0) : n + k], min(k, n - 1), _FREE, _FREE if k < n - 1 else _END
    )[2:]
    size, flagged, clears = len(w), [], {}  # window -> whether the test that read it cleared
    # no word holds a 0, so a padded window is never stored; the one window
    # that reaches w[0] unpadded may find a clear, which its exact back side keeps
    pad = (0,) * (_WINDOW + 1)
    # the first window of each n, w[n-1-k : n+k] at k = _WINDOW, zero-padded, none of them sliced
    firsts = zip(*(islice(chain(pad, w, pad), start + i, None) for i in range(2 * _WINDOW + 1)))
    for n, window in zip(range(start, stop + 1), firsts):
        if clears.get(window):  # one lookup clears almost every position
            continue
        k, exact = _WINDOW, max(n - 1, size - n)
        # reference >= lower(k) > windowed hi >= exact hi clears n
        while k < exact:
            cleared = clears.get(window)
            if cleared is None:
                (ln, ld), (hn, hd) = lower(k), upper(n, k)
                cleared = ln * hd > hn * ld
                if k < n - 1 and n + k <= size:  # the test read the window whole
                    clears[window] = cleared
            if cleared:
                break
            k *= 2
            window = w[n - 1 - k : n + k] if k < n - 1 and n + k <= size else None
        if k >= exact and not reference > Fraction(*upper(n, exact)):
            flagged.append(n)
    return AuditReport(start=start, stop=stop, guard=guard, flagged=tuple(flagged))
