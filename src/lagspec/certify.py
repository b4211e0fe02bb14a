"""Machine-checkable certificates over words with forbidden factors.

Every forbidden-factor test runs on one factor automaton, compiled once
per Constraints (at most _MAX_ALPHABET symbols) along suffix links into
numbered states, so its table, tail levels and window counts are lists
indexed by state.  Bounds on the two-sided value at a site inside a
pattern are computed from exact cylinder intervals over the admissible
continuations to a fixed depth, at most _MAX_DEPTH.  Each state's
interval is read from two children only, the smallest live symbol's for
the lower end and the largest one's for the upper end; levels are
stepped one at a time until the set of live states repeats, and from
there pointer doubling over those fixed choices reaches the depth in
O(log depth) matrix products (cfrac._mul); the levels past the depth
step on those choices, found again only while the live states still
shrink.  Every interval is the image of a tail interval under a Moebius
matrix, on unreduced integer (num, den) pairs.  One kernel, _site, adds
a site symbol to the images of its two tails, an end that stops exactly
being the point _END; the site bounds, the one-sided bracket and the
audit read it.  The window sweep grows each window, of at most
_MAX_WINDOW symbols, from the center outward and bounds both sides at
every node, within _MAX_NODES words by default; it counts a segment
without enumeration once its bound is below the threshold, or once it
carries the center pattern with its lower bound at or above it.
Everything is exact rational arithmetic, with Fractions only in reported
bounds; deepening a search never loosens a bound.  The non-attainability
audit clears each position of a known word from a doubling window around
it, five symbols first and exact once past the word; each distinct
window is bracketed once, and its outcome, clear or not, serves every
later position with that window.  A doubled window continues its half
window's side matrices, reading only the symbols it adds, and a position
whose first window has cleared costs no Python step.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from itertools import chain, compress, islice
from operator import not_

from .cfrac import _END, _FREE, FiniteCF, _mul, mobius, mobius_pairs
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
_MAX_ALPHABET = 10  # L's gaps lie below Freiman's 4.53 and Lambda_n >= a_{n+1}: 4 suffices
_MAX_WINDOW = 20001  # the widest sweep with a measured cost: ~1.6 s and 249 MB at depth 5


def _sum(a: int, x, y) -> tuple[int, int]:
    """a + x + y for (num, den) pairs, as one unreduced pair."""
    return a * x[1] * y[1] + x[0] * y[1] + y[0] * x[1], x[1] * y[1]


def _sides(w, i: int):
    """The matrices of the two sides of site i, read outward from it."""
    return mobius((0,) + w[i + 1 :]), mobius((0,) + w[:i][::-1])


def _site(c: int, sides, right, left) -> tuple[int, int, int, int]:
    """The interval (ln, ld, hn, hd) of c + [0; w[i+1], ..., t] + [0; w[i-1], ..., w[0], u]
    for c = w[i] and sides = _sides(w, i), with t in the tail interval right and u in
    left (_END: exact)."""
    rt, lt = mobius_pairs(sides[0], right), mobius_pairs(sides[1], left)
    return _sum(c, rt[:2], lt[:2]) + _sum(c, rt[2:], lt[2:])


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
        if self.alphabet_max > _MAX_ALPHABET:
            raise ValueError(f"alphabet_max {self.alphabet_max} exceeds the cap of {_MAX_ALPHABET}")

    @cached_property
    def _table(self) -> list:
        """Factor automaton on numbered states: () is 0, and the admissible
        proper prefixes of the forbidden words follow by length.
        table[s][a-1] is the longest suffix of s+(a,) that is a state, or
        None when some suffix of s+(a,) is forbidden.  The state of an
        admissible word, its longest suffix that is a state, holds all of its
        past that a forbidden factor can reach.  As in Aho-Corasick, a row is
        its longest proper suffix state's row, compiled before it, but where
        s+(a,) is forbidden or a state."""
        forbidden, m = self.forbidden, self.alphabet_max
        prefixes = {f[:i] for f in forbidden for i in range(1, len(f))}
        states, table = [((), 0)], []  # (word, its longest proper suffix state)
        for s, (word, link) in enumerate(states):  # grows as the states are found
            row = []
            for a, b in enumerate(table[link] if s else (0,) * m, 1):
                t = word + (a,)
                if b is None or t in forbidden:
                    b = None
                elif t in prefixes:  # a new state, whose suffix state is b
                    states.append((t, b))
                    b = len(states) - 1
                row.append(b)
            table.append(tuple(row))
        return table

    def _walk(self, word):
        """Automaton state after reading the word from state 0; None when
        the word leaves the alphabet or hits a forbidden factor."""
        state, table, m = 0, self._table, self.alphabet_max
        for a in word:
            if state is None or not 1 <= a <= m:
                return None
            state = table[state][a - 1]
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


def _counts(table, tail, n: int, keep: int) -> list:
    """counts[r][s], r = 0, ..., keep, and level n last (n >= keep): the
    admissible r-symbol words read from automaton state s, and those among
    them whose last state t has an admissible tail (tail[t] not None), as
    one pair.  The levels between keep and n are stepped past, not kept."""
    kids = [[t for t in row if t is not None] for row in table]
    level = [(1, int(t is not None)) for t in tail]
    out = [level]
    for r in range(n):
        nxt = []
        for ts in kids:
            words = live = 0
            for t in ts:
                tw, tl = level[t]
                words += tw
                live += tl
            nxt.append((words, live))
        level = nxt
        if r < keep or r == n - 1:
            out.append(level)
    return out


def _tail_levels(table, depth: int, reach: int) -> list:
    """The tail levels depth, ..., depth + reach over one automaton (see
    _tails), each a list indexed by state.  Every tail lies in [1, inf], so
    [a; x] lies in [a, a + 1]: the lower end is a + 1/(upper end of the
    child t after a), a the smallest symbol with a live child, and the upper
    end is b + 1/(lower end of the child u after b), b the largest; a
    state's (a, t, b, u) are its extreme children.  The live states shrink
    level by level until they repeat, within len(table) levels; from there
    the extreme children are fixed, so the ends form a functional graph on
    nodes 2s (lower end of s) and 2s+1 (upper end) whose edges are
    one-symbol matrices, and pointer doubling over the live nodes pushes
    them the remaining levels in O(log depth) matrix products per end.
    Each reach level is one step along the extreme children from before the
    doubling, found again only while the live states still shrink, as they
    may past a small depth."""

    def extremes(level):  # each state's (a, t, b, u), None when it has no live child
        kids = ([(a, t) for a, t in enumerate(row, 1) if t is not None and level[t]]
                for row in table)
        return [k[0] + k[-1] if k else None for k in kids]

    def step(ext, level):
        out = []
        for e in ext:
            if e:
                a, t, b, u = e
                (_, _, hn, hd), (ln, ld, _, _) = level[t], level[u]
                e = a * hn + hd, hn, b * ln + ld, ln  # X_a, X_b at the ends, as mobius_pairs
            out.append(e)
        return out

    level, n = [_FREE] * len(table), 0
    ext = extremes(level)
    while n < depth and ext.count(None) > level.count(None):  # the live states still shrink
        level, n = step(ext, level), n + 1
        ext = extremes(level)
    # ext is fixed from here on: step along it depth - n times, by doubling on the nodes
    nxt = [v for e in ext for v in ((2 * e[1] + 1, 2 * e[3]) if e else (0, 0))]
    mat = [m for e in ext for m in (((e[0], 1, 1, 0), (e[2], 1, 1, 0)) if e else (None,) * 2)]
    ends, k = [x for e in level for x in ((e[:2], e[2:]) if e else (None,) * 2)], depth - n
    while k:  # a dead node's matrix and end stay None
        if k & 1:  # each node's matrix at its successor's end, as mobius_pairs
            ends = [m and (m[0] * e[0] + m[1] * e[1], m[2] * e[0] + m[3] * e[1])
                    for m, e in zip(mat, map(ends.__getitem__, nxt))]
        k >>= 1
        if k:
            mat = [m and _mul(m, mat[w]) for m, w in zip(mat, nxt)]
            nxt = [nxt[w] for w in nxt]
    level = [lo and lo + hi for lo, hi in zip(ends[::2], ends[1::2])]
    out = [level]
    for _ in range(reach):  # ext found again only while the live states shrink
        fewer, level = ext.count(None) > level.count(None), step(ext, level)
        ext = extremes(level) if fewer else ext
        out.append(level)
    return out


def _check_depth(depth: int) -> None:
    """Raises ValueError on a depth below 0 or above _MAX_DEPTH."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if depth > _MAX_DEPTH:
        raise ValueError(f"depth {depth} exceeds the cap of {_MAX_DEPTH}")


def _tails(constraints: Constraints, depth: int, reach: int = 0):
    """(rev, left, right): the reversed constraints and the lists of left
    and right tail levels at depth, ..., depth + reach.  A tail level
    holds for each state s the closed interval (ln, ld, hn, hd), hd 0 being
    +inf, containing every [x1; ..., xn, t] with the x's admissible from s
    and t free in [1, inf), or None when no such x's exist.  Level 0 is the
    free interval itself, so the leaf endpoints are exactly cylinder
    endpoints; the matrices have determinant -1 or 1, so each end stays in
    lowest terms.  Callers check the depth first, by _check_depth."""
    rev = _reversed(constraints)
    right = _tail_levels(constraints._table, depth, reach)
    return rev, right if rev is constraints else _tail_levels(rev._table, depth, reach), right


def site_lambda_bounds(
    pattern: Pattern, constraints: Constraints, depth: int
) -> BoundCertificate:
    """Certified bounds on the two-sided value at the pattern site over
    all bi-infinite admissible sequences containing the word there; the
    depth and the word are checked before any tail level is built."""
    w = pattern.word
    _check_depth(depth)
    if violates(w, constraints):
        raise ValueError("pattern word violates the constraints")
    rev, left, right = _tails(constraints, depth)
    right, left = right[0][constraints._walk(w)], left[0][rev._walk(reversed(w))]
    if right is None or left is None:
        raise ValueError("pattern admits no admissible completion")
    ln, ld, hn, hd = _site(w[pattern.site], _sides(w, pattern.site), right, left)
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
    max_nodes: int = _MAX_NODES,
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
    max_nodes words (default _MAX_NODES; None is refused) and is
    inconclusive when it needs more; a depth above _MAX_DEPTH or a window
    above _MAX_WINDOW raises before any tail level is built.
    """
    if window_len < 7:
        raise ValueError("window_len must be at least 7")
    _check_depth(depth)
    if max_nodes is not None and max_nodes < 0:
        raise ValueError("max_nodes must be nonnegative")
    if window_len > _MAX_WINDOW:
        raise ValueError(f"window_len {window_len} exceeds the cap of {_MAX_WINDOW}")
    if max_nodes is None:  # after the caps, so that every other check keeps its precedence
        raise ValueError("max_nodes must be a number: every sweep has a budget")
    center, n = window_len // 2, len(CENTER_PATTERN)
    # left[r], right[r]: the tail levels at depth + r, r the symbols that side has to choose
    rev, left, right = _tails(constraints, depth, center)
    threshold = Fraction(threshold)
    tn, td = threshold.numerator, threshold.denominator
    ftable, rtable = constraints._table, rev._table
    right_counts = _counts(ftable, right[0], window_len, center)  # r <= center; [-1]: all
    left_counts = right_counts if rev is constraints else _counts(rtable, left[0], center, center)
    h = max(map(len, constraints.forbidden), default=1) - 1  # the longest state's length
    # the window's positions from the center outward, right before left
    order = sorted(range(window_len), key=lambda p: (abs(p - center), p < center))
    by_bound = by_pattern = nodes = 0
    exceptions = []
    # a node: the segment, its length left of the center, its forward and reverse
    # state numbers (a step on one side keeps the other's once the segment has h symbols),
    # the matrices of [0; its left part read outward ...] and [0; its right part ...],
    # and their images of that side's tail level (None: no admissible tail), so a
    # step on one side reuses the other side's image
    image = lambda m, tail: tail and mobius_pairs(m, tail)
    m0 = mobius((0,))
    stack = [((), 0, 0, 0, m0, m0, image(m0, left[center][0]), None)]  # rv: read from k = 1
    while stack and nodes < max_nodes:
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
        windows_total=right_counts[-1][0][0],
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
    ln, ld, hn, hd = _site(w[n - 1], _sides(w, n - 1), _FREE, _END)
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
    this call, with its side matrices if it failed: a later position with
    the window clears without a bracket, or goes straight to 2k.  A window
    whose left side is read whole (k < n-1) continues its half window's
    matrices over its new symbols only, the right ones stopping at the
    word's end; one cut by w[0] starts from _sides.  Positions whose first
    window has cleared are filtered out at C level, so at 32 blocks the
    loop runs for 76 of 2,258 positions.
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
    # the upper end of n's site from the sides of w[n-1-k : n+k], the left tail free
    # until it reaches w[0]; dropping known symbols only widens a cylinder, so this
    # holds the exact bracket, and is it once k >= max(n-1, len(w)-n)
    upper = lambda n, k, sides: _site(w[n - 1], sides, _FREE, _FREE if k < n - 1 else _END)[2:]
    size, flagged = len(w), []
    # a window read whole -> (it cleared, its sides if it failed); the first windows cleared
    clears, cleared = {}, set()
    # only windows read whole are stored, and no word holds a 0, so a padded window never
    # clears; the one that reaches w[0] unpadded may, which its exact back side keeps
    pad = (0,) * (_WINDOW + 1)
    # the first window of each n, w[n-1-k : n+k] at k = _WINDOW, zero-padded, none of them sliced
    firsts = zip(*(islice(chain(pad, w, pad), start + i, None) for i in range(2 * _WINDOW + 1)))
    # read lazily, so a window that clears skips every later position with it, unread
    for n in compress(range(start, stop + 1), map(not_, map(cleared.__contains__, firsts))):
        k, exact, sides = _WINDOW, max(n - 1, size - n), None
        # reference >= lower(k) > windowed hi >= exact hi clears n
        while k < exact:
            window = w[n - 1 - k : n + k] if k < n - 1 and n + k <= size else None  # whole
            if window in clears:
                ok, sides = clears[window]
            else:
                if sides is None or k >= n - 1:  # the first window, or one cut by w[0]
                    sides = _sides(w[max(n - 1 - k, 0) : n + k], min(k, n - 1))
                else:  # the half window's: mobius(u + v) == mobius(v, mobius(u)); the
                    h, (mr, ml) = k // 2, sides  # right slice stops at the word's end
                    sides = mobius(w[n + h : n + k], mr), mobius(w[n - 1 - k : n - 1 - h][::-1], ml)
                (ln, ld), (hn, hd) = lower(k), upper(n, k, sides)
                ok = ln * hd > hn * ld
                if window is not None:  # only a window that failed is ever continued
                    clears[window] = ok, None if ok else sides
                    if ok and k == _WINDOW:
                        cleared.add(window)
            if ok:
                break
            k *= 2
        if k >= exact and not reference > Fraction(*upper(n, exact, _sides(w, n - 1))):
            flagged.append(n)
    return AuditReport(start=start, stop=stop, guard=guard, flagged=tuple(flagged))
