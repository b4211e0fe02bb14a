"""Machine-checkable certificates over words with forbidden factors.

Every forbidden-factor test runs on one factor automaton compiled from
the constraints.  Bounds on the two-sided value at a site inside a
pattern are computed from exact cylinder intervals over the admissible
continuations to a fixed depth.  Each state's interval is read from two
children only, the smallest live symbol's for the lower end and the
largest one's for the upper end; levels are stepped one at a time until
the set of live states repeats, and from there pointer doubling over
those fixed choices reaches the depth in O(log depth) matrix products.
Every interval is the image of a tail interval under a Moebius matrix,
on unreduced integer (num, den) pairs.  The window sweep grows each
window from the center outward and bounds both sides at every node; it
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
from functools import cache, cached_property, cmp_to_key
from itertools import chain, islice

from .cfrac import FiniteCF, mobius, mobius_pairs
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
_FREE = (1, 1, 1, 0)  # the free tail [1, inf] as (ln, ld, hn, hd), den 0 being inf
_order = cmp_to_key(lambda x, y: x[0] * y[1] - y[0] * x[1])  # (num, den), den > 0


def _sum(a: int, x, y) -> tuple[int, int]:
    """a + x + y for (num, den) pairs, as one unreduced pair."""
    return a * x[1] * y[1] + x[0] * y[1] + y[0] * x[1], x[1] * y[1]


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
        states = {f[:i] for f in self.forbidden for i in range(len(f))} | {()}

        def step(t):
            suffixes = [t[i:] for i in range(len(t) + 1)]
            if any(u in self.forbidden for u in suffixes):
                return None
            return next(u for u in suffixes if u in states)

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
    rev = Constraints(
        constraints.alphabet_max, frozenset(f[::-1] for f in constraints.forbidden)
    )
    return constraints if rev == constraints else rev


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


def _levels(table, base, join):
    """Yields level 0, 1, ...: level n maps each automaton state s to a
    value over the admissible n-symbol words read from s, base(s) at n = 0,
    then join([(a, level n-1 at t), ...]) over the symbols a allowed at s,
    t the state after a.  Only the level last yielded is kept."""
    level = {s: base(s) for s in table}
    while True:
        yield level
        level = {
            s: join([(a, level[t]) for a, t in enumerate(row, 1) if t is not None])
            for s, row in table.items()
        }


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
    O(log depth) matrix products per end."""

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
        return {v: (m[0] * ends[w][0] + m[1] * ends[w][1], m[2] * ends[w][0] + m[3] * ends[w][1])
                for v, (m, w) in g.items()}

    ends = {(s, e): _FREE[e : e + 2] for s in table for e in (0, 2)}  # level 0
    g, n = edges(ends), 0
    while n < depth and len(g) < len(ends):  # the live states still shrink
        ends, n = push(g, ends), n + 1
        g = edges(ends)
    k = depth - n  # g is fixed from here on: apply it k times, by doubling
    while k:
        if k & 1:
            ends = push(g, ends)
        k >>= 1
        if k:
            g = {v: (_mul(m, g[w][0]), g[w][1]) for v, (m, w) in g.items()}
    out = []
    for r in range(reach + 1):
        if r:
            ends = push(edges(ends), ends)
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
    lowest terms."""
    rev = _reversed(constraints)
    right = _tail_levels(constraints._table, depth, reach)
    return rev, right if rev is constraints else _tail_levels(rev._table, depth, reach), right


def site_lambda_bounds(
    pattern: Pattern, constraints: Constraints, depth: int
) -> BoundCertificate:
    """Certified bounds on the two-sided value at the pattern site over
    all bi-infinite admissible sequences containing the word there."""
    w = pattern.word
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if violates(w, constraints):
        raise ValueError("pattern word violates the constraints")
    rev, left, right = _tails(constraints, depth)
    right, left = right[0][constraints._walk(w)], left[0][rev._walk(reversed(w))]
    if right is None or left is None:
        raise ValueError("pattern admits no admissible completion")
    rint = mobius_pairs(mobius((0,) + w[pattern.site + 1 :]), right)
    lint = mobius_pairs(mobius((0,) + tuple(reversed(w[: pattern.site]))), left)
    ends = (Fraction(*_sum(w[pattern.site], rint[i : i + 2], lint[i : i + 2])) for i in (0, 2))
    return BoundCertificate(pattern, constraints, depth, *ends)


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
    max_nodes: int | None = None,
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
    max_nodes words (None: no limit) and is inconclusive when it needs more.
    """
    if window_len < 7:
        raise ValueError("window_len must be at least 7")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if max_nodes is not None and max_nodes < 0:
        raise ValueError("max_nodes must be nonnegative")
    threshold = Fraction(threshold)
    tn, td = threshold.numerator, threshold.denominator
    center, n = window_len // 2, len(CENTER_PATTERN)
    # left[r], right[r]: the tail levels at depth + r, r the symbols that side has to choose
    rev, left, right = _tails(constraints, depth, center)
    # counts[r][s]: the r-symbol words read from s, and those among them that
    # leave an admissible tail of the depth, one table per reading direction
    total = lambda subs: (sum(v[0] for _, v in subs), sum(v[1] for _, v in subs))
    base = lambda tails: lambda s: (1, int(tails[0][s] is not None))
    counts = lambda c, tails: list(islice(_levels(c._table, base(tails), total), window_len + 1))
    right_counts = counts(constraints, right)
    left_counts = right_counts if rev is constraints else counts(rev, left)
    sites = (2, n - 3)  # the pattern's first and last 3, where the center must sit
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
            below = lv is None or rv is None
            if not below:
                num, den = _sum(seg[i], lv[2:], rv[2:])
                below = num * td < tn * den
            # from h symbols on, no forbidden word spans both sides' extensions
            if k >= h or k == window_len:
                if below:
                    by_bound += left_counts[lo][rs][0] * right_counts[rest][fs][0]
                    continue
                if any(i >= p and seg[i - p : i - p + n] == CENTER_PATTERN for p in sites):
                    num, den = _sum(seg[i], lv[:2], rv[:2])
                    if k == window_len or num * td >= tn * den:
                        (lw, ll), (rw, rl) = left_counts[lo][rs], right_counts[rest][fs]
                        by_pattern += ll * rl
                        by_bound += lw * rw - ll * rl
                        continue
            if k == window_len:
                exceptions.append(seg)
                continue
        if order[k] >= center:  # the center itself, then the right side
            for a, f in enumerate(constraints._table[fs], 1):
                if f is not None:
                    s = seg + (a,)
                    r = rs if k >= h else rev._walk(s[::-1])
                    m = mobius((a,), mr) if k else mr
                    l_img = lv if k >= h else image(ml, left[lo][r])
                    stack.append((s, i, f, r, ml, m, l_img, image(m, right[rest - 1][f])))
        else:
            for a, r in enumerate(rev._table[rs], 1):
                if r is not None:
                    s = (a,) + seg
                    f = fs if k >= h else constraints._walk(s)
                    m = mobius((a,), ml)
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


def _sides(w: tuple[int, ...], n: int, k: int):
    """The forward and backward intervals (ln, ld, hn, hd) of the one-sided
    value at position n, the cylinders of [0; w[n:n+k]] and [0; w[n-2], ...,
    w[n-1-k]], the backward one exact once it reaches w[0].  Dropping known
    symbols only widens a cylinder, so w[n-1] plus these holds the exact
    bracket, and is it once k >= max(n-1, len(w)-n)."""
    fwd = mobius_pairs(mobius((0,) + w[n : n + k]), _FREE)
    m = mobius((0,) + w[max(n - 1 - k, 0) : n - 1][::-1])
    return fwd, mobius_pairs(m, _FREE) if k < n - 1 else (m[0], m[2]) * 2


def one_sided_lambda_bracket(word, n: int) -> tuple[Fraction, Fraction]:
    """Exact bracket of the one-sided value at position n (1-based) of
    [0; b1, ..., bL, unknown...]: the backward word evaluates exactly, and
    the forward part is bracketed by the cylinder of the known rest."""
    w = tuple(word)
    if not 1 <= n <= len(w):
        raise ValueError("position outside the word")
    fwd, back = _sides(w, n, len(w))
    return tuple(Fraction(*_sum(w[n - 1], fwd[i : i + 2], back[i : i + 2])) for i in (0, 2))


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
    bracket from k symbols on each side, k = 2, 4, 8, ...; the exact test
    runs only when the window covers the word, so `flagged` is its own.
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
    lower = cache(lambda k: _order(bracket(2 * k)[0].as_integer_ratio()))
    upper = lambda n, k: _sum(w[n - 1], *(side[2:] for side in _sides(w, n, k)))
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
                cleared = lower(k) > _order(upper(n, k))
                if k < n - 1 and n + k <= size:  # the test read the window whole
                    clears[window] = cleared
            if cleared:
                break
            k *= 2
            window = w[n - 1 - k : n + k] if k < n - 1 and n + k <= size else None
        if k >= exact and not reference > Fraction(*upper(n, exact)):
            flagged.append(n)
    return AuditReport(start=start, stop=stop, guard=guard, flagged=tuple(flagged))
