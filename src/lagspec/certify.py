"""Machine-checkable certificates over words with forbidden factors.

Every forbidden-factor test runs on one factor automaton compiled from
the constraints.  Bounds on the two-sided value at a site inside a
pattern are computed from exact cylinder intervals: admissible
continuations to a fixed depth are folded bottom-up, level by level over
the automaton states, and every interval, from a leaf's cylinder to the
fold through the known word, is the image of a tail interval under a
Moebius matrix, cfrac.mobius_image.  The window sweep carries its
matrix and its left interval down the search; it counts a subtree that
already carries the center pattern and whose lower bound clears the
threshold without enumeration, live leaves by pattern and dead ones by
bound.  Everything is rational arithmetic; deepening the search never
loosens a bound.  The non-attainability audit clears each position of a
known word from a doubling window around it, exact once past the word.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

from .cfrac import FiniteCF, mobius, mobius_image
from .quadfield import QuadSum

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
    "admissible_extensions",
    "audit_not_attained",
    "certify_forbidden",
    "gap_constraints",
    "one_sided_lambda_bracket",
    "pattern_necessity",
    "site_lambda_bounds",
    "violates",
]

CENTER_PATTERN: tuple[int, ...] = (1, 2, 3, 3, 3, 2, 1)
_WINDOW = 16  # the audit's first window; it changes only speed, never a verdict


class NotSeparatedError(Exception):
    """Bounds straddle the threshold at this depth; deepen the search."""

    def __init__(self, certificate: "BoundCertificate"):
        self.certificate = certificate
        super().__init__(
            f"bounds [{certificate.lower}, {certificate.upper}] straddle the threshold"
        )


class PrefixTooShortError(ValueError):
    """The known word does not cover the requested audit range."""


@dataclass(frozen=True)
class Constraints:
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


@dataclass(frozen=True)
class Pattern:
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


@dataclass(frozen=True)
class BoundCertificate:
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


def admissible_extensions(prefix, constraints: Constraints, depth: int):
    """Depth-first lexicographic enumeration of all length-`depth`
    extensions of the prefix avoiding every forbidden factor; yields the
    full concatenated words."""
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


def _levels(table, base, join):
    """levels[n][s], a value over the admissible n-symbol words read from
    automaton state s: base(s) at n = 0, then join([(a, levels[n-1][t]),
    ...]) over the symbols a allowed at s, t the state after a.  Returns
    at(s, n), which builds the levels bottom-up as far as n on demand."""
    levels = [{s: base(s) for s in table}]

    def at(state, n):
        while len(levels) <= n:
            prev = levels[-1]
            levels.append({
                s: join([(a, prev[t]) for a, t in enumerate(row, 1) if t is not None])
                for s, row in table.items()
            })
        return levels[n][state]

    return at


def _tail_bounds(constraints: Constraints):
    """at(s, n): the closed rational interval containing every
    [x1; ..., xn, t] with the x's admissible from state s and t free in
    [1, inf), or None when no such x's exist.  The level-0 interval is the
    free one itself, so the leaf endpoints are exactly cylinder endpoints."""

    def join(subs):
        ivs = [mobius_image(mobius((a,)), sub) for a, sub in subs if sub is not None]
        return (min(lo for lo, _ in ivs), max(hi for _, hi in ivs)) if ivs else None

    return _levels(constraints._table, lambda s: (Fraction(1), None), join)  # None is +inf


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
    rev = _reversed(constraints)
    right_tails = _tail_bounds(constraints)
    left_tails = right_tails if rev is constraints else _tail_bounds(rev)
    right = right_tails(constraints._walk(w), depth)
    left = left_tails(rev._walk(reversed(w)), depth)
    if right is None or left is None:
        raise ValueError("pattern admits no admissible completion")
    rint = mobius_image(mobius((0,) + w[pattern.site + 1 :]), right)
    lint = mobius_image(mobius((0,) + tuple(reversed(w[: pattern.site]))), left)
    return BoundCertificate(
        pattern=pattern,
        constraints=constraints,
        depth=depth,
        lower=w[pattern.site] + rint[0] + lint[0],
        upper=w[pattern.site] + rint[1] + lint[1],
    )


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
    raise NotSeparatedError(cert)


@dataclass(frozen=True)
class NecessityReport:
    """Window sweep outcome: every admissible window either has its center
    value certified below the threshold or carries the center pattern with
    the center on an outer 3; `exceptions` lists windows doing neither."""

    threshold: Fraction
    constraints: Constraints
    window_len: int
    depth: int
    windows_total: int
    passed_by_bound: int
    passed_by_pattern: int
    exceptions: tuple[tuple[int, ...], ...]

    @property
    def holds(self) -> bool:
        return not self.exceptions


def pattern_necessity(
    threshold,
    constraints: Constraints,
    window_len: int = 15,
    depth: int = 25,
) -> NecessityReport:
    """Sweep every admissible window of the given length.

    Unknown context beyond the window is bounded by worst-case admissible
    tails, so a window passes case (a) only if its center value is below
    the threshold for every completion.  Subtrees whose uniform bound is
    already below the threshold are counted without enumeration, and so
    are subtrees that already carry the center pattern with a lower bound
    at least the threshold: their live leaves (those with an admissible
    right tail) pass by pattern, their dead ones by bound.
    """
    if window_len < 7:
        raise ValueError("window_len must be at least 7")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    threshold = Fraction(threshold)
    center = window_len // 2
    table = constraints._table
    rev = _reversed(constraints)
    right_tails = _tail_bounds(constraints)
    left_tails = right_tails if rev is constraints else _tail_bounds(rev)
    total = lambda subs: sum(n for _, n in subs)
    count_words = _levels(table, lambda s: 1, total)
    # windows whose last state leaves an admissible right tail of the depth
    count_live = _levels(table, lambda s: int(right_tails(s, depth) is not None), total)
    n = len(CENTER_PATTERN)
    # the offsets that put the center on the pattern's first or last 3
    offsets = [o for o in (center - 2, center + 3 - n) if o >= 0]

    exceptions: list[tuple[int, ...]] = []
    stats = {"bound": 0, "pattern": 0}

    def dfs(word, state, lint, m):
        """lint is the left interval once the word covers the center (None
        when the left side has no admissible tail), m the matrix of
        [0; word[center+1:]...]."""
        if len(word) > center:
            rest = window_len - len(word)
            tail = None if lint is None else right_tails(state, rest + depth)
            iv = None if tail is None else mobius_image(m, tail)
            if iv is None or word[center] + lint[1] + iv[1] < threshold:
                stats["bound"] += count_words(state, rest)
                return
            if any(word[o : o + n] == CENTER_PATTERN for o in offsets):
                # at a leaf, or where the hull of the live leaves below clears
                # the threshold: live leaves pass by pattern, dead ones by bound
                if rest == 0 or word[center] + lint[0] + iv[0] >= threshold:
                    live = count_live(state, rest)
                    stats["pattern"] += live
                    stats["bound"] += count_words(state, rest) - live
                    return
            elif rest == 0:
                exceptions.append(word)
                return
        elif len(word) == center:
            back = tuple(reversed(word))
            tail = left_tails(rev._walk(back), depth)
            lint = None if tail is None else mobius_image(mobius((0,) + back), tail)
        for a, nxt in enumerate(table[state], 1):
            if nxt is not None:
                dfs(word + (a,), nxt, lint, m if len(word) <= center else mobius((a,), m))

    dfs((), (), None, mobius((0,)))
    return NecessityReport(
        threshold=threshold,
        constraints=constraints,
        window_len=window_len,
        depth=depth,
        windows_total=count_words((), window_len),
        passed_by_bound=stats["bound"],
        passed_by_pattern=stats["pattern"],
        exceptions=tuple(exceptions),
    )


def _bracket(w: tuple[int, ...], n: int, k: int) -> tuple[Fraction, Fraction]:
    """Bracket of the one-sided value at position n from the cylinders of
    [0; w[n:n+k]] and [0; w[n-2], ..., w[n-1-k]], the backward one exact
    once it reaches w[0].  Dropping known symbols only widens a cylinder,
    so this holds the exact bracket, and is it once k >= max(n-1, len(w)-n)."""
    fwd = mobius_image(mobius((0,) + w[n : n + k]), (1, None))
    m = mobius((0,) + w[max(n - 1 - k, 0) : n - 1][::-1])
    back = mobius_image(m, (1, None)) if k < n - 1 else (Fraction(m[0], m[2]),) * 2
    return w[n - 1] + fwd[0] + back[0], w[n - 1] + fwd[1] + back[1]


def one_sided_lambda_bracket(word, n: int) -> tuple[Fraction, Fraction]:
    """Exact bracket of the one-sided value at position n (1-based) of
    [0; b1, ..., bL, unknown...]: the backward word evaluates exactly, and
    the forward part is bracketed by the cylinder of the known rest."""
    w = tuple(word)
    if not 1 <= n <= len(w):
        raise ValueError("position outside the word")
    return _bracket(w, n, len(w))


@dataclass(frozen=True)
class AuditReport:
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
    bracket from k symbols on each side, k = 16, 32, ...; the exact test
    runs only when the window covers the word, so `flagged` is its own.
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
    lower = cache(lambda k: bracket(2 * k)[0])  # at most the reference, 10**-2k close
    flagged = []
    for n in range(start, stop + 1):
        k, exact = _WINDOW, max(n - 1, len(w) - n)
        # reference >= lower(k) > windowed hi >= exact hi clears n
        while k < exact and not lower(k) > _bracket(w, n, k)[1]:
            k *= 2
        if k >= exact and not reference > _bracket(w, n, exact)[1]:
            flagged.append(n)
    return AuditReport(start=start, stop=stop, guard=guard, flagged=tuple(flagged))
