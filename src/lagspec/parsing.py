"""Text grammar for continued fractions, two-sided sequences and sums.

Continued fractions are written ``[a0;a1,...,an]`` with an optional
parenthesized period at the end, ``[a0;a1,...,ak,(p1,...,pm)]``.
Two-sided sequences are ``<(l1,...) | c1,...,ck*,...,cm | (r1,...)>``
with exactly one starred core element marking position 0.  Expressions
are sums of continued fractions with optional rational coefficients,
for example ``3+2*[0;3,2,1,(1,2)]``.  Whitespace may stand between
tokens, but not inside one: ``1 2`` and ``1 .5`` are refused.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .bisequence import BiSeq
from .cfrac import EPCF, FiniteCF, eval_finite, eval_periodic
from .quadfield import _MAX_DIGITS, _ZERO, QuadExt, QuadSum, _fold, _Record

__all__ = [
    "ExprSyntaxError",
    "Term",
    "evaluate",
    "parse_biseq",
    "parse_expression",
    "parse_word",
]


class ExprSyntaxError(ValueError):
    label = "syntax error"  # the CLI's prefix for the message; "error" for any other ValueError

    def __init__(self, message: str, line: int, col: int, token: str):
        self.line = line
        self.col = col
        self.token = token
        super().__init__(f"{message} at line {line}, column {col}: {token!r}")


class Term(_Record):
    """coef * cf, or a bare rational when cf is None."""

    coef: Fraction
    cf: FiniteCF | EPCF | None


# one token per match: a number, a punctuation mark, a newline, a run of other
# whitespace or any other character; \d and \s match exactly str.isdecimal and
# str.isspace, so "²", a digit that int() refuses, is any other character.
# re compiles it on first use, as the one-pass reader never lexes a well-formed text
_TOKEN = r"\d+(?:\.\d+)?|[\[\];,()<>|*+/-]|\n|[^\S\n]+|."
_PUNCT = frozenset("[];,()<>|*+-/")


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str, int, int]] = []
        line, col = 1, 1
        for tok in re.findall(_TOKEN, text, re.S):
            if tok in _PUNCT:
                self.tokens.append((tok, tok, line, col))
            elif tok[0].isdecimal():
                if len(tok) > _MAX_DIGITS and max(map(len, tok.split("."))) > _MAX_DIGITS:
                    message = f"number exceeds the cap of {_MAX_DIGITS} digits"
                    raise ExprSyntaxError(message, line, col, tok)
                self.tokens.append(("NUM", tok, line, col))
            elif tok == "\n":
                line, col = line + 1, 0
            elif not tok.isspace():
                raise ExprSyntaxError("unexpected character", line, col, tok)
            col += len(tok)
        self.tokens.append(("END", "", line, col))

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        if tok[0] != "END":
            self.pos += 1
        return tok

    def accept(self, kind: str) -> bool:
        """Consume the next token if it is of this kind (never "END")."""
        found = self.tokens[self.pos][0] == kind
        self.pos += found
        return found

    def expect(self, kind: str):
        if self.peek()[0] != kind:
            self.fail(f"expected {kind!r}")
        return self.next()

    def fail(self, message: str):
        tok = self.peek()
        raise ExprSyntaxError(message, tok[2], tok[3], tok[1])


def _parse_int(lex: _Lexer, allow_negative=True) -> int:
    neg = allow_negative and lex.accept("-")
    tok = lex.expect("NUM")
    if "." in tok[1]:
        raise ExprSyntaxError("expected an integer", tok[2], tok[3], tok[1])
    return -int(tok[1]) if neg else int(tok[1])


def _parse_int_list(lex: _Lexer) -> tuple[int, ...]:
    out = [_parse_int(lex, allow_negative=False)]
    while lex.peek()[0] == "," and lex.tokens[lex.pos + 1][0] == "NUM":  # else left to the caller
        lex.next()
        out.append(_parse_int(lex, allow_negative=False))
    return tuple(out)


def _parse_period(lex: _Lexer) -> tuple[int, ...]:
    lex.expect("(")
    vals = _parse_int_list(lex)
    lex.expect(")")
    return vals


def _parse_cf_body(lex: _Lexer) -> FiniteCF | EPCF:
    lex.expect("[")
    a0 = _parse_int(lex)
    if lex.accept("]"):
        return FiniteCF(a0, ())
    lex.expect(";")
    pre = _parse_int_list(lex) if lex.peek()[0] == "NUM" else ()
    if pre and not lex.accept(","):
        lex.expect("]")
        return FiniteCF(a0, pre)
    if lex.peek()[0] != "(":  # after ";" or a comma
        lex.fail("expected a partial quotient or a period")
    period = _parse_period(lex)
    lex.expect("]")
    return EPCF(a0, pre, period)


def _parse_biseq_body(lex: _Lexer) -> BiSeq:
    lex.expect("<")
    left = _parse_period(lex)
    lex.expect("|")
    core: list[int] = []
    origin = None
    while True:
        core.append(_parse_int(lex, allow_negative=False))
        if origin is not None and lex.peek()[0] == "*":
            lex.fail("second origin marker")
        if lex.accept("*"):
            origin = len(core) - 1
        if lex.accept(","):
            continue
        break
    bar = lex.expect("|")
    right = _parse_period(lex)
    lex.expect(">")
    if origin is None:  # refused at the bar that closes the core
        raise ExprSyntaxError("core must carry exactly one origin marker", bar[2], bar[3], bar[1])
    return BiSeq(left, tuple(core), origin, right)


def _parse_number(lex: _Lexer) -> Fraction:
    neg = lex.accept("-")
    tok = lex.expect("NUM")
    if "." in tok[1]:
        val = Fraction(tok[1])
    else:
        val = Fraction(int(tok[1]))
        if lex.accept("/"):
            tok = lex.peek()  # the denominator's token, where a zero is refused
            den = _parse_int(lex, allow_negative=False)
            if den == 0:
                raise ExprSyntaxError("zero denominator", tok[2], tok[3], tok[1])
            val = Fraction(val, den)
    return -val if neg else val


def _parse_term(lex: _Lexer) -> Term:
    tok = lex.peek()
    if tok[0] == "[":
        return Term(Fraction(1), _parse_cf_body(lex))
    coef = _parse_number(lex)
    if lex.accept("*"):
        return Term(coef, _parse_cf_body(lex))
    return Term(coef, None)


def _whole(text: str, body):
    """body(lexer) over the whole text, refusing trailing input."""
    lex = _Lexer(text)
    out = body(lex)
    if lex.peek()[0] != "END":
        lex.fail("trailing input")
    return out


def _parse_sum(lex: _Lexer) -> tuple[Term, ...] | BiSeq:
    if lex.peek()[0] == "<":
        return _parse_biseq_body(lex)
    terms = [_parse_term(lex)]
    while lex.peek()[0] in ("+", "-"):
        op = lex.next()[0]
        t = _parse_term(lex)
        if op == "-":
            t = Term(-t.coef, t.cf)
        terms.append(t)
    return tuple(terms)


# The one-pass reader of a well-formed text, without its whitespace unless
# that splits a number (\s and \d are the lexer's).  _BISEQ matches a sequence,
# its core cut at the origin marker; _TERM a term of a sum and the operator
# after it: n[.f | /d][*cf] or cf, with cf [a0], [a0;q,...,q] or [a0;q,...,(p,...)].
_SPLIT = r"[\d.]\s+[\d.]"
_BISEQ = r"<\(([\d,]+)\)\|([\d,]*\d)\*((?:,\d+)*)\|\(([\d,]+)\)>"
_TERM = (
    r"(?:(-?\d+)(?:(\.\d+)|/(\d+))?)?(\*)?"
    r"(?:\[(-?\d+)(?:;([\d,]*)(?:(?<=[;,])\(([\d,]+)\))?)?\])?([+-]|\Z)"
)


def _ints(text: str) -> tuple[int, ...]:
    return tuple(map(int, text.split(",")))  # int("") refuses an empty item


def _read(text: str) -> tuple[Term, ...] | BiSeq | None:
    """The sum or sequence of a well-formed text, or None for the token parser."""
    squeezed = "".join(text.split())
    if len(text) > _MAX_DIGITS or squeezed != text and re.search(_SPLIT, text):
        return None
    try:
        if squeezed[:1] != "<":
            return _read_sum(squeezed)
        m = re.fullmatch(_BISEQ, squeezed)
        return m and BiSeq(_ints(m[1]), _ints(m[2] + m[3]), m[2].count(","), _ints(m[4]))
    except (ValueError, ZeroDivisionError):  # an empty item, a zero quotient or denominator
        return None


def _read_sum(text: str) -> tuple[Term, ...] | None:
    terms, pos, op, match = [], 0, "+", re.compile(_TERM).match
    while op and (m := match(text, pos)):
        num, dec, den, star, a0, pre, period, op_after = m.groups()
        if not (num or a0) or bool(star) != bool(num and a0):
            return None  # an empty term, or a star not between a number and a cf
        cf = a0 and (
            FiniteCF(int(a0), _ints(pre) if pre is not None else ())
            if period is None
            else EPCF(int(a0), _ints(pre[:-1]) if pre else (), _ints(period))  # pre is "q,...,"
        )
        coef = Fraction(num + dec) if dec else Fraction(int(num or 1), int(den or 1))
        terms.append(Term(-coef if op == "-" else coef, cf))
        pos, op = m.end(), op_after
    return None if op else tuple(terms)


def parse_expression(text: str) -> tuple[Term, ...] | BiSeq:
    """The terms of a sum, or a two-sided sequence, which has no numeric value."""
    out = _read(text)
    return _whole(text, _parse_sum) if out is None else out


def parse_biseq(text: str) -> BiSeq:
    out = _read(text)
    return out if isinstance(out, BiSeq) else _whole(text, _parse_biseq_body)


def parse_word(text: str) -> tuple[int, ...]:
    """Comma-separated positive integers, e.g. "2,1,2,1,3"."""
    return _whole(text, _parse_int_list)


def evaluate(expr: tuple[Term, ...] | BiSeq) -> QuadSum:
    """Exact value of a sum expression (two distinct radicands at most).  The terms
    are added left to right, one _fold each, as QuadSum's + adds them: the printed
    split follows their order, and a partial sum over three fields is refused."""
    if isinstance(expr, BiSeq):
        raise ValueError("a sequence literal has no numeric value")
    x = y = _ZERO
    for t in expr:
        n, m, cf = t.coef.numerator, t.coef.denominator, t.cf
        if isinstance(cf, EPCF):
            v = eval_periodic(cf)
            v = QuadExt._reduced(v.a * n, v.b * n, v.c * m, v.d)  # v * coef, as QuadExt * forms it
        else:
            f = 1 if cf is None else eval_finite(cf)
            v = QuadExt._reduced(f.numerator * n, 0, f.denominator * m, 1)
        x, y = _fold((x, y, v) if y else (x, v))
    return QuadSum._of(x, y)
