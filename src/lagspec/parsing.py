"""Text grammar for continued fractions, two-sided sequences and sums.

Continued fractions are written ``[a0;a1,...,an]`` with an optional
parenthesized period at the end, ``[a0;a1,...,ak,(p1,...,pm)]``.
Two-sided sequences are ``<(l1,...) | c1,...,ck*,...,cm | (r1,...)>``
with exactly one starred core element marking position 0.  Expressions
are sums of continued fractions with optional rational coefficients,
for example ``3+2*[0;3,2,1,(1,2)]``.  Whitespace is ignored everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bisequence import BiSeq
from .cfrac import EPCF, FiniteCF, eval_finite, eval_periodic
from .quadfield import QuadExt, QuadSum

__all__ = [
    "BiSeqExpr",
    "ExprSyntaxError",
    "SumExpr",
    "Term",
    "evaluate",
    "format_expression",
    "parse_biseq",
    "parse_cf",
    "parse_expression",
    "parse_word",
]


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, line: int, col: int, token: str):
        self.line = line
        self.col = col
        self.token = token
        super().__init__(f"{message} at line {line}, column {col}: {token!r}")


@dataclass(frozen=True)
class Term:
    """coef * cf, or a bare rational when cf is None."""

    coef: Fraction
    cf: FiniteCF | EPCF | None


@dataclass(frozen=True)
class SumExpr:
    terms: tuple[Term, ...]


@dataclass(frozen=True)
class BiSeqExpr:
    seq: BiSeq


_PUNCT = "[];,()<>|*+-/"


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str, int, int]] = []
        line, col = 1, 1
        i = 0
        while i < len(text):
            ch = text[i]
            if ch == "\n":
                line += 1
                col = 1
                i += 1
                continue
            if ch.isspace():
                col += 1
                i += 1
                continue
            # isdecimal, not isdigit: "²" is a digit that int() refuses
            if ch.isdecimal():
                j = i
                while j < len(text) and text[j].isdecimal():
                    j += 1
                if text[j : j + 1] == "." and text[j + 1 : j + 2].isdecimal():
                    j += 1
                    while j < len(text) and text[j].isdecimal():
                        j += 1
                self.tokens.append(("NUM", text[i:j], line, col))
                col += j - i
                i = j
                continue
            if ch in _PUNCT:
                self.tokens.append((ch, ch, line, col))
                col += 1
                i += 1
                continue
            raise ExprSyntaxError("unexpected character", line, col, ch)
        self.tokens.append(("END", "", line, col))

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        if tok[0] != "END":
            self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r}", tok[2], tok[3], tok[1])
        return self.next()

    def fail(self, message: str):
        tok = self.peek()
        raise ExprSyntaxError(message, tok[2], tok[3], tok[1])


def _parse_int(lex: _Lexer, allow_negative=True) -> int:
    neg = False
    if allow_negative and lex.peek()[0] == "-":
        lex.next()
        neg = True
    tok = lex.expect("NUM")
    if "." in tok[1]:
        raise ExprSyntaxError("expected an integer", tok[2], tok[3], tok[1])
    return -int(tok[1]) if neg else int(tok[1])


def _parse_int_list(lex: _Lexer) -> list[int]:
    out = [_parse_int(lex, allow_negative=False)]
    while lex.peek()[0] == ",":
        save = lex.pos
        lex.next()
        if lex.peek()[0] != "NUM":
            lex.pos = save
            break
        out.append(_parse_int(lex, allow_negative=False))
    return out


def _parse_period(lex: _Lexer) -> tuple[int, ...]:
    lex.expect("(")
    vals = _parse_int_list(lex)
    lex.expect(")")
    return tuple(vals)


def _parse_cf_body(lex: _Lexer) -> FiniteCF | EPCF:
    lex.expect("[")
    a0 = _parse_int(lex)
    if lex.peek()[0] == "]":
        lex.next()
        return FiniteCF(a0, ())
    lex.expect(";")
    pre: list[int] = []
    period: tuple[int, ...] | None = None
    while True:
        tok = lex.peek()
        if tok[0] == "(":
            period = _parse_period(lex)
            break
        if tok[0] == "NUM":
            pre.append(_parse_int(lex, allow_negative=False))
            if lex.peek()[0] == ",":
                lex.next()
                continue
            break
        lex.fail("expected a partial quotient or a period")
    lex.expect("]")
    if period is None:
        return FiniteCF(a0, tuple(pre))
    return EPCF(a0, tuple(pre), period)


def _parse_biseq_body(lex: _Lexer) -> BiSeq:
    lex.expect("<")
    left = _parse_period(lex)
    lex.expect("|")
    core: list[int] = []
    origin = None
    while True:
        core.append(_parse_int(lex, allow_negative=False))
        if lex.peek()[0] == "*":
            lex.next()
            if origin is not None:
                lex.fail("second origin marker")
            origin = len(core) - 1
        if lex.peek()[0] == ",":
            lex.next()
            continue
        break
    lex.expect("|")
    right = _parse_period(lex)
    lex.expect(">")
    if origin is None:
        lex.fail("core must carry exactly one origin marker")
    return BiSeq(left, tuple(core), origin, right)


def _parse_number(lex: _Lexer) -> Fraction:
    neg = False
    if lex.peek()[0] == "-":
        lex.next()
        neg = True
    tok = lex.expect("NUM")
    if "." in tok[1]:
        val = Fraction(tok[1])
    else:
        val = Fraction(int(tok[1]))
        if lex.peek()[0] == "/":
            lex.next()
            den = _parse_int(lex, allow_negative=False)
            if den == 0:
                lex.fail("zero denominator")
            val = Fraction(val, den)
    return -val if neg else val


def _parse_term(lex: _Lexer) -> Term:
    tok = lex.peek()
    if tok[0] == "[":
        return Term(Fraction(1), _parse_cf_body(lex))
    coef = _parse_number(lex)
    if lex.peek()[0] == "*":
        lex.next()
        return Term(coef, _parse_cf_body(lex))
    return Term(coef, None)


def parse_expression(text: str) -> SumExpr | BiSeqExpr:
    lex = _Lexer(text)
    if lex.peek()[0] == "<":
        node = BiSeqExpr(_parse_biseq_body(lex))
        if lex.peek()[0] != "END":
            lex.fail("trailing input")
        return node
    terms = [_parse_term(lex)]
    while lex.peek()[0] in ("+", "-"):
        op = lex.next()[0]
        t = _parse_term(lex)
        if op == "-":
            t = Term(-t.coef, t.cf)
        terms.append(t)
    if lex.peek()[0] != "END":
        lex.fail("trailing input")
    return SumExpr(tuple(terms))


def parse_cf(text: str) -> FiniteCF | EPCF:
    lex = _Lexer(text)
    cf = _parse_cf_body(lex)
    if lex.peek()[0] != "END":
        lex.fail("trailing input")
    return cf


def parse_biseq(text: str) -> BiSeq:
    lex = _Lexer(text)
    seq = _parse_biseq_body(lex)
    if lex.peek()[0] != "END":
        lex.fail("trailing input")
    return seq


def parse_word(text: str) -> tuple[int, ...]:
    """Comma-separated positive integers, e.g. "2,1,2,1,3"."""
    lex = _Lexer(text)
    vals = _parse_int_list(lex)
    if lex.peek()[0] != "END":
        lex.fail("trailing input")
    return tuple(vals)


def evaluate(expr: SumExpr | BiSeqExpr) -> QuadSum:
    """Exact value of a sum expression (two distinct radicands at most)."""
    if isinstance(expr, BiSeqExpr):
        raise ValueError("a sequence literal has no numeric value")
    total = QuadSum(QuadExt(0))
    for t in expr.terms:
        if t.cf is None:
            total = total + t.coef
        else:
            val = (
                eval_periodic(t.cf)
                if isinstance(t.cf, EPCF)
                else QuadExt.from_rational(eval_finite(t.cf))
            )
            total = total + val * QuadExt.from_rational(t.coef)
    return total


def _format_coef(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_expression(expr: SumExpr | BiSeqExpr) -> str:
    if isinstance(expr, BiSeqExpr):
        return str(expr.seq)
    parts: list[str] = []
    for t in expr.terms:
        if t.cf is None:
            s = _format_coef(t.coef)
        elif t.coef == 1:
            s = str(t.cf)
        else:
            s = f"{_format_coef(t.coef)}*{t.cf}"
        if parts and not s.startswith("-"):
            parts.append("+")
            parts.append(s)
        elif parts:
            parts.append("-")
            parts.append(s.lstrip("-"))
        else:
            parts.append(s)
    return "".join(parts)
