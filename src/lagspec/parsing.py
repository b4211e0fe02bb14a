"""Text grammar for continued fractions, two-sided sequences and sums.

Continued fractions are written ``[a0;a1,...,an]`` with an optional
parenthesized period at the end, ``[a0;a1,...,ak,(p1,...,pm)]``.
Two-sided sequences are ``<(l1,...) | c1,...,ck*,...,cm | (r1,...)>``
with exactly one starred core element marking position 0.  Expressions
are sums of continued fractions with optional rational coefficients,
for example ``3+2*[0;3,2,1,(1,2)]``.  Whitespace is ignored everywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .bisequence import BiSeq
from .cfrac import EPCF, FiniteCF, eval_finite, eval_periodic
from .quadfield import QuadExt, QuadSum, _Record

__all__ = [
    "BiSeqExpr",
    "ExprSyntaxError",
    "SumExpr",
    "Term",
    "evaluate",
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


class Term(_Record):
    """coef * cf, or a bare rational when cf is None."""

    coef: Fraction
    cf: FiniteCF | EPCF | None


class SumExpr(_Record):
    terms: tuple[Term, ...]


class BiSeqExpr(_Record):
    seq: BiSeq


# one token per match: a number, a punctuation mark, a newline, a run of other
# whitespace or any other character; \d and \s match exactly str.isdecimal and
# str.isspace, so "²", a digit that int() refuses, is any other character
_TOKEN = re.compile(r"\d+(?:\.\d+)?|[\[\];,()<>|*+/-]|\n|[^\S\n]+|.", re.S)
_PUNCT = frozenset("[];,()<>|*+-/")
_MAX_DIGITS = 4300  # in one run of digits; fixed, whatever the interpreter's int-to-str limit


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str, int, int]] = []
        line, col = 1, 1
        for tok in _TOKEN.findall(text):
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
        if lex.accept("*"):
            if origin is not None:
                lex.fail("second origin marker")
            origin = len(core) - 1
        if lex.accept(","):
            continue
        break
    lex.expect("|")
    right = _parse_period(lex)
    lex.expect(">")
    if origin is None:
        lex.fail("core must carry exactly one origin marker")
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


def _parse_sum(lex: _Lexer) -> SumExpr | BiSeqExpr:
    if lex.peek()[0] == "<":
        return BiSeqExpr(_parse_biseq_body(lex))
    terms = [_parse_term(lex)]
    while lex.peek()[0] in ("+", "-"):
        op = lex.next()[0]
        t = _parse_term(lex)
        if op == "-":
            t = Term(-t.coef, t.cf)
        terms.append(t)
    return SumExpr(tuple(terms))


def parse_expression(text: str) -> SumExpr | BiSeqExpr:
    return _whole(text, _parse_sum)


def parse_cf(text: str) -> FiniteCF | EPCF:
    return _whole(text, _parse_cf_body)


def parse_biseq(text: str) -> BiSeq:
    return _whole(text, _parse_biseq_body)


def parse_word(text: str) -> tuple[int, ...]:
    """Comma-separated positive integers, e.g. "2,1,2,1,3"."""
    return _whole(text, _parse_int_list)


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
