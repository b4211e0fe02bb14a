import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagspec.bisequence import BiSeq
from lagspec.cfrac import EPCF, FiniteCF
from lagspec.cli import main
from lagspec.parsing import (
    BiSeqExpr,
    ExprSyntaxError,
    SumExpr,
    Term,
    evaluate,
    parse_biseq,
    parse_cf,
    parse_expression,
    parse_word,
    _Lexer,
)
from lagspec.quadfield import QuadExt


def test_parse_cf_examples():
    assert parse_cf("[0;(1,2)]") == EPCF(0, (), (1, 2))
    assert parse_cf("[3;3,3,2,1,(1,2)]") == EPCF(3, (3, 3, 2, 1), (1, 2))
    assert parse_cf("[0;2,1]") == FiniteCF(0, (2, 1))
    assert parse_cf("[3]") == FiniteCF(3, ())
    assert parse_cf("[-2;1,1]") == FiniteCF(-2, (1, 1))
    assert parse_cf(" [ 0 ; 1 , ( 1 , 2 ) ] ") == EPCF(0, (1,), (1, 2))


def test_parse_sum():
    e = parse_expression("[3;3,3,2,1,(1,2)]+[0;2,1,(1,2)]")
    assert isinstance(e, SumExpr) and len(e.terms) == 2
    assert evaluate(e) == QuadExt(62976, -1498, 16357, 3)
    e2 = parse_expression("3+2*[0;3,2,1,(1,2)]")
    assert evaluate(e2) == QuadExt(246, 1, 69, 3)
    e3 = parse_expression("4+[0;3,2,1,1,(3,1,3,1,2,1)]+[0;4,3,2,2,(3,1,3,1,2,1)]")
    assert evaluate(e3).approx(5) == "4.52783"


def test_parse_rational_literals():
    assert evaluate(parse_expression("3691/1000")) == Fraction(3691, 1000)
    assert evaluate(parse_expression("3.691")) == Fraction(3691, 1000)
    assert evaluate(parse_expression("-5")) == -5
    assert evaluate(parse_expression("4-2/11*[0;(1,2)]")) == QuadExt(46, -2, 11, 3)


def test_parse_errors_carry_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression("[0;1,(])")
    assert err.value.token == "]"
    assert err.value.line == 1 and err.value.col == 7
    with pytest.raises(ExprSyntaxError):
        parse_expression("[0;1,2")
    with pytest.raises(ExprSyntaxError):
        parse_expression("[0;1]extra")


@pytest.mark.parametrize(
    "parse, text, at",
    [
        (parse_expression, "1/2 + [0;1,2]\n  + 3 ]", ("]", 2, 7)),
        (parse_expression, "<(1)|2*|(1)> + 1", ("+", 1, 14)),
        (parse_cf, "[0;1,(2)]\n\n  7", ("7", 3, 3)),
        (parse_biseq, "<(1) | 2* | (1)>\n>", (">", 2, 1)),
        (parse_word, "1,2,\n3 4", ("4", 2, 3)),
    ],
)
def test_trailing_input_is_refused_at_its_token(parse, text, at):
    with pytest.raises(ExprSyntaxError, match="^trailing input at line") as err:
        parse(text)
    assert (err.value.token, err.value.line, err.value.col) == at


# the preperiod's list reader leaves a comma that no number follows to the
# cf grammar, which then wants a period
@pytest.mark.parametrize(
    "text, at",
    [
        ("[0;]", ("]", 1, 4)),
        ("[0;1,]", ("]", 1, 6)),
        ("[0;-1]", ("-", 1, 4)),
        ("[0;1,-2]", ("-", 1, 6)),
        ("  [0;\n 1,]", ("]", 2, 4)),
    ],
)
@pytest.mark.parametrize("parse", [parse_cf, parse_expression])
def test_missing_quotient_is_refused_at_its_token(parse, text, at):
    with pytest.raises(ExprSyntaxError, match="^expected a partial quotient or a period at") as err:
        parse(text)
    assert (err.value.token, err.value.line, err.value.col) == at


def test_finite_continued_fraction_inside_an_expression(capsys):
    assert evaluate(parse_expression("[0;2,1]")) == Fraction(1, 3)
    assert evaluate(parse_expression("2*[1;2,2]-1/5")) == Fraction(13, 5)
    assert main(["eval", "[0;2,1]"]) == 0
    assert capsys.readouterr() == ("1/3 ≈ 0.3333333\n", "")


@pytest.mark.parametrize("text, col", [("²", 1), ("[0;1,²]", 6), ("1²", 2)])
def test_non_decimal_digit_is_a_positioned_syntax_error(capsys, text, col):
    # "²" is a Unicode digit that int() refuses
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression(text)
    assert err.value.token == "²"
    assert err.value.line == 1 and err.value.col == col
    assert main(["eval", text]) == 1
    assert capsys.readouterr().err.startswith("syntax error")


# a run of more than 4300 digits is refused at its token, whatever the
# interpreter's own int-to-str limit
CAPPED = "^number exceeds the cap of 4300 digits at line 1, column {}: "


@pytest.mark.parametrize(
    "form, col", [("{}", 1), ("0.{}", 1), ("{}.5", 1), ("1/{}", 3), ("2*[0;1,{}]", 8)],
    ids=["integer", "decimal", "integer part", "fraction", "quotient"],
)
def test_number_literals_are_capped_at_4300_digits(capsys, form, col):
    at_cap = form.format("9" * 4300)
    value = evaluate(parse_expression(at_cap))
    if "[" not in form:
        assert value == Fraction(at_cap)
    over = form.format("9" * 4301)
    with pytest.raises(ExprSyntaxError, match=CAPPED.format(col)) as err:
        parse_expression(over)
    assert "9" * 4301 in err.value.token
    assert main(["eval", over]) == 1
    out, stderr = capsys.readouterr()
    assert out == "" and stderr.count("\n") == 1
    assert re.match("syntax error: " + CAPPED.format(col)[1:], stderr)


def test_words_are_capped_at_4300_digits_a_symbol(capsys):
    assert parse_word("2,1,2,1," + "9" * 4300)[-1] == int("9" * 4300)
    with pytest.raises(ExprSyntaxError, match=CAPPED.format(9)):
        parse_word("2,1,2,1," + "9" * 4301)
    assert main(["surgery", "2,1,2,1," + "9" * 4301, "--n1", "1", "--n2", "3"]) == 1
    assert re.match("syntax error: " + CAPPED.format(9)[1:], capsys.readouterr().err)


def test_parse_biseq():
    seq = parse_biseq("<(2,1) | 1,2,3,3*,3,2,1 | (1,2)>")
    assert seq == BiSeq((2, 1), (1, 2, 3, 3, 3, 2, 1), 3, (1, 2))
    assert str(seq) == "<(2,1) | 1,2,3,3*,3,2,1 | (1,2)>"
    with pytest.raises(ExprSyntaxError):
        parse_biseq("<(2,1) | 1,2,3 | (1,2)>")  # no origin
    with pytest.raises(ExprSyntaxError):
        parse_biseq("<(2,1) | 1*,2,3* | (1,2)>")  # two origins


def test_parse_word():
    assert parse_word("2,1,2,1,3") == (2, 1, 2, 1, 3)
    with pytest.raises(ExprSyntaxError):
        parse_word("2,,1")


cf_literals = st.one_of(
    st.builds(
        FiniteCF,
        st.integers(min_value=-5, max_value=5),
        st.lists(st.integers(1, 6), min_size=0, max_size=6).map(tuple),
    ),
    st.builds(
        EPCF,
        st.integers(min_value=-5, max_value=5),
        st.lists(st.integers(1, 6), min_size=0, max_size=5).map(tuple),
        st.lists(st.integers(1, 6), min_size=1, max_size=4).map(tuple),
    ),
)

rationals = st.fractions(max_denominator=40).filter(lambda q: q != 0)

terms = st.one_of(
    st.builds(Term, rationals, st.none()),
    st.builds(Term, rationals, cf_literals),
)


def _format_coef(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_expression(expr: SumExpr) -> str:
    """The text of a sum expression, in the grammar parse_expression reads."""
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


@given(st.lists(terms, min_size=1, max_size=3).map(tuple).map(SumExpr))
@settings(max_examples=500)
def test_format_parse_round_trip(expr):
    assert parse_expression(format_expression(expr)) == expr


@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple),
    st.lists(st.integers(1, 4), min_size=1, max_size=6).map(tuple),
    st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple),
    st.data(),
)
@settings(max_examples=200)
def test_biseq_format_parse_round_trip(lp, core, rp, data):
    origin = data.draw(st.integers(0, len(core) - 1))
    seq = BiSeq(lp, core, origin, rp)
    assert parse_biseq(str(seq)) == seq


def test_biseq_expression():
    e = parse_expression("<(1) | 2* | (1)>")
    assert isinstance(e, BiSeqExpr)
    with pytest.raises(ValueError):
        evaluate(e)


def _reference_tokens(text):
    """The lexer's tokens, or its error's (line, col, token), one character at a time."""
    tokens, line, col, i = [], 1, 1, 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line, col, i = line + 1, 1, i + 1
        elif ch.isspace():
            col, i = col + 1, i + 1
        elif ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            if text[j : j + 1] == "." and text[j + 1 : j + 2].isdecimal():
                j += 1
                while j < len(text) and text[j].isdecimal():
                    j += 1
            tokens.append(("NUM", text[i:j], line, col))
            col, i = col + j - i, j
        elif ch in "[];,()<>|*+-/":
            tokens.append((ch, ch, line, col))
            col, i = col + 1, i + 1
        else:
            return line, col, ch
    return tokens + [("END", "", line, col)]


@given(st.text(st.sampled_from("0123456789.[];,()<>|*+-/ \n\t\r\u00a0\u2003²٣xZé_"), max_size=40))
@settings(max_examples=500)
def test_lexer_matches_the_character_scanner(text):
    try:
        got = _Lexer(text).tokens
    except ExprSyntaxError as e:
        got = e.line, e.col, e.token
    assert got == _reference_tokens(text)
