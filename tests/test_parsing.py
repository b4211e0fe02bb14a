import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lagspec.bisequence import BiSeq
from lagspec.cfrac import EPCF, FiniteCF, eval_finite, eval_periodic
from lagspec.cli import main
from lagspec.parsing import (
    ExprSyntaxError,
    Term,
    evaluate,
    parse_biseq,
    parse_expression,
    parse_word,
    _Lexer,
    _parse_biseq_body,
    _parse_sum,
    _read,
    _whole,
)
from lagspec.quadfield import MixedRadicandError, QuadExt, QuadSum


def test_parse_cf_examples():
    # a lone continued fraction is a sum of one term with coefficient 1, from
    # the one-pass reader and from the token parser alike
    for text, cf in [
        ("[0;(1,2)]", EPCF(0, (), (1, 2))),
        ("[3;3,3,2,1,(1,2)]", EPCF(3, (3, 3, 2, 1), (1, 2))),
        ("[0;2,1]", FiniteCF(0, (2, 1))),
        ("[3]", FiniteCF(3, ())),
        ("[-2;1,1]", FiniteCF(-2, (1, 1))),
        (" [ 0 ; 1 , ( 1 , 2 ) ] ", EPCF(0, (1,), (1, 2))),
    ]:
        assert parse_expression(text) == _whole(text, _parse_sum) == (Term(Fraction(1), cf),)


def test_parse_sum():
    e = parse_expression("[3;3,3,2,1,(1,2)]+[0;2,1,(1,2)]")
    assert isinstance(e, tuple) and len(e) == 2
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
        (parse_expression, "[0;1,(2)]\n\n  7", ("7", 3, 3)),
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
@pytest.mark.parametrize("parse", [parse_expression])
def test_missing_quotient_is_refused_at_its_token(parse, text, at):
    with pytest.raises(ExprSyntaxError, match="^expected a partial quotient or a period at") as err:
        parse(text)
    assert (err.value.token, err.value.line, err.value.col) == at


@pytest.mark.parametrize(
    "parse, text, message, at",
    [
        (parse_expression, "1 2", "trailing input", ("2", 1, 3)),
        (parse_expression, "1 .5", "unexpected character", (".", 1, 3)),
        (parse_expression, "1. 5", "unexpected character", (".", 1, 2)),
        (parse_expression, "[0;1 2]", "expected ']'", ("2", 1, 6)),
        (parse_biseq, "<(1) | 1 2* | (1)>", "expected '|'", ("2", 1, 10)),
    ],
)
def test_whitespace_does_not_split_a_number(parse, text, message, at):
    with pytest.raises(ExprSyntaxError, match=f"^{re.escape(message)} at line") as err:
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


@pytest.mark.parametrize(
    "parse, text, col",
    [
        (parse_expression, "2*[0;1,{}]", 8),
        (parse_expression, "<(1) | 1,{}* | (1)>", 10),
        (parse_biseq, "<(1) | 1,{}* | (1)>", 10),
    ],
)
def test_the_cap_holds_without_the_interpreters_own_limit(parse, text, col):
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        pytest.skip("no int-to-str limit to lift before Python 3.11")
    limit = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        assert parse(text.format("9" * 4300))
        with pytest.raises(ExprSyntaxError, match=CAPPED.format(col)):
            parse(text.format("9" * 4301))
    finally:
        set_limit(limit)


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


def format_expression(expr: tuple[Term, ...]) -> str:
    """The text of a sum expression, in the grammar parse_expression reads."""
    parts: list[str] = []
    for t in expr:
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


@given(st.lists(terms, min_size=1, max_size=3).map(tuple))
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
    assert e == BiSeq((1,), (2,), 0, (1,))
    with pytest.raises(ValueError, match="^a sequence literal has no numeric value$"):
        evaluate(e)


def _operator_sum(expr: tuple[Term, ...]) -> QuadSum:
    """The value of a sum built through the operators: each term's value times its
    coefficient, added onto QuadSum(0) one term at a time."""
    total = QuadSum(QuadExt(0))
    for t in expr:
        if t.cf is None:
            total = total + t.coef
        elif isinstance(t.cf, EPCF):
            total = total + eval_periodic(t.cf) * QuadExt.from_rational(t.coef)
        else:
            total = total + QuadExt.from_rational(eval_finite(t.cf)) * QuadExt.from_rational(t.coef)
    return total


def _value_outcome(value_of, expr):
    """str, terms, decimal and repr of value_of(expr), or the type and message of its error."""
    try:
        v = value_of(expr)
    except MixedRadicandError as e:
        return type(e), e.args
    return str(v), [(t.a, t.b, t.c, t.d) for t in v.terms()], v.approx(7), repr(v)


# periods over the fields of sqrt(5), sqrt(2), sqrt(3) and sqrt(13), two each, so that
# terms of one field meet in a sum and a sum of three fields is common
shared_fields = st.builds(
    EPCF,
    st.integers(min_value=-2, max_value=3),
    st.lists(st.integers(1, 3), max_size=2).map(tuple),
    st.sampled_from([(1,), (1, 1), (2,), (2, 2), (1, 2), (2, 1), (3,), (3, 3)]),
)
fold_terms = st.one_of(
    st.builds(Term, st.fractions(-3, 3, max_denominator=6), st.none()),
    st.builds(
        Term,
        st.fractions(-3, 3, max_denominator=6),  # 0 included
        st.one_of(shared_fields, shared_fields, cf_literals),
    ),
)


@pytest.mark.parametrize(
    "text, value",
    [
        ("[1;(1)]+2+[0;(2)]", "-1+sqrt(2) + (5+sqrt(5))/2"),
        ("[0;(3)]+1/2+[0;(2)]+1/3", "(-2+3*sqrt(2))/3 + (-2+sqrt(13))/2"),
        ("0*[0;(2)]+[0;(3)]", "(-3+sqrt(13))/2"),
        # the printed split of a sum follows the order of its terms
        ("[2;(1)]+[0;(2)]", "-1+sqrt(2) + (3+sqrt(5))/2"),
        ("[0;(2)]+2+[0;(1)]", "1+sqrt(2) + (-1+sqrt(5))/2"),
    ],
)
def test_a_sum_is_folded_left_to_right(text, value):
    assert str(evaluate(parse_expression(text))) == value


def test_a_partial_sum_over_three_fields_is_refused():
    # though the last term cancels the third field
    with pytest.raises(MixedRadicandError, match="^sum spans more than two radicands$"):
        evaluate(parse_expression("[0;(2)]+[0;(3)]+[0;(5)]-[0;(5)]"))


@given(st.lists(fold_terms, min_size=1, max_size=5).map(tuple))
@example(parse_expression("[1;(1)]+2+[0;(2)]"))
@example(parse_expression("[0;(3)]+1/2+[0;(2)]+1/3"))
@example(parse_expression("[0;(2)]+[0;(3)]+[0;(5)]-[0;(5)]"))
@example(parse_expression("0*[0;(2)]+[0;(3)]"))
@settings(max_examples=500)
def test_evaluate_folds_as_the_operators_do(expr):
    assert _value_outcome(evaluate, expr) == _value_outcome(_operator_sum, expr)


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


# The one-pass reader against the token parser, on literals drawn from the
# grammar with whitespace between tokens and digits of three scripts, and on
# the same literals with one character inserted, deleted or replaced.
SCRIPTS = ("0123456789", "٠١٢٣٤٥٦٧٨٩", "०१२३४५६७८९")
numerals = st.builds(
    lambda n, digits: str(n).translate(str.maketrans(SCRIPTS[0], digits)),
    st.integers(0, 30),
    st.sampled_from(SCRIPTS),
)
gaps = st.text(st.sampled_from(" \t\n\u00a0"), max_size=2)


def _numeral_list(draw):
    """One to four numerals between commas, and now and then none, which the grammar refuses."""
    n = draw(st.sampled_from([1, 1, 2, 3, 4, 0]))
    return [t for k in range(n) for t in ([","] * bool(k) + [draw(numerals)])]


@st.composite
def cf_tokens(draw):
    out = ["[", *["-"] * draw(st.booleans()), draw(numerals)]
    form = draw(st.sampled_from(["a0", "finite", "periodic"]))
    if form == "finite":
        out += [";", *_numeral_list(draw)]
    elif form == "periodic":
        pre = _numeral_list(draw) + [","] if draw(st.booleans()) else []
        out += [";", *pre, "(", *_numeral_list(draw), ")"]
    return out + ["]"]


@st.composite
def sum_tokens(draw):
    out = []
    for k in range(draw(st.integers(1, 3))):
        if k:
            out.append(draw(st.sampled_from("+-")))
        form = draw(st.sampled_from(["number", "cf", "product"]))
        if form != "cf":
            out += ["-"] * draw(st.booleans()) + [draw(numerals)]
            shape = draw(st.sampled_from(["integer", "decimal", "fraction"]))
            if shape == "decimal":
                out[-1] += "." + draw(numerals)
            elif shape == "fraction":
                out += ["/", draw(numerals)]
        if form == "product":
            out.append("*")
        if form != "number":
            out += draw(cf_tokens())
    return out


@st.composite
def biseq_tokens(draw):
    core = [draw(numerals) for _ in range(draw(st.integers(1, 4)))]
    # one origin marker, and now and then none or a second one
    n_marks = draw(st.sampled_from([1, 1, 1, 0, 2]))
    marks = {draw(st.integers(0, len(core) - 1)) for _ in range(n_marks)}
    cells = [t for k, n in enumerate(core) for t in [","] * bool(k) + [n] + ["*"] * (k in marks)]
    left, right = _numeral_list(draw), _numeral_list(draw)
    return ["<", "(", *left, ")", "|", *cells, "|", "(", *right, ")", ">"]


@st.composite
def mutated(draw, tokens):
    text = draw(gaps) + "".join(tok + draw(gaps) for tok in draw(tokens))
    i = draw(st.integers(0, len(text)))
    char = draw(st.sampled_from("0٣.[];,()<>|*+-/ \n\u00a0²x"))
    how = draw(st.sampled_from(["keep", "insert", "delete", "replace"]))
    if how == "keep":
        return text
    return text[:i] + ("" if how == "delete" else char) + text[i + (how != "insert") :]


def _outcome(parse, text):
    """("read", parse(text)), or "refused" and the type, arguments and position of
    the ValueError it raises."""
    try:
        return "read", parse(text)
    except ValueError as e:
        return "refused", type(e), e.args, vars(e)


@given(st.one_of(mutated(sum_tokens()), mutated(biseq_tokens())))
@example("[0;]")
@example("-3/2*[-1;(2)]")
@example("<(2,1) | 1,2,3*,3*,3 | (1,2)>")
@example("<(1)|1|(1)>+1")
@settings(max_examples=1000)
def test_one_pass_reader_agrees_with_the_token_parser(text):
    expected = _outcome(lambda t: _whole(t, _parse_sum), text)
    expected_seq = _outcome(lambda t: _whole(t, _parse_biseq_body), text)
    # the reader reads exactly the texts the token parser reads, to equal values,
    # and every refusal is the token parser's, with its line, column and token
    assert (_read(text) is None) == (expected[0] == "refused")
    assert _outcome(parse_expression, text) == expected
    assert _outcome(parse_biseq, text) == expected_seq
