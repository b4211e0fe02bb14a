"""The frozen value classes keep the contract of @dataclass(frozen=True),
and importing the CLI loads neither dataclasses nor inspect."""

import dataclasses
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import lagspec
from lagspec.bisequence import BiSeq, lambda_at, sup_lambda
from lagspec.certify import (
    BoundCertificate,
    Constraints,
    Pattern,
    audit_not_attained,
    gap_constraints,
    pattern_necessity,
    site_lambda_bounds,
)
from lagspec.cfrac import EPCF, FiniteCF, distance_bounds
from lagspec.constructions import (
    alpha0_prefix,
    attainable_from_periodic,
    build_a0,
    gap_left_endpoint,
    surgery,
)
from lagspec.parsing import BiSeqExpr, SumExpr, parse_expression
from lagspec.quadfield import _Record


def _samples():
    """One instance of each of the 16 value classes, built by the library."""
    A, cons, pattern = build_a0(), gap_constraints(), Pattern((3, 1), 0)
    expr = parse_expression("2/3*[1;2,(1,3)] + [0;4] + 1/5")
    return [
        FiniteCF(2, (1, 3)),
        EPCF(0, (2, 1), (1, 2)),
        distance_bounds(3),
        A,
        lambda_at(A, 1),
        sup_lambda(A),
        cons,
        pattern,
        site_lambda_bounds(pattern, Constraints(3), 4),
        pattern_necessity(Fraction(3691, 1000), cons, 9, 5),
        audit_not_attained(alpha0_prefix(2), gap_left_endpoint(), start=3),
        surgery((2, 1, 2, 1, 3), 1, 3),
        attainable_from_periodic((2, 2), (2, 1), check_m=2)[1],
        expr,
        expr.terms[0],
        parse_expression(str(A)),
    ]


SAMPLES = _samples()


def _twin(cls):
    """A @dataclass(frozen=True) with cls's annotations, defaults and __post_init__."""
    names = list(cls.__annotations__)
    body = {k: v for k, v in vars(cls).items() if k in names or k == "__post_init__"}
    body.update(__annotations__=dict(cls.__annotations__), __qualname__=cls.__qualname__)
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), body)), names


def test_samples_cover_the_value_classes():
    classes = {type(x) for x in SAMPLES}
    assert len(classes) == 16
    assert all(issubclass(cls, _Record) for cls in classes)


@pytest.mark.parametrize("sample", SAMPLES, ids=lambda x: type(x).__name__)
def test_value_class_matches_frozen_dataclass(sample):
    cls = type(sample)
    twin, names = _twin(cls)
    values = [getattr(sample, f) for f in names]
    defaults = [f for f in names if f in vars(cls)]
    required = values[: len(values) - len(defaults)]
    calls = [  # positional, keyword, mixed and defaulted construction
        (values, {}),
        ([], dict(zip(names, values))),
        (values[:1], dict(zip(names[1:], values[1:]))),
        (required, {}),
    ]
    for args, kwargs in calls:
        x, t = cls(*args, **kwargs), twin(*args, **kwargs)
        assert repr(x) == repr(t) and hash(x) == hash(t)
        assert (x == sample) == (t == twin(*values)) and (x != sample) == (t != twin(*values))
        assert x != t and t != x and not x == t  # instances of another class never compare equal
        assert x != object() and x != tuple(values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(sample, name, None)
        with pytest.raises(AttributeError):
            delattr(sample, name)
    with pytest.raises(AttributeError):
        sample.unknown = 1
    for args, kwargs in [
        (values + [None], {}),  # surplus
        (required[:-1], {}),  # missing
        (values, {"unknown": None}),
        (values, {names[0]: values[0]}),  # one field given twice
    ]:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_defaults_and_post_init_checks():
    assert FiniteCF(3) == FiniteCF(3, ()) and hash(FiniteCF(3)) == hash(FiniteCF(3, ()))
    assert FiniteCF(1, [2, 3]).tail == (2, 3) and repr(FiniteCF(1, [2])) == "FiniteCF(a0=1, tail=(2,))"
    assert Constraints(2) == Constraints(2, frozenset())
    assert BiSeq([2, 1], [1, 2], 0, [1]) == BiSeq((2, 1), (1, 2), 0, (1,))
    A = build_a0()
    assert SumExpr(A) != BiSeqExpr(A) and not SumExpr(A) == BiSeqExpr(A)  # equal fields, two classes
    for build in [
        lambda: EPCF(0, (1,), ()),  # empty period
        lambda: FiniteCF(0, (1, 0)),
        lambda: Constraints(0),
        lambda: Constraints(2, [(3,)]),
        lambda: Pattern((), 0),
        lambda: BiSeq((1,), (1,), 1, (1,)),
    ]:
        with pytest.raises(ValueError):
            build()
    with pytest.raises(ValueError):
        BoundCertificate(Pattern((1,), 0), Constraints(1), 1, Fraction(2), Fraction(1))


def test_cached_table_leaves_equality_and_hash_alone():
    cons, fresh = gap_constraints(), gap_constraints()
    before = hash(cons)
    assert "_table" not in vars(cons)
    assert cons._walk((1, 2, 1)) is not None  # fills the cached automaton
    assert "_table" in vars(cons)
    assert hash(cons) == before == hash(fresh) and cons == fresh and repr(cons) == repr(fresh)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter: pytest and hypothesis load both modules themselves
    src = os.path.dirname(os.path.dirname(os.path.abspath(lagspec.__file__)))
    code = (
        "import sys; before = set(sys.modules); import lagspec.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    added = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "lagspec.cli" in added
    assert not {"dataclasses", "inspect"} & set(added), added
