"""The one rule for each kind of argument (``quiver`` module docstring),
checked by a refusal matrix generated over the public callables.

Every parameter of a public callable that is an integer argument, a vector
or a weight, selected by name, is fed True, "3", 2.5, NaN, -1 and a numpy
integer in turn, the other arguments held at valid values; a vector or a
weight gets the value as its first entry.  A refusal must have the rule's
exception class and message; an accepted value must behave exactly as its
exact Python value, and every integer the call returns must be a Python int.
"""
from __future__ import annotations

import dataclasses
import inspect
import math
import numbers
import re
from fractions import Fraction

import numpy as np
import pytest

import necklacekit
from necklacekit import (
    Arrow,
    NecklaceWord,
    Path,
    Quiver,
    as_dim_vector,
    as_weight,
    classify,
    double,
    graded_homology_dim,
    karoubi_count,
    parameter_sum,
    paths_between,
    paths_of_length,
    sigma_membership,
)

CALOGERO = Quiver(2, (Arrow("a", 1, 2), Arrow("b", 2, 2)))
DOUBLE = double(CALOGERO)
ZERO_POINT = {
    arr.label: np.zeros((2, 2), dtype=complex) for arr in DOUBLE.arrows
}  # solves the moment equation at alpha = (2, 2), lambda = 0

# the kind of every parameter the matrix feeds, by name
KIND = {
    **dict.fromkeys(
        ("vertex_count", "length", "degree", "vertex", "source", "target", "seed", "max_iter", "k"),
        "int",
    ),
    **dict.fromkeys(("alpha", "box", "bound", "beta_i", "beta_j"), "vector"),
    "lam": "weight",
    "rep_type": "multiplicity",
}
# ``entries`` is a vector in as_dim_vector and a weight in as_weight, and
# parse_quiver_text's ``source`` names the text
KIND_IN = {
    ("as_dim_vector", "entries"): "vector",
    ("as_weight", "entries"): "weight",
    ("parse_quiver_text", "source"): None,
}

# a valid value of every parameter a matrix call passes, by name, and where
# a callable needs another one
VALID = {
    "q": CALOGERO,
    "quiver": CALOGERO,
    "vertex_count": 2,
    "arrows": (),
    "label": "a",
    "length": 2,
    "degree": 1,
    "vertex": 1,
    "source": 1,
    "target": 2,
    "seed": 0,
    "max_iter": 5,
    "k": 2,
    "text": "1,2",
    "alpha": (2, 2),
    "box": (2, 2),
    "bound": (2, 2),
    "beta_i": (1, 0),
    "beta_j": (0, 1),
    "same_simple": False,
    "entries": (2, 2),
    "lam": (0, 0),
    "rep_type": ((1, (2, 2)),),
    "point": ZERO_POINT,
}
VALID_IN = {
    "DoubleQuiver": {"arrows": DOUBLE.arrows, "base": CALOGERO},
    "as_weight": {"entries": (0, 0)},
}

# alpha may have entries of either sign here: it is reflected or classified
SIGNED = {"num_parameters", "support_connected", "classify_root", "in_fundamental_set", "reflect"}

# Quiver-free arithmetic on vectors the entry points have already checked,
# run inside their loops: no quiver to check a length against, and bilinear
# and weight_pairing take Fractions too
UNCHECKED = {"bilinear", "weight_pairing", "componentwise_leq", "componentwise_lt"}

# classes that only record results the library computed from checked values
RECORDS = {
    "ClassifyReport", "CoadjointVerdict", "LocalQuiverSetting", "MomentSolveResult",
    "RankReport", "RootClass", "SigmaMembership", "SliceCheck", "TwoAlphaCheck",
}


def _through_quiver(label, source, target):
    """An Arrow is a plain record; the Quiver holding it checks its ends."""
    return Quiver(2, (Arrow(label, source, target),))


def entry_points():
    """(name, callable) for every public callable the matrix feeds."""
    for names in necklacekit._EXPORTS.values():
        for name in names:
            obj = getattr(necklacekit, name)
            if name == "Arrow":
                yield name, _through_quiver
            elif callable(obj) and name not in UNCHECKED | RECORDS:
                yield name, obj
    yield "Path.trivial", Path.trivial
    yield "NecklaceWord.vertex_class", NecklaceWord.vertex_class


def kind_of(name: str, param: str) -> str | None:
    return KIND_IN.get((name, param), KIND.get(param))


def fed_parameters(name: str, fn) -> list[str]:
    try:
        params = inspect.signature(fn).parameters
    except (TypeError, ValueError):  # an exception class or a type alias
        return []
    return [p for p in params if kind_of(name, p)]


def valid_arguments(name: str, fn) -> dict:
    params = inspect.signature(fn).parameters.values()
    own = VALID_IN.get(name, {})
    valid = {**VALID, **own}
    return {
        p.name: valid[p.name]
        for p in params
        if p.default is inspect.Parameter.empty or p.name in KIND or p.name in own
    }


def placed(kind: str, default, value):
    """The argument that feeds value to a parameter of this kind."""
    if kind == "int":
        return value
    if kind == "multiplicity":
        return ((value, default[0][1]),) + default[1:]
    return (value,) + tuple(default[1:])


VALUES = {
    "bool": True,
    "str": "3",
    "float": 2.5,
    "nan": math.nan,
    "negative": -1,
    "numpy-int": np.int64(2),
}

# what the integer rule calls each parameter, and the ValueError of -1
INT_NAME = {"vertex_count": "vertex count", "source": "vertex", "target": "vertex"}
NEGATIVE = {
    "vertex_count": "^vertex count must be a positive integer$",
    "length": "^length must be nonnegative$",
    "degree": "^degree must be nonnegative$",
    "vertex": r"^vertex -1 out of range 1\.\.2$",
    "seed": "^seed must be >= 0, got -1$",
    "max_iter": "^max_iter must be an int >= 1, got -1$",
    "k": r"^(dimension vector|weight) '1,2' has 2 entries, expected -1$",
}
NEGATIVE["source"] = NEGATIVE["target"] = NEGATIVE["vertex"]

# every message of the rules, which an accepted value must not meet
RULE_MESSAGES = re.compile(
    "must be an int, got|has a non-integer entry|has an entry that is not a real number"
    "|has a non-finite entry|must be nonnegative|out of range|is not an integer >= 1"
)


def refusal(name: str, param: str, label: str) -> tuple[type, str] | None:
    """The exception class and message pattern of a refused cell, or None
    for a cell the rule accepts."""
    kind, value = kind_of(name, param), VALUES[label]
    if label == "numpy-int":
        return None
    if kind == "int":
        owner = "arrow 'a': " if name == "Arrow" else ""
        if label == "negative":
            return ValueError, NEGATIVE[param].replace("^", "^" + owner, 1)
        called = INT_NAME.get(param, param)
        return TypeError, rf"^{owner}{called} must be an int, got {re.escape(repr(value))}$"
    if kind == "vector":
        if label == "negative":
            if name in SIGNED:
                return None
            return ValueError, r"^dimension vector \(-1, .*\) has a negative entry$"
        return ValueError, r"^dimension vector \(.*\) has a non-integer entry$"
    if kind == "weight":
        if label in ("bool", "str"):
            return TypeError, r"^weight \(.*\) has an entry that is not a real number$"
        if label == "nan":
            return ValueError, r"^weight \(nan, 0\) has a non-finite entry$"
        return None
    return ValueError, rf"^multiplicity {re.escape(repr(value))} is not an integer >= 1$"


def exact(kind: str, value):
    """The exact Python value an accepted value must behave as."""
    return Fraction(value) if kind == "weight" else int(value)


CASES = [
    pytest.param(name, fn, param, label, id=f"{name}-{param}-{label}")
    for name, fn in entry_points()
    for param in fed_parameters(name, fn)
    for label in VALUES
]


def outcome(call):
    try:
        result = call()
    except (TypeError, ValueError) as exc:
        return "raises", type(exc), str(exc)
    return "returns", repr(result), result


def assert_python_ints(x) -> None:
    if isinstance(x, bool):
        return
    if isinstance(x, numbers.Integral):
        assert type(x) is int, f"{x!r} is a {type(x).__name__}"
    elif isinstance(x, (tuple, list)):
        for y in x:
            assert_python_ints(y)
    elif isinstance(x, dict):
        for key, y in x.items():
            assert_python_ints(key)
            assert_python_ints(y)
    elif dataclasses.is_dataclass(x) and not isinstance(x, type):
        for field in dataclasses.fields(x):
            assert_python_ints(getattr(x, field.name))


def test_the_matrix_feeds_every_entry_point_with_such_a_parameter():
    fed = {name for name, fn in entry_points() if fed_parameters(name, fn)}
    assert len(fed) >= 40 and len(CASES) >= 6 * 50
    # every exported callable with such a parameter is fed or named above
    for names in necklacekit._EXPORTS.values():
        for name in names:
            obj = getattr(necklacekit, name)
            if callable(obj) and fed_parameters(name, obj):
                assert name in fed | UNCHECKED | RECORDS, name


@pytest.mark.parametrize("name, fn, param, label", CASES)
def test_refusal_matrix(name, fn, param, label):
    args = valid_arguments(name, fn)
    kind, value = kind_of(name, param), VALUES[label]

    def call(fed):
        return fn(**{**args, param: placed(kind, args[param], fed)})

    refused = refusal(name, param, label)
    if refused is not None:
        error, message = refused
        with pytest.raises(error, match=message):
            call(value)
        return
    got = outcome(lambda: call(value))
    assert got[:2] == outcome(lambda: call(exact(kind, value)))[:2]
    if got[0] == "raises":
        # a domain refusal of the value, as for its exact Python value
        assert not RULE_MESSAGES.search(got[2])
    else:
        assert_python_ints(got[2])
    if kind == "vector" and label == "negative":  # a signed vector
        assert got[0] == "returns"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda q: sigma_membership(q, (True, 2), (-2, 1)), ValueError,
         r"^dimension vector \(True, 2\) has a non-integer entry$"),
        (lambda q: classify(q, (1, 2), ("-2", 1)), TypeError,
         r"^weight \('-2', 1\) has an entry that is not a real number$"),
        (lambda q: paths_of_length(q, True), TypeError, "^length must be an int, got True$"),
        (lambda q: graded_homology_dim(q, 0, 1.5), TypeError, "^length must be an int, got 1.5$"),
        (lambda q: Quiver(2.0, ()), TypeError, r"^vertex count must be an int, got 2\.0$"),
        (lambda q: Quiver(2, (Arrow("a", True, 1),)), TypeError,
         "^arrow 'a': vertex must be an int, got True$"),
        (lambda q: Path.trivial(q, True), TypeError, "^vertex must be an int, got True$"),
        (lambda q: NecklaceWord.vertex_class(double(q), True), TypeError,
         "^vertex must be an int, got True$"),
        (lambda q: paths_between(q, 1.0, 2, 1), TypeError, r"^vertex must be an int, got 1\.0$"),
        (lambda q: paths_of_length(q, 2.0), TypeError, r"^length must be an int, got 2\.0$"),
        (lambda q: karoubi_count(q, 0, "3"), TypeError, "^length must be an int, got '3'$"),
        (lambda q: as_dim_vector(q, ("x", 1)), ValueError,
         r"^dimension vector \('x', 1\) has a non-integer entry$"),
        (lambda q: as_weight(q, (None, 1)), TypeError,
         r"^weight \(None, 1\) has an entry that is not a real number$"),
        # a decomposition's multiplicities follow a semisimple type's
        (lambda q: parameter_sum(q, (((1, 0), 2.5),)), ValueError,
         "^multiplicity 2.5 is not an integer >= 1$"),
    ],
    ids=[
        "sigma-bool-entry", "classify-str-weight", "paths-bool-length", "derham-float-length",
        "quiver-float-count", "arrow-bool-end", "trivial-bool-vertex", "vertex-class-bool",
        "paths-between-float-vertex", "paths-integral-float-length", "karoubi-str-length",
        "vector-str-entry", "weight-none-entry", "parameter-sum-float-multiplicity",
    ],
)
def test_inputs_once_accepted_or_refused_by_python_are_refused_by_the_rules(
    calogero, call, error, message
):
    with pytest.raises(error, match=message):
        call(calogero)


def test_numpy_numbers_build_python_views_counts_and_weights(calogero):
    # the trivial path printed as "eTrue" and the count was a numpy integer
    trivial = Path.trivial(calogero, np.int64(1))
    assert str(trivial) == "e1" and type(trivial.vertex) is int
    assert trivial == Path.trivial(calogero, 1) and hash(trivial) == hash(Path.trivial(calogero, 1))
    vertex_class = NecklaceWord.vertex_class(double(calogero), np.int32(2))
    assert str(vertex_class) == "[e2]" and type(vertex_class.vertex) is int
    count = karoubi_count(calogero, np.int64(0), np.int64(3))
    assert count == karoubi_count(calogero, 0, 3) and type(count) is int
    total = parameter_sum(calogero, (((1, 2), np.int64(2)), ((1, 0), 1.0)))
    assert total == parameter_sum(calogero, (((1, 2), 2), ((1, 0), 1))) and type(total) is int
    # a finite real of any float type is a weight entry, converted exactly
    weight = as_weight(calogero, (np.float32(0.5), np.float64(-0.25)))
    assert weight == (Fraction(1, 2), Fraction(-1, 4)) and {*map(type, weight)} == {Fraction}
    q = Quiver(np.int64(2), (Arrow("a", np.int64(1), np.uint8(2)),))
    assert q == Quiver(2, (Arrow("a", 1, 2),))
    assert type(q.vertex_count) is int
    assert all(type(v) is int for arr in q.arrows for v in (arr.source, arr.target))
