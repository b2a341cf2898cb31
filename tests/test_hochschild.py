import pytest

from borderedfloer import pmc as pmc_mod
from borderedfloer.errors import (BoundaryMismatch, NotAComplex,
                                  SchemaViolation)
from borderedfloer.hochschild import (F2ChainComplex, complex_from_json,
                                      graded_euler, hochschild_generators)
from borderedfloer.laurent import LaurentPolynomial
from borderedfloer.structures import (direct_sum, elementary_da, shift,
                                      structure_from_json)

import importlib.resources as resources

Z1 = pmc_mod.genus1()
RZ1 = pmc_mod.reverse(Z1)


def dehn_twist_da():
    import json
    path = resources.files("borderedfloer").joinpath("data").joinpath(
        "module_dehn_twist_da.json")
    return structure_from_json(json.loads(path.read_text()))


def test_hochschild_keeps_diagonal_idempotents():
    ch = hochschild_generators(dehn_twist_da())
    names = {g.name for g in ch.generators}
    assert names == {"y"}  # x has idempotents ({2}, {1}) and is dropped
    (g,) = ch.generators
    assert g.strands_grading == 0
    assert g.grading == 1  # gr 1 shifted by i = 0
    assert graded_euler(ch) == LaurentPolynomial({0: -1})


def test_hochschild_strands_grading_shift():
    m = elementary_da(RZ1, Z1, frozenset(), frozenset(), 0, name="lo")
    ch = hochschild_generators(m)
    (g,) = ch.generators
    assert g.strands_grading == -1
    assert g.grading == (0 + -1) % 2 == 1
    assert graded_euler(ch) == LaurentPolynomial({-1: -1})
    full = elementary_da(RZ1, Z1, frozenset({1, 2}), frozenset({1, 2}), 0)
    assert graded_euler(hochschild_generators(full)) == \
        LaurentPolynomial({1: -1})


def test_hochschild_euler_additive_over_sums_and_shifts():
    a = elementary_da(RZ1, Z1, frozenset({1}), frozenset({1}), 0, name="p")
    b = elementary_da(RZ1, Z1, frozenset({2}), frozenset({2}), 1, name="q")
    total = direct_sum(a, b)
    assert graded_euler(hochschild_generators(total)) == \
        graded_euler(hochschild_generators(a)) + \
        graded_euler(hochschild_generators(b))
    assert graded_euler(hochschild_generators(shift(a))) == \
        -graded_euler(hochschild_generators(a))


def test_hochschild_boundary_mismatch():
    with pytest.raises(BoundaryMismatch):
        hochschild_generators(
            elementary_da(Z1, Z1, frozenset({1}), frozenset({1}), 0))


def test_complex_homology():
    cx = F2ChainComplex(["a", "b", "c"], {"a": 0, "b": 1, "c": 0},
                        {"a": {"b"}})
    assert cx.validate()
    assert cx.homology_dimensions() == {0: 1, 1: 0}
    assert cx.euler() == 1
    # two-step cancellation: d(a) = b + b', d(c) = b'
    cx2 = F2ChainComplex(["a", "b", "b'", "c"],
                         {"a": 0, "b": 1, "b'": 1, "c": 0},
                         {"a": {"b", "b'"}, "c": {"b'"}})
    assert cx2.homology_dimensions() == {0: 0, 1: 0}


def test_complex_validation_errors():
    with pytest.raises(NotAComplex):
        F2ChainComplex(["a", "b"], {"a": 0, "b": 0},
                       {"a": {"b"}}).homology_dimensions()
    with pytest.raises(NotAComplex):
        F2ChainComplex(["a", "b", "c"], {"a": 0, "b": 1, "c": 0},
                       {"a": {"b"}, "b": {"c"}}).validate()


def test_complex_json():
    cx = F2ChainComplex([("x", "a"), ("y", "b")],
                        {("x", "a"): 0, ("y", "b"): 1},
                        {("x", "a"): {("y", "b")}})
    obj = cx.to_json()
    assert obj["generators"][0]["name"] == "x*a"
    back = complex_from_json(obj)
    assert back.homology_dimensions() == cx.homology_dimensions()
    with pytest.raises(SchemaViolation):
        complex_from_json({"generators": [{"name": "a", "grading": 0}],
                           "differential": [{"source": "a", "targets": ["z"]}]})
