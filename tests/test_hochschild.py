import random

import pytest

from borderedfloer import pmc as pmc_mod
from borderedfloer.errors import (BoundaryMismatch, NotAComplex,
                                  SchemaViolation)
from borderedfloer.hochschild import (complex_from_json, graded_euler,
                                      hochschild_generators)
from borderedfloer.laurent import LaurentPolynomial
from borderedfloer.structures import (F2ChainComplex, ModuleGenerator,
                                      _f2_rank, direct_sum, elementary_da,
                                      shift, structure_from_json)

from oracles import f2_rank_by_span

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
    names = {g.name for g in ch}
    assert names == {"y"}  # x has idempotents ({2}, {1}) and is dropped
    (g,) = ch
    assert g.strands_grading == 0
    assert g.grading == 1  # gr 1 shifted by i = 0
    assert graded_euler(ch) == LaurentPolynomial({0: -1})


def test_hochschild_strands_grading_shift():
    m = elementary_da(RZ1, Z1, frozenset(), frozenset(), 0, name="lo")
    ch = hochschild_generators(m)
    (g,) = ch
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


def complex_of(grading, differential):
    """The complex on the keys of grading, in order, with d(x) =
    differential[x]."""
    return F2ChainComplex(
        None, None, [ModuleGenerator(x, None, None, g)
                     for x, g in grading.items()],
        {(x, ()): {(None, y) for y in d} for x, d in differential.items()})


def test_complex_homology():
    cx = complex_of({"a": 0, "b": 1, "c": 0}, {"a": {"b"}})
    assert cx.validate()["ok"]
    assert cx.homology_dimensions() == {0: 1, 1: 0}
    assert cx.euler() == 1
    # two-step cancellation: d(a) = b + b', d(c) = b'
    cx2 = complex_of({"a": 0, "b": 1, "b'": 1, "c": 0},
                     {"a": {"b", "b'"}, "c": {"b'"}})
    assert cx2.homology_dimensions() == {0: 0, 1: 0}


def test_f2_rank_matches_the_span_oracle():
    rng = random.Random(26)
    for _ in range(300):
        width = rng.randint(1, 7)
        rows = [rng.getrandbits(width) for _ in range(rng.randint(0, 7))]
        assert _f2_rank(rows) == f2_rank_by_span(rows), rows


def slid_complex(rng, pairs, free):
    """A complex whose homology has free[j] generators in grading j: pairs
    of generators p -> q of opposite gradings, and free generators with
    d = 0, mixed by handle slides.  A slide of x over z in one grading
    takes the basis element x to x + z: d(x) gains d(z), and every arrow
    into x gains one into z."""
    grading = [g for _ in range(pairs) for g in rng.choice(((0, 1), (1, 0)))]
    grading += [0] * free[0] + [1] * free[1]
    n = len(grading)
    col = [1 << (x + 1) if x < 2 * pairs and x % 2 == 0 else 0
           for x in range(n)]  # col[x] is d(x) as a bit set
    for _ in range(4 * n if n > 1 else 0):
        x, z = rng.sample(range(n), 2)
        if grading[x] == grading[z]:
            col[x] ^= col[z]
            col = [c ^ ((c >> x & 1) << z) for c in col]
    return complex_of(dict(enumerate(grading)),
                      {x: {y for y in range(n) if col[x] >> y & 1}
                       for x in range(n)})


def test_homology_of_slid_complexes():
    # the slides keep the rank of d at the number of pairs, so the homology
    # is the free generators
    rng = random.Random(26)
    for _ in range(100):
        pairs, free = rng.randint(0, 3), (rng.randint(0, 2), rng.randint(0, 2))
        cx = slid_complex(rng, pairs, free)
        rows = [sum(1 << y for _, y in terms) for terms in cx.ops.values()]
        assert f2_rank_by_span(rows) == pairs
        assert cx.homology_dimensions() == {0: free[0], 1: free[1]}


def test_complex_validation_errors():
    with pytest.raises(NotAComplex):
        complex_of({"a": 0, "b": 0}, {"a": {"b"}}).homology_dimensions()
    assert not complex_of({"a": 0, "b": 1, "c": 0},
                          {"a": {"b"}, "b": {"c"}}).validate()["ok"]


def test_complex_json():
    cx = complex_of({"x*a": 0, "y*b": 1}, {"x*a": {"y*b"}})
    obj = cx.to_json()
    assert obj["generators"][0]["name"] == "x*a"
    back = complex_from_json(obj)
    assert back.homology_dimensions() == cx.homology_dimensions()
    with pytest.raises(SchemaViolation):
        complex_from_json({"generators": [{"name": "a", "grading": 0}],
                           "differential": [{"source": "a", "targets": ["z"]}]})
