import json
import random

import pytest

from borderedfloer import pmc as pmc_mod, strands
from borderedfloer.errors import (BasisMismatch, BoundaryMismatch,
                                  NotAComplex, SchemaViolation)
from borderedfloer.hochschild import graded_euler, hochschild_generators
from borderedfloer.laurent import LaurentPolynomial
from borderedfloer.structures import (F2ChainComplex, ModuleGenerator,
                                      TypeDStructure, _f2_rank, box_tensor,
                                      direct_sum, elementary_a, elementary_d,
                                      elementary_da, identity_aa, shift,
                                      structure_from_json)

from oracles import f2_rank_by_span

import importlib.resources as resources

Z1 = pmc_mod.genus1()
RZ1 = pmc_mod.reverse(Z1)


def bundled_module(name):
    path = resources.files("borderedfloer").joinpath("data").joinpath(name)
    return structure_from_json(json.loads(path.read_text()))


def test_hochschild_keeps_diagonal_idempotents():
    m = bundled_module("module_dehn_twist_da.json")
    # x has idempotents ({2}, {1}) and is dropped
    assert hochschild_generators(m) == (m.generators["y"],)
    assert graded_euler(m) == LaurentPolynomial({0: -1})  # gr 1 at i = 0


def test_hochschild_strands_grading_shift():
    # one chain in idempotent s sits at i = |s| - k with sign (-1)^(gr + i)
    for s, gr, euler in ((set(), 0, {-1: -1}), ({1}, 1, {0: -1}),
                         ({1, 2}, 0, {1: -1}), ({1, 2}, 1, {1: 1})):
        m = elementary_da(RZ1, Z1, s, s, gr, name="lo")
        assert graded_euler(m) == LaurentPolynomial(euler), (s, gr)
    assert graded_euler(elementary_da(RZ1, Z1, {1}, {2}, 0)) == 0


def test_hochschild_euler_additive_over_sums_and_shifts():
    a = elementary_da(RZ1, Z1, frozenset({1}), frozenset({1}), 0, name="p")
    b = elementary_da(RZ1, Z1, frozenset({2}), frozenset({2}), 1, name="q")
    assert graded_euler(direct_sum(a, b)) == graded_euler(a) + graded_euler(b)
    assert graded_euler(shift(a)) == -graded_euler(a)


def test_hochschild_boundary_mismatch():
    with pytest.raises(BoundaryMismatch):
        hochschild_generators(
            elementary_da(Z1, Z1, frozenset({1}), frozenset({1}), 0))


def test_hochschild_chains_need_a_da_structure():
    # an AA structure over (-Z, Z) has diagonal idempotents too, but no
    # Hochschild chains here
    for st in (elementary_d(Z1, {1}, 0), elementary_a(Z1, {1}, 0),
               identity_aa(Z1)):
        with pytest.raises(BasisMismatch, match="need a DA structure"):
            hochschild_generators(st)
        with pytest.raises(BasisMismatch):
            graded_euler(st)


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
    return complex_of({str(x): g for x, g in enumerate(grading)},
                      {str(x): {str(y) for y in range(n) if col[x] >> y & 1}
                       for x in range(n)})


def slid_complexes():
    """100 seeded slid complexes, each with its numbers of pairs and of free
    generators in each grading."""
    rng = random.Random(26)
    for _ in range(100):
        pairs, free = rng.randint(0, 3), (rng.randint(0, 2), rng.randint(0, 2))
        yield slid_complex(rng, pairs, free), pairs, free


def test_homology_of_slid_complexes():
    # the slides keep the rank of d at the number of pairs, so the homology
    # is the free generators
    for cx, pairs, free in slid_complexes():
        rows = [sum(1 << int(y) for _, y in terms) for terms in cx.ops.values()]
        assert f2_rank_by_span(rows) == pairs
        assert cx.homology_dimensions() == {0: free[0], 1: free[1]}


def test_complex_validation_errors():
    with pytest.raises(NotAComplex):
        complex_of({"a": 0, "b": 0}, {"a": {"b"}}).homology_dimensions()
    assert not complex_of({"a": 0, "b": 1, "c": 0},
                          {"a": {"b"}, "b": {"c"}}).validate()["ok"]


def test_complex_json():
    # the file of a complex gives back its generators, in order, and its
    # ops: on the slid complexes, on one with an empty targets entry, and on
    # A (x) D products, one of whose ops comes from the implicit unit
    unit = strands.StrandsBasisElement.make(Z1, [(1, 1)])
    unit_output_d = TypeDStructure(Z1, None, [
        ModuleGenerator("a", frozenset({1}), None, 0),
        ModuleGenerator("b", frozenset({1}), None, 1)],
        {("a", ()): {(unit, "b")}})
    solid_tori = box_tensor(bundled_module("module_solid_torus_a.json"),
                            bundled_module("module_solid_torus_d.json"))
    complexes = [cx for cx, _, _ in slid_complexes()] + [
        complex_of({"b": 1, "a": 0}, {"a": set(), "b": {"a"}}), solid_tori,
        box_tensor(elementary_a(Z1, {1}, 0, name="x"), unit_output_d)]
    for cx in complexes:
        obj = json.loads(json.dumps(cx.to_json()))
        back = F2ChainComplex.from_json(obj)
        assert list(back.generators.values()) == list(cx.generators.values())
        assert back.ops == cx.ops
        assert back.homology_dimensions() == cx.homology_dimensions()
    assert solid_tori.to_json() == {
        "generators": [{"name": "x*a", "grading": 1},
                       {"name": "y*b", "grading": 0}],
        "differential": [{"source": "x*a", "targets": ["y*b"]}]}
    with pytest.raises(SchemaViolation):
        F2ChainComplex.from_json({
            "generators": [{"name": "a", "grading": 0}],
            "differential": [{"source": "a", "targets": ["z"]}]})
