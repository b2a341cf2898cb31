import itertools
import random

import pytest

from borderedfloer import pmc as pmc_mod
from borderedfloer import strands
from borderedfloer.errors import (AlgebraMismatch, InconsistentChordSet,
                                  SchemaViolation, StrandsGradingOutOfRange)

from oracle_constants import STRANDS_DIMS_GENUS1, STRANDS_DIMS_GENUS2_SPLIT

Z1 = pmc_mod.genus1()
Z2 = pmc_mod.genus2_split()


def test_basis_dimensions_match_oracle():
    dims1 = {i: len(strands.basis(Z1, i)) for i in range(-1, 2)}
    assert dims1 == STRANDS_DIMS_GENUS1
    dims2 = {i: len(strands.basis(Z2, i)) for i in range(-2, 3)}
    assert dims2 == STRANDS_DIMS_GENUS2_SPLIT


def test_basis_grading_out_of_range():
    with pytest.raises(StrandsGradingOutOfRange):
        strands.basis(Z1, 2)
    with pytest.raises(StrandsGradingOutOfRange):
        strands.basis(Z2, -3)


def test_canonical_representatives():
    for x in strands.all_basis(Z2):
        assert strands.is_canonical(Z2, x.pairs)
        assert x.strands_grading == len(x.pairs) - Z2.k


def test_make_rejections():
    with pytest.raises(AlgebraMismatch):
        strands.StrandsBasisElement.make(Z1, [(1, 1), (3, 3)])  # same class twice
    with pytest.raises(AlgebraMismatch):
        strands.StrandsBasisElement.make(Z1, [(3, 1)])  # downward-veering
    for pairs in ([(0, 1)], [(-1, 2)], [(1, 5)]):  # endpoints outside 1..4
        with pytest.raises(SchemaViolation):
            strands.StrandsBasisElement.make(Z1, pairs)


def test_fast_product_matches_raw_genus1():
    elts = strands.all_basis(Z1)
    for x in elts:
        for y in elts:
            fast = strands.multiply_basis(x, y)
            slow = strands.multiply_basis_raw(x, y)
            if fast is None:
                assert slow == set()
            else:
                assert slow == {fast.pairs}


def test_fast_product_matches_raw_genus2_sampled():
    elts = strands.all_basis(Z2)
    rng = random.Random(7)
    for _ in range(400):
        x, y = rng.choice(elts), rng.choice(elts)
        fast = strands.multiply_basis(x, y)
        slow = strands.multiply_basis_raw(x, y)
        if fast is None:
            assert slow == set()
        else:
            assert slow == {fast.pairs}


def test_associativity_genus1():
    elts = strands.all_basis(Z1)
    for x, y, z in itertools.product(elts, repeat=3):
        xy = strands.multiply_basis(x, y)
        yz = strands.multiply_basis(y, z)
        lhs = strands.multiply_basis(xy, z) if xy is not None else None
        rhs = strands.multiply_basis(x, yz) if yz is not None else None
        assert lhs == rhs


def test_differential_squares_to_zero():
    for z in (Z1, Z2):
        for x in strands.all_basis(z):
            dx = strands.differential_basis(x)
            assert not strands.differential(dx)


def test_leibniz_genus1():
    elts = strands.all_basis(Z1)
    for x, y in itertools.product(elts, repeat=2):
        ex = strands.StrandsElement.from_basis(x)
        ey = strands.StrandsElement.from_basis(y)
        lhs = strands.differential(strands.multiply(ex, ey))
        rhs = (strands.multiply(strands.differential(ex), ey)
               + strands.multiply(ex, strands.differential(ey)))
        assert lhs == rhs


def test_grading_rules():
    # differential raises gr by 1, product is additive, mod 2
    for z in (Z1,):
        for x in strands.all_basis(z):
            for term in strands.differential_basis(x).basis_terms():
                assert term.gr == (x.gr + 1) % 2
            for y in strands.all_basis(z):
                p = strands.multiply_basis(x, y)
                if p is not None:
                    assert p.gr == (x.gr + y.gr) % 2


def test_named_chords():
    rho2 = strands.StrandsBasisElement.make(Z1, [(2, 3)])
    rho3 = strands.StrandsBasisElement.make(Z1, [(3, 4)])
    assert rho2.gr == 1
    assert rho3.gr == 0


def test_idempotents():
    iota = strands.idempotent(Z1, (1,))
    assert all(strands.StrandsBasisElement(Z1, p).is_idempotent
               for p in iota.terms)
    # minimal idempotents act as left/right units on compatible elements
    for x in strands.basis(Z1, 0):
        ex = strands.StrandsElement.from_basis(x)
        total = strands.idempotent_sum(Z1, 0)
        assert strands.multiply(total, ex) == ex
        assert strands.multiply(ex, total) == ex


def test_reeb_element():
    lo, hi = strands.matched_chord(Z1, 1)
    a = strands.reeb_element(Z1, [(lo, hi)])
    assert a
    with pytest.raises(InconsistentChordSet):
        strands.reeb_element(Z1, [(3, 2)])
    with pytest.raises(InconsistentChordSet):
        strands.reeb_element(Z1, [(1, 3), (1, 4)])


def test_mismatched_circles():
    x = strands.all_basis(Z1)[0]
    y = strands.all_basis(Z2)[0]
    with pytest.raises(AlgebraMismatch):
        strands.multiply_basis(x, y)


def test_element_json_roundtrip():
    x = strands.StrandsBasisElement.make(Z1, [(1, 1), (2, 4)])
    ex = strands.StrandsElement.from_basis(x)
    back = strands.element_from_json(Z1, ex.to_json())
    assert back == ex
    with pytest.raises(SchemaViolation):
        strands.element_from_json(Z1, {"terms": [{"source": [1, 2]}]})
