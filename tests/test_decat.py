import itertools
import random

import pytest
from sympy import Matrix

from borderedfloer import pmc as pmc_mod
from borderedfloer.decat import (ExteriorElement, GradedEndomorphism,
                                 combine_factors, det, graded_trace, hodge_eta,
                                 k0_functional, k0_of_da, psi_K0,
                                 star_sign, tqft_compose, upsilon, wedge_rows)
from borderedfloer.errors import (BasisMismatch, DegreeMismatch,
                                  DimensionMismatch, DimensionOdd,
                                  SchemaViolation)
from borderedfloer.laurent import LaurentPolynomial
from borderedfloer.structures import (ModuleGenerator, TypeDStructure,
                                      direct_sum, elementary_d, elementary_da,
                                      induct_dd, shift)

from oracle_constants import (TREFOIL_ALEXANDER, TREFOIL_MATRIX_BLOCKS,
                              TREFOIL_PLUCKER)
from oracles import RankDeficient, plucker

Z1 = pmc_mod.genus1()


def test_star_sign():
    assert star_sign((1,), (2,)) == 1
    assert star_sign((2,), (1,)) == -1
    assert star_sign((), (1, 2)) == 1
    with pytest.raises(BasisMismatch):
        star_sign((1,), (1,))


def test_wedge_antisymmetry_and_associativity():
    rng = random.Random(2)
    n = 4

    def rand_vec():
        return ExteriorElement.single(
            n, {(i,): rng.randint(-3, 3) for i in range(1, n + 1)})

    for _ in range(20):
        u, v, w = rand_vec(), rand_vec(), rand_vec()
        assert u.wedge(v) == -(v.wedge(u))
        assert not u.wedge(u)
        assert (u.wedge(v)).wedge(w) == u.wedge(v.wedge(w))


@pytest.mark.parametrize("size", range(7))
def test_det_matches_sympy(size):
    rng = random.Random(100 + size)
    for trial in range(30):
        m = [[rng.randint(-5, 5) for _ in range(size)] for _ in range(size)]
        if trial % 3 == 1 and size:
            m[0][0] = 0  # forces a row swap unless the column is zero
        if trial % 3 == 2 and size > 1:
            m[-1] = [x - 2 * y for x, y in zip(m[0], m[1])]  # singular
        assert det(m) == Matrix(m).det()


def test_plucker_matches_wedge_of_rows():
    rng = random.Random(4)
    for _ in range(20):
        rows = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(2)]
        if Matrix(rows).rank() < 2:
            continue
        assert plucker(rows) == wedge_rows(rows, 4)


def test_plucker_rank_deficient():
    with pytest.raises(RankDeficient):
        plucker([[1, 2, 0], [2, 4, 0]])


def test_plucker_row_operations_change_sign_only():
    rows = [[-1, -1, 1, 0], [-1, 0, 0, -1]]
    p = plucker(rows)
    rng = random.Random(9)
    for _ in range(50):
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        if abs(a * d - b * c) != 1:
            continue
        mixed = [[a * rows[0][j] + b * rows[1][j] for j in range(4)],
                 [c * rows[0][j] + d * rows[1][j] for j in range(4)]]
        q = plucker(mixed)
        assert q == p or q == -p


def test_hodge_eta_squares():
    for n in range(1, 7):
        for j in range(n + 1):
            for subset in itertools.combinations(range(1, n + 1), j):
                v = ExteriorElement.monomial(n, subset)
                expect = v if (j * (n - j)) % 2 == 0 else -v
                assert hodge_eta(hodge_eta(v)) == expect


def test_combine_factors_signs():
    p = ExteriorElement.two(2, 2, {((1,), (2,)): 3, ((), (1, 2)): 1,
                                   ((1, 2), ()): 1})
    out = combine_factors(p)
    assert out.terms == {(1, 4): -3, (3, 4): 1, (1, 2): 1}
    with pytest.raises(BasisMismatch):
        combine_factors(ExteriorElement.single(2, {(1,): 1}))


def test_upsilon_trefoil_blocks_and_trace():
    p = ExteriorElement.two(2, 2, TREFOIL_PLUCKER)
    u = upsilon(p)
    for j, block in TREFOIL_MATRIX_BLOCKS.items():
        assert u.blocks[j] == block
    assert graded_trace(u) == LaurentPolynomial(TREFOIL_ALEXANDER)


def test_upsilon_degree_mismatch():
    with pytest.raises(BasisMismatch,
                       match="^upsilon expects a two-factor element$"):
        upsilon(ExteriorElement.monomial(2, (1,)))
    with pytest.raises(DegreeMismatch):
        upsilon(ExteriorElement.two(2, 2, {((1,), ()): 1}))
    with pytest.raises(DimensionMismatch):
        upsilon(ExteriorElement.two(2, 3, {((1,), (1, 2)): 1}))
    # no circle has an odd number of classes, and at odd n the signs
    # (-1)^|a| and (-1)^|b| of a degree-preserving term differ
    with pytest.raises(DimensionOdd):
        upsilon(ExteriorElement.two(3, 3, {((1,), (1, 2)): 1}))


def test_graded_endomorphism_basics():
    ident = GradedEndomorphism.identity(4)
    assert graded_trace(ident) == LaurentPolynomial(
        {-2: 1, -1: -4, 0: 6, 1: -4, 2: 1})
    u = upsilon(ExteriorElement.two(2, 2, TREFOIL_PLUCKER))
    assert tqft_compose(GradedEndomorphism.identity(2), u) == u
    assert (-u).trace(1) == -u.trace(1)
    with pytest.raises(DimensionMismatch):
        tqft_compose(ident, u)
    with pytest.raises(DimensionOdd):
        graded_trace(GradedEndomorphism.identity(3))
    with pytest.raises(DimensionMismatch):
        GradedEndomorphism(2, {1: [[1]]})
    back = GradedEndomorphism.from_json(u.to_json())
    assert back == u
    with pytest.raises(SchemaViolation):
        GradedEndomorphism.from_json({"dimension": 2})


def test_psi_k0_additive_and_shift():
    a = elementary_d(Z1, {1}, 0, name="p")
    b = elementary_d(Z1, {2}, 1, name="q")
    total = direct_sum(a, b)
    assert psi_K0(total) == psi_K0(a) + psi_K0(b)
    assert psi_K0(shift(a)) == -psi_K0(a)
    assert psi_K0(a).terms == {(1,): 1}
    assert psi_K0(b).terms == {(2,): -1}
    with pytest.raises(BasisMismatch):
        psi_K0(elementary_da(Z1, Z1, {1}, {1}, 0))


def test_psi_k0_of_induced_dd_splits_monomials():
    zt = pmc_mod.trefoil_pmc()
    d = TypeDStructure(zt, None, [
        ModuleGenerator("m", frozenset({1, 3}), None, 0),
        ModuleGenerator("n", frozenset({2, 4}), None, 1)])
    two = psi_K0(induct_dd(d))
    assert two.factors == 2 and two.dims == (2, 2)
    assert two.terms == {((1,), (1,)): 1, ((2,), (2,)): -1}
    one = psi_K0(d)
    joined = combine_factors(two)
    # the joint reading carries (-1)^{|left|} relative to the one-factor class
    assert joined.terms == {k: -c for k, c in one.terms.items()}


def test_k0_functional_sign():
    from borderedfloer.structures import elementary_a
    m = elementary_a(Z1, {1}, 0, name="x")
    assert k0_functional(m).terms == {(1,): -1}
    m2 = elementary_a(Z1, {1, 2}, 1, name="x")
    assert k0_functional(m2).terms == {(1, 2): -1}
    with pytest.raises(BasisMismatch):
        k0_functional(elementary_d(Z1, {1}, 0))


def test_k0_of_da():
    da = elementary_da(Z1, Z1, {1}, {2}, 1)
    e = k0_of_da(da)
    assert e.blocks[1] == [[0, -1], [0, 0]]
    with pytest.raises(DegreeMismatch):
        k0_of_da(elementary_da(Z1, Z1, {1}, {1, 2}, 0))
    with pytest.raises(BasisMismatch):
        k0_of_da(elementary_d(Z1, {1}, 0))


def test_exterior_json_roundtrip():
    p = ExteriorElement.two(2, 2, TREFOIL_PLUCKER)
    assert ExteriorElement.from_json(p.to_json()) == p
    v = ExteriorElement.single(3, {(1, 3): -2})
    assert ExteriorElement.from_json(v.to_json()) == v
    with pytest.raises(SchemaViolation):
        ExteriorElement.from_json({"terms": []})


@pytest.mark.parametrize("call, message", [
    (lambda: ExteriorElement.single(2) + ExteriorElement.single(3),
     "elements over different spaces"),
    (lambda: ExteriorElement.two(1, 1, {((1,), ()): 1}).wedge(
        ExteriorElement.two(1, 1, {((), (1,)): 1})),
     "wedge is defined on single-factor elements"),
    (lambda: ExteriorElement.monomial(2, (1,)).wedge(
        ExteriorElement.monomial(3, (2,))), "elements over different spaces"),
    (lambda: hodge_eta(ExteriorElement.two(2, 2, {((1,), (2,)): 1})),
     "eta acts on single-factor elements"),
], ids=["sum", "wedge_of_two_factors", "wedge_over_different_spaces",
        "hodge_eta"])
def test_exterior_operations_reject_the_wrong_space(call, message):
    with pytest.raises(BasisMismatch, match=f"^{message}$"):
        call()
