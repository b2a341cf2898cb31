import random

import pytest
from sympy import Matrix, Poly, symbols
from sympy.polys.matrices import DomainMatrix

from borderedfloer import pmc as pmc_mod
from borderedfloer.decat import (ExteriorElement, GradedEndomorphism,
                                 combine_factors, wedge_rows)
from borderedfloer.errors import (NotDecomposable, NotUnimodular,
                                  SchemaViolation, SeifertConsistencyFailure,
                                  ZeroPoint)
from borderedfloer.knots import (Presentation, alexander_from_seifert,
                                 diff_golden, intersection_from_algebra,
                                 intersection_from_pmc,
                                 kernel_basis_from_plucker, left_kernel,
                                 matrix_from_json, presentation_to_alexander,
                                 recover_seifert, run_knot, _det_poly, _hnf,
                                 _unimodular_inverse)
from borderedfloer.laurent import LaurentPolynomial

from knot_diagrams import (boundary_sum, golden_record, sign_pattern_reports,
                           trefoil, with_signs)
from oracle_constants import (TREFOIL_ALEXANDER, TREFOIL_KERNEL_ROWS,
                              TREFOIL_OMEGA, TREFOIL_PLUCKER, TREFOIL_SEIFERT)
from oracles import RankDeficient, kernel_rows_by_constraints, plucker

DELTA = LaurentPolynomial(TREFOIL_ALEXANDER)


def trefoil_presentation():
    rows = TREFOIL_KERNEL_ROWS
    return Presentation.make([r[:2] for r in rows], [r[2:] for r in rows])


def test_presentation_to_alexander_trefoil():
    assert presentation_to_alexander(trefoil_presentation()) == DELTA


def test_presentation_schema():
    with pytest.raises(SchemaViolation):
        Presentation.make([[1, 0]], [[1, 0], [0, 1]])
    with pytest.raises(SchemaViolation):
        Presentation.from_json({"A": [[1]]})
    assert matrix_from_json({"matrix": [[1, 2], [3, 4]]}) == ((1, 2), (3, 4))
    with pytest.raises(SchemaViolation):
        matrix_from_json({"rows": []})
    with pytest.raises(SchemaViolation):  # omega of the wrong size
        recover_seifert(trefoil_presentation(), ((0, 1, 0), (-1, 0, 0)))


def test_recover_seifert_trefoil():
    v = recover_seifert(trefoil_presentation(), TREFOIL_OMEGA)
    assert v == TREFOIL_SEIFERT
    assert alexander_from_seifert(v) == DELTA
    # V - V^T = -omega by construction
    for i in range(2):
        for j in range(2):
            assert v[i][j] - v[j][i] == -TREFOIL_OMEGA[i][j]


def test_recover_seifert_not_unimodular():
    pres = Presentation.make([[2, 0], [0, 2]], [[0, 0], [0, 0]])
    with pytest.raises(NotUnimodular):
        recover_seifert(pres, TREFOIL_OMEGA)


def random_matrix(rng, size):
    return [[rng.randint(-5, 5) for _ in range(size)] for _ in range(size)]


@pytest.mark.parametrize("size", range(7))
def test_det_poly_matches_sympy(size):
    t = symbols("t")
    rng = random.Random(200 + size)
    for trial in range(6):
        a, b = random_matrix(rng, size), random_matrix(rng, size)
        if trial % 2 and size > 1:  # a repeated row: det(A + tB) = 0
            a[-1], b[-1] = a[0], b[0]
        # sympy's exact determinant over ZZ[t] (Matrix.det is ~1 s at 6x6)
        m = DomainMatrix.from_Matrix(Matrix(a) + t * Matrix(b))
        expect = Poly(m.domain.to_sympy(m.det()), t)
        assert _det_poly(a, b) == LaurentPolynomial(
            {e: int(c) for (e,), c in expect.terms()})


@pytest.mark.parametrize("size", range(7))
def test_unimodular_inverse_matches_sympy(size):
    rng = random.Random(300 + size)
    for _ in range(6):
        s = [[int(i == j) for j in range(size)] for i in range(size)]
        for _ in range(4 * size):  # random elementary row operations
            i, j = rng.randrange(size), rng.randrange(size)
            if i == j:
                s[i] = [-x for x in s[i]]
            else:
                q = rng.randint(-3, 3)
                s[i] = [x + q * y for x, y in zip(s[i], s[j])]
        assert _unimodular_inverse(s) == Matrix(s).inv().tolist()


def test_recover_seifert_invariant_under_row_mixes():
    rng = random.Random(17)
    base = TREFOIL_KERNEL_ROWS
    found = 0
    while found < 25:
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        if abs(a * d - b * c) != 1:
            continue
        found += 1
        rows = [[a * base[0][j] + b * base[1][j] for j in range(4)],
                [c * base[0][j] + d * base[1][j] for j in range(4)]]
        pres = Presentation.make([r[:2] for r in rows], [r[2:] for r in rows])
        assert presentation_to_alexander(pres) == DELTA


def test_intersection_forms_agree():
    for z in (pmc_mod.genus1(), pmc_mod.genus2_split(),
              pmc_mod.trefoil_pmc(), pmc_mod.reverse(pmc_mod.genus1())):
        assert intersection_from_algebra(z) == intersection_from_pmc(z)


def test_intersection_form_values():
    assert intersection_from_pmc(pmc_mod.genus1()) == ((0, 1), (-1, 0))
    m = intersection_from_pmc(pmc_mod.genus2_split())
    assert m[0][1] == 1 and m[2][3] == 1 and m[0][2] == 0


def test_hnf_canonical():
    rows = _hnf([[2, 4, 6], [1, 2, 3], [0, 0, 5]])
    assert rows == [[1, 2, 3], [0, 0, 5]]
    # HNF of unimodularly mixed rows agrees
    assert _hnf([[1, 2, 3], [0, 0, 5]]) == \
        _hnf([[1, 2, 8], [0, 0, -5]])


def test_left_kernel():
    rows = [[1, 0], [0, 1], [1, 1]]
    basis = left_kernel(rows)
    assert len(basis) == 1
    v = basis[0]
    assert [v[0] * rows[0][j] + v[1] * rows[1][j] + v[2] * rows[2][j]
            for j in range(2)] == [0, 0]


def test_kernel_basis_from_plucker_trefoil():
    p = plucker(TREFOIL_KERNEL_ROWS)
    content, rows = kernel_basis_from_plucker(p)
    assert content == 1
    assert _hnf([list(r) for r in rows]) == \
        _hnf([list(r) for r in TREFOIL_KERNEL_ROWS])
    check = plucker(rows)
    assert check == p or check == -p


def test_kernel_basis_content():
    p = 3 * plucker(TREFOIL_KERNEL_ROWS)
    content, rows = kernel_basis_from_plucker(p)
    assert content == 3
    assert len(rows) == 2


def test_kernel_basis_errors():
    with pytest.raises(ZeroPoint):
        kernel_basis_from_plucker(ExteriorElement.single(4, {}))
    with pytest.raises(NotDecomposable):
        kernel_basis_from_plucker(
            ExteriorElement.single(4, {(1,): 1, (1, 2): 1}))
    # e12 + e34 is not decomposable in dimension 4
    with pytest.raises(NotDecomposable):
        kernel_basis_from_plucker(
            ExteriorElement.single(4, {(1, 2): 1, (3, 4): 1}))
    with pytest.raises(SchemaViolation):
        kernel_basis_from_plucker(
            ExteriorElement.two(2, 2, {((1,), (1,)): 1}))


def test_round_trip_random_decomposables():
    rng = random.Random(23)
    done = 0
    while done < 15:
        rows = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(2)]
        if Matrix(rows).rank() < 2:
            continue
        done += 1
        p = plucker(rows)
        content, rec = kernel_basis_from_plucker(p)
        q = plucker(rec)
        scaled = ExteriorElement.single(4, {k: content * c
                                            for k, c in q.terms.items()})
        assert scaled == p or scaled == -p


def test_kernel_basis_matches_the_constraint_oracle_on_random_points():
    rng = random.Random(29)
    done = 0
    while done < 300:
        m = rng.randint(1, 8)
        rows = [[rng.randint(-3, 3) for _ in range(m)]
                for _ in range(rng.randint(1, min(4, m)))]
        try:
            p = plucker(rows)
        except RankDeficient:
            continue
        done += 1
        p = rng.choice((-1, 1)) * rng.randint(1, 6) * p
        assert kernel_basis_from_plucker(p) == kernel_rows_by_constraints(p)


def unimodular_mixes(rows, count, seed):
    """count images of two rows under random matrices of det +-1."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a, b, c, d = (rng.randint(-4, 4) for _ in range(4))
        if abs(a * d - b * c) == 1:
            out.append([[a * x + b * y for x, y in zip(*rows)],
                        [c * x + d * y for x, y in zip(*rows)]])
    return out


def test_kernel_basis_matches_the_constraint_oracle_on_trefoil_points():
    joint = combine_factors(ExteriorElement.two(2, 2, TREFOIL_PLUCKER))
    points = [joint] + [plucker(rows) for rows in
                        unimodular_mixes(TREFOIL_KERNEL_ROWS, 100, 41)]
    for p in points:
        assert kernel_basis_from_plucker(p) == kernel_rows_by_constraints(p)


def block_sum_rows(rows, n):
    """n copies of kernel rows (A | B) of width 2k, copy j's A and B blocks
    on columns j of the left and right halves of width 2kn."""
    width = len(rows[0]) // 2
    out = []
    for j in range(n):
        for row in rows:
            out.append([0] * (2 * width * n))
            out[-1][j * width:(j + 1) * width] = row[:width]
            out[-1][(n + j) * width:(n + j + 1) * width] = row[width:]
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kernel_basis_of_block_sums(n):
    rows = block_sum_rows(TREFOIL_KERNEL_ROWS, n)
    # at n = 4 the 12,870 minors of plucker and the constraint oracle take
    # about 0.6 and 0.8 s; the wedge of the sparse rows takes milliseconds
    p = plucker(rows) if n < 4 else wedge_rows(rows, 4 * n)
    got = kernel_basis_from_plucker(p)
    assert got == (1, tuple(map(tuple, _hnf(rows))))
    if n < 4:
        assert got == kernel_rows_by_constraints(p)


def test_kernel_basis_saturates_the_contraction_rows():
    # the contraction rows for I = (1, 3) span an index-2 sublattice
    p = plucker([[2, 1, 0, 0], [0, 0, 1, 1]])
    assert kernel_basis_from_plucker(p) == (1, ((2, 1, 0, 0), (0, 0, 1, 1)))


def test_kernel_basis_rejects_a_sum_of_disjoint_monomials():
    with pytest.raises(NotDecomposable):
        kernel_basis_from_plucker(
            ExteriorElement.single(6, {(1, 2, 3): 1, (4, 5, 6): 1}))


# genus ladder: boundary sums of the bundled knot-complement diagram --------
def block_sum(blocks):
    size = sum(len(b) for b in blocks)
    out, at = [[0] * size for _ in range(size)], 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = row
        at += len(b)
    return out


def test_boundary_sum_of_one_copy_is_the_bundled_diagram():
    bundled = trefoil()
    one = boundary_sum(bundled)
    assert one.pmc_left == bundled.pmc_left
    assert [(p.beta, p.alpha, p.sign) for p in one.points] == \
        [(p.beta, p.alpha, p.sign) for p in bundled.points]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_knot_pipeline_on_boundary_sums(n):
    report = run_knot(boundary_sum(*[trefoil()] * n))
    assert len(report["table"]) == 7 ** n
    delta = LaurentPolynomial.monomial(0)
    for _ in range(n):
        delta = delta * DELTA
    assert report["alexander"] == delta.to_json()
    assert report["alexander_from_presentation"] == delta.to_json()
    assert report["seifert"] == block_sum([TREFOIL_SEIFERT] * n)
    assert report["kernel_content"] == 1


def test_knot_pipeline_on_mixed_boundary_sums():
    """The golden pattern summed with each agreeing sign pattern: Delta
    multiplies and V is the block sum."""
    golden = trefoil()
    patterns = sign_pattern_reports()
    assert len(patterns) == 16
    for signs, alone in patterns.items():
        report = run_knot(boundary_sum(golden, with_signs(golden, signs)))
        delta = DELTA * LaurentPolynomial(
            {int(e): c for e, c in alone["alexander"].items()})
        assert report["alexander"] == report["alexander_from_presentation"] \
            == delta.to_json(), signs
        assert report["seifert"] == \
            block_sum([TREFOIL_SEIFERT, alone["seifert"]]), signs


def test_diff_golden_names_the_differing_keys_in_report_order():
    golden = golden_record()
    report = dict(golden)
    # the Plucker point and the matrix count up to sign
    report["plucker"] = (-ExteriorElement.from_json(golden["plucker"])).to_json()
    report["matrix"] = (-GradedEndomorphism.from_json(golden["matrix"])).to_json()
    assert diff_golden(report, golden) == []
    report["kernel_content"] = 2
    report["omega"] = [[-x for x in row] for row in golden["omega"]]
    report["plucker"] = (2 * ExteriorElement.from_json(golden["plucker"])).to_json()
    report["table"] = golden["table"][::-1]
    assert diff_golden(report, golden) == ["table", "plucker", "omega",
                                           "kernel_content"]
