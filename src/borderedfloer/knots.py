"""The knot pipeline and its parts: Alexander-module presentations,
Seifert recovery, intersection forms, kernel-basis reconstruction from
Plucker points, and the comparison of a report with the golden record.
The module reads no files; the caller loads the diagram and the record."""

from __future__ import annotations

import time
from math import factorial, gcd

from . import decat
from .decat import ExteriorElement, det, matmul
from .errors import (NotDecomposable, NotUnimodular, Record, SchemaViolation,
                     SeifertConsistencyFailure, ZeroPoint, check)
from .laurent import LaurentPolynomial
from .pmc import intersection_from_pmc


class Presentation(Record):
    """A + tB presents the Alexander module in a doubled surface basis; a
    and b are 2k x 2k integer matrices, as tuples of tuples."""
    __slots__ = _fields = ("a", "b")

    @classmethod
    def make(cls, a, b):
        a, b = tuple(map(tuple, a)), tuple(map(tuple, b))
        if len(a) != len(b) or any(len(r) != len(a) for r in a + b):
            raise SchemaViolation("A, B: expected square matrices of one size")
        return cls(a, b)

    @classmethod
    def from_rows(cls, rows):
        """A and B are the left and right halves of the kernel rows."""
        if not rows:
            raise SchemaViolation("no kernel rows to split into A and B")
        half = len(rows[0]) // 2
        return cls.make([r[:half] for r in rows], [r[half:] for r in rows])

    @classmethod
    def from_json(cls, obj):
        check(obj, {"A": [[int]], "B": [[int]]})
        return cls.make(obj["A"], obj["B"])


def matrix_from_json(obj):
    return tuple(map(tuple, check(obj, {"matrix": [[int]]})["matrix"]))


def _det_poly(a, b):
    """det(A + tB) as a LaurentPolynomial.

    The determinant p has degree at most n = size, so its values at t = 0..n
    fix it: p = sum_k (Delta^k p(0) / k!) t (t-1) ... (t-k+1) in Newton's
    forward-difference form.  p has integer coefficients, so each division
    by k! is exact.
    """
    n = len(a)
    values = [det([[a[i][j] + x * b[i][j] for j in range(n)]
                   for i in range(n)]) for x in range(n + 1)]
    out, falling = LaurentPolynomial.zero(), LaurentPolynomial.monomial(0)
    for k in range(n + 1):
        out = out + falling * (values[0] // factorial(k))
        values = [y1 - y0 for y0, y1 in zip(values, values[1:])]
        falling = falling * LaurentPolynomial({1: 1, 0: -k})
    return out


def symmetrized_or_raw(raw):
    """raw.symmetrized(), or raw itself when it has no symmetric form."""
    sym = raw.symmetrized()
    return sym if sym is not None else raw


def presentation_to_alexander(pres):
    """det(A + tB), symmetrized to a_i = a_{-i} with positive top
    coefficient when possible; the raw determinant otherwise."""
    return symmetrized_or_raw(_det_poly(pres.a, pres.b))


def alexander_from_seifert(v):
    """det(V - t V^T)."""
    size = len(v)
    return symmetrized_or_raw(_det_poly(
        v, [[-v[j][i] for j in range(size)] for i in range(size)]))


def recover_seifert(pres, omega):
    """V = -omega (A+B)^{-1} A, exactly over the integers."""
    size = len(pres.a)
    if len(omega) != size or any(len(r) != size for r in omega):
        raise SchemaViolation(f"omega must be {size} x {size}", "matrix")
    s = [[pres.a[i][j] + pres.b[i][j] for j in range(size)]
         for i in range(size)]
    d = det(s)
    if d not in (1, -1):
        raise NotUnimodular(f"det(A+B) = {d}, expected +-1")
    v = matmul(matmul(omega, _unimodular_inverse(s)), pres.a)
    v = tuple(tuple(-x for x in row) for row in v)
    for i in range(size):
        for j in range(size):
            if v[i][j] - v[j][i] != -omega[i][j]:
                raise SeifertConsistencyFailure("V - V^T != -omega")
    return v


def knot_from_plucker(point, omega):
    """(content, rows, V, Delta) of a Plucker point: its kernel rows present
    the Alexander module as A + tB, and omega, the intersection form of the
    boundary, recovers the Seifert form V.  A two-factor point, as psi of a
    DD structure gives it, is read in the joint basis first."""
    if point.factors == 2:
        point = decat.combine_factors(point)
    content, rows = kernel_basis_from_plucker(point)
    pres = Presentation.from_rows(rows)
    return (content, rows, recover_seifert(pres, omega),
            presentation_to_alexander(pres))


def run_knot(diagram):
    """The report of the knot pipeline on a type D diagram of a knot
    complement: ``induct_dd(structure(diagram))`` splits its module along the
    boundary Z # -Z into a DD structure, and Z gives the intersection form."""
    from . import heegaard, structures
    start = time.monotonic()
    dd = structures.induct_dd(heegaard.structure(diagram))
    gamma = decat.psi_K0(dd)
    matrix = decat.upsilon(gamma)
    omega = intersection_from_pmc(dd.pmc_left)
    content, rows, seifert, delta_pres = knot_from_plucker(gamma, omega)
    return {
        "table": [g.to_json() for g in dd.generators.values()],
        "plucker": gamma.to_json(),
        "matrix": matrix.to_json(),
        "alexander": symmetrized_or_raw(decat.graded_trace(matrix)).to_json(),
        "alexander_from_presentation": delta_pres.to_json(),
        "omega": [list(r) for r in omega],
        "seifert": [list(r) for r in seifert],
        "kernel_content": content,
        "seconds": time.monotonic() - start,
    }


def diff_golden(report, golden):
    """The keys of a run_knot report that differ from the golden record, in
    report order; the Plucker point and the matrix are compared up to sign,
    as a Plucker point is fixed only up to the orientation of its kernel."""
    def same(key):
        cls = {"plucker": ExteriorElement,
               "matrix": decat.GradedEndomorphism}.get(key)
        if cls is None:
            return report[key] == golden[key]
        a, b = cls.from_json(report[key]), cls.from_json(golden[key])
        return a == b or a == -b
    return [key for key in ("table", "plucker", "matrix", "alexander",
                            "alexander_from_presentation", "omega", "seifert",
                            "kernel_content") if not same(key)]


# intersection forms -------------------------------------------------------
def intersection_from_algebra(pmc):
    """Entry (j, j') = the graded Euler characteristic of the single-strand
    space I_j A(Z, 1-k) I_{j'}."""
    from . import strands
    n2k = pmc.num_classes
    out = [[0] * n2k for _ in range(n2k)]
    for elt in strands.basis(pmc, 1 - pmc.k):
        (j,), (jp,) = elt.source_classes, elt.target_classes
        out[j - 1][jp - 1] += -1 if elt.gr % 2 else 1
    return tuple(tuple(r) for r in out)


# integer linear algebra ---------------------------------------------------
def _hnf(rows):
    """Row-style Hermite normal form of an integer matrix (nonzero rows)."""
    rows = [list(r) for r in rows]
    m = len(rows[0]) if rows else 0
    pivot_row = 0
    for col in range(m):
        best = None
        for i in range(pivot_row, len(rows)):
            if rows[i][col]:
                if best is None or abs(rows[i][col]) < abs(rows[best][col]):
                    best = i
        if best is None:
            continue
        rows[pivot_row], rows[best] = rows[best], rows[pivot_row]
        # clear the column below by gcd steps
        changed = True
        while changed:
            changed = False
            for i in range(pivot_row + 1, len(rows)):
                if rows[i][col]:
                    q = rows[i][col] // rows[pivot_row][col]
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[pivot_row])]
                    if rows[i][col]:
                        rows[pivot_row], rows[i] = rows[i], rows[pivot_row]
                        changed = True
        if rows[pivot_row][col] < 0:
            rows[pivot_row] = [-x for x in rows[pivot_row]]
        # reduce entries above the pivot
        for i in range(pivot_row):
            q = rows[i][col] // rows[pivot_row][col]
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[pivot_row])]
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return [r for r in rows[:pivot_row] if any(r)]


def _with_identity(rows):
    """[rows | I]: the identity block records the row operations."""
    n = len(rows)
    return [list(rows[i]) + [int(i == j) for j in range(n)] for i in range(n)]


def _unimodular_inverse(s):
    """S^-1 for det S = +-1: S has Hermite form I, so [S | I] reduces to
    [I | S^-1]."""
    return [r[len(s):] for r in _hnf(_with_identity(s))]


def left_kernel(rows):
    """Basis of {v integer : v . rows = 0}; saturated by construction.

    Runs Hermite reduction on [rows | I]: it changes rows only by unimodular
    row operations, so the identity-side rows whose rows-side reduced to zero
    form a basis of the kernel.
    """
    m = len(rows[0]) if rows else 0
    return [r[m:] for r in _hnf(_with_identity(rows)) if not any(r[:m])]


def kernel_basis_from_plucker(p):
    """(content, rows): the primitive subgroup W of Z^m whose Plucker point
    is +-q, q = p/content, read off one nonzero coordinate q_I.

    Row j is the contraction of q by the dual of e_{I - i_j}; its entry at i
    is +-q_{I - i_j + i}.  When q is decomposable these rows lie in W, and on
    the columns of I they are +-q_I times the identity, so they have rank r
    and span W over Q.  The annihilator of their annihilator saturates them
    to W, and Hermite normal form makes the rows canonical.  Their wedge is
    +-q exactly when q is decomposable.
    """
    if p.factors != 1:
        raise SchemaViolation("expected a single-factor element")
    if not p:
        raise ZeroPoint("the Plucker point is zero")
    m = p.dims[0]
    degrees = {len(k) for k in p.terms}
    if len(degrees) != 1:
        raise NotDecomposable("mixed-degree element")
    content = 0
    for c in p.terms.values():
        content = gcd(content, abs(c))
    q = {k: c // content for k, c in p.terms.items()}
    pivot = min(q)
    contractions = []
    for pos in range(len(pivot)):
        rest = pivot[:pos] + pivot[pos + 1:]
        # e_{rest + i} = (-1)^{#{x in rest : x > i}} e_rest ^ e_i
        contractions.append([
            0 if i in rest else (-1) ** sum(x > i for x in rest)
            * q.get(tuple(sorted(rest + (i,))), 0) for i in range(1, m + 1)])
    annihilator = left_kernel([[row[i] for row in contractions]
                               for i in range(m)])
    rows = _hnf(left_kernel([[row[i] for row in annihilator]
                             for i in range(m)]))
    check = decat.wedge_rows(rows, m)
    target = ExteriorElement.single(m, q)
    if check != target and check != -target:
        raise NotDecomposable("wedge of the recovered rows differs from the point")
    return content, tuple(tuple(row) for row in rows)
