"""Exact exterior-algebra integer linear algebra and decategorification maps.

Monomial order: ascending index subsets, lexicographic within each degree.
All signs depend on this order; it is fixed here and used everywhere.
"""

from __future__ import annotations

import itertools
from math import comb

from .errors import (BasisMismatch, DegreeMismatch, DimensionMismatch,
                     DimensionOdd, SchemaViolation, check, show,
                     unique)
from .laurent import LaurentPolynomial

# a spec: the dimension n of an exterior algebra read from a file.  The dense
# blocks of a graded endomorphism (also the output of upsilon) hold C(2n, n)
# entries in all, 2.7 M at n = 12, and a genus-g circle gives n = 2g; a larger
# n would exhaust memory before any other check could run.
DIMENSION = range(13)


def _merge_sign(u, v):
    """Sign of sorting the concatenation u + v; None when they intersect."""
    if set(u) & set(v):
        return None
    inv = sum(1 for a in u for b in v if a > b)
    return -1 if inv % 2 else 1


def star_sign(u, v):
    """star(wedge_u ^ wedge_v) for complementary subsets u, v."""
    s = _merge_sign(tuple(u), tuple(v))
    if s is None:
        raise BasisMismatch("star sign needs disjoint subsets")
    return s


class ExteriorElement:
    """Integer element of Lambda*(Z^n), or of a two-factor tensor
    Lambda*(Z^{n0}) (x) Lambda*(Z^{n1}).

    dims: the tuple (n,) or (n0, n1), one dimension per factor.  terms:
    index tuple -> coefficient (single factor), or a pair of index tuples
    -> coefficient (two factors); a key is kept as given, so each tuple must
    list 1-based indices ascending, none repeated.  Zeros are dropped.
    """

    def __init__(self, dims, terms=None):
        self.dims = tuple(dims)
        self.factors = len(self.dims)
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    @classmethod
    def single(cls, n, terms=None):
        return cls((n,), terms)

    @classmethod
    def two(cls, n0, n1, terms=None):
        return cls((n0, n1), terms)

    @classmethod
    def monomial(cls, n, subset, coeff=1):
        return cls.single(n, {tuple(sorted(subset)): coeff})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, ExteriorElement):
            return NotImplemented
        return (self.dims, self.terms) == (other.dims, other.terms)

    def _like(self, terms):
        return ExteriorElement(self.dims, terms)

    def __add__(self, other):
        if self.dims != other.dims:
            raise BasisMismatch("elements over different spaces")
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return self._like(out)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __rmul__(self, scalar):
        return self._like({k: scalar * c for k, c in self.terms.items()})

    def wedge(self, other):
        if self.factors != 1 or other.factors != 1:
            raise BasisMismatch("wedge is defined on single-factor elements")
        if self.dims != other.dims:
            raise BasisMismatch("elements over different spaces")
        out = {}
        for u, cu in self.terms.items():
            for v, cv in other.terms.items():
                s = _merge_sign(u, v)
                if s is None:
                    continue
                key = tuple(sorted(u + v))
                out[key] = out.get(key, 0) + s * cu * cv
        return self._like(out)

    def to_json(self):
        if self.factors == 1:
            return {"dimension": self.dims[0],
                    "terms": [{"indices": list(k), "coeff": c}
                              for k, c in sorted(self.terms.items())]}
        return {"dimensions": list(self.dims),
                "terms": [{"left": list(k[0]), "right": list(k[1]), "coeff": c}
                          for k, c in sorted(self.terms.items())]}

    @classmethod
    def from_json(cls, obj):
        """Each term names a basis monomial once, by increasing indices in
        1..dimension (per factor: "left" and "right")."""
        two = type(obj) is dict and "dimensions" in obj
        check(obj, {"dimensions": [DIMENSION, DIMENSION], "terms": list} if two
              else {"dimension": DIMENSION, "terms": list})
        keys, dims = (("left", "right"), obj["dimensions"]) if two \
            else (("indices",), [obj["dimension"]])
        check(obj["terms"], [{"coeff": int, **{k: [range(1, n + 1)] for k, n
                                               in zip(keys, dims)}}], "terms")
        monomials = [tuple(tuple(t[k]) for k in keys) for t in obj["terms"]]
        for i, m in enumerate(monomials):
            for k, indices in zip(keys, m):
                if list(indices) != sorted(set(indices)):
                    raise SchemaViolation("expected increasing indices, got "
                                          f"{show(indices)}", f"terms[{i}].{k}")
        unique(monomials, "terms")
        return cls(dims, {m if two else m[0]: t["coeff"]
                          for m, t in zip(monomials, obj["terms"])})

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*e{list(k)}" for k, c in sorted(self.terms.items()))


def wedge_rows(rows, n):
    """Wedge of row vectors of Z^n, in order."""
    out = ExteriorElement.single(n, {(): 1})
    for row in rows:
        vec = ExteriorElement.single(
            n, {(i,): int(c) for i, c in enumerate(row, start=1)})
        out = out.wedge(vec)
    return out


def det(m):
    """Determinant of a square integer matrix by Bareiss fraction-free
    elimination: every division is exact, so all entries stay integers."""
    a = [list(map(int, row)) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def matmul(x, y):
    """The product of two integer matrices, as lists of rows."""
    return [[sum(x[i][l] * y[l][j] for l in range(len(y)))
             for j in range(len(y[0]))] for i in range(len(x))]


def hodge_eta(v):
    """eta(v) = (x -> star(x ^ v)), returned through the monomial
    identification of (Lambda^j)* with Lambda^j."""
    if v.factors != 1:
        raise BasisMismatch("eta acts on single-factor elements")
    n = v.dims[0]
    full = set(range(1, n + 1))
    out = {}
    for a, c in v.terms.items():
        u = tuple(sorted(full - set(a)))
        out[u] = out.get(u, 0) + c * star_sign(u, a)
    return ExteriorElement.single(n, out)


def combine_factors(p):
    """Read a two-factor element over (Z^{n0}, Z^{n1}) in the joint basis.

    The first-factor basis maps to the negated first block of the joint
    basis, contributing (-1)^{|left subset|}; second-factor indices shift by
    n0.  Inverse to splitting a Plucker point over a two-piece boundary.
    """
    if p.factors != 2:
        raise BasisMismatch("expected a two-factor element")
    n0, n1 = p.dims
    out = {}
    for (u, v), c in p.terms.items():
        key = tuple(u) + tuple(i + n0 for i in v)
        sign = -1 if len(u) % 2 else 1
        out[key] = out.get(key, 0) + sign * c
    return ExteriorElement.single(n0 + n1, out)


class GradedEndomorphism:
    """Degree-preserving map Lambda*(Z^n) -> Lambda*(Z^n), stored as one
    integer matrix per exterior degree over the lex-ordered subset basis."""

    def __init__(self, n, blocks):
        self.n = n
        self.blocks = {}
        for j in range(n + 1):
            size = comb(n, j)
            self.blocks[j] = [list(row) for row in blocks.get(j, [[0] * size] * size)]
            if len(self.blocks[j]) != size or \
                    any(len(r) != size for r in self.blocks[j]):
                raise DimensionMismatch(f"degree-{j} block has the wrong shape")

    @classmethod
    def identity(cls, n):
        out = cls(n, {})
        for j, block in out.blocks.items():
            for i in range(len(block)):
                block[i][i] = 1
        return out

    def __eq__(self, other):
        if not isinstance(other, GradedEndomorphism):
            return NotImplemented
        return self.n == other.n and self.blocks == other.blocks

    def __neg__(self):
        return GradedEndomorphism(
            self.n, {j: [[-x for x in row] for row in b]
                     for j, b in self.blocks.items()})

    def trace(self, j):
        return sum(self.blocks[j][i][i] for i in range(len(self.blocks[j])))

    def to_json(self):
        return {"dimension": self.n,
                "blocks": {str(j): b for j, b in sorted(self.blocks.items())}}

    @classmethod
    def from_json(cls, obj):
        """Blocks are keyed "0".."n"; a missing block is zero."""
        n = check(obj, {"dimension": DIMENSION, "blocks": dict})["dimension"]
        sizes = {str(j): comb(n, j) for j in range(n + 1)}
        blocks = check(obj["blocks"], {f"{j}?": [[int]] for j in sizes}, "blocks")
        for j, block in blocks.items():
            if {len(block), *map(len, block)} != {sizes[j]}:
                raise SchemaViolation(f"expected {sizes[j]} rows of {sizes[j]}",
                                      f"blocks.{j}")
        return cls(n, {j: blocks[str(j)] for j in range(n + 1) if str(j) in blocks})


def _subset_index(n):
    """Each subset of 1..n, as an ascending tuple, to its place in the lex
    order of its degree."""
    return {s: i for j in range(n + 1)
            for i, s in enumerate(itertools.combinations(range(1, n + 1), j))}


def upsilon(p):
    """The homomorphism v (x) v' -> eta(v) evaluated against the input,
    as a graded endomorphism.  Requires an even dimension, as the 2k classes
    of every circle give, and every term to preserve degree.

    The first factor lives over the reversed circle; its monomials carry the
    (-1)^{|subset|} identification sign (the same sign combine_factors uses).
    Rows are indexed by the second factor, so for a DD structure N over Z,
    k0_of_da(box_tensor(identity_aa(Z), N)) is upsilon(psi_K0(N)) transposed
    in each degree, as (-1)^theta(s) = (-1)^{|s|} star_sign(s', s) for the
    complement s' of s.
    """
    if p.factors != 2:
        raise BasisMismatch("upsilon expects a two-factor element")
    n0, n1 = p.dims
    if n0 != n1:
        raise DimensionMismatch("factors of different dimension")
    n = n0
    if n % 2:
        raise DimensionOdd("upsilon needs an even-dimensional space")
    for (a, b), _ in p.terms.items():
        if len(a) + len(b) != n:
            raise DegreeMismatch(
                f"term of bidegree ({len(a)}, {len(b)}) is not degree-preserving")
    out, index = GradedEndomorphism(n, {}), _subset_index(n)
    full = set(range(1, n + 1))
    for (a, b), c in p.terms.items():
        u = tuple(sorted(full - set(a)))
        sign = -1 if len(a) % 2 else 1
        out.blocks[len(b)][index[b]][index[u]] += sign * c * star_sign(u, a)
    return out


def tqft_compose(f, g):
    """Block-wise matrix product f o g."""
    if f.n != g.n:
        raise DimensionMismatch("endomorphisms over different dimensions")
    return GradedEndomorphism(f.n, {j: matmul(f.blocks[j], g.blocks[j])
                                    for j in range(f.n + 1)})


def graded_trace(e):
    """Delta(t) = sum_i (-1)^i t^i Tr(degree k+i block)."""
    if e.n % 2:
        raise DimensionOdd("graded trace needs an even-dimensional space")
    k = e.n // 2
    out = LaurentPolynomial.zero()
    for i in range(-k, k + 1):
        sign = -1 if i % 2 else 1
        out = out + LaurentPolynomial.monomial(i, sign * e.trace(k + i))
    return out


# decategorification of structures ----------------------------------------
def psi_K0(structure):
    """[N] in the exterior algebra: one factor for a type D structure, two
    for a DD structure; each generator contributes (-1)^gr on its stored
    idempotent monomial(s)."""
    if structure.flavor not in ("D", "DD"):
        raise BasisMismatch(
            f"psi_K0 expects a D or DD structure, got {structure.flavor}")
    two = structure.flavor == "DD"
    out = {}
    for g in structure.generators.values():
        key = tuple(sorted(g.idem_left))
        if two:
            key = (key, tuple(sorted(g.idem_right)))
        out[key] = out.get(key, 0) + (-1 if g.grading % 2 else 1)
    n = structure.pmc_left.num_classes
    return ExteriorElement((n, structure.pmc_right.num_classes) if two else (n,),
                           out)


def k0_functional(a_struct):
    """[M] for a type A structure, as a functional on the exterior algebra
    (monomial-dual identification); each elementary piece over the reversed
    circle carries the extra (-1)^{|s|} factor.  So the Euler characteristic
    of box_tensor(M, D) is sum_s (-1)^{|s|} [M]_s psi_K0(D)_s."""
    if a_struct.flavor != "A":
        raise BasisMismatch("k0_functional expects a type A structure")
    n = a_struct.pmc_right.num_classes
    out = {}
    for g in a_struct.generators.values():
        key = tuple(sorted(g.idem_right))
        sign = (-1 if g.grading % 2 else 1) * (-1 if len(key) % 2 else 1)
        out[key] = out.get(key, 0) + sign
    return ExteriorElement.single(n, out)


def k0_of_da(n_struct):
    """The induced Grothendieck-group endomorphism of a DA structure with
    degree-matched idempotents: entry (left idem, right idem) += (-1)^gr,
    with no reversed-circle sign.  Rows are indexed by the left idempotent,
    so psi_K0(box_tensor(M, D)) = k0_of_da(M) psi_K0(D); see upsilon for
    the transpose that the AA (x) DD law takes."""
    if n_struct.flavor != "DA":
        raise BasisMismatch("k0_of_da expects a DA structure")
    n = n_struct.pmc_right.num_classes
    out, index = GradedEndomorphism(n, {}), _subset_index(n)
    for g in n_struct.generators.values():
        if len(g.idem_left) != len(g.idem_right):
            raise DegreeMismatch(
                f"generator {g.name} does not preserve the exterior degree")
        row = index[tuple(sorted(g.idem_left))]
        col = index[tuple(sorted(g.idem_right))]
        out.blocks[len(g.idem_right)][row][col] += -1 if g.grading % 2 else 1
    return out
