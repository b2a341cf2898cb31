"""Bordered partial-permutation signs and the noncommutative grading group.

Half-integers are represented exactly as doubled integers (suffix ``2`` on
names); no floating point appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import sub

from . import strands
from .errors import (FlavorViolation, NotInRefinedSubgroup, NotSubordinate,
                     SizeMismatch)


def inv_seq(seq):
    """Inversions of a sequence (strict; ties not counted)."""
    return sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
               if seq[i] > seq[j])


@dataclass(frozen=True)
class BorderedPartialPermutation:
    """(g, k_l, k_r, sigma): an injection sigma = (sigma(1), ..., sigma(g))
    into [g + k_l + k_r].

    k_l is the genus of the D (left) boundary and k_r that of the A (right)
    boundary, None for an absent side; the flavor ("A", "D", "DA", or
    "closed" for an honest permutation of [g]) only names the sides.  The
    D block is [1, 2k_l], the A block the last 2k_r positions, and every
    position outside both blocks is hit.
    """
    g: int
    k_l: int | None
    k_r: int | None
    sigma: tuple

    def __post_init__(self):
        g, sig = self.g, self.sigma
        if len(sig) != g or len(set(sig)) != g:
            raise FlavorViolation("sigma must be an injection defined on [g]")
        if any(not 1 <= x <= self.n for x in sig):
            raise FlavorViolation("sigma image out of range")
        if g < (self.k_l or 0) + (self.k_r or 0):
            raise FlavorViolation("D and A blocks overlap (need g >= k_l + k_r)")
        blocks = set(self.d_block) | set(self.a_block) | set(sig)
        missing = [x for x in range(1, self.n + 1) if x not in blocks]
        if missing:
            raise FlavorViolation(
                f"positions outside the boundary blocks must be hit: {missing}")

    # constructors --------------------------------------------------------
    @classmethod
    def type_a(cls, g, k, sigma):
        return cls(g, None, k, tuple(sigma))

    @classmethod
    def type_d(cls, g, k, sigma):
        return cls(g, k, None, tuple(sigma))

    @classmethod
    def type_da(cls, g, k_l, k_r, sigma):
        return cls(g, k_l, k_r, tuple(sigma))

    @classmethod
    def closed(cls, g, sigma):
        return cls(g, None, None, tuple(sigma))

    @property
    def flavor(self):
        return ("D" if self.k_l is not None else "") + \
            ("A" if self.k_r is not None else "") or "closed"

    # block layout --------------------------------------------------------
    @property
    def n(self):
        return self.g + (self.k_l or 0) + (self.k_r or 0)

    @property
    def d_block(self):
        """The D block as a range of positions, or empty."""
        return range(1, 2 * (self.k_l or 0) + 1)

    @property
    def a_block(self):
        kr = self.k_r or 0
        return range(self.n - 2 * kr + 1, self.n + 1)

    # signs ---------------------------------------------------------------
    @property
    def t(self):
        """|Im(sigma) cap A|."""
        return sum(1 for x in self.sigma if x in self.a_block)

    def sgn(self):
        """inv(sigma), plus the unhit D positions above each image point,
        plus t(g - k_l - k_r) when both sides are present."""
        im = set(self.sigma)
        d_extra = sum(1 for i in im for j in self.d_block
                      if j > i and j not in im)
        both = self.k_l is not None and self.k_r is not None
        shape = self.t * (self.g - self.k_l - self.k_r) if both else 0
        return (inv_seq(self.sigma) + d_extra + shape) % 2


def sum_permutations(left, right):
    """Glue along the middle boundary; None when occupancies don't complement.

    left needs an A side and right a D side; the glued permutation keeps
    left's D side and right's A side (A+D -> closed, A+DA -> A, DA+D -> D,
    DA+DA -> DA).
    """
    if left.k_r is None or right.k_l is None:
        raise FlavorViolation(f"cannot glue {left.flavor}+{right.flavor}")
    if left.k_r != right.k_l:
        raise FlavorViolation("middle genus mismatch")
    k_mid = left.k_r
    shift = left.n - 2 * k_mid
    occ_left = {i - shift for i in left.sigma if i in left.a_block}
    occ_right = {i for i in right.sigma if i in right.d_block}
    if occ_left & occ_right or occ_left | occ_right != set(range(1, 2 * k_mid + 1)):
        return None
    glued = tuple(left.sigma) + tuple(x + shift for x in right.sigma)
    return BorderedPartialPermutation(left.g + right.g, left.k_l, right.k_r,
                                      glued)


def hochschild_closable(bpp):
    """Whether the DA permutation closes up (left/right occupancies complement)."""
    if bpp.k_l is None or bpp.k_l != bpp.k_r:
        raise FlavorViolation("Hochschild closure needs a DA shape with k_l = k_r")
    k = bpp.k_l
    folded = {x - bpp.g for x in bpp.sigma if x in bpp.a_block}
    kept = {x for x in bpp.sigma if x in bpp.d_block}
    return not (folded & kept) and folded | kept == set(range(1, 2 * k + 1))


def hochschild_closure(bpp):
    """The closed-up permutation of [g] (requires hochschild_closable)."""
    return tuple(x - bpp.g if x in bpp.a_block else x for x in bpp.sigma)


# the unrefined grading group -------------------------------------------
@dataclass(frozen=True)
class GradingGroupElement:
    """(j, eta) with j a half-integer (stored doubled) and eta a multiplicity
    vector over the 4k-1 intervals between consecutive marked points."""
    num_points: int
    j2: int
    eta: tuple

    def __post_init__(self):
        if len(self.eta) != self.num_points - 1:
            raise SizeMismatch("eta must have 4k-1 entries")
        pc = _parity_changes(self.eta)
        if (2 * self.j2 - pc) % 4 != 0:
            raise SizeMismatch(
                f"j = {self.j2}/2 incompatible with {pc} parity changes")

    def __mul__(self, other):
        if self.num_points != other.num_points:
            raise SizeMismatch("different circles")
        eta = tuple(a + b for a, b in zip(self.eta, other.eta))
        j2 = self.j2 + other.j2 + L2(self.eta, other.eta)
        return GradingGroupElement(self.num_points, j2, eta)

    def inverse(self):
        return GradingGroupElement(
            self.num_points,
            -self.j2 + L2(self.eta, self.eta),
            tuple(-x for x in self.eta))

    @classmethod
    def identity(cls, num_points):
        return cls(num_points, 0, (0,) * (num_points - 1))

    @classmethod
    def central(cls, num_points):
        """lambda = (1, 0)."""
        return cls(num_points, 2, (0,) * (num_points - 1))

    def power_of_central(self, c):
        return GradingGroupElement(self.num_points, self.j2 + 2 * c, self.eta)


def _boundary(eta):
    """The boundary of the interval chain eta at points 1..n, with eta padded
    by a zero multiplicity before point 1 and after point n."""
    e = (0, *eta, 0)
    return tuple(map(sub, e, e[1:]))


def _parity_changes(eta):
    return sum(b % 2 for b in _boundary(eta))


def boundary(eta, p):
    """Coefficient of point p in the boundary of the interval chain eta
    (0 off the points 1..n)."""
    return _boundary(eta)[p - 1] if 1 <= p <= len(eta) + 1 else 0


def m2(eta, p):
    """Doubled average multiplicity of eta at point p (0 off the points)."""
    e = (0, *eta, 0)
    return e[p - 1] + e[p] if 1 <= p <= len(eta) + 1 else 0


def L2(eta1, eta2):
    """Doubled L(eta1, eta2) = m(eta2, boundary(eta1))."""
    e2 = (0, *eta2, 0)
    return sum(b * (u + v) for b, u, v in zip(_boundary(eta1), e2, e2[1:]))


# the small grading group and refinement --------------------------------
def chord_eta(pmc, j):
    """Interval vector of the chord across matched class j."""
    lo, hi = pmc.class_points(j)
    return tuple(1 if lo <= i < hi else 0 for i in range(1, pmc.n))


def strand_eta(pmc, pairs):
    """[a]: total interval multiplicity swept by the moving strands."""
    eta = [0] * (pmc.n - 1)
    for s, t in pairs:
        for i in range(s, t):
            eta[i - 1] += 1
    return tuple(eta)


def g_prime(pmc, elt):
    """The unrefined group grading of a basis element (canonical rep)."""
    pairs = elt.pairs
    eta = strand_eta(pmc, pairs)
    iota2 = 2 * strands._inv(pairs) - sum(m2(eta, s) for s, _ in pairs)
    return GradingGroupElement(pmc.n, iota2, eta)


def in_small_group(pmc, x):
    """M_*(boundary eta) = 0, the test of chord_decomposition."""
    try:
        chord_decomposition(pmc, x.eta)
    except NotInRefinedSubgroup:
        return False
    return True


def chord_decomposition(pmc, eta):
    """Write eta as an integer combination of the class chords, read off the
    boundary.

    The chord of class j has boundary hi_j - lo_j, and a chain of intervals
    that is zero at both ends is fixed by its boundary.  So eta lies in the
    chord span exactly when boundary(eta) cancels on every matched pair, and
    then h_j = -boundary(eta, lo_j).  NotInRefinedSubgroup otherwise.
    """
    bd = _boundary(eta)
    ends = [pmc.class_points(j) for j in range(1, pmc.num_classes + 1)]
    if len(eta) != pmc.n - 1 or any(bd[lo - 1] + bd[hi - 1] for lo, hi in ends):
        raise NotInRefinedSubgroup("eta is not an integer chord combination")
    return tuple(-bd[lo - 1] for lo, _ in ends)


@lru_cache(maxsize=None)
def chord_linking(pmc):
    """The nonzero doubled chord linkings L2(chord a, chord b), a < b, as
    0-based (a, b, l2) triples; built once per circle."""
    etas = [chord_eta(pmc, j) for j in range(1, pmc.num_classes + 1)]
    out = []
    for a, b in combinations(range(len(etas)), 2):
        l2 = L2(etas[a], etas[b])
        assert l2 % 2 == 0, "chord linking must be integral"
        if l2:
            out.append((a, b, l2))
    return tuple(out)


@dataclass(frozen=True)
class RefinementData:
    pmc: object
    t: int
    base: tuple  # the base idempotent s_0, ascending class indices
    psi: dict  # frozenset of classes -> GradingGroupElement
    psi_inv: dict  # the inverses of psi, built once


@lru_cache(maxsize=None)
def refinement(pmc, t):
    """Refinement data built from the inversion-free elements."""
    if not pmc.subordinate:
        raise NotSubordinate("matching is not subordinate to the point order")
    k = pmc.k
    size = k + t
    mins = [pmc.class_min(j) for j in range(1, pmc.num_classes + 1)]
    s0_points = tuple(sorted(mins)[:size])
    s0 = tuple(sorted(pmc.cls(p) for p in s0_points))
    psi = {}
    for s in combinations(range(1, pmc.num_classes + 1), size):
        tgt = tuple(sorted(pmc.class_min(j) for j in s))
        pairs = tuple(zip(s0_points, tgt))
        if any(b < a for a, b in pairs):
            raise AssertionError("base points are not minimal")
        elt = strands.StrandsBasisElement.make(pmc, pairs)
        gp = g_prime(pmc, elt).power_of_central(elt.gr)
        psi[frozenset(s)] = gp
    psi_inv = {s: gp.inverse() for s, gp in psi.items()}
    return RefinementData(pmc, t, s0, psi, psi_inv)


def refined_grading_element(pmc, t, elt):
    """g(a) = psi(M(S)) g'(a) psi(M(T))^{-1} for a basis element of grading t."""
    ref = refinement(pmc, t)
    s_cls = frozenset(pmc.cls(s) for s, _ in elt.pairs)
    t_cls = frozenset(pmc.cls(tt) for _, tt in elt.pairs)
    return ref.psi[s_cls] * g_prime(pmc, elt) * ref.psi_inv[t_cls]


def f(pmc, t, x):
    """The Z/2 homomorphism killing the refined chord generators."""
    h = chord_decomposition(pmc, x.eta)
    ref = refinement(pmc, t)
    s0 = set(ref.base)
    f2 = x.j2
    for j, hj in enumerate(h, start=1):
        f2 += -hj if j in s0 else hj
    f2 += sum(h[a] * h[b] * l2 for a, b, l2 in chord_linking(pmc))
    assert f2 % 2 == 0, "refined grading must be integral"
    return (f2 // 2) % 2


def m_grading(pmc, elt):
    """The appendix route to the Z/2 grading of a basis element."""
    return f(pmc, elt.strands_grading, refined_grading_element(pmc, elt.strands_grading, elt))


def verify_grading_equivalence(pmc):
    """Compare gr with m on every basis element; returns a report dict."""
    report = {"ok": True, "per_grading": {}, "counterexample": None}
    for t in range(-pmc.k, pmc.k + 1):
        checked = 0
        for elt in strands.basis(pmc, t):
            mm = m_grading(pmc, elt)
            if mm != elt.gr:
                report["ok"] = False
                if report["counterexample"] is None:
                    report["counterexample"] = {
                        "strands_grading": t, "pairs": elt.pairs,
                        "gr": elt.gr, "m": mm}
            checked += 1
        report["per_grading"][t] = checked
    return report
