"""Bordered partial-permutation signs and the noncommutative grading group.

Half-integers are represented exactly as doubled integers (suffix ``2`` on
names); no floating point appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import strands
from .errors import (FlavorViolation, NotInRefinedSubgroup, NotSubordinate,
                     SizeMismatch)


def inv_seq(seq):
    """Inversions of a sequence (strict; ties not counted)."""
    return sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
               if seq[i] > seq[j])


@dataclass(frozen=True)
class BorderedPartialPermutation:
    """(g, k, B, sigma) in one of the flavors A, D, DA (or 'closed').

    sigma is the tuple (sigma(1), ..., sigma(g)), an injection into
    [g + k] (flavors A, D) or [g + k_l + k_r] (flavor DA); 'closed' means an
    honest permutation of [g].
    """
    flavor: str
    g: int
    k_l: int
    k_r: int
    sigma: tuple

    # constructors --------------------------------------------------------
    @classmethod
    def type_a(cls, g, k, sigma):
        self = cls("A", g, 0, k, tuple(sigma))
        self._check()
        return self

    @classmethod
    def type_d(cls, g, k, sigma):
        self = cls("D", g, k, 0, tuple(sigma))
        self._check()
        return self

    @classmethod
    def type_da(cls, g, k_l, k_r, sigma):
        self = cls("DA", g, k_l, k_r, tuple(sigma))
        self._check()
        return self

    @classmethod
    def closed(cls, g, sigma):
        self = cls("closed", g, 0, 0, tuple(sigma))
        self._check()
        return self

    # block layout --------------------------------------------------------
    @property
    def n(self):
        if self.flavor == "A":
            return self.g + self.k_r
        if self.flavor == "D":
            return self.g + self.k_l
        if self.flavor == "DA":
            return self.g + self.k_l + self.k_r
        return self.g

    @property
    def d_block(self):
        """The D block as a range of positions, or empty."""
        if self.flavor == "D":
            return range(1, 2 * self.k_l + 1)
        if self.flavor == "DA":
            return range(1, 2 * self.k_l + 1)
        return range(0)

    @property
    def a_block(self):
        if self.flavor == "A":
            return range(self.g - self.k_r + 1, self.g + self.k_r + 1)
        if self.flavor == "DA":
            return range(self.g + self.k_l - self.k_r + 1,
                         self.g + self.k_l + self.k_r + 1)
        return range(0)

    def _check(self):
        g, sig = self.g, self.sigma
        if len(sig) != g or len(set(sig)) != g:
            raise FlavorViolation("sigma must be an injection defined on [g]")
        if any(not 1 <= x <= self.n for x in sig):
            raise FlavorViolation("sigma image out of range")
        if self.flavor in ("A", "D") and self.g < max(self.k_l, self.k_r):
            raise FlavorViolation("need g >= k")
        if self.flavor == "DA" and self.g < self.k_l + self.k_r:
            raise FlavorViolation("D and A blocks overlap (need g >= k_l + k_r)")
        if self.flavor == "closed":
            if sorted(sig) != list(range(1, g + 1)):
                raise FlavorViolation("closed flavor needs a permutation of [g]")
            return
        im = set(sig)
        blocks = set(self.d_block) | set(self.a_block)
        missing = [x for x in range(1, self.n + 1)
                   if x not in blocks and x not in im]
        if missing:
            raise FlavorViolation(
                f"positions outside the boundary blocks must be hit: {missing}")

    # signs ---------------------------------------------------------------
    @property
    def t(self):
        """|Im(sigma) cap A|."""
        return sum(1 for x in self.sigma if x in self.a_block)

    def sgn(self):
        im = set(self.sigma)
        base = inv_seq(self.sigma)
        if self.flavor in ("closed", "A"):
            return base % 2
        d_extra = sum(1 for i in im
                      for j in range(i + 1, self.n + 1)
                      if j not in im and (self.flavor == "D" or j in self.d_block))
        if self.flavor == "D":
            return (base + d_extra) % 2
        # DA
        d_extra = sum(1 for i in im for j in self.d_block
                      if j > i and j not in im)
        return (base + d_extra + self.t * (self.g - self.k_l - self.k_r)) % 2


def sum_permutations(left, right):
    """Glue along the middle boundary; None when occupancies don't complement.

    Composable shapes: A+D (-> closed), A+DA (-> A), DA+D (-> D), DA+DA (-> DA).
    """
    if left.flavor not in ("A", "DA") or right.flavor not in ("D", "DA"):
        raise FlavorViolation(f"cannot glue {left.flavor}+{right.flavor}")
    k_mid_left = left.k_r
    k_mid_right = right.k_l
    if k_mid_left != k_mid_right:
        raise FlavorViolation("middle genus mismatch")
    k_mid = k_mid_left
    shift = left.g + (left.k_l if left.flavor == "DA" else 0) - k_mid
    occ_left = {i - shift for i in left.sigma if i in left.a_block}
    occ_right = {i for i in right.sigma if i in right.d_block}
    if occ_left & occ_right or occ_left | occ_right != set(range(1, 2 * k_mid + 1)):
        return None
    glued = tuple(left.sigma) + tuple(x + shift for x in right.sigma)
    g = left.g + right.g
    if left.flavor == "A" and right.flavor == "D":
        return BorderedPartialPermutation.closed(g, glued)
    if left.flavor == "A":
        return BorderedPartialPermutation.type_a(g, right.k_r, glued)
    if right.flavor == "D":
        return BorderedPartialPermutation.type_d(g, left.k_l, glued)
    return BorderedPartialPermutation.type_da(g, left.k_l, right.k_r, glued)


def hochschild_closable(bpp):
    """Whether the DA permutation closes up (left/right occupancies complement)."""
    if bpp.flavor != "DA" or bpp.k_l != bpp.k_r:
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


def _ext(eta, i):
    """eta extended by zero multiplicity outside the circle's intervals."""
    return eta[i - 1] if 1 <= i <= len(eta) else 0


def _parity_changes(eta):
    n = len(eta) + 1
    return sum(1 for p in range(1, n + 1)
               if (_ext(eta, p - 1) - _ext(eta, p)) % 2)


def boundary(eta, p):
    """Coefficient of point p in the boundary of the interval chain eta."""
    return _ext(eta, p - 1) - _ext(eta, p)


def m2(eta, p):
    """Doubled average multiplicity of eta at point p."""
    return _ext(eta, p - 1) + _ext(eta, p)


def L2(eta1, eta2):
    """Doubled L(eta1, eta2) = m(eta2, boundary(eta1))."""
    n = len(eta1) + 1
    return sum(boundary(eta1, p) * m2(eta2, p) for p in range(1, n + 1))


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
    """M_*(boundary eta) = 0."""
    for j in range(1, pmc.num_classes + 1):
        lo, hi = pmc.class_points(j)
        if boundary(x.eta, lo) + boundary(x.eta, hi) != 0:
            return False
    return True


def chord_decomposition(pmc, eta):
    """Write eta as an integer combination of the class chords.

    Scans intervals left to right; each minus point opens the single new
    unknown.  NotInRefinedSubgroup if no integer solution exists.
    """
    h = {}
    for i in range(1, pmc.n):  # interval between points i and i+1
        covering = [j for j in range(1, pmc.num_classes + 1)
                    if pmc.class_points(j)[0] <= i < pmc.class_points(j)[1]]
        unknown = [j for j in covering if j not in h]
        known = sum(h[j] for j in covering if j in h)
        if len(unknown) > 1:
            raise AssertionError("more than one chord opens per interval")
        if unknown:
            h[unknown[0]] = eta[i - 1] - known
        elif known != eta[i - 1]:
            raise NotInRefinedSubgroup(f"eta not in the chord span at interval {i}")
    hvec = tuple(h.get(j, 0) for j in range(1, pmc.num_classes + 1))
    check = [0] * (pmc.n - 1)
    for j, hj in enumerate(hvec, start=1):
        ce = chord_eta(pmc, j)
        for i in range(pmc.n - 1):
            check[i] += hj * ce[i]
    if tuple(check) != tuple(eta):
        raise NotInRefinedSubgroup("eta is not an integer chord combination")
    return hvec


@dataclass(frozen=True)
class RefinementData:
    pmc: object
    t: int
    base: tuple  # the base idempotent s_0, ascending class indices
    psi: dict  # frozenset of classes -> GradingGroupElement


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
    from itertools import combinations
    for s in combinations(range(1, pmc.num_classes + 1), size):
        tgt = tuple(sorted(pmc.class_min(j) for j in s))
        pairs = tuple(zip(s0_points, tgt))
        if any(b < a for a, b in pairs):
            raise AssertionError("base points are not minimal")
        elt = strands.StrandsBasisElement.make(pmc, pairs)
        gp = g_prime(pmc, elt).power_of_central(elt.gr)
        psi[frozenset(s)] = gp
    return RefinementData(pmc, t, s0, psi)


def refined_grading_element(pmc, t, elt):
    """g(a) = psi(M(S)) g'(a) psi(M(T))^{-1} for a basis element of grading t."""
    ref = refinement(pmc, t)
    s_cls = frozenset(pmc.cls(s) for s, _ in elt.pairs)
    t_cls = frozenset(pmc.cls(tt) for _, tt in elt.pairs)
    return ref.psi[s_cls] * g_prime(pmc, elt) * ref.psi[t_cls].inverse()


def f(pmc, t, x):
    """The Z/2 homomorphism killing the refined chord generators."""
    if not in_small_group(pmc, x):
        raise NotInRefinedSubgroup("element has nonzero matched boundary")
    h = chord_decomposition(pmc, x.eta)
    ref = refinement(pmc, t)
    s0 = set(ref.base)
    f2 = x.j2
    for j, hj in enumerate(h, start=1):
        f2 += -hj if j in s0 else hj
    nclasses = pmc.num_classes
    for a in range(1, nclasses + 1):
        for b in range(a + 1, nclasses + 1):
            l2 = L2(chord_eta(pmc, a), chord_eta(pmc, b))
            assert l2 % 2 == 0, "chord linking must be integral"
            f2 += h[a - 1] * h[b - 1] * l2
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
