"""Bordered partial-permutation signs and the noncommutative grading group.

Half-integers are represented exactly as doubled integers (suffix ``2`` on
names); no floating point appears anywhere.
"""

from __future__ import annotations

from itertools import combinations
from operator import sub

from . import strands
from .errors import (FlavorViolation, NotInRefinedSubgroup, NotSubordinate,
                     Record, SizeMismatch)
from .pmc import intersection_from_pmc


inv_seq = strands.inv_seq  # inversions of a sequence


def blocks(g, k_l, k_r):
    """The positions 1..g + k_l + k_r as the D block [1, 2k_l], the middle
    and the A block (the last 2k_r), as ranges; None for an absent side."""
    kl, kr = k_l or 0, k_r or 0
    return (range(1, 2 * kl + 1), range(2 * kl + 1, g + kl - kr + 1),
            range(g + kl - kr + 1, g + kl + kr + 1))


# (has a D (left) side, has an A (right) side) -> the flavor that names them
FLAVORS = {(False, True): "A", (True, False): "D", (True, True): "DA",
           (False, False): "closed"}


class BorderedPartialPermutation(Record):
    """(g, k_l, k_r, sigma): an injection sigma = (sigma(1), ..., sigma(g))
    into [g + k_l + k_r].

    k_l is the genus of the D (left) boundary and k_r that of the A (right)
    boundary, None for an absent side; the flavor ("A", "D", "DA", or
    "closed" for an honest permutation of [g]) only names the sides.  The
    positions split into ``blocks``, kept as ``d_block`` and ``a_block``,
    and every middle position is hit.
    """
    _fields = ("g", "k_l", "k_r", "sigma")
    __slots__ = _fields + ("d_block", "a_block")

    def __init__(self, g, k_l, k_r, sigma):
        Record.__init__(self, g, k_l, k_r, sigma)
        d_block, middle, a_block = blocks(g, k_l, k_r)
        object.__setattr__(self, "d_block", d_block)
        object.__setattr__(self, "a_block", a_block)
        if len(sigma) != g or len(set(sigma)) != g:
            raise FlavorViolation("sigma must be an injection defined on [g]")
        if any(not 1 <= x <= self.n for x in sigma):
            raise FlavorViolation("sigma image out of range")
        if g < (k_l or 0) + (k_r or 0):
            raise FlavorViolation("D and A blocks overlap (need g >= k_l + k_r)")
        missing = sorted(set(middle).difference(sigma))
        if missing:
            raise FlavorViolation(
                f"positions outside the boundary blocks must be hit: {missing}")

    @property
    def flavor(self):
        return FLAVORS[self.k_l is not None, self.k_r is not None]

    # block layout --------------------------------------------------------
    @property
    def n(self):
        return self.g + (self.k_l or 0) + (self.k_r or 0)

    def occupied(self):
        """The D positions sigma hits, and the A positions it hits numbered
        from 1, as frozensets."""
        shift = self.a_block.start - 1
        return (frozenset(x for x in self.sigma if x in self.d_block),
                frozenset(x - shift for x in self.sigma if x in self.a_block))

    # signs ---------------------------------------------------------------
    @property
    def t(self):
        """|Im(sigma) cap A|."""
        return len(self.occupied()[1])

    def sgn(self):
        """inv(sigma), plus the unhit D positions above each image point,
        plus t(g - k_l - k_r) when both sides are present.

        The m image points x in the D block 1..d have d - x positions of
        the block above them; the hit ones among these are one per pair of
        the m points.
        """
        d = len(self.d_block)
        hit = [x for x in self.sigma if x <= d]
        m = len(hit)
        d_extra = d * m - sum(hit) - m * (m - 1) // 2
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
    occ_left, occ_right = left.occupied()[1], right.occupied()[0]
    if occ_left & occ_right or occ_left | occ_right != set(right.d_block):
        return None
    shift = left.a_block.start - 1
    glued = tuple(left.sigma) + tuple(x + shift for x in right.sigma)
    return BorderedPartialPermutation(left.g + right.g, left.k_l, right.k_r,
                                      glued)


# the unrefined grading group -------------------------------------------
class GradingGroupElement(Record):
    """(j, eta) with j a half-integer (stored doubled) and eta a multiplicity
    vector over the 4k-1 intervals between consecutive marked points."""
    __slots__ = _fields = ("j2", "eta")

    def __init__(self, j2, eta):
        pc = _parity_changes(eta)
        if (2 * j2 - pc) % 4 != 0:
            raise SizeMismatch(f"j = {j2}/2 incompatible with {pc} parity changes")
        Record.__init__(self, j2, eta)

    def __mul__(self, other):
        if len(self.eta) != len(other.eta):
            raise SizeMismatch("different circles")
        eta = tuple(a + b for a, b in zip(self.eta, other.eta))
        j2 = self.j2 + other.j2 + L2(self.eta, other.eta)
        return GradingGroupElement(j2, eta)

    def inverse(self):
        return GradingGroupElement(-self.j2 + L2(self.eta, self.eta),
                                   tuple(-x for x in self.eta))

    @classmethod
    def identity(cls, n):
        return cls(0, (0,) * (n - 1))

    def power_of_central(self, c):
        return GradingGroupElement(self.j2 + 2 * c, self.eta)


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
    iota2 = 2 * inv_seq([t for _, t in pairs]) - sum(m2(eta, s) for s, _ in pairs)
    return GradingGroupElement(iota2, eta)


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


class RefinementData(Record):
    """What the grading map of one strands grading reads: ``base`` is the
    base idempotent s_0 (ascending class indices), ``psi`` maps a frozenset
    of classes to a GradingGroupElement, ``psi_inv`` holds the inverses of
    psi, and ``linking`` is the doubled intersection form, as 0-based
    triples (a, b, 2 omega_ab) for a < b with omega_ab nonzero: the doubled
    linking L2 of chords a and b, as chord a has boundary hi_a - lo_a."""
    __slots__ = _fields = ("pmc", "base", "psi", "psi_inv", "linking")


def refinement(pmc, t):
    """The refinement of strands grading t, built from the inversion-free
    elements; build it once and pass it to ``m_grading``."""
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
        elt = strands.StrandsBasisElement.make(pmc, tuple(zip(s0_points, tgt)))
        gp = g_prime(pmc, elt).power_of_central(elt.gr)
        psi[frozenset(s)] = gp
    psi_inv = {s: gp.inverse() for s, gp in psi.items()}
    linking = tuple((a, b, 2 * w)
                    for a, row in enumerate(intersection_from_pmc(pmc))
                    for b, w in enumerate(row) if a < b and w)
    return RefinementData(pmc, s0, psi, psi_inv, linking)


def refined_grading_element(ref, elt):
    """g(a) = psi(M(S)) g'(a) psi(M(T))^{-1} for a basis element of the
    strands grading of the refinement ``ref``."""
    return (ref.psi[elt.source_classes] * g_prime(ref.pmc, elt)
            * ref.psi_inv[elt.target_classes])


def f(ref, x):
    """The Z/2 homomorphism killing the refined chord generators: each chord
    coefficient counts with sign - on the base idempotent of ``ref`` and +
    off it."""
    h = chord_decomposition(ref.pmc, x.eta)
    f2 = x.j2 + sum(h) - 2 * sum(h[j - 1] for j in ref.base)
    f2 += sum(h[a] * h[b] * l2 for a, b, l2 in ref.linking)
    assert f2 % 2 == 0, "refined grading must be integral"
    return (f2 // 2) % 2


def m_grading(ref, elt):
    """The appendix route to the Z/2 grading of a basis element of the
    strands grading of the refinement ``ref``."""
    return f(ref, refined_grading_element(ref, elt))


def verify_grading_equivalence(pmc):
    """Compare gr with m on every basis element, building one refinement per
    strands grading; returns a report dict."""
    report = {"ok": True, "per_grading": {}, "counterexample": None}
    for t in range(-pmc.k, pmc.k + 1):
        ref = refinement(pmc, t)
        checked = 0
        for elt in strands.basis(pmc, t):
            mm = m_grading(ref, elt)
            if mm != elt.gr:
                report["ok"] = False
                if report["counterexample"] is None:
                    report["counterexample"] = {
                        "strands_grading": t, "pairs": elt.pairs,
                        "gr": elt.gr, "m": mm}
            checked += 1
        report["per_grading"][t] = checked
    return report
