"""Bordered Heegaard diagram combinatorics.

A diagram is recorded by its intersection points: each point sits on one beta
circle and one alpha (a circle, or an arc labelled by the matched class of its
boundary endpoints), and carries a local sign in {0, 1}.  Generators pick one
point per beta with distinct alphas; the induced injection, read in the
flavor's alpha ordering, is a bordered partial permutation and its sign plus
the local signs give the Z/2 grading.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from . import pmc as pmc_mod
from .errors import (FlavorOrderViolation, FlavorViolation, InvalidDiagram,
                     NotClosed, SchemaViolation)
from .gradings import BorderedPartialPermutation, sum_permutations


@dataclass(frozen=True)
class IntersectionPoint:
    name: str
    beta: int  # 1-based beta circle index
    alpha_kind: str  # "circle", "arc", "arc_left", "arc_right"
    alpha: int  # 1-based index within its kind
    sign: int  # 0 or 1

    def to_json(self):
        return {"name": self.name, "beta": self.beta,
                "alpha": {"kind": self.alpha_kind, "index": self.alpha},
                "sign": self.sign}

    @classmethod
    def from_json(cls, obj):
        try:
            return cls(str(obj["name"]), int(obj["beta"]),
                       str(obj["alpha"]["kind"]), int(obj["alpha"]["index"]),
                       int(obj["sign"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaViolation(f"bad intersection point: {exc}") from exc


_KINDS = {"A": ("circle", "arc"),
          "D": ("circle", "arc"),
          "DA": ("circle", "arc_left", "arc_right"),
          "closed": ("circle",)}


@dataclass(frozen=True)
class BorderedDiagram:
    flavor: str  # "A", "D", "DA"
    genus: int
    pmc_left: object  # None for flavor A
    pmc_right: object  # None for flavor D
    points: tuple
    name: str = ""

    @property
    def k_l(self):
        return self.pmc_left.k if self.pmc_left is not None else 0

    @property
    def k_r(self):
        return self.pmc_right.k if self.pmc_right is not None else 0

    @property
    def num_circles(self):
        return self.genus - self.k_l - self.k_r

    @property
    def boundary(self):
        """The single boundary circle of an A or D diagram."""
        return self.pmc_right if self.flavor == "A" else self.pmc_left

    def validate(self):
        if self.flavor not in _KINDS:
            raise InvalidDiagram(f"unknown flavor {self.flavor}")
        if self.flavor == "A" and (self.pmc_right is None or self.pmc_left is not None):
            raise InvalidDiagram("flavor A has exactly a right boundary")
        if self.flavor == "D" and (self.pmc_left is None or self.pmc_right is not None):
            raise InvalidDiagram("flavor D has exactly a left boundary")
        if self.flavor == "DA" and (self.pmc_left is None or self.pmc_right is None):
            raise InvalidDiagram("flavor DA has two boundaries")
        if self.flavor == "closed" and (self.pmc_left is not None
                                        or self.pmc_right is not None):
            raise InvalidDiagram("a closed diagram has no boundary")
        if self.num_circles < 0:
            raise InvalidDiagram("genus too small for the boundary circles")
        names = [p.name for p in self.points]
        if len(set(names)) != len(names):
            raise InvalidDiagram("duplicate point names")
        for p in self.points:
            if p.sign not in (0, 1):
                raise InvalidDiagram(f"point {p.name}: bad sign")
            if not 1 <= p.beta <= self.genus:
                raise InvalidDiagram(f"point {p.name}: beta out of range")
            kinds = _KINDS[self.flavor]
            kind = p.alpha_kind
            if self.flavor in ("A", "D") and kind not in ("circle", "arc"):
                raise FlavorOrderViolation(
                    f"point {p.name}: kind {kind} needs a two-sided diagram")
            if kind not in kinds:
                raise FlavorOrderViolation(f"point {p.name}: bad kind {kind}")
            limit = {"circle": self.num_circles,
                     "arc": 2 * max(self.k_l, self.k_r),
                     "arc_left": 2 * self.k_l,
                     "arc_right": 2 * self.k_r}[kind]
            if not 1 <= p.alpha <= limit:
                raise InvalidDiagram(f"point {p.name}: alpha index out of range")
        return True

    # flavor-ordered alpha slots -----------------------------------------
    def alpha_slot(self, point):
        g, kl, kr = self.genus, self.k_l, self.k_r
        if self.flavor == "closed":
            return point.alpha
        if self.flavor == "A":
            k = kr
            return point.alpha if point.alpha_kind == "circle" \
                else (g - k) + point.alpha
        if self.flavor == "D":
            k = kl
            return point.alpha if point.alpha_kind == "arc" \
                else 2 * k + point.alpha
        if point.alpha_kind == "arc_left":
            return point.alpha
        if point.alpha_kind == "circle":
            return 2 * kl + point.alpha
        return (g + kl - kr) + point.alpha

    # JSON ----------------------------------------------------------------
    def to_json(self):
        obj = {"flavor": self.flavor, "genus": self.genus,
               "points": [p.to_json() for p in self.points]}
        if self.name:
            obj["name"] = self.name
        if self.flavor == "closed":
            pass
        elif self.flavor == "A":
            obj["boundary"] = self.pmc_right.to_json()
        elif self.flavor == "D":
            obj["boundary"] = self.pmc_left.to_json()
        else:
            obj["boundary_left"] = self.pmc_left.to_json()
            obj["boundary_right"] = self.pmc_right.to_json()
        return obj

    @classmethod
    def from_json(cls, obj):
        try:
            flavor = str(obj["flavor"])
            genus = int(obj["genus"])
            points = tuple(IntersectionPoint.from_json(p) for p in obj["points"])
            if flavor == "closed":
                left, right = None, None
            elif flavor == "A":
                left, right = None, pmc_mod.load(obj["boundary"])
            elif flavor == "D":
                left, right = pmc_mod.load(obj["boundary"]), None
            else:
                left = pmc_mod.load(obj["boundary_left"])
                right = pmc_mod.load(obj["boundary_right"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaViolation(f"bad diagram JSON: {exc}") from exc
        diag = cls(flavor, genus, left, right, points, obj.get("name", ""))
        diag.validate()
        return diag

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))


@dataclass(frozen=True)
class DiagramGenerator:
    diagram: BorderedDiagram
    points: tuple  # one IntersectionPoint per beta, ordered by beta

    @property
    def name(self):
        return "".join(p.name for p in self.points)

    @property
    def sigma(self):
        d = self.diagram
        slots = tuple(d.alpha_slot(p) for p in self.points)
        if d.flavor == "closed":
            return BorderedPartialPermutation.closed(d.genus, slots)
        if d.flavor == "A":
            return BorderedPartialPermutation.type_a(d.genus, d.k_r, slots)
        if d.flavor == "D":
            return BorderedPartialPermutation.type_d(d.genus, d.k_l, slots)
        return BorderedPartialPermutation.type_da(d.genus, d.k_l, d.k_r, slots)

    @property
    def grading(self):
        return (self.sigma.sgn() + sum(p.sign for p in self.points)) % 2

    def occupied_arcs(self, kind):
        return frozenset(p.alpha for p in self.points if p.alpha_kind == kind)

    @property
    def idempotent_left(self):
        """D side: the classes of the unoccupied left arcs."""
        d = self.diagram
        if d.flavor == "A":
            return None
        kind = "arc" if d.flavor == "D" else "arc_left"
        occ = self.occupied_arcs(kind)
        return frozenset(range(1, 2 * d.k_l + 1)) - occ

    @property
    def idempotent_right(self):
        """A side: the classes of the occupied right arcs."""
        d = self.diagram
        if d.flavor == "D":
            return None
        kind = "arc" if d.flavor == "A" else "arc_right"
        return self.occupied_arcs(kind)

    def split_idempotent(self, k1):
        """Split a one-sided idempotent over a connected-sum boundary.

        Returns (classes <= 2*k1, higher classes shifted down by 2*k1).
        """
        idem = self.idempotent_left if self.diagram.flavor == "D" \
            else self.idempotent_right
        lo = frozenset(j for j in idem if j <= 2 * k1)
        hi = frozenset(j - 2 * k1 for j in idem if j > 2 * k1)
        return lo, hi

    def to_json(self):
        return {"name": self.name,
                "points": [p.name for p in self.points],
                "grading": self.grading}


def enumerate_generators(diagram):
    """All ways to pick one point per beta covering every alpha circle and
    the right number of arcs."""
    diagram.validate()
    per_beta = [[] for _ in range(diagram.genus)]
    for p in diagram.points:
        per_beta[p.beta - 1].append(p)
    out = []
    for combo in itertools.product(*per_beta):
        slots = [diagram.alpha_slot(p) for p in combo]
        if len(set(slots)) != len(slots):
            continue
        gen = DiagramGenerator(diagram, tuple(combo))
        try:
            gen.sigma
        except FlavorViolation:
            continue
        out.append(gen)
    return out


def grade(flavor, gen):
    """The diagram-level grading, refusing a flavor the diagram does not
    declare (the alpha ordering differs per flavor)."""
    if gen.diagram.flavor != flavor:
        raise FlavorOrderViolation(
            f"diagram is {gen.diagram.flavor}-ordered, not {flavor}")
    return gen.grading


def closed_grading(gen):
    if gen.diagram.flavor != "closed":
        raise NotClosed("generator does not live on a closed diagram")
    return gen.grading


def glued_grading(left_gen, right_gen):
    """Grading of a pair of generators glued along the middle boundary.

    None when their middle arc occupancies do not complement each other.
    """
    glued = sum_permutations(left_gen.sigma, right_gen.sigma)
    if glued is None:
        return None
    extra = sum(p.sign for p in left_gen.points) \
        + sum(p.sign for p in right_gen.points)
    return (glued.sgn() + extra) % 2


# built-in diagrams -------------------------------------------------------
def solid_torus_a_diagram():
    """Genus-1 diagram with one boundary; the beta crosses arcs 2 and 1."""
    z = pmc_mod.genus1()
    pts = (IntersectionPoint("x", 1, "arc", 2, 0),
           IntersectionPoint("y", 1, "arc", 1, 1))
    d = BorderedDiagram("A", 1, None, z, pts, name="solid_torus_a")
    d.validate()
    return d


def solid_torus_d_diagram():
    z = pmc_mod.genus1()
    pts = (IntersectionPoint("a", 1, "arc", 1, 0),
           IntersectionPoint("b", 1, "arc", 2, 1))
    d = BorderedDiagram("D", 1, z, None, pts, name="solid_torus_d")
    d.validate()
    return d


def trefoil_diagram():
    """Genus-2 diagram for the drilled trefoil complement.

    One 8-point boundary circle; the four arcs split 2+2 over the two
    connected-sum factors.
    """
    z = pmc_mod.trefoil_pmc()
    pts = (IntersectionPoint("a", 1, "arc", 1, 0),
           IntersectionPoint("b", 1, "arc", 4, 0),
           IntersectionPoint("c", 1, "arc", 2, 1),
           IntersectionPoint("e", 2, "arc", 4, 1),
           IntersectionPoint("f", 2, "arc", 3, 0),
           IntersectionPoint("g", 2, "arc", 1, 1))
    d = BorderedDiagram("D", 2, z, None, pts, name="trefoil")
    d.validate()
    return d


def identity_aa_diagram(z):
    """The standard diagram whose type AA module is the identity bimodule.

    Genus 2k, boundary -Z # Z.  Beta j crosses the bottom copy of arc j with
    sign 0 and the top copy (arc 2k + j) with sign 1.
    """
    boundary = pmc_mod.connected_sum(pmc_mod.reverse(z), z)
    n2k = z.num_classes
    pts = []
    for j in range(1, n2k + 1):
        pts.append(IntersectionPoint(f"b{j}", j, "arc", j, 0))
        pts.append(IntersectionPoint(f"t{j}", j, "arc", n2k + j, 1))
    d = BorderedDiagram("A", n2k, None, boundary, tuple(pts),
                        name="identity_aa")
    d.validate()
    return d
