"""Bordered Heegaard diagram combinatorics.

A diagram has a left (type D) boundary circle, a right (type A) one, both or
neither; its flavor ("D", "A", "DA" or "closed") only names these sides.  It
is recorded by its intersection points: each point sits on one beta circle
and one alpha (a circle, or an arc labelled by the matched class of its
boundary endpoints: kind "arc" on a one-sided diagram, "arc_left" or
"arc_right" on a two-sided one), and carries a local sign in {0, 1}.

One slot table per diagram orders the alphas by the block layout of a
bordered partial permutation: left arcs fill the D block, circles the
middle, right arcs the A block.  A generator picks one point per beta, no
two on one alpha, and covers every alpha circle (Lipshitz-Ozsvath-Thurston,
arXiv:0810.0687); it stores the injection into the slots as a bordered
partial permutation, whose sign plus the local signs give the Z/2 grading.
`structure` is the one place that turns the generators into a module.
"""

from __future__ import annotations

from . import pmc as pmc_mod
from .errors import Record, SchemaViolation, check, show, sided
from .gradings import (FLAVORS, BorderedPartialPermutation, blocks,
                       sum_permutations)


class IntersectionPoint(Record):
    """A point on beta circle ``beta`` and on alpha ``alpha`` of kind
    ``alpha_kind`` ("circle", "arc", "arc_left" or "arc_right"), both
    1-based, with local sign 0 or 1."""
    __slots__ = _fields = ("name", "beta", "alpha_kind", "alpha", "sign")

    def to_json(self):
        return {"name": self.name, "beta": self.beta,
                "alpha": {"kind": self.alpha_kind, "index": self.alpha},
                "sign": self.sign}

    @classmethod
    def from_json(cls, obj, path=""):
        check(obj, {"name": str, "beta": int,
                    "alpha": {"kind": str, "index": int}, "sign": (0, 1)}, path)
        return cls(obj["name"], obj["beta"], obj["alpha"]["kind"],
                   obj["alpha"]["index"], obj["sign"])


# the sides and the diagram file of each flavor; points are checked one by one
_SPECS = {flavor: (sides, {
    "flavor": str, "genus": int, "name?": str, "points": [dict],
    **{key: dict for key, side in zip(sided("boundary", all(sides)), sides)
       if side}}) for sides, flavor in FLAVORS.items()}


class BorderedDiagram(Record):
    """``pmc_left`` is the D boundary and ``pmc_right`` the A boundary, None
    when absent; ``flavor`` ("A", "D", "DA" or "closed") names the sides.
    ``slots`` maps each alpha kind to its range of slots in
    ``gradings.blocks``: left arcs on the D block, circles on the middle,
    right arcs on the A block.  A diagram whose genus is too small for its
    boundary, or whose points share a name or lie off its signs, betas or
    alphas, raises SchemaViolation when it is made."""
    _fields = ("genus", "pmc_left", "pmc_right", "points", "name")
    __slots__ = _fields + ("slots",)

    def __init__(self, genus, pmc_left, pmc_right, points, name=""):
        Record.__init__(self, genus, pmc_left, pmc_right, points, name)
        kinds = (self.arc_kinds[0], "circle", self.arc_kinds[1])
        sides = (pmc_left is not None, True, pmc_right is not None)
        object.__setattr__(self, "slots", {
            kind: slots for kind, slots, side in
            zip(kinds, blocks(genus, self.k_l, self.k_r), sides) if side})
        if genus < (self.k_l or 0) + (self.k_r or 0):
            raise SchemaViolation("genus: too small for the boundary circles")
        if len({p.name for p in points}) != len(points):
            raise SchemaViolation("points: two points share a name")
        for i, p in enumerate(points):
            if p.sign not in (0, 1):
                raise SchemaViolation(f"points[{i}].sign: not 0 or 1")
            if not 1 <= p.beta <= genus:
                raise SchemaViolation(f"points[{i}].beta: out of range")
            if p.alpha_kind not in self.slots:
                raise SchemaViolation(
                    f"points[{i}].alpha.kind: no {p.alpha_kind!r} alphas on "
                    f"{'an' if self.flavor == 'A' else 'a'} {self.flavor} diagram")
            if not 1 <= p.alpha <= len(self.slots[p.alpha_kind]):
                raise SchemaViolation(f"points[{i}].alpha.index: out of range")

    @property
    def flavor(self):
        return FLAVORS[self.pmc_left is not None, self.pmc_right is not None]

    @property
    def k_l(self):
        """Genus of the left boundary, None when absent."""
        return self.pmc_left.k if self.pmc_left is not None else None

    @property
    def k_r(self):
        return self.pmc_right.k if self.pmc_right is not None else None

    @property
    def two_sided(self):
        return self.pmc_left is not None and self.pmc_right is not None

    @property
    def arc_kinds(self):
        """The alpha kinds of the left and right arcs."""
        return sided("arc", self.two_sided)

    def alpha_slot(self, point):
        return self.slots[point.alpha_kind][point.alpha - 1]

    # JSON ----------------------------------------------------------------
    def to_json(self):
        obj = {"flavor": self.flavor, "genus": self.genus,
               "points": [p.to_json() for p in self.points]}
        if self.name:
            obj["name"] = self.name
        keys = sided("boundary", self.two_sided)
        for key, circle in zip(keys, (self.pmc_left, self.pmc_right)):
            if circle is not None:
                obj[key] = circle.to_json()
        return obj

    @classmethod
    def from_json(cls, obj):
        """A diagram read from JSON; a malformed one raises SchemaViolation."""
        flavor = check(check(obj, dict).get("flavor"), tuple(_SPECS), "flavor")
        sides, spec = _SPECS[flavor]
        check(obj, spec)
        left, right = (pmc_mod.load(obj[key], key) if side else None
                       for key, side in zip(sided("boundary", all(sides)), sides))
        points = tuple(IntersectionPoint.from_json(p, f"points[{i}]")
                       for i, p in enumerate(obj["points"]))
        return cls(obj["genus"], left, right, points, obj.get("name", ""))


class DiagramGenerator(Record):
    """One IntersectionPoint per beta, ordered by beta, and ``sigma``, the
    BorderedPartialPermutation of their alpha slots."""
    __slots__ = _fields = ("points", "sigma")

    @property
    def name(self):
        return "".join(p.name for p in self.points)

    @property
    def grading(self):
        return (self.sigma.sgn() + sum(p.sign for p in self.points)) % 2

    def to_json(self):
        return {"name": self.name,
                "points": [p.name for p in self.points],
                "grading": self.grading}


def enumerate_generators(diagram):
    """All generators: one point per beta, no two on one alpha, every alpha
    circle covered.  Picks grow one beta at a time, taking each beta's
    points in file order; only a kept pick builds its permutation.  Two
    generators of one name ("a" + "bb" and "ab" + "b") raise SchemaViolation."""
    picks = [((), ())]  # (points, their alpha slots)
    for beta in range(1, diagram.genus + 1):
        on_beta = [(p, diagram.alpha_slot(p)) for p in diagram.points
                   if p.beta == beta]
        picks = [(points + (p,), used + (slot,)) for points, used in picks
                 for p, slot in on_beta if slot not in used]
    circles = set(diagram.slots["circle"])
    gens = [DiagramGenerator(points, BorderedPartialPermutation(
                diagram.genus, diagram.k_l, diagram.k_r, used))
            for points, used in picks if circles.issubset(used)]
    names = sorted(g.name for g in gens)
    for a, b in zip(names, names[1:]):
        if a == b:
            raise SchemaViolation(f"two generators are named {show(a)}", "points")
    return gens


def structure(diagram):
    """The diagram's module at the generator level: one ModuleGenerator per
    generator, in name order, with its grading, and no ops.  A D side's
    idempotent is the classes of the unoccupied left arcs, an A side's those
    of the occupied right arcs; a closed diagram gives an F2ChainComplex."""
    from . import structures
    gens = []
    for g in sorted(enumerate_generators(diagram), key=lambda g: g.name):
        left, right = g.sigma.occupied()
        gens.append(structures.ModuleGenerator(
            g.name,
            None if diagram.k_l is None else frozenset(g.sigma.d_block) - left,
            None if diagram.k_r is None else right, g.grading))
    cls = structures._CLASSES.get(diagram.flavor, structures.F2ChainComplex)
    return cls(diagram.pmc_left, diagram.pmc_right, gens, name=diagram.name)


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


# the identity bimodule's diagram, for any Z -----------------------------
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
    return BorderedDiagram(n2k, None, boundary, tuple(pts), name="identity_aa")
