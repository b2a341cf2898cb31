import itertools
import random
import re

import pytest

from borderedfloer import cli, heegaard, pmc as pmc_mod
from borderedfloer.decat import (ExteriorElement, k0_functional, k0_of_da,
                                 psi_K0)
from borderedfloer.errors import SchemaViolation
from borderedfloer.heegaard import (BorderedDiagram, IntersectionPoint,
                                    enumerate_generators, glued_grading,
                                    structure)
from borderedfloer.structures import (TypeAStructure, TypeDStructure,
                                      identity_aa, induct_dd, theta)

from knot_diagrams import boundary_sum, trefoil
from oracle_constants import TREFOIL_TABLE
from oracles import apply_endomorphism, generators_by_product


def bundled(name):
    """The bundled diagram data/diagram_<name>.json."""
    return BorderedDiagram.from_json(
        cli.load_json(cli.data_path(f"diagram_{name}.json")))


def by_name(diagram):
    return {g.name: g for g in enumerate_generators(diagram)}


def test_solid_torus_a_generators():
    m = structure(bundled("solid_torus_a"))
    assert (type(m), m.name, m.ops) == (TypeAStructure, "solid_torus_a", {})
    gens = m.generators
    assert set(gens) == {"x", "y"}
    assert gens["x"].grading == 0
    assert gens["y"].grading == 1
    assert gens["x"].idem_right == frozenset({2})
    assert gens["y"].idem_right == frozenset({1})
    assert gens["x"].idem_left is None


def test_solid_torus_d_generators():
    m = structure(bundled("solid_torus_d"))
    assert type(m) is TypeDStructure
    gens = m.generators
    assert set(gens) == {"a", "b"}
    assert gens["a"].grading == 1
    assert gens["b"].grading == 1
    # D-side idempotent is the complement of the occupied arcs
    assert gens["a"].idem_left == frozenset({2})
    assert gens["b"].idem_left == frozenset({1})
    assert gens["a"].idem_right is None


def test_glued_solid_tori_gradings():
    a = by_name(bundled("solid_torus_a"))
    d = by_name(bundled("solid_torus_d"))
    assert glued_grading(a["x"], d["a"]) == 1
    assert glued_grading(a["y"], d["b"]) == 0
    # incompatible occupancies do not glue
    assert glued_grading(a["x"], d["b"]) is None
    assert glued_grading(a["y"], d["a"]) is None


def test_trefoil_generator_table():
    diagram = bundled("trefoil")
    gens = by_name(diagram)
    assert set(gens) == set(TREFOIL_TABLE)
    dd = induct_dd(structure(diagram))
    for name, (grading, lo, hi) in TREFOIL_TABLE.items():
        assert gens[name].grading == grading, name
        split = dd.generators[name]
        assert (split.idem_left, split.idem_right) == \
            (frozenset(lo), frozenset(hi)), name


def test_identity_aa_diagram_gradings_are_theta():
    for z in (pmc_mod.genus1(), pmc_mod.genus2_split()):
        diagram = heegaard.identity_aa_diagram(z)
        gens = structure(diagram).generators.values()
        assert len(gens) == 2 ** z.num_classes
        n2k = z.num_classes
        for g in gens:
            s = frozenset(a - n2k for a in g.idem_right if a > n2k)
            assert g.grading == theta(s, z)


def test_identity_aa_bimodule_matches_diagram():
    z = pmc_mod.genus1()
    diagram_gens = structure(heegaard.identity_aa_diagram(z)).generators
    module = identity_aa(z)
    diag = {}
    for g in diagram_gens.values():
        s = frozenset(a - z.num_classes
                      for a in g.idem_right if a > z.num_classes)
        diag[s] = g.grading
    mod = {gen.idem_right: gen.grading for gen in module.generators.values()}
    assert diag == mod


def test_empty_beta_yields_no_generators():
    z = pmc_mod.genus1()
    pts = (IntersectionPoint("x", 1, "arc", 1, 0),)
    d = BorderedDiagram(2, None, z, pts)  # beta 2 meets nothing
    assert enumerate_generators(d) == []


def test_generators_sharing_a_name_are_rejected():
    """A generator's name runs its points' names together, so "a" + "bb"
    and "ab" + "b" are both "abb"."""
    d = BorderedDiagram(2, None, pmc_mod.genus1(), (
        IntersectionPoint("a", 1, "circle", 1, 0),
        IntersectionPoint("ab", 1, "arc", 1, 0),
        IntersectionPoint("bb", 2, "arc", 2, 0),
        IntersectionPoint("b", 2, "circle", 1, 1)))
    message = '^points: two generators are named "abb"$'
    with pytest.raises(SchemaViolation, match=message):
        enumerate_generators(d)
    with pytest.raises(SchemaViolation, match=message):
        structure(d)


def point(**fields):
    """Point x on beta 1 and arc 1, with sign 0, but for the given fields."""
    values = {"name": "x", "beta": 1, "alpha_kind": "arc", "alpha": 1,
              "sign": 0, **fields}
    return IntersectionPoint(*(values[f] for f in IntersectionPoint._fields))


def test_validate_rejections():
    """The constructor's checks, in order, each with its message."""
    z = pmc_mod.genus1()
    for left, points, message in [
            (z, (point(),), "genus: too small for the boundary circles"),
            (None, (point(), point(alpha=2)), "points: two points share a name"),
            (None, (point(sign=2),), "points[0].sign: not 0 or 1"),
            (None, (point(beta=2),), "points[0].beta: out of range"),
            (None, (point(alpha_kind="arc_left"),),
             "points[0].alpha.kind: no 'arc_left' alphas on an A diagram"),
            (None, (point(alpha=5),), "points[0].alpha.index: out of range")]:
        with pytest.raises(SchemaViolation, match=f"^{re.escape(message)}$"):
            BorderedDiagram(1, left, z, points)


@pytest.mark.parametrize("field, value", [
    ("beta", 0), ("beta", -1), ("alpha", 0), ("alpha", -1)])
def test_constructor_rejects_an_index_below_one(field, value):
    """Beta 0 would drop its point from every generator, and alpha index 0
    or -1 would read a slot from the end of its kind's range."""
    path = {"beta": "beta", "alpha": "alpha.index"}[field]
    with pytest.raises(SchemaViolation,
                       match=rf"^points\[0\]\.{path}: out of range$"):
        BorderedDiagram(1, None, pmc_mod.genus1(), (point(**{field: value}),))


def test_json_roundtrip():
    # the bundled diagrams round-trip in test_cli
    d = heegaard.identity_aa_diagram(pmc_mod.genus1())
    back = BorderedDiagram.from_json(d.to_json())
    assert back == d
    assert [g.to_json() for g in enumerate_generators(back)] == \
        [g.to_json() for g in enumerate_generators(d)]
    with pytest.raises(SchemaViolation):
        BorderedDiagram.from_json({"flavor": "A", "genus": 1})


def test_a_generator_covers_every_alpha_circle():
    """Picks on distinct alphas that miss a circle are no generators."""
    z = pmc_mod.genus1()
    # one circle, two arcs: x-z and x-w cover the circle; y-z share arc 1,
    # and y-w has distinct alphas but misses the circle
    d = BorderedDiagram(2, None, z, (
        IntersectionPoint("x", 1, "circle", 1, 0),
        IntersectionPoint("y", 1, "arc", 1, 0),
        IntersectionPoint("z", 2, "arc", 1, 1),
        IntersectionPoint("w", 2, "arc", 2, 0)))
    assert [g.name for g in enumerate_generators(d)] == ["xz", "xw"]
    closed = BorderedDiagram(2, None, None, (
        IntersectionPoint("a", 1, "circle", 1, 0),
        IntersectionPoint("b", 1, "circle", 2, 0),
        IntersectionPoint("c", 2, "circle", 1, 1)))
    [gen] = enumerate_generators(closed)
    assert (gen.name, gen.sigma.sigma, gen.grading) == ("bc", (2, 1), 0)


def generator_data(d, module):
    """Name, sigma and grading of each generator of d, in enumeration order,
    with its idempotents in module, the structure of d."""
    return [(g.name, g.sigma, g.grading, module.generators[g.name].idem_left,
             module.generators[g.name].idem_right)
            for g in enumerate_generators(d)]


def random_diagram(rng, circles):
    """A diagram of a random flavor on boundary circles drawn from circles,
    with 0-3 alpha circles; each beta meets 0-3 points on random alphas, so
    some betas are empty and some meet one alpha twice."""
    flavor = rng.choice(("A", "D", "DA", "closed"))
    left = rng.choice(circles) if flavor in ("D", "DA") else None
    right = rng.choice(circles) if flavor in ("A", "DA") else None
    return diagram_on(rng, left, right, rng.randint(0, 3), (0,) + (1, 2, 3) * 3)


def diagram_on(rng, left, right, extra, counts):
    """A diagram on boundary circles left and right (None when absent) with
    extra alpha circles; each beta meets rng.choice(counts) points on random
    alphas, with random signs."""
    kl, kr = (left.k if left else 0), (right.k if right else 0)
    genus = kl + kr + extra
    arcs = ("arc_left", "arc_right") if left and right else ("arc", "arc")
    alphas = [("circle", i) for i in range(1, genus - kl - kr + 1)] \
        + [(arcs[0], i) for i in range(1, 2 * kl + 1)] \
        + [(arcs[1], i) for i in range(1, 2 * kr + 1)]
    points = []
    for beta in range(1, genus + 1):
        for _ in range(rng.choice(counts)):
            kind, index = rng.choice(alphas)
            points.append(IntersectionPoint(f"p{len(points)}", beta, kind,
                                            index, rng.randint(0, 1)))
    return BorderedDiagram(genus, left, right, tuple(points))


def test_generators_match_the_product_oracle():
    diagrams = [bundled(name) for name in cli.BUILTIN_DIAGRAMS]
    diagrams += [heegaard.identity_aa_diagram(z)
                 for z in (pmc_mod.genus1(), pmc_mod.genus2_split())]
    diagrams += [boundary_sum(*[trefoil()] * n) for n in (1, 2, 3)]
    rng = random.Random(20261019)
    circles = (pmc_mod.genus1(), pmc_mod.genus2_split())
    diagrams += [random_diagram(rng, circles) for _ in range(1200)]
    for d in diagrams:
        module = structure(d)
        assert list(module.generators) == sorted(module.generators), d
        assert generator_data(d, module) == generators_by_product(d), d


def test_euler_of_a_union_d_is_the_signed_pairing():
    """On seeded random A and D diagrams over one circle, chi of A u D (the
    sum of (-1)^gr over the pairs of generators that glue) is
    sum_s (-1)^|s| k0_functional(structure(A))_s psi_K0(structure(D))_s;
    the plain pairing, without (-1)^|s|, misses on some pairs."""
    rng = random.Random(33)
    missed = 0
    for z in (pmc_mod.genus1(), pmc_mod.genus2_split()):
        for _ in range(230):
            a = diagram_on(rng, None, z, rng.randint(0, 2), (1, 2, 3))
            d = diagram_on(rng, z, None, rng.randint(0, 2), (1, 2, 3))
            chi = sum((-1) ** gr for x in enumerate_generators(a)
                      for y in enumerate_generators(d)
                      if (gr := glued_grading(x, y)) is not None)
            psi = psi_K0(structure(d)).terms
            terms = [(len(s), c * psi.get(s, 0))
                     for s, c in k0_functional(structure(a)).terms.items()]
            assert chi == sum((-1) ** n * t for n, t in terms), (a, d)
            missed += chi != sum(t for _, t in terms)
    assert missed


def test_class_of_da_union_d_is_k0_of_da_applied_to_psi():
    """On seeded random DA diagrams M, with one circle Z on both sides, and
    D diagrams N over Z, the class of M u N (the sum of (-1)^gr e_s over the
    pairs of generators that glue, s the D idempotent of M's generator) is
    (-1)^(k c) k0_of_da(structure(M)) psi_K0(structure(N)), for k the genus
    of Z and c the number of alpha circles of M.  glued_grading adds no
    gluing constant, so the law states it: the plain law misses on some
    pairs."""
    rng = random.Random(34)
    missed = 0
    for z in (pmc_mod.genus1(), pmc_mod.genus2_split()):
        for _ in range(200):
            m = diagram_on(rng, z, z, rng.randint(0, 2), (1, 2, 3))
            n = diagram_on(rng, z, None, rng.randint(0, 2), (1, 2, 3))
            da, ys = structure(m), enumerate_generators(n)
            glued = {}
            for x in enumerate_generators(m):
                s = tuple(sorted(da.generators[x.name].idem_left))
                for y in ys:
                    if (gr := glued_grading(x, y)) is not None:
                        glued[s] = glued.get(s, 0) + (-1) ** gr
            glued = ExteriorElement.single(z.num_classes, glued)
            plain = apply_endomorphism(k0_of_da(da), psi_K0(structure(n)))
            assert glued == (-1) ** (z.k * len(m.slots["circle"])) * plain, \
                (m, n)
            missed += glued != plain
    assert missed
