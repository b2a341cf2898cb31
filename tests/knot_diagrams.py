"""Test-side knot-complement diagrams built from the bundled trefoil diagram:
its sign patterns and boundary sums of copies of it."""

import itertools
from functools import lru_cache

from borderedfloer import cli, pmc as pmc_mod
from borderedfloer.errors import NotUnimodular, SeifertConsistencyFailure
from borderedfloer.heegaard import BorderedDiagram, IntersectionPoint
from borderedfloer.knots import run_knot


def trefoil():
    """The bundled diagram data/diagram_trefoil.json."""
    return BorderedDiagram.from_json(
        cli.load_json(cli.data_path("diagram_trefoil.json")))


def golden_record():
    """The bundled golden record data/golden_trefoil.json."""
    return cli.load_json(cli.data_path("golden_trefoil.json"))


def with_signs(diagram, signs):
    """diagram with the local signs of its points replaced by signs."""
    return BorderedDiagram(
        diagram.genus, diagram.pmc_left, diagram.pmc_right,
        tuple(IntersectionPoint(p.name, p.beta, p.alpha_kind, p.alpha, s)
              for p, s in zip(diagram.points, signs)), diagram.name)


@lru_cache(maxsize=None)
def sign_pattern_reports():
    """signs -> the run_knot report, for every sign pattern of the trefoil
    diagram's points on which run_knot raises neither NotUnimodular nor
    SeifertConsistencyFailure."""
    base, reports = trefoil(), {}
    for signs in itertools.product((0, 1), repeat=len(base.points)):
        try:
            reports[signs] = run_knot(with_signs(base, signs))
        except (NotUnimodular, SeifertConsistencyFailure):
            continue
    return reports


def boundary_sum(*diagrams):
    """Type D diagrams on the trefoil diagram's boundary Z # -Z (Z of genus
    1) side by side, on the boundary (Z # ... # Z) # -(Z # ... # Z) of n
    copies.  Copy j's Z-side arcs 1, 2 go to classes 2j-1, 2j; its -Z-side
    arcs 3, 4 go to 2n+2j-1, 2n+2j, the labels of copy j in
    reverse(Z # ... # Z) shifted by 2n; its betas become 2j-1, 2j and its
    point names get the suffix j."""
    n = len(diagrams)
    z = pmc_mod.genus1()
    for _ in range(n - 1):
        z = pmc_mod.connected_sum(z, pmc_mod.genus1())
    points = []
    for j, diagram in enumerate(diagrams, start=1):
        arcs = {1: 2 * j - 1, 2: 2 * j, 3: 2 * n + 2 * j - 1, 4: 2 * n + 2 * j}
        points += [IntersectionPoint(f"{p.name}{j}", 2 * j - 2 + p.beta, "arc",
                                     arcs[p.alpha], p.sign)
                   for p in diagram.points]
    return BorderedDiagram(2 * n, pmc_mod.connected_sum(
        z, pmc_mod.reverse(z)), None, tuple(points))
