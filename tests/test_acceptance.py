"""Acceptance gate: the nine end-to-end criteria, with their runtime budgets.

Every assertion here is exact (integer/GF(2) arithmetic throughout); the
timing bounds are asserted on a monotonic clock.
"""

import itertools
import random
import time

from borderedfloer import cli, pmc as pmc_mod, strands
from borderedfloer.decat import (ExteriorElement, GradedEndomorphism,
                                 graded_trace, hodge_eta, k0_functional,
                                 k0_of_da, star_sign)
from borderedfloer.gradings import (BorderedPartialPermutation as BPP,
                                    inv_seq, sum_permutations,
                                    verify_grading_equivalence)
from borderedfloer.heegaard import (BorderedDiagram, enumerate_generators,
                                    glued_grading, identity_aa_diagram,
                                    structure)
from borderedfloer.hochschild import graded_euler, hochschild_generators
from borderedfloer.knots import (Presentation, alexander_from_seifert,
                                 diff_golden, intersection_from_algebra,
                                 intersection_from_pmc,
                                 presentation_to_alexander, recover_seifert,
                                 run_knot)
from borderedfloer.laurent import LaurentPolynomial
from borderedfloer.structures import (box_tensor, direct_sum, elementary_d,
                                      elementary_da, identity_aa, shift, theta)

from oracle_constants import (TREFOIL_ALEXANDER, TREFOIL_MATRIX_BLOCKS,
                              TREFOIL_OMEGA, TREFOIL_PLUCKER, TREFOIL_SEIFERT,
                              TREFOIL_TABLE)
from oracles import all_basis, hochschild_closable, hochschild_closure

Z1 = pmc_mod.genus1()
Z2 = pmc_mod.genus2_split()
DELTA = LaurentPolynomial(TREFOIL_ALEXANDER)


def test_criterion_1_trefoil_end_to_end():
    start = time.monotonic()
    report = run_knot(BorderedDiagram.from_json(
        cli.load_json(cli.data_path("diagram_trefoil.json"))))
    mismatches = diff_golden(
        report, cli.load_json(cli.data_path("golden_trefoil.json")))
    elapsed = time.monotonic() - start
    assert mismatches == []
    table = {row["name"]: (row["grading"], tuple(row["idem_left"]),
                           tuple(row["idem_right"])) for row in report["table"]}
    assert table == TREFOIL_TABLE
    gamma = ExteriorElement.from_json(report["plucker"])
    expected = ExteriorElement.two(2, 2, TREFOIL_PLUCKER)
    assert gamma == expected or gamma == -expected
    matrix = GradedEndomorphism.from_json(report["matrix"])
    target = GradedEndomorphism(2, TREFOIL_MATRIX_BLOCKS)
    assert matrix == target or matrix == -target
    assert report["alexander"] == {str(e): c
                                   for e, c in TREFOIL_ALEXANDER.items()}
    assert report["alexander_from_presentation"] == report["alexander"]
    assert tuple(tuple(r) for r in report["omega"]) == TREFOIL_OMEGA
    assert tuple(tuple(r) for r in report["seifert"]) == TREFOIL_SEIFERT
    assert report["kernel_content"] == 1
    assert elapsed < 1.0, f"trefoil pipeline took {elapsed:.3f}s"


def test_criterion_2_grading_equivalence():
    start = time.monotonic()
    for z in (Z1, Z2):
        report = verify_grading_equivalence(z)
        assert report["ok"], report["counterexample"]
        assert sum(report["per_grading"].values()) == len(all_basis(z))
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"grading equivalence took {elapsed:.1f}s"


def test_criterion_3_algebra_axioms():
    start = time.monotonic()
    for z in (Z1, Z2):
        elts = all_basis(z)
        # d^2 = 0 and the differential raises gr by 1
        for x in elts:
            dx = strands.differential_basis(x)
            assert not strands.differential(dx)
            for term in dx.basis_terms():
                assert term.gr == (x.gr + 1) % 2
        # group by (source classes, target classes) so only class-composable
        # pairs are multiplied; all other products are zero by definition
        by_source = {}
        for x in elts:
            key = (x.strands_grading,
                   frozenset(z.cls(s) for s, _ in x.pairs))
            by_source.setdefault(key, []).append(x)

        def composable(x):
            key = (x.strands_grading,
                   frozenset(z.cls(t) for _, t in x.pairs))
            return by_source.get(key, ())

        products = {}
        for x in elts:
            for y in composable(x):
                p = strands.multiply_basis(x, y)
                if p is not None:
                    products[(x, y)] = p
                    # gr additivity on every nonzero product
                    assert p.gr == (x.gr + y.gr) % 2
        # Leibniz over all class-composable pairs (others are zero = zero)
        for x in elts:
            for y in composable(x):
                ex = strands.StrandsElement.from_basis(x)
                ey = strands.StrandsElement.from_basis(y)
                lhs = strands.differential(strands.multiply(ex, ey))
                rhs = (strands.multiply(strands.differential(ex), ey)
                       + strands.multiply(ex, strands.differential(ey)))
                assert lhs == rhs, (x.pairs, y.pairs)
        # associativity over all class-composable triples; triples that are
        # not class-composable vanish on both sides identically
        for (x, y), xy in products.items():
            for w in composable(y):
                yw = products.get((y, w))
                lhs = strands.multiply_basis(xy, w)
                rhs = strands.multiply_basis(x, yw) if yw is not None else None
                assert lhs == rhs, (x.pairs, y.pairs, w.pairs)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"algebra axioms took {elapsed:.1f}s"


def _injections(g, n):
    for img in itertools.combinations(range(1, n + 1), g):
        yield from itertools.permutations(img)


def _valid(make, sigma):
    from borderedfloer.errors import FlavorViolation
    try:
        return make(sigma)
    except FlavorViolation:
        return None


def test_criterion_4_sign_lemmas():
    # glued closed sign = sgn_A + sgn_D, exhaustively for g <= 3, k <= 2
    checked = 0
    for k in range(0, 3):
        for ga in range(max(k, 1), 4):
            lefts = [b for s in _injections(ga, ga + k)
                     if (b := _valid(lambda q: BPP(ga, None, k, q), s))]
            for gd in range(max(k, 1), 4):
                rights = [b for s in _injections(gd, gd + k)
                          if (b := _valid(lambda q: BPP(gd, k, None, q), s))]
                for a in lefts:
                    for d in rights:
                        glued = sum_permutations(a, d)
                        if glued is None:
                            continue
                        checked += 1
                        assert glued.sgn() == (a.sgn() + d.sgn()) % 2
    assert checked > 0

    # DA gluing shifts by the constant (k_r + k_mid)(g_1 + k_l + k_mid)
    checked = 0
    for kl, km, kr in itertools.product(range(3), repeat=3):
        for g1 in range(1, 4):
            lefts = [b for s in _injections(g1, g1 + kl + km)
                     if (b := _valid(lambda q: BPP(g1, kl, km, q), s))]
            if not lefts:
                continue
            for g2 in range(1, 4):
                rights = [b for s in _injections(g2, g2 + km + kr)
                          if (b := _valid(lambda q: BPP(g2, km, kr, q), s))]
                const = (kr + km) * (g1 + kl + km)
                for x in lefts:
                    for y in rights:
                        glued = sum_permutations(x, y)
                        if glued is None:
                            continue
                        checked += 1
                        assert glued.sgn() == (x.sgn() + y.sgn() + const) % 2
    assert checked > 0

    # Hochschild closure shift: sgn_DA + k + t = inv(closed), g <= 4, k <= 2
    checked = 0
    for k in range(0, 3):
        for g in range(max(2 * k, 1), 5):
            for s in _injections(g, g + 2 * k):
                x = _valid(lambda q: BPP(g, k, k, q), s)
                if x is None or not hochschild_closable(x):
                    continue
                checked += 1
                t = x.t - k
                assert (x.sgn() + k + t) % 2 == \
                    inv_seq(hochschild_closure(x)) % 2
    assert checked > 0


def test_criterion_5_categorified_hodge_duality():
    for z in (Z1, Z2):
        n = z.num_classes
        ident = identity_aa(z)
        full = frozenset(range(1, n + 1))
        for r in range(n + 1):
            for s in itertools.combinations(range(1, n + 1), r):
                sset = frozenset(s)
                module = box_tensor(ident, elementary_d(z, sset, 0, name="e"))
                lhs = k0_functional(module)
                rhs = hodge_eta(ExteriorElement.monomial(n, s))
                assert lhs == rhs, s
                # the sign law: the functional is supported on the complement
                # with sign (-1)^{|complement|} (-1)^{theta(s)}
                comp = tuple(sorted(full - sset))
                assert lhs.terms == {comp: star_sign(comp, tuple(sorted(s)))}
                sign = (-1) ** len(comp) * (-1) ** theta(sset, z)
                assert lhs.terms[comp] == sign


def test_criterion_6_trace_equals_hochschild_euler():
    rng = random.Random(2026)
    for z in (Z1, Z2):
        rz = pmc_mod.reverse(z)
        classes = list(range(1, z.num_classes + 1))
        per_circle = 100
        for trial in range(per_circle):
            pieces = []
            for i in range(rng.randint(1, 4)):
                size = rng.randint(0, len(classes))
                s0 = frozenset(rng.sample(classes, size))
                s1 = frozenset(rng.sample(classes, size))
                piece = elementary_da(rz, z, s0, s1, rng.randint(0, 1),
                                      name=f"g{i}")
                if rng.random() < 0.5:
                    piece = shift(piece)
                pieces.append(piece)
            total = pieces[0]
            for piece in pieces[1:]:
                total = direct_sum(total, piece)
            lhs = graded_trace(k0_of_da(total))
            rhs = graded_euler(hochschild_generators(total))
            assert lhs == rhs, trial


def test_criterion_7_intersection_form_categorification():
    for z in (Z1, Z2, pmc_mod.trefoil_pmc(), pmc_mod.reverse(Z1)):
        assert intersection_from_algebra(z) == intersection_from_pmc(z)


def test_criterion_8_seifert_recovery():
    rows = ((-1, -1, 1, 0), (-1, 0, 0, -1))
    pres = Presentation.make([r[:2] for r in rows], [r[2:] for r in rows])
    v = recover_seifert(pres, TREFOIL_OMEGA)
    assert v == TREFOIL_SEIFERT
    for i in range(2):
        for j in range(2):
            assert v[i][j] - v[j][i] == -TREFOIL_OMEGA[i][j]
    assert alexander_from_seifert(v) == DELTA
    assert presentation_to_alexander(pres) == DELTA
    rng = random.Random(41)
    done = 0
    while done < 100:
        a, b, c, d = (rng.randint(-4, 4) for _ in range(4))
        if abs(a * d - b * c) != 1:
            continue
        done += 1
        mixed = [[a * rows[0][j] + b * rows[1][j] for j in range(4)],
                 [c * rows[0][j] + d * rows[1][j] for j in range(4)]]
        mpres = Presentation.make([r[:2] for r in mixed],
                                  [r[2:] for r in mixed])
        mv = recover_seifert(mpres, TREFOIL_OMEGA)
        assert mv == v
        assert presentation_to_alexander(mpres) == DELTA


def bundled_diagram(name):
    return BorderedDiagram.from_json(
        cli.load_json(cli.data_path(f"diagram_{name}.json")))


def test_criterion_9_pairing_gradings():
    # glued solid tori: gr(glued) - (gr(x) + gr(a)) is pair-independent
    a_gens = enumerate_generators(bundled_diagram("solid_torus_a"))
    d_gens = enumerate_generators(bundled_diagram("solid_torus_d"))
    diffs = set()
    for x in a_gens:
        for y in d_gens:
            glued = glued_grading(x, y)
            if glued is None:
                continue
            diffs.add((glued - x.grading - y.grading) % 2)
    assert len(diffs) == 1

    # identity bimodule: diagram gradings and algebraic theta-gradings agree
    # up to one constant shift, independent of the idempotent
    for z in (Z1, Z2):
        module = {g.idem_right: g.grading
                  for g in identity_aa(z).generators.values()}
        shifts = set()
        for g in structure(identity_aa_diagram(z)).generators.values():
            s = frozenset(a - z.num_classes
                          for a in g.idem_right
                          if a > z.num_classes)
            shifts.add((g.grading - module[s]) % 2)
        assert len(shifts) == 1
