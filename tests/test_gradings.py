import itertools
import json
import random

import pytest

from borderedfloer import pmc as pmc_mod
from borderedfloer import strands
from borderedfloer import gradings as gr_mod
from borderedfloer.gradings import (BorderedPartialPermutation as BPP,
                                    GradingGroupElement, boundary,
                                    chord_decomposition, f,
                                    g_prime, inv_seq, m_grading,
                                    refined_grading_element,
                                    refinement, sum_permutations,
                                    verify_grading_equivalence)
from borderedfloer.errors import (DisconnectedSurgery, FlavorViolation,
                                  NotInRefinedSubgroup, NotSubordinate,
                                  SizeMismatch)
from oracle_constants import STRANDS_DIMS_GENUS2, SURGERY_N8
from oracles import (all_basis, hochschild_closable, hochschild_closure,
                     inversions_by_definition, sgn_by_definition)

Z1 = pmc_mod.genus1()
Z2 = pmc_mod.genus2_split()
ANTIPODAL = pmc_mod.PointedMatchedCircle((1, 2, 3, 4, 1, 2, 3, 4),
                                         (1, 1, 1, 1, 0, 0, 0, 0))


def chord_eta(pmc, j):
    """Interval vector of the chord across matched class j."""
    lo, hi = pmc.class_points(j)
    return tuple(1 if lo <= i < hi else 0 for i in range(1, pmc.n))


def injections(g, n):
    for img in itertools.combinations(range(1, n + 1), g):
        yield from itertools.permutations(img)


def all_bpps(flavor, g, k_l, k_r):
    out = []
    if flavor == "A":
        n, make = g + k_r, lambda s: BPP(g, None, k_r, s)
    elif flavor == "D":
        n, make = g + k_l, lambda s: BPP(g, k_l, None, s)
    else:
        n, make = g + k_l + k_r, lambda s: BPP(g, k_l, k_r, s)
    for sig in injections(g, n):
        try:
            out.append(make(sig))
        except FlavorViolation:
            pass
    return out


def test_constructor_validity():
    with pytest.raises(FlavorViolation):
        BPP(2, None, 1, (1, 1))  # not injective
    with pytest.raises(FlavorViolation):
        BPP(2, None, 1, (1, 4))  # out of range
    with pytest.raises(FlavorViolation):
        BPP(2, 1, None, (3, 4))  # position 1 or 2 may be missed, 3 may not
    with pytest.raises(FlavorViolation):
        BPP(1, 1, 1, (2,))  # blocks overlap
    with pytest.raises(FlavorViolation):
        BPP(2, None, None, (1, 3))


def test_flavor_only_names_the_sides():
    shapes = [(None, None), (None, 0), (0, None), (0, 0)]
    assert [BPP(1, kl, kr, (1,)).flavor for kl, kr in shapes] == \
        ["closed", "A", "D", "DA"]


def test_sign_glue_a_plus_d():
    # inv of the glued closed permutation = sgn_A + sgn_D mod 2
    checked = 0
    for k in (0, 1):
        for ga in range(max(k, 1), 3):
            for gd in range(max(k, 1), 3):
                for a in all_bpps("A", ga, 0, k):
                    for d in all_bpps("D", gd, k, 0):
                        glued = sum_permutations(a, d)
                        if glued is None:
                            continue
                        checked += 1
                        assert glued.flavor == "closed"
                        assert glued.sgn() == (a.sgn() + d.sgn()) % 2
    assert checked > 0


def test_sign_glue_da_plus_da():
    checked = 0
    for kl, km, kr in itertools.product((0, 1), repeat=3):
        for g1 in (1, 2):
            for g2 in (1, 2):
                for x in all_bpps("DA", g1, kl, km):
                    for y in all_bpps("DA", g2, km, kr):
                        glued = sum_permutations(x, y)
                        if glued is None:
                            continue
                        checked += 1
                        const = (kr + km) * (g1 + kl + km)
                        assert glued.sgn() == (x.sgn() + y.sgn() + const) % 2
    assert checked > 0


def test_hochschild_closure_identity():
    # sgn_DA + k + t = inv(closed-up permutation) mod 2 for closing shapes
    checked = 0
    for k in (0, 1):
        for g in range(max(2 * k, 1), 4):
            for x in all_bpps("DA", g, k, k):
                if not hochschild_closable(x):
                    continue
                checked += 1
                closed = hochschild_closure(x)
                t = x.t - k
                assert (x.sgn() + k + t) % 2 == inv_seq(closed) % 2
    assert checked > 0


def test_sgn_matches_its_definition():
    # every shape the sign-lemma tests here and in the acceptance gate
    # enumerate: g <= 4, each side absent or of genus 0, 1 or 2
    checked = 0
    for g in range(1, 5):
        for k_l, k_r in itertools.product((None, 0, 1, 2), repeat=2):
            for sig in injections(g, g + (k_l or 0) + (k_r or 0)):
                try:
                    x = BPP(g, k_l, k_r, sig)
                except FlavorViolation:
                    continue
                checked += 1
                assert x.sgn() == sgn_by_definition(x), x
    assert checked == 4236


def test_glue_shapes_and_errors():
    a = BPP(1, None, 1, (2,))
    d = BPP(1, 1, None, (1,))
    assert sum_permutations(a, d).flavor == "closed"
    assert sum_permutations(a, BPP(1, 1, None, (2,))) is None  # occupancy clash
    with pytest.raises(FlavorViolation):
        sum_permutations(d, a)  # wrong flavors on each side
    with pytest.raises(FlavorViolation):
        sum_permutations(BPP(2, None, 2, (2, 4)), d)  # middle genus mismatch
    da = BPP(2, 1, 1, (1, 4))
    assert sum_permutations(da, d).flavor == "D"
    assert sum_permutations(a, BPP(2, 1, 1, (1, 4))).flavor == "A"
    g2 = sum_permutations(da, BPP(2, 1, 1, (1, 4)))
    assert g2 is not None and g2.flavor == "DA"


def random_group_elements(pmc, rng, count):
    pool = [refined_grading_element(refinement(pmc, t), x)
            for t in range(-pmc.k, pmc.k + 1)
            for x in strands.basis(pmc, t)]
    lam = GradingGroupElement.identity(pmc.n).power_of_central(1)
    out = []
    for _ in range(count):
        x = rng.choice(pool)
        if rng.random() < 0.5:
            x = x * rng.choice(pool)
        if rng.random() < 0.5:
            x = x * lam
        out.append(x)
    return out


def test_group_laws():
    rng = random.Random(3)
    elts = random_group_elements(Z1, rng, 30)
    e = GradingGroupElement.identity(Z1.n)
    lam = GradingGroupElement.identity(Z1.n).power_of_central(1)
    for x in elts:
        assert x * e == x and e * x == x
        assert x * x.inverse() == e and x.inverse() * x == e
        assert x * lam == lam * x
    for x, y, z in zip(elts, elts[1:], elts[2:]):
        assert (x * y) * z == x * (y * z)


def test_group_element_constraints():
    with pytest.raises(SizeMismatch):
        GradingGroupElement(1, (0, 0, 0))  # j must be integral when eta is flat
    with pytest.raises(SizeMismatch):
        GradingGroupElement.identity(4) * GradingGroupElement.identity(8)


def m_elements(pmc, t):
    """Basis elements with a single moving strand across a full matched class."""
    out = []
    for x in strands.basis(pmc, t):
        movers = [(s, tt) for s, tt in x.pairs if s != tt]
        if len(movers) != 1:
            continue
        s, tt = movers[0]
        if pmc.cls(s) == pmc.cls(tt):
            out.append((pmc.cls(s), x))
    return out


def l_elements(pmc, t):
    """Inversion-free elements from the base idempotent to class minima."""
    ref = refinement(pmc, t)
    base_pts = tuple(sorted(pmc.class_min(j) for j in ref.base))
    out = []
    for x in strands.basis(pmc, t):
        if tuple(s for s, _ in x.pairs) != base_pts:
            continue
        tgts = [tt for _, tt in x.pairs]
        if any(pmc.class_min(pmc.cls(tt)) != tt for tt in tgts):
            continue
        if inv_seq(tuple(tt for _, tt in sorted(x.pairs))) == 0:
            out.append(x)
    return out


def test_refinement_base_is_identity():
    for pmc in (Z1, Z2):
        for t in range(-pmc.k, pmc.k + 1):
            ref = refinement(pmc, t)
            assert ref.psi[frozenset(ref.base)] == \
                GradingGroupElement.identity(pmc.n)


def test_refinement_psi_inv_inverts_psi():
    for t in range(-Z2.k, Z2.k + 1):
        ref = refinement(Z2, t)
        assert ref.psi_inv.keys() == ref.psi.keys()
        for s, gp in ref.psi.items():
            assert ref.psi_inv[s] * gp == GradingGroupElement.identity(Z2.n)
            assert gp * ref.psi_inv[s] == GradingGroupElement.identity(Z2.n)


def test_refinement_boundary_tracks_idempotent():
    # M_*(boundary of psi(s).eta) = indicator(s) - indicator(base)
    for pmc in (Z1, Z2):
        for t in range(-pmc.k, pmc.k + 1):
            ref = refinement(pmc, t)
            base = set(ref.base)
            for s, gp in ref.psi.items():
                for j in range(1, pmc.num_classes + 1):
                    lo, hi = pmc.class_points(j)
                    bd = boundary(gp.eta, lo) + boundary(gp.eta, hi)
                    assert bd == (j in s) - (j in base)


def test_refinement_requires_subordinate():
    with pytest.raises(NotSubordinate):
        refinement(pmc_mod.trefoil_pmc(), 0)


def test_f_on_central():
    for pmc in (Z1, Z2):
        for t in range(-pmc.k, pmc.k + 1):
            ref = refinement(pmc, t)
            e = GradingGroupElement.identity(pmc.n)
            assert f(ref, e.power_of_central(1)) == 1
            assert f(ref, e) == 0


def test_f_on_matched_chord_generators():
    # the refined grading of every full-matched-chord element maps to 1, and
    # depends on the completing idempotent only through an even central power
    # (so the Z/2 reduction is idempotent-independent)
    for pmc in (Z1, Z2):
        for t in range(-pmc.k, pmc.k + 1):
            ref = refinement(pmc, t)
            by_class = {}
            for j, x in m_elements(pmc, t):
                gp = refined_grading_element(ref, x)
                by_class.setdefault(j, set()).add(gp)
                assert f(ref, gp) == 1
            for group_elts in by_class.values():
                etas = {gp.eta for gp in group_elts}
                assert len(etas) == 1
                assert len({gp.j2 % 4 for gp in group_elts}) == 1


def in_chord_span(pmc, x):
    """M_*(boundary eta) = 0: eta is an integer combination of the chords."""
    try:
        chord_decomposition(pmc, x.eta)
    except NotInRefinedSubgroup:
        return False
    return True


def test_f_is_a_homomorphism():
    rng = random.Random(11)
    for pmc in (Z1, Z2):
        elts = [x for x in random_group_elements(pmc, rng, 60)
                if in_chord_span(pmc, x)]
        ref = refinement(pmc, 0)
        for x, y in zip(elts, elts[1:]):
            if not in_chord_span(pmc, x * y):
                continue
            assert f(ref, x * y) == (f(ref, x) + f(ref, y)) % 2


def test_f_rejects_outside_small_group():
    x = strands.StrandsBasisElement.make(Z1, [(1, 2)])
    with pytest.raises(NotInRefinedSubgroup):
        f(refinement(Z1, 0), g_prime(Z1, x))


def test_chord_decomposition():
    for pmc in (Z1, Z2):
        for j in range(1, pmc.num_classes + 1):
            eta = chord_eta(pmc, j)
            h = chord_decomposition(pmc, eta)
            assert h == tuple(1 if jj == j else 0
                              for jj in range(1, pmc.num_classes + 1))
    with pytest.raises(NotInRefinedSubgroup):
        chord_decomposition(Z1, (1, 0, 0))


def test_boundary_and_m2_vanish_off_the_points():
    eta = (1, 2, 3)
    assert [boundary(eta, p) for p in range(-1, 7)] == [0, 0, -1, -1, -1, 3, 0, 0]
    assert [gr_mod.m2(eta, p) for p in range(-1, 7)] == [0, 0, 1, 3, 5, 3, 0, 0]


def chord_combination(pmc, h):
    chords = [chord_eta(pmc, j) for j in range(1, pmc.num_classes + 1)]
    return tuple(sum(hj * c[i] for hj, c in zip(h, chords))
                 for i in range(pmc.n - 1))


def test_chord_decomposition_recovers_random_combinations():
    rng = random.Random(8)
    for pmc in (Z1, Z2, ANTIPODAL):
        for _ in range(50):
            h = tuple(rng.randint(-3, 3) for _ in range(pmc.num_classes))
            assert chord_decomposition(pmc, chord_combination(pmc, h)) == h


def test_chord_span_matches_brute_force_genus1():
    span = {chord_combination(Z1, h): h
            for h in itertools.product(range(-2, 3), repeat=2)}
    inside = 0
    for eta in itertools.product((-1, 0, 1), repeat=3):
        x = GradingGroupElement(gr_mod._parity_changes(eta) // 2, eta)
        assert in_chord_span(Z1, x) == (eta in span)
        if eta in span:
            inside += 1
            assert chord_decomposition(Z1, eta) == span[eta]
        else:
            with pytest.raises(NotInRefinedSubgroup):
                chord_decomposition(Z1, eta)
    assert inside == 7
    with pytest.raises(NotInRefinedSubgroup):  # a chord of a larger circle
        chord_decomposition(Z1, chord_eta(Z2, 1))


def test_gradings_agree_genus1():
    report = verify_grading_equivalence(Z1)
    assert report["ok"], report["counterexample"]
    assert sum(report["per_grading"].values()) == 16


def corrupt_refinement(monkeypatch):
    """Replace gradings.refinement by one that multiplies every psi off the
    base idempotent by the central lambda (psi_inv is left as it is);
    returns the list of the strands gradings it is built for."""
    built, build = [], gr_mod.refinement

    def corrupted(pmc, t):
        built.append(t)
        ref = build(pmc, t)
        lam = GradingGroupElement.identity(pmc.n).power_of_central(1)
        base = frozenset(ref.base)
        psi = {s: gp if s == base else gp * lam for s, gp in ref.psi.items()}
        return gr_mod.RefinementData(pmc, ref.base, psi, ref.psi_inv,
                                     ref.linking)

    monkeypatch.setattr(gr_mod, "refinement", corrupted)
    return built


CORRUPTED_GENUS1 = {"ok": False, "per_grading": {-1: 1, 0: 8, 1: 7},
                    "counterexample": {"strands_grading": 0,
                                       "pairs": ((2, 2),), "gr": 0, "m": 1}}


def test_verify_reports_the_first_counterexample(monkeypatch):
    # one refinement per strands grading, and the first element whose m
    # differs from gr is the one reported
    built = corrupt_refinement(monkeypatch)
    assert verify_grading_equivalence(Z1) == CORRUPTED_GENUS1
    assert built == [-1, 0, 1]


def test_check_gradings_cli_fails_on_a_counterexample(monkeypatch, capsys):
    from borderedfloer import cli
    corrupt_refinement(monkeypatch)
    circle = str(cli.data_path("pmc_genus1.json"))
    assert cli.main(["alg", "check-gradings", "--pmc", circle]) == 1
    assert capsys.readouterr().out == "FAIL i=-1:1 i=0:8 i=1:7\n"
    assert cli.main(["--json", "alg", "check-gradings", "--pmc", circle]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["counterexample"] == {"strands_grading": 0,
                                         "pairs": [[2, 2]], "gr": 0, "m": 1}


def test_m_matches_gr_spotcheck_genus2():
    rng = random.Random(5)
    elts = all_basis(Z2)
    refs = {t: refinement(Z2, t) for t in range(-Z2.k, Z2.k + 1)}
    for x in rng.sample(elts, 40):
        assert m_grading(refs[x.strands_grading], x) == x.gr


def matchings(points):
    if not points:
        yield ()
        return
    for j in range(1, len(points)):
        for rest in matchings(points[1:j] + points[j + 1:]):
            yield ((points[0], points[j]),) + rest


def genus2_circles():
    """Every valid 8-point circle, classes numbered by their first point,
    which is negative (so every one is subordinate)."""
    out = []
    for m in matchings(tuple(range(1, 9))):
        labels, orientation = [0] * 8, [pmc_mod.POS] * 8
        for c, (p, q) in enumerate(m, start=1):
            labels[p - 1] = labels[q - 1] = c
            orientation[p - 1] = pmc_mod.NEG
        z = pmc_mod.PointedMatchedCircle(tuple(labels), tuple(orientation))
        try:
            pmc_mod.validate(z)
        except DisconnectedSurgery:
            continue
        out.append(z)
    return out


def test_gradings_agree_on_every_genus2_circle():
    circles = genus2_circles()
    assert len(circles) == SURGERY_N8["connected"]
    assert {z.matching for z in circles} == set(STRANDS_DIMS_GENUS2)
    for z in circles:
        report = verify_grading_equivalence(z)
        assert report["ok"], (z.matching, report["counterexample"])
        assert report["per_grading"] == STRANDS_DIMS_GENUS2[z.matching]


def test_m_matches_gr_spotcheck_genus3():
    z3 = pmc_mod.connected_sum(Z2, Z1)
    rng = random.Random(13)
    refs = {t: refinement(z3, t) for t in range(-z3.k, z3.k + 1)}
    for x in rng.sample(all_basis(z3), 3000):
        assert m_grading(refs[x.strands_grading], x) == x.gr, x.pairs


def test_grading_determined_by_seed_sets():
    """gr on genus 1 is forced by its values on the seed sets alone.

    Seeds: the inversion-free elements out of the base idempotent and the
    full-matched-chord elements.  Propagating the product and differential
    grading rules from those values determines gr on every basis element.
    """
    elts = all_basis(Z1)
    seeds = set()
    for t in range(-Z1.k, Z1.k + 1):
        seeds.update(x.pairs for x in l_elements(Z1, t))
        seeds.update(x.pairs for _, x in m_elements(Z1, t))
    assert seeds and len(seeds) < len(elts)
    known = {p: gr_mod.strands.gr_pairs(Z1, p) for p in seeds}
    relations = []  # each: (kind, operands)
    for x in elts:
        for term in strands.differential_basis(x).basis_terms():
            relations.append(("d", x.pairs, term.pairs))
    for x in elts:
        for y in elts:
            p = strands.multiply_basis(x, y)
            if p is not None:
                relations.append(("m", x.pairs, y.pairs, p.pairs))
    changed = True
    while changed:
        changed = False
        for rel in relations:
            if rel[0] == "d":
                _, a, b = rel
                if a in known and b not in known:
                    known[b] = (known[a] + 1) % 2
                    changed = True
                elif b in known and a not in known:
                    known[a] = (known[b] + 1) % 2
                    changed = True
            else:
                _, a, b, c = rel
                have = [p in known for p in (a, b, c)]
                if sum(have) == 2:
                    vals = {p: known.get(p) for p in (a, b, c)}
                    if not have[0]:
                        known[a] = (vals[c] - vals[b]) % 2
                    elif not have[1]:
                        known[b] = (vals[c] - vals[a]) % 2
                    else:
                        known[c] = (vals[a] + vals[b]) % 2
                    changed = True
    for x in elts:
        assert x.pairs in known, f"grading not determined at {x.pairs}"
        assert known[x.pairs] == x.gr


def test_inv_seq_matches_its_definition():
    rng = random.Random(20)
    for n in range(13):
        for _ in range(40):
            ties = [rng.randrange(5) for _ in range(n)]
            distinct = rng.sample(range(30), n)
            for seq in (ties, distinct, tuple(distinct)):
                assert inv_seq(seq) == inversions_by_definition(seq), seq


def test_chord_linking_table_matches_pairwise_linking():
    """The refinement's doubled intersection form is the doubled linking of
    each pair of chords."""
    genus3 = pmc_mod.connected_sum(Z2, Z1)
    for pmc in (Z1, Z2, ANTIPODAL, genus3):
        table = {(a, b): l2 for a, b, l2 in refinement(pmc, 0).linking}
        assert table
        for a, b in itertools.combinations(range(pmc.num_classes), 2):
            l2 = gr_mod.L2(chord_eta(pmc, a + 1), chord_eta(pmc, b + 1))
            assert table.get((a, b), 0) == l2
