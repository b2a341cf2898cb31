import collections
import functools
import itertools
import random
import re

import pytest

from borderedfloer import heegaard, pmc as pmc_mod, strands, structures
from borderedfloer.decat import (ExteriorElement, GradedEndomorphism,
                                 hodge_eta, k0_functional, k0_of_da, psi_K0,
                                 upsilon)
from borderedfloer.errors import (AlgebraMismatch, BothUnbounded,
                                  SchemaViolation)
from borderedfloer.structures import (F2ChainComplex, ModuleGenerator,
                                      TypeAAStructure, TypeAStructure,
                                      TypeDAStructure, TypeDDStructure,
                                      TypeDStructure, box_tensor, direct_sum,
                                      elementary_a, elementary_d, elementary_da,
                                      identity_aa, induct_dd, shift,
                                      structure_from_json, theta)

from knot_diagrams import boundary_sum, trefoil
from oracles import (all_basis, apply_endomorphism,
                     box_tensor_ops_by_every_chain)

import importlib.resources as resources

Z1 = pmc_mod.genus1()
Z2 = pmc_mod.genus2_split()


def data_json(name):
    import json
    path = resources.files("borderedfloer").joinpath("data").joinpath(name)
    return json.loads(path.read_text())


def solid_torus_d():
    return structure_from_json(data_json("module_solid_torus_d.json"))


def solid_torus_a():
    return structure_from_json(data_json("module_solid_torus_a.json"))


def dehn_twist_da():
    return structure_from_json(data_json("module_dehn_twist_da.json"))


def test_builtin_modules_validate():
    for m in (solid_torus_d(), solid_torus_a(), dehn_twist_da()):
        report = m.validate()
        assert report["ok"], report["errors"]


def test_d_structure_validation_catches_errors():
    d = solid_torus_d()
    rho2 = strands.StrandsBasisElement.make(Z1, [(2, 3)])
    # break the grading: both generators have grading 1, rho2 has gr 1, so
    # sending b back to a via rho2's reverse-composable chord fails to drop
    bad = TypeDStructure(Z1, None, list(d.generators.values()),
                         {("a", ()): {(rho2, "a")}})
    report = bad.validate()
    assert not report["ok"]
    assert any("idempotent" in e or "grading" in e for e in report["errors"])


def test_d_squared_detection():
    # a -> b -> c via composable chords whose product is nonzero
    r12 = strands.StrandsBasisElement.make(Z1, [(1, 2)])
    r23 = strands.StrandsBasisElement.make(Z1, [(2, 3)])
    r13 = strands.multiply_basis(r12, r23)
    assert r13 is not None
    gens = [ModuleGenerator("a", frozenset({1}), None, 0),
            ModuleGenerator("b", frozenset({2}), None, 1),
            ModuleGenerator("c", frozenset({1}), None, 0)]
    bad = TypeDStructure(Z1, None, gens, {("a", ()): {(r12, "b")},
                                          ("b", ()): {(r23, "c")}})
    report = bad.validate()
    assert any("d^2" in e for e in report["errors"])


def gen_name(classes):
    return "x" + "".join(str(j) for j in sorted(classes))


def identity_da(pmc=Z1, drop=()):
    """The identity DA bimodule of pmc, without the ops of the elements in
    drop: a generator x_s over each set s of k classes, and
    delta^1_2(x_s, a) = a (x) x_t for each non-idempotent basis element a of
    strands grading 0 from s to t."""
    gens = [ModuleGenerator(gen_name(s), frozenset(s), frozenset(s), 0)
            for s in itertools.combinations(range(1, pmc.num_classes + 1),
                                            pmc.k)]
    ops = {}
    for a in strands.basis(pmc, 0):
        if not a.is_idempotent and a not in drop:
            ops[(gen_name({pmc.cls(s) for s, _ in a.pairs}), (a,))] = {
                (a, gen_name({pmc.cls(t) for _, t in a.pairs}))}
    return TypeDAStructure(pmc, pmc, gens, ops, name="identity_da")


def test_identity_da_satisfies_the_structure_relation():
    da = identity_da()
    assert len(da.ops) == 6
    report = da.validate()
    assert report["ok"], report["errors"]


def test_genus2_identity_da_satisfies_the_structure_relation():
    da = identity_da(Z2)
    assert len(da.generators) == 6 and len(da.ops) == 232
    report = da.validate()
    assert report["ok"], report["errors"]


@pytest.mark.parametrize("pmc, pairs", [
    (Z1, [(1, 2)]), (Z1, [(2, 3)]), (Z1, [(3, 4)]),
    (Z2, [(1, 2), (5, 5)]), (Z2, [(1, 1), (4, 5)]), (Z2, [(2, 2), (7, 8)])],
    ids=["rho12", "rho23", "rho34", "genus2-rho12", "genus2-rho45",
         "genus2-rho78"])
def test_identity_da_without_a_generator_chord_fails(pmc, pairs):
    # no op input is a product with this chord as a factor, so only a word
    # of two letters, the chord and a letter it multiplies with, sees the
    # dropped op
    rho = strands.StrandsBasisElement.make(pmc, pairs)
    report = identity_da(pmc, drop=(rho,)).validate()
    assert not report["ok"]
    assert all("structure relation" in e for e in report["errors"])
    assert any(f" {list(rho.pairs)}" in e for e in report["errors"])


def test_identity_da_without_rho13_fails_the_structure_relation():
    # rho_13 is rho_12 rho_23, so the words (rho_12, rho_23) and
    # (rho_13, rho_34) multiply into the dropped op
    rho13 = strands.StrandsBasisElement.make(Z1, [(1, 3)])
    report = identity_da(drop=(rho13,)).validate()
    assert report["errors"] == [
        "structure relation (d^2 = 0) fails at x1, 2 inputs: [(1, 2)] [(2, 3)]",
        "structure relation (d^2 = 0) fails at x1, 2 inputs: [(1, 3)] [(3, 4)]"]


def relation_errors(m):
    """The structure relation at every word of at most min(max_arity, 3)
    basis elements of the right algebra, composable or not, counted term by
    term over GF(2), with validate's messages: the reference for validate,
    which walks only the composable words.  validate walks words up to
    max(2 (max_arity - 1), max_arity) letters; this walk stays at 3, as
    every word of 4 letters made its Dehn-twist case take 2 s, and
    `test_validate_reaches_two_chained_ops` covers a 4-letter failure."""
    letters = all_basis(m.pmc_right) if m.right == "A" else []
    errors = []
    for x in m.generators:
        for n in range(min(m.max_arity, 3) + 1):
            for seq in itertools.product(letters, repeat=n):
                count = collections.Counter()
                for i in range(n + 1):
                    for b, y in m.delta(x, seq[:i]):
                        for c, z in m.delta(y, seq[i:]):
                            if b is None:  # no D side
                                count[None, z] += 1
                            elif strands.multiply_basis(b, c) is not None:
                                count[strands.multiply_basis(b, c), z] += 1
                for b, y in m.delta(x, seq):
                    if b is not None:
                        count.update((c, y) for c in
                                     strands.differential_basis(b).basis_terms())
                for i, a in enumerate(seq):
                    for c in strands.differential_basis(a).basis_terms():
                        count.update(m.delta(x, seq[:i] + (c,) + seq[i + 1:]))
                for i in range(n - 1):
                    c = strands.multiply_basis(seq[i], seq[i + 1])
                    if c is not None:
                        count.update(m.delta(x, seq[:i] + (c,) + seq[i + 2:]))
                if any(v % 2 for v in count.values()):
                    word = "".join(f" {list(a.pairs)}" for a in seq)
                    errors.append(f"structure relation (d^2 = 0) fails at {x}, "
                                  f"{n} inputs{':' if seq else ''}{word}")
    return errors


CHORDS = list(itertools.combinations(range(1, 5), 2))  # the chords of Z1


@pytest.mark.parametrize(
    "make", [solid_torus_d, solid_torus_a, dehn_twist_da] + [
        functools.partial(identity_da, drop=(
            strands.StrandsBasisElement.make(Z1, [chord]),))
        for chord in CHORDS],
    ids=["d", "a", "da"] + [f"identity-da-without-rho{s}{t}"
                            for s, t in CHORDS])
def test_validate_matches_the_relation_on_every_word(make):
    m = make()
    errors = relation_errors(m)
    assert m.validate()["errors"] == errors
    assert bool(errors) == isinstance(make, functools.partial)


def test_validate_reaches_two_chained_ops():
    # m_3(m_3(x; rho_12, rho_23); rho_12, rho_23) = z is the one term at the
    # 4-letter word, one letter past max_arity
    r12 = strands.StrandsBasisElement.make(Z1, [(1, 2)])
    r23 = strands.StrandsBasisElement.make(Z1, [(2, 3)])
    gens = [ModuleGenerator(x, None, frozenset({1}), 0) for x in "xyz"]
    chained = TypeAStructure(None, Z1, gens, {("x", (r12, r23)): {(None, "y")},
                                              ("y", (r12, r23)): {(None, "z")}})
    assert chained.validate()["errors"] == [
        "structure relation (d^2 = 0) fails at x, 4 inputs: "
        "[(1, 2)] [(2, 3)] [(1, 2)] [(2, 3)]"]


def test_da_zero_input_ops_that_compose_fail_d_squared():
    r12 = strands.StrandsBasisElement.make(Z1, [(1, 2)])
    r23 = strands.StrandsBasisElement.make(Z1, [(2, 3)])
    gens = [ModuleGenerator("a", frozenset({1}), frozenset({1}), 0),
            ModuleGenerator("b", frozenset({2}), frozenset({1}), 1),
            ModuleGenerator("c", frozenset({1}), frozenset({1}), 1)]
    bad = TypeDAStructure(Z1, Z1, gens, {("a", ()): {(r12, "b")},
                                         ("b", ()): {(r23, "c")}})
    report = bad.validate()
    assert report["errors"] and all("d^2" in e for e in report["errors"])
    assert any(" a, 0 inputs" in e for e in report["errors"])


def test_op_with_an_idempotent_input_is_flagged():
    a = solid_torus_a()
    unit = strands.StrandsBasisElement.make(Z1, [(2, 2)])
    ops = dict(a.ops) | {("x", (unit,)): frozenset({(None, "x")})}
    report = TypeAStructure(None, Z1, list(a.generators.values()),
                            ops).validate()
    assert "op(x,...): idempotent input (the unit is implicit)" in \
        report["errors"]


def test_boundedness_and_chains():
    d = solid_torus_d()
    assert d.bounded
    chains = d.delta_chains("a", 3)
    assert ((), "a") in chains
    assert any(len(c) == 1 and y == "b" for c, y in chains)
    rho2 = strands.StrandsBasisElement.make(Z1, [(2, 3)])
    gens = [ModuleGenerator("a", frozenset({2}), None, 0),
            ModuleGenerator("b", frozenset({1}), None, 1)]
    loop = TypeDStructure(Z1, None, gens, {("a", ()): {(rho2, "a")}})
    assert not loop.bounded
    report = loop.validate()
    assert any("cycle" in e or "unbounded" in e for e in report["errors"])


def test_a_infinity_check_rejects_broken_action():
    a = solid_torus_a()
    # dropping the module action breaks associativity against the implicit
    # idempotent action only if an op is replaced inconsistently
    rho2 = strands.StrandsBasisElement.make(Z1, [(2, 3)])
    bad = TypeAStructure(None, Z1, list(a.generators.values()),
                         {("x", (rho2,)): frozenset({(None, "x")})})
    report = bad.validate()
    assert not report["ok"]


def test_box_tensor_solid_tori():
    cx = box_tensor(solid_torus_a(), solid_torus_d())
    names = set(cx.generators)
    assert names == {"x*a", "y*b"}
    assert cx.ops == {("x*a", ()): frozenset({(None, "y*b")})}
    assert cx.homology_dimensions() == {0: 0, 1: 0}
    assert cx.euler() == 0


def loop_d():
    """An unbounded type D structure: delta^1(a) = rho_2 (x) a."""
    rho2 = strands.StrandsBasisElement.make(Z1, [(2, 3)])
    gens = [ModuleGenerator("a", frozenset({2}), None, 0),
            ModuleGenerator("b", frozenset({1}), None, 1)]
    return TypeDStructure(Z1, None, gens, {("a", ()): {(rho2, "a")}})


@pytest.mark.parametrize("left", [solid_torus_a, identity_da],
                         ids=["a", "da"])
def test_box_tensor_requires_bounded_side(left):
    # each left factor has an op with an A-side input
    assert left().max_arity >= 2
    with pytest.raises(BothUnbounded):
        box_tensor(left(), loop_d())


def test_box_tensor_without_a_side_inputs_takes_an_unbounded_side():
    # a DA with no op of an A-side input never walks the loop
    product = box_tensor(elementary_da(Z1, Z1, {2}, {2}, 0, name="x"), loop_d())
    assert set(product.generators) == {"x*a"} and product.ops == {}
    assert product.validate()["ok"]


def test_box_tensor_bimodules_da_d():
    d = box_tensor(dehn_twist_da(), solid_torus_d())
    assert d.flavor == "D"
    report = d.validate()
    assert report["ok"], report["errors"]


def unit_output_d():
    """A type D structure whose one op outputs an idempotent."""
    unit = strands.StrandsBasisElement.make(Z1, [(1, 1)])
    return TypeDStructure(Z1, None, [
        ModuleGenerator("a", frozenset({1}), None, 0),
        ModuleGenerator("b", frozenset({1}), None, 1)], {("a", ()): {(unit, "b")}})


def test_opless_a_box_d_keeps_the_unit_term():
    cx = box_tensor(elementary_a(Z1, {1}, 0, name="x"), unit_output_d())
    assert cx.ops == {("x*a", ()): frozenset({(None, "x*b")})}
    assert cx.homology_dimensions() == {0: 0, 1: 0}


def test_identity_aa_box_d_keeps_the_unit_term():
    product = box_tensor(identity_aa(Z1), unit_output_d())
    assert product.flavor == "A"
    assert product.ops == {("s1*a", ()): {(None, "s1*b")}}
    report = product.validate()
    assert report["ok"], report["errors"]


def genus2_d():
    """A genus-2 type D structure with one op: delta^1(a) = rho (x) b for the
    chord rho from point 1 to point 2 beside a strand at class 3."""
    rho = strands.StrandsBasisElement.make(Z2, [(1, 2), (5, 5)])
    return TypeDStructure(Z2, None, [
        ModuleGenerator("a", frozenset({1, 3}), None, 0),
        ModuleGenerator("b", frozenset({2, 3}), None, 1)],
        {("a", ()): {(rho, "b")}})


def opless_da():
    """A DA structure with one generator x1 over class 1 and no ops: the
    identity on a D structure whose generators all lie over class 1."""
    return elementary_da(Z1, Z1, {1}, {1}, 0, name="x1")


@pytest.mark.parametrize("da, d", [(identity_da, solid_torus_d),
                                   (identity_da, unit_output_d),
                                   (opless_da, unit_output_d),
                                   (lambda: identity_da(Z2), genus2_d)],
                         ids=["solid-torus", "unit-output", "opless-da",
                              "genus2"])
def test_identity_da_box_d_is_d(da, d):
    d = d()
    assert d.validate()["ok"]
    product = box_tensor(da(), d)
    assert product.flavor == "D" and product.pmc_left == d.pmc_left
    name = {f"{gen_name(g.idem_left)}*{g.name}": g.name
            for g in d.generators.values()}
    assert {name[n]: ModuleGenerator(name[n], g.idem_left, g.idem_right,
                                     g.grading)
            for n, g in product.generators.items()} == d.generators
    assert {(name[x], seq): frozenset((b, name[y]) for b, y in terms)
            for (x, seq), terms in product.ops.items()} == d.ops


def chain_d():
    """A bounded type D structure whose delta^1 chain a -> b -> c reads
    rho_34, rho_23: the two inputs of the Dehn-twist DA's delta^1_3."""
    r34 = strands.StrandsBasisElement.make(Z1, [(3, 4)])
    r23 = strands.StrandsBasisElement.make(Z1, [(2, 3)])
    return TypeDStructure(Z1, None, [
        ModuleGenerator("a", frozenset({1}), None, 0),
        ModuleGenerator("b", frozenset({2}), None, 1),
        ModuleGenerator("c", frozenset({1}), None, 1)],
        {("a", ()): {(r34, "b")}, ("b", ()): {(r23, "c")}})


def ops_by_pair(product):
    """The ops of a box tensor product keyed by name pairs, as
    box_tensor_ops_by_every_chain gives them: an A (x) D complex has the D-side
    output None."""
    return {tuple(x.split("*")): {(b, tuple(y.split("*"))) for b, y in terms}
            for (x, _), terms in product.ops.items()}


@pytest.mark.parametrize("left, right", [
    (dehn_twist_da, chain_d), (dehn_twist_da, solid_torus_d),
    (solid_torus_a, solid_torus_d), (identity_da, solid_torus_d),
    (opless_da, unit_output_d), (lambda: identity_aa(Z1), unit_output_d),
    (lambda: identity_da(Z2), genus2_d)],
    ids=["dehn-twist-chain", "dehn-twist", "a", "identity", "opless",
         "identity-aa", "genus2"])
def test_box_tensor_matches_the_every_chain_oracle(left, right):
    left, right = left(), right()
    assert right.validate()["ok"]
    product = box_tensor(left, right)
    assert ops_by_pair(product) == box_tensor_ops_by_every_chain(left, right)


def test_dehn_twist_box_chain_d_feeds_both_inputs():
    # the Dehn-twist DA's delta^1_3 fires on the chain of length 2
    product = box_tensor(dehn_twist_da(), chain_d())
    [(b, target)] = product.ops[("x*a", ())]
    assert target == "y*c" and b.pairs == ((3, 4),)
    assert product.validate()["ok"]


@pytest.mark.parametrize("da, image", [
    (dehn_twist_da, {(1,): 1, (2,): 1}), (identity_da, {(1,): -1, (2,): -1})],
    ids=["dehn-twist", "identity"])
def test_psi_of_da_box_d_is_k0_of_da_applied_to_psi(da, image):
    # the gluing law of the decategorification: [M box N] = [M]([N]), with
    # the rows of [M] indexed by its left idempotent
    da, d = da(), solid_torus_d()
    glued = psi_K0(box_tensor(da, d))
    assert glued == apply_endomorphism(k0_of_da(da), psi_K0(d))
    assert glued == ExteriorElement.single(2, image)


Z2_ANTIPODAL = pmc_mod.PointedMatchedCircle((1, 2, 3, 4, 1, 2, 3, 4),
                                            (1, 1, 1, 1, 0, 0, 0, 0))


def pairing(functional, v):
    """The monomial-dual pairing of two one-factor ExteriorElements."""
    return sum(c * v.terms.get(key, 0) for key, c in functional.terms.items())


def idempotents(pmc):
    classes = range(1, pmc.num_classes + 1)
    return [s for r in range(pmc.num_classes + 1)
            for s in itertools.combinations(classes, r)]


def elementary_pairs(pmc):
    """Every elementary A and D piece over the same idempotent s, with both
    gradings on each side."""
    for s in idempotents(pmc):
        for ga, gd in itertools.product((0, 1), repeat=2):
            yield (s, elementary_a(pmc, s, ga, name="x"),
                   elementary_d(pmc, s, gd, name="y"))


def test_euler_of_a_box_d_is_the_signed_pairing():
    # chi(A box D) = (-1)^|s| <k0_functional(A), psi_K0(D)> on every
    # elementary pair, as the code has it: k0_functional carries (-1)^|s|
    # for the reversed circle, so the plain pairing disagrees exactly on
    # the pairs with |s| odd
    pairs = disagree = 0
    for pmc in (Z1, Z2, Z2_ANTIPODAL):
        for s, a, d in elementary_pairs(pmc):
            chi = box_tensor(a, d).euler()
            plain = pairing(k0_functional(a), psi_K0(d))
            assert chi == (-1) ** len(s) * plain, (pmc.matching, s)
            pairs += 1
            disagree += chi != plain
    assert (pairs, disagree) == (144, 72)


def signed_psi(structure):
    """psi_K0 of a D structure with each monomial s signed by (-1)^|s|."""
    return ExteriorElement.single(structure.pmc_left.num_classes, {
        key: (-1) ** len(key) * c for key, c in psi_K0(structure).terms.items()})


def random_sum(rng, pieces, count):
    """A direct sum of count pieces drawn from pieces, each shifted or not."""
    out = None
    for _ in range(count):
        piece = rng.choice(pieces)
        piece = shift(piece) if rng.random() < 0.5 else piece
        out = piece if out is None else direct_sum(out, piece)
    return out


def test_euler_of_a_box_d_is_bilinear_over_sums_and_shifts():
    # seeded direct sums of shifted elementary pieces at genus 1 and 2: chi
    # of the product is the signed pairing of the summed classes
    rng = random.Random(24)
    for pmc in (Z1, Z2):
        a_pieces = [elementary_a(pmc, s, 0, name="x") for s in idempotents(pmc)]
        d_pieces = [elementary_d(pmc, s, 0, name="y") for s in idempotents(pmc)]
        for _ in range(20):
            a = random_sum(rng, a_pieces, rng.randint(1, 6))
            d = random_sum(rng, d_pieces, rng.randint(1, 6))
            chi = box_tensor(a, d).euler()
            assert chi == pairing(k0_functional(a), signed_psi(d))


def test_k0_of_identity_aa_box_d_is_hodge_eta_over_sums_and_shifts():
    # the gluing law for AA (x) D: the identity AA takes [D] to eta([D]), on
    # every elementary piece of both gradings and, at genus 1 and 2, on
    # seeded direct sums of 1-4 shifted pieces
    rng = random.Random(27)
    checked = 0
    for pmc, sums in ((Z1, 30), (Z2, 30), (pmc_mod.trefoil_pmc(), 0)):
        ident = identity_aa(pmc)
        pieces = [elementary_d(pmc, s, g, name="y")
                  for s in idempotents(pmc) for g in (0, 1)]
        for d in pieces + [random_sum(rng, pieces, rng.randint(1, 4))
                           for _ in range(sums)]:
            assert k0_functional(box_tensor(ident, d)) == hodge_eta(
                psi_K0(d)), [(sorted(g.idem_left), g.grading)
                             for g in d.generators.values()]
            checked += 1
    assert checked == 132


def test_box_tensor_bimodules_aa_dd_shapes():
    ident = identity_aa(Z1)
    dd = induct_dd(TypeDStructure(
        pmc_mod.trefoil_pmc(), None,
        [ModuleGenerator("m", frozenset({1, 3}), None, 0)]))
    da = box_tensor(ident, dd)
    assert da.flavor == "DA"
    for g in da.generators.values():
        assert g.idem_left is not None and g.idem_right is not None


def diagram_dd(diagram):
    """The DD structure run_knot reads off a type D diagram on Z # -Z."""
    return induct_dd(heegaard.structure(diagram))


def transpose(e):
    return GradedEndomorphism(e.n, {j: [list(r) for r in zip(*block)]
                                    for j, block in e.blocks.items()})


@pytest.mark.parametrize("n", [1, 2])
def test_k0_of_identity_aa_box_dd_is_upsilon_transposed(n):
    # the gluing law for AA (x) DD: blockwise, k0_of_da is the transpose of
    # upsilon, whose rows are the right idempotents; the untransposed
    # matrices differ
    dd = diagram_dd(boundary_sum(*[trefoil()] * n))
    assert len(dd.generators) == 7 ** n
    glued = k0_of_da(box_tensor(identity_aa(dd.pmc_left), dd))
    u = upsilon(psi_K0(dd))
    assert glued == transpose(u) and glued != u


def test_box_tensor_bimodules_rejects_unsupported():
    with pytest.raises(AlgebraMismatch):
        box_tensor(solid_torus_d(), solid_torus_d())


def test_identity_aa_theta():
    ident = identity_aa(Z1)
    assert len(ident.generators) == 4
    for g in ident.generators.values():
        assert g.idem_left == frozenset({1, 2}) - g.idem_right
        assert g.grading == theta(g.idem_right, Z1)
    assert theta(frozenset(), Z1) == 0
    assert theta(frozenset({1}), Z1) == 0  # |s|=1, one larger complement class
    assert theta(frozenset({2}), Z1) == 1
    assert theta(frozenset({1, 2}), Z1) == 0


def test_induct_dd_splits_idempotents():
    zt = pmc_mod.trefoil_pmc()
    d = TypeDStructure(zt, None,
                       [ModuleGenerator("m", frozenset({2, 3}), None, 1)])
    dd = induct_dd(d)
    g = dd.generators["m"]
    assert g.idem_left == frozenset({2})
    assert g.idem_right == frozenset({1})
    assert dd.pmc_left == pmc_mod.genus1()
    assert dd.pmc_right == pmc_mod.reverse(pmc_mod.genus1())


@pytest.mark.parametrize("st, message", [
    (elementary_da(Z1, Z1, {1}, {1}, 0), "needs a type D structure"),
    (elementary_a(Z1, {1}, 0), "needs a type D structure"),
    (elementary_d(Z1, {1}, 0), "does not split"),
    (elementary_d(Z2_ANTIPODAL, {1, 2}, 0), "does not split")],
    ids=["DA", "A", "genus1-D", "antipodal-D"])
def test_induct_dd_refuses_what_it_cannot_split(st, message):
    # the trefoil ladder, which it splits, runs through run_knot in
    # test_knots.test_knot_pipeline_on_boundary_sums
    with pytest.raises(AlgebraMismatch, match=message):
        induct_dd(st)


def test_shift_flips_gradings():
    d = solid_torus_d()
    s = shift(d)
    for name, g in d.generators.items():
        assert s.generators[name].grading == (g.grading + 1) % 2
    assert s.ops == d.ops
    report = s.validate()
    assert report["ok"], report["errors"]


def test_direct_sum_renames_collisions():
    d = solid_torus_d()
    total = direct_sum(d, d)
    assert set(total.generators) == {"a", "b", "a'", "b'"}
    report = total.validate()
    assert report["ok"], report["errors"]
    with pytest.raises(AlgebraMismatch):
        direct_sum(d, solid_torus_a())


def test_json_roundtrip():
    for m in (solid_torus_d(), solid_torus_a(), dehn_twist_da()):
        back = structure_from_json(m.to_json())
        assert set(back.generators) == set(m.generators)
        assert back.ops == m.ops
    with pytest.raises(SchemaViolation):
        structure_from_json({"flavor": "Q", "generators": []})
    with pytest.raises(SchemaViolation):
        structure_from_json({"generators": []})


def test_elementary_builders():
    e = elementary_d(Z1, {1}, 1, name="p")
    assert e.generators["p"].idem_left == frozenset({1})
    assert e.generators["p"].grading == 1
    da = elementary_da(Z1, Z1, {1}, {2}, 0)
    assert da.validate()["ok"]


@pytest.mark.parametrize("file, field, value", [
    ("module_solid_torus_a.json", "targets", "yx"),
    ("module_solid_torus_a.json", "targets", "y"),
    ("module_solid_torus_a.json", "inputs", ""),
    ("module_dehn_twist_da.json", "inputs", "")],
    ids=["a-targets-yx", "a-targets-y", "a-inputs", "da-inputs"])
def test_structure_from_json_rejects_non_list_op_fields(file, field, value):
    obj = data_json(file)
    obj["ops"][0][field] = value
    with pytest.raises(SchemaViolation):
        structure_from_json(obj)


def trefoil_dd():
    return induct_dd(TypeDStructure(
        pmc_mod.trefoil_pmc(), None,
        [ModuleGenerator("m", frozenset({1, 3}), None, 0),
         ModuleGenerator("n", frozenset({2, 4}), None, 1)]))


FLAVORS = {"D": solid_torus_d, "A": solid_torus_a, "DA": dehn_twist_da,
           "DD": trefoil_dd, "AA": lambda: identity_aa(Z1)}


@pytest.mark.parametrize("flavor", ["D", "A", "DA", "DD"])
def test_json_round_trip_keeps_sides(flavor):
    import json
    m = FLAVORS[flavor]()
    back = structure_from_json(json.loads(json.dumps(m.to_json())))
    assert type(back) is type(m) and back.flavor == flavor
    assert (back.pmc_left, back.pmc_right) == (m.pmc_left, m.pmc_right)
    assert back.generators == m.generators
    assert back.ops == m.ops


@pytest.mark.parametrize("flavor", ["D", "A", "DA", "DD", "AA"])
def test_shift_and_direct_sum_every_flavor(flavor):
    m = FLAVORS[flavor]()
    s = shift(m)
    assert type(s) is type(m) and s.ops == m.ops
    assert (s.pmc_left, s.pmc_right) == (m.pmc_left, m.pmc_right)
    for name, g in m.generators.items():
        assert s.generators[name] == ModuleGenerator(
            name, g.idem_left, g.idem_right, 1 - g.grading)
    total = direct_sum(m, s)
    assert type(total) is type(m)
    assert len(total.generators) == 2 * len(m.generators)
    assert len(total.ops) == 2 * len(m.ops)
    for structure in (s, total):
        report = structure.validate()
        assert report["ok"], report["errors"]
    if m.pmc_left is not None and m.pmc_right is not None:
        swapped = type(m)(m.pmc_right, m.pmc_left, [])
        with pytest.raises(AlgebraMismatch):
            direct_sum(m, swapped)


def test_two_sided_validate_checks_generators():
    # each of these is malformed, so the constructor rejects it
    dd = trefoil_dd()
    with pytest.raises(SchemaViolation,
                       match=r"^generators\[0\]\.idem_right: expected "
                             r"classes in 1\.\.2$"):
        TypeDDStructure(dd.pmc_left, dd.pmc_right, [
            ModuleGenerator("m", frozenset({1}), frozenset({3}), 0)])
    rho = strands.StrandsBasisElement.make(dd.pmc_left, [(2, 3)])
    with pytest.raises(SchemaViolation,
                       match="^ops: a DD structure carries no ops$"):
        TypeDDStructure(dd.pmc_left, dd.pmc_right,
                        list(dd.generators.values()), {("m", ()): {(rho, "n")}})
    aa = identity_aa(Z1)
    with pytest.raises(SchemaViolation,
                       match=r"^generators\[0\]\.idem_left: expected "
                             r"classes in 1\.\.2$"):
        TypeAAStructure(aa.pmc_left, aa.pmc_right, [
            ModuleGenerator("s", None, frozenset({1}), 0)])
    with pytest.raises(SchemaViolation,
                       match=r"^generators\[0\]\.idem_right: expected "
                             "none on an absent side$"):
        TypeDStructure(Z1, None, [
            ModuleGenerator("x", frozenset({1}), frozenset({1}), 0)])


def chord(s, t):
    """The one-strand basis element (s, t) of the genus-1 algebra."""
    return strands.StrandsBasisElement.make(Z1, [(s, t)])


Z1_REVERSED = pmc_mod.reverse(Z1)


@pytest.mark.parametrize("make, message", [
    (lambda: TypeDStructure(Z1, None, [
        ModuleGenerator("a", frozenset({1}), None, 0),
        ModuleGenerator("b", frozenset({2}), None, 1)],
        {("a", ()): {(None, "b")}}),
     "op(a,...) -> b: output does not match the D sides"),
    (lambda: TypeAStructure(None, Z1, [
        ModuleGenerator("x", None, frozenset({1}), 0),
        ModuleGenerator("y", None, frozenset({2}), 0)],
        {("x", (chord(1, 2),)): {(chord(2, 3), "y")}}),
     "op(x,...) -> y: output does not match the A sides"),
    (lambda: TypeDAStructure(Z1, Z1_REVERSED, [
        ModuleGenerator("a", frozenset({1}), frozenset({1}), 0),
        ModuleGenerator("b", frozenset({1}), frozenset({2}), 0)],
        {("a", (chord(1, 2),)): {(chord(1, 1), "b")}}),
     "op(a,...): input over wrong circle"),
    (lambda: TypeDAStructure(Z1_REVERSED, Z1, [
        ModuleGenerator("a", frozenset({1}), frozenset({1}), 0),
        ModuleGenerator("b", frozenset({2}), frozenset({1}), 1)],
        {("a", ()): {(chord(1, 2), "b")}}),
     "op(a,...): output over wrong circle")],
    ids=["d-output-none", "a-output-d-side", "input-circle", "output-circle"])
def test_constructor_rejects_an_op_off_its_side(make, message):
    with pytest.raises(SchemaViolation, match=f"^ops: {re.escape(message)}$"):
        make()


def test_validate_flags_inputs_that_do_not_compose():
    # rho_12 ends at class 2, and the second rho_12 starts at class 1
    da = TypeDAStructure(Z1, Z1, [
        ModuleGenerator("a", frozenset({1}), frozenset({1}), 0),
        ModuleGenerator("b", frozenset({2}), frozenset({2}), 1)],
        {("a", (chord(1, 2), chord(1, 2))): {(chord(1, 2), "b")}})
    assert da.validate()["errors"] == ["op(a,...): inputs not composable"]


def test_validate_flags_an_output_off_the_source_idempotent():
    # rho_12 starts at class 1, and a's left idempotent is class 2
    da = TypeDAStructure(Z1, Z1, [
        ModuleGenerator("a", frozenset({2}), frozenset({1}), 0),
        ModuleGenerator("b", frozenset({2}), frozenset({1}), 1)],
        {("a", ()): {(chord(1, 2), "b")}})
    assert "op(a,...): left idempotent mismatch" in da.validate()["errors"]


def test_constructor_rejects_circles_off_the_sides():
    with pytest.raises(AlgebraMismatch):
        TypeDStructure(Z1, Z1, [])
    with pytest.raises(AlgebraMismatch):
        TypeAStructure(Z1, None, [])
    with pytest.raises(AlgebraMismatch, match="^a sideless structure has a "):
        F2ChainComplex(None, Z1, [])


def test_constructor_rejects_a_repeated_generator_name():
    twins = [ModuleGenerator("x", frozenset({1}), None, 0),
             ModuleGenerator("x", frozenset({2}), None, 1)]
    with pytest.raises(SchemaViolation, match="generators\\[1\\]: repeats"):
        TypeDStructure(Z1, None, twins)


@pytest.mark.parametrize("source, target", [("zz", "b"), ("a", "zz")],
                         ids=["source", "target"])
def test_constructor_rejects_an_op_on_an_unknown_generator(source, target):
    rho12 = strands.StrandsBasisElement.make(Z1, [(1, 2)])
    gens = [ModuleGenerator("a", frozenset({1}), None, 0),
            ModuleGenerator("b", frozenset({2}), None, 1)]
    with pytest.raises(SchemaViolation, match='ops: unknown generator "zz"'):
        TypeDStructure(Z1, None, gens, {(source, ()): {(rho12, target)}})


def test_box_tensor_rejects_colliding_product_names():
    # (a*b, c) and (a, b*c) would both be named "a*b*c"
    da = TypeDAStructure(Z1, Z1, [
        ModuleGenerator("a*b", frozenset({1}), frozenset({1}), 0),
        ModuleGenerator("a", frozenset({2}), frozenset({1}), 0)])
    d = TypeDStructure(Z1, None, [ModuleGenerator("c", frozenset({1}), None, 0),
                                  ModuleGenerator("b*c", frozenset({1}), None, 0)])
    with pytest.raises(SchemaViolation, match="repeats \"a\\*b\\*c\""):
        box_tensor(da, d)
    # likewise for A (x) D: (x*, y) and (x, *y) would both be named "x**y"
    a = TypeAStructure(None, Z1, [ModuleGenerator("x*", None, frozenset({1}), 0),
                                  ModuleGenerator("x", None, frozenset({1}), 1)])
    d = TypeDStructure(Z1, None, [ModuleGenerator("y", frozenset({1}), None, 0),
                                  ModuleGenerator("*y", frozenset({1}), None, 1)])
    with pytest.raises(SchemaViolation,
                       match=r'^generators\[3\]: repeats "x\*\*y"$'):
        box_tensor(a, d)


def test_box_tensor_rejects_factors_over_different_circles():
    with pytest.raises(AlgebraMismatch, match="^boundary circles differ$"):
        box_tensor(elementary_a(Z1, {1}, 0), elementary_d(Z2, {1, 2}, 0))
