import itertools
from dataclasses import replace

import pytest

from borderedfloer import pmc as pmc_mod, strands, structures
from borderedfloer.errors import (AlgebraMismatch, BothUnbounded,
                                  SchemaViolation)
from borderedfloer.structures import (ModuleGenerator, TypeAAStructure,
                                      TypeAStructure, TypeDAStructure,
                                      TypeDDStructure, TypeDStructure,
                                      box_tensor, box_tensor_bimodules,
                                      direct_sum, elementary_d, elementary_da,
                                      identity_aa, induct_dd, shift,
                                      structure_from_json, theta)

import importlib.resources as resources

Z1 = pmc_mod.genus1()


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


def identity_da(drop=()):
    """The genus-1 identity DA bimodule, without the ops of the chords in
    drop: generators x1 and x2 over the two classes, and
    delta^1_2(x_s, a) = a (x) x_t for each chord a from class s to class t."""
    gens = [ModuleGenerator(f"x{j}", frozenset({j}), frozenset({j}), 0)
            for j in (1, 2)]
    ops = {}
    for a in strands.basis(Z1, 0):
        if not a.is_idempotent and a not in drop:
            (s, t), = a.pairs
            ops[(f"x{Z1.cls(s)}", (a,))] = {(a, f"x{Z1.cls(t)}")}
    return TypeDAStructure(Z1, Z1, gens, ops, name="identity_da")


def test_identity_da_satisfies_the_structure_relation():
    da = identity_da()
    assert len(da.ops) == 6
    report = da.validate()
    assert report["ok"], report["errors"]


@pytest.mark.parametrize("pairs", [[(1, 2)], [(2, 3)], [(3, 4)]],
                         ids=["rho12", "rho23", "rho34"])
def test_identity_da_without_a_generator_chord_fails(pairs):
    # no op input is a product with this chord as a factor, so only the
    # factor pairs of the alphabet put it into a word of the check
    rho = strands.StrandsBasisElement.make(Z1, pairs)
    report = identity_da(drop=(rho,)).validate()
    assert not report["ok"]
    assert all("structure relation" in e for e in report["errors"])


def test_identity_da_without_rho13_fails_the_structure_relation():
    # rho_13 is rho_12 rho_23, so it is in the alphabet of the check
    rho13 = strands.StrandsBasisElement.make(Z1, [(1, 3)])
    report = identity_da(drop=(rho13,)).validate()
    assert report["errors"] == [
        "structure relation (d^2 = 0) fails at x1, 2 inputs: [(1, 2)] [(2, 3)]",
        "structure relation (d^2 = 0) fails at x1, 2 inputs: [(1, 3)] [(3, 4)]"]


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
    assert names == {("x", "a"), ("y", "b")}
    assert cx.differential == {("x", "a"): frozenset({("y", "b")})}
    assert cx.homology_dimensions() == {0: 0, 1: 0}
    assert cx.euler() == 0


def test_box_tensor_requires_bounded_side():
    rho2 = strands.StrandsBasisElement.make(Z1, [(2, 3)])
    gens = [ModuleGenerator("a", frozenset({2}), None, 0),
            ModuleGenerator("b", frozenset({1}), None, 1)]
    loop = TypeDStructure(Z1, None, gens, {("a", ()): {(rho2, "a")}})
    with pytest.raises(BothUnbounded):
        box_tensor(solid_torus_a(), loop)


def test_box_tensor_bimodules_da_d():
    d = box_tensor_bimodules(dehn_twist_da(), solid_torus_d())
    assert d.flavor == "D"
    report = d.validate()
    assert report["ok"], report["errors"]


def unit_output_d():
    """A type D structure whose one op outputs an idempotent."""
    unit = strands.StrandsBasisElement.make(Z1, [(1, 1)])
    return TypeDStructure(Z1, None, [
        ModuleGenerator("a", frozenset({1}), None, 0),
        ModuleGenerator("b", frozenset({1}), None, 1)], {("a", ()): {(unit, "b")}})


@pytest.mark.parametrize("d", [solid_torus_d, unit_output_d],
                         ids=["solid-torus", "unit-output"])
def test_identity_da_box_d_is_d(d):
    d = d()
    assert d.validate()["ok"]
    product = box_tensor_bimodules(identity_da(), d)
    assert product.flavor == "D" and product.pmc_left == d.pmc_left
    name = {f"x{min(g.idem_left)}*{g.name}": g.name
            for g in d.generators.values()}
    assert {name[n]: replace(g, name=name[n])
            for n, g in product.generators.items()} == d.generators
    assert {(name[x], seq): frozenset((b, name[y]) for b, y in terms)
            for (x, seq), terms in product.ops.items()} == d.ops


def test_box_tensor_bimodules_aa_dd_shapes():
    ident = identity_aa(Z1)
    dd = induct_dd(TypeDStructure(
        pmc_mod.trefoil_pmc(), None,
        [ModuleGenerator("m", frozenset({1, 3}), None, 0)]), 1)
    da = box_tensor_bimodules(ident, dd)
    assert da.flavor == "DA"
    for g in da.generators.values():
        assert g.idem_left is not None and g.idem_right is not None


def test_box_tensor_bimodules_rejects_unsupported():
    with pytest.raises(AlgebraMismatch):
        box_tensor_bimodules(solid_torus_d(), solid_torus_d())


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
    dd = induct_dd(d, 1)
    g = dd.generators["m"]
    assert g.idem_left == frozenset({2})
    assert g.idem_right == frozenset({1})
    assert dd.pmc_left == pmc_mod.genus1()
    assert dd.pmc_right == pmc_mod.reverse(pmc_mod.genus1())


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
         ModuleGenerator("n", frozenset({2, 4}), None, 1)]), 1)


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
    dd = trefoil_dd()
    bad = TypeDDStructure(dd.pmc_left, dd.pmc_right, [
        ModuleGenerator("m", frozenset({1}), frozenset({3}), 0)])
    assert not bad.validate()["ok"]
    rho = strands.StrandsBasisElement.make(dd.pmc_left, [(2, 3)])
    with_ops = TypeDDStructure(dd.pmc_left, dd.pmc_right,
                               list(dd.generators.values()),
                               {("m", ()): {(rho, "n")}})
    assert "a DD structure carries no ops" in with_ops.validate()["errors"]
    aa = identity_aa(Z1)
    bad = TypeAAStructure(aa.pmc_left, aa.pmc_right, [
        ModuleGenerator("s", None, frozenset({1}), 0)])
    assert not bad.validate()["ok"]


def test_constructor_rejects_circles_off_the_sides():
    with pytest.raises(AlgebraMismatch):
        TypeDStructure(Z1, Z1, [])
    with pytest.raises(AlgebraMismatch):
        TypeAStructure(Z1, None, [])
