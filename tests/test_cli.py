import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from borderedfloer import cli, heegaard, pmc, strands, structures
from borderedfloer.decat import ExteriorElement, combine_factors
from borderedfloer.knots import alexander_from_seifert
from borderedfloer.laurent import LaurentPolynomial

from knot_diagrams import sign_pattern_reports, trefoil
from oracle_constants import (STRANDS_DIMS_GENUS1, TREFOIL_ALEXANDER,
                              TREFOIL_OMEGA, TREFOIL_SEIFERT, TREFOIL_TABLE)


def data(name):
    return str(cli.data_path(name))


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--json", *argv)
    return code, json.loads(out) if out else None, err


def test_no_command_prints_help(capsys):
    code, out, _ = run(capsys)
    assert code == 2
    assert "usage" in out


def test_pmc_validate(capsys):
    code, payload, _ = run_json(capsys, "pmc", "validate",
                                data("pmc_genus1.json"))
    assert code == 0
    assert payload == {"ok": True, "points": 4, "genus": 1,
                       "subordinate": True}


def test_pmc_validate_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "pmc", "validate", str(bad))
    assert code == 2
    assert "line" in err
    code, _, err = run(capsys, "pmc", "validate", str(tmp_path / "none.json"))
    assert code == 2


def test_pmc_validate_invalid_circle(capsys, tmp_path):
    f = tmp_path / "disc.json"
    f.write_text(json.dumps({"points": 4, "matching": [1, 1, 2, 2],
                             "orientation": ["-", "+", "-", "+"]}))
    code, _, err = run(capsys, "pmc", "validate", str(f))
    assert code == 1
    assert "error" in err


def test_pmc_reverse_and_consum(capsys):
    code, out, _ = run(capsys, "pmc", "reverse", data("pmc_genus1.json"))
    assert code == 0
    assert json.loads(out)["matching"] == [2, 1, 2, 1]
    code, out, _ = run(capsys, "pmc", "consum",
                       data("pmc_genus1.json"), data("pmc_genus1.json"))
    assert code == 0
    assert json.loads(out)["matching"] == [1, 2, 1, 2, 3, 4, 3, 4]


def test_alg_basis(capsys):
    for i, expected in STRANDS_DIMS_GENUS1.items():
        code, payload, _ = run_json(capsys, "alg", "basis",
                                    "--pmc", data("pmc_genus1.json"),
                                    "--strands", str(i), "--grading")
        assert code == 0
        assert payload["count"] == expected
        assert all("gr" in row for row in payload["basis"])


def test_alg_basis_grading_out_of_range_is_an_input_error(capsys):
    code, out, err = run(capsys, "alg", "basis", "--pmc",
                         data("pmc_genus1.json"), "--strands", "5")
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "input error: --strands: strands grading 5 outside [-1,1]"]


def test_alg_check_gradings(capsys):
    code, payload, _ = run_json(capsys, "alg", "check-gradings",
                                "--pmc", data("pmc_genus1.json"))
    assert code == 0
    assert payload["ok"] is True
    assert payload["counterexample"] is None


def test_diagrams_list_builtin(capsys):
    code, payload, _ = run_json(capsys, "diagrams", "list-builtin")
    assert code == 0
    assert "trefoil" in payload["builtin"]


def test_diagrams_generators(capsys):
    code, payload, _ = run_json(capsys, "diagrams", "generators",
                                data("diagram_trefoil.json"))
    assert code == 0
    assert payload["count"] == 7
    got = {g["name"]: g["grading"] for g in payload["generators"]}
    assert got == {k: v[0] for k, v in TREFOIL_TABLE.items()}
    code, _, err = run(capsys, "diagrams", "generators",
                       data("diagram_trefoil.json"), "--flavor", "A")
    assert code == 2


def test_mod_validate_and_box(capsys):
    code, payload, _ = run_json(capsys, "mod", "validate",
                                data("module_solid_torus_d.json"))
    assert code == 0 and payload["ok"]
    code, payload, _ = run_json(capsys, "mod", "box",
                                data("module_solid_torus_a.json"),
                                data("module_solid_torus_d.json"))
    assert code == 0
    assert payload["homology"] == {"0": 0, "1": 0}
    code, _, _ = run(capsys, "mod", "box",
                     data("module_solid_torus_d.json"),
                     data("module_solid_torus_d.json"))
    assert code == 2


CHORD = {"terms": [{"map": [[2, 3]]}]}


@pytest.mark.parametrize("file, field, value", [
    ("module_solid_torus_d.json", "target", "nosuch"),
    ("module_solid_torus_d.json", "source", "nosuch"),
    ("module_solid_torus_d.json", "output", {"terms": [{"map": [[2, 5]]}]}),
    ("module_solid_torus_d.json", "inputs", [CHORD]),
    ("module_solid_torus_d.json", "targets", ["a"]),
    ("module_dehn_twist_da.json", "targets", ["x"]),
    ("module_solid_torus_a.json", "output", CHORD),
    ("module_solid_torus_a.json", "target", "x")],
    ids=["target", "source", "point", "d-inputs", "d-targets", "da-targets",
         "a-output", "a-target"])
def test_mod_validate_bad_op(capsys, tmp_path, file, field, value):
    with open(data(file)) as fh:
        module = json.load(fh)
    module["ops"][0][field] = value
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(module))
    code, out, err = run(capsys, "mod", "validate", str(f))
    assert code == 2
    assert out == "" and len(err.splitlines()) == 1


@pytest.mark.parametrize("command, file, where", [
    ("mod validate", "module_solid_torus_d.json", ("algebra", "pmc")),
    ("mod validate", "module_dehn_twist_da.json", ("algebra_right", "pmc")),
    ("diagrams generators", "diagram_solid_torus_a.json", ("boundary",)),
    ("alg basis --strands 0 --pmc", "pmc_genus1.json", ()),
    ("alg check-gradings --pmc", "pmc_genus1.json", ()),
    ("pmc reverse", "pmc_genus1.json", ()),
    (f"pmc consum {data('pmc_genus1.json')}", "pmc_genus1.json", ())],
    ids=["d-module", "da-module", "diagram", "alg-basis", "alg-check-gradings",
         "pmc-reverse", "pmc-consum"])
def test_invalid_circle_in_input_file(capsys, tmp_path, command, file, where):
    with open(data(file)) as fh:
        obj = json.load(fh)
    circle = obj
    for key in where:
        circle = circle[key]
    circle["orientation"] = ["+", "+", "-", "-"]  # positive points first
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(obj))
    code, out, err = run(capsys, *command.split(), str(f))
    assert code == 2
    assert out == "" and len(err.splitlines()) == 1


def dd_genus1():
    with open(data("pmc_genus1.json")) as fh:
        circle = json.load(fh)
    return {"flavor": "DD", "name": "dd",
            "algebra_left": {"pmc": circle, "side": "left"},
            "algebra_right": {"pmc": circle, "side": "left"},
            "generators": [{"name": "m", "idem_left": [1], "idem_right": [2],
                            "grading": 0}]}


def _append_copy(gens):
    gens.append(dict(gens[0]))


@pytest.mark.parametrize("command, file, mutate", [
    ("mod validate", "module_solid_torus_d.json",
     lambda m: m["generators"].append({"name": "c", "idem_left": [7],
                                       "grading": 0})),
    ("decat psi", "module_solid_torus_d.json",
     lambda m: m["generators"].append({"name": "c", "idem_left": [7],
                                       "grading": 0})),
    ("decat psi", "dd", lambda m: m["generators"][0].pop("idem_right")),
    ("hh euler", "module_dehn_twist_da.json",
     lambda m: m["generators"][1].pop("idem_right")),
    ("mod validate", "module_solid_torus_d.json",
     lambda m: m["generators"][1].update(idem_left=["2"])),
    ("decat psi", "module_solid_torus_d.json",
     lambda m: _append_copy(m["generators"])),
    ("decat psi", "dd",
     lambda m: m.update(ops=[{"source": "m", "target": "m",
                              "output": {"terms": [{"map": [[2, 3]]}]}}])),
    ("mod validate", "module_solid_torus_d.json",
     lambda m: m["generators"][0].update(idem_right=[1])),
    ("mod validate", "module_solid_torus_d.json",
     lambda m: m["generators"][0].update(grading=1.7)),
    ("mod validate", "module_solid_torus_d.json",
     lambda m: m["generators"][0].update(grading="1")),
    ("decat psi", "module_solid_torus_d.json",
     lambda m: m["generators"][0].update(grading=3)),
    ("decat psi", "module_solid_torus_d.json",
     lambda m: m["generators"][0].update(grading=True))],
    ids=["class-out-of-range-validate", "class-out-of-range-psi",
         "dd-no-idem-right", "da-no-idem-right", "string-class",
         "duplicate-name", "dd-ops", "absent-side-idem", "grading-float",
         "grading-string", "grading-3", "grading-bool"])
def test_bad_generators_in_module_file(capsys, tmp_path, command, file, mutate):
    if file == "dd":
        module = dd_genus1()
    else:
        with open(data(file)) as fh:
            module = json.load(fh)
    mutate(module)
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(module))
    code, out, err = run(capsys, *command.split(), str(f))
    assert code == 2
    assert out == "" and len(err.splitlines()) == 1


def _two_sided(d):
    d["flavor"] = "DD"
    d["boundary_left"] = d["boundary_right"] = d.pop("boundary")


def _closed_with_arcs(d):
    d["flavor"] = "closed"
    del d["boundary"]


def _closed_with_boundary(d):
    d.update(flavor="closed", genus=1, points=[
        {"name": "c", "beta": 1, "alpha": {"kind": "circle", "index": 1},
         "sign": 0}])


def _point(which=0, **fields):
    """Set fields of point which, and of its alpha for kind and index."""
    def mutate(d):
        point = d["points"][which]
        for key, value in fields.items():
            (point["alpha"] if key in ("kind", "index") else point)[key] = value
    return mutate


def _repeat_name(d):
    d["points"][1]["name"] = d["points"][0]["name"]


# each of the diagram constructor's checks, and the schema checks before them
@pytest.mark.parametrize("file, mutate, err", [
    ("diagram_solid_torus_a.json", _point(sign=2),
     "points[0].sign: expected one of [0, 1], got 2"),
    ("diagram_solid_torus_d.json", _point(kind="arc_left"),
     "points[0].alpha.kind: no 'arc_left' alphas on a D diagram"),
    ("diagram_solid_torus_a.json", _closed_with_arcs,
     "points[0].alpha.kind: no 'arc' alphas on a closed diagram"),
    ("diagram_solid_torus_a.json", _closed_with_boundary,
     "boundary: unknown key"),
    ("diagram_solid_torus_d.json", _two_sided,
     'flavor: expected one of ["A", "D", "DA", "closed"], got "DD"'),
    ("diagram_solid_torus_a.json", lambda d: d.update(genus=0),
     "genus: too small for the boundary circles"),
    ("diagram_solid_torus_a.json", _point(beta=1.9),
     "points[0].beta: expected an integer, got 1.9"),
    ("diagram_solid_torus_d.json", _point(1, index=2.0),
     "points[1].alpha.index: expected an integer, got 2.0"),
    ("diagram_trefoil.json", _point(sign="1"),
     'points[0].sign: expected one of [0, 1], got "1"'),
    ("diagram_solid_torus_a.json", _repeat_name,
     "points: two points share a name"),
    ("diagram_solid_torus_a.json", _point(beta=99),
     "points[0].beta: out of range"),
    ("diagram_trefoil.json", _point(3, beta=0),
     "points[3].beta: out of range"),
    ("diagram_solid_torus_d.json", _point(index=99),
     "points[0].alpha.index: out of range"),
    ("diagram_solid_torus_d.json", _point(index=0),
     "points[0].alpha.index: out of range")],
    ids=["sign-2", "arc-left-in-d", "closed-with-arcs", "closed-with-boundary",
         "unknown-flavor", "genus-0", "float-beta", "float-index",
         "string-sign", "repeated-name", "beta-99", "beta-0", "index-99",
         "index-0"])
def test_bad_diagram_file(capsys, tmp_path, file, mutate, err):
    with open(data(file)) as fh:
        diagram = json.load(fh)
    mutate(diagram)
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(diagram))
    assert run(capsys, "diagrams", "generators", str(f)) == \
        (2, "", f"input error: {err}\n")


def test_hh_euler(capsys):
    code, payload, _ = run_json(capsys, "hh", "euler",
                                data("module_dehn_twist_da.json"))
    assert code == 0
    assert payload["euler"] == {"0": -1}


def test_decat_and_knot_pipeline(capsys, tmp_path):
    code, out, _ = run(capsys, "decat", "psi",
                       data("module_solid_torus_d.json"))
    assert code == 0
    psi = json.loads(out)
    assert psi["dimension"] == 2

    golden = json.loads(cli.data_path("golden_trefoil.json").read_text())
    pfile = tmp_path / "plucker.json"
    pfile.write_text(json.dumps(golden["plucker"]))
    joint = combine_factors(ExteriorElement.from_json(golden["plucker"]))
    jfile = tmp_path / "point.json"
    jfile.write_text(json.dumps(joint.to_json()))
    code, out, _ = run(capsys, "decat", "upsilon", str(pfile))
    assert code == 0
    mat = json.loads(out)
    mfile = tmp_path / "matrix.json"
    mfile.write_text(json.dumps(mat))
    code, payload, _ = run_json(capsys, "decat", "trace", str(mfile))
    assert code == 0
    assert LaurentPolynomial(
        {int(e): c for e, c in payload["trace"].items()}).symmetrized() \
        == LaurentPolynomial(TREFOIL_ALEXANDER)

    ofile = tmp_path / "omega.json"
    ofile.write_text(json.dumps({"matrix": golden["omega"]}))
    code, payload, _ = run_json(capsys, "knot", "from-plucker",
                                str(jfile), "--omega", str(ofile))
    assert code == 0
    assert payload["content"] == 1
    assert payload["alexander"] == {str(e): c
                                    for e, c in TREFOIL_ALEXANDER.items()}

    presfile = tmp_path / "pres.json"
    presfile.write_text(json.dumps({"A": [r[:2] for r in payload["rows"]],
                                    "B": [r[2:] for r in payload["rows"]]}))
    code, payload2, _ = run_json(capsys, "knot", "alexander",
                                 "--presentation", str(presfile))
    assert code == 0
    assert payload2["alexander"] == payload["alexander"]
    code, payload3, _ = run_json(capsys, "knot", "seifert",
                                 "--presentation", str(presfile),
                                 "--omega", str(ofile))
    assert code == 0
    assert tuple(tuple(r) for r in payload3["seifert"]) in (
        TREFOIL_SEIFERT,
        tuple(tuple(r) for r in payload["seifert"]))


def test_knot_from_plucker_degree_zero_point_is_an_input_error(capsys,
                                                              tmp_path):
    pfile, ofile = tmp_path / "point.json", tmp_path / "omega.json"
    pfile.write_text(json.dumps(
        {"dimension": 0, "terms": [{"indices": [], "coeff": 1}]}))
    ofile.write_text(json.dumps({"matrix": []}))
    code, out, err = run(capsys, "knot", "from-plucker", str(pfile),
                         "--omega", str(ofile))
    assert (code, out) == (2, "")
    assert err == "input error: no kernel rows to split into A and B\n"


def test_knot_from_plucker_rejects_a_non_decomposable_point(capsys, tmp_path):
    pfile, ofile = tmp_path / "point.json", tmp_path / "omega.json"
    pfile.write_text(json.dumps({"dimension": 4, "terms": [
        {"indices": [1, 2], "coeff": 1}, {"indices": [3, 4], "coeff": 1}]}))
    ofile.write_text(json.dumps({"matrix": [[0, 1], [-1, 0]]}))
    code, out, err = run(capsys, "knot", "from-plucker", str(pfile),
                         "--omega", str(ofile))
    assert (code, out) == (1, "")
    assert err == "error: wedge of the recovered rows differs from the point\n"


def test_knot_from_plucker_takes_the_two_factor_point(capsys, tmp_path):
    # the golden plucker is the two-factor point that decat psi prints
    golden = json.loads(cli.data_path("golden_trefoil.json").read_text())
    pfile = tmp_path / "plucker.json"
    pfile.write_text(json.dumps(golden["plucker"]))
    ofile = tmp_path / "omega.json"
    ofile.write_text(json.dumps({"matrix": TREFOIL_OMEGA}))
    code, payload, err = run_json(capsys, "knot", "from-plucker", str(pfile),
                                  "--omega", str(ofile))
    assert (code, err) == (0, "")
    assert payload["seifert"] == golden["seifert"]
    assert payload["alexander"] == golden["alexander_from_presentation"]
    assert payload["content"] == golden["kernel_content"]


def test_decat_upsilon_rejects_an_odd_dimension(capsys, tmp_path):
    # no circle has an odd number of classes, and graded_trace likewise
    # rejects an odd endomorphism
    pfile = tmp_path / "odd.json"
    pfile.write_text(json.dumps({"dimensions": [3, 3], "terms": [
        {"left": [1], "right": [1, 2], "coeff": 1}]}))
    assert run(capsys, "decat", "upsilon", str(pfile)) == (
        1, "", "error: upsilon needs an even-dimensional space\n")


@pytest.mark.parametrize("file", ["module_solid_torus_a.json",
                                  "module_dehn_twist_da.json"])
def test_decat_psi_rejects_a_module_of_the_wrong_flavor(capsys, file):
    code, out, err = run(capsys, "decat", "psi", data(file))
    assert (code, out) == (2, "")
    assert err == "input error: decat psi expects a D or DD module\n"


def test_trefoil_end_to_end(capsys):
    code, payload, _ = run_json(capsys, "trefoil")
    assert code == 0
    assert payload["mismatches"] == []
    assert payload["alexander"] == {str(e): c
                                    for e, c in TREFOIL_ALEXANDER.items()}
    code, out, _ = run(capsys, "knot", "trefoil")
    assert code == 0
    assert "all values match the golden file" in out


def test_run_knot_cross_checks_agree_on_every_sign_pattern():
    reports = sign_pattern_reports()
    for signs, report in reports.items():
        seifert = tuple(map(tuple, report["seifert"]))
        assert report["alexander"] == report["alexander_from_presentation"] \
            == alexander_from_seifert(seifert).to_json(), signs
    assert len(reports) == 16
    assert tuple(p.sign for p in trefoil().points) in reports


def test_builtin_list_names_the_bundled_diagrams():
    files = [path.name for path in cli.data_path("").glob("diagram_*.json")]
    assert sorted(f"diagram_{name}.json" for name in cli.BUILTIN_DIAGRAMS) \
        == sorted(files)


@pytest.mark.parametrize("loader, pattern", [
    (lambda obj: heegaard.BorderedDiagram.from_json(obj), "diagram_*.json"),
    (structures.structure_from_json, "module_*.json"),
    (pmc.PointedMatchedCircle.from_json, "pmc_*.json")],
    ids=["diagram", "module", "pmc"])
def test_bundled_files_round_trip(loader, pattern):
    files = sorted(cli.data_path("").glob(pattern))
    assert files
    for path in files:
        obj = json.loads(path.read_text())
        assert loader(obj).to_json() == obj, path.name


def golden():
    return json.loads(cli.data_path("golden_trefoil.json").read_text())


def presentation():
    """The trefoil presentation: the golden kernel rows split in half."""
    rows = golden()["kernel_rows_reference"]
    return {"A": [r[:2] for r in rows], "B": [r[2:] for r in rows]}


def box_complex():
    """The `mod box --json` output of the bundled A and D modules."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["--json", "mod", "box", data("module_solid_torus_a.json"),
                         data("module_solid_torus_d.json")]) == 0
    return json.loads(out.getvalue())


SOURCES = {
    "plucker": lambda: golden()["plucker"],
    "point": lambda: combine_factors(
        ExteriorElement.from_json(golden()["plucker"])).to_json(),
    "matrix": lambda: golden()["matrix"],
    "presentation": presentation,
    "omega": lambda: {"matrix": golden()["omega"]},
    "complex": box_complex,
    "dd": dd_genus1,
}


def source(name):
    """A bundled data file by file name, or a named input built from one."""
    if name in SOURCES:
        return SOURCES[name]()
    with open(data(name)) as fh:
        return json.load(fh)


def run_on(capsys, tmp_path, command, obj):
    """Run a command with obj as its last argument; a word "@name" in the
    command stands for the file of source(name)."""
    argv = []
    for word in command.split() + ["@"]:
        if word.startswith("@"):
            f = tmp_path / f"{word[1:] or 'input'}.json"
            f.write_text(json.dumps(source(word[1:]) if word[1:] else obj))
            word = str(f)
        argv.append(word)
    return run(capsys, *argv)


DELETE = object()
MUTANTS = st.one_of(st.just(DELETE), st.none(), st.booleans(),
                    st.integers(-2, 9), st.floats(-3, 9), st.text(max_size=3),
                    st.lists(st.integers(-1, 9), max_size=4), st.just({}))


def _slots(obj):
    """Every (container, key) pair of a JSON tree."""
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield obj, key
        yield from _slots(value)


def mutate(draw, obj):
    """Replace or delete one value, insert a key or rename one."""
    action = draw.draw(st.sampled_from(("value", "insert", "rename")))
    if action == "value":
        container, key = draw.draw(st.sampled_from(list(_slots(obj))))
        value = draw.draw(MUTANTS)
        if value is DELETE:
            del container[key]
        else:
            container[key] = value
        return
    objects = [obj] + [c[k] for c, k in _slots(obj) if isinstance(c[k], dict)]
    target = draw.draw(st.sampled_from(objects))
    name = draw.draw(st.text(max_size=6))
    if action == "insert":
        target[name] = draw.draw(MUTANTS.filter(lambda v: v is not DELETE))
    elif target:
        target[name] = target.pop(draw.draw(st.sampled_from(sorted(target))))


@pytest.mark.parametrize("command, file", [
    ("pmc validate", "pmc_genus1.json"),
    ("pmc consum @pmc_genus1.json", "pmc_genus2_split.json"),
    ("diagrams generators", "diagram_solid_torus_a.json"),
    ("diagrams generators", "diagram_trefoil.json"),
    ("diagrams generators", "diagram_identity_aa_genus1.json"),
    ("mod validate", "module_solid_torus_a.json"),
    ("mod validate", "module_dehn_twist_da.json"),
    ("decat psi", "module_solid_torus_d.json"),
    ("hh euler", "module_dehn_twist_da.json"),
    ("hh homology", "complex"),
    ("decat upsilon", "plucker"),
    ("decat trace", "matrix"),
    ("knot alexander --presentation", "presentation"),
    ("knot seifert --omega @omega --presentation", "presentation"),
    ("knot seifert --presentation @presentation --omega", "omega"),
    ("knot from-plucker --omega @omega", "point")],
    ids=lambda v: "-".join(v.split(".")[0].split()[:2]))
@settings(derandomize=True, max_examples=25, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(draw=st.data())
def test_mutated_bundled_file_keeps_the_exit_contract(capsys, tmp_path, command,
                                                      file, draw):
    obj = source(file)
    mutate(draw, obj)
    code, out, err = run_on(capsys, tmp_path, command, obj)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and len(err.splitlines()) == 1


def _set(path, value):
    """A mutation that sets obj[k1][k2]... for path = (k1, k2, ...)."""
    def apply(obj):
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
    return apply


def _append(key, item):
    return lambda obj: obj[key].append(item(obj))


@pytest.mark.parametrize("command, file, mutate_input, path", [
    ("knot alexander --presentation", "presentation", _set(("A", 0, 1), -1.5),
     "A[0][1]"),
    ("knot seifert --presentation @presentation --omega", "omega",
     _set(("matrix", 0, 1), 1.9), "matrix[0][1]"),
    ("pmc validate", "pmc_genus1.json", _set(("points",), "4"), "points"),
    ("diagrams generators", "diagram_solid_torus_a.json",
     _set(("points", 0, "name"), 5), "points[0].name"),
    ("decat psi", "dd", _set(("generators", 0, "name"), 5),
     "generators[0].name"),
    ("hh homology", "complex",
     _append("differential", lambda c: {"source": "x*a", "targets": []}),
     "differential[1]"),
    ("hh homology", "complex",
     _append("generators", lambda c: {"name": "x*a", "grading": 0}),
     "generators[2]"),
    ("decat upsilon", "plucker",
     _append("terms", lambda p: dict(p["terms"][0], coeff=5)), "terms[5]"),
    ("decat upsilon", "plucker", _set(("terms", 0, "right"), [1, 3]),
     "terms[0].right[1]"),
    ("decat upsilon", "plucker", _set(("terms", 1, "left"), [0]),
     "terms[1].left[0]"),
    ("decat upsilon", "plucker", _set(("terms", 0, "right"), [1, 1]),
     "terms[0].right"),
    ("knot from-plucker --omega @omega", "point",
     _set(("terms", 0, "indices"), [1, 5]), "terms[0].indices[1]"),
    ("knot from-plucker --omega @omega", "point",
     _set(("terms", 0, "indices"), [0, 2]), "terms[0].indices[0]"),
    ("knot from-plucker --omega @omega", "point",
     _set(("terms", 0, "indices"), [2, 2]), "terms[0].indices"),
    ("decat trace", "matrix", lambda m: m.update(dimension=1, blocks={"0": [5]}),
     "blocks.0[0]"),
    ("decat trace", "matrix", _set(("blocks", "1"), [[0, -1]]), "blocks.1"),
    ("decat trace", "matrix", _set(("blocks", "3"), [[1]]), 'blocks["3"]'),
    ("decat trace", "matrix", _set(("blocks", "0"), [[1.5]]), "blocks.0[0][0]"),
    ("mod validate", "module_solid_torus_d.json",
     lambda m: m["ops"][0]["output"]["terms"][0].update(source=[1], target=[4]),
     "ops[0].output.terms[0]"),
    ("mod validate", "module_solid_torus_d.json",
     _set(("algebra", "side"), "right"), "algebra.side"),
    ("mod validate", "module_solid_torus_d.json", _set(("extra",), 1), "extra"),
    ("mod validate", "module_solid_torus_a.json",
     lambda m: m.update(title=m.pop("name")), "title"),
    ("diagrams generators", "diagram_trefoil.json", _set(("dd_split",), 1),
     "dd_split"),
    ("mod validate", "module_solid_torus_a.json",
     _append("ops", lambda m: m["ops"][0]), "ops[1]"),
    ("mod validate", "module_solid_torus_a.json",
     _set(("ops", 0, "targets"), ["y", "y"]), "ops[0].targets[1]"),
    ("mod validate", "module_dehn_twist_da.json",
     _append("ops", lambda m: m["ops"][0]), "ops[1]"),
    ("mod validate", "module_solid_torus_d.json",
     _append("ops", lambda m: m["ops"][0]), "ops[1]"),
    ("decat psi", "module_solid_torus_d.json",
     _set(("generators", 0, "idem_left"), [2, 2]), "generators[0].idem_left[1]"),
    ("mod validate", "module_dehn_twist_da.json",
     _set(("generators", 1, "idem_right"), [1, 1]), "generators[1].idem_right[1]"),
    ("decat trace", "matrix", lambda m: m.update(dimension=24, blocks={}),
     "dimension"),
    ("decat upsilon", "plucker", lambda p: p.update(dimensions=[24, 24], terms=[]),
     "dimensions[0]")],
    ids=["presentation-float", "omega-float", "pmc-points-string",
         "point-name-int", "generator-name-int", "complex-repeated-source",
         "complex-repeated-generator", "exterior-repeated-term",
         "upsilon-index-outside", "upsilon-index-zero", "upsilon-index-twice",
         "from-plucker-index-outside", "from-plucker-index-zero",
         "from-plucker-index-twice", "endomorphism-int-row",
         "endomorphism-block-shape", "endomorphism-block-key",
         "endomorphism-float", "term-source-target", "d-side-right",
         "module-unknown-key", "module-renamed-key", "diagram-unknown-key",
         "a-op-twice", "a-target-twice", "da-op-twice", "d-op-twice",
         "idem-left-class-twice", "idem-right-class-twice",
         "endomorphism-dimension-24", "upsilon-dimension-24"])
def test_malformed_input_names_its_path(capsys, tmp_path, command, file,
                                        mutate_input, path):
    obj = source(file)
    mutate_input(obj)
    code, out, err = run_on(capsys, tmp_path, command, obj)
    assert code == 2
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith(f"input error: {path}: ")


@pytest.mark.parametrize("times, want", [
    (2, (2, "", "input error: ops[0].output: expected one basis element\n")),
    (3, (0, "ok\n", ""))])
def test_an_op_output_term_listed_twice_cancels(capsys, tmp_path, times, want):
    """Over GF(2) an output that lists its one term twice is zero, which is
    no basis element, and one that lists it three times is that term."""
    obj = source("module_solid_torus_d.json")
    obj["ops"][0]["output"]["terms"] *= times
    assert run_on(capsys, tmp_path, "mod validate", obj) == want


@pytest.mark.parametrize("command, file, mutate_input, error", [
    ("mod validate", "module_solid_torus_a.json",
     _set(("ops", 0, "source"), "z"),
     'ops[0].source: expected one of ["x", "y"], got "z"'),
    ("mod validate", "module_solid_torus_a.json",
     _set(("ops", 0, "targets"), ["x", "z"]),
     'ops[0].targets[1]: expected one of ["x", "y"], got "z"'),
    ("mod validate", "module_solid_torus_a.json",
     lambda m: (m["generators"].reverse(), m["ops"][0].update(source="z")),
     'ops[0].source: expected one of ["y", "x"], got "z"'),
    ("mod validate", "module_solid_torus_d.json",
     _set(("ops", 0, "source"), "c"),
     'ops[0].source: expected one of ["a", "b"], got "c"'),
    ("mod validate", "module_solid_torus_d.json",
     _set(("ops", 0, "target"), "c"),
     'ops[0].target: expected one of ["a", "b"], got "c"'),
    ("mod validate", "module_dehn_twist_da.json",
     _set(("ops", 0, "target"), "z"),
     'ops[0].target: expected one of ["x", "y"], got "z"'),
    ("hh homology", "complex", _set(("differential", 0, "source"), "x*b"),
     'differential[0].source: expected one of ["x*a", "y*b"], got "x*b"'),
    ("hh homology", "complex", _set(("differential", 0, "targets"), ["x*b"]),
     'differential[0].targets[0]: expected one of ["x*a", "y*b"], got "x*b"'),
    ("hh homology", "complex",
     _append("differential", lambda c: {"source": "x*a", "targets": []}),
     'differential[1]: repeats ["x*a", []]')],
    ids=["a-source", "a-targets", "a-file-order", "d-source", "d-target", "da-target",
         "complex-source", "complex-targets", "complex-repeated-source"])
def test_unknown_generator_name_is_an_input_error(capsys, tmp_path, command,
                                                  file, mutate_input, error):
    obj = source(file)
    mutate_input(obj)
    assert run_on(capsys, tmp_path, command, obj) == (
        2, "", f"input error: {error}\n")


def test_repeated_json_key_is_an_input_error(capsys, tmp_path):
    text = cli.data_path("module_solid_torus_d.json").read_text()
    f = tmp_path / "module.json"
    f.write_text(text.replace('"grading": 1,', '"grading": 0, "grading": 1,', 1))
    code, out, err = run(capsys, "mod", "validate", str(f))
    assert (code, out) == (2, "")
    assert err == f'input error: {f}: repeated key "grading"\n'


def test_deeply_nested_json_is_an_input_error(capsys, tmp_path):
    f = tmp_path / "nested.json"
    f.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "pmc", "validate", str(f))
    assert (code, out) == (2, "")
    assert err == f"input error: {f}: nested too deeply\n"


def test_mod_validate_walks_a_long_chain_without_recursion(capsys, tmp_path):
    """A chain of 3,000 generators, x_i -> rho_2 (x) x_(i+1), is bounded; a
    back edge from its last generator to its first makes it unbounded."""
    z = pmc.genus1()
    rho = strands.StrandsBasisElement.make(z, [(2, 4)])
    gens = [structures.ModuleGenerator(f"x{i}", frozenset({2}), None, 0)
            for i in range(3000)]
    ops = {(f"x{i}", ()): {(rho, f"x{i + 1}")} for i in range(2999)}
    f = tmp_path / "chain.json"
    f.write_text(json.dumps(structures.TypeDStructure(z, None, gens, ops).to_json()))
    assert run(capsys, "mod", "validate", str(f)) == (0, "ok\n", "")
    ops[("x2999", ())] = {(rho, "x0")}
    assert structures.TypeDStructure(z, None, gens, ops).validate() == {
        "ok": False, "errors": ["delta-transition graph has a cycle (unbounded)"]}


def test_mod_validate_fails_a_da_module_that_breaks_its_relation(capsys,
                                                                 tmp_path):
    z = pmc.genus1()
    r12, r23 = (strands.StrandsBasisElement.make(z, [p]) for p in ((1, 2), (2, 3)))
    gens = [structures.ModuleGenerator(name, frozenset({j}), frozenset({1}), g)
            for name, j, g in (("a", 1, 0), ("b", 2, 1), ("c", 1, 1))]
    da = structures.TypeDAStructure(z, z, gens, {("a", ()): {(r12, "b")},
                                                 ("b", ()): {(r23, "c")}})
    f = tmp_path / "da.json"
    f.write_text(json.dumps(da.to_json()))
    code, out, _ = run(capsys, "mod", "validate", str(f))
    assert code == 1
    assert out == "FAIL\nstructure relation (d^2 = 0) fails at a, 0 inputs\n"


def test_mod_box_rejects_colliding_product_names(capsys, tmp_path):
    # (x*, y) and (x, *y) would both be named "x**y"
    z = pmc.genus1()
    a = structures.TypeAStructure(None, z, [
        structures.ModuleGenerator(name, None, frozenset({1}), g)
        for name, g in (("x*", 0), ("x", 1))])
    d = structures.TypeDStructure(z, None, [
        structures.ModuleGenerator(name, frozenset({1}), None, g)
        for name, g in (("y", 0), ("*y", 1))])
    afile, dfile = tmp_path / "a.json", tmp_path / "d.json"
    afile.write_text(json.dumps(a.to_json()))
    dfile.write_text(json.dumps(d.to_json()))
    assert run(capsys, "--json", "mod", "box", str(afile), str(dfile)) == (
        2, "", 'input error: generators[3]: repeats "x**y"\n')


def test_mod_box_output_loads_in_hh_homology(capsys, tmp_path):
    complex_ = box_complex()
    code, out, _ = run_on(capsys, tmp_path, "--json hh homology", complex_)
    assert code == 0
    assert json.loads(out)["dimensions"] == complex_["homology"]


def _complex(gradings, differential):
    return {"generators": [{"name": x, "grading": g}
                           for x, g in gradings.items()],
            "differential": [{"source": x, "targets": t}
                             for x, t in differential.items()]}


@pytest.mark.parametrize("complex_, error", [
    (_complex({"a": 0, "b": 0}, {"a": ["b"]}),
     "op(a,...) -> b: grading flip violated"),
    (_complex({"a": 0, "b": 1, "c": 0}, {"a": ["b"], "b": ["c"]}),
     "structure relation (d^2 = 0) fails at a, 0 inputs")],
    ids=["grading-flip", "d-squared"])
def test_hh_homology_rejects_a_non_complex(capsys, tmp_path, complex_, error):
    assert run_on(capsys, tmp_path, "hh homology", complex_) == (
        1, "", f"error: {error}\n")


def test_hh_euler_rejects_a_module_that_is_not_da(capsys):
    assert run(capsys, "hh", "euler", data("module_solid_torus_d.json")) == (
        2, "", "input error: hh euler expects a DA module\n")


def test_trefoil_reports_a_mismatch_with_the_golden_file(capsys, monkeypatch,
                                                         tmp_path):
    golden = json.loads(cli.data_path("golden_trefoil.json").read_text())
    golden["kernel_content"] += 1
    (tmp_path / "golden_trefoil.json").write_text(json.dumps(golden))
    shipped = cli.data_path
    monkeypatch.setattr(cli, "data_path", lambda name: tmp_path / name
                        if name == "golden_trefoil.json" else shipped(name))
    code, out, _ = run(capsys, "trefoil")
    assert code == 1
    assert out.endswith("MISMATCH vs golden: kernel_content\n")
