"""Command-line front end.

Exit codes: 0 success, 1 assertion/verification failure, 2 input error.
All numeric output is exact.  Each command imports the library modules it
uses, so a call loads only those.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import BorderedFloerError, SchemaViolation, show

BUILTIN_DIAGRAMS = ("solid_torus_a", "solid_torus_d", "trefoil",
                    "identity_aa_genus1")


def data_path(name):
    from importlib import resources
    return resources.files("borderedfloer").joinpath("data").joinpath(name)


def load_json(path):
    def unique_keys(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise SchemaViolation(f"{path}: repeated key {show(key)}")
            obj[key] = value
        return obj

    try:
        with open(path) as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
    except OSError as exc:
        raise SchemaViolation(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaViolation(f"{path}: invalid JSON at line {exc.lineno}, "
                              f"column {exc.colno}") from exc


def emit(args, payload, text=None):
    """Print payload as JSON under --json or when there is no text form."""
    if text is None or getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


# pmc ----------------------------------------------------------------------
def cmd_pmc_validate(args):
    from . import pmc
    z = pmc.PointedMatchedCircle.from_json(load_json(args.file))
    pmc.validate(z)
    emit(args, {"ok": True, "points": z.n, "genus": z.k,
                "subordinate": z.subordinate},
         f"ok: {z.n} points, genus {z.k}, "
         f"subordinate={'yes' if z.subordinate else 'no'}")
    return 0


def cmd_pmc_reverse(args):
    from . import pmc
    z = pmc.PointedMatchedCircle.from_json(load_json(args.file))
    pmc.validate(z)
    emit(args, pmc.reverse(z).to_json())
    return 0


def cmd_pmc_consum(args):
    from . import pmc
    z1 = pmc.PointedMatchedCircle.from_json(load_json(args.file1))
    z2 = pmc.PointedMatchedCircle.from_json(load_json(args.file2))
    pmc.validate(z1)
    pmc.validate(z2)
    emit(args, pmc.connected_sum(z1, z2).to_json())
    return 0


# alg ----------------------------------------------------------------------
def cmd_alg_basis(args):
    from . import pmc, strands
    z = pmc.PointedMatchedCircle.from_json(load_json(args.pmc))
    pmc.validate(z)
    elts = strands.basis(z, args.strands)
    rows = [dict(e.to_json(), gr=e.gr) if args.grading else e.to_json()
            for e in elts]
    lines = [(" ".join(f"{s}->{t}" for s, t in row["map"]) or "(empty)")
             + (f"  gr={row['gr']}" if args.grading else "") for row in rows]
    emit(args, {"strands": args.strands, "count": len(elts), "basis": rows},
         "\n".join(lines + [f"{len(elts)} basis elements at strands grading "
                            f"{args.strands}"]))
    return 0


def cmd_alg_check_gradings(args):
    from . import gradings, pmc
    z = pmc.PointedMatchedCircle.from_json(load_json(args.pmc))
    pmc.validate(z)
    report = gradings.verify_grading_equivalence(z)
    counts = {str(t): c for t, c in sorted(report["per_grading"].items())}
    emit(args, {"ok": report["ok"], "per_grading": counts,
                "counterexample": report["counterexample"]},
         ("pass" if report["ok"] else "FAIL") + " " +
         " ".join(f"i={t}:{c}" for t, c in sorted(report["per_grading"].items())))
    return 0 if report["ok"] else 1


# diagrams -----------------------------------------------------------------
def cmd_diagrams_list(args):
    emit(args, {"builtin": list(BUILTIN_DIAGRAMS)}, "\n".join(BUILTIN_DIAGRAMS))
    return 0


def cmd_diagrams_generators(args):
    from . import heegaard
    d = heegaard.BorderedDiagram.from_json(load_json(args.file))
    if args.flavor and d.flavor != args.flavor:
        raise SchemaViolation(
            f"diagram is {d.flavor}-ordered, not {args.flavor}")
    gens = heegaard.enumerate_generators(d)
    emit(args, {"count": len(gens), "generators": [g.to_json() for g in gens]},
         "\n".join([f"{g.name}  gr={g.grading}" for g in gens]
                   + [f"{len(gens)} generators"]))
    return 0


# mod ----------------------------------------------------------------------
def cmd_mod_validate(args):
    from . import structures
    st = structures.structure_from_json(load_json(args.file))
    report = st.validate()
    emit(args, report,
         "ok" if report["ok"] else "FAIL\n" + "\n".join(report["errors"]))
    return 0 if report["ok"] else 1


def cmd_mod_box(args):
    from . import structures
    a = structures.structure_from_json(load_json(args.a))
    d = structures.structure_from_json(load_json(args.d))
    if a.flavor != "A" or d.flavor != "D":
        raise SchemaViolation("mod box expects a type A and a type D file")
    complex_ = structures.box_tensor(a, d)
    payload = complex_.to_json()
    payload["homology"] = {str(k): v
                           for k, v in complex_.homology_dimensions().items()}
    emit(args, payload, "\n".join(
        [f"{'*'.join(g)}  gr={complex_.grading[g]}" for g in complex_.generators]
        + [f"homology: {payload['homology']}"]))
    return 0


# hh -----------------------------------------------------------------------
def cmd_hh_euler(args):
    from . import hochschild, structures
    st = structures.structure_from_json(load_json(args.file))
    if st.flavor != "DA":
        raise SchemaViolation("hh euler expects a DA module")
    poly = hochschild.graded_euler(hochschild.hochschild_generators(st))
    emit(args, {"euler": poly.to_json()}, str(poly))
    return 0


def cmd_hh_homology(args):
    from . import hochschild
    c = hochschild.complex_from_json(load_json(args.file))
    dims = c.homology_dimensions()
    emit(args, {"dimensions": {str(k): v for k, v in dims.items()}},
         f"grading 0: {dims[0]}\ngrading 1: {dims[1]}")
    return 0


# decat --------------------------------------------------------------------
def cmd_decat_psi(args):
    from . import decat, structures
    st = structures.structure_from_json(load_json(args.file))
    emit(args, decat.psi_K0(st).to_json())
    return 0


def cmd_decat_upsilon(args):
    from . import decat
    elt = decat.ExteriorElement.from_json(load_json(args.file))
    emit(args, decat.upsilon(elt).to_json())
    return 0


def cmd_decat_trace(args):
    from . import decat
    e = decat.GradedEndomorphism.from_json(load_json(args.file))
    poly = decat.graded_trace(e)
    emit(args, {"trace": poly.to_json()}, str(poly))
    return 0


# knot ---------------------------------------------------------------------
def cmd_knot_alexander(args):
    from . import knots
    pres = knots.Presentation.from_json(load_json(args.presentation))
    poly = knots.presentation_to_alexander(pres)
    emit(args, {"alexander": poly.to_json()}, str(poly))
    return 0


def cmd_knot_seifert(args):
    from . import knots
    pres = knots.Presentation.from_json(load_json(args.presentation))
    omega = knots.matrix_from_json(load_json(args.omega))
    v = knots.recover_seifert(pres, omega)
    emit(args, {"seifert": [list(r) for r in v]},
         "\n".join(" ".join(f"{x:3d}" for x in row) for row in v))
    return 0


def cmd_knot_from_plucker(args):
    from . import decat, knots
    p = decat.ExteriorElement.from_json(load_json(args.file))
    omega = knots.matrix_from_json(load_json(args.omega))
    content, rows = knots.kernel_basis_from_plucker(p)
    half = len(rows[0]) // 2
    pres = knots.Presentation.make([r[:half] for r in rows],
                                   [r[half:] for r in rows])
    v = knots.recover_seifert(pres, omega)
    poly = knots.presentation_to_alexander(pres)
    payload = {"content": content, "rows": [list(r) for r in rows],
               "seifert": [list(r) for r in v], "alexander": poly.to_json()}
    emit(args, payload,
         f"content {content}\nrows {rows}\nV {v}\nAlexander {poly}")
    return 0


# the full worked example --------------------------------------------------
def run_trefoil():
    """The end-to-end pipeline; returns (report, golden, mismatches)."""
    from . import decat, heegaard, knots, pmc, structures
    start = time.monotonic()
    diagram = heegaard.trefoil_diagram()
    gens = sorted(heegaard.enumerate_generators(diagram), key=lambda g: g.name)
    d_struct = structures.TypeDStructure(
        diagram.pmc_left, None,
        [structures.ModuleGenerator(g.name, g.idempotent_left, None, g.grading)
         for g in gens], name="trefoil")
    dd = structures.induct_dd(d_struct, diagram.pmc_left.k // 2)
    table = [{"name": g.name, "grading": g.grading,
              "idem_left": sorted(g.idem_left),
              "idem_right": sorted(g.idem_right)}
             for g in dd.generators.values()]
    gamma = decat.psi_K0(dd)
    matrix = decat.upsilon(gamma)
    delta_trace = decat.graded_trace(matrix).symmetrized()
    point = decat.combine_factors(gamma)
    content, rows = knots.kernel_basis_from_plucker(point)
    half = len(rows[0]) // 2
    pres = knots.Presentation.make([r[:half] for r in rows],
                                   [r[half:] for r in rows])
    omega = knots.intersection_from_pmc(pmc.genus1())
    delta_pres = knots.presentation_to_alexander(pres)
    seifert = knots.recover_seifert(pres, omega)
    report = {
        "table": table,
        "plucker": gamma.to_json(),
        "matrix": matrix.to_json(),
        "alexander": (delta_trace or decat.graded_trace(matrix)).to_json(),
        "alexander_from_presentation": delta_pres.to_json(),
        "omega": [list(r) for r in omega],
        "seifert": [list(r) for r in seifert],
        "kernel_content": content,
        "seconds": time.monotonic() - start,
    }
    with data_path("golden_trefoil.json").open() as fh:
        golden = json.load(fh)
    mismatches = _diff_golden(report, golden)
    return report, golden, mismatches


def _equal_up_to_sign(cls, a, b):
    a, b = cls.from_json(a), cls.from_json(b)
    return a == b or a == -b


def _diff_golden(report, golden):
    from . import decat
    mism = []
    if report["table"] != golden["table"]:
        mism.append("table")
    for key, cls in (("plucker", decat.ExteriorElement),
                     ("matrix", decat.GradedEndomorphism)):
        if not _equal_up_to_sign(cls, report[key], golden[key]):
            mism.append(key)
    for key in ("alexander", "alexander_from_presentation", "omega",
                "seifert", "kernel_content"):
        if report[key] != golden[key]:
            mism.append(key)
    return mism


def cmd_trefoil(args):
    from . import decat
    from .laurent import LaurentPolynomial
    report, golden, mismatches = run_trefoil()
    if args.json:
        report["mismatches"] = mismatches
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print("generator  gr  idempotents")
        for row in report["table"]:
            print(f"  {row['name']}       {row['grading']}   "
                  f"({','.join(map(str, row['idem_left'])) or '-'};"
                  f"{','.join(map(str, row['idem_right'])) or '-'})")
        print("Plucker point:", decat.ExteriorElement.from_json(report["plucker"]))
        print("matrix blocks:", report["matrix"]["blocks"])
        print("Delta(t) =", LaurentPolynomial(
            {int(e): c for e, c in report["alexander"].items()}))
        print("omega =", report["omega"])
        print("V =", report["seifert"])
        if mismatches:
            print("MISMATCH vs golden:", ", ".join(mismatches))
        else:
            print("all values match the golden file")
    return 1 if mismatches else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="borderedfloer",
        description="bordered Floer mod-2 gradings, decategorification, "
                    "and knot invariants")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("pmc")
    ps = p.add_subparsers(dest="subcommand")
    q = ps.add_parser("validate"); q.add_argument("file"); q.set_defaults(func=cmd_pmc_validate)
    q = ps.add_parser("reverse"); q.add_argument("file"); q.set_defaults(func=cmd_pmc_reverse)
    q = ps.add_parser("consum"); q.add_argument("file1"); q.add_argument("file2")
    q.set_defaults(func=cmd_pmc_consum)

    p = sub.add_parser("alg")
    ps = p.add_subparsers(dest="subcommand")
    q = ps.add_parser("basis")
    q.add_argument("--pmc", required=True)
    q.add_argument("--strands", type=int, required=True)
    q.add_argument("--grading", action="store_true")
    q.set_defaults(func=cmd_alg_basis)
    q = ps.add_parser("check-gradings")
    q.add_argument("--pmc", required=True)
    q.set_defaults(func=cmd_alg_check_gradings)

    p = sub.add_parser("diagrams")
    ps = p.add_subparsers(dest="subcommand")
    q = ps.add_parser("list-builtin"); q.set_defaults(func=cmd_diagrams_list)
    q = ps.add_parser("generators")
    q.add_argument("file")
    q.add_argument("--flavor", choices=("A", "D", "DA", "closed"))
    q.set_defaults(func=cmd_diagrams_generators)

    p = sub.add_parser("mod")
    ps = p.add_subparsers(dest="subcommand")
    q = ps.add_parser("validate"); q.add_argument("file"); q.set_defaults(func=cmd_mod_validate)
    q = ps.add_parser("box"); q.add_argument("a"); q.add_argument("d")
    q.set_defaults(func=cmd_mod_box)

    p = sub.add_parser("hh")
    ps = p.add_subparsers(dest="subcommand")
    q = ps.add_parser("euler"); q.add_argument("file"); q.set_defaults(func=cmd_hh_euler)
    q = ps.add_parser("homology"); q.add_argument("file"); q.set_defaults(func=cmd_hh_homology)

    p = sub.add_parser("decat")
    ps = p.add_subparsers(dest="subcommand")
    q = ps.add_parser("psi"); q.add_argument("file"); q.set_defaults(func=cmd_decat_psi)
    q = ps.add_parser("upsilon"); q.add_argument("file"); q.set_defaults(func=cmd_decat_upsilon)
    q = ps.add_parser("trace"); q.add_argument("file"); q.set_defaults(func=cmd_decat_trace)

    p = sub.add_parser("knot")
    ps = p.add_subparsers(dest="subcommand")
    q = ps.add_parser("alexander")
    q.add_argument("--presentation", required=True)
    q.set_defaults(func=cmd_knot_alexander)
    q = ps.add_parser("seifert")
    q.add_argument("--presentation", required=True)
    q.add_argument("--omega", required=True)
    q.set_defaults(func=cmd_knot_seifert)
    q = ps.add_parser("from-plucker")
    q.add_argument("file")
    q.add_argument("--omega", required=True)
    q.set_defaults(func=cmd_knot_from_plucker)
    q = ps.add_parser("trefoil"); q.set_defaults(func=cmd_trefoil)

    p = sub.add_parser("trefoil"); p.set_defaults(func=cmd_trefoil)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    func = getattr(args, "func", None)
    if func is None:
        parser.print_help()
        return 2
    try:
        return func(args)
    except SchemaViolation as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except BorderedFloerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
