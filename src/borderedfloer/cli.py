"""Command-line front end: it parses argv, loads the JSON files (bundled
data included) and prints; the library modules compute.  The trefoil
command runs the knot pipeline of ``knots`` on the bundled diagram and
judges its report against the bundled golden record.

Exit codes: 0 success, 1 assertion/verification failure, 2 input error.
All numeric output is exact.  Each command imports the library modules it
uses, so a call loads only those.
"""

from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace

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
    except RecursionError as exc:
        raise SchemaViolation(f"{path}: nested too deeply") from exc


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
    emit(args, pmc.reverse(pmc.load(load_json(args.file))).to_json())
    return 0


def cmd_pmc_consum(args):
    from . import pmc
    z1, z2 = (pmc.load(load_json(f)) for f in (args.file1, args.file2))
    emit(args, pmc.connected_sum(z1, z2).to_json())
    return 0


# alg ----------------------------------------------------------------------
def load_algebra_pmc(path):
    """The circle of --pmc, refused above the genus the alg commands enumerate."""
    from . import pmc, strands
    z = pmc.load(load_json(path))
    if z.k not in strands.GENUS:
        raise SchemaViolation(f"genus {z.k} is above {strands.GENUS[-1]}, the "
                              "largest the alg commands enumerate", "--pmc")
    return z


def cmd_alg_basis(args):
    from . import strands
    from .errors import StrandsGradingOutOfRange
    z = load_algebra_pmc(args.pmc)
    try:
        elts = strands.basis(z, args.strands)
    except StrandsGradingOutOfRange as exc:
        raise SchemaViolation(str(exc), "--strands") from exc
    rows = [dict(e.to_json(), gr=e.gr) if args.grading else e.to_json()
            for e in elts]
    lines = [(" ".join(f"{s}->{t}" for s, t in row["map"]) or "(empty)")
             + (f"  gr={row['gr']}" if args.grading else "") for row in rows]
    emit(args, {"strands": args.strands, "count": len(elts), "basis": rows},
         "\n".join(lines + [f"{len(elts)} basis elements at strands grading "
                            f"{args.strands}"]))
    return 0


def cmd_alg_check_gradings(args):
    from . import gradings
    report = gradings.verify_grading_equivalence(load_algebra_pmc(args.pmc))
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
        [f"{g.name}  gr={g.grading}" for g in complex_.generators.values()]
        + [f"homology: {payload['homology']}"]))
    return 0


# hh -----------------------------------------------------------------------
def cmd_hh_euler(args):
    from . import hochschild, structures
    st = structures.structure_from_json(load_json(args.file))
    if st.flavor != "DA":
        raise SchemaViolation("hh euler expects a DA module")
    poly = hochschild.graded_euler(st)
    emit(args, {"euler": poly.to_json()}, str(poly))
    return 0


def cmd_hh_homology(args):
    from . import structures
    c = structures.F2ChainComplex.from_json(load_json(args.file))
    dims = c.homology_dimensions()
    emit(args, {"dimensions": {str(k): v for k, v in dims.items()}},
         f"grading 0: {dims[0]}\ngrading 1: {dims[1]}")
    return 0


# decat --------------------------------------------------------------------
def cmd_decat_psi(args):
    from . import decat, structures
    st = structures.structure_from_json(load_json(args.file))
    if st.flavor not in ("D", "DD"):
        raise SchemaViolation("decat psi expects a D or DD module")
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
    content, rows, v, poly = knots.knot_from_plucker(p, omega)
    payload = {"content": content, "rows": [list(r) for r in rows],
               "seifert": [list(r) for r in v], "alexander": poly.to_json()}
    emit(args, payload,
         f"content {content}\nrows {rows}\nV {v}\nAlexander {poly}")
    return 0


def cmd_trefoil(args):
    from . import decat, knots
    from .heegaard import BorderedDiagram
    from .laurent import LaurentPolynomial
    report = knots.run_knot(BorderedDiagram.from_json(
        load_json(data_path("diagram_trefoil.json"))))
    mismatches = knots.diff_golden(
        report, load_json(data_path("golden_trefoil.json")))
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


# the command line ----------------------------------------------------------
# command words -> (function, positional fields, {option: kind}), where a kind
# is bool for a flag, str or int for a required value, or a tuple of choices;
# an option --name sets the field name
COMMANDS = {
    ("pmc", "validate"): (cmd_pmc_validate, ("file",), {}),
    ("pmc", "reverse"): (cmd_pmc_reverse, ("file",), {}),
    ("pmc", "consum"): (cmd_pmc_consum, ("file1", "file2"), {}),
    ("alg", "basis"): (cmd_alg_basis, (), {"--pmc": str, "--strands": int,
                                           "--grading": bool}),
    ("alg", "check-gradings"): (cmd_alg_check_gradings, (), {"--pmc": str}),
    ("diagrams", "list-builtin"): (cmd_diagrams_list, (), {}),
    ("diagrams", "generators"): (cmd_diagrams_generators, ("file",),
                                 {"--flavor": ("A", "D", "DA", "closed")}),
    ("mod", "validate"): (cmd_mod_validate, ("file",), {}),
    ("mod", "box"): (cmd_mod_box, ("a", "d"), {}),
    ("hh", "euler"): (cmd_hh_euler, ("file",), {}),
    ("hh", "homology"): (cmd_hh_homology, ("file",), {}),
    ("decat", "psi"): (cmd_decat_psi, ("file",), {}),
    ("decat", "upsilon"): (cmd_decat_upsilon, ("file",), {}),
    ("decat", "trace"): (cmd_decat_trace, ("file",), {}),
    ("knot", "alexander"): (cmd_knot_alexander, (), {"--presentation": str}),
    ("knot", "seifert"): (cmd_knot_seifert, (), {"--presentation": str,
                                                 "--omega": str}),
    ("knot", "from-plucker"): (cmd_knot_from_plucker, ("file",),
                               {"--omega": str}),
    ("knot", "trefoil"): (cmd_trefoil, (), {}),
    ("trefoil",): (cmd_trefoil, (), {}),
}
HELP = {"-h": bool, "--help": bool}


def cmd_help(args):
    print("usage: borderedfloer [-h] [--json] COMMAND ...\n\nbordered Floer "
          "mod-2 gradings, decategorification, and knot invariants\n")
    for words, (_, fields, options) in COMMANDS.items():
        print(" ", *words, *map(str.upper, fields), *(
            f"[{o}]" if k is bool else f"{o} {o[2:].upper()}" if k in (str, int)
            else f"[{o} {{{','.join(k)}}}]" for o, k in options.items()))
    return 0


def _option(token, known):
    """None when token is a positional, else (option, value): the option of
    known it names, in full, by a unique prefix or as -hVALUE ("" for none),
    and its value after "=" or None.  "-", a negative number and a phrase
    with a space are positionals."""
    head, eq, value = token.partition("=")
    if head in known:
        return head, value if eq else None
    if token[:2] in known:
        return token[:2], token[2:]
    hits = [o for o in known if head[:2] == "--" != token and o.startswith(head)]
    if len(hits) > 1:
        raise SchemaViolation(f"ambiguous option {show(head)}: {', '.join(hits)}")
    if hits:
        return hits[0], value if eq else None
    if token[:1] == "-" and token not in ("-", "--") and " " not in token \
            and not re.match(r"^-\d+$|^-\d*\.\d+$", token):  # not a number
        return "", None


def parse(argv):
    """(command function, args) for argv: the function is None when argv
    names no command and cmd_help on -h.  A malformed argv raises
    SchemaViolation, but an unknown option or a wrong count of positionals
    is reported at the end, so that a later -h still prints the usage."""
    args, func, fields, words = SimpleNamespace(json=False), None, [], ()
    known, late, dashed, tokens = {**HELP, "--json": bool}, None, False, iter(argv)
    for token in tokens:
        opt = None if dashed else _option(token, known)
        if token == "--" and func and not dashed:  # the rest are positionals
            dashed = True
            late = late or (not COMMANDS[words][1] and 'unknown argument "--"')
        elif opt is None and func is None:  # a command word
            words += (token,)
            if not any(w[:len(words)] == words for w in COMMANDS):
                raise SchemaViolation(f"unknown command {show(' '.join(words))}")
            func, fields, options = COMMANDS.get(words, (None, (), {}))
            fields, known = list(fields), {**HELP, **options}
            vars(args).update((o[2:], False if k is bool else None)
                              for o, k in options.items())
        elif opt is None and fields:
            setattr(args, fields.pop(0), token)
        elif opt is None or not opt[0]:
            late = late or f"unknown {'option' if opt else 'argument'} {show(token)}"
        elif opt[0] in HELP and (opt[1] is None or opt[0] == "-h"
                                 and set(opt[1]) == {"h"}):  # or -hh
            return cmd_help, args
        else:
            (option, value), kind = opt, known[opt[0]]
            if kind is bool and value is not None:
                raise SchemaViolation("takes no value", option)
            if kind is not bool and value is None:
                value = next(tokens, "--")
                if value == "--" or _option(value, known):
                    raise SchemaViolation("needs a value", option)
            try:  # True for a flag, int(value), or the choice equal to value
                value = kind is bool or (kind(value) if kind in (str, int)
                                         else kind[kind.index(value)])
            except ValueError:
                want = "an integer" if kind is int else "one of " + ", ".join(kind)
                raise SchemaViolation(f"expected {want}, got {show(value)}",
                                      option) from None
            setattr(args, option[2:], value)
    missing = [f.upper() for f in fields] + [
        o for o, k in known.items() if k in (str, int) and getattr(args, o[2:]) is None]
    if late or missing:
        raise SchemaViolation(late or "missing " + " ".join(missing))
    return func, args


def main(argv=None):
    try:
        func, args = parse(sys.argv[1:] if argv is None else argv)
        return func(args) if func else cmd_help(args) + 2  # no command: 2
    except SchemaViolation as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except BorderedFloerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
