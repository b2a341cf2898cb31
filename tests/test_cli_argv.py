"""The command-line parser against the argparse parser it replaced.

build_parser below is the argparse front end as the CLI last had it, kept
unchanged as the reference: over a fixed corpus of argvs (the README's usage
lines instantiated, their options permuted and spelt with "=" and with
prefixes, and malformed argvs), cli.parse must give the command function and
fields that argparse gives, and cli.main must exit as argparse did.
"""

import argparse
import contextlib
import io
import itertools
import os
import re

import pytest

from borderedfloer import cli
from borderedfloer.cli import (
    cmd_alg_basis, cmd_alg_check_gradings, cmd_decat_psi, cmd_decat_trace,
    cmd_decat_upsilon, cmd_diagrams_generators, cmd_diagrams_list,
    cmd_hh_euler, cmd_hh_homology, cmd_knot_alexander, cmd_knot_from_plucker,
    cmd_knot_seifert, cmd_mod_box, cmd_mod_validate, cmd_pmc_consum,
    cmd_pmc_reverse, cmd_pmc_validate, cmd_trefoil)

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "README.md")


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




def readme_usage():
    """The argvs of the usage lines in README's "Command line" section."""
    with open(README) as f:
        text = f.read().split("## Command line", 1)[1]
    block = text.split("```sh", 1)[1].split("```", 1)[0]
    return [line.split("#")[0].split()[1:] for line in block.splitlines()
            if line.startswith("borderedfloer ")]


def instances(usage):
    """Concrete argvs of one usage line: each capital word a file name, I an
    integer, each [--flag] present or not, each {a,b} choice in turn."""
    out = [[]]
    for word in usage:
        if word == "[--grading]":
            out = [a + w for a in out for w in ([], ["--grading"])]
        elif word.startswith("[--flavor"):
            pass
        elif word.startswith("{"):
            out = [a + w for a in out for w in
                   [[]] + [["--flavor", c] for c in word.strip("{}]").split(",")]]
        elif word == "I":
            out = [a + [v] for a in out for v in ("-1", "0", "2")]
        elif word[0].isupper():  # numbered, so that swapped fields show
            out = [a + [f"{word.lower()}{len(a)}.json"] for a in out]
        else:
            out = [a + [word] for a in out]
    return out


def spellings(argv):
    """argv with its command's options and positionals in every order, and
    with each option spelt "--opt=value" and as a unique prefix, --json as
    --js, and a "--" before the positionals."""
    json = argv[:1] == ["--json"]
    words = next(list(w) for w in cli.COMMANDS
                 if tuple(argv[json:json + len(w)]) == w)
    rest, units = argv[json + len(words):], []
    while rest:  # an option with its value, a flag or a positional
        takes = rest[0].startswith("--") and rest[0] != "--grading"
        units.append(rest[:1 + takes])
        rest = rest[1 + takes:]
    out = [argv[:json] + words + [t for u in order for t in u]
           for order in itertools.islice(itertools.permutations(units), 24)]
    opts = [u for u in units if u[0].startswith("--")]
    pos = [t for u in units if not u[0].startswith("--") for t in u]
    for style in range(4):  # as is, "=", the shortest prefix, 5 letters
        spelt = []
        for u in opts:
            name = u[0][:(None, None, 3, 5)[style]]
            spelt += [f"{name}={u[1]}"] if style in (1, 2) and len(u) == 2 \
                else [name, *u[1:]]
        out.append(["--js"] * json + words + spelt
                   + ["--"] * (bool(pos) and style == 1) + pos)
    return out


MALFORMED = [
    ["nosuch"], ["pmc", "nosuch"], ["pmc", "validate"], ["mod", "box", "a"],
    ["pmc", "validate", "a", "b"], ["trefoil", "extra"], ["trefoil", "--json"],
    ["--bogus", "trefoil"], ["trefoil", "--bogus"], ["-x", "trefoil"],
    ["alg", "basis", "--pmc", "p"], ["alg", "basis", "--pmc", "--strands", "1"],
    ["alg", "basis", "--pmc", "p", "--strands"],
    ["alg", "basis", "--pmc", "p", "--strands", "x"],
    ["alg", "basis", "--pmc", "p", "--strands", "1.5"],
    ["alg", "basis", "--pmc", "p", "--strands", "1", "--grading=yes"],
    ["diagrams", "generators", "f", "--flavor", "E"],
    ["diagrams", "generators", "f", "--flavor=E"], ["--json=1", "trefoil"],
    ["knot", "seifert", "--presentation", "p"],
    ["knot", "from-plucker", "--omega", "o"], ["pmc", "validate", "-x"],
    ["trefoil", "--"], ["--", "trefoil"], ["alg", "basis", "--=x"],
    ["alg", "basis", "-hx"], ["pmc", "validate", "f", "--", "--"],
    ["alg", "--bogus"], ["hh", "--"],
]
HELP = [["-h"], ["--help"], ["--he"], ["--json", "-h"], ["pmc", "-h"],
        ["pmc", "validate", "-h"], ["alg", "basis", "--help"], ["-hh"],
        ["trefoil", "--bogus", "-h"], ["pmc", "validate", "a", "b", "--h"]]
NO_COMMAND = [[], ["--json"], ["pmc"], ["--js", "knot"], ["--json", "decat"]]
ODD = [["pmc", "validate", "-1"], ["pmc", "validate", "-.5"],
       ["pmc", "validate", "-"], ["pmc", "validate", ""],
       ["pmc", "validate", "-a b"], ["pmc", "validate", "--", "-x"],
       ["pmc", "validate", "f", "--"], ["mod", "box", "a", "--", "d"],
       ["alg", "basis", "--pmc=", "--strands=-0", "--gr"],
       ["alg", "basis", "--pmc", "-1", "--strands", " 7 "],
       ["alg", "basis", "--pmc", "p", "--pmc", "q", "--strands", "1_0"]]
CORPUS = list(map(list, dict.fromkeys(
    tuple(j + a) for usage in readme_usage() for argv in instances(usage)
    for a in spellings(argv) for j in ([], ["--json"])))) \
    + MALFORMED + HELP + NO_COMMAND + ODD


def oracle(parser, argv):
    """("ok", func, fields), ("exit", code) or ("none",) from argparse."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            ns = vars(parser.parse_args(argv))
        except SystemExit as exc:
            return ("exit", exc.code)
    func = ns.pop("func", None)
    ns.pop("command", None)
    ns.pop("subcommand", None)
    return ("ok", func, ns) if func else ("none",)


@pytest.fixture(scope="module")
def verdicts():
    parser = build_parser()
    return [(argv, oracle(parser, argv)) for argv in CORPUS]


def test_corpus_covers_every_outcome(verdicts):
    kinds = [v[0] if v[0] != "exit" else v for _, v in verdicts]
    assert kinds.count("ok") >= 200
    assert kinds.count(("exit", 2)) >= 20
    assert kinds.count(("exit", 0)) == len(HELP)
    assert kinds.count("none") == len(NO_COMMAND)
    # every command of the table, and every README usage line, is reached
    funcs = {v[1] for _, v in verdicts if v[0] == "ok"}
    assert funcs == {f for f, _, _ in cli.COMMANDS.values()}
    assert len(readme_usage()) == 19


def test_accepted_argv_parses_as_argparse_did(verdicts):
    for argv, verdict in verdicts:
        if verdict[0] == "ok":
            func, args = cli.parse(argv)
            assert (func, vars(args)) == verdict[1:], argv


def run_main(capsys, argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_rejected_argv_is_one_input_error_line(capsys, verdicts):
    for argv, verdict in verdicts:
        if verdict == ("exit", 2):
            code, out, err = run_main(capsys, argv)
            assert (code, out) == (2, ""), argv
            assert re.fullmatch(r"input error: [^\n]+\n", err), (argv, err)


def test_help_exits_0_and_no_command_exits_2(capsys, verdicts):
    for argv, verdict in verdicts:
        if verdict in (("exit", 0), ("none",)):
            code, out, err = run_main(capsys, argv)
            assert code == (0 if verdict[0] == "exit" else 2), argv
            assert out.startswith("usage: borderedfloer") and err == "", argv
            for words in cli.COMMANDS:
                assert "\n  " + " ".join(words) in out
