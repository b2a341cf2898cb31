import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
DATA = os.path.join(SRC, "borderedfloer", "data")

# the public names of the package namespace, as it stood when every
# submodule was imported eagerly; each must still resolve on first use
PACKAGE_NAMES = (
    "BorderedDiagram", "BorderedPartialPermutation", "DiagramGenerator",
    "ExteriorElement", "F2ChainComplex", "GradedEndomorphism",
    "GradingGroupElement", "LaurentPolynomial", "ModuleGenerator",
    "PointedMatchedCircle", "Presentation", "StrandsBasisElement",
    "StrandsElement", "Structure", "TypeAStructure", "TypeDAStructure",
    "TypeDDStructure", "TypeDStructure", "basis", "box_tensor",
    "box_tensor_bimodules", "connected_sum", "decat", "differential",
    "direct_sum", "enumerate_generators", "errors", "genus1", "genus2_split",
    "graded_euler", "graded_trace", "gradings", "heegaard", "hochschild",
    "hochschild_generators", "hodge_eta", "idempotent", "identity_aa",
    "intersection_from_algebra", "intersection_from_pmc", "k0_of_da",
    "kernel_basis_from_plucker", "knots", "laurent", "multiply", "plucker",
    "pmc", "presentation_to_alexander", "psi_K0", "recover_seifert",
    "reeb_element", "refinement", "reverse", "shift", "strands",
    "structures", "sum_permutations", "tqft_compose", "trefoil_pmc",
    "upsilon", "validate", "verify_grading_equivalence")


def run_python(code, *args):
    # -S leaves site-packages off sys.path, so a third-party import fails,
    # and no .pth file preloads a module
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-S", "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_needs_only_the_standard_library():
    code = ("import sys, borderedfloer, borderedfloer.cli\n"
            "for name in borderedfloer._SUBMODULES:\n"
            "    getattr(borderedfloer, name)\n"
            "print(len(borderedfloer._SUBMODULES))\n"
            "print('\\n'.join({n.partition('.')[0] for n in sys.modules}))")
    count, *modules = run_python(code).split()
    assert int(count) == 10
    foreign = set(modules) - set(sys.stdlib_module_names) \
        - {"borderedfloer", "__main__"}
    assert not foreign


def test_package_names_resolve_on_first_use():
    code = ("import json, sys, borderedfloer\n"
            "before = sorted(m for m in sys.modules if m.startswith('borderedfloer'))\n"
            "for name in sys.argv[1:]:\n"
            "    value = getattr(borderedfloer, name)\n"
            "    home = getattr(value, '__module__', value.__name__)\n"
            "    assert home.startswith('borderedfloer.'), (name, home)\n"
            "    if home != 'borderedfloer.' + name:\n"
            "        assert getattr(sys.modules[home], name) is value, name\n"
            "star = {}\n"
            "exec('from borderedfloer import *', star)\n"
            "star.pop('__builtins__')\n"
            "print(json.dumps([before, sorted(star)]))")
    before, star = json.loads(run_python(code, *PACKAGE_NAMES))
    assert before == ["borderedfloer"]
    assert star == sorted(PACKAGE_NAMES)


KNOT_FILES = {"presentation.json": {"A": [[-1, -1], [-1, 0]],
                                    "B": [[1, 0], [0, -1]]},
              "omega.json": {"matrix": [[0, 1], [-1, 0]]}}


@pytest.mark.parametrize("argv, loaded, absent", [
    (["pmc", "validate", "{data}/pmc_trefoil.json"],
     {"borderedfloer", "borderedfloer.cli", "borderedfloer.errors",
      "borderedfloer.pmc"}, {"importlib.resources"}),
    (["knot", "seifert", "--presentation", "{tmp}/presentation.json",
      "--omega", "{tmp}/omega.json"], None,
     {"borderedfloer.structures", "borderedfloer.heegaard",
      "borderedfloer.gradings", "borderedfloer.hochschild",
      "importlib.resources"}),
    (["--json", "alg", "check-gradings", "--pmc",
      "{data}/pmc_genus2_split.json"], None,
     {"borderedfloer.structures", "borderedfloer.heegaard",
      "importlib.resources"}),
    (["--json", "trefoil"], None, set()),
], ids=["pmc-validate", "knot-seifert", "alg-check-gradings", "trefoil"])
def test_cli_call_loads_only_what_it_uses(tmp_path, argv, loaded, absent):
    for name, obj in KNOT_FILES.items():
        (tmp_path / name).write_text(json.dumps(obj))
    argv = [a.format(data=DATA, tmp=tmp_path) for a in argv]
    code = ("import contextlib, io, json, sys\n"
            "from borderedfloer import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    exit_code = cli.main(sys.argv[1:])\n"
            "print(json.dumps([exit_code, sorted(sys.modules)]))")
    exit_code, modules = json.loads(run_python(code, *argv))
    assert exit_code == 0
    ours = {m for m in modules if m.partition(".")[0] == "borderedfloer"}
    if loaded is not None:
        assert ours == loaded
    assert not absent & set(modules)
    # only the trefoil command reads bundled data
    assert ("importlib.resources" in modules) == (argv[-1] == "trefoil")


def test_benchmark_tracing_targets_resolve():
    # perfbench/child.py wraps library functions by name in traced runs, so a
    # renamed function would only show there; the stub resolves each target
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import child\n"
            "class Stub:\n"
            "    def __init__(self):\n"
            "        self.names = []\n"
            "    def wrap(self, owner, attr, name, tag_of=None):\n"
            "        assert callable(getattr(owner, attr)), (owner, attr)\n"
            "        self.names.append(name)\n"
            "stub = Stub()\n"
            "child.install_tracing(stub)\n"
            "print(' '.join(stub.names))\n")
    perfbench = os.path.join(os.path.dirname(SRC), "perfbench")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code, perfbench], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    names = proc.stdout.split()
    assert names.count("structures.validate") == 5
    assert "structures.box_tensor" in names
