"""Hand mutants of the library, and whether the test suite kills them.

Each mutant is one exact string edit to one module of src/borderedfloer.
The script copies the checkout (without .git) to a temporary directory once
and checks that the whole suite passes there (the tests read the package
data under src/ and their helpers under tests/).  For each mutant it
applies the edit in the copy, runs the test files that import the touched
module (found with ``ast``; the whole suite when none does), and restores
the module.  A mutant is killed when those tests fail, survives when they
pass, and no longer applies when its text is not in the module exactly
once; then the code has changed and the list needs updating.  A mutant
marked equivalent gives the same results as the code on every input the
library can build, so its survival is expected.

Exit status 1 when a mutant that is not marked equivalent survives, or one
no longer applies; 2 when the unmutated suite fails in the copy; 0
otherwise.  Not a tier-1 step: each mutant costs a run of the test files
that import its module.

Run from the repo root: python scripts/mutants.py
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (module, what the edit does, original text, mutated text, None or the
# reason the mutant is equivalent)
MUTANTS = [
    ("decat", "det: drop the row-swap sign",
     "sign = -sign", "sign = sign", None),
    ("decat", "combine_factors: drop the (-1)^|u| sign",
     "sign = -1 if len(u) % 2 else 1", "sign = 1", None),
    ("gradings", "sgn: drop the shape term",
     "shape = self.t * (self.g - self.k_l - self.k_r) if both else 0",
     "shape = 0", None),
    ("structures", "theta: reverse the order test",
     "for j in s if j < jp", "for j in s if j > jp", None),
    ("heegaard", "glued_grading: add 1",
     "return (glued.sgn() + extra) % 2",
     "return (glued.sgn() + extra + 1) % 2", None),
    ("structures", "_f2_rank: reduce by any shared bit",
     "row = min(row, row ^ b)",
     "if row & b:\n                row ^= b", None),
    ("structures", "box_tensor: walk delta^1 chains of length 1 only",
     "depth = max(left.max_arity - 1, 1)", "depth = 1", None),
    ("decat", "upsilon: read the sign off |b|, not |a|",
     "sign = -1 if len(a) % 2 else 1", "sign = -1 if len(b) % 2 else 1",
     "every term has |a| + |b| = n, and upsilon raises DimensionOdd for an "
     "odd n, so |a| and |b| have one parity"),
    ("strands", "_differential: drop the freeness test of a crossing",
     "if top < t2 < t1:", "if s1 < t2 < t1:", None),
    ("strands", "_differential: resolve at one point of a horizontal class",
     "for h in (m, partner[m]):", "for h in (m,):", None),
    ("strands", "_product: keep a double crossing",
     "# crosses in a and in b\n                return None",
     "# crosses in a and in b\n                pass", None),
    ("strands", "_product: skip the re-sort after a horizontal strand moves",
     "                moved = True", "                moved = False", None),
    ("knots", "_hnf: drop the pivot-sign normalization",
     "if rows[pivot_row][col] < 0:", "if False:", None),
    ("knots", "recover_seifert: drop the negation of V",
     "v = tuple(tuple(-x for x in row) for row in v)",
     "v = tuple(tuple(x for x in row) for row in v)", None),
    ("knots", "kernel_basis_from_plucker: drop the contraction sign",
     "(-1) ** sum(x > i for x in rest)", "1", None),
    ("knots", "kernel_basis_from_plucker: contract at the largest coordinate",
     "pivot = min(q)", "pivot = max(q)",
     "any nonzero coordinate of a decomposable q gives rows that span W "
     "over Q, and saturation and Hermite form make them canonical"),
    ("knots", "_hnf: take the first nonzero entry as pivot, not the least",
     "if best is None or abs(rows[i][col]) < abs(rows[best][col]):",
     "if best is None:",
     "the gcd steps swap in every nonzero remainder, so the pivot ends as "
     "the gcd either way, and the Hermite form of a lattice is unique"),
    ("knots", "_det_poly: flip the sign in the falling factorial",
     "LaurentPolynomial({1: 1, 0: -k})", "LaurentPolynomial({1: 1, 0: k})",
     None),
    ("heegaard", "BorderedDiagram: accept beta 0",
     "if not 1 <= p.beta <= genus:", "if not 0 <= p.beta <= genus:", None),
    ("heegaard", "BorderedDiagram: accept alpha index 0",
     "if not 1 <= p.alpha <= len(", "if not 0 <= p.alpha <= len(", None),
    ("structures", "Structure: drop the check that DD and AA carry no ops",
     "if self.ops and not self.carries_ops:", "if False:", None),
    ("structures", "Structure: drop the check of an op output's side",
     'if (b is None) == (self.left == "D"):', "if False:", None),
    ("structures", "validate: drop the check that inputs compose",
     'errors.append(f"op({x},...): inputs not composable")', "pass", None),
    ("structures", "validate: drop the check of an output's source",
     'errors.append(f"op({x},...): left idempotent mismatch")', "pass", None),
    ("gradings", "refinement: read the linking off omega, not 2 omega",
     "linking = tuple((a, b, 2 * w)", "linking = tuple((a, b, w)", None),
    ("strands", "source_classes: read the strands' ends",
     "frozenset(cls[s] for s, _ in self.pairs)",
     "frozenset(cls[s] for _, s in self.pairs)", None),
    ("strands", "target_classes: read the strands' starts",
     "frozenset(cls[t] for _, t in self.pairs)",
     "frozenset(cls[t] for t, _ in self.pairs)", None),
    ("strands", "StrandsElement.__add__: drop the check of the circles",
     "        if self.pmc != other.pmc:\n"
     '            raise AlgebraMismatch("elements of different algebras")\n',
     "", None),
    ("strands", "multiply_basis_raw: drop the check of the circles",
     "    if x.pmc != y.pmc:\n"
     '        raise AlgebraMismatch("different ambient circles")\n', "", None),
    ("strands", "multiply: drop the check of the circles",
     '"""Bilinear product of StrandsElements."""\n'
     "    if x.pmc is not y.pmc and x.pmc != y.pmc:\n"
     '        raise AlgebraMismatch("different ambient circles")\n',
     '"""Bilinear product of StrandsElements."""\n', None),
    ("structures", "box_tensor: drop the check of the boundary circles",
     "    if left.pmc_right != right.pmc_left:\n"
     '        raise AlgebraMismatch("boundary circles differ")\n', "", None),
    ("structures", "_read: accept an op listed twice",
     "    unique(keys, at)\n", "", None),
    ("structures", "_read: accept a target listed twice in one op",
     '            unique(raw["targets"], f"{where}.targets")\n', "", None),
    ("structures", "F2ChainComplex.to_json: keep the key \"ops\"",
     '"differential": obj["ops"]', '"ops": obj["ops"]', None),
    ("cli", "hh euler: drop the check that the module is DA",
     '    if st.flavor != "DA":\n'
     '        raise SchemaViolation("hh euler expects a DA module")\n', "",
     None),
    ("cli", "trefoil: drop the mismatch line",
     'print("MISMATCH vs golden:", ", ".join(mismatches))', "pass", None),
    ("decat", "ExteriorElement.__add__: drop the check of the spaces",
     "        if self.dims != other.dims:\n"
     '            raise BasisMismatch("elements over different spaces")\n'
     "        out = dict(self.terms)", "        out = dict(self.terms)", None),
    ("decat", "wedge: drop the check of the factors",
     "        if self.factors != 1 or other.factors != 1:\n"
     '            raise BasisMismatch("wedge is defined on single-factor '
     'elements")\n', "", None),
    ("decat", "wedge: drop the check of the spaces",
     "        if self.dims != other.dims:\n"
     '            raise BasisMismatch("elements over different spaces")\n'
     "        out = {}", "        out = {}", None),
    ("decat", "hodge_eta: drop the check of the factors",
     "    if v.factors != 1:\n"
     '        raise BasisMismatch("eta acts on single-factor elements")\n', "",
     None),
    ("decat", "upsilon: drop the check of the factors",
     "    if p.factors != 2:\n"
     '        raise BasisMismatch("upsilon expects a two-factor element")\n', "",
     None),
    ("laurent", "__hash__: hash a constant as its coefficient map",
     "if self.coeffs.keys() <= {0}:", "if False:", None),
]


def importers(tests, module):
    """The test files that import borderedfloer.<module> directly."""
    target = f"borderedfloer.{module}"
    out = []
    for name in sorted(os.listdir(tests)):
        if not (name.startswith("test_") and name.endswith(".py")):
            continue
        with open(os.path.join(tests, name)) as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                hit = any(a.name == target for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                hit = node.module == target or node.module == "borderedfloer" \
                    and any(a.name == module for a in node.names)
            else:
                continue
            if hit:
                out.append(name)
                break
    return out


def passes(work, files):
    """Whether the test files (the whole suite for none) pass in work; a run
    over 900 s counts as a failure."""
    try:
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *(os.path.join("tests", name) for name in files)],
            cwd=work, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"), timeout=900)
    except subprocess.TimeoutExpired:
        return False
    return result.returncode == 0


def run(work, module, original, mutated):
    """'killed', 'survived' or 'no longer applies', and the files run."""
    path = os.path.join(work, "src", "borderedfloer", module + ".py")
    with open(path) as f:
        source = f.read()
    if source.count(original) != 1:
        return "no longer applies", []
    files = importers(os.path.join(work, "tests"), module)
    with open(path, "w") as f:
        f.write(source.replace(original, mutated))
    try:
        return "survived" if passes(work, files) else "killed", files
    finally:
        with open(path, "w") as f:
            f.write(source)


def main():
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        work = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, work,
                        ignore=shutil.ignore_patterns(".git", "__pycache__"))
        if not passes(work, []):
            print("the unmutated suite fails in the copy", file=sys.stderr)
            return 2
        for module, what, original, mutated, equivalent in MUTANTS:
            start = time.monotonic()
            status, files = run(work, module, original, mutated)
            note = ""
            if status == "survived" and equivalent:
                note = f"  (equivalent: {equivalent})"
            elif status != "killed":
                failed = True
            print(f"{status:17} {module}.{what}  [{len(files) or 'all'} "
                  f"test files, {time.monotonic() - start:.1f} s]{note}",
                  flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
