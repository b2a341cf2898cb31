"""One benchmark child process: a setup probe, one iteration, or one CLI call.

run.py starts it as ``python3 perfbench/child.py '<spec JSON>'`` with
PYTHONPATH set to the checkout's ``src``, so every child pays the cold cost
a user pays on each script run: interpreter start, ``import borderedfloer``
and empty ``lru_cache``s.  It prints one JSON object on stdout.

Timestamps that cross the process boundary use ``time.monotonic()``, one
clock for every process on the machine, so the parent can take setup time
from the moment before it spawned the child.
"""

import contextlib
import io
import json
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
DATA = os.path.join(SRC, "borderedfloer", "data")
EXPECTED = os.path.join(HERE, "expected.json")

# Work per iteration.  "full" is what the benchmark measures; "smoke" runs
# the same code paths at genus 2 in well under a second.  An iteration is
# kept to a second or two: the host's speed drifts over tens of seconds, so
# a run needs many short iterations spread over it for a steady median.
SIZES = {
    "full": {"algebra": "genus3_split", "products": 20000, "raw": 500},
    "smoke": {"algebra": "genus2_split", "products": 500, "raw": 50},
}


@contextlib.contextmanager
def span(tracer, name):
    if tracer is None:
        yield
        return
    rec = tracer.begin(name)
    try:
        yield
    finally:
        tracer.end(rec)


def grading_tag(i):
    return f"i_m{-i}" if i < 0 else f"i_p{i}" if i > 0 else "i_0"


def install_tracing(tracer):
    """Time the public functions each per-layer metric is named after."""
    from borderedfloer import (decat, gradings, heegaard, hochschild, knots,
                               pmc, strands, structures)
    tracer.wrap(strands, "basis", "strands.basis",
                tag_of=lambda args: grading_tag(args[1]))
    targets = [
        (pmc, "validate", "pmc.validate"),
        (gradings, "verify_grading_equivalence", "gradings.verify"),
        (gradings, "refinement", "gradings.refinement"),
        (gradings, "m_grading", "gradings.m_grading"),
        (heegaard, "enumerate_generators", "heegaard.enumerate_generators"),
        (structures, "induct_dd", "structures.induct_dd"),
        (structures, "box_tensor", "structures.box_tensor"),
        (hochschild, "hochschild_generators", "hochschild.generators"),
        (hochschild, "graded_euler", "hochschild.euler"),
        (hochschild.F2ChainComplex, "homology_dimensions",
         "hochschild.homology"),
        (decat, "psi_K0", "decat.psi_K0"),
        (decat, "upsilon", "decat.upsilon"),
        (decat, "graded_trace", "decat.graded_trace"),
        (decat, "combine_factors", "decat.combine_factors"),
        (knots, "kernel_basis_from_plucker", "knots.kernel_basis_from_plucker"),
        (knots, "presentation_to_alexander", "knots.presentation_to_alexander"),
        (knots, "recover_seifert", "knots.recover_seifert"),
    ]
    targets += [(cls, "validate", "structures.validate")
                for cls in (structures.TypeDStructure, structures.TypeAStructure,
                            structures.TypeDAStructure, structures.TypeDDStructure,
                            structures.TypeAAStructure)]
    for owner, attr, name in targets:
        tracer.wrap(owner, attr, name)


# inputs ---------------------------------------------------------------------
def circle(name):
    from borderedfloer import pmc

    def load(file):
        return pmc.PointedMatchedCircle.from_file(os.path.join(DATA, file))

    if name == "genus2_split":
        return load("pmc_genus2_split.json")
    if name == "genus3_split":
        return pmc.connected_sum(load("pmc_genus2_split.json"),
                                 load("pmc_genus1.json"))
    raise ValueError(f"unknown circle {name}")


def setup(workload, size):
    """Build and validate the circle an iteration needs; load the record."""
    from borderedfloer import pmc
    if workload not in ITERATIONS:
        raise ValueError(f"unknown workload {workload}")
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    cfg = SIZES[size]
    z = circle(cfg["algebra"])
    pmc.validate(z)
    return {"cfg": cfg, "expected": expected, "circles": {cfg["algebra"]: z}}


# iteration bodies -------------------------------------------------------------
def check_dims(expected, name, i, got, errors):
    want = expected["strands_dims"][name][str(i)]
    if got != want:
        errors.append(f"{name} basis at i={i}: {got} elements, expected {want}")


def algebra_iteration(ctx, rng, tracer, errors):
    from borderedfloer import strands
    cfg, expected = ctx["cfg"], ctx["expected"]
    name = cfg["algebra"]
    z = ctx["circles"][name]
    elements = 0
    # i > 0 is left out: at genus 3 it is 11 s of brute-force enumeration,
    # too long for one iteration (see SIZES)
    for i in range(-z.k, 1):
        n = len(strands.basis(z, i))
        check_dims(expected, name, i, n, errors)
        elements += n
    b0 = strands.basis(z, 0)

    terms = 0
    with span(tracer, "strands.differential"):
        for x in b0:
            dx = strands.differential_basis(x)
            terms += len(dx.terms)
            if strands.differential(dx):
                errors.append(f"d^2 != 0 at {x.pairs}")
    want = expected["differential_terms_i0"][name]
    if terms != want:
        errors.append(f"d at i=0 has {terms} terms, expected {want}")

    # class-composable pairs: x's target classes are y's source classes
    by_source = {}
    for y in b0:
        by_source.setdefault(frozenset(z.cls(s) for s, _ in y.pairs), []).append(y)
    pairs = []
    for _ in range(cfg["products"]):
        x = rng.choice(b0)
        pairs.append((x, rng.choice(by_source[frozenset(z.cls(t) for _, t in x.pairs)])))

    def products():
        out = []
        for x, y in pairs:
            p = strands.multiply_basis(x, y)
            if p is not None and p.gr != (x.gr + y.gr) % 2:
                errors.append(f"gr not additive on {x.pairs} * {y.pairs}")
            out.append(p)
        return out

    with span(tracer, "strands.multiply"):
        cold = products()
    with span(tracer, "strands.multiply_warm"):
        warm = products()
    if warm != cold:
        errors.append("warm products differ from cold products")
    with span(tracer, "strands.multiply_raw"):
        for (x, y), p in zip(pairs[:cfg["raw"]], cold):
            if strands.multiply_basis_raw(x, y) != (set() if p is None else {p.pairs}):
                errors.append(f"multiply_basis_raw disagrees on {x.pairs} * {y.pairs}")
    return {"strands.basis_elements": elements,
            "strands.differential_terms": terms,
            "strands.products_attempted": len(pairs),
            "strands.products_nonzero": sum(p is not None for p in cold)}


ITERATIONS = {"algebra-g3": algebra_iteration}


# modes ----------------------------------------------------------------------
def run_cli(spec, tracer, result):
    from borderedfloer import cli
    out, err = io.StringIO(), io.StringIO()
    rec = tracer.begin(f"cli.{spec['name']}") if tracer else None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(spec["argv"])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        if rec:
            tracer.end(rec)
    result.update(exit=code, stdout=out.getvalue(), stderr=err.getvalue())
    if tracer and spec["name"] == "alg_check_gradings" and code == 0:
        report = json.loads(result["stdout"])
        result["counts"] = {"gradings.elements_checked":
                            sum(report["per_grading"].values())}


def main():
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer()
    before = len(sys.modules)
    t = time.perf_counter()
    import borderedfloer
    t_end = time.perf_counter()
    result = {"import_s": t_end - t, "import_modules": len(sys.modules) - before,
              "errors": []}
    if not os.path.abspath(borderedfloer.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported {borderedfloer.__file__}, not the checkout's")
    if tracer:
        tracer.spans.append(["import", None, t, t_end, -1])
        install_tracing(tracer)

    if spec["mode"] == "cli":
        run_cli(spec, tracer, result)
    elif spec["workload"] == "cli":  # the cli workload's setup is the import
        result["ready"] = time.monotonic()
    else:
        ctx = setup(spec["workload"], spec["size"])
        result["ready"] = time.monotonic()
        if spec["mode"] == "iteration":
            rng = random.Random(spec["seed"])
            t = time.perf_counter()
            result["counts"] = ITERATIONS[spec["workload"]](
                ctx, rng, tracer, result["errors"])
            result["wall_s"] = time.perf_counter() - t
    if tracer:
        result["spans"] = tracer.spans
    print(json.dumps(result))


if __name__ == "__main__":
    main()
