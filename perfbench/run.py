"""Benchmark for borderedfloer: cold child processes, one at a time.

    python3 perfbench/run.py --workload cli --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seconds 10
    python3 perfbench/run.py --smoke

Run it from the root of a checkout; the library is imported from ``src``.
The load is a closed loop with one client: each unit of work runs in a
fresh Python process, because the library's caches live per process and a
user pays the cold cost on every CLI call or script run, and only one child
runs at a time.

Workloads (why each exists is in BENCHMARK.json and README.md):

* ``cli``: each iteration runs the CLI_CALLS below, in a seeded order, as
  separate ``python -m borderedfloer.cli`` processes.
* ``algebra-g3``: one child per iteration builds the genus-3 split strands
  algebra and checks d^2 = 0, products and their grading (child.py).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced iterations with traced ones, whose children time the library's
public functions in-process, and prints the per-layer metrics, each with its
self time, and the tracing overhead.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  Full results, spans
included, are written to ``perfbench/out/``.
"""

import argparse
import json
import os
import platform
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

from tracing import layer_times  # noqa: E402

WORKLOADS = ("cli", "algebra-g3")
CHILD_TIMEOUT = 120.0  # seconds before a hung child is killed
# Iterations alternate over the CPUs this process may use: on a shared host
# each CPU's speed drifts on its own, and a run then samples all of them.
CPUS = sorted(os.sched_getaffinity(0))

_D = "src/borderedfloer/data/"
_IN = "perfbench/inputs/"
CLI_CALLS = (
    ("trefoil", ["--json", "trefoil"]),
    ("pmc_validate", ["pmc", "validate", _D + "pmc_trefoil.json"]),
    ("alg_check_gradings", ["--json", "alg", "check-gradings",
                            "--pmc", _D + "pmc_genus2_split.json"]),
    ("mod_validate_a", ["mod", "validate", _D + "module_solid_torus_a.json"]),
    ("mod_validate_da", ["mod", "validate", _D + "module_dehn_twist_da.json"]),
    ("mod_box", ["--json", "mod", "box", _D + "module_solid_torus_a.json",
                 _D + "module_solid_torus_d.json"]),
    ("hh_euler", ["hh", "euler", _D + "module_dehn_twist_da.json"]),
    ("decat_psi", ["decat", "psi", _D + "module_solid_torus_d.json"]),
    ("diagrams_generators", ["diagrams", "generators",
                             _D + "diagram_trefoil.json"]),
    ("knot_seifert", ["knot", "seifert",
                      "--presentation", _IN + "trefoil_presentation.json",
                      "--omega", _IN + "trefoil_omega.json"]),
)

# spans named after a library function, timed in traced children
LAYER_SPANS = (
    "import", "pmc.validate", "strands.basis",
    *(f"strands.basis.{t}" for t in
      ("i_m3", "i_m2", "i_m1", "i_0", "i_p1", "i_p2")),
    "strands.differential", "strands.multiply", "strands.multiply_warm",
    "strands.multiply_raw",
    "gradings.verify", "gradings.refinement", "gradings.m_grading",
    "heegaard.enumerate_generators", "structures.induct_dd",
    "structures.validate", "structures.box_tensor",
    "hochschild.generators", "hochschild.euler", "hochschild.homology",
    "decat.psi_K0", "decat.upsilon", "decat.graded_trace",
    "decat.combine_factors", "knots.kernel_basis_from_plucker",
    "knots.presentation_to_alexander", "knots.recover_seifert",
    *(f"cli.{name}" for name, _ in CLI_CALLS),
)
COUNTS = ("import.modules", "strands.basis_elements",
          "strands.differential_terms", "strands.products_attempted",
          "gradings.elements_checked")


def span_metric(key):
    """Metric name of a span key: ``strands.basis.i_m3`` -> ``strands.basis_s.i_m3``."""
    if key == "import":
        return "import.s"
    if key.startswith("strands.basis."):
        return "strands.basis_s." + key.rsplit(".", 1)[1]
    return key + "_s"


END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def per_layer_units():
    """{per-layer metric name: unit}, in the order BENCHMARK.json lists them."""
    units = {}
    for key in LAYER_SPANS:
        units[span_metric(key)] = units[span_metric(key) + ".self"] = "s"
    units.update((name, "count") for name in COUNTS)
    units.update({"strands.basis_elements_per_s": "1/s",
                  "strands.products_nonzero_ratio": "ratio",
                  "gradings.elements_per_s": "1/s",
                  "trace.wall_s": "s", "trace.untraced_wall_s": "s",
                  "trace.overhead_s": "s", "trace.spans": "count"})
    return units


# statistics ---------------------------------------------------------------
def median(values):
    s = sorted(values)
    n = len(s)
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with q% at or below it."""
    s = sorted(values)
    rank = -(-q * len(s) // 100)  # ceil(q * n / 100)
    return s[max(rank, 1) - 1]


def tail_percentile(values):
    """(q, value) for the highest percentile, in steps of 5 above the median,
    with at least ten samples beyond it; None when there are too few."""
    n = len(values)
    for q in range(95, 50, -5):
        if n - -(-q * n // 100) >= 10:
            return q, percentile(values, q)
    return None


def count_failed(units):
    return sum(1 for u in units if u["errors"])


# children -------------------------------------------------------------------
def spawn(argv):
    """Run one child to completion; its wall time, exit, output and peak RSS."""
    env = dict(os.environ, PYTHONPATH=SRC)
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return {"t0": t0, "wall": wall, "code": proc.returncode,
            "stdout": out.decode(errors="replace"), "stderr": stderr,
            "rss_mb": usage.ru_maxrss / 1024}


def child_unit(spec):
    """Run child.py with ``spec``; a unit record with its parsed result."""
    run = spawn([sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)])
    unit = {"wall": run["wall"], "rss_mb": run["rss_mb"], "errors": [],
            "result": None}
    if run["code"] != 0:
        tail = run["stderr"].strip().splitlines()[-1:] or [""]
        unit["errors"].append(f"child exit {run['code']}: {tail[0]}")
        return unit
    try:
        result = json.loads(run["stdout"].strip().splitlines()[-1])
    except (IndexError, ValueError):
        unit["errors"].append("child printed no result")
        return unit
    unit["result"] = result
    unit["errors"] += result["errors"]
    if "ready" in result:
        unit["setup"] = result["ready"] - run["t0"]
    return unit


def check_cli(name, code, stdout, expected):
    """Errors of one CLI call against the expected record."""
    want = expected["cli"][name]
    if code != want["exit"]:
        return [f"{name}: exit {code}, expected {want['exit']}"]
    if name == "trefoil":
        try:
            mismatches = json.loads(stdout)["mismatches"]
        except (ValueError, KeyError, TypeError):
            return ["trefoil: output is not the --json report"]
        return [] if mismatches == [] else [f"trefoil: mismatches {mismatches}"]
    return [] if stdout == want["stdout"] else [f"{name}: output differs"]


def cli_unit(name, argv, traced, expected):
    if traced:
        unit = child_unit({"mode": "cli", "name": name, "argv": argv,
                           "trace": True})
        res = unit["result"]
        if res is not None:
            unit["errors"] += check_cli(name, res["exit"], res["stdout"], expected)
        return unit
    run = spawn([sys.executable, "-m", "borderedfloer.cli", *argv])
    return {"wall": run["wall"], "rss_mb": run["rss_mb"], "result": None,
            "errors": check_cli(name, run["code"], run["stdout"], expected)}


def iteration(workload, seed, k, traced, size, expected):
    """Units of one iteration; each unit carries its iteration number."""
    if workload == "cli":
        calls = list(CLI_CALLS)
        random.Random(seed * 1_000_003 + k).shuffle(calls)
        units = [dict(cli_unit(name, argv, traced, expected), name=name)
                 for name, argv in calls]
    else:
        unit = child_unit({"mode": "iteration", "workload": workload,
                           "seed": seed, "size": size, "trace": traced})
        if unit["result"] is not None:
            unit["wall"] = unit["result"]["wall_s"]
        units = [unit]
    for u in units:
        u.update(iteration=k, traced=traced)
    return units


def setup_probe(workload, size):
    return child_unit({"mode": "setup", "trace": False, "size": size,
                       "workload": workload})


# runs -----------------------------------------------------------------------
def run_workload(workload, seed, seconds, traced, size, expected):
    """Setup probes and units of one run.  Iterations start while they are
    predicted to finish inside ``seconds``; the first always runs.  On
    ``cli`` an untraced iteration starts with a setup-only child; on the
    other workloads each iteration child reports its own setup, so setup_s
    has samples spread over the run on every workload."""
    warm = setup_probe(workload, size)  # fills __pycache__; not measured
    warm.pop("setup", None)
    probes, units = [warm], []
    start = time.monotonic()
    durations = []
    k = 0
    while k == 0 or time.monotonic() - start + median(durations) <= seconds:
        t = time.monotonic()
        os.sched_setaffinity(0, {CPUS[k % len(CPUS)]})  # children inherit it
        if not traced and workload == "cli":
            probes.append(setup_probe(workload, size))
        units += iteration(workload, seed, k, False, size, expected)
        if traced:
            units += iteration(workload, seed, k, True, size, expected)
        durations.append(time.monotonic() - t)
        k += 1
    return probes, units


def end_to_end(probes, units):
    setup = [u["setup"] for u in probes + units if "setup" in u]
    walls = [u["wall"] for u in units]
    values = {"setup_s": median(setup), "wall_s": median(walls),
              "peak_rss_mb": median([u["rss_mb"] for u in units])}
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def per_layer(units):
    plain = [u for u in units if not u["traced"]]
    traced = [u for u in units if u["traced"] and u["result"] is not None]
    by_iter = {}
    for u in traced:
        by_iter.setdefault(u["iteration"], []).append(u["result"])
    rows = []  # one dict of metric values per traced iteration
    for results in by_iter.values():
        row = dict.fromkeys(per_layer_units(), 0.0)
        counts = {}
        for res in results:
            for key, (incl, own) in layer_times(res["spans"]).items():
                if key in LAYER_SPANS:
                    row[span_metric(key)] += incl
                    row[span_metric(key) + ".self"] += own
            for key, value in res.get("counts", {}).items():
                counts[key] = counts.get(key, 0) + value
            row["trace.spans"] += len(res["spans"])
        row["import.s"] = median([r["import_s"] for r in results])
        row["import.s.self"] = row["import.s"]
        row["import.modules"] = median([r["import_modules"] for r in results])
        for key in COUNTS[1:]:
            row[key] = counts.get(key, 0)
        if row["strands.basis_s"]:
            row["strands.basis_elements_per_s"] = (
                row["strands.basis_elements"] / row["strands.basis_s"])
        if counts.get("strands.products_attempted"):
            row["strands.products_nonzero_ratio"] = (
                counts["strands.products_nonzero"]
                / counts["strands.products_attempted"])
        if row["gradings.verify_s"]:
            row["gradings.elements_per_s"] = (
                row["gradings.elements_checked"] / row["gradings.verify_s"])
        rows.append(row)
    metrics = {name: (median([r[name] for r in rows]) if rows else 0.0, unit)
               for name, unit in per_layer_units().items()}
    traced_wall = median([u["wall"] for u in traced]) if traced else 0.0
    plain_wall = median([u["wall"] for u in plain]) if plain else 0.0
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (plain_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    return metrics


# reporting --------------------------------------------------------------------
def read_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def cpu_probe_ms():
    """Median time of a fixed pure-Python loop: how fast this machine runs
    right now.  Other tenants of a shared host move it by tens of percent."""
    times = []
    for _ in range(5):
        t = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t)
    return round(median(times) * 1000, 3)


def environment():
    try:
        sympy = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy = None
    return {"commit": read_commit(), "python": platform.python_version(),
            "sympy": sympy, "nproc": os.cpu_count(),
            "cpus": CPUS, "loadavg_before": loadavg(),
            "cpu_probe_ms_before": cpu_probe_ms()}


def report(workload, seed, seconds, traced, size, expected):
    env = environment()
    probes, units = run_workload(workload, seed, seconds, traced, size, expected)
    env.update(loadavg_after=loadavg(), cpu_probe_ms_after=cpu_probe_ms())
    everything = probes + units
    failed = count_failed(everything)
    metrics = per_layer(units) if traced else end_to_end(probes, units)
    print(f"workload {workload}  seed {seed}  size {size}  trace {int(traced)}")
    print("env", json.dumps(env, sort_keys=True))
    for u in everything:
        for msg in u["errors"][:3]:
            print("FAIL", msg)
    print(f"error_rate {failed / len(everything):.4f}  "
          f"({failed} failed of {len(everything)} attempted; "
          f"{len(units)} units, {len(probes)} setup probes)")
    if not traced:
        walls = [u["wall"] for u in units]
        tail = tail_percentile(walls)
        print(f"wall_s tail over {len(walls)} units: " +
              (f"p{tail[0]} {tail[1]:.6f} s" if tail else
               "none, too few units for ten beyond a percentile above the median"))
    for name, (value, unit) in metrics.items():
        if name.endswith(".self"):
            continue
        line = f"  {name:44s} {value:14.6f} {unit}"
        if name + ".self" in metrics:
            line += f"   self {metrics[name + '.self'][0]:.6f} s"
        print(line)
    path = os.path.join(OUT, f"{workload}-{size}-seed{seed}-trace{int(traced)}.json")
    with open(path, "w") as fh:
        json.dump({"env": env, "metrics": metrics, "probes": probes,
                   "units": units}, fh)
    return failed, len(everything), metrics


def main(argv=None):
    # SIGTERM unwinds like Ctrl-C, so spawn() kills the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once, untraced and traced, "
                             "at genus 2")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "borderedfloer", "__init__.py")):
        print(f"no library at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)

    if args.smoke:
        # a traced run also makes an untraced iteration and a setup probe
        workloads, seconds, traced, size = WORKLOADS, 0, True, "smoke"
    else:
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        seconds, traced, size = args.seconds, bool(args.trace), "full"
    failed = attempted = 0
    metrics = {}
    for workload in workloads:
        f, a, m = report(workload, args.seed, seconds, traced, size, expected)
        failed, attempted = failed + f, attempted + a
        prefix = f"{workload}." if len(workloads) > 1 else ""
        metrics.update((prefix + name, value) for name, value in m.items())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if failed == 0 else 1

if __name__ == "__main__":
    sys.exit(main())
