"""Self-tests of the benchmark's own logic.

    python3 perfbench/selftest.py          # logic only, under a second
    python3 perfbench/selftest.py --smoke  # also runs ``run.py --smoke``

Kept out of the library's test suite so that suite needs nothing from here.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracing import Tracer, layer_times  # noqa: E402

with open(os.path.join(HERE, "expected.json")) as _fh:
    EXPECTED = json.load(_fh)


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(run.percentile(values, 90), 90)
        self.assertEqual(run.percentile(values[::-1], 90), 90)
        self.assertEqual(run.percentile(list(range(1, 11)), 90), 9)
        self.assertEqual(run.percentile([5.0], 90), 5.0)
        # 61 samples: rank ceil(54.9) = 55, so 6 samples lie beyond it
        self.assertEqual(run.percentile(list(range(61)), 90), 54)

    def test_tail_has_ten_beyond(self):
        self.assertEqual(run.tail_percentile(list(range(1, 101))), (90, 90))
        # 45 samples: p80 is the 36th, 9 beyond; p75 is the 34th, 11 beyond
        self.assertEqual(run.tail_percentile(list(range(45))), (75, 33))
        self.assertIsNone(run.tail_percentile(list(range(9))))

    def test_median(self):
        self.assertEqual(run.median([3, 1, 2]), 2)
        self.assertEqual(run.median([4, 1, 2, 3]), 2.5)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # a [0, 10] holds b [1, 4] and c [5, 9]; c holds b [6, 8]
        spans = [["a", None, 0.0, 10.0, -1],
                 ["b", None, 1.0, 4.0, 0],
                 ["c", None, 5.0, 9.0, 0],
                 ["b", None, 6.0, 8.0, 2]]
        t = layer_times(spans)
        self.assertEqual(t["a"], (10.0, 3.0))
        self.assertEqual(t["b"], (5.0, 5.0))
        self.assertEqual(t["c"], (4.0, 2.0))

    def test_reentrant_span_counts_once(self):
        spans = [["a", None, 0.0, 10.0, -1], ["a", None, 2.0, 5.0, 0]]
        self.assertEqual(layer_times(spans)["a"], (10.0, 10.0))

    def test_tags(self):
        spans = [["basis", "i_0", 0.0, 2.0, -1], ["basis", "i_p1", 2.0, 5.0, -1]]
        t = layer_times(spans)
        self.assertEqual(t["basis"], (5.0, 5.0))
        self.assertEqual(t["basis.i_0"], (2.0, 2.0))
        self.assertEqual(t["basis.i_p1"], (3.0, 3.0))

    def test_wrapped_calls_nest(self):
        class Layer:
            @staticmethod
            def inner(x):
                return x + 1

            @staticmethod
            def outer(x):
                return Layer.inner(x) * 2

        tracer = Tracer()
        tracer.wrap(Layer, "inner", "inner")
        tracer.wrap(Layer, "outer", "outer")
        self.assertEqual(Layer.outer(1), 4)
        (outer, _, o0, o1, p0), (inner, _, i0, i1, p1) = tracer.spans
        self.assertEqual((outer, inner, p0, p1), ("outer", "inner", -1, 0))
        self.assertTrue(o0 <= i0 <= i1 <= o1)
        incl, own = layer_times(tracer.spans)["outer"]
        self.assertAlmostEqual(own, incl - (i1 - i0))


class ErrorRate(unittest.TestCase):
    def test_cli_checks(self):
        good = EXPECTED["cli"]["hh_euler"]["stdout"]
        self.assertEqual(run.check_cli("hh_euler", 0, good, EXPECTED), [])
        self.assertTrue(run.check_cli("hh_euler", 1, good, EXPECTED))
        self.assertTrue(run.check_cli("hh_euler", 0, good + "x", EXPECTED))
        self.assertEqual(run.check_cli(
            "trefoil", 0, json.dumps({"mismatches": []}), EXPECTED), [])
        self.assertTrue(run.check_cli(
            "trefoil", 0, json.dumps({"mismatches": ["seifert"]}), EXPECTED))
        self.assertTrue(run.check_cli("trefoil", 0, "Traceback", EXPECTED))

    def test_count_failed(self):
        units = [{"errors": []}, {"errors": ["child exit 1: boom"]},
                 {"errors": []}, {"errors": ["a", "b"]}]
        self.assertEqual(run.count_failed(units), 2)

    def test_child_failures_are_errors(self):
        unit = run.child_unit({"mode": "iteration", "trace": False,
                               "workload": "no-such-workload", "size": "smoke",
                               "seed": 1})
        self.assertIsNone(unit["result"])
        self.assertEqual(len(unit["errors"]), 1)


class Metrics(unittest.TestCase):
    def test_names_match_benchmark_json(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.per_layer_units().items()))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))

    def test_end_to_end_from_units(self):
        probes = [{"setup": s, "errors": []} for s in (0.5, 0.3, 0.4)]
        units = [{"wall": w, "rss_mb": 50.0, "errors": []}
                 for w in (1.0, 2.0, 3.0, 4.0)]
        m = run.end_to_end(probes, units)
        self.assertEqual(m["setup_s"], (0.4, "s"))
        self.assertEqual(m["wall_s"], (2.5, "s"))
        self.assertEqual(m["peak_rss_mb"], (50.0, "MB"))


@unittest.skipUnless("--smoke" in sys.argv, "pass --smoke to run the smoke mode")
class Smoke(unittest.TestCase):
    def test_smoke_mode(self):
        p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                           capture_output=True, text=True, timeout=300)
        self.assertEqual(p.returncode, 0, p.stdout[-2000:] + p.stderr[-2000:])
        result = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)


if __name__ == "__main__":
    unittest.main(argv=[a for a in sys.argv if a != "--smoke"])
