"""Self-tests for the benchmark (stdlib only, no package build needed).

Run from the repository root:

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import ast
import json
import re
import unittest
from fractions import Fraction
from pathlib import Path

import run
import workloads
from tracing import Tracer, self_times, summarize

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# counters the runner turns into ratios instead of reporting them directly
INTERNAL_COUNTERS = {"interval_embed.lrs_pairs_excluded", "metric_systems.oracle_shrinking"}


def _span(sid, name, start, end, parent=None):
    return {"id": sid, "run": "t", "name": name, "call": "", "parent": parent, "start": start, "end": end}


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_tree(self):
        # step [0,10] holds a [1,4] (with a grandchild [2,3]) and b [3.5,6],
        # which overlaps a; a second step [11,12] has no children, so the
        # 1 s gap between the steps is unattributed as well
        spans = [
            _span(0, "step.one", 0.0, 10.0),
            _span(1, "interval_embed.build_s", 1.0, 4.0, parent=0),
            _span(2, "exact.dumps_s", 2.0, 3.0, parent=1),
            _span(3, "exact.parse_s", 3.5, 6.0, parent=0),
            _span(4, "step.two", 11.0, 12.0),
        ]
        own = self_times(spans)
        self.assertEqual(own, {0: 5.0, 1: 2.0, 2: 1.0, 3: 2.5, 4: 1.0})
        summary = summarize(spans)
        self.assertEqual(summary["by_layer"], {"interval_embed": 2.0, "exact": 3.5})
        self.assertEqual(summary["wall"], 12.0)
        self.assertEqual(summary["unattributed"], 6.5)
        self.assertAlmostEqual(sum(summary["by_layer"].values()) + summary["unattributed"], summary["wall"])

    def test_child_clipped_to_parent(self):
        spans = [_span(0, "step.x", 0.0, 2.0), _span(1, "exact.parse_s", 1.0, 5.0, parent=0)]
        self.assertEqual(self_times(spans)[0], 1.0)

    def test_tracer_records_parents_and_disabled_records_nothing(self):
        tr = Tracer("run-1")
        with tr.span("step.a"):
            self.assertEqual(tr.call("exact.parse_s", json.loads, "[1]"), [1])
        tr.count("interval_embed.cells", 3)
        self.assertEqual([(s["name"], s["parent"], s["run"]) for s in tr.spans],
                         [("step.a", None, "run-1"), ("exact.parse_s", 0, "run-1")])
        self.assertEqual(tr.spans[1]["call"], "loads")
        off = Tracer("run-2", enabled=False)
        with off.span("step.a"):
            self.assertEqual(off.call("exact.parse_s", json.loads, "2"), 2)
        off.count("interval_embed.cells")
        self.assertEqual((off.spans, dict(off.counts)), ([], {}))


class LayerAccountingTest(unittest.TestCase):
    def test_layers_plus_overhead_account_for_cli_wall(self):
        spans = [
            _span(0, "step.build", 0.0, 4.0),
            _span(1, "interval_embed.build_s", 0.5, 2.0, parent=0),
            _span(2, "exact.dumps_s", 2.0, 3.5, parent=0),
            _span(3, "step.verify", 4.5, 9.0),
            _span(4, "interval_embed.lrs_s", 5.0, 8.0, parent=3),
        ]
        trace = {"spans": spans, "counts": {"interval_embed.lrs_pairs_checked": 30,
                                            "interval_embed.lrs_pairs_excluded": 10}}
        m = run._layer_metrics(trace, {"wall": 10.0, "by_kind": {"build": 4.2, "verify": 5.8}})
        layers = sum(m[f"{layer}.self_s"] for layer in run.LAYERS)
        self.assertEqual(layers, 6.0)
        self.assertEqual(m["trace.unattributed_s"], 3.0)
        self.assertEqual(m["cli.overhead_s"], 1.0)
        self.assertEqual(layers + m["trace.unattributed_s"] + m["cli.overhead_s"], m["cli.wall_s"])
        self.assertEqual(m["interval_embed.lrs_checked_ratio"], 0.75)
        self.assertEqual(m["interval_embed.lrs_us_per_pair"], 1e5)


class DeclarationTest(unittest.TestCase):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_names_units_and_counts(self):
        e2e, layer = self.spec["end_to_end"], self.spec["per_layer"]
        self.assertLessEqual(len(e2e), 16)
        self.assertLessEqual(len(layer), 128)
        self.assertTrue(2 <= len(self.spec["workloads"]) <= 8)
        names = [m["name"] for m in e2e + layer] + [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in e2e + layer:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for w in self.spec["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)

    def test_bounds_and_setup(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_workloads_match_the_runner(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(workloads.WORKLOADS))

    def test_span_and_counter_names_are_declared(self):
        declared = {m["name"] for m in self.spec["per_layer"]}
        tree = ast.parse((HERE / "inprocess.py").read_text())
        literals = {
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and re.fullmatch(r"(cli|graphcover|interval_embed|exact|metric_systems)\.\w+", node.value)
        }
        self.assertTrue(literals)
        self.assertLessEqual(literals, declared | INTERNAL_COUNTERS)
        derived = set(run._layer_metrics({"spans": [], "counts": {}}, {"wall": 0.0, "by_kind": {}}))
        written = {"exact.scheme_bytes", "exact.report_bytes", "cli.startup_s", "cli.loads"}
        self.assertLessEqual(declared, literals | derived | written)


class ReferenceTest(unittest.TestCase):
    """The closed forms agree with scripts/derive_expected.py's printed values."""

    def test_tower_sizes(self):
        self.assertEqual(workloads.transitive_sizes(3), [4, 17, 59, 191])
        self.assertEqual(workloads.weakly_mixing_sizes(4), [4, 18, 74, 298, 1194])
        self.assertEqual([workloads.tower([2, 4, 8], n) for n in range(0, 6)], [1, 2, 4, 8, 16, 32])

    def test_odometer_ratio(self):
        self.assertEqual(workloads.odometer_ratio(1), Fraction(1, 2))
        self.assertEqual(workloads.odometer_ratio(8), Fraction(2, 2**16))

    def test_scalar(self):
        self.assertEqual(workloads.scalar({"mantissa": "5", "pow2": -3, "pow3": 1}), Fraction(15, 8))
        self.assertEqual(workloads.scalar({"num": "-7", "den": "9"}), Fraction(-7, 9))


if __name__ == "__main__":
    unittest.main()
