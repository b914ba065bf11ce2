#!/usr/bin/env python3
"""Tests of the traced driver and of the per-layer attribution.

Run from the root of a checkout (builds like run.py on first use):

    python3 perfbench/test_trace.py

On a small D4 input, for every algorithm, it checks that
  * `tcomp discover --out-csv` and the traced driver's export are
    byte-identical, so the traced pass runs the same program;
  * every span ends after it starts, lies inside its parent, and has
    non-negative self time (its duration minus the part its children
    cover), and snapshot spans are numbered 1..N in order;
  * within each traced pass the layer spans reconcile to the process's
    wall time: the root span covers all but the process's start-up and
    exit, the root's self time (what no layer span covers) is small, and
    traced_unattributed_s, the wall time the layers leave, is small and
    never negative.
"""

import os
import shutil
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

PASSES = 2
# Process start-up, writing the spans and exit: wall time outside the root.
OUTSIDE_ROOT_S = 0.05
# Set-up inside the root that no layer span covers (flag parsing, making
# the discoverer), as a share of the root plus a fixed allowance.
ROOT_SELF_SHARE, ROOT_SELF_S = 0.02, 0.005


def self_time(span, children):
    """Duration of span minus the union of its children's intervals."""
    covered, cursor = 0.0, span["start"]
    for c in sorted(children, key=lambda c: c["start"]):
        lo, hi = max(c["start"], cursor), min(c["end"], span["end"])
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span["end"] - span["start"] - covered


class TraceTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        if not bench.build():
            raise RuntimeError("build failed")
        work = os.path.join(bench.BUILD_DIR, "test-%d" % os.getpid())
        os.makedirs(work)
        cls.run_ = bench.Run("d4_serve_sharded", 7, work)
        # 12 snapshots: enough for companions to pass --min-duration 10,
        # so the export comparison is not vacuous.
        cls.run_.cfg = dict(cls.run_.cfg, snapshots=12)
        if not bench.make_inputs(cls.run_):
            raise RuntimeError("input generation failed")
        for _ in range(PASSES):
            for algo in bench.ALGOS:
                bench.unit_trace(cls.run_, algo, timed=True)
                bench.unit_discover(cls.run_, algo, timed=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.run_.work, ignore_errors=True)

    def test_exports_identical(self):
        self.assertEqual(self.run_.failed, 0, self.run_.errors)
        for algo in bench.ALGOS:
            self.assertEqual(len(self.run_.discover_s[algo]), PASSES)
            with open(self.run_.path("reference_%s.csv" % algo)) as f:
                self.assertGreater(len(f.read().splitlines()), 1,
                                   "no companions to compare")

    def test_spans_nest_with_nonnegative_self_time(self):
        for algo in bench.ALGOS:
            for spans, stats, _ in self.run_.traces[algo]:
                by_id = {s["id"]: s for s in spans}
                roots = [s for s in spans if s["parent"] == -1]
                self.assertEqual(len(roots), 1)
                for s in spans:
                    self.assertGreaterEqual(s["end"], s["start"])
                    if s["parent"] != -1:
                        p = by_id[s["parent"]]
                        self.assertGreaterEqual(s["start"], p["start"])
                        self.assertLessEqual(s["end"], p["end"])
                    kids = [c for c in spans if c["parent"] == s["id"]]
                    self.assertGreaterEqual(self_time(s, kids), -1e-9, s)
                for name in ("core.snapshot", "stream.window"):
                    ids = [s["snapshot"] for s in spans if s["name"] == name]
                    self.assertEqual(ids,
                                     list(range(1, stats["snapshots"] + 1)))

    def test_layers_reconcile_to_traced_wall_time(self):
        for algo in bench.ALGOS:
            for spans, _, wall in self.run_.traces[algo]:
                root = [s for s in spans if s["parent"] == -1][0]
                root_s = root["end"] - root["start"]
                layers_s = sum(s["end"] - s["start"] for s in spans
                               if s["name"] in bench.LAYER_SPANS)
                self.assertLessEqual(root_s, wall)
                self.assertLess(wall - root_s, OUTSIDE_ROOT_S, algo)
                root_self = root_s - layers_s
                self.assertGreaterEqual(root_self, -1e-9, algo)
                self.assertLess(root_self,
                                ROOT_SELF_S + ROOT_SELF_SHARE * root_s, algo)
        m = {k: v["value"] for k, v in
             bench.discover_layers(self.run_).items()}
        for algo in bench.ALGOS:
            rest = m["traced_unattributed_s." + algo]
            wall = bench.median(self.run_.traced_s[algo])
            self.assertGreaterEqual(rest, 0.0, algo)
            self.assertLess(rest, OUTSIDE_ROOT_S + ROOT_SELF_S +
                            ROOT_SELF_SHARE * wall, algo)


if __name__ == "__main__":
    unittest.main()
