#!/usr/bin/env python3
"""Guards that each benchmark workload keeps exercising the layer it is for.

    python3 perfbench/test_workloads.py

Runs a traced run of every workload on the default seed and on one
held-out seed (about two minutes on 4 cores, plus the first build) and
checks the workload's character from its per-layer metrics. A change
that makes a workload stop stressing its layer fails here instead of
quietly weakening the benchmark.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
SEEDS = (42, 7)  # the default seed and one held out from tuning


def traced_metrics(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise AssertionError(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
    return {name: m["value"] for name, m in result["metrics"].items()}


class WorkloadCharacter(unittest.TestCase):
    def test_yelp_agg_is_aggregation_bound(self):
        for seed in SEEDS:
            with self.subTest(seed=seed):
                m = traced_metrics("yelp-agg", seed)
                agg = m["core.hymm.L1.agg_cycles"] + m["core.hymm.L2.agg_cycles"]
                self.assertGreaterEqual(agg / m["core.hymm.cycles"], 0.95)

    def test_physics_comb_is_combination_bound(self):
        for seed in SEEDS:
            with self.subTest(seed=seed):
                m = traced_metrics("physics-comb", seed)
                for flow in ("op", "rwp", "hymm"):
                    comb = (m[f"core.{flow}.L1.comb_cycles"]
                            + m[f"core.{flow}.L2.comb_cycles"])
                    self.assertGreaterEqual(comb / m[f"core.{flow}.cycles"], 0.55, flow)
                self.assertGreaterEqual(m["core.rwp.ff_skip"], 0.2)

    def test_photo_dse_restores_checkpoints(self):
        for seed in SEEDS:
            with self.subTest(seed=seed):
                m = traced_metrics("photo-dse", seed)
                self.assertEqual(m["sweep.cells"], 15)
                self.assertEqual(m["sweep.ckpt_builds"], 3)
                self.assertEqual(m["sweep.ckpt_restores"], 12)
                self.assertLess(m["core.hymm.ff_skip"], 0.05)


if __name__ == "__main__":
    unittest.main()
