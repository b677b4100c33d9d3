#!/usr/bin/env python3
"""Tests of the benchmark's correctness check.

    python3 perfbench/test_run.py

Builds bench.exe, then shows that the check accepts the recorded
outputs, rejects a perturbed expected value, that traced and untraced
processes produce identical outputs, and that the k-ary probe's
registry run reproduces the plain run's fairness table.
"""

import copy
import os
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOAD = "fig6_red_case3"


class CheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.expected = run.load_expected()
        cls.seed = run.ensemble(cls.expected, WORKLOAD, 0, False)[0]
        deadline = time.time() + 600
        cls.plain = run.bench("rep", WORKLOAD, cls.seed, deadline=deadline)
        cls.traced = run.bench("traced", WORKLOAD, cls.seed,
                               os.devnull, deadline=deadline)

    def test_recorded_outputs_match(self):
        self.assertTrue(run.matches(self.expected, WORKLOAD, self.seed,
                                    self.plain))

    def test_perturbed_expected_value_fails(self):
        bad = copy.deepcopy(self.expected)
        rla = bad["workloads"][WORKLOAD][str(self.seed)]["rla"]
        rla["congestion_signals"] += 1
        self.assertFalse(run.matches(bad, WORKLOAD, self.seed, self.plain))
        bad = copy.deepcopy(self.expected)
        tcp = bad["workloads"][WORKLOAD][str(self.seed)]["tcp"][0]
        tcp["delivered"] -= 1
        self.assertFalse(run.matches(bad, WORKLOAD, self.seed, self.plain))

    def test_unrecorded_seed_fails(self):
        self.assertFalse(run.matches(self.expected, WORKLOAD, -1, self.plain))

    def test_failed_process_fails(self):
        self.assertFalse(run.matches(self.expected, WORKLOAD, self.seed, None))

    def test_traced_outputs_identical(self):
        self.assertEqual(self.plain["outputs"], self.traced["outputs"])
        self.assertEqual(self.plain["events"], self.traced["events"])
        self.assertEqual(self.traced["events"], self.traced["loop_fired"])
        self.assertEqual(self.traced["events"], self.traced["registry_events"])

    def test_par_probe_identical(self):
        par = run.bench("par", deadline=time.time() + 600)
        self.assertEqual(par["table"], par["traced_table"])
        self.assertEqual(par["table"], self.expected["par_probe"]["table"])

    def test_seed_blocks(self):
        for w in run.WORKLOADS:
            blocks = [run.ensemble(self.expected, w, n, False)
                      for n in range(len(self.expected["ensembles"][w]))]
            self.assertTrue(all(len(b) == run.ENSEMBLE for b in blocks))
            table = sorted(s for b in blocks for s in b)
            self.assertEqual(table, sorted(set(table)))
            self.assertEqual(set(map(str, table)) | set(map(
                str, self.expected["held_out"])),
                set(self.expected["workloads"][w]))
            self.assertNotEqual(blocks[0], blocks[1])
            self.assertEqual(blocks[1], run.ensemble(
                self.expected, w, 1 + len(blocks), False))
            held = run.ensemble(self.expected, w, 0, True)
            self.assertFalse(set(held) & set(table))

    def test_balanced_ensembles(self):
        # Two heavy and six light seeds: blocks of consecutive seeds
        # would put both heavy ones together.
        words = {s: 3.0 if s <= 2 else 1.0 for s in range(1, 17)}
        blocks = run.balanced_ensembles(words)
        self.assertEqual(sorted(s for b in blocks for s in b),
                         list(range(1, 17)))
        sums = [sum(words[s] for s in b) for b in blocks]
        self.assertEqual(sums[0], sums[1])


if __name__ == "__main__":
    unittest.main()
