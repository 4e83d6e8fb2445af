#!/usr/bin/env python3
"""Determinism self-test of the benchmark harness.

One seed must give the same op-sequence digest, the same answer digest and
the same exact counters on every run; a different seed must change the op
digest. The exact counters are serve-live's outcome counts over its
counted rounds (reads, result hits, cover reuses, covers built) and both
workloads' utility_ratio and index_mib.

Run from the root of a source checkout (it builds the harness through
run.py first; a full pass takes a few minutes):

    python3 perf_record/test_determinism.py
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
SEED = 11
OTHER_SEED = 12
REQUIRED = {
    "adhoc-cold": {"utility_ratio", "index_mib"},
    "serve-live": {"reads", "result_hits", "cover_reuses", "covers_built",
                   "utility_ratio", "index_mib"},
}


def record(workload, seed):
    """The harness's `record:` line for one short run."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=900, check=True)
    prefix = "record: "
    line = next(l for l in proc.stdout.splitlines() if l.startswith(prefix))
    return json.loads(line[len(prefix):])


class Determinism(unittest.TestCase):
    def check(self, workload):
        first = record(workload, SEED)
        again = record(workload, SEED)
        other = record(workload, OTHER_SEED)
        self.assertLessEqual(REQUIRED[workload], set(first["exact"]))
        self.assertEqual(first["op_digest"], again["op_digest"])
        self.assertEqual(first["answer_digest"], again["answer_digest"])
        self.assertEqual(first["exact"], again["exact"])
        self.assertNotEqual(first["op_digest"], other["op_digest"])

    def test_adhoc_cold(self):
        self.check("adhoc-cold")

    def test_serve_live(self):
        self.check("serve-live")


if __name__ == "__main__":
    unittest.main()
