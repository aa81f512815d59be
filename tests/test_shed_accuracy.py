#!/usr/bin/env python3
"""Tests for scripts/shed_accuracy.py — the CI shed-accuracy gate.

Synthetic trace pairs exercise each bucket (false shed, true shed, on-time
and late serve), the 1% false-shed gate on both sides of its bound, and the
refusals: runs covering different requests, a trace that dropped events,
and an unreadable file.

Run directly (python3 tests/test_shed_accuracy.py) or via ctest
(registered in tests/CMakeLists.txt when a python3 interpreter is found).
"""

import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "shed_accuracy.py"


def trace(requests, dropped=0):
    """A minimal live trace: requests maps (stream, seq) -> (latency_us, shed)."""
    events = [{"name": "lazy-fit", "cat": "cluster", "ph": "X", "ts": 0, "dur": 500,
               "args": {"stream": 99, "seq": 0}}]
    for (stream, seq), (latency, shed) in requests.items():
        args = {"stream": stream, "seq": seq}
        events.append({"name": "admit", "cat": "req", "ph": "i", "ts": 1000, "args": args})
        events.append({"name": "shed" if shed else "deliver", "cat": "req", "ph": "i",
                       "ts": 1000 + latency, "args": args})
    return {"traceEvents": events, "otherData": {"dropped": dropped}}


class ShedAccuracyTest(unittest.TestCase):
    def run_script(self, baseline, deadlined, deadline_us=100):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, payload in (("base.json", baseline), ("dl.json", deadlined)):
                path = pathlib.Path(tmp) / name
                path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
                paths.append(str(path))
            return subprocess.run(
                [sys.executable, str(SCRIPT), *paths, "--deadline-us", str(deadline_us)],
                capture_output=True, text=True)

    def test_counts_each_bucket_and_gates_false_sheds(self):
        # Within D = 100 without a deadline: keys 0-3; late without one: 4.
        baseline = trace({(0, k): (50 if k < 4 else 500, False) for k in range(5)})
        deadlined = trace({(0, 0): (30, True),     # false shed
                           (0, 1): (40, False),    # on time
                           (0, 2): (80, False),    # on time
                           (0, 3): (300, False),   # late
                           (0, 4): (20, True)})    # true shed
        result = self.run_script(baseline, deadlined)
        self.assertEqual(result.returncode, 1, result.stdout)
        lines = result.stdout.splitlines()
        for name, count in (("false sheds", 1), ("true sheds", 1),
                            ("on-time serves", 2), ("late serves", 1)):
            row = next(line for line in lines if line.startswith(name))
            self.assertEqual(int(row.split()[2]), count, row)
        self.assertIn("of the 4 requests whose no-deadline run met D", result.stdout)
        self.assertIn("FAIL false sheds exceed the gate", result.stdout)

    def test_passes_without_false_sheds(self):
        baseline = trace({(s, k): (50, False) for s in range(2) for k in range(100)})
        deadlined = trace({(s, k): (60 if k else 250, False) for s in range(2) for k in range(100)})
        result = self.run_script(baseline, deadlined)
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_one_false_shed_in_a_hundred_is_within_the_gate(self):
        baseline = trace({(0, k): (50, False) for k in range(100)})
        deadlined = trace({(0, k): (50, k == 7) for k in range(100)})
        self.assertEqual(self.run_script(baseline, deadlined).returncode, 0)
        deadlined = trace({(0, k): (50, k in (7, 8)) for k in range(100)})
        self.assertEqual(self.run_script(baseline, deadlined).returncode, 1)

    def test_refuses_mismatched_dropped_or_unreadable_traces(self):
        baseline = trace({(0, 0): (50, False), (0, 1): (50, False)})
        for deadlined, why in ((trace({(0, 0): (50, False)}), "cover different requests"),
                               (trace({(0, 0): (50, False), (0, 1): (50, False)}, dropped=3),
                                "dropped 3 events"),
                               ("{not json", "invalid JSON")):
            with self.subTest(why=why):
                result = self.run_script(baseline, deadlined)
                self.assertEqual(result.returncode, 1, result.stdout)
                self.assertIn(why, result.stdout)


if __name__ == "__main__":
    unittest.main()
