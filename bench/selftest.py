"""Self-tests of the benchmark itself: seeded inputs, output checks, verdicts.

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import cli_cold  # noqa: E402
import dataset_bulk  # noqa: E402
import engine_sweep  # noqa: E402
from common import Op, cli_in_process, closed_loop  # noqa: E402
from compare import compare_sets, verdict  # noqa: E402
from tracing import importtime_breakdown  # noqa: E402


def corrupt(data: bytes, at: int) -> bytes:
    """Flip one digit (or any byte) so the result still looks plausible."""
    value = data[at]
    replacement = ord("0") + (value - ord("0") + 1) % 10 if chr(value).isdigit() else value ^ 1
    return data[:at] + bytes([replacement]) + data[at + 1:]


def cli_inputs(seed: int, cycles: int = 3) -> bytes:
    generator = cli_cold.cycles(seed)
    return json.dumps([[call.argv for call in next(generator)] for _ in range(cycles)]).encode()


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        self.assertEqual(cli_inputs(7), cli_inputs(7))
        self.assertEqual(repr(engine_sweep.make_pool(7)), repr(engine_sweep.make_pool(7)))
        first = [t.text for t in dataset_bulk.make_inputs(7)]
        self.assertEqual(first, [t.text for t in dataset_bulk.make_inputs(7)])

    def test_other_seed_other_bytes(self):
        self.assertNotEqual(cli_inputs(7), cli_inputs(8))
        self.assertNotEqual(repr(engine_sweep.make_pool(7)), repr(engine_sweep.make_pool(8)))
        rng7, rng8 = random.Random(7), random.Random(8)
        self.assertNotEqual(dataset_bulk.make_table(rng7, 300, 5).text,
                            dataset_bulk.make_table(rng8, 300, 5).text)

    def test_cli_mix_is_fixed(self):
        kinds = sorted(call.kind for call in next(cli_cold.cycles(3)))
        self.assertEqual(kinds, sorted(call.kind for call in next(cli_cold.cycles(4))))
        self.assertEqual(len(kinds), 20)
        self.assertEqual(kinds.count("domain-error"), 1)
        self.assertTrue(set(cli_cold.SUBCOMMANDS) <= set(kinds))


class CorruptedOutputIsCounted(unittest.TestCase):
    def test_cli_call(self):
        for call in next(cli_cold.cycles(5)):
            want = cli_cold.expected(call)
            self.assertIsNone(cli_cold.check(call, want, *want), call.argv)
            stream = 1 if want[1] else 2
            damaged = list(want)
            damaged[stream] = corrupt(want[stream], len(want[stream]) // 2)
            self.assertIsNotNone(cli_cold.check(call, want, *damaged), call.argv)

    def test_engine_batch(self):
        pool = engine_sweep.make_pool(5)
        subsets = engine_sweep.check_subsets(pool, 5)
        batch, subset = pool[0], subsets[0]
        results = engine_sweep.run_batch(batch)
        self.assertIsNone(engine_sweep.check_batch(batch, results, subset))
        checked = {batch[i][0] for i in subset}
        self.assertEqual(checked, {"nedt", "budget", "calibrate"})
        for index in subset:
            damaged = list(results)
            damaged[index] = (results[index][0] * (1 + 1e-6),) + tuple(results[index][1:])
            self.assertIsNotNone(engine_sweep.check_batch(batch, damaged, subset), batch[index][0])

    def test_dataset_outputs(self):
        table = dataset_bulk.make_table(random.Random(5), 400, 5)
        with tempfile.TemporaryDirectory() as tmp:
            source, target = Path(tmp) / "in.csv", Path(tmp) / "out"
            source.write_text(table.text, encoding="utf-8")
            for command, argv in dataset_bulk.COMMANDS.items():
                code, _, err = cli_in_process(
                    argv + ["--input", str(source), "--output", str(target)])
                self.assertEqual(code, 0, err)
                data = target.read_bytes()
                self.assertIsNone(dataset_bulk.check(command, table, data), command)
                marker = {"derive": b'"e_free_v_m_sqrthz": ', "ranges": b"\r\n",
                          "plotdata": b'"category": "'}[command]
                at = data.index(marker) + len(marker) + 1
                self.assertIsNotNone(dataset_bulk.check(command, table, corrupt(data, at)), command)

    def test_failed_ops_feed_error_rate(self):
        def run_op(item, traced, failures):
            ok = item != 2
            if not ok:
                failures.append("corrupted")
            return Op(item, 0.001, ok, traced)

        loop = closed_loop(iter(lambda: range(4), None), run_op, 0.0, trace=False)
        self.assertEqual(sum(not op.ok for op in loop.ops) / len(loop.ops), 0.25)
        self.assertEqual(loop.failures, ["corrupted"])

    def test_bundled_table(self):
        self.assertEqual(dataset_bulk.check_bundled(), [])


class CompareRule(unittest.TestCase):
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]

    def test_clear_gain_is_improved(self):
        change = [v * 0.8 for v in self.parent]
        self.assertEqual(verdict(self.parent, change, "lower", 0.1), ("improved", 10))

    def test_gain_with_more_failed_ops_is_not_improved(self):
        change = [v * 0.8 for v in self.parent]
        self.assertEqual(verdict(self.parent, change, "lower", 0.1, (0, 3)), ("unresolved", 10))
        self.assertEqual(verdict(self.parent, change, "lower", 0.1, (3, 3)), ("improved", 10))

    def test_result_sets_carry_failed_ops(self):
        def runs(scale, failed):
            return [{"workload": "w", "seed": seed, "trace": 0, "result": {
                "failed": failed if seed == 1 else 0,
                "metrics": {"latency_ms": {"value": value * scale, "unit": "ms"}}}}
                for seed, value in enumerate(self.parent, 1)]

        spec = {"workloads": [{"name": "w"}], "end_to_end": [
            {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}
        [row] = compare_sets(runs(1.0, 0), runs(0.8, 2), spec)
        self.assertEqual((row["failed"], row["verdict"]), ((0, 2), "unresolved"))
        [row] = compare_sets(runs(1.0, 0), runs(0.8, 0), spec)
        self.assertEqual(row["verdict"], "improved")

    def test_same_numbers_are_unchanged(self):
        self.assertEqual(verdict(self.parent, list(self.parent), "lower", 0.1)[0], "unchanged")

    def test_gain_inside_parent_spread_is_not_improved(self):
        change = [v - 0.05 for v in self.parent]
        self.assertEqual(verdict(self.parent, change, "lower", 0.1)[0], "unchanged")

    def test_eight_wins_of_ten_is_not_improved(self):
        change = [v * 0.8 for v in self.parent[:8]] + [v * 1.01 for v in self.parent[8:]]
        self.assertEqual(verdict(self.parent, change, "lower", 0.1), ("unchanged", 8))

    def test_clear_loss_is_regressed(self):
        change = [v * 1.3 for v in self.parent]
        self.assertEqual(verdict(self.parent, change, "lower", 0.1)[0], "regressed")
        self.assertEqual(verdict(self.parent, [v * 0.7 for v in self.parent], "higher", 0.1)[0],
                         "regressed")

    def test_wide_spread_is_unresolved(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
        change = [v * 1.05 for v in noisy]
        self.assertEqual(verdict(noisy, change, "lower", 0.1)[0], "unresolved")


class ImportTime(unittest.TestCase):
    def test_first_entry_wins(self):
        report = (
            "import time: self [us] | cumulative | imported package\n"
            "import time:      2000 |     150000 |     numpy\n"
            "import time:     18000 |     240000 |   rfsense.cli\n"
            "import time:        26 |     250000 | rfsense.cli\n"
        )
        found = importtime_breakdown(report)
        self.assertEqual(found["rfsense.cli"], (18.0, 240.0))
        self.assertEqual(found["numpy"], (2.0, 150.0))


if __name__ == "__main__":
    unittest.main()
