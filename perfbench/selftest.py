"""Self-tests of the benchmark's output checks and metric tables.

Run from the root of a checkout: ``python3 perfbench/selftest.py``. Each
broken output below must count as a failed operation, and a clean one as a
success.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import tempfile
import unittest
from pathlib import Path

import calibrate
import check
import run
import tracing
import workloads
from workloads import Operation

CALIBRATOR = calibrate.Calibrator()
COLUMNS = ["schema_version", "experiment_id", "mode", "variant", "replication",
           "seed", "punishment_onset", "tau_0", "tau_1", "payoff_0", "payoff_1"]


def make_temp_dir() -> Path:
    run.OUT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=run.OUT))


def write_result(out_dir: Path, rows: list, summary: dict) -> None:
    with open(out_dir / "rows.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({c: row.get(c, "") for c in COLUMNS})
    (out_dir / "summary.json").write_text(json.dumps(summary))


def payoff_rows(payoffs) -> list:
    return [
        {"schema_version": 1, "experiment_id": "x", "mode": "payoff", "variant": "baseline",
         "replication": rep, "seed": 7, "punishment_onset": "" if rep else 120,
         "tau_0": "" if rep else 120, "payoff_0": repr(p0), "payoff_1": repr(p1)}
        for rep, (p0, p1) in enumerate(payoffs)
    ]


PAYOFFS = [(0.5767, 0.5702), (0.5811, 0.5745), (0.5693, 0.5820)]
PAYOFF_SUMMARY = {
    "mode": "payoff",
    "estimates": {"mean_payoff": [sum(p[i] for p in PAYOFFS) / 3 for i in (0, 1)]},
}


class OutputCheckTest(unittest.TestCase):
    def setUp(self):
        self.dir = make_temp_dir()
        self.addCleanup(shutil.rmtree, self.dir)

    def tally_of(self, exit_code, expected_rows=3) -> run.Tally:
        tally = run.Tally(CALIBRATOR)
        tally.run(Operation(
            label="op", run=lambda: exit_code, reps=expected_rows,
            check=lambda code: check.mc_problems(code, self.dir, expected_rows)))
        return tally

    def test_clean_payoff_op_succeeds(self):
        write_result(self.dir, payoff_rows(PAYOFFS), PAYOFF_SUMMARY)
        self.assertEqual(self.tally_of(0).failed, 0)

    def test_malformed_numeric_cell_fails(self):
        rows = payoff_rows(PAYOFFS)
        rows[1]["payoff_0"] = "np.float64(0.5811)"
        write_result(self.dir, rows, PAYOFF_SUMMARY)
        self.assertEqual(self.tally_of(0).failed, 1)

    def test_wrong_row_count_fails(self):
        write_result(self.dir, payoff_rows(PAYOFFS), PAYOFF_SUMMARY)
        self.assertEqual(self.tally_of(0, expected_rows=4).failed, 1)

    def test_summary_disagreeing_with_rows_fails(self):
        summary = {"mode": "payoff", "estimates": {"mean_payoff": [0.6, 0.5]}}
        write_result(self.dir, payoff_rows(PAYOFFS), summary)
        self.assertEqual(self.tally_of(0).failed, 1)

    def test_type1_punished_count_is_checked(self):
        rows = payoff_rows(PAYOFFS)
        write_result(self.dir, rows, {"mode": "type1", "estimates": {"punished": 1}})
        self.assertEqual(self.tally_of(0).failed, 0)
        write_result(self.dir, rows, {"mode": "type1", "estimates": {"punished": 0}})
        self.assertEqual(self.tally_of(0).failed, 1)

    def test_nonzero_exit_code_fails(self):
        write_result(self.dir, payoff_rows(PAYOFFS), PAYOFF_SUMMARY)
        for code in (1, 2):
            self.assertEqual(self.tally_of(code).failed, 1)

    def test_raising_operation_fails(self):
        def boom():
            raise ValueError("boom")

        tally = run.Tally(CALIBRATOR)
        with contextlib.redirect_stderr(io.StringIO()):
            tally.run(Operation(label="op", run=boom, check=lambda _: [], reps=1))
        self.assertEqual((tally.failed, tally.reps), (1, 0))

    def test_mismatched_reference_onset_fails(self):
        for onset, expected, failed in ((13, 13, 0), (None, None, 0), (13, 14, 1), (None, 50, 1)):
            tally = run.Tally(CALIBRATOR)
            tally.run(Operation(label="episode", run=lambda: onset, reps=1,
                                check=lambda got: check.onset_problems(got, expected)))
            self.assertEqual(tally.failed, failed, (onset, expected))

    def test_oracle_and_grim_checks(self):
        self.assertEqual(check.oracle_problems(0.05, 0.05), [])
        self.assertTrue(check.oracle_problems(0.0500001, 0.05))
        self.assertEqual(check.close_problems([0.6, 0.6], [0.6, 0.6 + 1e-13], 1e-12), [])
        self.assertTrue(check.close_problems([0.6, 0.6], [0.6, 0.6 + 1e-11], 1e-12))


class RealOperationTest(unittest.TestCase):
    def test_clean_repgame_run_succeeds(self):
        workloads.use_source_tree()
        import repgame.cli as cli

        work = make_temp_dir()
        self.addCleanup(shutil.rmtree, work)
        (work / "game.json").write_text(json.dumps(workloads.PD))
        spec = workloads._mc_spec("anytime_type1", 0, 5)
        spec.update(game="game.json", horizon=2_000, replications=6)
        (work / "spec.json").write_text(json.dumps(spec))
        tally = run.Tally(CALIBRATOR)
        tally.run(Operation(
            label="op", reps=6,
            run=lambda: cli.main(["run", str(work / "spec.json"), "--output-dir", str(work)]),
            check=lambda code: check.mc_problems(code, work, 6)))
        self.assertEqual((tally.failed, tally.reps), (0, 6), tally.problems)


class MetricTableTest(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        bench = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in bench["end_to_end"]], list(run.UNITS))
        self.assertEqual([m["unit"] for m in bench["end_to_end"]], list(run.UNITS.values()))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
            [(name, unit, better) for name, unit, better, _ in tracing.LAYER_METRICS])
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.LISTED))
        self.assertLessEqual(set(workloads.LISTED), set(workloads.NAMES))

    def test_union_of_overlapping_intervals(self):
        self.assertEqual(tracing._union_ns([(2, 5), (4, 8), (10, 12)], 0, 11), 7)


if __name__ == "__main__":
    unittest.main()
