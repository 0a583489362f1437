import json

import pytest

from repgame import run_experiment
from repgame.cli import main
from repgame.experiment import (
    EXIT_ASSERTION_FAILURE,
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    INCONCLUSIVE,
    SpecError,
    emit_report,
    load_spec,
)

GAME_DOC = {
    "num_players": 2,
    "action_counts": [2, 2],
    "utilities": [[[0.6, 0.0], [1.0, 0.2]], [[0.6, 1.0], [0.0, 0.2]]],
}


def base_spec(**overrides):
    spec = {
        "schema_version": 1,
        "experiment_id": "test",
        "game": GAME_DOC,
        "target": {"cooperative": [[0.5, 0.5], [0.5, 0.5]], "punishment": "solve"},
        "enforcement": {"kind": "anytime", "gamma": 0.05},
        "mode": "type1",
        "replications": 20,
        "horizon": 2000,
        "beta": 0.99,
        "seed": 3,
        "conclusive_horizon": 1000,
        "output_dir": "out",
    }
    spec.update(overrides)
    return spec


def write_spec(tmp_path, spec, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return path


class TestSpecLoading:
    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecError, match="config not found"):
            load_spec(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SpecError, match="not valid JSON"):
            load_spec(path)

    def test_missing_field(self, tmp_path):
        spec = base_spec()
        del spec["beta"]
        with pytest.raises(SpecError, match="beta"):
            load_spec(write_spec(tmp_path, spec))

    def test_wrong_schema_version(self, tmp_path):
        with pytest.raises(SpecError, match="schema_version"):
            load_spec(write_spec(tmp_path, base_spec(schema_version=99)))


class TestRunExperiment:
    def test_missing_spec_exits_1(self, tmp_path, capsys):
        code = run_experiment(tmp_path / "nope.json")
        assert code == EXIT_CONFIG_ERROR
        assert "config not found" in capsys.readouterr().err

    def test_simplex_violation_exits_1(self, tmp_path, capsys):
        spec = base_spec(target={"cooperative": [[0.5, 0.9], [0.5, 0.5]],
                                 "punishment": "solve"})
        code = run_experiment(write_spec(tmp_path, spec))
        assert code == EXIT_CONFIG_ERROR
        assert "invalid target" in capsys.readouterr().err

    def test_successful_run_writes_all_files(self, tmp_path):
        code = run_experiment(write_spec(tmp_path, base_spec()))
        assert code == EXIT_OK
        out = tmp_path / "out"
        assert (out / "rows.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "resolved_spec.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mode"] == "type1"
        statuses = {a["name"]: a["status"] for a in summary["assertions"]}
        assert statuses["type1_rate_le_gamma"] == "pass"

    def test_byte_identical_rows_for_same_seed(self, tmp_path):
        spec_path = write_spec(tmp_path, base_spec())
        run_experiment(spec_path, output_dir=tmp_path / "a")
        run_experiment(spec_path, output_dir=tmp_path / "b")
        assert (tmp_path / "a" / "rows.csv").read_bytes() == \
            (tmp_path / "b" / "rows.csv").read_bytes()

    def test_resolved_spec_round_trip(self, tmp_path):
        spec_path = write_spec(tmp_path, base_spec())
        run_experiment(spec_path, output_dir=tmp_path / "first")
        resolved = tmp_path / "first" / "resolved_spec.json"
        run_experiment(resolved, output_dir=tmp_path / "second")
        assert (tmp_path / "first" / "rows.csv").read_bytes() == \
            (tmp_path / "second" / "rows.csv").read_bytes()

    def test_tiny_horizon_marks_inconclusive(self, tmp_path):
        spec = base_spec(horizon=10, conclusive_horizon=10_000)
        run_experiment(write_spec(tmp_path, spec))
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        statuses = {a["name"]: a["status"] for a in summary["assertions"]}
        assert statuses["type1_rate_le_gamma"] == INCONCLUSIVE

    def test_censored_runs_record_absent_tau(self, tmp_path):
        run_experiment(write_spec(tmp_path, base_spec()))
        rows = (tmp_path / "out" / "rows.csv").read_text().splitlines()
        header = rows[0].split(",")
        tau_idx = header.index("tau_0")
        values = {line.split(",")[tau_idx] for line in rows[1:]}
        # No rejection before T must serialize as an empty cell, never as T.
        assert "2000" not in values

    def test_payoff_cells_parse_as_floats(self, tmp_path):
        run_experiment(write_spec(tmp_path, base_spec(mode="payoff", replications=5)))
        rows = (tmp_path / "out" / "rows.csv").read_text().splitlines()
        header = rows[0].split(",")
        payoff_cols = [i for i, name in enumerate(header) if name.startswith("payoff_")]
        assert payoff_cols
        for line in rows[1:]:
            cells = line.split(",")
            for i in payoff_cols:
                float(cells[i])

    def test_assertion_failure_exits_2(self, tmp_path):
        # The payoff sandwich holds for cooperative play only; a defecting
        # player is detected immediately (out-of-support action) and lands
        # far below the lower bound, deterministically failing the check.
        spec = base_spec(
            mode="payoff",
            target={"cooperative": [[1, 0], [1, 0]], "punishment": "solve"},
            deviations=[{"kind": "stationary", "player": 0, "probs": [0, 1]}],
            replications=10,
        )
        code = run_experiment(write_spec(tmp_path, spec))
        assert code == EXIT_ASSERTION_FAILURE
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert any(a["status"] == "fail" for a in summary["assertions"])

    def test_batch_tuned_resolution(self, tmp_path):
        spec = base_spec(
            enforcement={"kind": "batch_tuned", "epsilon": 1.0},
            horizon=13_000,
            replications=2,
        )
        code = run_experiment(write_spec(tmp_path, spec))
        assert code in (EXIT_OK, EXIT_ASSERTION_FAILURE)
        resolved = json.loads((tmp_path / "out" / "resolved_spec.json").read_text())
        assert resolved["enforcement"]["batch_length"] == 6422
        assert resolved["enforcement"]["delta"] == 0.0625


class TestEmitReport:
    def test_missing_dir(self, tmp_path):
        with pytest.raises(SpecError, match="missing result files"):
            emit_report(tmp_path / "nope")

    def test_type1_report_mentions_estimates(self, tmp_path):
        run_experiment(write_spec(tmp_path, base_spec()))
        text = emit_report(tmp_path / "out")
        assert "punished rate (censored)" in text
        assert "wilson" in text.lower()

    def test_idempotent(self, tmp_path):
        run_experiment(write_spec(tmp_path, base_spec()))
        assert emit_report(tmp_path / "out") == emit_report(tmp_path / "out")

    def test_detection_report_has_survival_grid(self, tmp_path):
        spec = base_spec(
            mode="detection",
            deviations=[{"kind": "stationary", "player": 0, "probs": [0.9, 0.1]}],
            replications=10,
        )
        run_experiment(write_spec(tmp_path, spec))
        text = emit_report(tmp_path / "out")
        assert "P(tau >= t)" in text


class TestCliEntryPoints:
    def test_run_and_report(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path, base_spec())
        assert main(["run", str(spec_path)]) == EXIT_OK
        assert main(["report", str(tmp_path / "out")]) == 0
        assert "punished rate" in capsys.readouterr().out

    def test_solve_nash(self, tmp_path, capsys):
        game_path = tmp_path / "game.json"
        game_path.write_text(json.dumps(GAME_DOC))
        assert main(["solve-nash", str(game_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["profile"] == [[0.0, 1.0], [0.0, 1.0]]

    def test_bounds_batch(self, capsys):
        assert main(["bounds", "batch", "--num-actions", "2", "--num-players", "2",
                     "--batch-length", "500", "--delta", "0.3", "--beta", "0.999"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["p_L"] == pytest.approx(1.3535e-9, rel=1e-3)

    def test_bounds_schedule(self, capsys):
        assert main(["bounds", "schedule", "--epsilon", "0.5",
                     "--num-actions", "2", "--num-players", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["batch_length"] == 31410

    def test_bounds_tau(self, capsys):
        assert main(["bounds", "tau", "--gamma", "0.05", "--epsilon", "0.2",
                     "--w-min", "0.5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["expected_tau_bound"] == pytest.approx(6040.0, abs=0.1)

    def test_run_missing_spec_exit_code(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == EXIT_CONFIG_ERROR
