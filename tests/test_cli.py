import csv
import json
import re

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


NINE_TENTHS = {"cooperative": [[0.9, 0.1], [0.9, 0.1]], "punishment": "solve"}
BATCH_10 = {"kind": "batch", "delta": 0.4, "batch_length": 10}
BATCH_50 = {"kind": "batch", "delta": 0.3, "batch_length": 50}
GAP_FAMILY = [
    {"kind": "stationary", "player": 0, "probs": [0, 1], "label": "defect"},
    {"kind": "small_ball", "player": 1, "epsilon": 0.1, "label": "ball"},
]


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
        # A "deviator" that plays the cooperative action itself is detected
        # only as often as the test errs (at most gamma per player), so a
        # required detection rate of one half fails.
        spec = base_spec(
            mode="detection",
            deviations=[{"kind": "stationary", "player": 0, "probs": [0.5, 0.5]}],
            min_detection_rate=0.5,
            replications=10,
        )
        code = run_experiment(write_spec(tmp_path, spec))
        assert code == EXIT_ASSERTION_FAILURE
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert [(a["name"], a["status"]) for a in summary["assertions"]] == \
            [("detected_rate_ge_min", "fail")]

    def test_payoff_with_deviations_has_no_sandwich(self, tmp_path):
        # The sandwich bounds cooperative play. Here player 1 sometimes plays
        # action 2, outside the cooperative support, so it is detected and
        # every player is punished: the means (about 0.25) lie far below the
        # lower bound (1 - gamma) v = 0.4275, on correct code.
        game = {
            "num_players": 2,
            "action_counts": [3, 3],
            "utilities": [[[0.6, 0.3, 0.0], [0.3, 0.6, 0.0], [0.8, 0.8, 0.2]],
                          [[0.6, 0.3, 0.8], [0.3, 0.6, 0.8], [0.0, 0.0, 0.2]]],
        }
        spec = base_spec(
            mode="payoff",
            game=game,
            target={"cooperative": [[0.5, 0.5, 0], [0.5, 0.5, 0]], "punishment": "solve"},
            deviations=[{"kind": "stationary", "player": 1, "probs": [0.48, 0.48, 0.04]}],
            replications=40,
            horizon=20_000,
        )
        assert main(["run", str(write_spec(tmp_path, spec))]) == EXIT_OK
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["assertions"] == []
        assert summary["extras"]["theoretical_lower"] == pytest.approx([0.4275] * 2)
        assert max(summary["estimates"]["mean_payoff"]) < 0.4275
        cells = [re.split(r"\s{2,}", line.strip())
                 for line in emit_report(tmp_path / "out").splitlines()]
        assert ["player", "lower bound", "estimate", "v"] in cells
        assert ["no assertions for this run: it declares deviations, and the payoff "
                "sandwich bounds cooperative play only"] in cells
        assert ["no assertable inequalities for this mode"] not in cells

    def test_truncated_cooperative_payoff_passes_sandwich(self, tmp_path):
        # Pure cooperation earns v (1 - beta^T) = 0.5189 at T = 2000 and
        # beta = 0.999: below the lower bound (1 - gamma) v = 0.57, but by
        # less than the truncation certificate beta^T = 0.135.
        spec = base_spec(
            mode="payoff",
            target={"cooperative": [[1, 0], [1, 0]], "punishment": "solve"},
            beta=0.999,
            replications=10,
        )
        assert main(["run", str(write_spec(tmp_path, spec))]) == EXIT_OK
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["estimates"]["mean_payoff"] == \
            pytest.approx([0.6 * (1 - 0.999**2000)] * 2, abs=1e-12)
        assert {a["status"] for a in summary["assertions"]} == {"pass"}

    def test_perfect_monitoring_anytime_exits_1(self, tmp_path, capsys):
        spec = base_spec(monitoring="perfect")
        assert main(["run", str(write_spec(tmp_path, spec))]) == EXIT_CONFIG_ERROR
        assert "needs imperfect monitoring" in capsys.readouterr().err

    @pytest.mark.parametrize("entry, field", [
        ({"kind": "stationary", "player": 0}, "probs"),
        ({"kind": "small_ball", "player": 0, "epsilon": "big"}, "epsilon"),
        ({"kind": "batch_adversarial", "player": 0}, "batch_length"),
        ({"kind": "stationary", "player": 2, "probs": [1, 0]}, "player"),
        ({"kind": "adaptive", "player": 0}, "adaptive"),
        ({"kind": "stationary", "player": 0, "probs": [float("nan"), 1.0]}, "probs"),
    ])
    def test_bad_deviation_exits_1_naming_the_field(self, tmp_path, capsys, entry, field):
        spec = base_spec(mode="detection", deviations=[entry])
        assert run_experiment(write_spec(tmp_path, spec)) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert field in err

    @pytest.mark.parametrize("enforcement, field", [
        ({"kind": "anytime", "gamma": "abc"}, "gamma"),
        ({"kind": "anytime", "gamma": 0}, "gamma"),
        ({"kind": "anytime", "gamma": -1}, "gamma"),
        ({"kind": "anytime", "gamma": 1.5}, "gamma"),
        ({"kind": "batch", "delta": 0.3, "batch_length": 0}, "batch_length"),
        ({"kind": "batch", "delta": 1.5, "batch_length": 10}, "delta"),
        ({"kind": "batch_tuned", "epsilon": 2}, "epsilon"),
    ])
    def test_bad_enforcement_exits_1_naming_the_field(self, tmp_path, capsys, enforcement,
                                                      field):
        spec = base_spec(enforcement=enforcement)
        assert main(["run", str(write_spec(tmp_path, spec))]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert field in err

    @pytest.mark.parametrize("overrides, field", [
        (dict(horizon="abc"), "horizon"),
        (dict(horizon=200.9), "horizon"),
        (dict(replications="abc"), "replications"),
        (dict(replications=True), "replications"),
        (dict(beta="x"), "beta"),
        (dict(seed=3.5), "seed"),
        (dict(seed=-1), "seed"),
        (dict(enforcement="anytime"), "enforcement"),
        (dict(enforcement={"kind": "batch", "delta": 0.3, "batch_length": 10.7}),
         "batch_length"),
        (dict(deviations=5), "deviations"),
        (dict(mode="wrongful_curve", enforcement=BATCH_10, curve_horizons="ab"),
         "curve_horizons"),
        (dict(mode="wrongful_curve", enforcement=BATCH_10, curve_horizons=[100, "x"]),
         "curve_horizons"),
        (dict(mode="detection", min_detection_rate="x",
              deviations=[{"kind": "stationary", "player": 0, "probs": [0.9, 0.1]}]),
         "min_detection_rate"),
        (dict(mode="gap", gap_family=GAP_FAMILY, gap_epsilon="x"), "gap_epsilon"),
        (dict(conclusive_horizon="x"), "conclusive_horizon"),
        (dict(mode=["type1"]), "mode"),
        (dict(output_dir=5), "output_dir"),
    ])
    def test_bad_spec_field_exits_1_naming_the_field(self, tmp_path, capsys, overrides, field):
        # Every field is read before any replication runs, so nothing is written.
        spec = base_spec(**overrides)
        assert main(["run", str(write_spec(tmp_path, spec))]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert field in err
        assert not (tmp_path / "out" / "rows.csv").exists()

    def test_integral_float_reads_as_int(self, tmp_path):
        spec = base_spec(horizon=1e3, replications=4.0,
                         enforcement={"kind": "batch", "delta": 0.4, "batch_length": 1e1})
        assert main(["run", str(write_spec(tmp_path, spec))]) == EXIT_OK
        resolved = json.loads((tmp_path / "out" / "resolved_spec.json").read_text())
        assert (resolved["horizon"], resolved["replications"]) == (1000, 4)
        assert isinstance(resolved["horizon"], int)
        assert resolved["enforcement"]["batch_length"] == 10

    @pytest.mark.parametrize("mode, extra", [
        ("detection", {"deviations": [{"kind": "stationary", "player": 0, "probs": [0.9, 0.1]}]}),
        ("payoff", {}),
        ("gap", {"gap_family": GAP_FAMILY}),
    ])
    def test_one_replication_exits_1_where_an_sd_is_needed(self, tmp_path, capsys, mode,
                                                           extra):
        spec = base_spec(mode=mode, replications=1, **extra)
        assert main(["run", str(write_spec(tmp_path, spec))]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "replications >= 2" in err

    def test_wrongful_curve_bound_allows_monte_carlo_slack(self, tmp_path):
        # Each player's batch of 20 fair coins is rejected at delta = 0.9 with
        # probability 42 / 2^20, so the true punished fraction at T = 1000 is
        # about 4e-3, above the analytic bound 9.5e-5; 30 replications see no
        # punishment about 89% of the time.
        spec = base_spec(mode="wrongful_curve", replications=30, horizon=1000, seed=11,
                         enforcement={"kind": "batch", "delta": 0.9, "batch_length": 20})
        assert main(["run", str(write_spec(tmp_path, spec))]) == EXIT_OK
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        final = summary["assertions"][-1]
        assert final["name"] == "final_fraction_ge_analytic_bound"
        assert (final["observed"], final["status"]) == (0.0, "pass")

    def test_relative_output_dir_option_is_relative_to_the_working_directory(
            self, tmp_path, monkeypatch):
        (tmp_path / "sub").mkdir()
        write_spec(tmp_path / "sub", base_spec())
        monkeypatch.chdir(tmp_path)
        assert main(["run", "sub/spec.json", "--output-dir", "sub/res"]) == EXIT_OK
        assert (tmp_path / "sub" / "res" / "rows.csv").exists()
        assert not (tmp_path / "sub" / "sub").exists()
        # The spec's own output_dir stays relative to the spec file.
        assert main(["run", "sub/spec.json"]) == EXIT_OK
        assert (tmp_path / "sub" / "out" / "rows.csv").exists()

    def test_gap_rows_all_say_gap(self, tmp_path):
        spec = base_spec(mode="gap", gap_family=GAP_FAMILY, replications=3, horizon=200)
        assert run_experiment(write_spec(tmp_path, spec)) == EXIT_OK
        with open(tmp_path / "out" / "rows.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * (1 + len(GAP_FAMILY))
        assert {row["mode"] for row in rows} == {"gap"}
        assert [row["variant"] for row in rows[::3]] == ["baseline", "defect", "ball"]

    @pytest.mark.parametrize("mode", ["type1", "wrongful_curve"])
    def test_batch_cooperative_modes_reject_deviations(self, tmp_path, capsys, mode):
        # These modes draw cooperative batch counts, so a deviator would be ignored.
        spec = base_spec(
            mode=mode,
            enforcement={"kind": "batch", "delta": 0.3, "batch_length": 10},
            deviations=[{"kind": "stationary", "player": 0, "probs": [0, 1]}],
        )
        assert main(["run", str(write_spec(tmp_path, spec))]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "declared deviations" in err

    def test_batch_adversarial_runs_in_batch_payoff_mode(self, tmp_path):
        # Its batch length and delta come from the enforcement. The schedule
        # (5 defections, 45 cooperations) matches w = (0.9, 0.1) exactly, so
        # player 0's test never rejects.
        spec = base_spec(
            mode="payoff",
            target={"cooperative": [[0.9, 0.1], [0.9, 0.1]], "punishment": "solve"},
            enforcement={"kind": "batch", "delta": 0.3, "batch_length": 50},
            deviations=[{"kind": "batch_adversarial", "player": 0}],
            replications=5,
        )
        code = run_experiment(write_spec(tmp_path, spec))
        assert code in (EXIT_OK, EXIT_ASSERTION_FAILURE)
        rows = (tmp_path / "out" / "rows.csv").read_text().splitlines()
        tau_idx = rows[0].split(",").index("tau_0")
        assert len(rows) == 6
        assert all(line.split(",")[tau_idx] == "" for line in rows[1:])

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

    def test_unknown_mode_in_summary_exits_1(self, tmp_path, capsys):
        run_experiment(write_spec(tmp_path, base_spec()))
        summary_path = tmp_path / "out" / "summary.json"
        summary = json.loads(summary_path.read_text())
        summary_path.write_text(json.dumps({**summary, "mode": "bootstrap"}))
        assert main(["report", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "bootstrap" in err

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

    @pytest.mark.parametrize("overrides, headers, assertions", [
        (dict(enforcement=BATCH_10),
         [["estimate", "value", "wilson 95% CI"]],
         [("per_batch_rate_le_p_L", "pass"), ("type1_rate_le_union_p_L", "pass")]),
        (dict(mode="payoff"),
         [["player", "lower bound", "estimate", "v"]],
         [("payoff_sandwich_player_0", "pass"), ("payoff_sandwich_player_1", "pass")]),
        (dict(mode="payoff", target=NINE_TENTHS, enforcement=BATCH_50, horizon=5000),
         [["player", "lower bound", "estimate", "v"]],
         [("payoff_sandwich_player_0", "pass"), ("payoff_sandwich_player_1", "pass")]),
        (dict(mode="gap", gap_family=GAP_FAMILY, gap_epsilon=0.1),
         [["deviation", "player", "gain", "se"]],
         [("max_gain_le_eps_plus_gamma", "pass")]),
        (dict(mode="gap", gap_family=GAP_FAMILY),
         [["deviation", "player", "gain", "se"],
          ["no assertions for this run: it sets no gap_epsilon"]], []),
        (dict(mode="detection", deviations=[{"kind": "stationary", "player": 0,
                                             "probs": [0.9, 0.1]}]),
         [["estimate", "value"],
          ["no assertions for this run: it sets no min_detection_rate"]], []),
        (dict(mode="wrongful_curve", enforcement=BATCH_10, curve_horizons=[100, 1000]),
         [["horizon", "punished fraction", "analytic lower bound"]],
         [("punished_fraction_nondecreasing", "pass"),
          ("final_fraction_ge_analytic_bound", "pass")]),
        # 2 (1 - 0.9) < delta: a batch of all action 0 is not rejected, so no bound.
        (dict(mode="wrongful_curve", target=NINE_TENTHS, enforcement=BATCH_50),
         [["horizon", "punished fraction", "analytic lower bound"]],
         [("punished_fraction_nondecreasing", "pass")]),
    ], ids=["batch-type1", "anytime-payoff", "batch-payoff", "gap-epsilon", "gap",
            "detection", "curve-bound", "curve-no-bound"])
    def test_report_tables_and_assertions(self, tmp_path, overrides, headers, assertions):
        run_experiment(write_spec(tmp_path, base_spec(**overrides)))
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert [(a["name"], a["status"]) for a in summary["assertions"]] == assertions
        cells = [re.split(r"\s{2,}", line.strip())
                 for line in emit_report(tmp_path / "out").splitlines()]
        for header in headers:
            assert header in cells
        if assertions:
            assert ["assertion", "status", "observed", "bound"] in cells
            assert {tuple(row[:2]) for row in cells} >= set(assertions)
        else:
            assert ["assertion", "status", "observed", "bound"] not in cells


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
