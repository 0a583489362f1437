"""Experiment specs, result persistence, and report rendering.

An experiment spec is a JSON document naming a game, a payoff target, an
enforcement kind, a Monte Carlo mode, and sampling parameters. Running it
produces three files in the output directory:

* ``rows.csv`` — one row per replication with a fixed, versioned column set;
* ``summary.json`` — estimates, intervals, theoretical bounds, and the
  pass/fail status of every assertable inequality;
* ``resolved_spec.json`` — the fully resolved configuration, which reloads
  to identical results.

Replications with no rejection before the horizon record an absent rejection
time, never tau = T; rate estimates over such runs are censored lower bounds
and assertions that depend on them are marked
``inconclusive: horizon certificate`` when the horizon is too short to treat
censoring as negligible. All result files are written atomically
(write-then-rename).
"""
from __future__ import annotations

import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .bounds import batch_error_bounds, tuned_batch_params
from .game import (
    GameError,
    MixedProfile,
    PayoffTarget,
    StageGame,
    load_game,
    solve_bimatrix_nash,
)
from .simulate import EpisodeConfig, MonteCarloReport, monte_carlo, wilson_interval
from .strategies import ConfigurationError, make_deviation

SCHEMA_VERSION = 1
DEFAULT_CONCLUSIVE_HORIZON = 10_000

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_ASSERTION_FAILURE = 2

INCONCLUSIVE = "inconclusive: horizon certificate"


class SpecError(ValueError):
    """Experiment spec missing, malformed, or schema-invalid."""


def _fmt(value) -> str:
    """Serialize a cell; floats keep 17 significant digits for round-trips."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _require(doc: dict, key: str):
    if key not in doc:
        raise SpecError(f"spec is missing required field {key!r}")
    return doc[key]


def load_spec(spec_path) -> dict:
    """Load and validate an experiment spec document."""
    path = Path(spec_path)
    if not path.exists():
        raise SpecError(f"config not found: {path}")
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecError("spec document must be a JSON object")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise SpecError(f"unsupported schema_version {version}")
    for key in ("game", "target", "enforcement", "mode", "replications",
                "horizon", "beta", "seed"):
        _require(doc, key)
    return doc


def _resolve_game(doc: dict, base_dir: Path) -> StageGame:
    source = doc["game"]
    if isinstance(source, str):
        path = Path(source)
        if not path.is_absolute():
            path = base_dir / path
        if not path.exists():
            raise SpecError(f"game file not found: {path}")
        return load_game(path)
    return load_game(source)


def _resolve_target(doc: dict, game: StageGame) -> PayoffTarget:
    spec = doc["target"]
    try:
        cooperative = MixedProfile(tuple(spec["cooperative"]))
        punishment = spec.get("punishment", "solve")
        if punishment == "solve":
            punishment = solve_bimatrix_nash(game)
        else:
            punishment = MixedProfile(tuple(punishment))
        return PayoffTarget.from_profiles(game, cooperative, punishment)
    except (KeyError, TypeError) as exc:
        raise SpecError(f"malformed target: {exc}") from exc
    except GameError as exc:
        raise SpecError(f"invalid target: {exc}") from exc


def _resolve_enforcement(doc: dict) -> dict:
    spec = doc["enforcement"]
    kind = spec.get("kind")
    if kind == "anytime":
        return {"kind": "anytime", "gamma": float(_require(spec, "gamma"))}
    if kind == "batch":
        return {
            "kind": "batch",
            "delta": float(_require(spec, "delta")),
            "batch_length": int(_require(spec, "batch_length")),
        }
    if kind == "batch_tuned":
        return {"kind": "batch_tuned", "epsilon": float(_require(spec, "epsilon"))}
    if kind == "grim":
        return {"kind": "grim"}
    raise SpecError(f"unknown enforcement kind {kind!r}")


def _build_strategy(entry: dict, game: StageGame, target: PayoffTarget,
                    enforcement: dict):
    kind = entry.get("kind")
    player = int(entry.get("player", 0))
    params = {"game": game, "target": target, "player": player}
    if kind == "stationary":
        params = {"probs": _require(entry, "probs")}
    elif kind == "small_ball":
        params["epsilon"] = float(_require(entry, "epsilon"))
        params["direction"] = entry.get("direction")
    elif kind == "batch_adversarial":
        params["batch_length"] = int(
            entry.get("batch_length", enforcement.get("batch_length", 0))
        )
        params["delta"] = float(entry.get("delta", enforcement.get("delta", 0.0)))
    else:
        raise SpecError(f"unknown deviation kind {kind!r}")
    try:
        return player, make_deviation(kind, params)
    except (ConfigurationError, GameError, KeyError) as exc:
        raise SpecError(f"invalid deviation {entry!r}: {exc}") from exc


def build_config(doc: dict, base_dir: Path | None = None):
    """Resolve a spec document into an EpisodeConfig plus resolved metadata."""
    base_dir = base_dir or Path.cwd()
    game = _resolve_game(doc, base_dir)
    target = _resolve_target(doc, game)
    enforcement = _resolve_enforcement(doc)
    if enforcement["kind"] == "batch_tuned":
        schedule = tuned_batch_params(
            enforcement["epsilon"], game.max_action_count, game.num_players
        )
        enforcement = {
            "kind": "batch",
            "delta": schedule.delta,
            "batch_length": schedule.batch_length,
            "epsilon": enforcement["epsilon"],
            "beta_pow_l_window": list(schedule.beta_pow_l_window),
        }
    deviations = {}
    for entry in doc.get("deviations", []):
        player, strategy = _build_strategy(entry, game, target, enforcement)
        deviations[player] = strategy
    gap_family = []
    for entry in doc.get("gap_family", []):
        player, strategy = _build_strategy(entry, game, target, enforcement)
        gap_family.append((entry.get("label", entry.get("kind")), player, strategy))
    try:
        config = EpisodeConfig(
            game=game,
            target=target,
            beta=float(doc["beta"]),
            horizon=int(doc["horizon"]),
            seed=int(doc["seed"]),
            monitoring=doc.get("monitoring", "imperfect"),
            enforcement=enforcement["kind"],
            gamma=enforcement.get("gamma"),
            delta=enforcement.get("delta"),
            batch_length=enforcement.get("batch_length"),
            deviations=deviations,
            gap_family=gap_family,
            curve_horizons=tuple(doc.get("curve_horizons", ())),
        )
    except GameError as exc:
        raise SpecError(f"invalid episode configuration: {exc}") from exc
    resolved = dict(doc)
    resolved["schema_version"] = SCHEMA_VERSION
    resolved["enforcement"] = enforcement
    resolved["target"] = {
        "v": [float(x) for x in target.v],
        "cooperative": [a.probs.tolist() for a in target.cooperative.actions],
        "punishment": [a.probs.tolist() for a in target.punishment.actions],
    }
    resolved["game"] = {
        "num_players": game.num_players,
        "action_counts": list(game.action_counts),
        "utilities": [u.tolist() for u in game.utilities],
    }
    return config, enforcement, resolved


# ---------------------------------------------------------------------------
# Assertions
# ---------------------------------------------------------------------------


def _assertion(name, status, observed, bound, note=""):
    return {
        "name": name,
        "status": status,
        "observed": observed,
        "bound": bound,
        "note": note,
    }


def evaluate_assertions(doc: dict, config: EpisodeConfig, enforcement: dict,
                        report: MonteCarloReport) -> list:
    """Mode-specific pass/fail checks against the theoretical bounds.

    Rate assertions over censored data pass only when the horizon reaches
    the conclusive threshold; below it a non-violating rate is marked
    inconclusive because unobserved rejections past T cannot be excluded.
    """
    conclusive = int(doc.get("conclusive_horizon", DEFAULT_CONCLUSIVE_HORIZON))
    out = []
    if report.mode == "type1":
        rate = report.estimates["punished_rate_censored"]
        _, upper = report.intervals["punished_rate_censored"]
        if enforcement["kind"] == "anytime":
            bound = enforcement["gamma"]
            name = "type1_rate_le_gamma"
        else:
            p_l, _, _ = batch_error_bounds(
                config.game.max_action_count, config.game.num_players,
                config.batch_length, config.delta, config.beta,
            )
            horizon_batches = config.horizon // config.batch_length
            bound = min(1.0, p_l * horizon_batches)
            name = "type1_rate_le_union_p_L"
            batch_rate = report.estimates["per_batch_rejection_rate"]
            _, batch_upper = report.intervals["per_batch_rejection_rate"]
            slack = max(p_l, batch_upper - batch_rate)
            status = "pass" if batch_rate <= p_l + slack else "fail"
            out.append(
                _assertion("per_batch_rate_le_p_L", status, batch_rate, p_l)
            )
        slack = upper - rate
        if rate > bound + slack:
            status = "fail"
        elif config.horizon < conclusive:
            status = INCONCLUSIVE
        else:
            status = "pass"
        out.append(
            _assertion(
                name, status, rate, bound,
                note="censored lower bound on the wrongful-punishment probability",
            )
        )
    elif report.mode == "detection":
        minimum = doc.get("min_detection_rate")
        if minimum is not None:
            rate = report.estimates["detected_rate"]
            status = "pass" if rate >= float(minimum) else "fail"
            out.append(_assertion("detected_rate_ge_min", status, rate, float(minimum)))
    elif report.mode == "payoff":
        lower = report.extras["theoretical_lower"]
        upper = report.extras["theoretical_upper"]
        mean = report.estimates["mean_payoff"]
        se = report.estimates["payoff_se"]
        cert = report.truncation_certificate
        for i in range(config.game.num_players):
            ok = (lower[i] - 3.0 * se[i] <= mean[i] <= upper[i] + 3.0 * se[i] + cert)
            out.append(
                _assertion(
                    f"payoff_sandwich_player_{i}",
                    "pass" if ok else "fail",
                    mean[i],
                    [lower[i], upper[i]],
                    note="bounds widened by 3 SE (+ truncation certificate above)",
                )
            )
    elif report.mode == "gap":
        epsilon = doc.get("gap_epsilon")
        if epsilon is not None:
            bound = float(epsilon) + (config.gamma or 0.0)
            gain = report.estimates["max_gain"]
            se = report.estimates["max_gain_se"]
            status = "pass" if gain <= bound + 3.0 * se else "fail"
            out.append(
                _assertion("max_gain_le_eps_plus_gamma", status, gain, bound,
                           note="bound widened by 3 SE")
            )
    elif report.mode == "wrongful_curve":
        curve = report.estimates["curve"]
        fracs = [point["punished_fraction"] for point in curve]
        monotone = all(a <= b + 1e-12 for a, b in zip(fracs, fracs[1:]))
        out.append(
            _assertion("punished_fraction_nondecreasing",
                       "pass" if monotone else "fail", fracs, None)
        )
        last = curve[-1]
        if last["analytic_lower_bound"] is not None:
            ok = last["punished_fraction"] >= last["analytic_lower_bound"]
            out.append(
                _assertion("final_fraction_ge_analytic_bound",
                           "pass" if ok else "fail",
                           last["punished_fraction"], last["analytic_lower_bound"])
            )
    return out


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _row_columns(num_players: int) -> list:
    cols = ["schema_version", "experiment_id", "mode", "variant",
            "replication", "seed", "punishment_onset"]
    cols += [f"tau_{i}" for i in range(num_players)]
    cols += [f"payoff_{i}" for i in range(num_players)]
    return cols


def write_rows(path: Path, report: MonteCarloReport, experiment_id: str,
               num_players: int) -> None:
    cols = _row_columns(num_players)
    lines = [",".join(cols)]
    for row in report.rows:
        record = {
            "schema_version": SCHEMA_VERSION,
            "experiment_id": experiment_id,
            **row,
        }
        lines.append(",".join(_fmt(record.get(c)) for c in cols))
    _atomic_write(path, "\n".join(lines) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def run_experiment(spec_path, output_dir=None) -> int:
    """Execute a spec end to end; returns the process exit code.

    Exit 0 on success, 2 when any assertable inequality fails, 1 on any
    configuration problem (missing file, schema violation, simplex
    violation), each with a distinct diagnostic on stderr.
    """
    try:
        doc = load_spec(spec_path)
        base_dir = Path(spec_path).resolve().parent
        config, enforcement, resolved = build_config(doc, base_dir)
        out_dir = Path(output_dir or doc.get("output_dir", "results"))
        if not out_dir.is_absolute():
            out_dir = base_dir / out_dir
        mode = doc["mode"]
        replications = int(doc["replications"])
        report = monte_carlo(config, mode, replications)
    except (SpecError, GameError, ConfigurationError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    assertions = evaluate_assertions(doc, config, enforcement, report)
    out_dir.mkdir(parents=True, exist_ok=True)
    experiment_id = doc.get("experiment_id", Path(spec_path).stem)
    write_rows(out_dir / "rows.csv", report, experiment_id, config.game.num_players)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "experiment_id": experiment_id,
        "mode": report.mode,
        "replications": report.replications,
        "base_seed": report.base_seed,
        "estimates": _jsonable(report.estimates),
        "intervals": _jsonable(report.intervals),
        "survival": _jsonable(report.survival),
        "truncation_certificate": report.truncation_certificate,
        "extras": _jsonable(report.extras),
        "assertions": _jsonable(assertions),
    }
    _atomic_write(out_dir / "summary.json", json.dumps(summary, indent=2) + "\n")
    _atomic_write(out_dir / "resolved_spec.json",
                  json.dumps(_jsonable(resolved), indent=2) + "\n")
    if any(a["status"] == "fail" for a in assertions):
        print("assertion failure: see summary.json", file=sys.stderr)
        return EXIT_ASSERTION_FAILURE
    return EXIT_OK


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def _format_table(headers, rows) -> str:
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    def line(cells):
        return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths))
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(r) for r in rows)
    return "\n".join(out)


def emit_report(result_dir) -> str:
    """Render a human-readable report for a finished experiment directory."""
    result_dir = Path(result_dir)
    summary_path = result_dir / "summary.json"
    rows_path = result_dir / "rows.csv"
    if not summary_path.exists() or not rows_path.exists():
        raise SpecError(f"missing result files in {result_dir}")
    with open(summary_path) as fh:
        summary = json.load(fh)
    with open(rows_path) as fh:
        try:
            rows = list(csv.DictReader(fh))
        except csv.Error as exc:
            raise SpecError(f"corrupt rows file: {exc}") from exc
    mode = summary["mode"]
    sections = [
        f"experiment: {summary['experiment_id']}",
        f"mode: {mode}   replications: {summary['replications']}   "
        f"seed: {summary['base_seed']}",
        f"truncation certificate (beta^T): {summary['truncation_certificate']:.6g}",
        "",
    ]
    est = summary["estimates"]
    if mode == "type1":
        low, high = summary["intervals"]["punished_rate_censored"]
        table = [["punished rate (censored)",
                  f"{est['punished_rate_censored']:.6g}",
                  f"[{low:.6g}, {high:.6g}]"]]
        if "per_batch_rejection_rate" in est:
            blow, bhigh = summary["intervals"]["per_batch_rejection_rate"]
            table.append(["per-batch rejection rate",
                          f"{est['per_batch_rejection_rate']:.6g}",
                          f"[{blow:.6g}, {bhigh:.6g}]"])
        sections.append(_format_table(["estimate", "value", "wilson 95% CI"], table))
    elif mode == "detection":
        table = [
            ["detected rate", f"{est['detected_rate']:.6g}"],
            ["mean tau (censored)", f"{est['mean_tau_censored']:.6g}"],
            ["median tau (censored)", f"{est['median_tau_censored']:.6g}"],
            ["q90 tau (censored)", f"{est['q90_tau_censored']:.6g}"],
        ]
        sections.append(_format_table(["estimate", "value"], table))
        if summary.get("survival"):
            sections.append("")
            sections.append(_format_table(
                ["t", "P(tau >= t)"],
                [[t, f"{p:.6g}"] for t, p in summary["survival"]],
            ))
    elif mode == "payoff":
        lower = summary["extras"]["theoretical_lower"]
        upper = summary["extras"]["theoretical_upper"]
        table = [
            [i, f"{lower[i]:.6g}", f"{m:.6g}", f"{upper[i]:.6g}"]
            for i, m in enumerate(est["mean_payoff"])
        ]
        sections.append(_format_table(
            ["player", "lower bound", "estimate", "v"], table))
    elif mode == "gap":
        table = [
            [e["label"], e["player"], f"{e['gain']:.6g}", f"{e['gain_se']:.3g}"]
            for e in summary["extras"]["family"]
        ]
        sections.append(_format_table(["deviation", "player", "gain", "se"], table))
        sections.append("")
        sections.append(f"max gain: {est['max_gain']:.6g} ({est['max_gain_label']})")
    elif mode == "wrongful_curve":
        table = [
            [p["horizon"], f"{p['punished_fraction']:.6g}",
             "-" if p["analytic_lower_bound"] is None
             else f"{p['analytic_lower_bound']:.6g}"]
            for p in est["curve"]
        ]
        sections.append(_format_table(
            ["horizon", "punished fraction", "analytic lower bound"], table))
    sections.append("")
    if summary["assertions"]:
        table = [
            [a["name"], a["status"], _fmt(a["observed"]), _fmt(a["bound"])]
            for a in summary["assertions"]
        ]
        sections.append(_format_table(["assertion", "status", "observed", "bound"], table))
    else:
        sections.append("no assertable inequalities for this mode")
    sections.append(f"rows: {len(rows)}")
    return "\n".join(sections) + "\n"
