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

from .bounds import BoundParamError, tuned_batch_params
from .game import (
    GameError,
    MixedProfile,
    PayoffTarget,
    StageGame,
    load_game,
    solve_bimatrix_nash,
)
from .simulate import INCONCLUSIVE, KINDS, MODES, EpisodeConfig, MonteCarloReport, monte_carlo
from .strategies import ConfigurationError, make_deviation

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_ASSERTION_FAILURE = 2


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


# Top-level spec fields with their types; each mode in MODES adds the
# fields its checks read.
_SPEC_FIELDS = {
    "mode": str, "replications": int, "horizon": int, "beta": float, "seed": int,
    "enforcement": dict, "deviations": list, "gap_family": list,
    "curve_horizons": [int], "output_dir": str,
}


def _typed(where: str, name: str, value, kind):
    """``value`` read as ``kind``, or a SpecError naming the field.

    A number field takes a number or a numeric string, never a boolean; an
    int field takes an integral float such as 1e5, but not 10.7. ``[kind]``
    reads a list of ``kind``.
    """
    if isinstance(kind, list):
        return [_typed(where, name, v, kind[0]) for v in _typed(where, name, value, list)]
    if kind in (str, list, dict):
        ok = isinstance(value, kind)
    else:  # int or float
        ok = isinstance(value, (int, float, str)) and not isinstance(value, bool)
        if kind is int and isinstance(value, float):
            ok = value.is_integer()
    if ok:
        try:
            return kind(value)
        except ValueError:
            pass
    raise SpecError(f"invalid {where} field {name!r}: {value!r}")


def _read_fields(where: str, doc: dict, fields: dict) -> dict:
    return {name: _typed(where, name, doc[name], kind)
            for name, kind in fields.items() if name in doc}


def _mode(name):
    """The MODES entry of a mode name, or a SpecError."""
    if not isinstance(name, str) or name not in MODES:
        raise SpecError(f"unknown Monte Carlo mode {name!r}")
    return MODES[name]


def _resolve_enforcement(spec: dict) -> dict:
    kind = spec.get("kind")
    if kind == "batch_tuned":  # spec-only; build_config resolves it to batch
        fields = {"epsilon": float}
    elif isinstance(kind, str) and kind in KINDS:
        fields = KINDS[kind].fields
    else:
        raise SpecError(f"unknown enforcement kind {kind!r}")
    for name in fields:
        _require(spec, name)
    return {"kind": kind, **_read_fields("enforcement", spec, fields)}


def _build_strategy(entry: dict, game: StageGame, target: PayoffTarget,
                    enforcement: dict):
    if not isinstance(entry, dict):
        raise SpecError(f"deviation entry must be an object, got {entry!r}")
    params = {"player": 0, **entry, "game": game, "target": target,
              "enforcement": enforcement}
    try:
        player = int(params["player"])
        if not 0 <= player < game.num_players:
            raise ConfigurationError(f"player {player} out of range")
        return player, make_deviation(entry.get("kind"), params)
    except (ConfigurationError, GameError, TypeError, ValueError) as exc:
        raise SpecError(f"invalid deviation {entry!r}: {exc}") from exc


def build_config(doc: dict, base_dir: Path | None = None):
    """Resolve a spec document into an EpisodeConfig plus resolved metadata.

    Every field is read and typed here, before any replication runs.
    """
    base_dir = base_dir or Path.cwd()
    fields = _read_fields("spec", doc, _SPEC_FIELDS)
    fields.update(_read_fields("spec", doc, _mode(fields.get("mode")).fields))
    game = _resolve_game(doc, base_dir)
    target = _resolve_target(doc, game)
    enforcement = _resolve_enforcement(fields["enforcement"])
    if enforcement["kind"] == "batch_tuned":
        try:
            schedule = tuned_batch_params(
                enforcement["epsilon"], game.max_action_count, game.num_players
            )
        except BoundParamError as exc:
            raise SpecError(f"invalid enforcement field 'epsilon': {exc}") from None
        enforcement = {
            "kind": "batch",
            "delta": schedule.delta,
            "batch_length": schedule.batch_length,
            "epsilon": enforcement["epsilon"],
            "beta_pow_l_window": list(schedule.beta_pow_l_window),
        }
    deviations = {}
    for entry in fields.get("deviations", []):
        player, strategy = _build_strategy(entry, game, target, enforcement)
        deviations[player] = strategy
    gap_family = []
    for entry in fields.get("gap_family", []):
        player, strategy = _build_strategy(entry, game, target, enforcement)
        gap_family.append((entry.get("label", entry.get("kind")), player, strategy))
    try:
        config = EpisodeConfig(
            game=game,
            target=target,
            beta=fields["beta"],
            horizon=fields["horizon"],
            seed=fields["seed"],
            monitoring=doc.get("monitoring", "imperfect"),
            enforcement=enforcement["kind"],
            gamma=enforcement.get("gamma"),
            delta=enforcement.get("delta"),
            batch_length=enforcement.get("batch_length"),
            deviations=deviations,
            gap_family=gap_family,
            curve_horizons=tuple(fields.get("curve_horizons", ())),
        )
    except GameError as exc:
        raise SpecError(f"invalid episode configuration: {exc}") from exc
    resolved = {**doc, **fields}
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


def evaluate_assertions(spec: dict, config: EpisodeConfig, report: MonteCarloReport) -> list:
    """The mode's pass/fail checks of the report against the theoretical bounds.

    Rate assertions over censored data are marked ``INCONCLUSIVE`` when the
    horizon is below the spec's ``conclusive_horizon``.
    """
    return MODES[report.mode].checks(spec, config, report)


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
        config, _, resolved = build_config(doc, base_dir)
        # --output-dir is relative to the working directory, the spec's own
        # output_dir to the spec file.
        out_dir = (Path(output_dir) if output_dir
                   else base_dir / resolved.get("output_dir", "results"))
        report = monte_carlo(config, resolved["mode"], resolved["replications"])
    except (SpecError, GameError, ConfigurationError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    assertions = evaluate_assertions(resolved, config, report)
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
    mode = _mode(summary["mode"])
    sections = [
        f"experiment: {summary['experiment_id']}",
        f"mode: {summary['mode']}   replications: {summary['replications']}   "
        f"seed: {summary['base_seed']}",
        f"truncation certificate (beta^T): {summary['truncation_certificate']:.6g}",
        "",
    ]
    for block in mode.tables(summary):
        sections += [block if isinstance(block, str) else _format_table(*block), ""]
    if summary["assertions"]:
        table = [
            [a["name"], a["status"], _fmt(a["observed"]), _fmt(a["bound"])]
            for a in summary["assertions"]
        ]
        sections.append(_format_table(["assertion", "status", "observed", "bound"], table))
    else:
        sections.append(mode.no_assertions)
    sections.append(f"rows: {len(rows)}")
    return "\n".join(sections) + "\n"
