"""Output checks for benchmark operations; each returns a list of problems.

An operation is correct when its check returns an empty list. The checks run
outside the timed region and use only the standard library, so they read
the result files exactly as another program would.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

# Columns of rows.csv that must hold a number or be empty.
NUMERIC_FIXED = ("replication", "seed", "punishment_onset")
NUMERIC_PREFIXES = ("tau_", "payoff_")
MEAN_RTOL = 1e-12


def _parse(cell: str):
    """A cell's number, None for an empty cell; raises ValueError otherwise."""
    if cell == "":
        return None
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {cell!r}")
    return value


def _close(a: float, b: float, rtol: float = MEAN_RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def _mean(values: list) -> float:
    return math.fsum(values) / len(values)


def mc_problems(exit_code, out_dir: Path, expected_rows: int) -> list:
    """Check one ``repgame run``: exit code, rows.csv cells, summary.json vs rows."""
    if exit_code != 0:
        return [f"exit code {exit_code!r}"]
    try:
        with open(out_dir / "rows.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        summary = json.loads((out_dir / "summary.json").read_text())
    except (OSError, ValueError, csv.Error) as exc:
        return [f"unreadable result files: {exc}"]
    problems = []
    if len(rows) != expected_rows:
        problems.append(f"rows.csv has {len(rows)} rows, expected {expected_rows}")
    parsed = []
    for index, row in enumerate(rows):
        numbers = {}
        for column, cell in row.items():
            if column in NUMERIC_FIXED or (column or "").startswith(NUMERIC_PREFIXES):
                try:
                    numbers[column] = _parse(cell or "")
                except ValueError:
                    problems.append(f"row {index}: {column}={cell!r} is not a number")
        parsed.append((row, numbers))
    if problems:
        return problems
    try:
        return _summary_problems(summary, parsed)
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"summary.json lacks what its mode needs: {exc!r}"]


def _summary_problems(summary: dict, parsed: list) -> list:
    mode = summary.get("mode")
    estimates = summary.get("estimates", {})
    if mode == "type1":
        onsets = sum(numbers["punishment_onset"] is not None for _, numbers in parsed)
        if estimates.get("punished") != onsets:
            return [f"summary punished={estimates.get('punished')!r}, "
                    f"rows have {onsets} onsets"]
        return []
    if mode == "payoff":
        return _mean_problems("mean_payoff", estimates.get("mean_payoff"),
                              [numbers for _, numbers in parsed])
    if mode == "gap":
        by_variant = {}
        for row, numbers in parsed:
            by_variant.setdefault(row["variant"], []).append(numbers)
        baseline = estimates.get("baseline_payoff")
        problems = _mean_problems("baseline_payoff", baseline,
                                  by_variant.get("baseline", []))
        if problems:
            return problems
        for entry in summary.get("extras", {}).get("family", []):
            numbers = by_variant.get(entry["label"], [])
            player = entry["player"]
            if not numbers:
                return [f"no rows for variant {entry['label']!r}"]
            gain = _mean([n[f"payoff_{player}"] for n in numbers]) - baseline[player]
            if not _close(gain, entry["gain"]):
                return [f"variant {entry['label']!r}: summary gain {entry['gain']!r}, "
                        f"rows give {gain!r}"]
        return []
    return [f"unexpected mode {mode!r}"]


def _mean_problems(key: str, reported, rows: list) -> list:
    if not rows or not isinstance(reported, list):
        return [f"summary {key}={reported!r} with {len(rows)} rows"]
    for player, value in enumerate(reported):
        column = [numbers.get(f"payoff_{player}") for numbers in rows]
        if None in column:
            return [f"empty payoff_{player} cell"]
        if not _close(_mean(column), value):
            return [f"summary {key}[{player}]={value!r}, rows give {_mean(column)!r}"]
    return []


def onset_problems(onset, expected) -> list:
    """The per-round loop's punishment onset equals the vectorized one."""
    if onset != expected:
        return [f"run_episode onset {onset!r}, Monte Carlo onset {expected!r}"]
    return []


def close_problems(actual, expected, atol: float) -> list:
    """Elementwise |actual - expected| <= atol."""
    actual, expected = [float(x) for x in actual], [float(x) for x in expected]
    if len(actual) != len(expected) or any(
        not abs(a - e) <= atol for a, e in zip(actual, expected)
    ):
        return [f"payoffs {actual!r}, expected {expected!r} within {atol}"]
    return []


def oracle_problems(value, gamma: float) -> list:
    """The exact crossing probability respects the Ville bound."""
    if not value <= gamma:
        return [f"oracle crossing probability {value!r} > gamma={gamma!r}"]
    return []
