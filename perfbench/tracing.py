"""Span tracing for the traced run, installed from outside repgame.

Each wrapper replaces a module-level function on the module where callers
look it up (``repgame.simulate.eprocess_update``, not
``repgame.sequential.eprocess_update``, because ``simulate`` imports it by
name). A span records its name, start, end and parent. Spans and per-name
totals live in per-thread state, because ``_map_reps`` runs replications on
worker threads, and are merged and written out when the run ends.

A span's self time is its duration minus the part of it that child spans
cover. Children of ``_map_reps`` run on other threads, so its self time is
its wall time minus the union of its replication spans.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows_bytes(counters, args, kwargs, result):
    counters["experiment.write_rows.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _draws(counters, args, kwargs, result):
    counters["simulate.draw_actions.draws"] += int(_arg(args, kwargs, 2, "size"))


def _rounds_scored(counters, args, kwargs, result):
    counters["simulate.eprocess.rounds_scored"] += _arg(args, kwargs, 0, "actions").size


def _useful_rounds(counters, args, kwargs, result):
    # Rounds a player's test scores at or before the replication's onset.
    horizon = _arg(args, kwargs, 0, "config").horizon
    taus, onset, _ = result
    useful = horizon if onset is None else min(onset, horizon)
    counters["simulate.eprocess.useful_rounds"] += useful * len(taus)


def _batches(counters, args, kwargs, result):
    counters["simulate.batch_test.batches"] += _arg(args, kwargs, 0, "counts").shape[0]


def _post_onset(counters, args, kwargs, result):
    horizon = _arg(args, kwargs, 0, "config").horizon
    onset = _arg(args, kwargs, 3, "onset")
    cut = horizon if onset is None else min(onset, horizon)
    counters["simulate.spliced_payoff.rounds"] += horizon
    counters["simulate.spliced_payoff.post_onset_rounds"] += horizon - cut


def _episode_rounds(counters, args, kwargs, result):
    counters["simulate.run_episode.rounds"] += _arg(args, kwargs, 0, "config").horizon


def _history_scan(counters, args, kwargs, result):
    counters["strategies.grim_trigger_act.history_rounds_scanned"] += len(
        _arg(args, kwargs, 0, "history").rounds)


# (module, attribute, span name, counter hook). The span name's first part is
# the layer it is charged to; _map_reps gets the thread-aware wrapper.
TRACED = [
    ("repgame.cli", "main", "cli.main", None),
    ("repgame.cli", "run_experiment", "experiment.run_experiment", None),
    ("repgame.experiment", "load_spec", "experiment.load_spec", None),
    ("repgame.experiment", "build_config", "experiment.build_config", None),
    ("repgame.experiment", "evaluate_assertions", "experiment.evaluate_assertions", None),
    ("repgame.experiment", "write_rows", "experiment.write_rows", _rows_bytes),
    ("repgame.experiment", "_atomic_write", "experiment.atomic_write", None),
    ("repgame.experiment", "load_game", "game.load_game", None),
    ("repgame.experiment", "solve_bimatrix_nash", "game.solve_bimatrix_nash", None),
    ("repgame.experiment", "make_deviation", "strategies.make_deviation", None),
    ("repgame.experiment", "tuned_batch_params", "bounds.tuned_batch_params", None),
    ("repgame.experiment", "batch_error_bounds", "bounds.batch_error_bounds", None),
    ("repgame.experiment", "monte_carlo", "simulate.monte_carlo", None),
    ("repgame.simulate", "_map_reps", "simulate.map_reps", None),
    ("repgame.simulate", "_stream", "simulate.stream", None),
    ("repgame.simulate", "_draw_actions", "simulate.draw_actions", _draws),
    ("repgame.simulate", "_anytime_rep", "simulate.anytime_rep", _useful_rounds),
    ("repgame.simulate", "_eprocess_tau", "simulate.eprocess", _rounds_scored),
    ("repgame.simulate", "_batch_counts", "simulate.batch_test", None),
    ("repgame.simulate", "_batch_kappa", "simulate.batch_test", _batches),
    ("repgame.simulate", "_spliced_payoff", "simulate.spliced_payoff", _post_onset),
    ("repgame.simulate", "_joint_stage_payoffs", "simulate.joint_stage_payoffs", None),
    ("repgame.simulate", "batch_error_bounds", "bounds.batch_error_bounds", None),
    ("repgame.simulate", "run_episode", "simulate.run_episode", _episode_rounds),
    ("repgame.simulate", "sample_action", "simulate.sample_action", None),
    ("repgame.simulate", "expected_utility", "game.expected_utility", None),
    ("repgame.simulate", "eprocess_update", "sequential.eprocess_update", None),
    ("repgame.simulate", "anytime_verdict", "sequential.anytime_verdict", None),
    ("repgame.simulate", "batch_update", "sequential.batch_update", None),
    ("repgame.simulate", "anytime_ttp_act", "strategies.anytime_ttp_act", None),
    ("repgame.simulate", "batch_ttp_act", "strategies.batch_ttp_act", None),
    ("repgame.simulate", "grim_trigger_act", "strategies.grim_trigger_act", _history_scan),
    ("repgame.simulate", "eprocess_exact_oracle", "simulate.eprocess_exact_oracle", None),
]

LAYERS = ("cli", "experiment", "game", "sequential", "strategies", "simulate", "bounds")

# Per-layer metrics: (name, unit, better, which end-to-end metric it should
# move on which workload). busy_s is self time; every value except the
# ratios is a mean per traced operation over whole cycles, so counts repeat
# exactly for one seed.
MB = "op_s.* and setup_s, most on batch_payoff (cheapest reps)"
MR = "reps_per_s and op_s.* on reference_paths only"
LAYER_METRICS = [
    ("experiment.run_experiment.busy_s", "s", "lower", "op_s.* on every Monte Carlo workload"),
    ("experiment.load_spec.busy_s", "s", "lower", MB),
    ("experiment.build_config.busy_s", "s", "lower", MB),
    ("game.solve_bimatrix_nash.busy_s", "s", "lower", MB),
    ("game.solve_bimatrix_nash.calls", "count", "lower", MB),
    ("strategies.make_deviation.calls", "count", "lower", "op_s.* on anytime_gap"),
    ("experiment.evaluate_assertions.busy_s", "s", "lower", MB),
    ("experiment.write_rows.busy_s", "s", "lower", "op_s.* on anytime_gap (most rows)"),
    ("experiment.write_rows.bytes", "B", "lower", "op_s.* on anytime_gap (most rows)"),
    ("experiment.atomic_write.busy_s", "s", "lower", "op_s.* on anytime_gap (most rows)"),
    ("simulate.monte_carlo.busy_s", "s", "lower", "op_s.* on every Monte Carlo workload"),
    ("simulate.map_reps.busy_s", "s", "lower", "op_s.* on every Monte Carlo workload"),
    ("simulate.map_reps.wall_s", "s", "lower", "reps_per_s on every Monte Carlo workload"),
    ("simulate.map_reps.rep_busy_s", "s", "lower", "cpu_ms_per_rep on every Monte Carlo workload"),
    ("simulate.map_reps.efficiency", "ratio", "higher",
     "reps_per_s with more than one worker; about 1 at the benchmark's one worker"),
    ("simulate.stream.calls", "count", "lower", "reps_per_s on batch_payoff and anytime_gap"),
    ("simulate.stream.busy_s", "s", "lower", "reps_per_s on batch_payoff and anytime_gap"),
    ("simulate.draw_actions.busy_s", "s", "lower",
     "reps_per_s on batch_payoff, anytime_gap, and anytime_type1"),
    ("simulate.draw_actions.draws", "count", "lower",
     "reps_per_s on batch_payoff, anytime_gap, and anytime_type1"),
    ("simulate.eprocess.busy_s", "s", "lower",
     "reps_per_s on anytime_type1 and anytime_gap; 0 on batch_payoff"),
    ("simulate.eprocess.rounds_scored", "count", "lower",
     "reps_per_s on anytime_type1 and anytime_gap; 0 on batch_payoff"),
    ("simulate.eprocess.useful_frac", "ratio", "higher",
     "reps_per_s on anytime_gap (about 0.18); about 1 on anytime_type1"),
    ("simulate.batch_test.busy_s", "s", "lower", "reps_per_s on batch_payoff; 0 on anytime"),
    ("simulate.batch_test.batches", "count", "lower", "reps_per_s on batch_payoff; 0 on anytime"),
    ("simulate.spliced_payoff.busy_s", "s", "lower", "reps_per_s on batch_payoff and anytime_gap"),
    ("simulate.spliced_payoff.post_onset_frac", "ratio", "lower",
     "reps_per_s on anytime_gap (about 0.82); about 0 on batch_payoff"),
    ("simulate.joint_stage_payoffs.busy_s", "s", "lower",
     "reps_per_s on batch_payoff and anytime_gap; 0 on anytime_type1"),
    ("simulate.run_episode.busy_s", "s", "lower", MR),
    ("simulate.run_episode.rounds", "count", "lower", MR),
    ("simulate.run_episode.us_per_round", "us", "lower", MR),
    ("simulate.sample_action.busy_s", "s", "lower", MR),
    ("simulate.sample_action.calls", "count", "lower", MR),
    ("sequential.eprocess_update.busy_s", "s", "lower", MR),
    ("sequential.eprocess_update.calls", "count", "lower", MR),
    ("sequential.anytime_verdict.busy_s", "s", "lower", MR),
    ("sequential.anytime_verdict.calls", "count", "lower", MR),
    ("sequential.batch_update.busy_s", "s", "lower", MR),
    ("sequential.batch_update.calls", "count", "lower", MR),
    ("strategies.anytime_ttp_act.busy_s", "s", "lower", MR),
    ("strategies.anytime_ttp_act.calls", "count", "lower", MR),
    ("strategies.batch_ttp_act.busy_s", "s", "lower", MR),
    ("strategies.batch_ttp_act.calls", "count", "lower", MR),
    ("strategies.grim_trigger_act.busy_s", "s", "lower", MR),
    ("strategies.grim_trigger_act.calls", "count", "lower", MR),
    ("strategies.grim_trigger_act.history_rounds_scanned", "count", "lower",
     "reps_per_s and op_s.p90 on reference_paths (grim is quadratic)"),
    ("simulate.eprocess_exact_oracle.busy_s", "s", "lower", MR),
] + [
    (f"layer.{layer}.self_s", "s", "lower", "self time of the whole layer, every workload")
    for layer in LAYERS
] + [
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced time per operation"),
    ("trace.overhead_frac", "ratio", "lower", "none: tracing overhead over untraced time"),
]


class _Frame:
    __slots__ = ("name", "span_id", "parent", "start", "end", "child_ns", "intervals")

    def __init__(self, name, span_id, parent, intervals):
        self.name, self.span_id, self.parent = name, span_id, parent
        self.child_ns = 0
        self.intervals = intervals
        self.end = 0
        self.start = time.perf_counter_ns()


class _ThreadState:
    def __init__(self):
        self.ident = threading.get_ident()
        self.stack = []
        self.totals = {}  # name -> [calls, inclusive ns, self ns]
        self.counters = _Counter()
        self.spans = []


class _Counter(dict):
    def __missing__(self, key):
        return 0


def _union_ns(intervals, lo, hi) -> int:
    covered, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


class Tracer:
    """Per-thread span recorder with install/uninstall of the wrappers."""

    def __init__(self, max_spans: int = 100_000):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self._ids = itertools.count(1)
        self.max_spans = max_spans
        self.kept_spans = 0
        self.dropped_spans = 0
        self._saved = []
        self.missing = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
        return state

    def enter(self, name, parent=None, intervals=None) -> _Frame:
        stack = self._state().stack
        if parent is None:
            parent = stack[-1].span_id if stack else 0
        frame = _Frame(name, next(self._ids), parent, intervals)
        stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        frame.end = end = time.perf_counter_ns()
        state = self._state()
        state.stack.pop()
        duration = end - frame.start
        if frame.intervals is None:
            covered = frame.child_ns
        else:
            covered = _union_ns(frame.intervals, frame.start, end)
        total = state.totals.get(frame.name)
        if total is None:
            total = state.totals[frame.name] = [0, 0, 0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - covered
        if state.stack:
            state.stack[-1].child_ns += duration
        if self.kept_spans < self.max_spans:
            self.kept_spans += 1
            state.spans.append((frame.span_id, frame.parent, state.ident,
                                frame.name, frame.start, end))
        else:
            self.dropped_spans += 1

    def _wrap(self, name, fn, hook):
        enter, exit_, state = self.enter, self.exit, self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame)
            if hook is not None:
                hook(state().counters, args, kwargs, result)
            return result

        return wrapper

    def _wrap_map_reps(self, fn):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(rep_fn, replications):
            frame = enter("simulate.map_reps", intervals=[])

            def traced_rep(rep):
                rep_frame = enter("simulate.map_reps.rep", parent=frame.span_id)
                try:
                    return rep_fn(rep)
                finally:
                    exit_(rep_frame)
                    frame.intervals.append((rep_frame.start, rep_frame.end))

            try:
                return fn(traced_rep, replications)
            finally:
                exit_(frame)

        return wrapper

    def install(self) -> None:
        """Replace every traced function; a missing one is recorded, not fatal."""
        missing = []
        for module_name, attr, name, hook in TRACED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            if name == "simulate.map_reps":
                wrapper = self._wrap_map_reps(fn)
            else:
                wrapper = self._wrap(name, fn, hook)
            self._saved.append((module, attr, fn))
            setattr(module, attr, wrapper)
        self.missing = missing

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def merged(self):
        """Totals and counters summed over every thread that recorded a span."""
        totals, counters = {}, _Counter()
        for state in self._threads:
            for name, (calls, incl, own) in state.totals.items():
                t = totals.setdefault(name, [0, 0, 0])
                t[0] += calls
                t[1] += incl
                t[2] += own
            for name, value in state.counters.items():
                counters[name] += value
        return totals, counters

    def write_spans(self, path) -> None:
        """Write kept spans as CSV: id, parent, thread, name, start_ns, end_ns."""
        with open(path, "w") as fh:
            fh.write("span_id,parent_id,thread,name,start_ns,end_ns\n")
            for state in self._threads:
                for span in state.spans:
                    fh.write(",".join(str(x) for x in span) + "\n")


def layer_metrics(tracer: Tracer, ops: int, workers: int,
                  traced_s: float, untraced_s: float) -> dict:
    """Every LAYER_METRICS value from the tracer's totals over ``ops`` operations."""
    totals, counters = tracer.merged()
    ns = 1e-9

    def per_op(value):
        return value / ops

    def busy(name):
        return per_op(totals.get(name, [0, 0, 0])[2] * ns)

    def calls(name):
        return per_op(totals.get(name, [0, 0, 0])[0])

    def ratio(num, den):
        return num / den if den else 0.0

    map_wall = totals.get("simulate.map_reps", [0, 0, 0])[1] * ns
    rep_busy = totals.get("simulate.map_reps.rep", [0, 0, 0])[1] * ns
    episode_incl = totals.get("simulate.run_episode", [0, 0, 0])[1] * ns
    rounds = counters["simulate.run_episode.rounds"]
    values = {
        "experiment.write_rows.bytes": per_op(counters["experiment.write_rows.bytes"]),
        "simulate.map_reps.wall_s": per_op(map_wall),
        "simulate.map_reps.rep_busy_s": per_op(rep_busy),
        "simulate.map_reps.efficiency": ratio(rep_busy, map_wall * workers),
        "simulate.draw_actions.draws": per_op(counters["simulate.draw_actions.draws"]),
        "simulate.eprocess.rounds_scored": per_op(counters["simulate.eprocess.rounds_scored"]),
        "simulate.eprocess.useful_frac": ratio(counters["simulate.eprocess.useful_rounds"],
                                               counters["simulate.eprocess.rounds_scored"]),
        "simulate.batch_test.batches": per_op(counters["simulate.batch_test.batches"]),
        "simulate.spliced_payoff.post_onset_frac": ratio(
            counters["simulate.spliced_payoff.post_onset_rounds"],
            counters["simulate.spliced_payoff.rounds"]),
        "simulate.run_episode.rounds": per_op(rounds),
        "simulate.run_episode.us_per_round": ratio(episode_incl * 1e6, rounds),
        "strategies.grim_trigger_act.history_rounds_scanned": per_op(
            counters["strategies.grim_trigger_act.history_rounds_scanned"]),
        "trace.overhead_s": per_op(traced_s - untraced_s),
        "trace.overhead_frac": ratio(traced_s - untraced_s, untraced_s),
    }
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = per_op(sum(
            own for name, (_, _, own) in totals.items() if name.split(".")[0] == layer
        ) * ns)
    out = {}
    for name, unit, _, _ in LAYER_METRICS:
        if name in values:
            value = values[name]
        elif name.endswith(".busy_s"):
            value = busy(name[: -len(".busy_s")])
        elif name.endswith(".calls"):
            value = calls(name[: -len(".calls")])
        else:
            raise KeyError(name)
        out[name] = {"value": value, "unit": unit}
    return out
