"""Episode execution, discounted payoffs, and Monte Carlo verification.

Episodes truncate the infinite game at a horizon T; because stage payoffs
live in [0, 1] the discarded tail of the normalized discounted sum is at
most beta ** T, which every report carries as a truncation certificate.

Random streams are derived per (replication, player, purpose) from the base
seed, so replications are order-independent and reproducible regardless of
worker count. Monte Carlo modes whose play is stationary-until-punishment
use vectorized samplers that draw whole action streams (or batch count
vectors directly from the multinomial) instead of stepping rounds one at a
time; these are distributionally identical to the episode protocol.

Both paths sample a pure action the same way: with u = rng.random() and the
K - 1 cumulative edges p_0, p_0 + p_1, ..., p_0 + ... + p_{K-2}, the action
is the number of edges <= u. Each draw consumes one uniform, so a vector draw
of n actions equals n successive scalar draws from the same stream.

The e-process scores round t (0-based) by log((c + 1) / (t + K)) - log w_a,
where a is the observed action and c the number of earlier rounds that
played a; an action outside the support of w scores +inf. Scores are summed
in round order, and tau is the number of rounds scored when the sum first
reaches log(N / gamma) (inclusive >=).
"""
from __future__ import annotations

import bisect
import itertools
import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bounds import batch_error_bounds
from .game import (
    GameError,
    MixedAction,
    MixedProfile,
    PayoffTarget,
    StageGame,
    expected_utility,
)
from .sequential import (
    BatchTestState,
    EProcessState,
    anytime_verdict,
    batch_update,
    eprocess_update,
)
from .strategies import (
    PublicHistory,
    anytime_ttp_act,
    batch_ttp_act,
    grim_trigger_act,
)

logger = logging.getLogger("repgame")

WORKERS_ENV = "REPGAME_WORKERS"
SURVIVAL_GRID = (1, 10, 100, 1_000, 10_000, 100_000)


@dataclass
class EpisodeConfig:
    """Everything needed to run one episode or a Monte Carlo batch of them."""

    game: StageGame
    target: PayoffTarget
    beta: float
    horizon: int
    seed: int
    monitoring: str = "imperfect"  # imperfect | perfect
    enforcement: str = "anytime"  # anytime | batch | grim | none
    gamma: float | None = None
    delta: float | None = None
    batch_length: int | None = None
    deviations: dict = field(default_factory=dict)  # player index -> strategy
    payoff_accounting: str | None = None  # realized | expected
    gap_family: list = field(default_factory=list)  # (label, player, strategy)
    curve_horizons: tuple = ()

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise GameError("beta must lie strictly in (0, 1)")
        if self.horizon < 1:
            raise GameError("horizon must be >= 1")
        if self.monitoring not in ("imperfect", "perfect"):
            raise GameError(f"unknown monitoring mode {self.monitoring!r}")
        if self.enforcement not in ("anytime", "batch", "grim", "none"):
            raise GameError(f"unknown enforcement kind {self.enforcement!r}")
        if self.enforcement == "anytime" and self.gamma is None:
            raise GameError("anytime enforcement needs gamma")
        if self.enforcement == "batch" and (self.delta is None or self.batch_length is None):
            raise GameError("batch enforcement needs delta and batch_length")
        if self.payoff_accounting is None:
            self.payoff_accounting = "expected" if self.monitoring == "perfect" else "realized"


@dataclass
class Trajectory:
    """One realized episode."""

    monitoring: str
    actions: list
    stage_payoffs: np.ndarray  # (T, N)
    punishment_onset: int | None
    rejection_times: list  # per player: round tau, batch kappa, or None


@dataclass
class MonteCarloReport:
    """Aggregated Monte Carlo output; deterministic in (config, base seed)."""

    mode: str
    replications: int
    base_seed: int
    estimates: dict
    intervals: dict
    survival: list | None
    truncation_certificate: float
    rows: list
    extras: dict = field(default_factory=dict)


def _stream(seed: int, rep: int, player: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng([seed, rep, player, purpose])


def _draw_actions(rng: np.random.Generator, probs: np.ndarray, size: int) -> np.ndarray:
    u = rng.random(size)
    actions = np.zeros(size, dtype=np.int64)
    for edge in np.cumsum(probs[:-1]):
        actions += u >= edge
    return actions


def sample_action(rng: np.random.Generator, action: MixedAction) -> int:
    edges = list(itertools.accumulate(action.probs[:-1].tolist()))
    return bisect.bisect_right(edges, rng.random())


def wilson_interval(successes: int, n: int, z: float = 1.959963984540054):
    """95% Wilson score interval for a binomial rate."""
    if n < 1:
        raise GameError("need at least one trial")
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    # At the extremes the closed form is exactly 0 or 1 up to rounding.
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == n else min(1.0, center + half)
    return low, high


def _worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        logger.warning("%s=%r is not a positive integer; using 1 worker", WORKERS_ENV, raw)
        return 1
    return workers


def _map_reps(fn, replications: int):
    """Run fn(rep) for each replication; result order is fixed by index."""
    workers = _worker_count()
    if workers == 1:
        return [fn(r) for r in range(replications)]
    out = [None] * replications
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for rep, res in zip(range(replications), pool.map(fn, range(replications))):
            out[rep] = res
    return out


# ---------------------------------------------------------------------------
# Episode loop (reference implementation, any strategy mix)
# ---------------------------------------------------------------------------


def _cooperator_action(config: EpisodeConfig, tests, history, player: int, t: int):
    if config.enforcement == "grim":
        return grim_trigger_act(history, config.target, player)
    if config.enforcement == "anytime":
        return anytime_ttp_act(tests, config.target, player, t=t)
    if config.enforcement == "batch":
        return batch_ttp_act(tests, config.target, player, t)
    return config.target.cooperative[player]


def _currently_punishing(config: EpisodeConfig, tests, history, t: int) -> bool:
    if config.enforcement == "grim":
        return any(
            not joint.close_to(config.target.cooperative) for joint in history.rounds
        )
    if config.enforcement == "anytime":
        return any(s.fired_at is not None for s in tests)
    if config.enforcement == "batch":
        k_t = t // config.batch_length
        return k_t >= 1 and any(
            s.fired_at_batch is not None and s.fired_at_batch <= k_t - 1 for s in tests
        )
    return False


def run_episode(config: EpisodeConfig, replication: int = 0) -> Trajectory:
    """Play one episode round by round; fully deterministic given the seed."""
    game, target = config.game, config.target
    n = game.num_players
    history = PublicHistory(mode=config.monitoring)
    tests = []
    if config.monitoring == "imperfect":
        if config.enforcement == "anytime":
            tests = [EProcessState.fresh(i, game.action_counts[i]) for i in range(n)]
        elif config.enforcement == "batch":
            tests = [
                BatchTestState.fresh(i, game.action_counts[i], config.batch_length)
                for i in range(n)
            ]
    rngs = [_stream(config.seed, replication, i, 0) for i in range(n)]
    stage_payoffs = np.empty((config.horizon, n))
    actions_log = []
    punishment_onset = None

    for t in range(config.horizon):
        if punishment_onset is None and _currently_punishing(config, tests, history, t):
            punishment_onset = t
        mixed = []
        for i in range(n):
            if i in config.deviations:
                mixed.append(config.deviations[i].act(history, t))
            else:
                mixed.append(_cooperator_action(config, tests, history, i, t))
        profile = MixedProfile(tuple(mixed))
        if config.monitoring == "perfect":
            actions_log.append(profile)
            history.append(profile)
            if config.payoff_accounting == "expected":
                stage_payoffs[t] = expected_utility(game, profile)
            else:
                joint = tuple(sample_action(rngs[i], mixed[i]) for i in range(n))
                stage_payoffs[t] = game.payoff(joint)
        else:
            joint = tuple(sample_action(rngs[i], mixed[i]) for i in range(n))
            actions_log.append(joint)
            stage_payoffs[t] = game.payoff(joint)
            history.append(joint)
            for i in range(n):
                if config.enforcement == "anytime":
                    eprocess_update(tests[i], joint[i], target.cooperative[i], expected_t=t)
                    anytime_verdict(tests[i], config.gamma, n)
                elif config.enforcement == "batch":
                    batch_update(tests[i], joint[i], target.cooperative[i], config.delta)

    if punishment_onset is None and _currently_punishing(
        config, tests, history, config.horizon
    ):
        punishment_onset = config.horizon
    if config.enforcement == "anytime":
        rejection_times = [s.fired_at for s in tests]
    elif config.enforcement == "batch":
        rejection_times = [s.fired_at_batch for s in tests]
    else:
        rejection_times = [None] * n
    return Trajectory(
        monitoring=config.monitoring,
        actions=actions_log,
        stage_payoffs=stage_payoffs,
        punishment_onset=punishment_onset,
        rejection_times=rejection_times,
    )


def discounted_payoffs(traj: Trajectory, beta: float, start: int = 0):
    """Normalized discounted payoffs over the recorded window, with certificate.

    Returns ((1 - beta) * sum_{t >= start} beta^(t - start) u_t, beta^(T - start)).
    The certificate bounds the discarded tail since payoffs lie in [0, 1].
    """
    horizon = traj.stage_payoffs.shape[0]
    if horizon == 0 or start >= horizon:
        raise GameError("empty trajectory window")
    weights = (1.0 - beta) * beta ** np.arange(horizon - start)
    payoffs = weights @ traj.stage_payoffs[start:]
    return payoffs, beta ** (horizon - start)


# ---------------------------------------------------------------------------
# Vectorized building blocks
# ---------------------------------------------------------------------------


def _eprocess_log_traj(actions: np.ndarray, w_ref: np.ndarray) -> np.ndarray:
    """Cumulative log e-process over an observed action stream."""
    horizon = actions.size
    num_actions = w_ref.size
    # seen[t] = c + 1: how often actions[t] occurs in actions[: t + 1].
    seen = np.zeros(horizon, dtype=np.int64)
    for a in range(num_actions):
        hit = actions == a
        seen += np.cumsum(hit) * hit
    with np.errstate(divide="ignore"):
        log_w = np.log(w_ref)
    logs = np.log(seen / np.arange(num_actions, horizon + num_actions)) - log_w[actions]
    return np.cumsum(logs, out=logs)


def _eprocess_tau(actions: np.ndarray, w_ref: np.ndarray, log_threshold: float):
    """First punishment round implied by the e-process, or None."""
    cum = _eprocess_log_traj(actions, w_ref)
    crossed = cum >= log_threshold
    if not crossed.any():
        return None
    return int(np.argmax(crossed)) + 1


def _batch_counts(actions: np.ndarray, batch_length: int, num_actions: int) -> np.ndarray:
    """Per-batch action counts, shape (num_batches, K). Drops a ragged tail."""
    num_batches = actions.size // batch_length
    trimmed = actions[: num_batches * batch_length].reshape(num_batches, batch_length)
    return np.stack(
        [(trimmed == a).sum(axis=1) for a in range(num_actions)], axis=1
    ).astype(np.int64)


def _batch_kappa(counts: np.ndarray, w_ref: np.ndarray, delta: float):
    """First rejected batch index, or None; verdicts for all batches."""
    dist = np.abs(counts / counts.sum(axis=1, keepdims=True) - w_ref).sum(axis=1)
    verdicts = dist >= delta
    kappa = int(np.argmax(verdicts)) if verdicts.any() else None
    return kappa, verdicts


def _stationary_profile(config: EpisodeConfig) -> list:
    """Pre-punishment mixed action per player; requires stationary deviators."""
    out = []
    for i in range(config.game.num_players):
        if i in config.deviations:
            dev = config.deviations[i]
            if not hasattr(dev, "action"):
                raise GameError(
                    "vectorized Monte Carlo needs stationary deviations; "
                    "use run_episode for adaptive strategies"
                )
            out.append(dev.action.probs)
        else:
            out.append(config.target.cooperative[i].probs)
    return out


def _joint_stage_payoffs(game: StageGame, streams: list) -> np.ndarray:
    idx = tuple(streams)
    return np.stack([u[idx] for u in game.utilities], axis=1)


def _spliced_payoff(config: EpisodeConfig, rep: int, streams: list, onset):
    """Discounted realized payoffs with punishment draws after the onset round."""
    game, beta, horizon = config.game, config.beta, config.horizon
    cut = horizon if onset is None else min(onset, horizon)
    weights = (1.0 - beta) * beta ** np.arange(horizon)
    payoffs = np.zeros(game.num_players)
    if cut > 0:
        pre = _joint_stage_payoffs(game, [s[:cut] for s in streams])
        payoffs += weights[:cut] @ pre
    if cut < horizon:
        punish = [
            _draw_actions(
                _stream(config.seed, rep, i, 1),
                config.target.punishment[i].probs,
                horizon - cut,
            )
            for i in range(game.num_players)
        ]
        post = _joint_stage_payoffs(game, punish)
        payoffs += weights[cut:] @ post
    return payoffs


# ---------------------------------------------------------------------------
# Monte Carlo modes
# ---------------------------------------------------------------------------


def _anytime_rep(config: EpisodeConfig, rep: int, want_payoffs: bool):
    game = config.game
    n = game.num_players
    threshold = math.log(n) - math.log(config.gamma)
    profile = _stationary_profile(config)
    streams, taus = [], []
    for i in range(n):
        actions = _draw_actions(
            _stream(config.seed, rep, i, 0), profile[i], config.horizon
        )
        streams.append(actions)
        taus.append(
            _eprocess_tau(actions, config.target.cooperative[i].probs, threshold)
        )
    finite = [t for t in taus if t is not None]
    onset = min(finite) if finite else None
    payoffs = (
        _spliced_payoff(config, rep, streams, onset) if want_payoffs else None
    )
    return taus, onset, payoffs


def _batch_rep_counts(config: EpisodeConfig, rep: int):
    """Batch verdicts under cooperation, sampling batch counts directly."""
    game = config.game
    num_batches = config.horizon // config.batch_length
    kappas, rejected, total = [], 0, 0
    for i in range(game.num_players):
        w = config.target.cooperative[i].probs
        rng = _stream(config.seed, rep, i, 0)
        counts = rng.multinomial(config.batch_length, w, size=num_batches)
        kappa, verdicts = _batch_kappa(counts, w, config.delta)
        kappas.append(kappa)
        rejected += int(verdicts.sum())
        total += num_batches
    finite = [k for k in kappas if k is not None]
    kappa = min(finite) if finite else None
    onset = (kappa + 1) * config.batch_length if kappa is not None else None
    return kappas, kappa, onset, rejected, total


def _batch_rep_payoff(config: EpisodeConfig, rep: int):
    """Realized batch-enforcement episode with stationary deviators."""
    game = config.game
    n = game.num_players
    profile = _stationary_profile(config)
    streams, kappas = [], []
    schedules = {
        i: dev.schedule
        for i, dev in config.deviations.items()
        if getattr(dev, "schedule", None) is not None
    }
    for i in range(n):
        if i in schedules:
            reps_needed = -(-config.horizon // config.batch_length)
            actions = np.tile(schedules[i], reps_needed)[: config.horizon]
        else:
            actions = _draw_actions(
                _stream(config.seed, rep, i, 0), profile[i], config.horizon
            )
        streams.append(actions)
        counts = _batch_counts(actions, config.batch_length, game.action_counts[i])
        kappa, _ = _batch_kappa(counts, config.target.cooperative[i].probs, config.delta)
        kappas.append(kappa)
    finite = [k for k in kappas if k is not None]
    kappa = min(finite) if finite else None
    onset = (kappa + 1) * config.batch_length if kappa is not None else None
    payoffs = _spliced_payoff(config, rep, streams, onset)
    return kappas, onset, payoffs


def _base_row(config, mode, rep, onset, taus):
    row = {"mode": mode, "variant": "baseline", "replication": rep,
           "seed": config.seed, "punishment_onset": onset}
    row.update((f"tau_{i}", tau) for i, tau in enumerate(taus))
    return row


def _rate_estimates(successes, n):
    low, high = wilson_interval(successes, n)
    return successes / n, (low, high)


def monte_carlo(config: EpisodeConfig, mode: str, replications: int) -> MonteCarloReport:
    """Run a Monte Carlo experiment in one of the supported modes.

    Modes: ``type1`` (wrongful-punishment rate under cooperation),
    ``detection`` (rejection times against a declared deviation), ``payoff``
    (discounted payoff estimates against the theoretical sandwich), ``gap``
    (max estimated deviation gain over a configured family), and
    ``wrongful_curve`` (punished fraction at nested horizons, batch only).
    """
    if replications < 1:
        raise GameError("need at least one replication")
    dispatch = {
        "type1": _mc_type1,
        "detection": _mc_detection,
        "payoff": _mc_payoff,
        "gap": _mc_gap,
        "wrongful_curve": _mc_wrongful_curve,
    }
    if mode not in dispatch:
        raise GameError(f"unknown Monte Carlo mode {mode!r}")
    return dispatch[mode](config, replications)


def _mc_type1(config: EpisodeConfig, replications: int) -> MonteCarloReport:
    rows = []
    if config.enforcement == "anytime":
        results = _map_reps(
            lambda rep: _anytime_rep(config, rep, want_payoffs=False), replications
        )
        punished = 0
        for rep, (taus, onset, _) in enumerate(results):
            punished += onset is not None
            rows.append(_base_row(config, "type1", rep, onset, taus))
        rate, interval = _rate_estimates(punished, replications)
        estimates = {"punished_rate_censored": rate, "punished": punished}
        intervals = {"punished_rate_censored": interval}
    elif config.enforcement == "batch":
        results = _map_reps(lambda rep: _batch_rep_counts(config, rep), replications)
        punished = rejected_total = batches_total = 0
        for rep, (kappas, kappa, onset, rejected, total) in enumerate(results):
            punished += onset is not None and onset <= config.horizon
            rejected_total += rejected
            batches_total += total
            rows.append(_base_row(config, "type1", rep, onset, kappas))
        rate, interval = _rate_estimates(punished, replications)
        batch_rate, batch_interval = _rate_estimates(rejected_total, batches_total)
        estimates = {
            "punished_rate_censored": rate,
            "punished": punished,
            "per_batch_rejection_rate": batch_rate,
            "rejected_batches": rejected_total,
            "cooperative_batches": batches_total,
        }
        intervals = {
            "punished_rate_censored": interval,
            "per_batch_rejection_rate": batch_interval,
        }
    else:
        raise GameError("type1 mode needs anytime or batch enforcement")
    return MonteCarloReport(
        mode="type1",
        replications=replications,
        base_seed=config.seed,
        estimates=estimates,
        intervals=intervals,
        survival=None,
        truncation_certificate=config.beta**config.horizon,
        rows=rows,
    )


def _mc_detection(config: EpisodeConfig, replications: int) -> MonteCarloReport:
    if config.enforcement != "anytime":
        raise GameError("detection mode is defined for anytime enforcement")
    if not config.deviations:
        raise GameError("detection mode needs at least one declared deviation")
    results = _map_reps(
        lambda rep: _anytime_rep(config, rep, want_payoffs=False), replications
    )
    rows, onsets = [], []
    for rep, (taus, onset, _) in enumerate(results):
        onsets.append(onset)
        rows.append(_base_row(config, "detection", rep, onset, taus))
    detected = sum(o is not None for o in onsets)
    censored = np.array(
        [config.horizon if o is None else o for o in onsets], dtype=float
    )
    rate, interval = _rate_estimates(detected, replications)
    grid = [t for t in SURVIVAL_GRID if t <= config.horizon]
    survival = [(t, float(np.mean(censored >= t))) for t in grid]
    mean_tau = float(censored.mean())
    estimates = {
        "detected_rate": rate,
        "mean_tau_censored": mean_tau,
        "median_tau_censored": float(np.median(censored)),
        "q90_tau_censored": float(np.quantile(censored, 0.9)),
    }
    intervals = {
        "detected_rate": interval,
        "mean_tau_censored": (
            mean_tau - 1.96 * censored.std(ddof=1) / math.sqrt(replications),
            mean_tau + 1.96 * censored.std(ddof=1) / math.sqrt(replications),
        ),
    }
    return MonteCarloReport(
        mode="detection",
        replications=replications,
        base_seed=config.seed,
        estimates=estimates,
        intervals=intervals,
        survival=survival,
        truncation_certificate=config.beta**config.horizon,
        rows=rows,
    )


def _payoff_bounds(config: EpisodeConfig) -> dict:
    v = config.target.v
    if config.enforcement == "anytime":
        lower = (1.0 - config.gamma) * v
    else:
        p_l, _, _ = batch_error_bounds(
            config.game.max_action_count,
            config.game.num_players,
            config.batch_length,
            config.delta,
            config.beta,
        )
        beta_l = config.beta**config.batch_length
        lower = beta_l * (1.0 - p_l / (1.0 - beta_l)) * v
    return {"lower": lower, "upper": v}


def _mc_payoff(config: EpisodeConfig, replications: int) -> MonteCarloReport:
    if config.enforcement == "anytime":
        results = _map_reps(
            lambda rep: _anytime_rep(config, rep, want_payoffs=True), replications
        )
        payoff_rows = [(taus, onset, payoffs) for taus, onset, payoffs in results]
    elif config.enforcement == "batch":
        payoff_rows = _map_reps(lambda rep: _batch_rep_payoff(config, rep), replications)
    else:
        raise GameError("payoff mode needs anytime or batch enforcement")
    n = config.game.num_players
    rows, payoff_matrix = [], np.empty((replications, n))
    for rep, (taus, onset, payoffs) in enumerate(payoff_rows):
        payoff_matrix[rep] = payoffs
        row = _base_row(config, "payoff", rep, onset, taus)
        for i in range(n):
            row[f"payoff_{i}"] = payoffs[i]
        rows.append(row)
    mean = payoff_matrix.mean(axis=0)
    se = payoff_matrix.std(axis=0, ddof=1) / math.sqrt(replications)
    bounds = _payoff_bounds(config)
    estimates = {"mean_payoff": mean.tolist(), "payoff_se": se.tolist()}
    intervals = {
        "mean_payoff": [(m - 1.96 * s, m + 1.96 * s) for m, s in zip(mean, se)]
    }
    return MonteCarloReport(
        mode="payoff",
        replications=replications,
        base_seed=config.seed,
        estimates=estimates,
        intervals=intervals,
        survival=None,
        truncation_certificate=config.beta**config.horizon,
        rows=rows,
        extras={
            "theoretical_lower": bounds["lower"].tolist(),
            "theoretical_upper": bounds["upper"].tolist(),
        },
    )


def _mc_gap(config: EpisodeConfig, replications: int) -> MonteCarloReport:
    """Max estimated deviation gain over the configured family.

    An explicit under-approximation of the sup over all strategies: only the
    configured finite family is searched.
    """
    if config.enforcement != "anytime":
        raise GameError("gap mode is implemented for anytime enforcement")
    if not config.gap_family:
        raise GameError("gap mode needs a configured deviation family")
    baseline = _mc_payoff(
        EpisodeConfig(
            game=config.game,
            target=config.target,
            beta=config.beta,
            horizon=config.horizon,
            seed=config.seed,
            enforcement=config.enforcement,
            gamma=config.gamma,
        ),
        replications,
    )
    base_mean = np.asarray(baseline.estimates["mean_payoff"])
    base_se = np.asarray(baseline.estimates["payoff_se"])
    rows = list(baseline.rows)
    gains, table = [], []
    for label, player, strategy in config.gap_family:
        dev_config = EpisodeConfig(
            game=config.game,
            target=config.target,
            beta=config.beta,
            horizon=config.horizon,
            seed=config.seed,
            enforcement=config.enforcement,
            gamma=config.gamma,
            deviations={player: strategy},
        )
        dev_report = _mc_payoff(dev_config, replications)
        dev_mean = dev_report.estimates["mean_payoff"][player]
        dev_se = dev_report.estimates["payoff_se"][player]
        gain = dev_mean - base_mean[player]
        gain_se = math.sqrt(dev_se**2 + base_se[player] ** 2)
        gains.append((gain, gain_se))
        table.append(
            {"label": label, "player": player, "gain": gain, "gain_se": gain_se}
        )
        for row in dev_report.rows:
            row = dict(row)
            row["mode"] = "gap"
            row["variant"] = label
            rows.append(row)
    max_idx = int(np.argmax([g for g, _ in gains]))
    max_gain, max_gain_se = gains[max_idx]
    estimates = {
        "max_gain": max_gain,
        "max_gain_se": max_gain_se,
        "max_gain_label": config.gap_family[max_idx][0],
        "baseline_payoff": base_mean.tolist(),
    }
    return MonteCarloReport(
        mode="gap",
        replications=replications,
        base_seed=config.seed,
        estimates=estimates,
        intervals={"max_gain": (max_gain - 1.96 * max_gain_se, max_gain + 1.96 * max_gain_se)},
        survival=None,
        truncation_certificate=config.beta**config.horizon,
        rows=rows,
        extras={"family": table},
    )


def _mc_wrongful_curve(config: EpisodeConfig, replications: int) -> MonteCarloReport:
    if config.enforcement != "batch":
        raise GameError("wrongful_curve mode is defined for batch enforcement")
    horizons = [h for h in (config.curve_horizons or SURVIVAL_GRID[3:]) if h <= config.horizon]
    if not horizons:
        raise GameError("no curve horizons within the configured horizon")
    results = _map_reps(lambda rep: _batch_rep_counts(config, rep), replications)
    onsets = []
    rows = []
    for rep, (kappas, kappa, onset, _, _) in enumerate(results):
        onsets.append(onset if onset is not None else math.inf)
        rows.append(_base_row(config, "wrongful_curve", rep, onset, kappas))
    onsets = np.array(onsets)
    curve = []
    for h in horizons:
        frac = float(np.mean(onsets <= h))
        batches = h // config.batch_length
        # Single-actioned batches always reject when delta allows; this gives
        # an analytic lower bound on the punished fraction.
        w0 = config.target.cooperative[0].probs
        p_star = float(np.sum(w0**config.batch_length))
        bound_valid = all(
            2.0 * (1.0 - w0[a]) >= config.delta for a in range(w0.size) if w0[a] > 0
        )
        bound = 1.0 - (1.0 - p_star) ** batches if bound_valid else None
        curve.append(
            {"horizon": h, "punished_fraction": frac, "analytic_lower_bound": bound}
        )
    estimates = {"curve": curve}
    return MonteCarloReport(
        mode="wrongful_curve",
        replications=replications,
        base_seed=config.seed,
        estimates=estimates,
        intervals={},
        survival=None,
        truncation_certificate=config.beta**config.horizon,
        rows=rows,
        extras={"curve": curve},
    )


# ---------------------------------------------------------------------------
# Exact enumeration oracle
# ---------------------------------------------------------------------------


def eprocess_exact_oracle(
    num_actions: int,
    w_ref: MixedAction,
    gamma: float,
    num_players: int,
    depth: int,
    depth_cap: int = 14,
) -> float:
    """Exact crossing probability of the plug-in e-process at finite depth.

    Enumerates the full K^depth action tree under i.i.d. draws from w_ref and
    returns the probability that the e-process reaches N / gamma at any point
    within the first ``depth`` observations. The caller compares this against
    gamma; the function itself just reports the number.
    """
    if depth < 1 or depth > depth_cap:
        raise GameError(f"depth must lie in [1, {depth_cap}] for exhaustive enumeration")
    probs = w_ref.probs if isinstance(w_ref, MixedAction) else np.asarray(w_ref, float)
    if probs.size != num_actions:
        raise GameError("w_ref dimension does not match num_actions")
    threshold = math.log(num_players) - math.log(gamma)
    log_probs = [math.log(p) if p > 0 else -math.inf for p in probs]

    def recurse(counts, t, log_e, prob):
        if t > 0 and log_e >= threshold:
            return prob
        if t == depth:
            return 0.0
        total = 0.0
        for a in range(num_actions):
            if probs[a] <= 0.0:
                continue
            pred = math.log((counts[a] + 1.0) / (t + num_actions))
            counts[a] += 1
            total += recurse(counts, t + 1, log_e + pred - log_probs[a], prob * probs[a])
            counts[a] -= 1
        return total

    return recurse([0] * num_actions, 0, 0.0, 1.0)
