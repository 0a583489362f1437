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
in round order, and tau is the number of rounds scored when e_t first
reaches N / gamma. Rounds whose sum comes within TIE_BAND of log(N / gamma)
are decided by ``eprocess_crossed`` on their counts, exactly near a tie; the
exact oracle applies the same rule on a forward pass over the count lattice.

Each enforcement kind (anytime, batch, grim, none) is one class in the
``_KINDS`` table. An instance is the episode's enforcement: it holds the
test state every player shares and reports when punishment starts, so
``run_episode`` fixes the punishment onset once and cooperators switch from
the cooperative to the punishment profile there. The per-player strategies
in ``repgame.strategies`` (``anytime_ttp_act``, ``batch_ttp_act``,
``grim_trigger_act``) remain the reference definitions that the episode
loop is tested against.
"""
from __future__ import annotations

import bisect
import itertools
import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

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
    TIE_BAND,
    BatchTestState,
    EProcessState,
    anytime_verdict,
    batch_update,
    eprocess_crossed,
    eprocess_update,
)
from .strategies import PublicHistory

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
        kind = _KINDS.get(self.enforcement)
        if kind is None:
            raise GameError(f"unknown enforcement kind {self.enforcement!r}")
        if any(getattr(self, name) is None for name in kind.needs):
            needs = " and ".join(kind.needs)
            raise GameError(f"{self.enforcement} enforcement needs {needs}")
        if kind.monitoring not in (None, self.monitoring):
            raise GameError(f"{self.enforcement} enforcement needs {kind.monitoring} monitoring")
        for name in ("gamma", "delta"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < 1.0:
                raise GameError(f"{name} must lie in (0, 1)")
        if self.batch_length is not None and self.batch_length < 1:
            raise GameError("batch_length must be >= 1")
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
# Enforcement kinds
# ---------------------------------------------------------------------------


class _Enforcement:
    """One episode's enforcement and its shared test state; this base is kind ``none``.

    ``observe(t, record)`` folds in round t's public record (the realized
    joint action, or the mixed profile under perfect monitoring) and returns
    True once punishment applies from round t + 1. Class attributes give the
    monitoring the kind needs (None: either), its required EpisodeConfig
    fields and the Monte Carlo modes it supports; ``cooperative_modes`` are
    the ones that sample cooperative play only and so take no deviations.
    """

    monitoring = None
    needs = ()
    modes = frozenset()
    cooperative_modes = frozenset()

    def __init__(self, config: EpisodeConfig):
        self.config = config

    def observe(self, t: int, record) -> bool:
        return False

    def rejection_times(self) -> list:
        return [None] * self.config.game.num_players


class _Anytime(_Enforcement):
    """One plug-in e-process per player; rejection time tau in rounds."""

    monitoring = "imperfect"
    needs = ("gamma",)
    modes = frozenset({"type1", "detection", "payoff", "gap"})

    def __init__(self, config: EpisodeConfig):
        super().__init__(config)
        self.tests = [
            EProcessState.fresh(i, k) for i, k in enumerate(config.game.action_counts)
        ]

    def observe(self, t: int, record) -> bool:
        cooperative, n = self.config.target.cooperative, len(self.tests)
        for i, state in enumerate(self.tests):
            eprocess_update(state, record[i], cooperative[i], expected_t=t)
            anytime_verdict(state, cooperative[i], self.config.gamma, n)
        return any(s.fired_at is not None for s in self.tests)

    def rejection_times(self) -> list:
        return [s.fired_at for s in self.tests]

    @staticmethod
    def type1_rep(config: EpisodeConfig, rep: int):
        return _anytime_rep(config, rep, want_payoffs=False)

    @staticmethod
    def payoff_rep(config: EpisodeConfig, rep: int):
        return _anytime_rep(config, rep, want_payoffs=True)

    @staticmethod
    def payoff_lower_bound(config: EpisodeConfig):
        return (1.0 - config.gamma) * config.target.v


class _Batch(_Enforcement):
    """One L1 batch test per player; rejection time kappa in batches.

    A rejection at batch kappa punishes from the first round of batch
    kappa + 1, which is the round after the rejected batch completes.
    """

    monitoring = "imperfect"
    needs = ("delta", "batch_length")
    modes = frozenset({"type1", "payoff", "wrongful_curve"})
    cooperative_modes = frozenset({"type1", "wrongful_curve"})

    def __init__(self, config: EpisodeConfig):
        super().__init__(config)
        self.tests = [
            BatchTestState.fresh(i, k, config.batch_length)
            for i, k in enumerate(config.game.action_counts)
        ]

    def observe(self, t: int, record) -> bool:
        cooperative = self.config.target.cooperative
        for i, state in enumerate(self.tests):
            batch_update(state, record[i], cooperative[i], self.config.delta)
        return any(s.fired_at_batch is not None for s in self.tests)

    def rejection_times(self) -> list:
        return [s.fired_at_batch for s in self.tests]

    @staticmethod
    def type1_rep(config: EpisodeConfig, rep: int):
        kappas, _, onset, rejected, total = _batch_rep_counts(config, rep)
        return kappas, onset, (rejected, total)

    @staticmethod
    def payoff_rep(config: EpisodeConfig, rep: int):
        return _batch_rep_payoff(config, rep)

    @staticmethod
    def payoff_lower_bound(config: EpisodeConfig):
        p_l, _, _ = batch_error_bounds(
            config.game.max_action_count,
            config.game.num_players,
            config.batch_length,
            config.delta,
            config.beta,
        )
        beta_l = config.beta**config.batch_length
        return beta_l * (1.0 - p_l / (1.0 - beta_l)) * config.target.v


class _Grim(_Enforcement):
    """Punish forever after the first joint profile off the cooperative one."""

    monitoring = "perfect"
    on_path = True

    def observe(self, t: int, record) -> bool:
        self.on_path = record.close_to(self.config.target.cooperative) and self.on_path
        return not self.on_path


_KINDS = {"anytime": _Anytime, "batch": _Batch, "grim": _Grim, "none": _Enforcement}


# ---------------------------------------------------------------------------
# Episode loop (reference implementation, any strategy mix)
# ---------------------------------------------------------------------------


def run_episode(config: EpisodeConfig, replication: int = 0) -> Trajectory:
    """Play one episode round by round; fully deterministic given the seed."""
    game, target = config.game, config.target
    n = game.num_players
    enforcement = _KINDS[config.enforcement](config)
    history = PublicHistory(mode=config.monitoring)
    rngs = [_stream(config.seed, replication, i, 0) for i in range(n)]
    stage_payoffs = np.empty((config.horizon, n))
    actions_log = []
    punishment_onset = None

    for t in range(config.horizon):
        plan = target.cooperative if punishment_onset is None else target.punishment
        mixed = [
            config.deviations[i].act(history, t) if i in config.deviations else plan[i]
            for i in range(n)
        ]
        profile = MixedProfile(tuple(mixed))
        if config.monitoring == "perfect" and config.payoff_accounting == "expected":
            stage_payoffs[t] = expected_utility(game, profile)
        else:
            joint = tuple(sample_action(rngs[i], mixed[i]) for i in range(n))
            stage_payoffs[t] = game.payoff(joint)
        # Perfect monitoring makes the mixed profile public, else the draws.
        record = profile if config.monitoring == "perfect" else joint
        actions_log.append(record)
        history.append(record)
        if enforcement.observe(t, record) and punishment_onset is None:
            punishment_onset = t + 1

    return Trajectory(
        monitoring=config.monitoring,
        actions=actions_log,
        stage_payoffs=stage_payoffs,
        punishment_onset=punishment_onset,
        rejection_times=enforcement.rejection_times(),
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


def _eprocess_tau(actions: np.ndarray, w_ref: np.ndarray, gamma: float, num_players: int):
    """First punishment round implied by the e-process, or None."""
    cum = _eprocess_log_traj(actions, w_ref)
    near = cum >= math.log(num_players) - math.log(gamma) - TIE_BAND
    t = int(np.argmax(near))
    while near[t]:
        counts = np.bincount(actions[: t + 1], minlength=w_ref.size)
        if eprocess_crossed(counts, w_ref, gamma, num_players, cum[t]):
            return t + 1
        near[t] = False
        t = int(np.argmax(near))
    return None


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


def _pre_punishment_actions(config: EpisodeConfig, rep: int, player: int) -> np.ndarray:
    """A player's actions until punishment, for the vectorized samplers.

    A batch-scheduled deviator repeats its schedule; every other player draws
    from a stationary mixed action (the deviator's, or the cooperative one).
    """
    dev = config.deviations.get(player)
    schedule = getattr(dev, "schedule", None)
    if schedule is not None:
        return np.resize(schedule, config.horizon)
    if dev is None:
        probs = config.target.cooperative[player].probs
    elif hasattr(dev, "action"):
        probs = dev.action.probs
    else:
        raise GameError(
            "vectorized Monte Carlo needs stationary or batch-scheduled deviations; "
            "use run_episode for adaptive strategies"
        )
    return _draw_actions(_stream(config.seed, rep, player, 0), probs, config.horizon)


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
    n = config.game.num_players
    streams, taus = [], []
    for i in range(n):
        actions = _pre_punishment_actions(config, rep, i)
        streams.append(actions)
        taus.append(
            _eprocess_tau(actions, config.target.cooperative[i].probs, config.gamma, n)
        )
    finite = [t for t in taus if t is not None]
    onset = min(finite) if finite else None
    payoffs = (
        _spliced_payoff(config, rep, streams, onset) if want_payoffs else None
    )
    return taus, onset, payoffs


def _batch_rep_counts(config: EpisodeConfig, rep: int):
    """Batch verdicts under cooperation, sampling batch counts directly."""
    num_batches = config.horizon // config.batch_length
    kappas, rejected, total = [], 0, 0
    for i in range(config.game.num_players):
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
    """Realized batch-enforcement episode with stationary or scheduled deviators."""
    game = config.game
    streams, kappas = [], []
    for i in range(game.num_players):
        actions = _pre_punishment_actions(config, rep, i)
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


def _report(config, mode, replications, rows, estimates, intervals,
            survival=None, extras=None) -> MonteCarloReport:
    return MonteCarloReport(
        mode=mode,
        replications=replications,
        base_seed=config.seed,
        estimates=estimates,
        intervals=intervals,
        survival=survival,
        truncation_certificate=config.beta**config.horizon,
        rows=rows,
        extras=extras or {},
    )


def _rate_estimates(successes, n):
    return successes / n, wilson_interval(successes, n)


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
    kind = _KINDS[config.enforcement]
    if mode not in kind.modes:
        raise GameError(f"{mode} mode is not defined for {config.enforcement} enforcement")
    if config.deviations and mode in kind.cooperative_modes:
        raise GameError(f"{mode} mode is not defined for {config.enforcement} enforcement "
                        "with declared deviations: it samples cooperative play only")
    return dispatch[mode](config, kind, replications)


def _mc_type1(config: EpisodeConfig, kind, replications: int) -> MonteCarloReport:
    results = _map_reps(lambda rep: kind.type1_rep(config, rep), replications)
    rows, punished = [], 0
    for rep, (taus, onset, _) in enumerate(results):
        punished += onset is not None and onset <= config.horizon
        rows.append(_base_row(config, "type1", rep, onset, taus))
    rate, interval = _rate_estimates(punished, replications)
    estimates = {"punished_rate_censored": rate, "punished": punished}
    intervals = {"punished_rate_censored": interval}
    # The batch kind's third item counts (rejected, tested) batches; anytime's is None.
    tallies = [tally for _, _, tally in results if tally is not None]
    if tallies:
        rejected, total = (sum(column) for column in zip(*tallies))
        batch_rate, batch_interval = _rate_estimates(rejected, total)
        estimates.update(per_batch_rejection_rate=batch_rate, rejected_batches=rejected,
                         cooperative_batches=total)
        intervals["per_batch_rejection_rate"] = batch_interval
    return _report(config, "type1", replications, rows, estimates, intervals)


def _mc_detection(config: EpisodeConfig, kind, replications: int) -> MonteCarloReport:
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
    half_width = 1.96 * censored.std(ddof=1) / math.sqrt(replications)
    estimates = {
        "detected_rate": rate,
        "mean_tau_censored": mean_tau,
        "median_tau_censored": float(np.median(censored)),
        "q90_tau_censored": float(np.quantile(censored, 0.9)),
    }
    intervals = {
        "detected_rate": interval,
        "mean_tau_censored": (mean_tau - half_width, mean_tau + half_width),
    }
    return _report(config, "detection", replications, rows, estimates, intervals,
                   survival=survival)


def _mc_payoff(config: EpisodeConfig, kind, replications: int) -> MonteCarloReport:
    payoff_rows = _map_reps(lambda rep: kind.payoff_rep(config, rep), replications)
    n = config.game.num_players
    rows, payoff_matrix = [], np.empty((replications, n))
    for rep, (taus, onset, payoffs) in enumerate(payoff_rows):
        payoff_matrix[rep] = payoffs
        row = _base_row(config, "payoff", rep, onset, taus)
        row.update((f"payoff_{i}", payoff) for i, payoff in enumerate(payoffs))
        rows.append(row)
    mean = payoff_matrix.mean(axis=0)
    se = payoff_matrix.std(axis=0, ddof=1) / math.sqrt(replications)
    estimates = {"mean_payoff": mean.tolist(), "payoff_se": se.tolist()}
    intervals = {
        "mean_payoff": [(m - 1.96 * s, m + 1.96 * s) for m, s in zip(mean, se)]
    }
    extras = {
        "theoretical_lower": kind.payoff_lower_bound(config).tolist(),
        "theoretical_upper": config.target.v.tolist(),
    }
    return _report(config, "payoff", replications, rows, estimates, intervals, extras=extras)


def _mc_gap(config: EpisodeConfig, kind, replications: int) -> MonteCarloReport:
    """Max estimated deviation gain over the configured family.

    An explicit under-approximation of the sup over all strategies: only the
    configured finite family is searched.
    """
    if not config.gap_family:
        raise GameError("gap mode needs a configured deviation family")
    baseline = _mc_payoff(replace(config, deviations={}), kind, replications)
    base_mean = np.asarray(baseline.estimates["mean_payoff"])
    base_se = np.asarray(baseline.estimates["payoff_se"])
    rows, table = list(baseline.rows), []
    for label, player, strategy in config.gap_family:
        dev_config = replace(config, deviations={player: strategy})
        dev_report = _mc_payoff(dev_config, kind, replications)
        dev_mean = dev_report.estimates["mean_payoff"][player]
        dev_se = dev_report.estimates["payoff_se"][player]
        gain = dev_mean - base_mean[player]
        gain_se = math.sqrt(dev_se**2 + base_se[player] ** 2)
        table.append({"label": label, "player": player, "gain": gain, "gain_se": gain_se})
        rows.extend({**row, "mode": "gap", "variant": label} for row in dev_report.rows)
    best = max(table, key=lambda entry: entry["gain"])  # the first of equal gains
    max_gain, max_gain_se = best["gain"], best["gain_se"]
    estimates = {
        "max_gain": max_gain,
        "max_gain_se": max_gain_se,
        "max_gain_label": best["label"],
        "baseline_payoff": base_mean.tolist(),
    }
    intervals = {"max_gain": (max_gain - 1.96 * max_gain_se, max_gain + 1.96 * max_gain_se)}
    return _report(config, "gap", replications, rows, estimates, intervals,
                   extras={"family": table})


def _mc_wrongful_curve(config: EpisodeConfig, kind, replications: int) -> MonteCarloReport:
    horizons = [h for h in (config.curve_horizons or SURVIVAL_GRID[3:]) if h <= config.horizon]
    if not horizons:
        raise GameError("no curve horizons within the configured horizon")
    results = _map_reps(lambda rep: _batch_rep_counts(config, rep), replications)
    rows, onsets = [], []
    for rep, (kappas, kappa, onset, _, _) in enumerate(results):
        onsets.append(onset if onset is not None else math.inf)
        rows.append(_base_row(config, "wrongful_curve", rep, onset, kappas))
    onsets = np.array(onsets)
    # Single-actioned batches always reject when delta allows; this gives
    # an analytic lower bound on the punished fraction.
    w0 = config.target.cooperative[0].probs
    p_star = float(np.sum(w0**config.batch_length))
    bound_valid = all(
        2.0 * (1.0 - w0[a]) >= config.delta for a in range(w0.size) if w0[a] > 0
    )
    curve = []
    for h in horizons:
        frac = float(np.mean(onsets <= h))
        batches = h // config.batch_length
        bound = 1.0 - (1.0 - p_star) ** batches if bound_valid else None
        curve.append(
            {"horizon": h, "punished_fraction": frac, "analytic_lower_bound": bound}
        )
    estimates = {"curve": curve}
    return _report(config, "wrongful_curve", replications, rows, estimates, {},
                   extras={"curve": curve})


# ---------------------------------------------------------------------------
# Exact enumeration oracle
# ---------------------------------------------------------------------------


def eprocess_exact_oracle(
    num_actions: int,
    w_ref: MixedAction,
    gamma: float,
    num_players: int,
    depth: int,
) -> float:
    """Exact crossing probability of the plug-in e-process at finite depth.

    The probability, under i.i.d. draws from w_ref, that the e-process reaches
    N / gamma within the first ``depth`` observations: a forward pass over the
    count lattice that removes the mass crossing at each step. The caller
    compares this against gamma; the function itself just reports the number.
    """
    if depth < 1:
        raise GameError("depth must be >= 1")
    probs = w_ref.probs if isinstance(w_ref, MixedAction) else np.asarray(w_ref, float)
    if probs.size != num_actions:
        raise GameError("w_ref dimension does not match num_actions")
    live, crossed = {(0,) * num_actions: 1.0}, 0.0
    for _ in range(depth):
        step = {}
        for counts, mass in live.items():
            for a, p in enumerate(probs.tolist()):
                nxt = counts[:a] + (counts[a] + 1,) + counts[a + 1:]
                step[nxt] = step.get(nxt, 0.0) + mass * p
        live = {}
        for counts, mass in step.items():
            if eprocess_crossed(counts, probs, gamma, num_players):
                crossed += mass
            else:
                live[counts] = mass
    return crossed
