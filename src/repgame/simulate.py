"""Episode execution, discounted payoffs, and Monte Carlo verification.

Episodes truncate the infinite game at a horizon T; because stage payoffs
live in [0, 1] the discarded tail of the normalized discounted sum is at
most beta ** T, which every report carries as a truncation certificate.

Random streams are derived per (replication, player, purpose) from the base
seed, so replications are order-independent and reproducible regardless of
worker count. Monte Carlo modes whose play is stationary-until-punishment
use vectorized samplers that draw action streams a chunk at a time (or batch
count vectors directly from the multinomial) instead of stepping rounds one
at a time; these are distributionally identical to the episode protocol.

Both paths sample a pure action the same way: with a uniform u from the
player's stream and the K - 1 cumulative edges p_0, p_0 + p_1, ...,
p_0 + ... + p_{K-2}, the action is the number of edges <= u. Each draw
consumes one uniform, and a vector of n uniforms equals n successive scalar
draws from the same stream. So the episode loop takes each player's
uniforms ``_CHUNK`` at a time from one ``rng.random(size)`` call
(``_uniforms``) and bisects each on the edges that its MixedAction computes
once and caches (``MixedAction.edges``); the vector path compares whole
chunks with the edges.

The e-process depends on a stream only through its action counts, and
every path evaluates the same closed form on them from
``sequential.log_e_table``: log e_t = base[t] + (terms[0][c_0] + ... +
terms[K-1][c_{K-1}]), with base[t] = lgamma(K) - lgamma(t + K) and
terms[a][c] = lgamma(c + 1) - c log w_a (+inf for c > 0 when w_a = 0). The
episode loop (``_Anytime``) evaluates it on its counts every round, the
Monte Carlo path (``_eprocess_tau``) on each chunk of a stream as it is
drawn, and the exact oracle on every state of its forward pass over the
count lattice; on the same counts all three give the same float. tau is the
number of rounds scored when e_t first reaches N / gamma. Each path computes
log(N / gamma) - TIE_BAND once and sends only the rounds at or above it to
``eprocess_crossed``, which decides exactly near a tie.

The anytime Monte Carlo path draws, scores and drops (``_anytime_rep``):
each player's actions come ``_CHUNK`` rounds at a time and each chunk is
scored as it is drawn. A chunked draw from one stream equals one whole draw,
so every tau, onset and payoff is the same as on the whole stream. Scoring a
chunk (``_eprocess_tau``) first bounds log e_t on each block of ``_BLOCK``
rounds by its value at the block's 2^K corner states (``_block_peaks``);
blocks whose bound lies below log(N / gamma) - TIE_BAND are cleared, and
only the rounds from the first uncleared block to the last, or to the first
block that ends surely past N / gamma, go through ``_log_e_chunk``, which
evaluates log e_t on every round.

Each enforcement kind (anytime, batch, grim, none) is one class in the
``KINDS`` table, with the EpisodeConfig fields it needs and their types. An
instance is the episode's enforcement: it holds the test state every player
shares and reports when punishment starts, so ``run_episode`` fixes the
punishment onset once and cooperators switch from the cooperative to the
punishment profile there.

The payoff rule follows the monitoring. Under perfect monitoring the public
record of a round is the played MixedProfile, nothing is drawn, and the
stage payoff is that profile's expected payoff; a round that plays the same
MixedAction objects as the round before reuses that round's payoff row.
Under imperfect monitoring every player draws a pure action, the record is
the joint draw, and the stage payoffs of the realized draws are looked up
once, after the loop. Either way ``Trajectory.actions`` is the public
history's list of records.

Each Monte Carlo mode (type1, detection, payoff, gap, wrongful_curve) is one
object in the ``MODES`` table. It names the enforcement kinds that define it,
runs the replications, checks the report against the paper's bounds and
lays out the tables ``repgame report`` prints. ``monte_carlo`` and
``repgame.experiment`` find a mode only through ``MODES``.
"""
from __future__ import annotations

import bisect
import functools
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
    batch_update,
    eprocess_crossed,
    eprocess_update,
    log_e_at,
    log_e_table,
)
from .strategies import PublicHistory

logger = logging.getLogger("repgame")

WORKERS_ENV = "REPGAME_WORKERS"
SURVIVAL_GRID = (1, 10, 100, 1_000, 10_000, 100_000)
# Rounds drawn and scored at once: each chunk's temporaries stay in cache and
# no array the size of the horizon is built.
_CHUNK = 16_384
# Rounds that _eprocess_tau clears at once by the log e_t of their corner states.
_BLOCK = 128
DEFAULT_CONCLUSIVE_HORIZON = 10_000
INCONCLUSIVE = "inconclusive: horizon certificate"
WILSON_Z = 1.959963984540054  # the standard normal 97.5% quantile


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
    gap_family: list = field(default_factory=list)  # (label, player, strategy)
    curve_horizons: tuple = ()

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise GameError("beta must lie strictly in (0, 1)")
        if self.horizon < 1:
            raise GameError("horizon must be >= 1")
        if self.seed < 0:
            raise GameError("seed must be >= 0")
        if self.monitoring not in ("imperfect", "perfect"):
            raise GameError(f"unknown monitoring mode {self.monitoring!r}")
        kind = KINDS.get(self.enforcement)
        if kind is None:
            raise GameError(f"unknown enforcement kind {self.enforcement!r}")
        if any(getattr(self, name) is None for name in kind.fields):
            needs = " and ".join(kind.fields)
            raise GameError(f"{self.enforcement} enforcement needs {needs}")
        if kind.monitoring not in (None, self.monitoring):
            raise GameError(f"{self.enforcement} enforcement needs {kind.monitoring} monitoring")
        for name in ("gamma", "delta"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < 1.0:
                raise GameError(f"{name} must lie in (0, 1)")
        if self.batch_length is not None and self.batch_length < 1:
            raise GameError("batch_length must be >= 1")


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
    truncation_certificate: float
    rows: list
    survival: list | None = None
    extras: dict = field(default_factory=dict)


def _stream(seed: int, rep: int, player: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng([seed, rep, player, purpose])


def _draw_actions(rng: np.random.Generator, probs: np.ndarray, size: int) -> np.ndarray:
    u = rng.random(size)
    actions = np.zeros(size, dtype=np.int64)
    for edge in np.cumsum(probs[:-1]):
        actions += u >= edge
    return actions


def sample_action(u: float, action: MixedAction) -> int:
    return bisect.bisect_right(action.edges, u)


def _uniforms(rng: np.random.Generator, horizon: int):
    """An iterator over ``horizon`` uniforms from ``rng`` as Python floats,
    drawn ``_CHUNK`` at a time as the iterator reaches them.

    Iterating a memoryview of a chunk makes each float as it is reached, so
    no list of the chunk's floats is built.
    """
    return itertools.chain.from_iterable(
        memoryview(rng.random(min(_CHUNK, horizon - start)))
        for start in range(0, horizon, _CHUNK)
    )


def wilson_interval(successes: int, n: int):
    """95% Wilson score interval for a binomial rate."""
    if n < 1:
        raise GameError("need at least one trial")
    z = WILSON_Z
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
    monitoring the kind needs (None: either) and its required EpisodeConfig
    fields with their types, which spec enforcement fields are read as. The
    kinds that Monte Carlo modes run under add per-replication
    samplers (``type1_rep``, ``payoff_rep``) and the bounds the modes check.
    """

    monitoring = None
    fields = {}

    def __init__(self, config: EpisodeConfig):
        self.config = config

    def observe(self, t: int, record) -> bool:
        return False

    def rejection_times(self) -> list:
        return [None] * self.config.game.num_players


class _Anytime(_Enforcement):
    """One plug-in e-process per player; rejection time tau in rounds."""

    monitoring = "imperfect"
    fields = {"gamma": float}

    def __init__(self, config: EpisodeConfig):
        super().__init__(config)
        self.tests = [
            EProcessState.fresh(i, k) for i, k in enumerate(config.game.action_counts)
        ]
        self.tables = [
            [part.tolist() for part in log_e_table(tuple(w.probs.tolist()), config.horizon)]
            for w in config.target.cooperative
        ]
        self.near = math.log(len(self.tests)) - math.log(config.gamma) - TIE_BAND

    def observe(self, t: int, record) -> bool:
        cooperative, n = self.config.target.cooperative, len(self.tests)
        for i, state in enumerate(self.tests):
            eprocess_update(state, record[i], expected_t=t)
            log_e = log_e_at(self.tables[i], state.counts)
            if (state.fired_at is None and log_e >= self.near and eprocess_crossed(
                    state.counts, cooperative[i], self.config.gamma, n, log_e)):
                state.fired_at = state.t
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

    @staticmethod
    def type1_bound(config: EpisodeConfig):
        """The type-1 assertion's name and bound, and the per-batch bound (None here)."""
        return "type1_rate_le_gamma", config.gamma, None


class _Batch(_Enforcement):
    """One L1 batch test per player; rejection time kappa in batches.

    A rejection at batch kappa punishes from the first round of batch
    kappa + 1, which is the round after the rejected batch completes.
    """

    monitoring = "imperfect"
    fields = {"delta": float, "batch_length": int}

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
        return _batch_rep_counts(config, rep)

    @staticmethod
    def payoff_rep(config: EpisodeConfig, rep: int):
        return _batch_rep_payoff(config, rep)

    @staticmethod
    def p_L(config: EpisodeConfig) -> float:
        """The paper's bound on one batch's wrongful rejection probability."""
        p_l, _ = batch_error_bounds(
            config.game.max_action_count,
            config.game.num_players,
            config.batch_length,
            config.delta,
            config.beta,
        )
        return p_l

    @staticmethod
    def payoff_lower_bound(config: EpisodeConfig):
        p_l = _Batch.p_L(config)
        beta_l = config.beta**config.batch_length
        return beta_l * (1.0 - p_l / (1.0 - beta_l)) * config.target.v

    @staticmethod
    def type1_bound(config: EpisodeConfig):
        """The type-1 assertion's name and bound (a union over the horizon's
        batches), and the per-batch bound p_L."""
        p_l = _Batch.p_L(config)
        horizon_batches = config.horizon // config.batch_length
        return "type1_rate_le_union_p_L", min(1.0, p_l * horizon_batches), p_l


class _Grim(_Enforcement):
    """Punish forever after the first joint profile off the cooperative one."""

    monitoring = "perfect"
    on_path = True

    def observe(self, t: int, record) -> bool:
        self.on_path = record.close_to(self.config.target.cooperative) and self.on_path
        return not self.on_path


KINDS = {"anytime": _Anytime, "batch": _Batch, "grim": _Grim, "none": _Enforcement}


# ---------------------------------------------------------------------------
# Episode loop (reference implementation, any strategy mix)
# ---------------------------------------------------------------------------


def run_episode(config: EpisodeConfig, replication: int = 0) -> Trajectory:
    """Play one episode round by round; fully deterministic given the seed."""
    game, target = config.game, config.target
    n = game.num_players
    enforcement = KINDS[config.enforcement](config)
    history = PublicHistory(mode=config.monitoring)
    perfect = config.monitoring == "perfect"
    # Each round's uniforms, one per player; perfect monitoring draws nothing.
    uniforms = itertools.repeat(None) if perfect else zip(*(
        _uniforms(_stream(config.seed, replication, i, 0), config.horizon) for i in range(n)
    ))
    rows, played, punishment_onset = [], None, None

    for t, drawn in zip(range(config.horizon), uniforms):
        plan = target.cooperative if punishment_onset is None else target.punishment
        mixed = [
            config.deviations[i].act(history, t) if i in config.deviations else plan[i]
            for i in range(n)
        ]
        if perfect:
            record = MixedProfile(tuple(mixed))
            # The expected payoff depends only on the mixed actions, so a
            # round that plays the same objects as the last reuses its row.
            if played is None or any(a is not b for a, b in zip(record.actions, played)):
                row, played = expected_utility(game, record), record.actions
            rows.append(row)
        else:
            record = tuple(map(sample_action, drawn, mixed))
        history.append(record)
        if enforcement.observe(t, record) and punishment_onset is None:
            punishment_onset = t + 1

    if perfect:
        stage_payoffs = np.array(rows)
    else:
        draws = np.array(history.rounds, dtype=np.int64).T
        stage_payoffs = _joint_stage_payoffs(game, list(draws))
    return Trajectory(
        monitoring=config.monitoring,
        actions=history.rounds,
        stage_payoffs=stage_payoffs,
        punishment_onset=punishment_onset,
        rejection_times=enforcement.rejection_times(),
    )


def discounted_payoffs(traj: Trajectory, beta: float):
    """Normalized discounted payoffs over the recorded rounds, with certificate.

    Returns ((1 - beta) * sum_t beta^t u_t, beta^T). The certificate bounds
    the discarded tail since payoffs lie in [0, 1].
    """
    horizon = traj.stage_payoffs.shape[0]
    if horizon == 0:
        raise GameError("empty trajectory")
    weights = (1.0 - beta) * beta ** np.arange(horizon)
    return weights @ traj.stage_payoffs, beta**horizon


# ---------------------------------------------------------------------------
# Vectorized building blocks
# ---------------------------------------------------------------------------


def _log_e_chunk(table, chunk: np.ndarray, start: int, carried: np.ndarray):
    """log e_t at t = start + 1 .. start + chunk.size.

    ``chunk`` holds rounds start .. start + chunk.size - 1 of a stream and
    ``carried`` the action counts of the rounds before it; ``table`` is a
    ``log_e_table`` for at least start + chunk.size rounds.
    """
    base, terms = table
    stop = start + chunk.size
    # t minus the other actions' counts: the last action's counts.
    last = np.arange(start + 1, stop + 1)
    counts = []
    for a in range(terms.shape[0] - 1):
        seen = (chunk == a).astype(np.int64)
        np.cumsum(seen, out=seen)  # ~3x faster on int64 than on bool
        seen += carried[a]
        last -= seen
        counts.append(seen)
    counts.append(last)
    log_e = terms[0].take(counts[0])
    for a in range(1, len(counts)):
        log_e += terms[a].take(counts[a])
    log_e += base[start + 1: stop + 1]
    return log_e


@functools.lru_cache(maxsize=8)
def _corner_bits(num_actions: int) -> np.ndarray:
    """Read-only 0/1 steps, (K, 2^K, 1): column s is one subset of the actions,
    from none (a block's start) to all (its end)."""
    bits = np.array(list(itertools.product((0, 1), repeat=num_actions)), dtype=np.int64)
    bits = np.ascontiguousarray(bits.T[:, :, None])
    bits.flags.writeable = False
    return bits


class _Scan:
    """One player's anytime test part way through a stream.

    ``scored`` rounds have been scored and ``counts`` are their action
    counts; ``table`` is the closed form up to the horizon and ``near`` is
    log(N / gamma) - TIE_BAND.
    """

    def __init__(self, w_ref: np.ndarray, gamma: float, num_players: int, horizon: int):
        self.w_ref, self.gamma, self.num_players = w_ref, gamma, num_players
        self.table = log_e_table(tuple(w_ref.tolist()), horizon)
        self.near = math.log(num_players) - math.log(gamma) - TIE_BAND
        self.scored = 0
        self.counts = np.zeros(w_ref.size, dtype=np.int64)


def _block_peaks(table, chunk: np.ndarray, carried: np.ndarray):
    """Each ``_BLOCK`` rounds of ``chunk``: the counts at its edges, an upper
    bound on log e_t over its rounds and log e_t at its end.

    Returns the (K, blocks + 1) action counts at the block edges, starting
    from ``carried``; per block the largest log e_t among its 2^K corner
    states c + D 1_S, where c are the counts at its start, D the counts it
    adds and S a subset of the actions; and per block log e_t at c + D.
    """
    base, terms = table
    num_actions = carried.size
    edges = np.arange(0, chunk.size, _BLOCK)
    counts = np.empty((num_actions, edges.size + 1), dtype=np.int64)
    counts[:, 0] = carried
    for a in range(num_actions - 1):
        counts[a, 1:] = np.add.reduceat(chunk == a, edges, dtype=np.int64)
    # Each block's length minus the other actions' counts: the last action's.
    counts[-1, 1:] = _BLOCK
    counts[-1, -1] = chunk.size - edges[-1]
    counts[-1, 1:] -= counts[:-1, 1:].sum(axis=0)
    np.cumsum(counts, axis=1, out=counts)
    steps = counts[:, 1:] - counts[:, :-1]
    corners = counts[:, None, :-1] + steps[:, None, :] * _corner_bits(num_actions)
    peak = terms[0].take(corners[0])
    for a in range(1, num_actions):
        peak += terms[a].take(corners[a])
    peak += base.take(corners.sum(axis=0))
    return counts, peak.max(axis=0), peak[-1]


def _eprocess_tau(chunk: np.ndarray, scan: _Scan):
    """Score the next rounds of a stream: tau if the e-process first reaches
    N / gamma within ``chunk``, else None, and ``scan`` moves past the chunk.

    A block's corners bound log e_t on its rounds. At each t, log e_t is
    convex in the counts, so over the states the block reaches it peaks where
    at most one action b is part way through its steps; along a run of b the
    increment log((c_b + 1) / ((t + K) w_b)) never decreases, so it peaks at
    the run's ends, which are corners. Blocks whose peak lies below
    ``scan.near`` cannot cross. The rounds from the first other block to the
    last are scored by ``_log_e_chunk`` in one call, and the rounds at or
    above ``scan.near`` are decided by ``eprocess_crossed`` on their counts.
    A block that ends more than TIE_BAND above log(N / gamma) has crossed by
    its end, so the span stops there.
    """
    start = scan.scored
    counts, peaks, ends = _block_peaks(scan.table, chunk, scan.counts)
    uncleared = np.flatnonzero(peaks >= scan.near)
    if uncleared.size:
        crossed = np.flatnonzero(ends > scan.near + 2 * TIE_BAND)
        last = crossed[0] if crossed.size else uncleared[-1]
        lo, hi = uncleared[0] * _BLOCK, (last + 1) * _BLOCK
        span, carried = chunk[lo:hi], counts[:, uncleared[0]]
        log_e = _log_e_chunk(scan.table, span, start + lo, carried)
        for t in np.flatnonzero(log_e >= scan.near):
            seen = carried + np.bincount(span[: t + 1], minlength=carried.size)
            if eprocess_crossed(seen, scan.w_ref, scan.gamma, scan.num_players, log_e[t]):
                return start + lo + t + 1
    scan.scored, scan.counts = start + chunk.size, counts[:, -1]
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


def _pre_punishment_actions(config: EpisodeConfig, rep: int, player: int, chunk: int):
    """A player's actions until punishment, ``chunk`` rounds at a time.

    A batch-scheduled deviator repeats its schedule; every other player draws
    from a stationary mixed action (the deviator's, or the cooperative one),
    one ``_draw_actions`` call per chunk from the same stream.
    """
    dev = config.deviations.get(player)
    schedule = getattr(dev, "schedule", None)
    if schedule is None:
        if dev is None:
            probs = config.target.cooperative[player].probs
        elif hasattr(dev, "action"):
            probs = dev.action.probs
        else:
            raise GameError(
                "vectorized Monte Carlo needs stationary or batch-scheduled deviations; "
                "use run_episode for adaptive strategies"
            )
        rng = _stream(config.seed, rep, player, 0)
    for start in range(0, config.horizon, chunk):
        size = min(chunk, config.horizon - start)
        if schedule is None:
            yield _draw_actions(rng, probs, size)
        else:
            yield schedule.take(np.arange(start, start + size), mode="wrap")


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
# Monte Carlo replications
# ---------------------------------------------------------------------------


def _onset(times, batch_length=None):
    """Punishment onset round from the players' rejection times, or None.

    A rejection at batch kappa punishes from round (kappa + 1) * batch_length.
    """
    finite = [t for t in times if t is not None]
    if not finite:
        return None
    return min(finite) if batch_length is None else (min(finite) + 1) * batch_length


def _anytime_rep(config: EpisodeConfig, rep: int, want_payoffs: bool):
    """Each player's tau, the onset and, when wanted, the spliced payoffs.

    A player's stream is drawn and scored chunk by chunk and stops at the
    chunk where that player's own test fires. Without payoffs each chunk is
    dropped once scored; with them the chunks drawn are kept, and they cover
    every round before the onset.
    """
    n = config.game.num_players
    streams, taus = [], []
    for i in range(n):
        scan = _Scan(config.target.cooperative[i].probs, config.gamma, n, config.horizon)
        kept, tau = [], None
        for chunk in _pre_punishment_actions(config, rep, i, _CHUNK):
            if want_payoffs:
                kept.append(chunk)
            tau = _eprocess_tau(chunk, scan)
            if tau is not None:
                break
        streams.append(kept)
        taus.append(tau)
    onset = _onset(taus)
    if not want_payoffs:
        return taus, onset, None
    # A stream of one chunk (T <= _CHUNK, or an early crossing) needs no copy.
    streams = [s[0] if len(s) == 1 else np.concatenate(s) for s in streams]
    return taus, onset, _spliced_payoff(config, rep, streams, onset)


def _batch_rep_counts(config: EpisodeConfig, rep: int):
    """Batch verdicts under cooperation, sampling batch counts directly.

    The third item tallies (rejected, tested) batches over all players.
    """
    num_batches = config.horizon // config.batch_length
    kappas, rejected = [], 0
    for i in range(config.game.num_players):
        w = config.target.cooperative[i].probs
        rng = _stream(config.seed, rep, i, 0)
        counts = rng.multinomial(config.batch_length, w, size=num_batches)
        kappa, verdicts = _batch_kappa(counts, w, config.delta)
        kappas.append(kappa)
        rejected += int(verdicts.sum())
    tally = (rejected, num_batches * config.game.num_players)
    return kappas, _onset(kappas, config.batch_length), tally


def _batch_rep_payoff(config: EpisodeConfig, rep: int):
    """Realized batch-enforcement episode with stationary or scheduled deviators."""
    game = config.game
    streams, kappas = [], []
    for i in range(game.num_players):
        # The batch test and the payoff read the whole stream: one chunk.
        actions = next(_pre_punishment_actions(config, rep, i, config.horizon))
        streams.append(actions)
        counts = _batch_counts(actions, config.batch_length, game.action_counts[i])
        kappa, _ = _batch_kappa(counts, config.target.cooperative[i].probs, config.delta)
        kappas.append(kappa)
    onset = _onset(kappas, config.batch_length)
    payoffs = _spliced_payoff(config, rep, streams, onset)
    return kappas, onset, payoffs


def _replicate(config, mode, rep_fn, replications):
    """Each replication's (times, onset, extra) from rep_fn, and its base row."""
    results = _map_reps(lambda rep: rep_fn(config, rep), replications)
    rows = []
    for rep, (times, onset, _) in enumerate(results):
        row = {"mode": mode, "variant": "baseline", "replication": rep,
               "seed": config.seed, "punishment_onset": onset}
        row.update((f"tau_{i}", time) for i, time in enumerate(times))
        rows.append(row)
    return results, rows


def _rate_estimates(successes, n):
    return successes / n, wilson_interval(successes, n)


def _assertion(name, status, observed, bound, note=""):
    return {"name": name, "status": status, "observed": observed, "bound": bound,
            "note": note}


# ---------------------------------------------------------------------------
# Monte Carlo modes
# ---------------------------------------------------------------------------


class _Mode:
    """One Monte Carlo mode: where it is defined, how it runs, checks and reports.

    ``kinds`` are the enforcement kinds that define the mode, and
    ``cooperative`` the kinds under which it samples cooperative play only,
    so it takes no deviations there. ``fields`` are the optional spec fields
    its checks read, with their types, and ``min_replications`` the fewest
    replications its estimates are defined for.
    ``run(config, kind, replications)`` returns the MonteCarloReport's rows,
    estimates, intervals and, as the mode needs, survival and extras;
    ``checks(spec, config, report)`` gives its assertions, and
    ``tables(summary)`` the blocks ``repgame report`` prints for it: each a
    ``(headers, rows)`` table or one line of text. ``no_assertions`` is the
    line the report prints when a run of the mode asserts nothing.
    """

    kinds = frozenset()
    cooperative = frozenset()
    fields = {}
    min_replications = 1
    no_assertions = "no assertable inequalities for this mode"


class _Type1(_Mode):
    """Wrongful-punishment rate under cooperation."""

    kinds = frozenset({"anytime", "batch"})
    cooperative = frozenset({"batch"})
    fields = {"conclusive_horizon": int}

    def run(self, config, kind, replications):
        results, rows = _replicate(config, "type1", kind.type1_rep, replications)
        punished = sum(onset is not None and onset <= config.horizon
                       for _, onset, _ in results)
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
        return {"rows": rows, "estimates": estimates, "intervals": intervals}

    def checks(self, spec, config, report):
        """The rate against the kind's type-1 bound, and batch rejections against p_L.

        Over censored data the rate passes only when the horizon reaches the
        conclusive threshold; below it a non-violating rate is inconclusive
        because unobserved rejections past T cannot be excluded.
        """
        name, bound, p_l = KINDS[config.enforcement].type1_bound(config)
        out = []
        if p_l is not None:
            batch_rate = report.estimates["per_batch_rejection_rate"]
            _, batch_upper = report.intervals["per_batch_rejection_rate"]
            slack = max(p_l, batch_upper - batch_rate)
            status = "pass" if batch_rate <= p_l + slack else "fail"
            out.append(_assertion("per_batch_rate_le_p_L", status, batch_rate, p_l))
        rate = report.estimates["punished_rate_censored"]
        _, upper = report.intervals["punished_rate_censored"]
        slack = upper - rate
        if rate > bound + slack:
            status = "fail"
        elif config.horizon < spec.get("conclusive_horizon", DEFAULT_CONCLUSIVE_HORIZON):
            status = INCONCLUSIVE
        else:
            status = "pass"
        out.append(_assertion(
            name, status, rate, bound,
            note="censored lower bound on the wrongful-punishment probability",
        ))
        return out

    def tables(self, summary):
        est, intervals = summary["estimates"], summary["intervals"]
        rows = [
            [label, f"{est[key]:.6g}", "[{:.6g}, {:.6g}]".format(*intervals[key])]
            for label, key in (("punished rate (censored)", "punished_rate_censored"),
                               ("per-batch rejection rate", "per_batch_rejection_rate"))
            if key in est
        ]
        return [(["estimate", "value", "wilson 95% CI"], rows)]


class _Detection(_Mode):
    """Rejection times against a declared deviation."""

    kinds = frozenset({"anytime"})
    fields = {"min_detection_rate": float}
    min_replications = 2  # the sample sd of the detection times
    no_assertions = "no assertions for this run: it sets no min_detection_rate"

    def run(self, config, kind, replications):
        if not config.deviations:
            raise GameError("detection mode needs at least one declared deviation")
        results, rows = _replicate(config, "detection", kind.type1_rep, replications)
        onsets = [onset for _, onset, _ in results]
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
        return {"rows": rows, "estimates": estimates, "intervals": intervals,
                "survival": survival}

    def checks(self, spec, config, report):
        minimum = spec.get("min_detection_rate")
        if minimum is None:
            return []
        rate = report.estimates["detected_rate"]
        status = "pass" if rate >= minimum else "fail"
        return [_assertion("detected_rate_ge_min", status, rate, minimum)]

    def tables(self, summary):
        est = summary["estimates"]
        rows = [[label, f"{est[key]:.6g}"] for label, key in (
            ("detected rate", "detected_rate"),
            ("mean tau (censored)", "mean_tau_censored"),
            ("median tau (censored)", "median_tau_censored"),
            ("q90 tau (censored)", "q90_tau_censored"),
        )]
        blocks = [(["estimate", "value"], rows)]
        if summary.get("survival"):
            blocks.append((["t", "P(tau >= t)"],
                           [[t, f"{p:.6g}"] for t, p in summary["survival"]]))
        return blocks


class _Payoff(_Mode):
    """Discounted payoff estimates against the theoretical sandwich."""

    kinds = frozenset({"anytime", "batch"})
    min_replications = 2  # the payoff SE
    # checks() asserts nothing exactly when the run declares deviations.
    no_assertions = ("no assertions for this run: it declares deviations, and the "
                     "payoff sandwich bounds cooperative play only")

    def run(self, config, kind, replications):
        results, rows = _replicate(config, "payoff", kind.payoff_rep, replications)
        for row, (_, _, payoffs) in zip(rows, results):
            row.update((f"payoff_{i}", payoff) for i, payoff in enumerate(payoffs))
        payoff_matrix = np.array([payoffs for _, _, payoffs in results])
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
        return {"rows": rows, "estimates": estimates, "intervals": intervals,
                "extras": extras}

    def checks(self, spec, config, report):
        """The sandwich per player; none when deviations are declared.

        The lower bound holds for cooperative play only: a detected deviator
        sends every player to punishment, which can take them below it.
        """
        if config.deviations:
            return []
        lower = report.extras["theoretical_lower"]
        upper = report.extras["theoretical_upper"]
        mean, se = report.estimates["mean_payoff"], report.estimates["payoff_se"]
        cert = report.truncation_certificate
        out = []
        for i in range(config.game.num_players):
            # Stage payoffs lie in [0, 1], so truncating at T lowers the
            # mean by at most beta^T: the certificate widens the lower side.
            ok = lower[i] - 3.0 * se[i] - cert <= mean[i] <= upper[i] + 3.0 * se[i]
            out.append(_assertion(
                f"payoff_sandwich_player_{i}", "pass" if ok else "fail", mean[i],
                [lower[i], upper[i]],
                note="bounds widened by 3 SE (- truncation certificate below)",
            ))
        return out

    def tables(self, summary):
        lower = summary["extras"]["theoretical_lower"]
        upper = summary["extras"]["theoretical_upper"]
        rows = [[i, f"{lower[i]:.6g}", f"{m:.6g}", f"{upper[i]:.6g}"]
                for i, m in enumerate(summary["estimates"]["mean_payoff"])]
        return [(["player", "lower bound", "estimate", "v"], rows)]


class _Gap(_Mode):
    """Max estimated deviation gain over the configured family.

    An explicit under-approximation of the sup over all strategies: only the
    configured finite family is searched.
    """

    kinds = frozenset({"anytime"})
    fields = {"gap_epsilon": float}
    min_replications = 2  # the payoff SE
    no_assertions = "no assertions for this run: it sets no gap_epsilon"

    def run(self, config, kind, replications):
        if not config.gap_family:
            raise GameError("gap mode needs a configured deviation family")
        baseline = MODES["payoff"].run(replace(config, deviations={}), kind, replications)
        base_mean = np.asarray(baseline["estimates"]["mean_payoff"])
        base_se = np.asarray(baseline["estimates"]["payoff_se"])
        rows = [{**row, "mode": "gap"} for row in baseline["rows"]]
        table = []
        for label, player, strategy in config.gap_family:
            dev_config = replace(config, deviations={player: strategy})
            dev_report = MODES["payoff"].run(dev_config, kind, replications)
            dev_mean = dev_report["estimates"]["mean_payoff"][player]
            dev_se = dev_report["estimates"]["payoff_se"][player]
            gain = dev_mean - base_mean[player]
            gain_se = math.sqrt(dev_se**2 + base_se[player] ** 2)
            table.append({"label": label, "player": player, "gain": gain, "gain_se": gain_se})
            rows.extend({**row, "mode": "gap", "variant": label} for row in dev_report["rows"])
        best = max(table, key=lambda entry: entry["gain"])  # the first of equal gains
        max_gain, max_gain_se = best["gain"], best["gain_se"]
        estimates = {
            "max_gain": max_gain,
            "max_gain_se": max_gain_se,
            "max_gain_label": best["label"],
            "baseline_payoff": base_mean.tolist(),
        }
        intervals = {"max_gain": (max_gain - 1.96 * max_gain_se, max_gain + 1.96 * max_gain_se)}
        return {"rows": rows, "estimates": estimates, "intervals": intervals,
                "extras": {"family": table}}

    def checks(self, spec, config, report):
        epsilon = spec.get("gap_epsilon")
        if epsilon is None:
            return []
        bound = epsilon + config.gamma
        gain, se = report.estimates["max_gain"], report.estimates["max_gain_se"]
        status = "pass" if gain <= bound + 3.0 * se else "fail"
        return [_assertion("max_gain_le_eps_plus_gamma", status, gain, bound,
                           note="bound widened by 3 SE")]

    def tables(self, summary):
        est = summary["estimates"]
        rows = [[e["label"], e["player"], f"{e['gain']:.6g}", f"{e['gain_se']:.3g}"]
                for e in summary["extras"]["family"]]
        return [(["deviation", "player", "gain", "se"], rows),
                f"max gain: {est['max_gain']:.6g} ({est['max_gain_label']})"]


class _WrongfulCurve(_Mode):
    """Punished fraction at nested horizons under cooperation."""

    kinds = frozenset({"batch"})
    cooperative = frozenset({"batch"})

    def run(self, config, kind, replications):
        horizons = [h for h in (config.curve_horizons or SURVIVAL_GRID[3:])
                    if h <= config.horizon]
        if not horizons:
            raise GameError("no curve horizons within the configured horizon")
        results, rows = _replicate(config, "wrongful_curve", kind.type1_rep, replications)
        onsets = np.array([math.inf if onset is None else onset for _, onset, _ in results])
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
        return {"rows": rows, "estimates": {"curve": curve}, "intervals": {},
                "extras": {"curve": curve}}

    def checks(self, spec, config, report):
        curve = report.estimates["curve"]
        fracs = [point["punished_fraction"] for point in curve]
        monotone = all(a <= b + 1e-12 for a, b in zip(fracs, fracs[1:]))
        out = [_assertion("punished_fraction_nondecreasing",
                          "pass" if monotone else "fail", fracs, None)]
        frac, bound = curve[-1]["punished_fraction"], curve[-1]["analytic_lower_bound"]
        if bound is not None:
            n = report.replications
            _, upper = wilson_interval(round(frac * n), n)
            out.append(_assertion(
                "final_fraction_ge_analytic_bound", "pass" if upper >= bound else "fail",
                frac, bound,
                note="fails only when the Wilson 95% upper limit is below the bound",
            ))
        return out

    def tables(self, summary):
        rows = [[p["horizon"], f"{p['punished_fraction']:.6g}",
                 "-" if p["analytic_lower_bound"] is None
                 else f"{p['analytic_lower_bound']:.6g}"]
                for p in summary["estimates"]["curve"]]
        return [(["horizon", "punished fraction", "analytic lower bound"], rows)]


MODES = {"type1": _Type1(), "detection": _Detection(), "payoff": _Payoff(), "gap": _Gap(),
         "wrongful_curve": _WrongfulCurve()}


def monte_carlo(config: EpisodeConfig, mode: str, replications: int) -> MonteCarloReport:
    """Run a Monte Carlo experiment in one of the modes of ``MODES``.

    Modes: ``type1`` (wrongful-punishment rate under cooperation),
    ``detection`` (rejection times against a declared deviation), ``payoff``
    (discounted payoff estimates against the theoretical sandwich), ``gap``
    (max estimated deviation gain over a configured family), and
    ``wrongful_curve`` (punished fraction at nested horizons, batch only).
    """
    if mode not in MODES:
        raise GameError(f"unknown Monte Carlo mode {mode!r}")
    entry = MODES[mode]
    if replications < entry.min_replications:
        raise GameError(f"{mode} mode needs replications >= {entry.min_replications}")
    if config.enforcement not in entry.kinds:
        raise GameError(f"{mode} mode is not defined for {config.enforcement} enforcement")
    if config.deviations and config.enforcement in entry.cooperative:
        raise GameError(f"{mode} mode is not defined for {config.enforcement} enforcement "
                        "with declared deviations: it samples cooperative play only")
    return MonteCarloReport(mode=mode, replications=replications, base_seed=config.seed,
                            truncation_certificate=config.beta**config.horizon,
                            **entry.run(config, KINDS[config.enforcement], replications))


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

    Each lattice state is decided float-then-exact: log e_t from
    ``log_e_table`` (the closed form the episode loop and the stream kernel
    evaluate, within 1e-9 of the exact value at the depths tested) decides
    below log(N / gamma) - TIE_BAND, and ``eprocess_crossed`` the rest, in
    Fraction only within TIE_BAND of log(N / gamma).
    """
    if depth < 1:
        raise GameError("depth must be >= 1")
    probs = w_ref.probs if isinstance(w_ref, MixedAction) else np.asarray(w_ref, float)
    if probs.size != num_actions:
        raise GameError("w_ref dimension does not match num_actions")
    weights = probs.tolist()
    table = [part.tolist() for part in log_e_table(tuple(weights), depth)]
    near = math.log(num_players) - math.log(gamma) - TIE_BAND
    live, crossed = {(0,) * num_actions: 1.0}, 0.0
    for _ in range(depth):
        step = {}
        for counts, mass in live.items():
            for a, p in enumerate(weights):
                nxt = counts[:a] + (counts[a] + 1,) + counts[a + 1:]
                step[nxt] = step.get(nxt, 0.0) + mass * p
        live = {}
        for counts, mass in step.items():
            log_e = log_e_at(table, counts)
            if log_e >= near and eprocess_crossed(counts, probs, gamma, num_players, log_e):
                crossed += mass
            else:
                live[counts] = mass
    return crossed
