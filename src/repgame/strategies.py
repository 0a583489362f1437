"""Behavior strategies: deterministic maps from public histories to mixed actions.

The enforcement itself (grim trigger and both test-then-punish variants) is
not a per-player strategy here: ``simulate.run_episode`` holds the test
state every player shares and fixes the punishment onset once. This module
holds the public history and the deviation strategies played against it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .game import MixedAction, MixedProfile, PayoffTarget, StageGame, pure_action_payoffs


class ModeError(ValueError):
    """History mode incompatible with the strategy."""


class ConfigurationError(ValueError):
    """Missing or invalid strategy configuration."""


@dataclass
class PublicHistory:
    """Append-only record of play visible to every player.

    In imperfect mode each round is a tuple of realized pure-action indices;
    in perfect mode each round is the joint MixedProfile actually played.
    """

    mode: str = "imperfect"
    rounds: list = field(default_factory=list)

    def __post_init__(self):
        if self.mode not in ("imperfect", "perfect"):
            raise ModeError(f"unknown history mode {self.mode!r}")

    def __len__(self) -> int:
        return len(self.rounds)

    def append(self, joint) -> None:
        if self.mode == "imperfect":
            # run_episode passes a tuple of Python ints; store that as is.
            if type(joint) is not tuple or not all(type(a) is int for a in joint):
                joint = tuple(int(a) for a in joint)
            self.rounds.append(joint)
        else:
            if not isinstance(joint, MixedProfile):
                joint = MixedProfile(tuple(joint))
            self.rounds.append(joint)


class Stationary:
    """Plays one fixed mixed action at every history."""

    def __init__(self, action):
        self.action = action if isinstance(action, MixedAction) else MixedAction(action)

    def act(self, history, t: int) -> MixedAction:
        return self.action


class SmallBall(Stationary):
    """Stationary action on the boundary of the TV ball around the cooperative action.

    Mass epsilon is moved along a payoff-increasing direction, so the emitted
    action sits at L1 distance exactly 2 epsilon from the reference.
    """

    def __init__(self, game: StageGame, target: PayoffTarget, player: int,
                 epsilon: float, direction=None):
        if epsilon < 0.0:
            raise ConfigurationError("epsilon must be nonnegative")
        ref = target.cooperative[player].probs
        if direction is not None:
            d = np.asarray(direction, dtype=float)
            if d.size != ref.size or abs(d.sum()) > 1e-9:
                raise ConfigurationError("direction must match the action set and sum to 0")
            norm = np.abs(d).sum()
            if norm == 0.0:
                raise ConfigurationError("direction must be nonzero")
            probs = ref + d * (2.0 * epsilon / norm)
            if np.any(probs < -1e-12) or np.any(probs > 1.0 + 1e-12):
                raise ConfigurationError("boundary point leaves the simplex")
        else:
            probs = self._payoff_increasing(game, target, player, ref, epsilon)
        self.epsilon = epsilon
        super().__init__(MixedAction(probs))

    @staticmethod
    def _payoff_increasing(game, target, player, ref, epsilon):
        # Shift mass from the worst stage actions to the best one.
        payoffs = pure_action_payoffs(game, target.cooperative, player)
        best = int(np.argmax(payoffs))
        probs = ref.copy()
        remaining = epsilon
        for a in np.argsort(payoffs, kind="stable"):
            if a == best or remaining <= 0.0:
                continue
            take = min(probs[a], remaining)
            probs[a] -= take
            probs[best] += take
            remaining -= take
        if remaining > 1e-12:
            raise ConfigurationError(
                f"cannot move mass {epsilon} off the cooperative action"
            )
        return probs


class BatchAdversarial:
    """Commits per batch to a pure multiset matching the cooperative frequencies.

    The multiset is the integer count vector closest to L * w in L1 (ties
    toward lower action index), so the batch test accepts it whenever
    delta > K / L; for delta <= K / L the strategy falls back to playing the
    cooperative mixed action itself, held in ``action`` as for a stationary
    deviator (``schedule`` is then None). Actions are ordered by descending
    stage payoff against the cooperative opponents, front-loading value under
    discounting.
    """

    def __init__(self, game: StageGame, target: PayoffTarget, player: int,
                 batch_length: int, delta: float):
        if batch_length < 2:
            raise ConfigurationError("batch length must be >= 2")
        if delta <= 0.0:
            raise ConfigurationError("delta must be positive")
        self.batch_length = batch_length
        self.delta = delta
        self.player = player
        ref = target.cooperative[player].probs
        num_actions = ref.size
        self.num_actions = num_actions
        counts = self._rounded_counts(ref, batch_length)
        distance = np.abs(counts / batch_length - ref).sum()
        if distance >= delta:
            # Counts cannot be placed strictly inside the acceptance region.
            self.schedule = None
            self.action = target.cooperative[player]
            return
        payoffs = pure_action_payoffs(game, target.cooperative, player)
        order = sorted(range(num_actions), key=lambda a: (-payoffs[a], a))
        schedule = []
        for a in order:
            schedule.extend([a] * int(counts[a]))
        self.schedule = np.array(schedule, dtype=np.int64)

    @staticmethod
    def _rounded_counts(ref: np.ndarray, batch_length: int) -> np.ndarray:
        scaled = ref * batch_length
        counts = np.floor(scaled).astype(np.int64)
        shortfall = batch_length - int(counts.sum())
        frac = scaled - counts
        for a in sorted(range(ref.size), key=lambda a: (-frac[a], a))[:shortfall]:
            counts[a] += 1
        return counts

    def act(self, history, t: int) -> MixedAction:
        if self.schedule is None:
            return self.action
        probs = np.zeros(self.num_actions)
        probs[int(self.schedule[t % self.batch_length])] = 1.0
        return MixedAction(probs)


class OneShotDeviation:
    """A grim-trigger follower forced to play one pure action at a fixed round.

    Outside the forced round it behaves like everyone else: cooperate on a
    clean perfect-monitoring history, punish forever after any off-path
    round (including its own forced deviation). It is called once per round
    and compares only the newest profile, so an episode is linear in its
    horizon; the state resets at t = 0.
    """

    def __init__(self, target: PayoffTarget, player: int, at_round: int, action: int):
        self.target = target
        self.player = player
        self.at_round = at_round
        probs = np.zeros(len(target.cooperative[player]))
        probs[action] = 1.0
        self.deviation = MixedAction(probs)
        self.on_path = True

    def act(self, history, t: int) -> MixedAction:
        if t == 0:
            self.on_path = True
        elif history.mode == "perfect" and self.on_path:
            self.on_path = history.rounds[-1].close_to(self.target.cooperative)
        if t == self.at_round:
            return self.deviation
        if not self.on_path:
            return self.target.punishment[self.player]
        return self.target.cooperative[self.player]


def _field(params: dict, name: str, cast, default=None):
    """``params[name]`` (or ``default``) passed through ``cast``; errors name the field."""
    value = params.get(name, default)
    if value is None:
        raise ConfigurationError(f"missing field {name!r}")
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"invalid field {name!r}: {exc}") from None


def make_deviation(kind: str, params: dict):
    """Build a deviation strategy from a named family.

    Kinds: ``stationary`` (probs), ``small_ball`` (game, target, player,
    epsilon, optional direction), ``batch_adversarial`` (game, target,
    player, batch_length, delta). Fields are coerced to their types. A
    batch_adversarial without its own batch_length or delta takes it from
    ``params["enforcement"]``, a resolved enforcement mapping. A missing or
    invalid field raises ConfigurationError naming the field.
    """
    if kind == "stationary":
        return Stationary(_field(params, "probs", MixedAction))
    if kind == "small_ball":
        return SmallBall(params["game"], params["target"], _field(params, "player", int),
                         _field(params, "epsilon", float), params.get("direction"))
    if kind == "batch_adversarial":
        enforcement = params.get("enforcement", {})
        return BatchAdversarial(
            params["game"], params["target"], _field(params, "player", int),
            _field(params, "batch_length", int, enforcement.get("batch_length")),
            _field(params, "delta", float, enforcement.get("delta")),
        )
    raise ConfigurationError(f"unknown deviation kind {kind!r}")
