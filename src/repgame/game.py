"""Stage-game representation and one-shot equilibrium primitives.

Payoffs are normalized to [0, 1]. Mixed actions live on the probability
simplex; inputs within 1e-9 of a simplex point are renormalized, anything
worse (or not finite) is rejected. All functions here are pure and safe to
call concurrently.
"""
from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SIMPLEX_ATOL = 1e-9
NASH_TOL = 1e-9
PROFILE_EQ_ATOL = 1e-12
PUNISHMENT_NASH_TOL = 1e-6  # best-response gap a target's punishment profile may have


class GameError(ValueError):
    """Invalid game data or mismatched dimensions."""


class DegeneratePlayerError(GameError):
    """A player's maximum and punishment payoffs coincide."""


def as_simplex(probs) -> np.ndarray:
    """Validate ``probs`` as a probability vector, renormalizing tiny drift.

    A vector whose float sum lies within rounding of 1 (4 ulps per entry) is
    returned as it is, so normalizing twice gives the bits of normalizing once.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise GameError("probability vector must be 1-d and nonempty")
    if not np.all(np.isfinite(p)):
        raise GameError(f"non-finite probability entry in {p}")
    if np.any(p < -SIMPLEX_ATOL):
        raise GameError(f"negative probability entry in {p}")
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if abs(total - 1.0) > SIMPLEX_ATOL:
        raise GameError(f"probabilities sum to {total!r}, not 1")
    if abs(total - 1.0) <= 4 * p.size * np.finfo(float).eps:
        return p
    return p / total


@dataclass(frozen=True, eq=False)
class MixedAction:
    """A probability distribution over one player's pure actions.

    Two mixed actions are equal when their probabilities are exactly equal.
    """

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", as_simplex(self.probs))

    def __len__(self) -> int:
        return self.probs.size

    def __getitem__(self, a: int) -> float:
        return float(self.probs[a])

    def __eq__(self, other) -> bool:
        if not isinstance(other, MixedAction):
            return NotImplemented
        return bool(np.array_equal(self.probs, other.probs))

    def __hash__(self) -> int:
        return hash(tuple(self.probs.tolist()))

    @functools.cached_property
    def edges(self) -> tuple:
        """The K - 1 cumulative edges p_0, p_0 + p_1, ... that a uniform draw is bisected on."""
        return tuple(itertools.accumulate(self.probs[:-1].tolist()))

    def close_to(self, other: "MixedAction") -> bool:
        if self is other:  # probs are finite, so allclose(x, x) holds
            return True
        return len(self) == len(other) and bool(
            np.allclose(self.probs, other.probs, rtol=0.0, atol=PROFILE_EQ_ATOL)
        )


def _coerce_action(a) -> MixedAction:
    return a if isinstance(a, MixedAction) else MixedAction(np.asarray(a, dtype=float))


@dataclass(frozen=True)
class MixedProfile:
    """One mixed action per player; profiles are equal when their actions are."""

    actions: tuple

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(_coerce_action(a) for a in self.actions))

    def __len__(self) -> int:
        return len(self.actions)

    def __getitem__(self, i: int) -> MixedAction:
        return self.actions[i]

    def close_to(self, other: "MixedProfile") -> bool:
        return len(self) == len(other) and all(
            a.close_to(b) for a, b in zip(self.actions, other.actions)
        )


@dataclass(frozen=True)
class StageGame:
    """A finite N-player normal-form game with payoffs in [0, 1]."""

    num_players: int
    action_counts: tuple
    utilities: tuple

    def __post_init__(self):
        if self.num_players < 2:
            raise GameError("need at least two players")
        counts = tuple(int(k) for k in self.action_counts)
        if len(counts) != self.num_players or any(k < 2 for k in counts):
            raise GameError("need one action count >= 2 per player")
        tensors = tuple(np.asarray(u, dtype=float) for u in self.utilities)
        if len(tensors) != self.num_players:
            raise GameError("need one utility tensor per player")
        for i, u in enumerate(tensors):
            if u.shape != counts:
                raise GameError(
                    f"utility tensor for player {i} has shape {u.shape}, expected {counts}"
                )
            if np.any(u < 0.0) or np.any(u > 1.0):
                raise GameError(f"payoffs for player {i} fall outside [0, 1]")
        object.__setattr__(self, "action_counts", counts)
        object.__setattr__(self, "utilities", tensors)

    @property
    def max_payoffs(self) -> np.ndarray:
        """Per-player maximum stage payoff over joint pure actions."""
        return np.array([u.max() for u in self.utilities])

    @property
    def max_action_count(self) -> int:
        return max(self.action_counts)


def load_game(source) -> StageGame:
    """Load a stage game from a JSON document, file path, or parsed dict.

    Keys are part of the contract: ``num_players``, ``action_counts``,
    ``utilities`` (per-player nested list in row-major joint-action order).
    """
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            doc = json.load(fh)
    else:
        doc = source
    try:
        n = int(doc["num_players"])
        counts = tuple(int(k) for k in doc["action_counts"])
        utilities = doc["utilities"]
    except (KeyError, TypeError) as exc:
        raise GameError(f"malformed game document: {exc}") from exc
    tensors = tuple(np.asarray(u, dtype=float).reshape(counts) for u in utilities)
    return StageGame(num_players=n, action_counts=counts, utilities=tensors)


def _check_profile(game: StageGame, profile: MixedProfile) -> None:
    if len(profile) != game.num_players:
        raise GameError("profile has wrong number of players")
    for i, a in enumerate(profile.actions):
        if len(a) != game.action_counts[i]:
            raise GameError(f"action for player {i} has wrong dimension")


def expected_utility(game: StageGame, profile: MixedProfile) -> np.ndarray:
    """Per-player expected payoff of a mixed profile under the product measure."""
    _check_profile(game, profile)
    out = np.empty(game.num_players)
    for i, u in enumerate(game.utilities):
        v = u
        for a in profile.actions:
            v = np.tensordot(v, a.probs, axes=([0], [0]))
        out[i] = v
    return out


def pure_action_payoffs(game: StageGame, profile: MixedProfile, player: int) -> np.ndarray:
    """Expected payoff of each pure action of ``player`` against ``profile``'s others."""
    _check_profile(game, profile)
    v = np.moveaxis(game.utilities[player], player, 0)
    for j in range(game.num_players):
        if j != player:
            v = np.tensordot(v, profile[j].probs, axes=([1], [0]))
    return v


def best_response_gap(game: StageGame, profile: MixedProfile) -> np.ndarray:
    """Per-player gap between the best pure response and the current payoff.

    A profile is an eps-Nash equilibrium of the stage game iff the max gap
    is at most eps.
    """
    current = expected_utility(game, profile)
    gaps = np.empty(game.num_players)
    for i in range(game.num_players):
        gaps[i] = pure_action_payoffs(game, profile, i).max() - current[i]
    return np.maximum(gaps, 0.0)


def _supports(k: int):
    """Supports in lexicographic order of (size, index set)."""
    for size in range(1, k + 1):
        yield from itertools.combinations(range(k), size)


def _solve_support_pair(game: StageGame, s1, s2):
    """Solve the indifference system for one support pair, or return None."""
    u1, u2 = game.utilities
    # Player 2's mixing q over s2 makes player 1 indifferent across s1.
    rows_q = [u1[np.ix_([a], s2)][0] - u1[np.ix_([s1[0]], s2)][0] for a in s1[1:]]
    rows_q.append(np.ones(len(s2)))
    rhs_q = np.zeros(len(s1))
    rhs_q[-1] = 1.0
    # Player 1's mixing p over s1 makes player 2 indifferent across s2.
    rows_p = [u2[np.ix_(s1, [b])][:, 0] - u2[np.ix_(s1, [s2[0]])][:, 0] for b in s2[1:]]
    rows_p.append(np.ones(len(s1)))
    rhs_p = np.zeros(len(s2))
    rhs_p[-1] = 1.0
    try:
        q, res_q, *_ = np.linalg.lstsq(np.array(rows_q), rhs_q, rcond=None)
        p, res_p, *_ = np.linalg.lstsq(np.array(rows_p), rhs_p, rcond=None)
    except np.linalg.LinAlgError:
        return None
    for sol, rows, rhs in ((q, rows_q, rhs_q), (p, rows_p, rhs_p)):
        if np.any(sol < -1e-9):
            return None
        if not np.allclose(np.array(rows) @ sol, rhs, atol=1e-9):
            return None
    full_p = np.zeros(game.action_counts[0])
    full_p[list(s1)] = np.clip(p, 0.0, None)
    full_q = np.zeros(game.action_counts[1])
    full_q[list(s2)] = np.clip(q, 0.0, None)
    try:
        return MixedProfile((full_p / full_p.sum(), full_q / full_q.sum()))
    except GameError:
        return None


def solve_bimatrix_nash(game: StageGame) -> MixedProfile:
    """Find a Nash equilibrium of a two-player game by support enumeration.

    Deterministic: support pairs are scanned in lexicographic order of
    (size, index set), player 1 outermost; the first profile whose
    best-response gap is at most 1e-9 per player is returned.
    """
    if game.num_players != 2:
        raise GameError("support enumeration only implemented for two players")
    for s1 in _supports(game.action_counts[0]):
        for s2 in _supports(game.action_counts[1]):
            profile = _solve_support_pair(game, s1, s2)
            if profile is None:
                continue
            if best_response_gap(game, profile).max() <= NASH_TOL:
                return profile
    raise GameError("support enumeration found no equilibrium (numerical failure)")


@dataclass(frozen=True)
class PayoffTarget:
    """Target payoffs plus the cooperative and punishment profiles realizing them."""

    v: np.ndarray
    cooperative: MixedProfile
    punishment: MixedProfile

    def __post_init__(self):
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        if not isinstance(self.cooperative, MixedProfile):
            object.__setattr__(self, "cooperative", MixedProfile(tuple(self.cooperative)))
        if not isinstance(self.punishment, MixedProfile):
            object.__setattr__(self, "punishment", MixedProfile(tuple(self.punishment)))

    @classmethod
    def from_profiles(cls, game: StageGame, cooperative, punishment) -> "PayoffTarget":
        if not isinstance(cooperative, MixedProfile):
            cooperative = MixedProfile(tuple(cooperative))
        if not isinstance(punishment, MixedProfile):
            punishment = MixedProfile(tuple(punishment))
        target = cls(expected_utility(game, cooperative), cooperative, punishment)
        target.validate(game)
        return target

    def validate(self, game: StageGame) -> None:
        """Check feasibility, individual rationality, and the punishment equilibrium."""
        achieved = expected_utility(game, self.cooperative)
        if not np.allclose(achieved, self.v, rtol=0.0, atol=1e-9):
            raise GameError(f"target payoffs {self.v} not achieved by cooperative profile")
        floor = expected_utility(game, self.punishment)
        if np.any(self.v < floor - 1e-9):
            raise GameError("target payoff below the punishment payoff for some player")
        gap = best_response_gap(game, self.punishment).max()
        if gap > PUNISHMENT_NASH_TOL:
            raise GameError(f"punishment profile is not a stage Nash equilibrium (gap {gap})")

    def punishment_payoffs(self, game: StageGame) -> np.ndarray:
        return expected_utility(game, self.punishment)


def patience_thresholds(
    game: StageGame, target: PayoffTarget, mode: str, params: dict | None = None
) -> np.ndarray:
    """Per-player discount-factor thresholds for sustaining the target payoffs.

    ``mode`` selects the formula: ``perfect`` gives (ubar - v) / (ubar - ulow);
    ``anytime`` gives (ubar - (1 - gamma) v) / (ubar - ulow), read against beta
    raised to the worst-case detection time; ``batch`` gives
    (ubar - v - delta_L) / (ubar - ulow), read against beta ** L. Values are
    reported raw and may fall outside [0, 1]; callers check membership.
    """
    params = params or {}
    ubar = game.max_payoffs
    ulow = target.punishment_payoffs(game)
    denom = ubar - ulow
    if np.any(denom <= 0.0):
        raise DegeneratePlayerError("max payoff equals punishment payoff for some player")
    if mode == "perfect":
        num = ubar - target.v
    elif mode == "anytime":
        gamma = float(params["gamma"])
        num = ubar - (1.0 - gamma) * target.v
    elif mode == "batch":
        delta_l = float(params["delta_L"])
        num = ubar - target.v - delta_l
    else:
        raise GameError(f"unknown patience mode {mode!r}")
    return num / denom
