"""Statistical enforcement layer: plug-in e-processes and batch L1 tests.

The e-process accumulates in log domain; products of hundreds of likelihood
ratios overflow in linear domain. Verdict thresholds are inclusive (>=).
An observation outside the support of the reference action forces the log
accumulator to +inf: detection is certain and the episode continues into
punishment rather than erroring.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .game import MixedAction


class TestInputError(ValueError):
    """Invalid counts or parameters fed to a test."""


class StalenessError(TestInputError):
    """A test state is out of sync with the caller's clock."""


@dataclass
class EProcessState:
    """Per-player accumulator for the plug-in e-process.

    ``fired_at`` is the round index from which punishment applies: it is set
    to the number of observations seen when the threshold was first crossed,
    and never changes afterwards.
    """

    player: int
    counts: np.ndarray
    t: int = 0
    log_e: float = 0.0
    fired_at: int | None = None

    @classmethod
    def fresh(cls, player: int, num_actions: int) -> "EProcessState":
        return cls(player=player, counts=np.zeros(num_actions, dtype=np.int64))

    @property
    def num_actions(self) -> int:
        return self.counts.size


def laplace_estimate(counts, t: int, num_actions: int) -> MixedAction:
    """Smoothed empirical frequencies (count + 1) / (t + K).

    At t = 0 this is the uniform distribution.
    """
    c = np.asarray(counts, dtype=np.int64)
    if c.size != num_actions:
        raise TestInputError("counts length does not match the action count")
    if np.any(c < 0):
        raise TestInputError("negative count")
    if int(c.sum()) != t:
        raise TestInputError(f"counts sum to {int(c.sum())}, expected t={t}")
    return MixedAction((c + 1.0) / (t + num_actions))


def eprocess_update(state: EProcessState, action: int, w_ref: MixedAction,
                    expected_t: int | None = None) -> EProcessState:
    """Fold one observed pure action into the e-process accumulator.

    The plug-in predictor uses counts from strictly earlier rounds, so the
    ratio is computed before the new observation is counted.
    """
    if expected_t is not None and state.t != expected_t:
        raise StalenessError(f"state at t={state.t}, caller at t={expected_t}")
    if not 0 <= action < state.num_actions:
        raise TestInputError(f"action {action} out of range")
    ref = w_ref[action]
    if ref <= 0.0:
        state.log_e = math.inf
    elif math.isfinite(state.log_e):
        pred = (state.counts[action] + 1.0) / (state.t + state.num_actions)
        state.log_e += math.log(pred) - math.log(ref)
    state.counts[action] += 1
    state.t += 1
    return state


def anytime_verdict(state: EProcessState, gamma: float, num_players: int) -> bool:
    """Whether the e-process has crossed the Ville threshold N / gamma.

    On the first crossing the state records ``fired_at`` (the round index
    from which punishment applies).
    """
    if not 0.0 < gamma < 1.0:
        raise TestInputError("gamma must lie in (0, 1)")
    if num_players < 1:
        raise TestInputError("num_players must be >= 1")
    fired = state.log_e >= math.log(num_players) - math.log(gamma)
    if fired and state.fired_at is None:
        state.fired_at = state.t
    return fired


@dataclass
class BatchTestState:
    """Per-player buffer for the batch L1 frequency test.

    Verdicts are emitted only at batch boundaries; ``fired_at_batch`` is the
    index of the first rejected batch and is immutable once set.
    """

    player: int
    batch_length: int
    buffer_counts: np.ndarray
    batch_index: int = 0
    fired_at_batch: int | None = None

    @classmethod
    def fresh(cls, player: int, num_actions: int, batch_length: int) -> "BatchTestState":
        if batch_length < 1:
            raise TestInputError("batch length must be >= 1")
        return cls(player=player, batch_length=batch_length,
                   buffer_counts=np.zeros(num_actions, dtype=np.int64))

    @property
    def num_actions(self) -> int:
        return self.buffer_counts.size


def batch_test(batch_counts, batch_length: int, w_ref: MixedAction, delta: float):
    """L1 distance test on one completed batch.

    Returns the empirical frequencies and the verdict (True = reject),
    with the inclusive rule ||empirical - w_ref||_1 >= delta.
    """
    c = np.asarray(batch_counts, dtype=np.int64)
    if np.any(c < 0) or int(c.sum()) != batch_length:
        raise TestInputError(f"batch counts must be nonnegative and sum to L={batch_length}")
    if not 0.0 < delta < 1.0:
        raise TestInputError("delta must lie in (0, 1)")
    ref = w_ref.probs if isinstance(w_ref, MixedAction) else np.asarray(w_ref, dtype=float)
    if c.size != ref.size:
        raise TestInputError("dimension mismatch between counts and reference")
    empirical = c / batch_length
    verdict = bool(np.abs(empirical - ref).sum() >= delta)
    return MixedAction(empirical), verdict


def batch_update(state: BatchTestState, action: int, w_ref: MixedAction,
                 delta: float) -> bool | None:
    """Buffer one observation; at a batch boundary, run the test.

    Returns the verdict when the batch completes, else None.
    """
    if not 0 <= action < state.num_actions:
        raise TestInputError(f"action {action} out of range")
    state.buffer_counts[action] += 1
    if int(state.buffer_counts.sum()) < state.batch_length:
        return None
    _, verdict = batch_test(state.buffer_counts, state.batch_length, w_ref, delta)
    if verdict and state.fired_at_batch is None:
        state.fired_at_batch = state.batch_index
    state.batch_index += 1
    state.buffer_counts[:] = 0
    return verdict
