"""Statistical enforcement layer: plug-in e-processes and batch L1 tests.

The e-process accumulates in log domain; products of hundreds of likelihood
ratios overflow in linear domain. Verdict thresholds are inclusive (>=).
An observation outside the support of the reference action forces the log
accumulator to +inf: detection is certain and the episode continues into
punishment rather than erroring. ``eprocess_crossed`` is the one rule for
e_t >= N / gamma: it decides on the action counts, exactly within TIE_BAND.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .game import MixedAction


class TestInputError(ValueError):
    """Invalid counts or parameters fed to a test."""


class StalenessError(TestInputError):
    """A test state is out of sync with the caller's clock."""


# Float log e_t decides outside this band of log(N / gamma). Both float paths
# stay far inside it at t <= 1e5: the running sum of the per-round fold
# (eprocess_update, simulate._eprocess_log_traj; tested within 1e-7 of the
# closed form) and the lgamma closed form on the counts (simulate._eprocess_tau
# and the exact oracle; tested within 1e-9 to depth 200). Against a 50-digit
# reference at t = 1e3, 1e4, 1e5 the measured errors are <= 4.7e-10 and
# <= 3.1e-10 respectively (six streams, K = 2 to 4).
TIE_BAND = 1e-6


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
    ref, seen = w_ref[action], int(state.counts[action])
    if ref <= 0.0:
        state.log_e = math.inf
    elif math.isfinite(state.log_e):
        pred = (seen + 1.0) / (state.t + state.num_actions)
        state.log_e += math.log(pred) - math.log(ref)
    state.counts[action] = seen + 1
    state.t += 1
    return state


def eprocess_crossed(counts, w_ref, gamma: float, num_players: int, log_e=None) -> bool:
    """Whether e_t >= N / gamma for the e-process with these action counts.

    e_t = (K-1)! prod_a c_a! / ((t+K-1)! prod_a w_a^c_a), with t = sum(counts).
    A float ``log_e`` decides outside TIE_BAND of log(N / gamma); otherwise,
    or without it, e_t is compared exactly (float w_a and gamma are dyadic).
    """
    threshold = math.log(num_players) - math.log(gamma)
    if log_e is not None and abs(log_e - threshold) > TIE_BAND:
        return log_e > threshold
    counts, w = [int(c) for c in counts], [Fraction(float(p)) for p in w_ref]
    k = len(counts)
    numerator = math.factorial(k - 1) * math.prod(map(math.factorial, counts))
    denominator = math.factorial(sum(counts) + k - 1) * math.prod(map(pow, w, counts))
    return numerator * Fraction(gamma) >= num_players * denominator


def anytime_verdict(state: EProcessState, w_ref: MixedAction, gamma: float,
                    num_players: int) -> bool:
    """Whether the e-process has crossed the Ville threshold N / gamma.

    On the first crossing the state records ``fired_at`` (the round index
    from which punishment applies).
    """
    if not 0.0 < gamma < 1.0:
        raise TestInputError("gamma must lie in (0, 1)")
    if num_players < 1:
        raise TestInputError("num_players must be >= 1")
    fired = eprocess_crossed(state.counts, w_ref, gamma, num_players, state.log_e)
    if fired and state.fired_at is None:
        state.fired_at = state.t
    return fired


@dataclass
class BatchTestState:
    """Per-player buffer for the batch L1 frequency test.

    Verdicts are emitted only at batch boundaries; ``fired_at_batch`` is the
    index of the first rejected batch and is immutable once set. ``filled``
    is the number of observations in the buffer, the sum of ``buffer_counts``.
    """

    player: int
    batch_length: int
    buffer_counts: np.ndarray
    batch_index: int = 0
    fired_at_batch: int | None = None
    filled: int = 0

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
    state.filled += 1
    if state.filled < state.batch_length:
        return None
    _, verdict = batch_test(state.buffer_counts, state.batch_length, w_ref, delta)
    if verdict and state.fired_at_batch is None:
        state.fired_at_batch = state.batch_index
    state.batch_index += 1
    state.buffer_counts[:] = 0
    state.filled = 0
    return verdict
