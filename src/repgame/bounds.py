"""Closed-form error and stopping-time bounds for both enforcement tests.

Hard-coded numeric constants (the 10 in the stopping-time bound, the 258 and
126 in the batch parameter schedule, the factors in the batch error bounds)
are pinned. The universal constant C of the stopping-time bound is not
pinned by any formula; it defaults to 1.0 and the bound is shape-only in it,
meant for comparative reporting rather than as a certified bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


class BoundParamError(ValueError):
    """Bound parameter outside its valid range."""


def batch_error_bounds(num_actions: int, num_players: int, batch_length: int,
                       delta: float, beta: float):
    """Per-batch false-rejection bound and undetected per-batch gain bound.

    Returns (p_L, Delta_L) with p_L = min(1, 2KN exp(-2L delta^2 / K^2))
    clamped to [0, 1] since it bounds a probability, and
    Delta_L = delta + 3 (1 - beta^L). The bound q_L equals p_L, so it is
    not returned separately.
    """
    if num_actions < 2 or num_players < 2 or batch_length < 1:
        raise BoundParamError("need K >= 2, N >= 2, L >= 1")
    if not 0.0 <= delta <= 1.0:
        raise BoundParamError("delta must lie in [0, 1]")
    if not 0.0 < beta < 1.0:
        raise BoundParamError("beta must lie in (0, 1)")
    raw = 2.0 * num_actions * num_players * math.exp(
        -2.0 * batch_length * delta**2 / num_actions**2
    )
    p_l = min(1.0, raw)
    delta_l = delta + 3.0 * (1.0 - beta**batch_length)
    return p_l, delta_l


@dataclass(frozen=True)
class BatchSchedule:
    """Batch test parameters tuned to a deviation magnitude epsilon."""

    delta: float
    batch_length: int
    beta_pow_l_window: tuple  # admissible range for beta ** L


def tuned_batch_params(epsilon: float, num_actions: int, num_players: int) -> BatchSchedule:
    """Threshold and batch length achieving an epsilon-quality batch equilibrium.

    delta = epsilon / 16 and L = ceil((258 K^2 / eps^2) ln(126 K N / eps^2));
    the discount factor must satisfy 1 - eps/16 <= beta^L <= 1 - eps/32.
    """
    if not 0.0 < epsilon <= 1.0:
        raise BoundParamError("epsilon must lie in (0, 1]")
    if num_actions < 2 or num_players < 2:
        raise BoundParamError("need K >= 2 and N >= 2")
    delta = epsilon / 16.0
    batch_length = math.ceil(
        (258.0 * num_actions**2 / epsilon**2)
        * math.log(126.0 * num_actions * num_players / epsilon**2)
    )
    window = (1.0 - epsilon / 16.0, 1.0 - epsilon / 32.0)
    return BatchSchedule(delta=delta, batch_length=batch_length, beta_pow_l_window=window)


def anytime_tau_bound(gamma: float, epsilon: float, w_min: float, C: float = 1.0) -> float:
    """Upper bound on the expected detection time of a stationary deviation.

    10 ln(1/gamma) / eps^2 + C (1 + |ln w_min|) / eps^5, where gamma is the
    Type I level, eps = epsilon the deviation magnitude (half the L1 radius)
    and w_min the smallest cooperative action probability. Shape-only in C.
    """
    if not 0.0 < gamma < 1.0:
        raise BoundParamError("gamma must lie in (0, 1)")
    if epsilon <= 0.0:
        raise BoundParamError("epsilon must be positive")
    if C <= 0.0:
        raise BoundParamError("universal constants must be positive")
    if not 0.0 <= w_min <= 1.0:
        raise BoundParamError("w_min must lie in [0, 1]")
    if w_min == 0.0:
        return math.inf
    first = 10.0 * math.log(1.0 / gamma) / epsilon**2
    second = C * (1.0 + abs(math.log(w_min))) / epsilon**5
    return first + second
