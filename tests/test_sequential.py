import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repgame import (
    BatchTestState,
    EProcessState,
    GameError,
    MixedAction,
    StalenessError,
    TestInputError as InputError,
    batch_test,
    batch_update,
    eprocess_crossed,
    eprocess_exact_oracle,
    eprocess_update,
)

from conftest import anytime_enforcement, kernel_log_traj, stream_tau

UNIFORM = MixedAction([0.5, 0.5])


def kernel(actions, probs):
    """log e_t after each round of ``actions`` under reference ``probs``."""
    return kernel_log_traj(np.array(actions, dtype=np.int64), np.array(probs))


class TestEProcess:
    def test_first_update_uniform_is_unit(self):
        state = EProcessState.fresh(0, 2)
        eprocess_update(state, 0)
        assert kernel([0], (0.5, 0.5))[-1] == pytest.approx(0.0, abs=1e-15)
        assert state.t == 1 and state.counts == [1, 0]

    def test_two_repeats_give_four_thirds(self):
        assert math.exp(kernel([0, 0], (0.5, 0.5))[-1]) == pytest.approx(4 / 3, rel=1e-12)

    def test_out_of_support_forces_infinity(self):
        state = EProcessState.fresh(0, 2)
        eprocess_update(state, 1)
        log_e = kernel([1], (1.0, 0.0))[-1]
        assert log_e == math.inf
        assert eprocess_crossed(state.counts, MixedAction([1.0, 0.0]), 0.5, 2, log_e)

    def test_staleness_check(self):
        state = EProcessState.fresh(0, 2)
        eprocess_update(state, 0, expected_t=0)
        with pytest.raises(StalenessError):
            eprocess_update(state, 0, expected_t=0)

    def test_action_out_of_range(self):
        with pytest.raises(InputError):
            eprocess_update(EProcessState.fresh(0, 2), 2)

    def test_determinism(self):
        rng = np.random.default_rng(1)
        obs = rng.integers(0, 2, size=200)
        logs = [kernel(obs, (0.7, 0.3)).tolist() for _ in range(2)]
        assert logs[0] == logs[1]


class TestAnytimeVerdict:
    def test_inclusive_threshold(self):
        # w = (1/2, 1/2), N = 1, gamma = 1/2: the path 0, 0, 0 has
        # e_3 = (1/2)(2/3)(3/4) / (1/8) = 2 = N / gamma exactly, so the float
        # log e_3 lies within TIE_BAND of log 2 and the exact rule decides. The
        # vector kernel and the exact oracle must fire at t = 3, and so must
        # the episode loop at its own tie cell.
        log_e = kernel([0, 0, 0], (0.5, 0.5))
        assert abs(log_e[2] - math.log(2)) <= 1e-12
        counts = [[1, 0], [2, 0], [3, 0]]
        verdicts = [eprocess_crossed(c, UNIFORM, 0.5, 1, v) for c, v in zip(counts, log_e)]
        assert verdicts == [False, False, True]
        # The episode loop has N >= 2 players; its tie cell is w = (1/4, 3/4),
        # N = 2, gamma = 1/8, where 0, 0, 0 gives e_3 = 4^3 / 4 = 16 = N / gamma.
        enforcement, _ = anytime_enforcement([0.25, 0.75], 0.125, 20)
        assert [enforcement.observe(t, (0, 1)) for t in range(3)] == [False, False, True]
        assert enforcement.rejection_times() == [3, None]
        assert stream_tau(np.zeros(3, dtype=np.int64), UNIFORM.probs, 0.5, 1) == 3
        assert eprocess_exact_oracle(2, UNIFORM, 0.5, 1, 2) == 0.0
        assert eprocess_exact_oracle(2, UNIFORM, 0.5, 1, 3) == 0.25  # paths 000 and 111

    def test_unit_process_below_threshold(self):
        assert not eprocess_crossed([0, 0], UNIFORM, 0.05, 2)  # 1 < 40

    def test_fired_at_immutable(self):
        # Player 0 plays outside the support of (1, 0) in round 0 and fires
        # there; its rejection time stays 1 while player 1 fires later.
        enforcement, _ = anytime_enforcement([1.0, 0.0], 0.1, 20)
        assert enforcement.observe(0, (1, 0))
        assert enforcement.rejection_times() == [1, None]
        for t in range(1, 9):
            assert enforcement.observe(t, (1, int(t >= 3)))
        assert enforcement.rejection_times() == [1, 4]

    def test_parameter_range(self):
        with pytest.raises(GameError, match="gamma must lie in"):
            anytime_enforcement([0.5, 0.5], 1.5, 20)


class TestBatchTest:
    def test_all_one_action_distance_one(self):
        assert batch_test([6, 0], 6, UNIFORM, 0.99)

    def test_exact_match_accepts(self):
        assert not batch_test([3, 3], 6, UNIFORM, 0.01)

    def test_boundary_inclusive(self):
        empirical = np.array([3, 1]) / 4
        assert np.allclose(empirical, [0.75, 0.25])
        assert np.abs(empirical - UNIFORM.probs).sum() == 0.5
        assert batch_test([3, 1], 4, UNIFORM, 0.5)  # distance exactly 0.5 >= 0.5

    def test_rejects_wrong_sum(self):
        with pytest.raises(InputError):
            batch_test([3, 2], 4, UNIFORM, 0.5)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance(self, data):
        # Only within-batch counts matter, not the observation order.
        length = data.draw(st.integers(2, 12))
        obs = data.draw(
            st.lists(st.integers(0, 1), min_size=length, max_size=length)
        )
        perm = data.draw(st.permutations(obs))
        delta = data.draw(st.floats(0.05, 0.95))

        def run(sequence):
            state = BatchTestState.fresh(0, 2, length)
            verdicts = [batch_update(state, a, UNIFORM, delta) for a in sequence]
            return verdicts[-1]

        assert run(obs) == run(perm)


class TestBatchUpdate:
    def test_verdict_only_at_boundary(self):
        state = BatchTestState.fresh(0, 2, 3)
        assert batch_update(state, 0, UNIFORM, 0.5) is None
        assert batch_update(state, 0, UNIFORM, 0.5) is None
        verdict = batch_update(state, 0, UNIFORM, 0.5)
        assert verdict is True
        assert state.batch_index == 1
        assert state.buffer_counts == [0, 0]

    def test_fired_at_batch_records_first_rejection(self):
        state = BatchTestState.fresh(0, 2, 2)
        for a in (0, 1):  # batch 0: balanced, accept
            batch_update(state, a, UNIFORM, 0.9)
        for _ in range(2):  # batch 1: all a0, reject
            batch_update(state, 0, UNIFORM, 0.9)
        assert state.fired_at_batch == 1
        for _ in range(2):  # batch 2: all a0 again; index frozen
            batch_update(state, 0, UNIFORM, 0.9)
        assert state.fired_at_batch == 1
        assert state.batch_index == 3

    def test_fresh_requires_positive_length(self):
        with pytest.raises(InputError):
            BatchTestState.fresh(0, 2, 0)


class TestUnitMeanExact:
    def test_eprocess_expectation_is_exactly_one(self):
        # Full path enumeration: the expectation of exp(log_e) under i.i.d.
        # draws from the reference is exactly 1 at every depth (the process
        # is a unit-mean martingale). Acceptance 2 checks the same mean
        # exactly at t up to 1000 by summing over the count lattice; this
        # small-depth enumeration also covers every ordering of the rounds.
        for probs in ((0.5, 0.5), (0.8, 0.2)):
            ref = MixedAction(list(probs))
            for depth in (1, 4, 8, 11):
                total = self._expectation(ref, depth)
                assert total == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def _expectation(ref: MixedAction, depth: int) -> float:
        def rec(counts, t, log_e, prob):
            if t == depth:
                return prob * math.exp(log_e)
            total = 0.0
            for a in range(2):
                pred = (counts[a] + 1.0) / (t + 2.0)
                counts[a] += 1
                total += rec(counts, t + 1,
                             log_e + math.log(pred) - math.log(ref[a]),
                             prob * ref[a])
                counts[a] -= 1
            return total

        return rec([0, 0], 0, 0.0, 1.0)
