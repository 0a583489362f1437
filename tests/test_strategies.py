import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repgame import (
    BatchAdversarial,
    BatchTestState,
    ConfigurationError,
    EProcessState,
    MixedAction,
    MixedProfile,
    ModeError,
    PayoffTarget,
    PublicHistory,
    SmallBall,
    StageGame,
    Stationary,
    StalenessError,
    batch_test,
    make_deviation,
    solve_bimatrix_nash,
)

from reference_strategies import anytime_ttp_act, batch_ttp_act, grim_trigger_act

PD = StageGame(2, (2, 2), ([[0.6, 0.0], [1.0, 0.2]], [[0.6, 1.0], [0.0, 0.2]]))
COOP = MixedProfile(([1, 0], [1, 0]))
TARGET = PayoffTarget.from_profiles(PD, COOP, solve_bimatrix_nash(PD))

MIXED_COOP = MixedProfile(([0.9, 0.1], [0.9, 0.1]))
MIXED_TARGET = PayoffTarget.from_profiles(PD, MIXED_COOP, solve_bimatrix_nash(PD))


class TestPublicHistory:
    def test_imperfect_records_pure_indices(self):
        h = PublicHistory("imperfect")
        h.append((0, 1))
        assert h.rounds == [(0, 1)] and len(h) == 1

    def test_imperfect_stores_python_int_tuples_as_is(self):
        h, joint = PublicHistory("imperfect"), (0, 1)
        h.append(joint)
        assert h.rounds[0] is joint

    @pytest.mark.parametrize("joint", [
        (np.int64(0), np.int64(1)),
        np.array([[0, 1]], dtype=np.int64)[0],
        [0, 1],
        (0, np.int32(1)),
        (False, True),
    ])
    def test_imperfect_converts_other_inputs_to_python_int_tuples(self, joint):
        h = PublicHistory("imperfect")
        h.append(joint)
        assert h.rounds == [(0, 1)]
        assert type(h.rounds[0]) is tuple
        assert [type(a) for a in h.rounds[0]] == [int, int]

    def test_perfect_records_profiles(self):
        h = PublicHistory("perfect")
        h.append(COOP)
        assert h.rounds[0].close_to(COOP)

    def test_unknown_mode(self):
        with pytest.raises(ModeError):
            PublicHistory("noisy")


class TestGrimTrigger:
    def test_empty_history_cooperates(self):
        h = PublicHistory("perfect")
        assert grim_trigger_act(h, TARGET, 0).close_to(TARGET.cooperative[0])

    def test_clean_history_cooperates(self):
        h = PublicHistory("perfect")
        for _ in range(3):
            h.append(TARGET.cooperative)
        assert grim_trigger_act(h, TARGET, 1).close_to(TARGET.cooperative[1])

    def test_any_off_path_round_punishes_forever(self):
        h = PublicHistory("perfect")
        h.append(TARGET.cooperative)
        h.append(MixedProfile(([0, 1], [1, 0])))
        assert grim_trigger_act(h, TARGET, 0).close_to(TARGET.punishment[0])
        h.append(TARGET.cooperative)  # later clean round does not reset
        assert grim_trigger_act(h, TARGET, 0).close_to(TARGET.punishment[0])

    def test_requires_perfect_mode(self):
        with pytest.raises(ModeError):
            grim_trigger_act(PublicHistory("imperfect"), TARGET, 0)


class TestAnytimeAct:
    def test_fresh_states_cooperate(self):
        tests = [EProcessState.fresh(i, 2) for i in range(2)]
        assert anytime_ttp_act(tests, TARGET, 0).close_to(TARGET.cooperative[0])

    def test_any_fired_test_punishes(self):
        tests = [EProcessState.fresh(i, 2) for i in range(2)]
        tests[1].fired_at = 4
        assert anytime_ttp_act(tests, TARGET, 0).close_to(TARGET.punishment[0])

    def test_staleness_detection(self):
        tests = [EProcessState.fresh(i, 2) for i in range(2)]
        with pytest.raises(StalenessError):
            anytime_ttp_act(tests, TARGET, 0, t=3)


class TestBatchAct:
    def _tests(self, length=4):
        return [BatchTestState.fresh(i, 2, length) for i in range(2)]

    def test_batch_zero_cooperates_unconditionally(self):
        tests = self._tests()
        tests[0].fired_at_batch = 0
        assert batch_ttp_act(tests, TARGET, 0, t=3).close_to(TARGET.cooperative[0])

    def test_punishes_from_first_round_after_rejected_batch(self):
        tests = self._tests(length=4)
        tests[0].fired_at_batch = 0
        # Rounds 0..3 are batch 0; punishment starts at round 4.
        assert batch_ttp_act(tests, TARGET, 1, t=4).close_to(TARGET.punishment[1])
        assert batch_ttp_act(tests, TARGET, 1, t=17).close_to(TARGET.punishment[1])

    def test_cooperates_while_no_rejection(self):
        tests = self._tests()
        assert batch_ttp_act(tests, TARGET, 0, t=25).close_to(TARGET.cooperative[0])

    def test_rejection_in_current_batch_waits_for_boundary(self):
        tests = self._tests(length=4)
        tests[1].fired_at_batch = 2
        # Round 11 is still inside batch 2; punishment begins at round 12.
        assert batch_ttp_act(tests, TARGET, 0, t=11).close_to(TARGET.cooperative[0])
        assert batch_ttp_act(tests, TARGET, 0, t=12).close_to(TARGET.punishment[0])

    def test_requires_batch_states(self):
        with pytest.raises(ConfigurationError):
            batch_ttp_act([EProcessState.fresh(0, 2)], TARGET, 0, t=1)


class TestStationary:
    def test_fixed_output(self):
        strategy = Stationary([0.3, 0.7])
        h = PublicHistory("imperfect")
        assert strategy.act(h, 0).close_to(strategy.act(h, 99))
        assert np.allclose(strategy.act(h, 0).probs, [0.3, 0.7])


class TestSmallBall:
    def test_boundary_distance_is_exact(self):
        dev = SmallBall(PD, MIXED_TARGET, 0, epsilon=0.05)
        emitted = dev.act(PublicHistory("imperfect"), 0)
        # The total-variation ball of radius eps: L1 distance <= 2 eps.
        distance = np.abs(emitted.probs - MIXED_TARGET.cooperative[0].probs).sum()
        assert distance <= 2 * 0.05 + 1e-12
        assert not distance <= 2 * 0.049 + 1e-12

    def test_default_direction_increases_payoff(self):
        dev = SmallBall(PD, MIXED_TARGET, 0, epsilon=0.05)
        # In PD, defection (action 1) is the profitable direction.
        assert dev.action[1] > MIXED_TARGET.cooperative[0][1]

    def test_explicit_direction(self):
        dev = SmallBall(PD, MIXED_TARGET, 0, epsilon=0.05, direction=[-1.0, 1.0])
        assert np.allclose(dev.action.probs, [0.85, 0.15])

    def test_rejects_infeasible_mass(self):
        with pytest.raises(ConfigurationError):
            SmallBall(PD, TARGET, 0, epsilon=0.05, direction=[1.0, -1.0])

    def test_rejects_negative_epsilon(self):
        with pytest.raises(ConfigurationError):
            SmallBall(PD, MIXED_TARGET, 0, epsilon=-0.1)


class TestBatchAdversarial:
    def test_frozen_schedule_example(self):
        # Uniform cooperative action, L=4: counts (2,2); the higher-payoff
        # action (defection in PD) is front-loaded.
        game = StageGame(2, (2, 2), ([[1, 1], [0, 0]], [[0.5, 0.5], [0.5, 0.5]]))
        coop = MixedProfile(([0.5, 0.5], [0.5, 0.5]))
        punish = MixedProfile(([1, 0], [0, 1]))
        # Construct directly (unvalidated): only the cooperative action and
        # the schedule ordering matter for this check.
        target = PayoffTarget(np.array([0.5, 0.5]), coop, punish)
        dev = BatchAdversarial(game, target, 0, batch_length=4, delta=0.6)
        assert dev.schedule.tolist() == [0, 0, 1, 1]
        beta = 0.9
        value = sum(
            beta**t * game.utilities[0][a, 0] for t, a in enumerate(dev.schedule)
        )
        assert value == pytest.approx(1 + 0.9)

    def test_schedule_passes_batch_test(self):
        dev = BatchAdversarial(PD, MIXED_TARGET, 0, batch_length=10, delta=0.3)
        counts = np.bincount(dev.schedule, minlength=2)
        assert not batch_test(counts, 10, MIXED_TARGET.cooperative[0], 0.3)

    def test_fallback_when_delta_too_tight(self):
        dev = BatchAdversarial(PD, MIXED_TARGET, 0, batch_length=4, delta=0.01)
        assert dev.schedule is None
        emitted = dev.act(PublicHistory("imperfect"), 7)
        assert emitted.close_to(MIXED_TARGET.cooperative[0])

    def test_parameter_errors(self):
        with pytest.raises(ConfigurationError):
            BatchAdversarial(PD, MIXED_TARGET, 0, batch_length=1, delta=0.3)
        with pytest.raises(ConfigurationError):
            BatchAdversarial(PD, MIXED_TARGET, 0, batch_length=4, delta=0.0)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_never_rejected_for_generous_delta(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
        game = StageGame(2, (2, 2), tuple(rng.random((2, 2)) for _ in range(2)))
        w = rng.dirichlet([1.0, 1.0])
        coop = MixedProfile((w, [0.5, 0.5]))
        target = PayoffTarget(
            np.zeros(2), coop, solve_bimatrix_nash(game)
        )  # unvalidated target: only the cooperative action matters here
        length = data.draw(st.integers(4, 64))
        delta = min(0.99, 2 / length + data.draw(st.floats(1e-6, 0.3)))
        dev = BatchAdversarial(game, target, 0, batch_length=length, delta=delta)
        assert dev.schedule is not None
        counts = np.bincount(dev.schedule, minlength=2)
        assert not batch_test(counts, length, coop[0], delta)


class TestMakeDeviation:
    def test_stationary(self):
        dev = make_deviation("stationary", {"probs": [0.2, 0.8]})
        assert isinstance(dev, Stationary)

    def test_small_ball(self):
        dev = make_deviation(
            "small_ball",
            {"game": PD, "target": MIXED_TARGET, "player": 0, "epsilon": 0.05},
        )
        assert isinstance(dev, SmallBall)

    def test_batch_adversarial(self):
        dev = make_deviation(
            "batch_adversarial",
            {"game": PD, "target": MIXED_TARGET, "player": 0,
             "batch_length": 10, "delta": 0.3},
        )
        assert isinstance(dev, BatchAdversarial)

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            make_deviation("adaptive", {})

    def test_coerces_spec_fields(self):
        dev = make_deviation(
            "small_ball",
            {"game": PD, "target": MIXED_TARGET, "player": "0", "epsilon": "0.05"},
        )
        assert dev.epsilon == 0.05

    def test_batch_adversarial_defaults_from_enforcement(self):
        enforcement = {"kind": "batch", "delta": 0.3, "batch_length": 10}
        dev = make_deviation(
            "batch_adversarial",
            {"game": PD, "target": MIXED_TARGET, "player": 0, "enforcement": enforcement},
        )
        assert (dev.batch_length, dev.delta) == (10, 0.3)
        own = make_deviation(
            "batch_adversarial",
            {"game": PD, "target": MIXED_TARGET, "player": 0, "batch_length": 20,
             "enforcement": enforcement},
        )
        assert (own.batch_length, own.delta) == (20, 0.3)

    @pytest.mark.parametrize("kind, params, field", [
        ("stationary", {}, "probs"),
        ("stationary", {"probs": [0.5, "x"]}, "probs"),
        ("small_ball", {"game": PD, "target": MIXED_TARGET, "player": 0}, "epsilon"),
        ("small_ball", {"game": PD, "target": MIXED_TARGET, "player": 0,
                        "epsilon": "big"}, "epsilon"),
        ("batch_adversarial", {"game": PD, "target": MIXED_TARGET, "player": 0,
                               "delta": 0.3}, "batch_length"),
    ])
    def test_bad_field_is_named(self, kind, params, field):
        with pytest.raises(ConfigurationError, match=f"'{field}'"):
            make_deviation(kind, params)

    def test_fallback_batch_adversarial_is_stationary(self):
        dev = BatchAdversarial(PD, MIXED_TARGET, 0, batch_length=4, delta=0.01)
        assert dev.action.close_to(MIXED_TARGET.cooperative[0])
