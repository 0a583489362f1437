import logging
import math

import numpy as np
import pytest

from repgame import (
    EpisodeConfig,
    GameError,
    MixedAction,
    MixedProfile,
    OneShotDeviation,
    PayoffTarget,
    StageGame,
    Stationary,
    discounted_payoffs,
    eprocess_exact_oracle,
    monte_carlo,
    run_episode,
    solve_bimatrix_nash,
    wilson_interval,
)
from repgame.sequential import EProcessState, anytime_verdict, eprocess_update
from repgame.simulate import (
    _draw_actions,
    _eprocess_log_traj,
    _eprocess_tau,
    _worker_count,
    sample_action,
)

PD = StageGame(2, (2, 2), ([[0.6, 0.0], [1.0, 0.2]], [[0.6, 1.0], [0.0, 0.2]]))
PURE_COOP = PayoffTarget.from_profiles(
    PD, MixedProfile(([1, 0], [1, 0])), solve_bimatrix_nash(PD)
)
MIXED_COOP = PayoffTarget.from_profiles(
    PD, MixedProfile(([0.9, 0.1], [0.9, 0.1])), solve_bimatrix_nash(PD)
)


def config(**kwargs):
    base = dict(game=PD, target=MIXED_COOP, beta=0.99, horizon=100, seed=1,
                enforcement="anytime", gamma=0.05)
    base.update(kwargs)
    return EpisodeConfig(**base)


class TestEpisodeConfig:
    def test_rejects_bad_beta(self):
        with pytest.raises(GameError):
            config(beta=1.0)

    def test_rejects_missing_gamma(self):
        with pytest.raises(GameError):
            config(gamma=None)

    def test_rejects_missing_batch_params(self):
        with pytest.raises(GameError):
            config(enforcement="batch", delta=None, batch_length=None)

    def test_default_accounting_follows_monitoring(self):
        assert config().payoff_accounting == "realized"
        assert config(monitoring="perfect", enforcement="grim",
                      gamma=None).payoff_accounting == "expected"


class TestRunEpisode:
    def test_pure_stationary_is_deterministic(self):
        cfg = config(
            target=PURE_COOP,
            deviations={0: Stationary([0, 1]), 1: Stationary([0, 1])},
            horizon=10,
        )
        traj = run_episode(cfg)
        assert all(joint == (1, 1) for joint in traj.actions)
        assert np.allclose(traj.stage_payoffs, 0.2)

    def test_grim_punishment_onset_after_forced_deviation(self):
        cfg = config(
            target=PURE_COOP,
            monitoring="perfect",
            enforcement="grim",
            gamma=None,
            horizon=12,
            deviations={0: OneShotDeviation(PURE_COOP, 0, 5, 1)},
        )
        traj = run_episode(cfg)
        assert traj.punishment_onset == 6
        for profile in traj.actions[6:]:
            assert profile.close_to(PURE_COOP.punishment)

    def test_pure_cooperative_anytime_never_punishes(self):
        # With a point-mass cooperative action the e-process stays below 1.
        cfg = config(target=PURE_COOP, horizon=300, seed=9)
        traj = run_episode(cfg)
        assert traj.punishment_onset is None
        assert traj.rejection_times == [None, None]

    def test_seed_determinism(self):
        a = run_episode(config(seed=42))
        b = run_episode(config(seed=42))
        assert a.actions == b.actions
        assert np.array_equal(a.stage_payoffs, b.stage_payoffs)

    def test_out_of_support_deviation_detected_immediately(self):
        cfg = config(
            target=PURE_COOP,
            horizon=10,
            deviations={0: Stationary([0, 1])},
        )
        traj = run_episode(cfg)
        assert traj.rejection_times[0] == 1
        assert traj.punishment_onset == 1

    def test_batch_punishment_starts_at_batch_boundary(self):
        cfg = config(
            target=PURE_COOP,
            enforcement="batch",
            gamma=None,
            delta=0.5,
            batch_length=4,
            horizon=20,
            deviations={0: Stationary([0, 1])},
        )
        traj = run_episode(cfg)
        assert traj.rejection_times[0] == 0
        assert traj.punishment_onset == 4
        # Cooperative player 1 plays punishment from round 4 on: its draws
        # come from b = (0, 1), so every realized action is 1.
        assert all(joint[1] == 1 for joint in traj.actions[4:])


class TestDiscountedPayoffs:
    def test_constant_stage_payoff(self):
        traj = run_episode(config(
            target=PURE_COOP,
            deviations={0: Stationary([1, 0]), 1: Stationary([1, 0])},
            horizon=50,
        ))
        payoffs, cert = discounted_payoffs(traj, 0.9)
        assert np.allclose(payoffs, 0.6 * (1 - 0.9**50), atol=1e-12)
        assert cert == pytest.approx(0.9**50)

    def test_single_term(self):
        traj = run_episode(config(
            target=PURE_COOP,
            deviations={0: Stationary([1, 0]), 1: Stationary([1, 0])},
            horizon=1,
        ))
        payoffs, _ = discounted_payoffs(traj, 0.5)
        assert np.allclose(payoffs, 0.5 * 0.6)

    def test_frozen_truncation_certificate(self):
        traj = run_episode(config(target=PURE_COOP, horizon=2000,
                                  deviations={0: Stationary([1, 0]),
                                              1: Stationary([1, 0])}))
        _, cert = discounted_payoffs(traj, 0.99)
        assert cert == pytest.approx(1.8637e-9, rel=1e-3)

    def test_continuation_start(self):
        traj = run_episode(config(
            target=PURE_COOP,
            deviations={0: Stationary([1, 0]), 1: Stationary([1, 0])},
            horizon=10,
        ))
        payoffs, cert = discounted_payoffs(traj, 0.9, start=4)
        assert np.allclose(payoffs, 0.6 * (1 - 0.9**6), atol=1e-12)
        assert cert == pytest.approx(0.9**6)

    def test_empty_window(self):
        traj = run_episode(config(horizon=5))
        with pytest.raises(GameError):
            discounted_payoffs(traj, 0.9, start=5)


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        low, high = wilson_interval(7, 100)
        assert low < 0.07 < high

    def test_extremes_clamped(self):
        low, _ = wilson_interval(0, 50)
        _, high = wilson_interval(50, 50)
        assert low == 0.0 and high == 1.0


class TestMonteCarlo:
    def test_unknown_mode(self):
        with pytest.raises(GameError):
            monte_carlo(config(), "bootstrap", 10)

    def test_zero_replications(self):
        with pytest.raises(GameError):
            monte_carlo(config(), "type1", 0)

    def test_type1_report_shape(self):
        report = monte_carlo(config(horizon=2000), "type1", 20)
        assert report.mode == "type1"
        assert report.replications == 20
        assert 0.0 <= report.estimates["punished_rate_censored"] <= 1.0
        assert len(report.rows) == 20
        assert report.truncation_certificate == pytest.approx(0.99**2000)

    def test_determinism_across_worker_counts(self, monkeypatch):
        cfg = config(horizon=2000, seed=5)
        serial = monte_carlo(cfg, "type1", 16)
        monkeypatch.setenv("REPGAME_WORKERS", "4")
        parallel = monte_carlo(cfg, "type1", 16)
        assert serial.rows == parallel.rows
        assert serial.estimates == parallel.estimates

    def test_detection_faster_for_larger_deviation(self):
        base = dict(horizon=5000, seed=3)
        big = monte_carlo(
            config(deviations={0: Stationary([0.6, 0.4])}, **base),
            "detection", 60,
        )
        small = monte_carlo(
            config(deviations={0: Stationary([0.84, 0.16])}, **base),
            "detection", 60,
        )
        assert big.estimates["mean_tau_censored"] < small.estimates["mean_tau_censored"]
        assert big.survival is not None

    def test_detection_requires_deviation(self):
        with pytest.raises(GameError):
            monte_carlo(config(), "detection", 5)

    def test_vectorized_path_rejects_adaptive_deviations(self):
        cfg = config(deviations={0: OneShotDeviation(MIXED_COOP, 0, 3, 1)})
        with pytest.raises(GameError):
            monte_carlo(cfg, "detection", 5)

    def test_payoff_mode_matches_episode_loop(self):
        # The vectorized payoff path must agree with run_episode in
        # distribution; check the cooperative mean against v within 4 SE.
        report = monte_carlo(
            config(beta=0.995, horizon=3000, seed=17), "payoff", 200
        )
        mean = np.array(report.estimates["mean_payoff"])
        se = np.array(report.estimates["payoff_se"])
        assert np.all(mean >= (1 - 0.05) * MIXED_COOP.v - 4 * se)
        assert np.all(mean <= MIXED_COOP.v + 4 * se + report.truncation_certificate)

    def test_gap_mode_reports_family(self):
        cfg = config(
            beta=0.995, horizon=2000, seed=23,
            gap_family=[
                ("defect", 0, Stationary([0, 1])),
                ("coop", 0, Stationary([0.9, 0.1])),
            ],
        )
        report = monte_carlo(cfg, "gap", 50)
        labels = {entry["label"] for entry in report.extras["family"]}
        assert labels == {"defect", "coop"}
        assert report.estimates["max_gain_label"] in labels

    def test_wrongful_curve_monotone(self):
        uniform = PayoffTarget.from_profiles(
            PD, MixedProfile(([0.5, 0.5], [0.5, 0.5])), solve_bimatrix_nash(PD)
        )
        cfg = config(
            target=uniform, enforcement="batch", gamma=None,
            delta=0.4, batch_length=10, horizon=10_000,
            curve_horizons=(100, 1000, 10_000),
        )
        report = monte_carlo(cfg, "wrongful_curve", 40)
        fracs = [p["punished_fraction"] for p in report.estimates["curve"]]
        assert fracs == sorted(fracs)
        assert report.estimates["curve"][0]["analytic_lower_bound"] is not None


def one_hot_log_traj(actions, w_ref):
    """Reference e-process: (T, K) one-hot counts, masked for w_ref == 0."""
    horizon, num_actions = actions.size, w_ref.size
    one_hot = np.zeros((horizon, num_actions))
    one_hot[np.arange(horizon), actions] = 1.0
    before = np.cumsum(one_hot, axis=0) - one_hot
    pred = (before[np.arange(horizon), actions] + 1.0) / (np.arange(horizon) + num_actions)
    ref = w_ref[actions]
    logs = np.full(horizon, np.inf)
    ok = ref > 0.0
    logs[ok] = np.log(pred[ok]) - np.log(ref[ok])
    return np.cumsum(logs)


def seeded_streams():
    """(actions, w_ref) pairs for K in {2, 3, 4}; some w_ref have a zero entry."""
    out = []
    for seed in range(12):
        rng = np.random.default_rng([7, seed])
        num_actions = 2 + seed % 3
        w_ref = rng.dirichlet(np.ones(num_actions))
        if seed % 4 == 3:
            w_ref[seed % num_actions] = 0.0
            w_ref /= w_ref.sum()
        w_ref = MixedAction(w_ref).probs
        play = rng.dirichlet(np.ones(num_actions))
        out.append((_draw_actions(rng, play, 3000), w_ref))
    return out


class TestStreamKernels:
    def test_eprocess_matches_one_hot_reference(self):
        zero_refs = 0
        for actions, w_ref in seeded_streams():
            assert np.array_equal(
                _eprocess_log_traj(actions, w_ref), one_hot_log_traj(actions, w_ref)
            )
            zero_refs += bool(np.any(w_ref[actions] == 0.0))
        assert zero_refs > 0  # the +inf path is exercised

    @pytest.mark.parametrize(
        "probs", [[0.5, 0.5], [0.9, 0.1], [1, 0], [0, 1], [0.2, 0.3, 0.5],
                  [0.1, 0.0, 0.4, 0.5]],
    )
    def test_vector_draws_equal_scalar_draws(self, probs):
        action = MixedAction(probs)
        vector = _draw_actions(np.random.default_rng(11), action.probs, 500)
        rng = np.random.default_rng(11)
        scalar = [sample_action(rng, action) for _ in range(500)]
        assert vector.dtype == np.int64
        assert vector.tolist() == scalar
        assert set(scalar) == {a for a, p in enumerate(action.probs) if p > 0}

    def test_scalar_fold_crosses_at_vector_tau(self):
        gamma, num_players = 0.05, 2
        threshold = math.log(num_players) - math.log(gamma)
        crossings = []
        for actions, w_ref in seeded_streams():
            state = EProcessState.fresh(0, w_ref.size)
            for a in actions:
                eprocess_update(state, int(a), MixedAction(w_ref))
                if anytime_verdict(state, gamma, num_players):
                    break
            assert state.fired_at == _eprocess_tau(actions, w_ref, threshold)
            crossings.append(state.fired_at)
        assert None in crossings and any(c is not None for c in crossings)

    @pytest.mark.parametrize("enforcement", ["anytime", "batch"])
    @pytest.mark.parametrize("deviations", [{}, {0: Stationary([0.6, 0.4])}])
    def test_episode_onset_matches_monte_carlo_row(self, enforcement, deviations):
        extra = {"gamma": None, "delta": 0.3, "batch_length": 50} \
            if enforcement == "batch" else {}
        cfg = config(enforcement=enforcement, horizon=400, seed=9,
                     deviations=deviations, **extra)
        rows = monte_carlo(cfg, "payoff", 6).rows
        for rep, row in enumerate(rows):
            assert run_episode(cfg, rep).punishment_onset == row["punishment_onset"]

    @pytest.mark.parametrize("raw", ["abc", "0", "-3", ""])
    def test_invalid_worker_count_warns(self, monkeypatch, caplog, raw):
        monkeypatch.setenv("REPGAME_WORKERS", raw)
        with caplog.at_level(logging.WARNING, logger="repgame"):
            assert _worker_count() == 1
        assert len(caplog.records) == 1
        assert "REPGAME_WORKERS" in caplog.records[0].getMessage()

    def test_valid_worker_count_is_silent(self, monkeypatch, caplog):
        monkeypatch.setenv("REPGAME_WORKERS", "3")
        with caplog.at_level(logging.WARNING, logger="repgame"):
            assert _worker_count() == 3
        assert not caplog.records


class TestExactOracle:
    def test_depth_one_below_threshold(self):
        assert eprocess_exact_oracle(2, MixedAction([0.5, 0.5]), 0.1, 1, 1) == 0.0

    def test_unit_threshold_certain(self):
        # gamma = N = 1 puts the threshold at 1; the first uniform ratio is
        # exactly 1, so the crossing happens on every path.
        threshold_one = eprocess_exact_oracle(2, MixedAction([0.5, 0.5]), 1.0, 1, 3)
        assert threshold_one == pytest.approx(1.0, abs=1e-12)

    def test_path_probabilities_sum_to_one(self):
        # With threshold below any achievable value every path crosses.
        total = eprocess_exact_oracle(2, MixedAction([0.8, 0.2]), 1.0, 1, 4)
        assert total <= 1.0 + 1e-12

    def test_depth_cap(self):
        with pytest.raises(GameError):
            eprocess_exact_oracle(2, MixedAction([0.5, 0.5]), 0.1, 1, 30)

    def test_monotone_in_depth(self):
        w = MixedAction([0.5, 0.5])
        values = [eprocess_exact_oracle(2, w, 0.2, 1, d) for d in (2, 4, 6, 8)]
        assert values == sorted(values)

    def test_matches_monte_carlo(self):
        w = MixedAction([0.5, 0.5])
        exact = eprocess_exact_oracle(2, w, 0.5, 1, 6)
        rng = np.random.default_rng(0)
        threshold = math.log(1) - math.log(0.5)
        hits = 0
        reps = 20_000
        draws = rng.integers(0, 2, size=(reps, 6))
        for row in draws:
            counts = [0, 0]
            log_e, crossed = 0.0, False
            for t, a in enumerate(row):
                pred = (counts[a] + 1) / (t + 2)
                log_e += math.log(pred) - math.log(0.5)
                counts[a] += 1
                if log_e >= threshold:
                    crossed = True
                    break
            hits += crossed
        rate = hits / reps
        se = math.sqrt(rate * (1 - rate) / reps)
        assert abs(rate - exact) <= 4 * se + 1e-9
