import hashlib
import logging
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import repgame.simulate as simulate
from repgame import (
    BatchAdversarial,
    EpisodeConfig,
    GameError,
    MixedAction,
    MixedProfile,
    OneShotDeviation,
    PayoffTarget,
    StageGame,
    Stationary,
    Trajectory,
    discounted_payoffs,
    eprocess_exact_oracle,
    expected_utility,
    monte_carlo,
    run_episode,
    solve_bimatrix_nash,
    wilson_interval,
)
from repgame.sequential import (
    TIE_BAND,
    BatchTestState,
    EProcessState,
    _log_factorials,
    batch_update,
    eprocess_crossed,
    eprocess_update,
    log_e_at,
    log_e_table,
)
from repgame.strategies import PublicHistory
from repgame.simulate import (
    _draw_actions,
    _worker_count,
    sample_action,
)

from conftest import anytime_enforcement, kernel_log_traj, stream_tau
from reference_strategies import anytime_ttp_act, batch_ttp_act, grim_trigger_act

PD = StageGame(2, (2, 2), ([[0.6, 0.0], [1.0, 0.2]], [[0.6, 1.0], [0.0, 0.2]]))
PURE_COOP = PayoffTarget.from_profiles(
    PD, MixedProfile(([1, 0], [1, 0])), solve_bimatrix_nash(PD)
)
UNIFORM_COOP = PayoffTarget.from_profiles(
    PD, MixedProfile(([0.5, 0.5], [0.5, 0.5])), solve_bimatrix_nash(PD)
)
MIXED_COOP = PayoffTarget.from_profiles(
    PD, MixedProfile(([0.9, 0.1], [0.9, 0.1])), solve_bimatrix_nash(PD)
)


def fraction_crossing(probs, gamma, num_players, depth):
    """Crossing probability within ``depth`` rounds, by path enumeration in Fraction."""
    w = [Fraction(p) for p in probs]
    threshold = num_players / Fraction(gamma)

    def rec(counts, t, e, mass):
        if t > 0 and e >= threshold:
            return mass
        if t == depth:
            return Fraction(0)
        total = Fraction(0)
        for a, p in enumerate(w):
            if p:
                ratio = Fraction(counts[a] + 1, t + len(w)) / p
                counts[a] += 1
                total += rec(counts, t + 1, e * ratio, mass * p)
                counts[a] -= 1
        return total

    return rec([0] * len(w), 0, Fraction(1), Fraction(1))


def all_fraction_oracle(probs, gamma, num_players, depth):
    """The oracle's forward pass, deciding every lattice state in Fraction."""
    live, crossed = {(0,) * len(probs): 1.0}, 0.0
    for _ in range(depth):
        step = {}
        for counts, mass in live.items():
            for a, p in enumerate(probs):
                nxt = counts[:a] + (counts[a] + 1,) + counts[a + 1:]
                step[nxt] = step.get(nxt, 0.0) + mass * p
        live = {}
        for counts, mass in step.items():
            if eprocess_crossed(counts, probs, gamma, num_players):
                crossed += mass
            else:
                live[counts] = mass
    return crossed


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

    @pytest.mark.parametrize("enforcement, monitoring",
                             [("anytime", "perfect"), ("batch", "perfect"),
                              ("grim", "imperfect")])
    def test_rejects_mismatched_monitoring(self, enforcement, monitoring):
        # anytime and batch test realized actions; grim compares mixed profiles.
        with pytest.raises(GameError, match="needs .* monitoring"):
            config(enforcement=enforcement, monitoring=monitoring,
                   delta=0.3, batch_length=10)


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

    def test_empty_window(self):
        traj = Trajectory(monitoring="imperfect", actions=[], stage_payoffs=np.zeros((0, 2)),
                          punishment_onset=None, rejection_times=[None, None])
        with pytest.raises(GameError, match="empty trajectory"):
            discounted_payoffs(traj, 0.9)


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

    @pytest.mark.parametrize("mode", ["detection", "payoff", "gap"])
    def test_sd_modes_need_two_replications(self, mode):
        cfg = config(deviations={0: Stationary([0.6, 0.4])},
                     gap_family=[("defect", 0, Stationary([0, 1]))])
        with pytest.raises(GameError, match=f"{mode} mode needs replications >= 2"):
            monte_carlo(cfg, mode, 1)
        assert monte_carlo(cfg, mode, 2).replications == 2

    @pytest.mark.parametrize("replications, fraction, status", [
        (30, 0.0, "pass"), (1000, 0.0, "fail"), (1000, 0.001, "fail"), (1000, 0.01, "pass"),
    ])
    def test_wrongful_curve_bound_fails_only_below_the_wilson_upper_limit(
            self, replications, fraction, status):
        curve = [{"horizon": 1000, "punished_fraction": fraction, "analytic_lower_bound": 0.01}]
        report = simulate.MonteCarloReport(
            mode="wrongful_curve", replications=replications, base_seed=0,
            estimates={"curve": curve}, intervals={}, truncation_certificate=0.0, rows=[])
        checks = simulate.MODES["wrongful_curve"].checks({}, None, report)
        assert [(a["name"], a["status"]) for a in checks] == [
            ("punished_fraction_nondecreasing", "pass"),
            ("final_fraction_ge_analytic_bound", status),
        ]

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


def one_hot_counts(actions, num_actions):
    """(T, K) action counts after each round, from a cumulative one-hot sum."""
    one_hot = np.zeros((actions.size, num_actions), dtype=np.int64)
    one_hot[np.arange(actions.size), actions] = 1
    return np.cumsum(one_hot, axis=0)


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
    def test_eprocess_matches_one_hot_reference(self, monkeypatch):
        # One float path: the episode enforcement, the stream kernel and the
        # oracle's formula (log_e_at on one-hot counts) give the same log e_t
        # bit for bit, round by round, on every seeded stream.
        zero_refs = 0
        for actions, w_ref in seeded_streams():
            enforcement, w_ref = anytime_enforcement(w_ref, 0.05, actions.size)
            episode = []

            def spy(table, counts):
                episode.append(log_e_at(table, counts))
                return episode[-1]

            monkeypatch.setattr(simulate, "log_e_at", spy)
            for t, a in enumerate(actions.tolist()):
                enforcement.observe(t, (a, a))
            monkeypatch.undo()
            table = [part.tolist() for part in log_e_table(tuple(w_ref.tolist()), actions.size)]
            oracle = [log_e_at(table, c) for c in one_hot_counts(actions, w_ref.size).tolist()]
            kernel = kernel_log_traj(actions, w_ref)
            assert np.array_equal(episode[::2], kernel)  # player 0 of each round
            assert np.array_equal(episode[1::2], kernel)
            assert np.array_equal(oracle, kernel)
            zero_refs += bool(np.isinf(kernel).any())
        assert zero_refs > 0  # the +inf path is exercised

    @pytest.mark.parametrize(
        "probs", [[0.5, 0.5], [0.9, 0.1], [1, 0], [0, 1], [0.2, 0.3, 0.5],
                  [0.1, 0.0, 0.4, 0.5]],
    )
    def test_vector_draws_equal_scalar_draws(self, probs):
        action = MixedAction(probs)
        vector = _draw_actions(np.random.default_rng(11), action.probs, 500)
        rng = np.random.default_rng(11)
        scalar = [sample_action(rng.random(), action) for _ in range(500)]
        assert vector.dtype == np.int64
        assert vector.tolist() == scalar
        assert set(scalar) == {a for a, p in enumerate(action.probs) if p > 0}

    def test_scalar_fold_crosses_at_vector_tau(self):
        # The episode enforcement folds the stream round by round; both
        # players play it, and each fires where the vector path does.
        gamma, num_players = 0.05, 2
        crossings = []
        for actions, w_ref in seeded_streams():
            enforcement, w_ref = anytime_enforcement(w_ref, gamma, actions.size)
            for t, a in enumerate(actions.tolist()):
                if enforcement.observe(t, (a, a)):
                    break
            fired_at, _ = enforcement.rejection_times()
            assert fired_at == stream_tau(actions, w_ref, gamma, num_players)
            crossings.append(fired_at)
        assert None in crossings and any(c is not None for c in crossings)

    def test_kernel_within_tenth_of_tie_band_of_fsum(self):
        # _eprocess_tau, the episode loop and the oracle trust the closed form
        # outside TIE_BAND = 1e-6, so the kernel must stay well inside that
        # band of log e_t = log (K-1)! + sum_a log c_a! - log (t+K-1)!
        # - sum_a c_a log w_a, summed here exactly (math.fsum) over the
        # math.log of every factor. On- and off-reference play, K in {2, 3, 4}.
        worst, sizes = 0.0, set()
        for seed in range(8):
            rng = np.random.default_rng([11, seed])
            num_actions = 2 + seed % 3
            w_ref = rng.dirichlet(np.ones(num_actions))
            play = w_ref if seed % 2 == 0 else rng.dirichlet(np.ones(num_actions))
            actions = _draw_actions(rng, play, 100_000)
            log_e = kernel_log_traj(actions, w_ref)
            for t in (1_000, 10_000, 100_000):
                counts = np.bincount(actions[:t], minlength=num_actions).tolist()
                parts = [-math.log(j) for j in range(num_actions, t + num_actions)]
                for c, w in zip(counts, w_ref.tolist()):
                    parts += map(math.log, range(1, c + 1))
                    parts.append(-c * math.log(w))
                worst = max(worst, abs(log_e[t - 1] - math.fsum(parts)))
            sizes.add((num_actions, seed % 2))
        assert len(sizes) == 6
        assert worst <= TIE_BAND / 10  # measured 3.2e-10

    @pytest.mark.parametrize("enforcement", ["anytime", "batch"])
    @pytest.mark.parametrize("deviations", [
        {},
        {0: Stationary([0.6, 0.4])},
        {0: BatchAdversarial(PD, MIXED_COOP, 0, batch_length=50, delta=0.3)},
        {0: BatchAdversarial(PD, MIXED_COOP, 0, batch_length=7, delta=0.05)},
    ])
    def test_episode_onset_matches_monte_carlo_row(self, enforcement, deviations):
        # The two BatchAdversarial inputs are its scheduled and fallback cases.
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


def first_crossing(actions, w_ref, gamma, num_players):
    """The crossing rule round by round: the first t at which
    eprocess_crossed fires on the counts and the kernel's log e_t."""
    log_e = kernel_log_traj(actions, w_ref)
    counts = np.zeros(w_ref.size, dtype=np.int64)
    for t, a in enumerate(actions):
        counts[a] += 1
        if eprocess_crossed(counts, w_ref, gamma, num_players, log_e[t]):
            return t + 1
    return None


def balanced_then_zeros(crossing_round):
    """A K = 2 stream, and a gamma for N = 2 under w = (1/2, 1/2), whose first
    crossing is at round index ``crossing_round`` (tau = crossing_round + 1).

    Alternating 0, 1 for a quarter of the rounds keeps e_t at most 1; the run
    of zeros after it raises e_t every round, and the threshold sits midway
    (in log) between the last two rounds.
    """
    balanced = 2 * (crossing_round // 4)
    actions = np.zeros(crossing_round + 20, dtype=np.int64)
    actions[:balanced] = np.arange(balanced) % 2
    log_e = kernel_log_traj(actions, np.array([0.5, 0.5]))
    assert log_e[crossing_round - 1] > max(log_e[: crossing_round - 1].max(), math.log(2))
    threshold = (log_e[crossing_round - 1] + log_e[crossing_round]) / 2
    return actions, 2 * math.exp(-threshold)


class TestClosedFormTau:
    def test_log_factorials_within_2e15_of_lgamma(self):
        # The uncached builder, so the 16 MB table is not kept for the session.
        n = 2_000_000
        table = _log_factorials.__wrapped__(n)
        grid = np.unique(np.concatenate([np.arange(3_000),
                                         np.linspace(0, n, 4_001).astype(np.int64)]))
        worst_rel = worst_abs = 0.0
        for m in grid.tolist():
            exact = math.lgamma(m + 1)
            err = abs(table[m] - exact)
            if exact < 1.0:
                worst_abs = max(worst_abs, err)
            else:
                worst_rel = max(worst_rel, err / exact)
        assert worst_rel <= 2e-15  # measured 4.4e-16
        assert worst_abs <= 1e-12

    @pytest.mark.parametrize("n", [0, 1, 5, 31, 32, 33, 100])
    def test_log_factorials_small_tables(self, n):
        table = _log_factorials(n)
        assert table.shape == (n + 1,)
        head = [math.lgamma(m + 1) for m in range(min(n + 1, 32))]
        assert table[:32].tolist() == head  # math.lgamma itself below m = 32
        assert np.allclose(table, [math.lgamma(m + 1) for m in range(n + 1)],
                           rtol=2e-15, atol=1e-12)

    def test_log_factorials_read_only(self):
        table = _log_factorials(40)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[3] = 0.0
        assert _log_factorials(40) is table

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    @pytest.mark.parametrize("gamma, num_players", [(0.05, 2), (0.2, 1)])
    def test_small_chunks_match_round_by_round_rule(self, monkeypatch, chunk, gamma,
                                                    num_players):
        monkeypatch.setattr(simulate, "_CHUNK", chunk)
        taus, sizes = [], set()
        for actions, w_ref in seeded_streams():
            tau = stream_tau(actions, w_ref, gamma, num_players)
            assert tau == first_crossing(actions, w_ref, gamma, num_players)
            taus.append(tau)
            sizes.add(w_ref.size)
        assert None in taus and any(t is not None for t in taus)
        assert sizes == {2, 3, 4}

    @pytest.mark.parametrize("chunk", [7, 64])
    @pytest.mark.parametrize("where", ["first", "last"])
    def test_crossing_on_a_chunk_edge(self, monkeypatch, chunk, where):
        # A finite crossing on the first or the last round of the second and
        # third chunks, where the counts carried in are nonzero.
        monkeypatch.setattr(simulate, "_CHUNK", chunk)
        w_ref = np.array([0.5, 0.5])
        for k in (1, 2):
            crossing_round = k * chunk if where == "first" else (k + 1) * chunk - 1
            actions, gamma = balanced_then_zeros(crossing_round)
            assert first_crossing(actions, w_ref, gamma, 2) == crossing_round + 1
            assert stream_tau(actions, w_ref, gamma, 2) == crossing_round + 1

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_unsupported_action_on_a_chunk_edge(self, monkeypatch, chunk):
        # K = 3 with a zero weight: e_t turns +inf at the unsupported action.
        monkeypatch.setattr(simulate, "_CHUNK", chunk)
        w_ref = np.array([0.5, 0.5, 0.0])
        for t in (chunk, 2 * chunk - 1, 3 * chunk, 150):
            actions = np.arange(200, dtype=np.int64) % 2
            actions[t] = 2
            assert stream_tau(actions, w_ref, 0.5, 1) == t + 1
            assert first_crossing(actions, w_ref, 0.5, 1) == t + 1

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 16_384])
    def test_tie_cell_still_fires_at_three(self, monkeypatch, chunk):
        # w = (1/2, 1/2), N = 1, gamma = 1/2: e_3 = 2 = N / gamma exactly on 0, 0, 0.
        monkeypatch.setattr(simulate, "_CHUNK", chunk)
        assert stream_tau(np.zeros(3, dtype=np.int64), np.array([0.5, 0.5]), 0.5, 1) == 3
        assert stream_tau(np.zeros(2, dtype=np.int64), np.array([0.5, 0.5]), 0.5, 1) is None


def run_inside_a_block(at, run, horizon):
    """A K = 2 stream that alternates 0, 1 except for ``run`` zeros from round
    ``at`` (even) and then ``run`` ones, its log e_t under w = (1/2, 1/2), and
    a gamma for N = 2 whose first crossing is the last zero: tau = at + run.

    The counts are equal at every even round outside the runs, so log e_t
    is below 0 there.
    """
    actions = np.arange(horizon) % 2
    actions[at: at + run] = 0
    actions[at + run: at + 2 * run] = 1
    log_e = kernel_log_traj(actions, np.array([0.5, 0.5]))
    tau = at + run
    assert log_e[tau - 1] > max(log_e[: tau - 1].max(), math.log(2))
    threshold = (log_e[tau - 1] + log_e[tau - 2]) / 2
    return actions, 2 * math.exp(-threshold), log_e


class TestBlockBound:
    @pytest.mark.parametrize("block", [1, 7, 128])
    def test_corner_peak_bounds_every_round_of_its_block(self, monkeypatch, block):
        # Chunks of 1,000 rounds carry counts in and end on ragged blocks.
        monkeypatch.setattr(simulate, "_BLOCK", block)
        above_both_ends = 0
        for actions, w_ref in seeded_streams():
            table = log_e_table(tuple(w_ref.tolist()), actions.size)
            listed = [part.tolist() for part in table]
            seen = one_hot_counts(actions, w_ref.size)
            carried = np.zeros(w_ref.size, dtype=np.int64)
            for start in range(0, actions.size, 1_000):
                chunk = actions[start: start + 1_000]
                counts, peaks, ends = simulate._block_peaks(table, chunk, carried)
                log_e = simulate._log_e_chunk(table, chunk, start, carried)
                edges = np.append(np.arange(start, start + chunk.size, block),
                                  start + chunk.size)
                assert np.array_equal(counts[:, 1:].T, seen[edges[1:] - 1])
                assert peaks.size == edges.size - 1
                carried = counts[:, -1]
                for i, peak in enumerate(peaks.tolist()):
                    rounds = log_e[edges[i] - start: edges[i + 1] - start]
                    assert peak >= rounds.max()
                    assert ends[i] == rounds[-1]
                    first = log_e_at(listed, counts[:, i].tolist())
                    above_both_ends += peak > max(first, rounds[-1])
        # A corner other than the block's start and end is its peak.
        assert above_both_ends > 0 if block > 1 else above_both_ends == 0

    @pytest.mark.parametrize("chunk", [7, 64, 1_000, 16_384])
    def test_blocks_match_round_by_round_rule(self, monkeypatch, chunk):
        monkeypatch.setattr(simulate, "_CHUNK", chunk)
        streams = seeded_streams()
        for gamma, num_players in ((0.05, 2), (0.2, 1)):
            expected = [first_crossing(a, w, gamma, num_players) for a, w in streams]
            assert None in expected and any(t is not None for t in expected)
            for block in (1, 2, 3, 7, 128):
                monkeypatch.setattr(simulate, "_BLOCK", block)
                assert [stream_tau(a, w, gamma, num_players) for a, w in streams] == expected

    @pytest.mark.parametrize("chunk, at", [(16_384, 138), (200, 190)])
    def test_crossing_inside_a_block_whose_ends_are_low(self, monkeypatch, chunk, at):
        # The run of zeros crosses strictly inside the block [first, first + 128)
        # while log e_t at the block's start and end lies below near. With
        # chunks of 200 rounds the run starts in the first chunk and crosses
        # in the first block of the second.
        monkeypatch.setattr(simulate, "_CHUNK", chunk)
        actions, gamma, log_e = run_inside_a_block(at, 50, 400)
        tau = at + 50
        first = (tau - 1) // chunk * chunk + (tau - 1) % chunk // 128 * 128
        assert first < tau < first + 128 and first + 128 <= actions.size
        near = math.log(2) - math.log(gamma) - TIE_BAND
        assert max(log_e[first - 1], log_e[first + 127]) < near
        w_ref = np.array([0.5, 0.5])
        assert first_crossing(actions, w_ref, gamma, 2) == tau
        assert stream_tau(actions, w_ref, gamma, 2) == tau

    def test_span_stops_at_the_first_block_past_the_threshold(self, monkeypatch):
        # Off-reference play crosses early and stays above N / gamma, so only
        # the blocks up to the first one that ends above it are scored round
        # by round, not the rest of the 16,384-round chunk.
        w_ref = np.array([0.5, 0.5])
        actions = _draw_actions(np.random.default_rng(3), np.array([0.8, 0.2]), 16_384)
        tau = first_crossing(actions, w_ref, 0.05, 2)
        scored, original = [], simulate._log_e_chunk

        def spy(table, chunk, start, carried):
            scored.append((start, chunk.size))
            return original(table, chunk, start, carried)

        monkeypatch.setattr(simulate, "_log_e_chunk", spy)
        assert stream_tau(actions, w_ref, 0.05, 2) == tau
        [(start, size)] = scored
        assert start < tau <= start + size <= tau + 2 * simulate._BLOCK

    def test_block_ending_within_tie_band_below_the_threshold(self):
        # log e_t after 256 rounds, the end of the second block, lies
        # TIE_BAND / 2 below log(N / gamma): that block has not crossed, so the
        # span goes on, and the next zero crosses in the third block.
        w_ref = np.array([0.5, 0.5])
        actions = np.arange(400) % 2
        actions[200:300] = 0
        log_e = kernel_log_traj(actions, w_ref)
        threshold = log_e[255] + TIE_BAND / 2
        gamma = 2 * math.exp(-threshold)
        assert log_e[:256].max() == log_e[255] and log_e[256] > threshold + TIE_BAND
        assert first_crossing(actions, w_ref, gamma, 2) == 257
        assert stream_tau(actions, w_ref, gamma, 2) == 257

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 128])
    def test_tie_cells_fire_at_every_block(self, monkeypatch, block):
        # w = (1/2, 1/2), N = 1 and tau zeros: e_3 = 2 = 1 / gamma at gamma = 1/2,
        # and e_15 = 2^15 / 16 = 1 / gamma at gamma = 2^-11. The float log e_15
        # lies below log(1 / gamma), so a block is cleared only below near.
        monkeypatch.setattr(simulate, "_BLOCK", block)
        w_ref = np.array([0.5, 0.5])
        assert kernel_log_traj(np.zeros(15, dtype=np.int64), w_ref)[-1] < 11 * math.log(2)
        for tau, gamma in ((3, 0.5), (15, 2.0 ** -11)):
            assert stream_tau(np.zeros(tau, dtype=np.int64), w_ref, gamma, 1) == tau
            assert stream_tau(np.zeros(tau - 1, dtype=np.int64), w_ref, gamma, 1) is None


def opponent_index_case(k, horizon):
    """An anytime config on a two-player game with k actions each, player 0
    deviating to a stationary mixed action.

    A player's payoff is the opponent's action index over k - 1, so every
    profile is a stage equilibrium and all-zero play punishes; the
    cooperative reference and the deviation are Dirichlet draws.
    """
    rng = np.random.default_rng([23, k])
    u0 = np.tile(np.arange(k) / (k - 1), (k, 1))
    game = StageGame(2, (k, k), (u0, u0.T))
    w, zero = rng.dirichlet(np.ones(k)), np.eye(k)[0]
    target = PayoffTarget.from_profiles(game, MixedProfile((w, w)), MixedProfile((zero, zero)))
    return EpisodeConfig(game=game, target=target, beta=0.999, horizon=horizon, seed=k,
                         enforcement="anytime", gamma=0.05,
                         deviations={0: Stationary(rng.dirichlet(np.ones(k)))})


def whole_stream_rep(cfg, rep):
    """taus, onset and payoffs from one whole draw per player, scored round by round."""
    streams, taus = [], []
    for i, w_ref in enumerate(cfg.target.cooperative):
        dev = cfg.deviations.get(i)
        probs = w_ref.probs if dev is None else dev.action.probs
        actions = _draw_actions(simulate._stream(cfg.seed, rep, i, 0), probs, cfg.horizon)
        streams.append(actions)
        taus.append(first_crossing(actions, w_ref.probs, cfg.gamma, 2))
    onset = min((t for t in taus if t is not None), default=None)
    return taus, onset, simulate._spliced_payoff(cfg, rep, streams, onset)


def spy_draws(monkeypatch):
    """Rounds drawn per player from the pre-punishment streams (purpose 0)."""
    drawn, owners = {}, []
    stream, draw = simulate._stream, simulate._draw_actions

    def stream_spy(seed, rep, player, purpose):
        rng = stream(seed, rep, player, purpose)
        if purpose == 0:
            owners.append((rng, player))
        return rng

    def draw_spy(rng, probs, size):
        for owner, player in owners:
            if owner is rng:
                drawn[player] = drawn.get(player, 0) + size
        return draw(rng, probs, size)

    monkeypatch.setattr(simulate, "_stream", stream_spy)
    monkeypatch.setattr(simulate, "_draw_actions", draw_spy)
    return drawn


class TestChunkedStreams:
    @pytest.mark.parametrize("chunk, horizon", [(1, 600), (7, 4_099), (4_096, 4_099)])
    def test_chunked_reps_equal_whole_draws(self, monkeypatch, chunk, horizon):
        # 4,099 rounds is no multiple of 7 or 4,096. A player whose test fires
        # stops drawing at the end of that chunk, every other draws them all.
        monkeypatch.setattr(simulate, "_CHUNK", chunk)
        fired, silent = 0, 0
        for k in (2, 3, 4):
            cfg = opponent_index_case(k, horizon)
            for rep in range(3):
                taus, onset, payoffs = whole_stream_rep(cfg, rep)
                for want_payoffs in (False, True):
                    drawn = spy_draws(monkeypatch)
                    got = simulate._anytime_rep(cfg, rep, want_payoffs)
                    assert got[:2] == (taus, onset)
                    if want_payoffs:
                        assert got[2].tobytes() == payoffs.tobytes()
                    else:
                        assert got[2] is None
                    for player, tau in enumerate(taus):
                        limit = cfg.horizon if tau is None else -(-tau // chunk) * chunk
                        assert drawn[player] == min(limit, cfg.horizon)
                fired += sum(t is not None for t in taus)
                silent += taus.count(None)
        assert fired and silent

    @pytest.mark.parametrize("chunk", [7, simulate._CHUNK])
    def test_episode_draws_cross_chunk_edges(self, monkeypatch, chunk):
        # The episode loop takes each player's uniforms _CHUNK rounds at a
        # time. Across two chunk edges and a ragged tail of 3 rounds, each
        # player's column of actions equals one whole vector draw from that
        # player's stream.
        monkeypatch.setattr(simulate, "_CHUNK", chunk)
        deviator = Stationary([0.3, 0.7])
        cfg = config(enforcement="none", gamma=None, horizon=2 * chunk + 3, seed=4,
                     deviations={1: deviator})
        traj = run_episode(cfg, 3)
        columns = np.array(traj.actions, dtype=np.int64).T
        for i, probs in enumerate((MIXED_COOP.cooperative[0].probs, deviator.action.probs)):
            whole = _draw_actions(simulate._stream(cfg.seed, 3, i, 0), probs, cfg.horizon)
            assert columns[i].tolist() == whole.tolist()
            assert set(whole.tolist()) == {0, 1}

    def test_perfect_monitoring_builds_no_streams(self, monkeypatch):
        built, stream = [], simulate._stream

        def stream_spy(*args):
            built.append(args)
            return stream(*args)

        monkeypatch.setattr(simulate, "_stream", stream_spy)
        for kind in ("grim", "none"):
            run_episode(config(target=PURE_COOP, monitoring="perfect", enforcement=kind,
                               gamma=None, deviations={1: DefectFrom(5)}))
        assert built == []
        run_episode(config(horizon=5), 2)
        assert built == [(1, 2, 0, 0), (1, 2, 1, 0)]

    def test_type1_memory_does_not_grow_with_horizon(self):
        # One warm replication (its log e_t table cached) keeps only chunk
        # temporaries: its traced peak at T = 4e5 stays within 10% of T = 1e5.
        peaks = []
        for horizon in (100_000, 400_000):
            cfg = config(target=UNIFORM_COOP, horizon=horizon, seed=5)
            simulate._anytime_rep(cfg, 0, want_payoffs=False)
            tracemalloc.start()
            try:
                taus, _, _ = simulate._anytime_rep(cfg, 1, want_payoffs=False)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert taus == [None, None]  # every round of both streams was scored
        assert peaks[1] <= 1.1 * peaks[0]


def mixed_actions_drawn(monkeypatch):
    """Record every mixed action run_episode samples from, in call order."""
    drawn = []
    original = simulate.sample_action

    def spy(rng, action):
        drawn.append(action)
        return original(rng, action)

    monkeypatch.setattr(simulate, "sample_action", spy)
    return drawn


MODES = ["type1", "detection", "payoff", "gap", "wrongful_curve"]


class DefectFrom:
    """Cooperates in PD until round ``start``, then defects; reads no history."""

    def __init__(self, start):
        self.start = start

    def act(self, history, t):
        return MixedAction([0, 1] if t >= self.start else [1, 0])


class TestEnforcementKinds:
    @pytest.mark.parametrize("horizon", [50, 100])
    @pytest.mark.parametrize("late_defector", [False, True])
    def test_grim_compares_each_round_once(self, monkeypatch, horizon, late_defector):
        calls = []
        original = MixedProfile.close_to

        def counting(self, other, *args, **kwargs):
            calls.append(1)
            return original(self, other, *args, **kwargs)

        monkeypatch.setattr(MixedProfile, "close_to", counting)
        deviations = {1: DefectFrom(horizon // 2)} if late_defector else {}
        cfg = config(target=PURE_COOP, monitoring="perfect", enforcement="grim",
                     gamma=None, horizon=horizon, deviations=deviations)
        traj = run_episode(cfg)
        assert traj.punishment_onset == (horizon // 2 + 1 if late_defector else None)
        assert len(calls) == horizon
        # A one-shot deviator follows grim itself: one comparison per round
        # until the first off-path profile, on top of the enforcement's one.
        at_round = horizon // 2 if late_defector else horizon - 1
        calls.clear()
        cfg.deviations = {1: OneShotDeviation(PURE_COOP, 1, at_round, 1)}
        assert run_episode(cfg).punishment_onset == at_round + 1
        assert len(calls) == horizon + min(at_round + 1, horizon - 1)

    def test_anytime_cooperators_follow_reference(self, monkeypatch):
        drawn = mixed_actions_drawn(monkeypatch)
        cfg = config(horizon=60, seed=2, deviations={0: Stationary([0.3, 0.7])})
        traj = run_episode(cfg)
        assert traj.rejection_times == [13, 18]  # both phases, and a late rejection
        # The reference decides every round on the counts in Fraction, with
        # no float log e_t.
        tests = [EProcessState.fresh(i, 2) for i in range(2)]
        for t, joint in enumerate(traj.actions):
            reference = anytime_ttp_act(tests, MIXED_COOP, 1, t=t)
            assert np.array_equal(drawn[2 * t + 1].probs, reference.probs)
            for i, state in enumerate(tests):
                eprocess_update(state, joint[i], expected_t=t)
                if state.fired_at is None and eprocess_crossed(
                        state.counts, MIXED_COOP.cooperative[i], 0.05, 2):
                    state.fired_at = state.t
        assert [s.fired_at for s in tests] == traj.rejection_times

    def test_batch_cooperators_follow_reference(self, monkeypatch):
        drawn = mixed_actions_drawn(monkeypatch)
        cfg = config(enforcement="batch", gamma=None, delta=0.5, batch_length=6,
                     horizon=60, seed=3, deviations={0: Stationary([0.5, 0.5])})
        traj = run_episode(cfg)
        assert traj.punishment_onset == 18 and traj.rejection_times == [2, 3]
        tests = [BatchTestState.fresh(i, 2, 6) for i in range(2)]
        for t, joint in enumerate(traj.actions):
            reference = batch_ttp_act(tests, MIXED_COOP, 1, t)
            assert np.array_equal(drawn[2 * t + 1].probs, reference.probs)
            for i in range(2):
                batch_update(tests[i], joint[i], MIXED_COOP.cooperative[i], 0.5)
        assert [s.fired_at_batch for s in tests] == traj.rejection_times

    def test_grim_cooperators_follow_reference(self):
        cfg = config(target=PURE_COOP, monitoring="perfect", enforcement="grim",
                     gamma=None, horizon=60,
                     deviations={0: OneShotDeviation(PURE_COOP, 0, 20, 1)})
        traj = run_episode(cfg)
        assert traj.punishment_onset == 21
        history = PublicHistory("perfect")
        for profile in traj.actions:
            reference = grim_trigger_act(history, PURE_COOP, 1)
            assert np.array_equal(profile[1].probs, reference.probs)
            history.append(profile)

    @pytest.mark.parametrize("enforcement, mode", [
        ("batch", "detection"), ("batch", "gap"), ("anytime", "wrongful_curve"),
        ("batch", "type1"), ("batch", "wrongful_curve"),  # sample cooperative play only
        *(("grim", mode) for mode in MODES), *(("none", mode) for mode in MODES),
    ])
    def test_monte_carlo_rejects_unsupported_modes(self, enforcement, mode):
        kind = {
            "batch": {"gamma": None, "delta": 0.3, "batch_length": 10},
            "grim": {"gamma": None, "monitoring": "perfect"},
            "none": {"gamma": None},
        }.get(enforcement, {})
        cfg = config(enforcement=enforcement, deviations={0: Stationary([0.6, 0.4])},
                     gap_family=[("defect", 0, Stationary([0, 1]))], **kind)
        with pytest.raises(GameError, match=f"{mode} mode is not defined for {enforcement}"):
            monte_carlo(cfg, mode, 5)


def pinned_episode(case):
    """One configuration of the episode pins: (kind, deviator, payoff rule).

    The payoff rule follows the monitoring, so the third item only labels it.
    """
    kind, deviator, _ = case
    deviations = {
        "stationary": lambda: {0: Stationary([0.6, 0.4])},
        "batch_adversarial": lambda: {0: BatchAdversarial(PD, MIXED_COOP, 0, 50, 0.3)},
        "one_shot": lambda: {1: OneShotDeviation(MIXED_COOP, 1, 37, 1)},
        "defect_from": lambda: {1: DefectFrom(30)},
    }[deviator]()
    extra = {
        "anytime": {},
        "batch": {"gamma": None, "delta": 0.3, "batch_length": 50},
        "none": {"gamma": None},
        "grim": {"gamma": None, "monitoring": "perfect",
                 "target": PURE_COOP if deviator == "defect_from" else MIXED_COOP},
    }[kind]
    return config(enforcement=kind, horizon=200, seed=5, deviations=deviations, **extra)


def episode_digest(traj):
    """sha256 prefix of a trajectory's records and the bytes of its stage payoffs."""
    h = hashlib.sha256()
    for record in traj.actions:
        if isinstance(record, MixedProfile):
            for action in record.actions:
                h.update(action.probs.tobytes())
        else:
            h.update(repr(record).encode())
    h.update(f"{traj.stage_payoffs.dtype.str}{traj.stage_payoffs.shape}".encode())
    h.update(traj.stage_payoffs.tobytes())
    return h.hexdigest()[:16]


# (kind, deviator, payoff rule): (punishment onset, rejection times, digest)
EPISODE_PINS = {
    ("anytime", "stationary", "realized"): (31, [31, 42], "96f07f890e0c73a0"),
    ("anytime", "batch_adversarial", "realized"): (3, [3, 7], "67cf0818e610730d"),
    ("anytime", "one_shot", "realized"): (None, [None, None], "58fbc190048898c1"),
    ("batch", "stationary", "realized"): (50, [0, 1], "b3fc7a6332c7eeaf"),
    ("batch", "batch_adversarial", "realized"): (None, [None, None], "ac8d2b719cdefaab"),
    ("batch", "one_shot", "realized"): (None, [None, None], "58fbc190048898c1"),
    ("none", "stationary", "realized"): (None, [None, None], "c82d1f776b34cc03"),
    ("none", "batch_adversarial", "realized"): (None, [None, None], "ac8d2b719cdefaab"),
    ("none", "one_shot", "realized"): (None, [None, None], "58fbc190048898c1"),
    ("grim", "one_shot", "expected"): (38, [None, None], "f3548d6f059a537d"),
    ("grim", "defect_from", "expected"): (31, [None, None], "0282368936f47320"),
}


class TestEpisodePins:
    @pytest.mark.parametrize("case", list(EPISODE_PINS), ids="-".join)
    def test_episode_is_pinned(self, case):
        traj = run_episode(pinned_episode(case), 2)
        onset, rejection_times, digest = EPISODE_PINS[case]
        assert traj.punishment_onset == onset
        assert traj.rejection_times == rejection_times
        assert episode_digest(traj) == digest

    @pytest.mark.parametrize("case", list(EPISODE_PINS), ids="-".join)
    def test_stage_payoffs_follow_each_round(self, monkeypatch, case):
        # Each row is the realized payoff of that round's draws under
        # imperfect monitoring, or the expected payoff of that round's mixed
        # profile under perfect monitoring, which draws nothing.
        draws = []
        original = simulate.sample_action

        def spy(rng, action):
            draws.append(original(rng, action))
            return draws[-1]

        monkeypatch.setattr(simulate, "sample_action", spy)
        cfg = pinned_episode(case)
        traj = run_episode(cfg, 2)
        assert traj.stage_payoffs.shape == (cfg.horizon, 2)
        if cfg.monitoring == "perfect":
            assert not draws
            expected = [expected_utility(PD, profile) for profile in traj.actions]
        else:
            joints = [tuple(draws[2 * t: 2 * t + 2]) for t in range(cfg.horizon)]
            assert len(draws) == 2 * cfg.horizon
            assert traj.actions == joints
            expected = [np.array([u[joint] for u in PD.utilities]) for joint in joints]
        for row, want in zip(traj.stage_payoffs, expected):
            assert row.tobytes() == want.tobytes()
        if case[0] == "grim":
            # The profile changes mid-episode: cooperation, then a deviation,
            # then punishment.
            distinct = {tuple(a.probs.tobytes() for a in p.actions) for p in traj.actions}
            assert len(distinct) >= 3


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
        # The count-lattice pass has no depth cap.
        assert eprocess_exact_oracle(2, MixedAction([0.5, 0.5]), 0.1, 1, 30) <= 0.1
        with pytest.raises(GameError):
            eprocess_exact_oracle(2, MixedAction([0.5, 0.5]), 0.1, 1, 0)

    @pytest.mark.parametrize("probs, gamma, num_players, max_depth", [
        ((0.5, 0.5), 0.5, 1, 10),  # e_3 = N / gamma exactly on 000 and 111
        ((0.8, 0.2), 0.2, 1, 10),
        ((0.9, 0.1), 0.1, 2, 10),
        ((0.2, 0.3, 0.5), 0.25, 1, 8),
        ((0.25, 0.0, 0.75), 0.5, 1, 10),
    ])
    def test_matches_fraction_enumeration(self, probs, gamma, num_players, max_depth):
        # Path enumeration done entirely in Fraction, independent of the
        # library's crossing rule. Float masses carry at most about depth
        # roundings each; the measured gap is below 2e-17.
        for depth in range(1, max_depth + 1):
            exact = fraction_crossing(probs, gamma, num_players, depth)
            got = eprocess_exact_oracle(len(probs), MixedAction(list(probs)), gamma,
                                        num_players, depth)
            assert abs(got - exact) <= 1e-15

    def test_monotone_in_depth(self):
        w = MixedAction([0.5, 0.5])
        values = [eprocess_exact_oracle(2, w, 0.2, 1, d) for d in (2, 4, 6, 8)]
        assert values == sorted(values)

    @pytest.mark.parametrize("probs", [(0.8, 0.2), (0.2, 0.3, 0.5), (0.25, 0.0, 0.75)])
    def test_closed_form_log_e_within_1e9_of_exact(self, probs):
        # Every path trusts the lgamma closed form outside TIE_BAND = 1e-6 of
        # log(N / gamma), so on every lattice state up to depth 200 it must
        # stay well inside that band of the exact log e_t. Exactly,
        # e_t = (K-1)! / (t+K-1)! * prod_a c_a! / w_a^c_a, a product of
        # Fractions; its log is summed from the logs of those exact factors,
        # each taken on the factor's integer numerator and denominator.
        depth, k = 200, len(probs)

        def exact_log(q):
            return math.log(q.numerator) - math.log(q.denominator)

        base, terms = log_e_table(probs, depth)
        exact_terms = np.array([
            [math.inf if p == 0.0 and c else
             exact_log(math.factorial(c) / Fraction(p) ** c) for c in range(depth + 1)]
            for p in probs
        ])
        worst, infinite = 0.0, 0
        for t in range(1, depth + 1):
            head = np.indices((t + 1,) * (k - 1)).reshape(k - 1, -1)
            head = head[:, head.sum(axis=0) <= t]
            counts = np.vstack([head, t - head.sum(axis=0)])
            # The table's order: base + (terms[0][c_0] + terms[1][c_1] + ...).
            closed = terms[0][counts[0]]
            exact = exact_log(Fraction(math.factorial(k - 1), math.factorial(t + k - 1)))
            exact = exact + exact_terms[0][counts[0]]
            for a in range(1, k):
                closed = closed + terms[a][counts[a]]
                exact = exact + exact_terms[a][counts[a]]
            closed = base[t] + closed
            finite = np.isfinite(exact)
            assert np.array_equal(np.isfinite(closed), finite)
            infinite += int((~finite).sum())
            worst = max(worst, float(np.abs(closed[finite] - exact[finite]).max()))
        assert worst <= 1e-9  # measured below 3e-12
        assert (infinite > 0) == (0.0 in probs)

    @pytest.mark.parametrize("probs", [(0.5, 0.5), (0.8, 0.2)])
    @pytest.mark.parametrize("gamma", [0.5, 0.2, 0.1])
    def test_equals_all_fraction_pass_on_acceptance_1_grid(self, probs, gamma):
        # The same forward pass with every state decided in Fraction (no
        # log_e). The tie cell (w = (1/2, 1/2), gamma = 1/2) is on the grid.
        for depth in range(6, 13):
            got = eprocess_exact_oracle(2, MixedAction(list(probs)), gamma, 1, depth)
            assert got == all_fraction_oracle(probs, gamma, 1, depth)

    def test_matches_monte_carlo(self):
        w = MixedAction([0.5, 0.5])
        exact = eprocess_exact_oracle(2, w, 0.5, 1, 6)
        rng = np.random.default_rng(0)
        threshold = Fraction(1) / Fraction(0.5)  # N / gamma, compared exactly
        hits = 0
        reps = 20_000
        draws = rng.integers(0, 2, size=(reps, 6))
        for row in draws:
            counts = [0, 0]
            e, crossed = Fraction(1), False
            for t, a in enumerate(row):
                e *= Fraction(counts[a] + 1, t + 2) / Fraction(0.5)
                counts[a] += 1
                if e >= threshold:
                    crossed = True
                    break
            hits += crossed
        rate = hits / reps
        se = math.sqrt(rate * (1 - rate) / reps)
        assert abs(rate - exact) <= 4 * se + 1e-9
