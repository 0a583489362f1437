import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repgame import (
    DegeneratePlayerError,
    EpisodeConfig,
    GameError,
    MixedAction,
    MixedProfile,
    OneShotDeviation,
    PayoffTarget,
    StageGame,
    best_response_gap,
    expected_utility,
    load_game,
    patience_thresholds,
    pure_action_payoffs,
    run_episode,
    solve_bimatrix_nash,
)
from repgame.game import SIMPLEX_ATOL, as_simplex

MATCHING_PENNIES = StageGame(2, (2, 2), ([[1, 0], [0, 1]], [[0, 1], [1, 0]]))
COORDINATION = StageGame(2, (2, 2), ([[1, 0], [0, 1]], [[1, 0], [0, 1]]))
# Prisoner's-dilemma shape normalized to [0, 1].
PD = StageGame(2, (2, 2), ([[0.6, 0.0], [1.0, 0.2]], [[0.6, 1.0], [0.0, 0.2]]))


def simplex(k):
    return st.lists(
        st.floats(0.001, 1.0, allow_nan=False), min_size=k, max_size=k
    ).map(lambda xs: np.array(xs) / np.sum(xs))


class TestMixedAction:
    def test_renormalizes_tiny_drift(self):
        a = MixedAction([0.5 + 4e-10, 0.5])
        assert a.probs.sum() == pytest.approx(1.0, abs=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(p=st.integers(2, 5).flatmap(simplex),
           drift=st.floats(-SIMPLEX_ATOL / 2, SIMPLEX_ATOL / 2))
    def test_normalizing_is_idempotent(self, p, drift):
        once = as_simplex(p * (1.0 + drift))
        assert as_simplex(once).tobytes() == once.tobytes()
        assert MixedAction(once).probs.tobytes() == once.tobytes()

    def test_sum_within_rounding_is_kept(self):
        # A normalized Dirichlet draw whose float sum is 0.9999999999999999:
        # dividing by it moved an entry by one ulp on every pass.
        w = np.random.default_rng([7, 10]).dirichlet(np.ones(3))
        w = w / w.sum()
        assert w.sum() == 1.0 - 2.0**-53
        assert MixedAction(w).probs.tobytes() == w.tobytes()

    def test_rejects_bad_sum(self):
        with pytest.raises(GameError):
            MixedAction([0.5, 0.6])

    def test_rejects_negative(self):
        with pytest.raises(GameError):
            MixedAction([1.5, -0.5])

    def test_close_to(self):
        assert MixedAction([0.5, 0.5]).close_to(MixedAction([0.5, 0.5]))
        assert not MixedAction([0.5, 0.5]).close_to(MixedAction([0.6, 0.4]))

    @pytest.mark.parametrize("probs", [[float("nan"), 1.0], [float("inf"), 0.0],
                                       [0.5, float("nan"), 0.5]])
    def test_rejects_non_finite(self, probs):
        # abs(nan - 1) > atol is False, so the sum check alone lets NaN through.
        with pytest.raises(GameError, match="non-finite"):
            MixedAction(probs)

    def test_close_to_itself(self):
        action = MixedAction([0.25, 0.75])
        assert action.close_to(action)

    def test_edges_are_the_cumulative_sums(self):
        action = MixedAction([0.2, 0.3, 0.5])
        assert action.edges == (0.2, 0.2 + 0.3)
        assert action.edges is action.edges

    def test_equal_values_are_equal_and_hash_equal(self):
        a, b = MixedAction([0.5, 0.5]), MixedAction(np.array([0.5, 0.5]))
        assert a.edges == (0.5,)  # the cached edges take no part
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1 and {a: 1}[b] == 1

    def test_equality_is_exact(self):
        a = MixedAction([0.5, 0.5])
        assert a != MixedAction([0.5 + 1e-12, 0.5 - 1e-12])
        assert a.close_to(MixedAction([0.5 + 1e-13, 0.5 - 1e-13]))
        assert a != MixedAction([0.5, 0.25, 0.25])
        assert a != MixedAction([1, 0]) and len({a, MixedAction([1, 0])}) == 2
        assert a != (0.5, 0.5) and a != "a"


class TestMixedProfile:
    def test_equal_values_are_equal_and_hash_equal(self):
        p = MixedProfile(([0.5, 0.5], [1, 0]))
        q = MixedProfile((MixedAction([0.5, 0.5]), np.array([1.0, 0.0])))
        assert p == q and not p != q
        assert hash(p) == hash(q) and len({p, q}) == 1

    def test_unequal_values(self):
        p = MixedProfile(([0.5, 0.5], [1, 0]))
        assert p != MixedProfile(([0.5, 0.5], [0, 1]))
        assert p != MixedProfile(([0.5, 0.5],))
        assert p != MixedProfile(([0.5, 0.5], [1, 0], [1, 0]))
        assert len({p, MixedProfile(([0.5, 0.5], [0, 1]))}) == 2

    def test_perfect_monitoring_trajectories_compare_by_value(self):
        target = PayoffTarget.from_profiles(
            PD, MixedProfile(([1, 0], [1, 0])), solve_bimatrix_nash(PD)
        )

        def actions(at_round):
            config = EpisodeConfig(
                game=PD, target=target, beta=0.9, horizon=30, seed=3,
                enforcement="grim", monitoring="perfect",
                deviations={0: OneShotDeviation(target, 0, at_round, 1)},
            )
            return run_episode(config).actions

        first, again, later = actions(10), actions(10), actions(20)
        assert first == again
        assert first is not again and first[0] is not again[0]
        assert first != later
        assert first[:10] == later[:10]


class TestStageGame:
    def test_rejects_out_of_range_payoffs(self):
        with pytest.raises(GameError):
            StageGame(2, (2, 2), ([[2, 0], [0, 1]], [[0, 1], [1, 0]]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(GameError):
            StageGame(2, (2, 3), ([[1, 0], [0, 1]], [[0, 1], [1, 0]]))

    def test_load_game_roundtrip(self, tmp_path):
        doc = {
            "num_players": 2,
            "action_counts": [2, 2],
            "utilities": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
        }
        path = tmp_path / "game.json"
        path.write_text(json.dumps(doc))
        game = load_game(path)
        assert game.action_counts == (2, 2)
        assert np.array([u[0, 0] for u in game.utilities]).tolist() == [1.0, 0.0]

    def test_load_game_missing_key(self):
        with pytest.raises(GameError):
            load_game({"num_players": 2})


class TestExpectedUtility:
    def test_pure_profile_reads_one_entry(self):
        profile = MixedProfile(([1, 0], [1, 0]))
        assert expected_utility(COORDINATION, profile)[0] == 1.0

    def test_uniform_averages(self):
        profile = MixedProfile(([0.5, 0.5], [0.5, 0.5]))
        assert expected_utility(COORDINATION, profile)[0] == pytest.approx(0.5)

    def test_hand_expansion(self):
        profile = MixedProfile(([0.25, 0.75], [0.5, 0.5]))
        assert expected_utility(COORDINATION, profile)[0] == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(GameError):
            expected_utility(COORDINATION, MixedProfile(([1, 0],)))

    @given(p=simplex(2), q=simplex(2), r=simplex(2),
           lam=st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_multilinear_in_each_player(self, p, q, r, lam):
        mix = lam * p + (1 - lam) * r
        u_mix = expected_utility(PD, MixedProfile((mix, q)))
        u_p = expected_utility(PD, MixedProfile((p, q)))
        u_r = expected_utility(PD, MixedProfile((r, q)))
        assert np.allclose(u_mix, lam * u_p + (1 - lam) * u_r, atol=1e-12)

    def test_three_player_brute_force(self):
        rng = np.random.default_rng(0)
        u = tuple(rng.random((2, 2, 2)) for _ in range(3))
        game = StageGame(3, (2, 2, 2), u)
        profile = MixedProfile(([0.3, 0.7], [0.6, 0.4], [0.5, 0.5]))
        expected = np.zeros(3)
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    w = (profile[0][a] * profile[1][b] * profile[2][c])
                    for i in range(3):
                        expected[i] += w * u[i][a, b, c]
        assert np.allclose(expected_utility(game, profile), expected, atol=1e-12)


class TestBestResponse:
    def test_matching_pennies_uniform_is_equilibrium(self):
        profile = MixedProfile(([0.5, 0.5], [0.5, 0.5]))
        assert best_response_gap(MATCHING_PENNIES, profile).max() == pytest.approx(0.0)

    def test_dominance_margin(self):
        game = StageGame(2, (2, 2), ([[1, 1], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]))
        profile = MixedProfile(([0, 1], [0, 1]))
        assert best_response_gap(game, profile)[0] == pytest.approx(0.5)

    def test_pure_action_payoffs_shape(self):
        profile = MixedProfile(([0.5, 0.5], [0.5, 0.5]))
        payoffs = pure_action_payoffs(PD, profile, 0)
        assert payoffs.shape == (2,)
        assert payoffs[1] > payoffs[0]  # defection dominates in PD


class TestNashSolver:
    def test_matching_pennies(self):
        profile = solve_bimatrix_nash(MATCHING_PENNIES)
        assert np.allclose(profile[0].probs, [0.5, 0.5], atol=1e-9)
        assert np.allclose(profile[1].probs, [0.5, 0.5], atol=1e-9)

    def test_dominance_solvable(self):
        profile = solve_bimatrix_nash(PD)
        assert np.allclose(profile[0].probs, [0, 1], atol=1e-9)
        assert np.allclose(profile[1].probs, [0, 1], atol=1e-9)

    def test_coordination_lexicographic_first(self):
        profile = solve_bimatrix_nash(COORDINATION)
        assert np.allclose(profile[0].probs, [1, 0], atol=1e-9)
        assert np.allclose(profile[1].probs, [1, 0], atol=1e-9)

    def test_solver_output_is_equilibrium(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            game = StageGame(2, (2, 2), tuple(rng.random((2, 2)) for _ in range(2)))
            profile = solve_bimatrix_nash(game)
            assert best_response_gap(game, profile).max() <= 1e-9

    def test_three_player_unsupported(self):
        u = tuple(np.zeros((2, 2, 2)) + 0.5 for _ in range(3))
        with pytest.raises(GameError):
            solve_bimatrix_nash(StageGame(3, (2, 2, 2), u))


class TestPayoffTarget:
    def test_from_profiles_validates(self):
        coop = MixedProfile(([1, 0], [1, 0]))
        nash = solve_bimatrix_nash(PD)
        target = PayoffTarget.from_profiles(PD, coop, nash)
        assert target.v.tolist() == [0.6, 0.6]

    def test_rejects_bad_punishment(self):
        coop = MixedProfile(([1, 0], [1, 0]))
        not_nash = MixedProfile(([1, 0], [1, 0]))
        with pytest.raises(GameError):
            PayoffTarget.from_profiles(PD, coop, not_nash)

    def test_rejects_irrational_target(self):
        # Cooperative payoff below the punishment payoff is rejected.
        coop = MixedProfile(([0, 1], [1, 0]))  # payoffs (1.0, 0.0)
        nash = solve_bimatrix_nash(PD)  # payoffs (0.2, 0.2)
        with pytest.raises(GameError):
            PayoffTarget.from_profiles(PD, coop, nash)


class TestPatienceThresholds:
    def _target(self, v):
        # Synthetic game with ubar = 1, punishment payoff 0.5, target v.
        game = StageGame(
            2, (2, 2),
            ([[v, 0.0], [1.0, 0.5]], [[v, 1.0], [0.0, 0.5]]),
        )
        coop = MixedProfile(([1, 0], [1, 0]))
        punish = MixedProfile(([0, 1], [0, 1]))
        return game, PayoffTarget.from_profiles(game, coop, punish)

    def test_perfect_formula(self):
        game, target = self._target(0.75)
        thr = patience_thresholds(game, target, "perfect")
        assert np.allclose(thr, 0.5)

    def test_anytime_formula(self):
        game, target = self._target(0.75)
        thr = patience_thresholds(game, target, "anytime", {"gamma": 0.1})
        assert np.allclose(thr, (1 - 0.9 * 0.75) / 0.5)

    def test_anytime_gamma_zero_matches_perfect(self):
        game, target = self._target(0.75)
        # gamma -> 0 limit: evaluate at a tiny gamma.
        thr = patience_thresholds(game, target, "anytime", {"gamma": 1e-12})
        assert np.allclose(thr, 0.5, atol=1e-9)

    def test_batch_formula(self):
        game, target = self._target(0.75)
        thr = patience_thresholds(game, target, "batch", {"delta_L": 0.1})
        assert np.allclose(thr, (1 - 0.75 - 0.1) / 0.5)

    def test_threshold_increases_with_gamma(self):
        game, target = self._target(0.75)
        # A looser test level demands more patience to deter deviation.
        loose = patience_thresholds(game, target, "anytime", {"gamma": 0.2})
        tight = patience_thresholds(game, target, "anytime", {"gamma": 0.1})
        assert np.all(loose >= tight)

    def test_degenerate_player(self):
        game = StageGame(2, (2, 2), (np.full((2, 2), 0.5), np.full((2, 2), 0.5)))
        coop = MixedProfile(([1, 0], [1, 0]))
        punish = MixedProfile(([0, 1], [0, 1]))
        target = PayoffTarget.from_profiles(game, coop, punish)
        with pytest.raises(DegeneratePlayerError):
            patience_thresholds(game, target, "perfect")


