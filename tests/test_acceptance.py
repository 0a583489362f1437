"""End-to-end acceptance checks for the enforcement machinery.

Each test covers one verifiable claim about the system, records a single
PASS/FAIL line in the terminal summary, and asserts at the stated
tolerance. Exact checks (criteria 1 and 2) enumerate paths or count
classes and assert at zero tolerance or at a stated floating-point
tolerance. Monte Carlo checks use fixed seeds; tolerances are Wilson
interval slack for rates and 3 standard errors for means.
"""
import math

import numpy as np
import pytest

from repgame import (
    BatchAdversarial,
    EpisodeConfig,
    MixedAction,
    MixedProfile,
    OneShotDeviation,
    PayoffTarget,
    SmallBall,
    StageGame,
    Stationary,
    batch_error_bounds,
    batch_test,
    discounted_payoffs,
    eprocess_exact_oracle,
    expected_utility,
    monte_carlo,
    patience_thresholds,
    pure_action_payoffs,
    run_episode,
    solve_bimatrix_nash,
    wilson_interval,
)

from conftest import kernel_log_traj, record_acceptance

PD = StageGame(2, (2, 2), ([[0.6, 0.0], [1.0, 0.2]], [[0.6, 1.0], [0.0, 0.2]]))
MATCHING_PENNIES = StageGame(2, (2, 2), ([[1, 0], [0, 1]], [[0, 1], [1, 0]]))


def pd_target(coop_probs):
    coop = MixedProfile((coop_probs, coop_probs))
    return PayoffTarget.from_profiles(PD, coop, solve_bimatrix_nash(PD))


UNIFORM_TARGET = pd_target([0.5, 0.5])
MIXED_TARGET = pd_target([0.9, 0.1])


def check(number, description, ok):
    record_acceptance(number, description, ok)
    assert ok, f"acceptance criterion {number} failed: {description}"


def test_acceptance_1_exact_ville_bound():
    """Exact enumeration: crossing probability <= gamma on the whole grid."""
    ok = True
    for probs in ((0.5, 0.5), (0.8, 0.2)):
        w = MixedAction(list(probs))
        for gamma in (0.5, 0.2, 0.1):
            for depth in range(6, 13):
                value = eprocess_exact_oracle(2, w, gamma, 1, depth)
                if not value <= gamma:
                    ok = False
    check(1, "exact crossing probability <= gamma (zero tolerance)", ok)


def test_acceptance_2_unit_mean_martingale():
    """Exact mean of the e-process is 1 at t in {10, 100, 1000}."""
    # e_t depends on a stream only through its counts, so E_w[e_t] is a sum
    # over the count lattice c = 0..t. Each class has binomial mass
    # C(t, c) w_1^c w_0^(t-c) and is scored by the library kernel on one
    # seeded random ordering of its rounds. A sample mean cannot check this:
    # for w = (1/2, 1/2) the exact sd of e_t is 4.27 at t = 10, 1.6e13 at
    # t = 100 and 4.6e147 at t = 1000, so the mean is carried by paths of
    # probability near 2^-t that a sample of 10^5 streams never draws.
    rng = np.random.default_rng(20240)
    ok = True
    for probs in ((0.5, 0.5), (0.8, 0.2)):
        w_ref = np.array(probs)
        for t in (10, 100, 1000):
            total = 0.0
            for c in range(t + 1):
                log_mass = (
                    math.lgamma(t + 1) - math.lgamma(c + 1) - math.lgamma(t - c + 1)
                    + c * math.log(probs[1]) + (t - c) * math.log(probs[0])
                )
                stream = rng.permutation(np.repeat([1, 0], [c, t - c]))
                total += math.exp(log_mass + kernel_log_traj(stream, w_ref)[-1])
            if not abs(total - 1.0) <= 1e-9:
                ok = False
    check(2, "exact e-process mean over the count lattice within 1e-9 of 1", ok)


def test_acceptance_3_type1_control():
    """Censored wrongful-punishment rate under cooperation stays below gamma."""
    config = EpisodeConfig(
        game=PD, target=UNIFORM_TARGET, beta=0.999, horizon=100_000, seed=31,
        enforcement="anytime", gamma=0.05,
    )
    report = monte_carlo(config, "type1", 2000)
    rate = report.estimates["punished_rate_censored"]
    _, upper = report.intervals["punished_rate_censored"]
    ok = rate <= 0.05 + (upper - rate)
    check(3, f"type I rate {rate:.4f} <= 0.05 + Wilson slack", ok)


def test_acceptance_4_detection():
    """Stationary deviations are detected, faster for larger deviations."""
    def run(dev_probs):
        config = EpisodeConfig(
            game=PD, target=UNIFORM_TARGET, beta=0.999, horizon=100_000, seed=41,
            enforcement="anytime", gamma=0.05,
            deviations={0: Stationary(dev_probs)},
        )
        return monte_carlo(config, "detection", 1000)

    big = run([0.8, 0.2])      # L1 distance 0.6 = 2 * 0.3
    small = run([0.65, 0.35])  # L1 distance 0.3 = 2 * 0.15
    detected = big.estimates["detected_rate"]
    faster = big.estimates["mean_tau_censored"] < small.estimates["mean_tau_censored"]
    ok = detected >= 0.99 and faster
    check(4, f"detection rate {detected:.3f} >= 0.99 and mean tau ordered", ok)


def test_acceptance_5_payoff_sandwich():
    """Cooperative runs earn between (1 - gamma) v and v up to noise."""
    gamma = 0.05
    config = EpisodeConfig(
        game=PD, target=MIXED_TARGET, beta=0.999, horizon=20_000, seed=51,
        enforcement="anytime", gamma=gamma,
    )
    report = monte_carlo(config, "payoff", 1000)
    mean = np.array(report.estimates["mean_payoff"])
    se = np.array(report.estimates["payoff_se"])
    v = MIXED_TARGET.v
    cert = report.truncation_certificate
    ok = bool(
        np.all((1 - gamma) * v - 3 * se <= mean)
        and np.all(mean <= v + 3 * se + cert)
    )
    check(5, "payoff sandwich (1-gamma)v - 3SE <= mean <= v + 3SE + beta^T", ok)


def test_acceptance_6_perfect_monitoring_folk_theorem():
    """Grim trigger: exact payoffs and the patience threshold are sharp."""
    target = pd_target([1.0, 0.0])
    v = target.v
    ulow = expected_utility(PD, target.punishment)
    threshold = patience_thresholds(PD, target, "perfect")  # 0.5 per player

    horizon = 60
    exact = True
    for beta in (0.5, 0.6, 0.9):
        config = EpisodeConfig(
            game=PD, target=target, beta=beta, horizon=horizon, seed=61,
            monitoring="perfect", enforcement="grim",
        )
        payoffs, _ = discounted_payoffs(run_episode(config), beta)
        if not np.allclose(payoffs, v * (1 - beta**horizon), rtol=0.0, atol=1e-12):
            exact = False

    def best_deviation_gain(beta):
        """Exact infinite-horizon gain of the best single-round pure deviation."""
        best = -math.inf
        for player in range(2):
            stage = pure_action_payoffs(PD, target.cooperative, player)
            for dev_time in range(21):
                for action in range(2):
                    u_dev = stage[action]
                    payoff = (
                        v[player] * (1 - beta**dev_time)
                        + (1 - beta) * beta**dev_time * u_dev
                        + beta ** (dev_time + 1) * ulow[player]
                    )
                    best = max(best, payoff - v[player])
        return best

    no_gain_at_threshold = all(
        best_deviation_gain(beta) <= 1e-12 for beta in (0.5, 0.6, 0.9)
    )
    profitable_below = best_deviation_gain(0.45) > 1e-12
    ok = exact and bool(np.allclose(threshold, 0.5)) and \
        no_gain_at_threshold and profitable_below
    check(6, "exact grim payoffs; patience threshold sharp at 0.5", ok)


def test_acceptance_7_batch_bounds():
    """Per-batch false rejections and payoffs respect the batch bounds."""
    length, delta, beta = 500, 0.3, 0.999
    p_l, _ = batch_error_bounds(2, 2, length, delta, beta)
    assert p_l == pytest.approx(8 * math.exp(-22.5), rel=1e-12)

    # 10 replications x 2 players x 50_000 batches = 1e6 cooperative batches.
    batches_per_rep = 50_000
    config = EpisodeConfig(
        game=PD, target=UNIFORM_TARGET, beta=beta,
        horizon=length * batches_per_rep, seed=71,
        enforcement="batch", delta=delta, batch_length=length,
    )
    report = monte_carlo(config, "type1", 10)
    rejected = report.estimates["rejected_batches"]
    total = report.estimates["cooperative_batches"]
    _, upper = wilson_interval(rejected, total)
    rate_ok = total == 1_000_000 and rejected / total <= max(p_l, upper)

    payoff_config = EpisodeConfig(
        game=PD, target=MIXED_TARGET, beta=beta, horizon=20_000, seed=72,
        enforcement="batch", delta=delta, batch_length=length,
    )
    payoff_report = monte_carlo(payoff_config, "payoff", 200)
    mean = np.array(payoff_report.estimates["mean_payoff"])
    se = np.array(payoff_report.estimates["payoff_se"])
    lower = np.array(payoff_report.extras["theoretical_lower"])
    upper_v = np.array(payoff_report.extras["theoretical_upper"])
    cert = payoff_report.truncation_certificate
    payoff_ok = bool(
        np.all(lower - 3 * se <= mean) and np.all(mean <= upper_v + 3 * se + cert)
    )
    check(7, f"{rejected} rejections in {total} cooperative batches; "
             "batch payoff interval holds", rate_ok and payoff_ok)


def test_acceptance_8_batch_adversary_containment():
    """The scheduled adversary is never rejected and its per-batch value is bounded."""
    rng = np.random.default_rng(81)
    beta = 0.999
    ok = True
    for _ in range(100):
        game = StageGame(2, (2, 2), tuple(rng.random((2, 2)) for _ in range(2)))
        w = rng.dirichlet([2.0, 2.0])
        coop = MixedProfile((w, rng.dirichlet([2.0, 2.0])))
        punishment = solve_bimatrix_nash(game)
        target = PayoffTarget(expected_utility(game, coop), coop, punishment)
        v0 = target.v[0]
        for length in (4, 8, 16, 32, 64):
            delta = min(0.9, 4.0 / length)  # 2K/L, above the K/L rounding floor
            dev = BatchAdversarial(game, target, 0, batch_length=length, delta=delta)
            if dev.schedule is None:
                ok = False
                continue
            counts = np.bincount(dev.schedule, minlength=2)
            if batch_test(counts, length, coop[0], delta):
                ok = False
            _, delta_l = batch_error_bounds(2, 2, length, delta, beta)
            stage = pure_action_payoffs(game, coop, 0)
            weights = beta ** np.arange(length)
            value = float(weights @ stage[dev.schedule])
            bound = float(weights.sum() * (v0 + delta_l))
            if value > bound + 1e-12:
                ok = False
    check(8, "batch adversary accepted and per-batch value <= sum beta^t (v + Delta_L)",
          ok)


def test_acceptance_9_eventual_wrongful_punishment():
    """A loose batch test wrongly punishes mixed cooperation almost surely."""
    config = EpisodeConfig(
        game=PD, target=UNIFORM_TARGET, beta=0.999, horizon=100_000, seed=91,
        enforcement="batch", delta=0.4, batch_length=10,
        curve_horizons=(1_000, 10_000, 100_000),
    )
    report = monte_carlo(config, "wrongful_curve", 500)
    curve = report.estimates["curve"]
    fracs = [point["punished_fraction"] for point in curve]
    monotone = all(a <= b + 1e-12 for a, b in zip(fracs, fracs[1:]))
    final = curve[-1]
    bound = final["analytic_lower_bound"]
    expected_bound = 1 - (1 - 2 * 0.5**10) ** (100_000 // 10)
    bound_ok = bound is not None and bound == pytest.approx(expected_bound, rel=1e-9)
    ok = monotone and bound_ok and final["punished_fraction"] >= bound
    check(9, f"punished fraction {fracs} non-decreasing, final >= analytic bound", ok)


def test_acceptance_10_equilibrium_gap():
    """No configured deviation gains more than epsilon + gamma against the test."""
    epsilon, gamma = 0.1, 0.05
    coop = MixedProfile(([0.5, 0.5], [0.5, 0.5]))
    target = PayoffTarget.from_profiles(
        MATCHING_PENNIES, coop, solve_bimatrix_nash(MATCHING_PENNIES)
    )
    family = [
        (f"stationary_{p:.1f}", 0, Stationary([p, 1 - p]))
        for p in np.linspace(0.1, 0.9, 9)
    ]
    family.append(
        ("small_ball", 0, SmallBall(MATCHING_PENNIES, target, 0, epsilon))
    )
    config = EpisodeConfig(
        game=MATCHING_PENNIES, target=target, beta=0.999, horizon=10_000, seed=101,
        enforcement="anytime", gamma=gamma, gap_family=family,
    )
    report = monte_carlo(config, "gap", 300)
    gain = report.estimates["max_gain"]
    se = report.estimates["max_gain_se"]
    ok = gain <= epsilon + gamma + 3 * se
    check(10, f"max deviation gain {gain:.4f} <= eps + gamma + 3 SE", ok)
