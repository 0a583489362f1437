"""Discounted repeated games with statistical enforcement of cooperation.

Library + CLI for simulating infinitely repeated games under imperfect
public monitoring, where cooperation is enforced by sequential statistical
tests (an anytime e-process variant and a batch frequency-test variant)
backed by grim punishment, together with the closed-form error, detection,
and payoff bounds that certify the resulting equilibria.
"""
from .bounds import (
    BatchSchedule,
    BoundParamError,
    anytime_tau_bound,
    batch_error_bounds,
    tuned_batch_params,
)
from .game import (
    DegeneratePlayerError,
    GameError,
    MixedAction,
    MixedProfile,
    PayoffTarget,
    StageGame,
    best_response_gap,
    expected_utility,
    load_game,
    patience_thresholds,
    pure_action_payoffs,
    solve_bimatrix_nash,
)
from .sequential import (
    BatchTestState,
    EProcessState,
    StalenessError,
    TestInputError,
    batch_test,
    batch_update,
    eprocess_crossed,
    eprocess_update,
)
from .simulate import (
    EpisodeConfig,
    MonteCarloReport,
    Trajectory,
    discounted_payoffs,
    eprocess_exact_oracle,
    monte_carlo,
    run_episode,
    wilson_interval,
)
from .strategies import (
    BatchAdversarial,
    ConfigurationError,
    ModeError,
    OneShotDeviation,
    PublicHistory,
    SmallBall,
    Stationary,
    make_deviation,
)
from .experiment import (
    SpecError,
    build_config,
    emit_report,
    load_spec,
    run_experiment,
)

__version__ = "0.1.0"
