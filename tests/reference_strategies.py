"""Per-player reference definitions of the three enforcement strategies.

``repgame.simulate.run_episode`` does not call these: its enforcement object
holds the test state every player shares and fixes the punishment onset
once. The conformance tests check its cooperators against these oracles,
which read the shared test states (or the public history, for grim trigger)
on their own each round. Punishment is absorbing: once a strategy outputs
the punishment action it does so at every later history.
"""
from repgame import (
    BatchTestState,
    ConfigurationError,
    MixedAction,
    ModeError,
    PayoffTarget,
    PublicHistory,
    StalenessError,
)


def grim_trigger_act(history: PublicHistory, target: PayoffTarget, player: int) -> MixedAction:
    """Cooperate while every recorded joint profile equals the cooperative one.

    Requires perfect monitoring: the branch condition is a set equality on
    actual mixed profiles, compared exactly (1e-12 tolerance).
    """
    if history.mode != "perfect":
        raise ModeError("grim trigger needs a perfect-monitoring history")
    for joint in history.rounds:
        if not joint.close_to(target.cooperative):
            return target.punishment[player]
    return target.cooperative[player]


def anytime_ttp_act(shared_tests, target: PayoffTarget, player: int,
                    t: int | None = None) -> MixedAction:
    """Cooperate while no player's e-process test has ever fired."""
    for state in shared_tests:
        if t is not None and state.t != t:
            raise StalenessError(
                f"test state for player {state.player} at t={state.t}, round is {t}"
            )
        if state.fired_at is not None:
            return target.punishment[player]
    return target.cooperative[player]


def batch_ttp_act(shared_tests, target: PayoffTarget, player: int, t: int) -> MixedAction:
    """Cooperate through batch 0, then while no completed batch was rejected.

    A rejection at batch kappa sends every player to punishment from the
    first round of batch kappa + 1.
    """
    for state in shared_tests:
        if not isinstance(state, BatchTestState) or state.batch_length < 1:
            raise ConfigurationError("batch test states need a configured batch length")
    batch_length = shared_tests[0].batch_length
    k_t = t // batch_length
    if k_t == 0:
        return target.cooperative[player]
    for state in shared_tests:
        if state.fired_at_batch is not None and state.fired_at_batch <= k_t - 1:
            return target.punishment[player]
    return target.cooperative[player]
