import numpy as np

import repgame.simulate as simulate
from repgame import EpisodeConfig, MixedProfile, PayoffTarget, StageGame
from repgame.sequential import log_e_table

ACCEPTANCE_RESULTS = []


def record_acceptance(number: int, description: str, ok: bool) -> None:
    ACCEPTANCE_RESULTS.append((number, description, ok))


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, ok in sorted(ACCEPTANCE_RESULTS):
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {number}: {verdict} — {description}")


def kernel_log_traj(actions, w_ref):
    """log e_t after each round, from the stream kernel, _CHUNK rounds at a time."""
    table = log_e_table(tuple(w_ref.tolist()), actions.size)
    carried, out = np.zeros(w_ref.size, dtype=np.int64), []
    for start in range(0, actions.size, simulate._CHUNK):
        chunk = actions[start: start + simulate._CHUNK]
        out.append(simulate._log_e_chunk(table, chunk, start, carried))
        carried = carried + np.bincount(chunk, minlength=w_ref.size)
    return np.concatenate(out)


def stream_tau(actions, w_ref, gamma, num_players):
    """tau of a whole stream, scored by _eprocess_tau _CHUNK rounds at a time."""
    scan = simulate._Scan(w_ref, gamma, num_players, actions.size)
    for start in range(0, actions.size, simulate._CHUNK):
        tau = simulate._eprocess_tau(actions[start: start + simulate._CHUNK], scan)
        if tau is not None:
            return tau
    return None


def anytime_enforcement(w_ref, gamma, horizon):
    """An anytime enforcement for two players whose reference is ``w_ref``,
    and that reference as MixedAction normalizes it.

    Constant payoffs make every profile a stage Nash equilibrium, so the
    reference can serve as both the cooperative and the punishment profile.
    """
    w_ref = np.asarray(w_ref, dtype=float)
    k = w_ref.size
    game = StageGame(2, (k, k), (np.full((k, k), 0.5), np.full((k, k), 0.5)))
    profile = MixedProfile((w_ref, w_ref))
    target = PayoffTarget.from_profiles(game, profile, profile)
    config = EpisodeConfig(game=game, target=target, beta=0.9, horizon=horizon, seed=0,
                           enforcement="anytime", gamma=gamma)
    return simulate.KINDS["anytime"](config), target.cooperative[0].probs
