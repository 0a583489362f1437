"""Command-line surface: run experiments, render reports, solve games, print bounds."""
from __future__ import annotations

import argparse
import json
import sys

from .bounds import anytime_tau_bound, batch_error_bounds, tuned_batch_params
from .experiment import EXIT_CONFIG_ERROR, SpecError, emit_report, run_experiment
from .game import GameError, expected_utility, load_game, solve_bimatrix_nash


def _cmd_run(args) -> int:
    return run_experiment(args.spec, output_dir=args.output_dir)


def _cmd_report(args) -> int:
    try:
        sys.stdout.write(emit_report(args.result_dir))
    except (SpecError, OSError) as exc:
        print(f"report error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    return 0


def _cmd_solve_nash(args) -> int:
    try:
        game = load_game(args.game)
        profile = solve_bimatrix_nash(game)
    except (GameError, OSError, json.JSONDecodeError) as exc:
        print(f"solve error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    payoffs = expected_utility(game, profile)
    doc = {
        "profile": [a.probs.tolist() for a in profile.actions],
        "payoffs": payoffs.tolist(),
    }
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _cmd_bounds(args) -> int:
    try:
        if args.kind == "batch":
            p_l, delta_l = batch_error_bounds(
                args.num_actions, args.num_players, args.batch_length,
                args.delta, args.beta,
            )
            doc = {"p_L": p_l, "q_L": p_l, "Delta_L": delta_l}
        elif args.kind == "schedule":
            schedule = tuned_batch_params(
                args.epsilon, args.num_actions, args.num_players
            )
            doc = {
                "delta": schedule.delta,
                "batch_length": schedule.batch_length,
                "beta_pow_l_window": list(schedule.beta_pow_l_window),
            }
        else:  # tau
            doc = {"expected_tau_bound": anytime_tau_bound(
                args.gamma, args.epsilon, args.w_min, C=args.constant)}
    except ValueError as exc:
        print(f"bounds error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repgame",
        description="Simulate discounted repeated games with statistical enforcement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment spec")
    p_run.add_argument("spec", help="path to the experiment spec JSON")
    p_run.add_argument("--output-dir", default=None, help="override the output directory")
    p_run.set_defaults(func=_cmd_run)

    p_report = sub.add_parser("report", help="render a finished experiment directory")
    p_report.add_argument("result_dir", help="directory written by `run`")
    p_report.set_defaults(func=_cmd_report)

    p_nash = sub.add_parser("solve-nash", help="solve a two-player stage game")
    p_nash.add_argument("game", help="path to a game JSON document")
    p_nash.set_defaults(func=_cmd_solve_nash)

    p_bounds = sub.add_parser("bounds", help="print closed-form bound calculators")
    bounds_sub = p_bounds.add_subparsers(dest="kind", required=True)

    b_batch = bounds_sub.add_parser("batch", help="per-batch error bounds")
    b_batch.add_argument("--num-actions", type=int, required=True)
    b_batch.add_argument("--num-players", type=int, required=True)
    b_batch.add_argument("--batch-length", type=int, required=True)
    b_batch.add_argument("--delta", type=float, required=True)
    b_batch.add_argument("--beta", type=float, required=True)
    b_batch.set_defaults(func=_cmd_bounds)

    b_schedule = bounds_sub.add_parser(
        "schedule", help="batch parameters tuned to a deviation magnitude"
    )
    b_schedule.add_argument("--epsilon", type=float, required=True)
    b_schedule.add_argument("--num-actions", type=int, required=True)
    b_schedule.add_argument("--num-players", type=int, required=True)
    b_schedule.set_defaults(func=_cmd_bounds)

    b_tau = bounds_sub.add_parser("tau", help="expected detection-time bound")
    b_tau.add_argument("--gamma", type=float, required=True)
    b_tau.add_argument("--epsilon", type=float, required=True)
    b_tau.add_argument("--w-min", type=float, required=True)
    b_tau.add_argument("--constant", type=float, default=1.0,
                       help="stand-in for the unpinned universal constant")
    b_tau.set_defaults(func=_cmd_bounds)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
