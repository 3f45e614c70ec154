"""Command-line experiment runner.

Verbs:
    pathfv list-experiments
    pathfv validate <config-or-name>
    pathfv run   <config-or-name> [--out DIR] [--seed N] [--threads N]
    pathfv sweep <config-or-name> [--out DIR] [--seed N] [--threads N]

Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""

import argparse
import json
import sys

from .errors import ConfigError, PathFVError
from .experiments import (
    builtin_names,
    load_config,
    run,
    sweep_hugoniot,
    validate_config,
)


def _add_common(sub):
    sub.add_argument("config", help="builtin experiment name or path to a JSON config")
    sub.add_argument("--out", default="out", help="output directory (default: ./out)")
    sub.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub.add_argument("--threads", type=int, default=1,
                     help="threads for the independent meshes or jobs: the same "
                          "output, and no faster than 1 (see the README)")


def make_parser():
    parser = argparse.ArgumentParser(
        prog="pathfv",
        description="Finite-volume experiments for nonconservative hyperbolic systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list-experiments", help="list built-in experiment configs")
    v = sub.add_parser("validate", help="validate a config and exit")
    v.add_argument("config")
    r = sub.add_parser("run", help="run a time-evolution experiment")
    _add_common(r)
    s = sub.add_parser("sweep", help="run a shock-curve sweep")
    _add_common(s)
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        if args.command == "list-experiments":
            for name in builtin_names():
                cfg = load_config(name)
                print(f"{name:32s} {cfg.get('description', '')}")
            return 0
        if args.command == "validate":
            validate_config(load_config(args.config))
            print("ok")
            return 0
        # each verb loads and validates the config itself
        verb = run if args.command == "run" else sweep_hugoniot
        print(verb(args.config, args.out, seed=args.seed, threads=args.threads))
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (PathFVError, json.JSONDecodeError, OSError) as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
