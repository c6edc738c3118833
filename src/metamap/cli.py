"""Command line interface.

    metamap run --scenario <path|builtin:name> [--eps 0.02,0.01] [--grid n]
                [--out dir]
    metamap validate --scenario <path|builtin:name>
    metamap markov --eps-lr x --eps-rl y

Exit codes: 0 success or --help, 1 fatal or usage error, 2 completed with
failed sweep rows.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from .map_model import validate_hypotheses
from .metastability import markov_stationary
from .runner import run_scenario
from .scenarios import ScenarioError, check_grid, check_out_dir, load_scenario, normalize_eps


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="metamap",
                                description="Metastable interval-map experiments")
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario sweep and write reports")
    run_p.add_argument("--scenario", required=True,
                       help="JSON scenario path or builtin:<name>")
    run_p.add_argument("--eps", help="comma-separated eps values (override)")
    run_p.add_argument("--grid", type=int, help="grid size n (override)")
    run_p.add_argument("--out", help="output directory (override)")

    val_p = sub.add_parser("validate", help="hypothesis report only")
    val_p.add_argument("--scenario", required=True)

    mk_p = sub.add_parser("markov", help="two-state chain closed form")
    mk_p.add_argument("--eps-lr", type=float, required=True)
    mk_p.add_argument("--eps-rl", type=float, required=True)
    return p


def _apply_overrides(scn, args):
    """The scenario with --eps, --grid and --out checked and applied."""
    changes = {}
    if args.eps is not None:
        tokens = args.eps.split(",")
        if not all(tok.strip() for tok in tokens):
            raise ScenarioError([f"--eps: empty value in {args.eps!r}"])
        try:
            eps = [float(tok) for tok in tokens]
        except ValueError:
            raise ScenarioError([f"--eps: cannot parse {args.eps!r}"])
        changes["eps_list"] = normalize_eps(eps, "--eps", args.eps)
    if args.grid is not None:
        changes["grid_n"] = check_grid(args.grid, "--grid")
    if args.out is not None:
        changes["out_dir"] = check_out_dir(args.out, "--out")
    return dataclasses.replace(scn, **changes)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "markov":
            for flag, e in (("--eps-lr", args.eps_lr), ("--eps-rl", args.eps_rl)):
                if not math.isfinite(e):
                    raise ScenarioError([f"{flag}: expected a finite number, got {e!r}"])
            alpha, rho = markov_stationary(args.eps_lr, args.eps_rl)
            print(f"alpha = {alpha!r}")
            print(f"rho = {rho!r}")
            return 0
        scn = load_scenario(args.scenario)
        if args.command == "validate":
            if scn.kind == "markov":
                print("markov scenarios have no map hypotheses to validate")
                return 0
            print("\n".join(validate_hypotheses(scn.family, scn.eps_list).lines()))
            return 0
        return run_scenario(_apply_overrides(scn, args))
    except SystemExit as exc:                  # argparse exits 2 on a usage error
        return 1 if exc.code else 0
    except ScenarioError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"fatal: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
