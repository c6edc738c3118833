"""Command line interface.

    metamap run --scenario <path|builtin:name> [--eps 0.02,0.01] [--grid n]
                [--out dir]
    metamap validate --scenario <path|builtin:name>
    metamap markov --eps-lr x --eps-rl y

Exit codes: 0 success, 1 fatal error, 2 completed with failed sweep rows.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from .map_model import validate_hypotheses
from .metastability import markov_stationary
from .runner import run_scenario
from .scenarios import ScenarioError, load_scenario, normalize_eps


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
    """The scenario with the run command's --eps, --grid and --out applied."""
    changes = {}
    if args.eps is not None:
        tokens = args.eps.split(",")
        if not all(tok.strip() for tok in tokens):
            raise ScenarioError([f"--eps: empty value in {args.eps!r}"])
        try:
            eps = [float(tok) for tok in tokens]
        except ValueError:
            raise ScenarioError([f"--eps: cannot parse {args.eps!r}"])
        if any(e <= 0 for e in eps):
            raise ScenarioError([f"--eps: values must be positive, got {args.eps!r}"])
        changes["eps_list"] = tuple(normalize_eps(eps, field="--eps"))
    if args.grid is not None:
        if args.grid < 2:
            raise ScenarioError([f"--grid: expected an integer >= 2, got {args.grid}"])
        changes["grid_n"] = args.grid
    if args.out is not None:
        if not args.out:
            raise ScenarioError(["--out: expected a directory, got ''"])
        changes["out_dir"] = args.out
    return dataclasses.replace(scn, **changes)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
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
    except ScenarioError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"fatal: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
