#!/usr/bin/env python3
"""Benchmark runner for metamap.

    python3 perfbench/run.py --workload sweep_a_fine --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --write-reference

Run from the repository root.  Every measurement runs in a fresh Python
child (child.py) with BLAS/OpenMP pinned to one thread, one child at a time
(closed loop).  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` is a separate run that wraps the layers'
public functions and reports the per-layer metrics.  The last line of
standard output is the JSON result; the lines before it print every metric
by name with its unit.  See perfbench/README.md for the metric definitions.
"""

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

from tracer import LAYERS, mean_over_passes

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(HERE, "_work")
REFERENCE = os.path.join(HERE, "reference", "builtin.json")

# One BLAS/OpenMP thread in every child: with OpenBLAS at its default thread
# count, np.dot on 15360-long vectors stalls ~8 ms per call in some fresh
# processes, and second_eigenpair then takes 0.54 s instead of 0.005 s.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NPROC = len(os.sched_getaffinity(0))

FINE_N = 15360
FINE_LADDER = (0.0064, 0.0032, 0.0016, 0.0008)
SMOKE_N = 1920
SMOKE_LADDER = tuple(8 * e for e in FINE_LADDER)
# Seed s > 0 scales the whole ladder by 1 + JITTER * u, u uniform in [0, 1)
# from random.Random(s); seed 0 keeps FINE_LADDER.  Scaling up keeps the grid
# rule n >= 12/eps.
JITTER = 0.05
FAMILIES = {"sweep_a_fine": "family_a", "sweep_b_fine": "family_b"}
CLI_SCENARIOS = ("family_a", "family_b", "markov2")
SETUP_REPS = 5
CHILD_TIMEOUT_S = 170
BLAS_PROBE_EPS = 0.0064

# Correctness bounds for cli_builtin against reference/builtin.json: a
# different solver at the same tolerance moves the reported values by ~1e-10,
# well inside these; a wrong result moves them far outside.
REF_REL = 1e-6
REF_ABS = 1e-9


class BenchError(RuntimeError):
    """The benchmark cannot run here (no metamap sources, bad child output)."""


def child_env(pin_blas: bool = True) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in BLAS_VARS:
        if pin_blas:
            env[var] = str(BLAS_THREADS)
        else:
            env.pop(var, None)
    return env


def run_child(args, pin_blas: bool = True) -> tuple[int, dict]:
    """Run child.py to completion; (exit code, parsed last stdout line)."""
    proc = subprocess.run([sys.executable, CHILD] + [str(a) for a in args],
                          cwd=ROOT, env=child_env(pin_blas), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    payload = {}
    if proc.returncode == 0 and lines:
        payload = json.loads(lines[-1])
    elif proc.returncode != 0:
        sys.stderr.write(f"child {args[0]} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}\n")
    return proc.returncode, payload


def ladder_for(seed: int, base) -> list[float]:
    jitter = 1.0 if seed == 0 else 1.0 + JITTER * random.Random(seed).random()
    return [e * jitter for e in base]


def fmt_ladder(ladder) -> str:
    return ",".join(repr(e) for e in ladder)


class Tally:
    """Operations attempted and failed in one run, with the first problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, attempted: int, failed: int, problems=()) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)


def measure_setups(tally: Tally, mode_args) -> float:
    """Median set-up time over SETUP_REPS fresh children, after one warm-up
    child that leaves the bytecode caches filled (users do not pay that on
    every run)."""
    run_child(mode_args)
    times = []
    for _ in range(SETUP_REPS):
        code, out = run_child(mode_args)
        tally.add(1, int(code != 0), [f"setup child exited {code}"] if code else [])
        if code == 0:
            times.append(out["setup_s"])
    if not times:
        raise BenchError("every set-up child failed")
    return statistics.median(times)


# ---------------------------------------------------------------- sweeps


def run_sweep(workload, seed, seconds, trace, smoke, tally):
    n = SMOKE_N if smoke else FINE_N
    ladder = ladder_for(seed, SMOKE_LADDER if smoke else FINE_LADDER)
    family = FAMILIES[workload]
    common = ["--family", family, "--n", n, "--ladder", fmt_ladder(ladder)]
    info = {"n": n, "ladder": ladder}
    if trace:
        code, out = run_child(["sweep", *common, "--seconds", seconds, "--trace", 1])
        if code != 0:
            raise BenchError(f"traced sweep child exited {code}")
        tally.add(out["attempted"], out["failed"], out["problems"])
        layers = out["layers"]
        layers["trace.wall_s"] = statistics.fmean(out["traced_passes"])
        layers["trace.untraced_wall_s"] = statistics.fmean(out["passes"])
        layers["host.cal_s"] = statistics.median(out["cal_s"])
        info["spans"] = out["spans"]
        return layers, info
    setup_s = measure_setups(tally, ["setup", *common])
    code, out = run_child(["sweep", *common, "--seconds", seconds, "--trace", 0])
    if code != 0:
        raise BenchError(f"sweep child exited {code}")
    tally.add(out["attempted"], out["failed"], out["problems"])
    info["passes"] = out["passes"]
    info["wall_s"] = statistics.median(out["passes"])
    return {"wall_norm": statistics.median(out["norms"]), "setup_s": setup_s}, info


# ---------------------------------------------------------------- CLI


def _close(a, b) -> bool:
    if a is None or b is None or isinstance(a, bool) or isinstance(b, bool):
        return a == b
    return abs(a - b) <= max(REF_ABS, REF_REL * abs(b))


def _csv_value(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def read_outputs(scenario: str, out_dir: str) -> dict:
    """Parsed values of one `metamap run`; raises OSError/ValueError when an
    expected artifact is missing or unreadable."""
    if scenario == "markov2":
        with open(os.path.join(out_dir, "markov.csv")) as fh:
            lines = fh.read().splitlines()
        return {"markov": [[float(x) for x in line.split(",")] for line in lines[1:]]}
    with open(os.path.join(out_dir, "sweep.json")) as fh:
        data = json.load(fh)
    with open(os.path.join(out_dir, "sweep.csv")) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    csv_rows = [dict(zip(header, map(_csv_value, line.split(",")))) for line in lines[1:]]
    rows = [{k: r[k] for k in header} for r in data["rows"]]
    names = ["sweep.csv", "sweep.json", "hypotheses.txt", "densities.svg",
             "l1_vs_eps.svg", "rho_vs_eps.svg"]
    for r in rows:
        names += [f"density_{r['eps']:g}.csv", f"saltus_{r['eps']:g}.csv"]
    missing = [f for f in names if not os.path.isfile(os.path.join(out_dir, f))]
    if missing:
        raise ValueError(f"missing artifacts {missing}")
    return {"alpha_pred": data["alpha_pred"], "rows": rows, "csv_rows": csv_rows,
            "hypotheses": {k: data["hypotheses"][k] for k in ("I2", "I3", "I4a", "P2")}}


def check_outputs(scenario: str, got: dict, ref: dict) -> list[str]:
    """Compare parsed values (not bytes) with the stored reference."""
    bad = []
    if scenario == "markov2":
        if len(got["markov"]) != len(ref["markov"]) or not all(
                _close(a, b) for g, r in zip(got["markov"], ref["markov"])
                for a, b in zip(g, r)):
            bad.append(f"markov.csv {got['markov']} != {ref['markov']}")
        return bad
    if not _close(got["alpha_pred"], ref["alpha_pred"]):
        bad.append(f"alpha_pred {got['alpha_pred']!r}")
    if got["hypotheses"] != ref["hypotheses"]:
        bad.append(f"hypotheses {got['hypotheses']}")
    if len(got["rows"]) != len(ref["rows"]) or len(got["csv_rows"]) != len(ref["rows"]):
        return bad + ["row count differs from the reference"]
    for source in ("rows", "csv_rows"):
        for row, ref_row in zip(got[source], ref["rows"]):
            for key, want in ref_row.items():
                if key == "flux_gap":
                    ok = row[key] is not None and row[key] <= 10 * REF_ABS
                else:
                    ok = _close(row[key], want)
                if not ok:
                    bad.append(f"{source} eps={ref_row['eps']} {key}={row[key]!r}, "
                               f"reference {want!r}")
    return bad


def cli_args(scenario, out_dir, smoke, trace):
    args = ["cli", "--scenario", f"builtin:{scenario}", "--out", out_dir,
            "--trace", int(trace)]
    if smoke and scenario != "markov2":
        args += ["--grid", SMOKE_N, "--eps", fmt_ladder(SMOKE_LADDER)]
    return args


def cli_process(scenario, smoke, trace, ref, tally) -> dict:
    """One `metamap run --scenario builtin:<scenario>` in a fresh child,
    checked; returns the child's payload."""
    out_dir = os.path.join(WORK, scenario)
    shutil.rmtree(out_dir, ignore_errors=True)
    code, out = run_child(cli_args(scenario, out_dir, smoke, trace))
    problems = []
    if code != 0 or out.get("exit_code") != 0:
        problems.append(f"{scenario}: exit {code}/{out.get('exit_code')}")
    else:
        try:
            got = read_outputs(scenario, out_dir)
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{scenario}: {exc}")
        else:
            if ref is not None:
                problems += [f"{scenario}: {p}" for p in check_outputs(scenario, got, ref[scenario])]
    shutil.rmtree(out_dir, ignore_errors=True)
    tally.add(1, int(bool(problems)), problems)
    if code != 0:
        raise BenchError(f"cli child for {scenario} exited {code}")
    return out


def run_cli(seconds, trace, smoke, tally):
    ref = None
    if not smoke:
        with open(REFERENCE) as fh:
            ref = json.load(fh)
    info = {}
    setup_s = None if trace else measure_setups(tally, ["setup-cli"])
    deadline = time.perf_counter() + seconds
    walls, norms, traced_walls, untraced_walls, pass_layers, imports, cal = (
        [], [], [], [], [], [], [])
    while True:
        t_pass = time.perf_counter()
        if trace:
            untraced = traced = 0.0
            summed: dict = {}
            for scn in CLI_SCENARIOS:
                out = cli_process(scn, smoke, False, ref, tally)
                untraced += out["wall_s"]
                cal += out["cal_s"]
                out = cli_process(scn, smoke, True, ref, tally)
                traced += out["wall_s"]
                cal += out["cal_s"]
                for k, v in out["layers"].items():
                    summed[k] = summed.get(k, 0) + v
                imports.append(out["layers"]["cli.import_s"])
                info.setdefault("spans", {})[scn] = out["spans"]
            untraced_walls.append(untraced)
            traced_walls.append(traced)
            pass_layers.append(summed)
        else:
            outs = [cli_process(scn, smoke, False, ref, tally) for scn in CLI_SCENARIOS]
            walls.append(sum(out["wall_s"] for out in outs))
            norms.append(walls[-1] / statistics.median(
                [c for out in outs for c in out["cal_s"]]))
        per_pass = time.perf_counter() - t_pass
        if time.perf_counter() + per_pass > deadline:
            break
    if not trace:
        info["passes"] = walls
        info["wall_s"] = statistics.median(walls)
        return {"wall_norm": statistics.median(norms), "setup_s": setup_s}, info
    layers = mean_over_passes(pass_layers)
    iters = layers["spectral.invariant_density_iters"]
    layers["spectral.invariant_density_step_us"] = (
        1e6 * layers["spectral.invariant_density_s"] / iters if iters else 0.0)
    layers["cli.import_s"] = statistics.median(imports)
    layers["trace.wall_s"] = statistics.fmean(traced_walls)
    layers["trace.untraced_wall_s"] = statistics.fmean(untraced_walls)
    layers["host.cal_s"] = statistics.median(cal)
    return layers, info


# ---------------------------------------------------------------- runner


def probes(smoke: bool, layers: dict) -> None:
    """Known-defect probes, informational only (they never count as failed
    operations; -1 means the probe process itself failed): one
    second_eigenpair call under default BLAS threading, and family A
    assembly at n=30720."""
    n = SMOKE_N if smoke else FINE_N
    eps = SMOKE_LADDER[0] if smoke else BLAS_PROBE_EPS
    _, out = run_child(["probe-blas", "--n", n, "--eps", eps], pin_blas=False)
    layers["spectral.second_eigenpair_s.blas_default"] = out.get("second_eigenpair_s", -1)
    _, out = run_child(["probe-ulam"])
    layers["transfer_operator.build_ulam_ok.n30720"] = out.get("ok", -1)


def run_workload(workload, seed, seconds, trace, smoke=False):
    """(metric values, tally, info) of one run."""
    if not os.path.isfile(os.path.join(SRC, "metamap", "__init__.py")):
        raise BenchError(f"no metamap sources under {SRC}; run from a checkout")
    os.makedirs(WORK, exist_ok=True)
    tally = Tally()
    if workload in FAMILIES:
        values, info = run_sweep(workload, seed, seconds, trace, smoke, tally)
    elif workload == "cli_builtin":
        values, info = run_cli(seconds, trace, smoke, tally)
    else:
        raise BenchError(f"unknown workload {workload!r}")
    if trace:
        probes(smoke, values)
        values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
        values["env.blas_threads"] = BLAS_THREADS
        values["env.nproc"] = NPROC
        with open(os.path.join(WORK, f"trace_{workload}.json"), "w") as fh:
            json.dump({"workload": workload, "seed": seed, "layers": values,
                       "spans": info.pop("spans", None)}, fh)
    else:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        values["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return values, tally, info


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def result_line(spec, values, tally, trace) -> dict:
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if trace else "end_to_end"]}
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def print_report(workload, seed, values, tally, info, result) -> None:
    print(f"workload {workload} seed {seed} blas_threads {BLAS_THREADS} nproc {NPROC}")
    for key in ("n", "ladder", "passes"):
        if key in info:
            print(f"  {key} {info[key]}")
    if "wall_s" in info:
        print(f"  wall_s {info['wall_s']!r} s (raw median pass time, not normalized)")
    for name, m in result["metrics"].items():
        print(f"  {name} {m['value']!r} {m['unit']}")
    print(f"  fail_frac {tally.failed / tally.attempted!r} ratio "
          f"({tally.failed}/{tally.attempted})")
    for p in tally.problems[:20]:
        print(f"  FAILED {p}")


def smoke() -> int:
    """Each workload at a tiny n: every named metric is emitted with its unit,
    every check passes, and the layer self times fit inside wall_s."""
    spec = load_spec()
    problems = []
    for wl in spec["workloads"]:
        for trace in (0, 1):
            values, tally, info = run_workload(wl["name"], 1, 1, trace, smoke=True)
            res = result_line(spec, values, tally, trace)
            print_report(wl["name"], 1, values, tally, info, res)
            if not res["correct"]:
                problems.append(f"{wl['name']} trace={trace}: checks failed")
            bad = [k for k, m in res["metrics"].items()
                   if not isinstance(m["value"], (int, float)) or math.isnan(m["value"])]
            if bad:
                problems.append(f"{wl['name']} trace={trace}: not numbers {bad}")
            if trace:
                failed_probes = [k for k in ("spectral.second_eigenpair_s.blas_default",
                                             "transfer_operator.build_ulam_ok.n30720")
                                 if values[k] < 0]
                if failed_probes:
                    problems.append(f"{wl['name']}: probe processes failed {failed_probes}")
                self_sum = sum(values[f"layer.{layer}.self_s"] for layer in LAYERS)
                if self_sum > values["trace.wall_s"] * (1 + 1e-9):
                    problems.append(f"{wl['name']}: layer self times {self_sum} "
                                    f"exceed wall_s {values['trace.wall_s']}")
    for p in problems:
        print(f"SMOKE FAILED {p}")
    return 1 if problems else 0


def write_reference() -> int:
    """Store the parsed values of the builtin scenarios at their defaults."""
    ref = {}
    for scn in CLI_SCENARIOS:
        out_dir = os.path.join(WORK, scn)
        shutil.rmtree(out_dir, ignore_errors=True)
        code, out = run_child(cli_args(scn, out_dir, False, False))
        if code != 0 or out.get("exit_code") != 0:
            raise BenchError(f"{scn} failed")
        got = read_outputs(scn, out_dir)
        got.pop("csv_rows", None)
        ref[scn] = got
        shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(os.path.dirname(REFERENCE), exist_ok=True)
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny-n self-test of every workload")
    p.add_argument("--write-reference", action="store_true",
                   help="regenerate reference/builtin.json from the current code")
    args = p.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.write_reference:
            return write_reference()
        if not args.workload:
            p.error("--workload is required")
        spec = load_spec()
        values, tally, info = run_workload(args.workload, args.seed, args.seconds, args.trace)
        res = result_line(spec, values, tally, args.trace)
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print_report(args.workload, args.seed, values, tally, info, res)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
