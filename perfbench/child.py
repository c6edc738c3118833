"""One measured process of the metamap benchmark.

run.py starts this script in a fresh interpreter for every measurement, so
each one pays (and times) its own ``import metamap``.  The last line of
standard output is a JSON object that run.py parses.

    child.py setup  --family family_a --n 15360 --ladder 0.0064,0.0032
    child.py setup-cli
    child.py sweep  --family family_a --n 15360 --ladder ... --seconds 30 --trace 0
    child.py cli    --scenario builtin:family_a --out DIR [--grid N --eps E,..] --trace 0
    child.py probe-blas --n 15360 --eps 0.0064
    child.py probe-ulam
"""

import argparse
import dataclasses
import json
import os
import statistics
import sys
import time

# numpy and metamap are imported inside the commands, after the clock starts,
# so that each child times its own import.

SOLVER_TOL = 1e-10
# Checks that hold for any correct fixed point at the library tolerance, so a
# different solver passes them too: residuals at 10x the solver tolerance.
RESIDUAL_LIMIT = 10 * SOLVER_TOL
FLUX_GAP_LIMIT = 10 * SOLVER_TOL
PSI_MASS_LIMIT = 1e-12
RUNGS = 4  # every eps ladder of the benchmark has four rows


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def check_row(row, art, prev_l1, monotone_l1: bool) -> list[str]:
    """Correctness of one sweep row from its artifacts; [] when it passes."""
    import numpy as np

    if row.error is not None or art is None:
        return [f"eps={row.eps}: row error {row.error}"]
    bad = []
    P, phi = art.P, art.phi.values
    res_phi = float(np.mean(np.abs(P.apply(phi) - phi)))
    if not res_phi <= RESIDUAL_LIMIT:
        bad.append(f"fixed-point residual {res_phi:.3g}")
    if art.psi is None or row.rho is None:
        bad.append("no second eigenpair")
    else:
        psi = art.psi.values
        mass = abs(float(np.mean(psi)))
        res_psi = float(np.mean(np.abs(P.apply(psi) - row.rho * psi)))
        if not mass <= PSI_MASS_LIMIT:
            bad.append(f"psi mass {mass:.3g}")
        if not res_psi <= RESIDUAL_LIMIT:
            bad.append(f"psi eigen-residual {res_psi:.3g}")
        if not row.rho < 1.0:
            bad.append(f"rho {row.rho!r} >= 1")
    if not (row.flux_gap is not None and row.flux_gap <= FLUX_GAP_LIMIT):
        bad.append(f"flux gap {row.flux_gap}")
    if monotone_l1 and prev_l1 is not None and not row.l1_phi_vs_mixture < prev_l1:
        bad.append(f"l1_phi_vs_mixture {row.l1_phi_vs_mixture!r} not below {prev_l1!r}")
    return [f"eps={row.eps}: {b}" for b in bad]


def row_spans(spans):
    """Per-row kernel counters from the spans of one pass, in call order."""
    rows = []
    for i, sp in enumerate(spans):
        if sp.name != "metastability.run_sweep_row":
            continue
        info = {"s": sp.end - sp.start, "nnz": 0, "iters": 0, "bytes": 0,
                "inv_s": 0.0}
        for ch in spans:
            if ch.parent != i:
                continue
            if ch.name == "transfer_operator.build_ulam":
                info["nnz"] = ch.info["nnz"]
                info["bytes"] = ch.info["bytes"]
            elif ch.name == "spectral.invariant_density":
                info["iters"] = ch.info["iterations"]
                info["inv_s"] = ch.end - ch.start
        rows.append(info)
    return rows


def layer_metrics(spans) -> dict:
    """Named per-layer metrics of one traced pass."""
    from tracer import LAYERS, summarize

    rows = row_spans(spans)
    summ = summarize(spans)
    names = summ["names"]

    def tot(*keys):
        return sum(names.get(k, {"s": 0.0})["s"] for k in keys)

    def calls(key):
        return names.get(key, {"calls": 0})["calls"]

    out = {}
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = summ["layers"][layer]["self_s"]
        out[f"layer.{layer}.incl_s"] = summ["layers"][layer]["incl_s"]
        out[f"layer.{layer}.calls"] = summ["layers"][layer]["calls"]
    out["runner.run_scenario_self_s"] = names.get(
        "runner.run_scenario", {"self_s": 0.0})["self_s"]
    out["scenarios.load_scenario_s"] = tot("scenarios.load_scenario")
    out["metastability.prepare_sweep_s"] = tot("metastability.prepare_sweep")
    out["transfer_operator.build_ulam_s"] = tot("transfer_operator.build_ulam")
    out["metastability.holes_s"] = tot("metastability.compute_holes",
                                       "metastability.hole_measures")
    out["spectral.invariant_density_s"] = tot("spectral.invariant_density")
    out["spectral.second_eigenpair_s"] = tot("spectral.second_eigenpair")
    out["spectral.second_eigenpair_calls"] = calls("spectral.second_eigenpair")
    out["spectral.escape_rate_s"] = tot("spectral.escape_rate")
    out["spectral.escape_rate_calls"] = calls("spectral.escape_rate")
    out["map_model.validate_hypotheses_s"] = tot("map_model.validate_hypotheses")
    out["bv_analysis.saltus_s"] = tot("bv_analysis.postcritical_hierarchy",
                                      "bv_analysis.saltus_decompose",
                                      "bv_analysis.jump_decay_profile")
    out["runner.write_s"] = tot("runner.write_density_csv", "runner.write_sweep_csv",
                                "runner._write_sweep_json",
                                "bv_analysis.SaltusDecomposition.write_csv")
    out["svgplot.write_line_plot_s"] = tot("svgplot.write_line_plot")
    out["runner.bytes_written"] = 0

    iters = sum(r["iters"] for r in rows)
    out["spectral.invariant_density_iters"] = iters
    out["spectral.invariant_density_iters_finest"] = rows[-1]["iters"] if rows else 0
    inv_s = sum(r["inv_s"] for r in rows)
    out["spectral.invariant_density_step_us"] = 1e6 * inv_s / iters if iters else 0.0
    out["spectral.matvec_flops_computed"] = sum(2 * r["nnz"] * r["iters"] for r in rows)
    out["spectral.matvec_bytes_computed"] = sum(r["bytes"] * r["iters"] for r in rows)
    out["metastability.run_sweep_row_s.finest"] = rows[-1]["s"] if rows else 0.0
    for k in range(RUNGS):
        r = rows[k] if k < len(rows) else {"nnz": 0, "iters": 0, "bytes": 0}
        out[f"transfer_operator.nnz.r{k}"] = r["nnz"]
        out[f"spectral.invariant_density_iters.r{k}"] = r["iters"]
        out[f"spectral.matvec_flops_per_step.r{k}"] = 2 * r["nnz"]
        out[f"spectral.matvec_bytes_per_step.r{k}"] = r["bytes"]
    return out


def prepare(args):
    """The sweep set-up a user pays: family construction and prepare_sweep."""
    from metamap import metastability, scenarios

    fam = scenarios.load_scenario(f"builtin:{args.family}").family
    return metastability.prepare_sweep(fam, args.ladder, args.n, tol=SOLVER_TOL)


def cmd_setup(args) -> None:
    t0 = time.perf_counter()
    prepare(args)
    emit({"setup_s": time.perf_counter() - t0})


def cmd_setup_cli(args) -> None:
    t0 = time.perf_counter()
    import metamap.cli  # noqa: F401
    emit({"setup_s": time.perf_counter() - t0})


def cmd_sweep(args) -> None:
    t0 = time.perf_counter()
    from metamap import metastability, scenarios  # noqa: F401
    t_import = time.perf_counter()

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    ctx = prepare(args)
    setup_spans = list(tracer.spans) if tracer else []
    if tracer:
        tracer.uninstall()

    from calib import Calibrator
    calib = Calibrator()
    monotone = args.family == "family_a"
    deadline = time.perf_counter() + args.seconds
    passes = {"untraced": [], "traced": []}
    norms, elapsed = [], []
    pass_metrics = []
    last_spans = []
    attempted = failed = 0
    problems: list[str] = []
    while True:
        traced = bool(args.trace) and len(passes["traced"]) < len(passes["untraced"])
        if traced:
            tracer.spans = []
            tracer.install()
        results = []
        t_pass = time.perf_counter()
        wall = 0.0
        cal = [calib.sample()]
        for eps in args.ladder:
            t_row = time.perf_counter()
            results.append(metastability.run_sweep_row(ctx, eps))
            wall += time.perf_counter() - t_row
            cal.append(calib.sample())
        elapsed.append(time.perf_counter() - t_pass)
        if not traced:
            norms.append(wall / statistics.median(cal))
        if traced:
            tracer.uninstall()
            pass_metrics.append(layer_metrics(tracer.spans))
            last_spans = tracer.spans
        passes["traced" if traced else "untraced"].append(wall)

        prev_l1 = None
        for row, art in results:
            bad = check_row(row, art, prev_l1, monotone)
            attempted += 1
            if bad:
                failed += 1
                problems.extend(bad)
            prev_l1 = row.l1_phi_vs_mixture
        enough = len(elapsed) >= (2 if args.trace else 1)
        if enough and time.perf_counter() + statistics.median(elapsed) > deadline:
            break

    payload = {"passes": passes["untraced"], "traced_passes": passes["traced"],
               "norms": norms, "cal_s": calib.samples,
               "attempted": attempted, "failed": failed, "problems": problems[:20]}
    if args.trace:
        from tracer import mean_over_passes, summarize
        setup_names = summarize(setup_spans)["names"]
        layers = mean_over_passes(pass_metrics)
        layers["cli.import_s"] = t_import - t0
        layers["scenarios.load_scenario_s"] = setup_names.get(
            "scenarios.load_scenario", {"s": 0.0})["s"]
        layers["metastability.prepare_sweep_s"] = setup_names.get(
            "metastability.prepare_sweep", {"s": 0.0})["s"]
        payload["layers"] = layers
        payload["spans"] = [dataclasses.asdict(sp) for sp in last_spans]
    emit(payload)


def cmd_probe_ulam(args) -> None:
    """ok=1 when family A assembles at n=30720 (the row-sum defect makes it 0)."""
    from metamap.families import family_a
    from metamap.map_model import MapModelError
    from metamap.transfer_operator import build_ulam

    try:
        build_ulam(family_a().instantiate(0.002), 30720)
    except MapModelError:
        emit({"ok": 0})
    else:
        emit({"ok": 1})


def cmd_cli(args) -> None:
    t0 = time.perf_counter()
    import metamap.cli
    t_import = time.perf_counter()
    from calib import Calibrator
    calib = Calibrator()
    calib.sample()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    argv = ["run", "--scenario", args.scenario, "--out", args.out]
    if args.grid:
        argv += ["--grid", str(args.grid)]
    if args.eps:
        argv += ["--eps", args.eps]
    t_main = time.perf_counter()
    code = metamap.cli.main(argv)
    wall = time.perf_counter() - t_main
    calib.sample()
    payload = {"wall_s": wall, "exit_code": code, "cal_s": calib.samples}
    if tracer:
        tracer.uninstall()
        layers = layer_metrics(tracer.spans)
        layers["cli.import_s"] = t_import - t0
        layers["runner.bytes_written"] = sum(
            os.path.getsize(os.path.join(args.out, f)) for f in os.listdir(args.out))
        payload["layers"] = layers
        payload["spans"] = [dataclasses.asdict(sp) for sp in tracer.spans]
    emit(payload)


def cmd_probe_blas(args) -> None:
    """One second_eigenpair call, timed, under whatever BLAS threading the
    environment gives (run.py leaves it at the library default here)."""
    from metamap.families import family_a
    from metamap.map_model import Interval
    from metamap.spectral import invariant_density, second_eigenpair
    from metamap.transfer_operator import build_ulam

    P = build_ulam(family_a().instantiate(float(args.eps)), args.n)
    phi = invariant_density(P, tol=SOLVER_TOL).phi
    t = time.perf_counter()
    second_eigenpair(P, phi, Interval(0.0, 0.5), tol=SOLVER_TOL)
    emit({"second_eigenpair_s": time.perf_counter() - t})


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "setup-cli", "sweep", "cli", "probe-blas",
                                     "probe-ulam"))
    p.add_argument("--family")
    p.add_argument("--n", type=int)
    p.add_argument("--ladder", type=lambda s: [float(x) for x in s.split(",")])
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--scenario")
    p.add_argument("--out")
    p.add_argument("--grid", type=int)
    p.add_argument("--eps")
    args = p.parse_args()
    {"setup": cmd_setup, "setup-cli": cmd_setup_cli, "sweep": cmd_sweep,
     "cli": cmd_cli, "probe-blas": cmd_probe_blas,
     "probe-ulam": cmd_probe_ulam}[args.mode](args)


if __name__ == "__main__":
    main()
