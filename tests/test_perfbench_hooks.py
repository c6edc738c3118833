import json
from pathlib import Path

import metamap.metastability
import metamap.spectral
from metamap.cli import main
from metamap.metastability import prepare_sweep, run_sweep_row
from metamap.scenarios import load_scenario

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_perfbench_tracer_finds_every_name_it_patches(monkeypatch):
    # perfbench --trace 1 wraps each layer's functions where their callers
    # look them up; install() raises AttributeError when one was renamed
    # or is no longer imported there
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    t = tracer.Tracer()
    try:
        t.install()
        assert metamap.metastability.invariant_density is not metamap.spectral.invariant_density
    finally:
        t.uninstall()
    assert metamap.metastability.invariant_density is metamap.spectral.invariant_density


def test_builtin_runs_pass_the_benchmark_correctness_gate(monkeypatch, tmp_path):
    # the benchmark rejects a run whose reported values leave its stored
    # reference; the same check here makes such a change fail the suite
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run

    with open(run.REFERENCE) as fh:
        reference = json.load(fh)
    for scenario in run.CLI_SCENARIOS:
        out = tmp_path / scenario
        assert main(["run", "--scenario", f"builtin:{scenario}", "--out", str(out)]) == 0
        got = run.read_outputs(scenario, str(out))
        assert run.check_outputs(scenario, got, reference[scenario]) == [], scenario


def test_fine_ladder_rows_pass_the_benchmark_row_check(monkeypatch):
    # the sweep workloads check every row with child.check_row at n = 15360
    # (fixed-point and psi residuals, psi mass, flux gap, monotone L1 for
    # family A); the same check here covers one pass of each family
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import child
    import run

    for family in run.FAMILIES.values():
        ctx = prepare_sweep(load_scenario(f"builtin:{family}").family, run.FINE_LADDER,
                            run.FINE_N, tol=child.SOLVER_TOL)
        prev_l1 = None
        for eps in run.FINE_LADDER:
            row, art = run_sweep_row(ctx, eps)
            assert child.check_row(row, art, prev_l1, family == "family_a") == [], (family, eps)
            prev_l1 = row.l1_phi_vs_mixture
