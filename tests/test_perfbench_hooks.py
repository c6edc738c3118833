import json
from pathlib import Path

import metamap.metastability
import metamap.spectral
from metamap.cli import main

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
