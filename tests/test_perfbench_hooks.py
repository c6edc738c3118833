from pathlib import Path

import metamap.metastability
import metamap.spectral

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
