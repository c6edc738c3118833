import time

import pytest

from metamap import Branch, PiecewiseMap, build_ulam
from metamap.families import family_a, family_b
from metamap.metastability import prepare_sweep, run_sweep_row

ACCEPTANCE_EPS = (0.02, 0.01, 0.005, 0.0025)
ACCEPTANCE_N = 3840


@pytest.fixture()
def fam_a():
    return family_a()


@pytest.fixture()
def fam_b():
    return family_b()


@pytest.fixture()
def doubling_map():
    """2x mod 1; minimum expansion exactly 2 (outside the lam > 2 regime)."""
    return PiecewiseMap([Branch.affine(0.0, 0.5, 2.0, 0.0),
                         Branch.affine(0.5, 1.0, 2.0, -1.0)])


@pytest.fixture(scope="session")
def sweep_a():
    """Family A acceptance sweep: context, rows, per-eps artifacts, wall time."""
    fam = family_a()
    t0 = time.perf_counter()
    ctx = prepare_sweep(fam, ACCEPTANCE_EPS, ACCEPTANCE_N)
    results = [run_sweep_row(ctx, eps) for eps in ACCEPTANCE_EPS]
    elapsed = time.perf_counter() - t0
    rows = [r for r, _ in results]
    arts = {a.eps: a for _, a in results if a is not None}
    assert all(r.error is None for r in rows), [r.error for r in rows]
    return {"ctx": ctx, "rows": rows, "arts": arts, "elapsed": elapsed,
            "eps_list": ACCEPTANCE_EPS, "n": ACCEPTANCE_N}


@pytest.fixture(scope="session")
def ulam_a_768():
    """Family A eps=0.01 on the dense-oracle grid."""
    fam = family_a()
    return build_ulam(fam.instantiate(0.01), 768)
