import numpy as np
import pytest

from metamap.bv_analysis import jump_decay_profile, saltus_decompose
from metamap.map_model import MapModelError, evaluate, postcritical_hierarchy
from metamap.spectral import invariant_density
from metamap.transfer_operator import (DensityGrid, build_ulam,
                                       lasota_yorke_constants)

ALIGNED_N = 3900    # multiple of lcm(6, 100): cell boundaries hit the
                    # postcritical points of family A at eps = 0.01


def step_grid(n, level_left, level_right):
    vals = np.full(n, level_right, dtype=float)
    vals[: n // 2] = level_left
    return DensityGrid(n, vals)


def test_total_variation_constant_zero():
    assert DensityGrid(64, np.ones(64)).total_variation() == 0.0


def test_total_variation_single_step():
    assert step_grid(64, 2.0, 0.0).total_variation() == pytest.approx(2.0)


def test_sup_bounded_by_l1_plus_tv():
    rng = np.random.default_rng(17)
    for _ in range(200):
        d = DensityGrid(50, rng.standard_normal(50) * rng.uniform(0.1, 10))
        assert np.max(np.abs(d.values)) <= d.l1_norm() + d.total_variation() + 1e-12


def first_depths(hier, digits):
    """Each rounded point of a layered hierarchy with the first layer holding it."""
    out = {}
    for k, pts in hier.items():
        for p in pts:
            out.setdefault(round(p, digits), k)
    return out


def test_hierarchy_family_a_base(fam_a):
    hier = postcritical_hierarchy(fam_a.base, 5)
    assert first_depths(hier, 12) == {0.0: 1, 0.5: 1, 1.0: 1}


def test_hierarchy_family_a_perturbed_membership(fam_a):
    eps = 0.01
    T = fam_a.instantiate(eps)
    hier = postcritical_hierarchy(T, 3)
    pos = first_depths(hier, 9)
    assert pos[round(3 * eps, 9)] == 1            # branch-2 bottom value
    assert pos[round(0.5 + 3 * eps, 9)] == 1      # branch-2 top value
    assert pos[round(0.5 - eps, 9)] == 1          # branch-5 bottom value
    # depth-2 point recomputed through the map rather than asserted
    img = evaluate(T, 0.5 + 3 * eps)[0]
    assert pos[round(img, 9)] == 2


def test_hierarchy_depth_below_one_rejected(fam_a):
    with pytest.raises(MapModelError):
        postcritical_hierarchy(fam_a.base, 0)


def test_hierarchy_forward_recomputation(fam_a, fam_b):
    for fam in (fam_a, fam_b):
        T = fam.instantiate(0.01)
        hier = postcritical_hierarchy(T, 6)
        assert list(hier) == [1, 2, 3, 4, 5, 6]
        prev = T.critical_set
        for pts in hier.values():
            images = [v for x in prev for v in evaluate(T, x)]
            assert all(min(abs(v - p) for v in images) <= 1e-9 for p in pts)
            prev = pts


def test_pure_step_decomposition(fam_a):
    n = 64
    d = step_grid(n, 2.0, 0.0)
    hier = postcritical_hierarchy(fam_a.base, 3)   # contains 1/2 at depth 1
    dec = saltus_decompose(d, hier, lip_bound=1.0)
    assert len(dec.jumps) == 1
    j = dec.jumps[0]
    assert j.location == pytest.approx(0.5)
    assert j.size == pytest.approx(-2.0)
    assert j.depth == 1
    # regular part is constant and the split reproduces the input exactly
    assert dec.regular.total_variation() == 0.0
    assert dec.lipschitz_estimate == 0.0
    assert np.allclose(dec.regular.values + dec.saltus.values, d.values)
    # the step kernel vanishes at the right endpoint
    assert dec.saltus.values[-1] == 0.0


def test_linear_ramp_has_no_jumps(fam_a):
    n = 128
    d = DensityGrid(n, np.arange(n) / n)
    hier = postcritical_hierarchy(fam_a.base, 3)
    dec = saltus_decompose(d, hier, lip_bound=1.0)
    assert dec.jumps == ()
    assert dec.lipschitz_estimate == pytest.approx(1.0)


def _reference_jumps(values, hierarchy, threshold):
    # a plain loop: runs of adjacent boundaries with |diff| > threshold, each
    # summed left to right and located at its first largest |diff|
    diffs = np.diff(values)
    runs, run = [], []
    for i, dv in enumerate(diffs):
        if abs(dv) > threshold:
            run.append(i)
        elif run:
            runs.append(run)
            run = []
    if run:
        runs.append(run)
    n = len(values)
    out = []
    for run in runs:
        anchor, size = run[0], 0.0
        for i in run:
            size += float(diffs[i])
            if abs(diffs[i]) > abs(diffs[anchor]):
                anchor = i
        u = (anchor + 1) / n
        depth = None
        for k in hierarchy:
            if any(abs(p - u) <= 0.5 / n for p in hierarchy[k]):
                depth = k
                break
        out.append((u, size, depth))
    return out


# n = 16 and lip_bound = 1: a boundary carries a jump above 5/16
@pytest.mark.parametrize("values, expected", [
    # a step split across cell 5: boundaries 5/16 and 6/16, the larger second
    ([0.0] * 5 + [0.7] + [2.0] * 10, [(6 / 16, 2.0, 1)]),
    # a run of three rising steps, the largest last
    ([0.0] * 3 + [1.0, 2.0, 3.5] + [3.5] * 10, [(5 / 16, 3.5, 2)]),
    # a tie of |diff| inside a run, opposite signs: the first one names it
    ([0.0] * 7 + [1.0] + [0.0] * 8, [(7 / 16, 0.0, None)]),
    # two runs apart by one sub-threshold boundary (diff 0.25), the first
    # with a tie
    ([0.0] * 2 + [1.0, 2.0, 2.25, 3.25, 4.25] + [4.25] * 9,
     [(2 / 16, 2.0, None), (5 / 16, 2.0, 2)]),
])
def test_saltus_runs_match_a_plain_loop(tmp_path, values, expected):
    n = 16
    # 6/16 is in layers 1 and 2, 5.1/16 lies within half a cell of 5/16, and
    # 2.6/16 lies just beyond half a cell of 2/16
    hierarchy = {1: [0.9, 6 / 16], 2: [5.1 / 16, 6 / 16], 3: [2.6 / 16]}
    dec = saltus_decompose(DensityGrid(n, np.array(values)), hierarchy, lip_bound=1.0)
    got = [(j.location, j.size, j.depth) for j in dec.jumps]
    assert got == _reference_jumps(np.array(values), hierarchy, 5.0 / n)
    assert [(u, k) for u, _, k in got] == [(u, k) for u, _, k in expected]
    assert [s for _, s, _ in got] == pytest.approx([s for _, s, _ in expected], abs=1e-15)
    for j in dec.jumps:
        assert type(j.location) is float and type(j.size) is float
    path = tmp_path / "saltus.csv"
    dec.write_csv(path)
    assert path.read_text() == "location,size,depth\n" + "".join(
        f"{u!r},{s!r},{'' if k is None else k}\n" for u, s, k in got)


def test_lip_bound_must_be_positive(fam_a):
    hier = postcritical_hierarchy(fam_a.base, 3)
    with pytest.raises(ValueError):
        saltus_decompose(DensityGrid(8, np.ones(8)), hier, lip_bound=0.0)


@pytest.fixture(scope="module")
def aligned_decomposition():
    from metamap.families import family_a
    fam = family_a()
    eps = 0.01
    T = fam.instantiate(eps)
    P = build_ulam(T, ALIGNED_N)
    phi = invariant_density(P, tol=1e-10).phi
    ly = lasota_yorke_constants(T, base=fam.base)
    hier = postcritical_hierarchy(T, 6)
    dec = saltus_decompose(phi, hier, lip_bound=ly.C_LY)
    return fam, T, phi, ly, hier, dec


def test_family_a_jumps_sit_on_postcritical_points(aligned_decomposition):
    _, _, phi, ly, hier, dec = aligned_decomposition
    assert len(dec.jumps) >= 5
    assert not dec.unmatched()
    half_cell = 0.5 / ALIGNED_N
    for j in dec.jumps:
        assert np.min(np.abs(np.array(hier[j.depth]) - j.location)) <= half_cell
        assert all(np.min(np.abs(np.array(hier[k]) - j.location)) > half_cell
                   for k in range(1, j.depth))


def test_family_a_step_levels_are_exact(aligned_decomposition):
    # at eps = 0.01 on the aligned grid the fixed density is exactly a step
    # function; its plateau levels are forced by the transfer equation
    _, _, phi, _, _, dec = aligned_decomposition
    v = phi.values
    levels = {
        (0.00, 0.49): 0.5,
        (0.49, 0.50): 1.0,
        (0.50, 0.53): 5.0 / 3.0,
        (0.53, 0.97): 1.5,
        (0.97, 0.99): 4.0 / 3.0,
        (0.99, 1.00): 5.0 / 6.0,
    }
    for (lo, hi), level in levels.items():
        sl = v[int(lo * ALIGNED_N) + 1: int(hi * ALIGNED_N) - 1]
        assert np.max(np.abs(sl - level)) <= 1e-8, (lo, hi, level)
    assert dec.lipschitz_estimate <= 1e-5


def test_reconstruction_identity(aligned_decomposition):
    _, _, phi, _, _, dec = aligned_decomposition
    err = np.mean(np.abs(dec.regular.values + dec.saltus.values - phi.values))
    assert err <= 2 * len(dec.jumps) / ALIGNED_N


def test_tv_split_inequality(aligned_decomposition):
    _, _, phi, _, _, dec = aligned_decomposition
    total = phi.total_variation()
    jump_mass = sum(abs(j.size) for j in dec.jumps)
    assert dec.regular.total_variation() + jump_mass <= total * (1 + 1e-9)
    assert jump_mass <= total + 1e-9


def test_jump_decay_profile_family_a(aligned_decomposition):
    _, _, _, ly, hier, dec = aligned_decomposition
    rows = jump_decay_profile(dec, ly, 4)
    assert [r.m for r in rows] == [0, 1, 2, 3, 4]
    for r in rows:
        assert r.bound == pytest.approx(3.0 ** (-r.m) * 72.0, rel=1e-9)
        assert r.passed
    assert rows[0].tail <= dec.saltus.total_variation() + 1e-9


def test_decay_profile_no_jumps(fam_a):
    hier = postcritical_hierarchy(fam_a.base, 3)
    ly = lasota_yorke_constants(fam_a.base)
    dec = saltus_decompose(DensityGrid(48, np.ones(48)), hier, lip_bound=1.0)
    rows = jump_decay_profile(dec, ly, 3)
    assert all(r.tail == 0.0 and r.passed for r in rows)


def test_saltus_mass_near_infinitesimal_holes(aligned_decomposition):
    # approximate continuity near the holes: little jump mass within 1/48
    fam, _, _, _, _, dec = aligned_decomposition
    for h in (1 / 3, 2 / 3):
        assert dec.jump_mass_in(h - 1 / 48, h + 1 / 48) < 0.1


def test_saltus_mass_near_holes_across_sweep(sweep_a):
    # the critical orbit stays clear of the infinitesimal holes, so the jump
    # mass near them stays below 0.1 for every swept eps
    fam = sweep_a["ctx"].family
    for r in sweep_a["rows"]:
        art = sweep_a["arts"][r.eps]
        ly = lasota_yorke_constants(art.map_eps, base=fam.base)
        hier = postcritical_hierarchy(art.map_eps, 6)
        dec = saltus_decompose(art.phi, hier, lip_bound=ly.C_LY)
        for h in (1 / 3, 2 / 3):
            assert dec.jump_mass_in(h - 1 / 48, h + 1 / 48) < 0.1, (r.eps, h)


def test_saltus_csv_export(aligned_decomposition, tmp_path):
    _, _, _, _, _, dec = aligned_decomposition
    path = tmp_path / "saltus.csv"
    dec.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "location,size,depth"
    assert len(lines) == 1 + len(dec.jumps)
    loc, size, depth = lines[1].split(",")
    assert float(size) != 0.0 and int(depth) >= 1
