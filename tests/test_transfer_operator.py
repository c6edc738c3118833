import numpy as np
import pytest
from scipy import sparse

from metamap.families import doubling_map
from metamap.map_model import Branch, Interval, MapModelError, PiecewiseMap
from metamap.spectral import power_fixed_density
from metamap.transfer_operator import (DensityGrid, UlamMatrix,
                                       UnsupportedRegimeError, build_ulam,
                                       cells_with_center_in, cells_within,
                                       lasota_yorke_constants,
                                       variation_inflation_constant)


def test_ulam_family_a_n6_exact(fam_a):
    # each width-1/6 branch maps its cell onto a half, so each half-block row
    # spreads 1/3 over three cells
    P = build_ulam(fam_a.base, 6).to_dense()
    third = np.zeros((6, 6))
    third[:3, :3] = 1 / 3
    third[3:, 3:] = 1 / 3
    assert np.allclose(P, third, atol=1e-14)


def test_ulam_doubling_n2_exact():
    P = build_ulam(doubling_map(), 2).to_dense()
    assert np.allclose(P, 0.5 * np.ones((2, 2)), atol=1e-15)


@pytest.mark.parametrize("eps", [0.0, 0.01])
@pytest.mark.parametrize("n", [6, 48, 768])
def test_rows_sum_to_one(fam_a, eps, n):
    P = build_ulam(fam_a.instantiate(eps), n)
    assert np.max(np.abs(P.row_sums() - 1.0)) <= 1e-12
    dense = P.to_dense()
    assert dense.min() >= 0.0 and dense.max() <= 1.0 + 1e-15


def test_smooth_branch_representation_matches_affine(fam_a):
    # same map, branches given as callables: identical matrix up to rounding
    smooth_branches = []
    for br in fam_a.base.branches:
        s, t = br.slope, br.intercept
        smooth_branches.append(Branch.smooth(
            br.domain.lo, br.domain.hi,
            lambda x, s=s, t=t: s * x + t,
            lambda x, s=s: s,
            lambda x: 0.0))
    smooth_map = PiecewiseMap(smooth_branches)
    n = 96
    Pa = build_ulam(fam_a.base, n).to_dense()
    Ps = build_ulam(smooth_map, n).to_dense()
    assert np.max(np.abs(Pa - Ps)) <= 1e-12


def test_too_coarse_grid_rejected(fam_a):
    with pytest.raises(MapModelError):
        build_ulam(fam_a.base, 4)


def test_apply_preserves_uniform_density(fam_a):
    P = build_ulam(fam_a.base, 384)
    d = DensityGrid.uniform(384)
    out = DensityGrid(384, P.apply(d.values))
    assert out.l1_distance(d) <= 1e-13


def test_apply_zero_density(fam_a):
    P = build_ulam(fam_a.base, 48)
    out = P.apply(DensityGrid.zeros(48).values)
    assert np.all(out == 0.0)


def test_apply_single_cell_mass_preserved(fam_a):
    n = 96
    P = build_ulam(fam_a.instantiate(0.01), n)
    vals = np.zeros(n)
    vals[17] = n       # unit mass in one cell
    out = P.apply(vals)
    assert np.mean(out) == pytest.approx(1.0, abs=1e-12)


def test_apply_dimension_mismatch(fam_a):
    P = build_ulam(fam_a.base, 48)
    with pytest.raises(ValueError):
        P.apply(DensityGrid.uniform(96).values)


def test_mass_conservation_random_grids(fam_a):
    n = 192
    P = build_ulam(fam_a.instantiate(0.005), n)
    rng = np.random.default_rng(23)
    for _ in range(200):
        vals = rng.standard_normal(n)
        out = P.apply(vals)
        assert abs(np.sum(out) - np.sum(vals)) <= 1e-12 * np.sum(np.abs(vals))


def test_positivity_preserved(fam_a):
    n = 192
    P = build_ulam(fam_a.instantiate(0.01), n)
    rng = np.random.default_rng(5)
    for _ in range(50):
        assert P.apply(rng.uniform(0, 3, size=n)).min() >= 0.0


def test_ly_constants_family_a(fam_a):
    ly = lasota_yorke_constants(fam_a.base)
    assert ly.lam == 3.0
    assert ly.distortion == 0.0
    assert ly.C_eps == pytest.approx(12.0, abs=1e-9)
    assert ly.beta == pytest.approx(2 / 3, abs=1e-15)
    assert ly.C_LY == pytest.approx(72.0, abs=1e-9)


def test_ly_constant_formula_two_branches_width_half():
    # distortion-free, slope magnitude 4, branch width 1/2
    assert variation_inflation_constant(4.0, 0.0, 0.5) == pytest.approx(4.0)


def test_ly_constant_independent_of_lambda_for_affine():
    assert (variation_inflation_constant(3.0, 0.0, 0.25)
            == variation_inflation_constant(7.0, 0.0, 0.25))


def test_ly_rejects_min_expansion_two():
    with pytest.raises(UnsupportedRegimeError):
        lasota_yorke_constants(doubling_map())


def test_ly_base_anchoring(fam_a):
    ly = lasota_yorke_constants(fam_a.instantiate(0.01), base=fam_a.base)
    assert ly.C_LY == pytest.approx(72.0, abs=1e-9)


def test_discrete_ly_inequality_sentinel(fam_a):
    n = 384
    T = fam_a.instantiate(0.01)
    P = build_ulam(T, n)
    ly = lasota_yorke_constants(T, base=fam_a.base)
    rng = np.random.default_rng(91)
    for _ in range(200):
        steps = rng.integers(1, 12)
        vals = np.zeros(n)
        for _ in range(steps):
            i, j = sorted(rng.integers(0, n, size=2))
            vals[i:j + 1] += rng.standard_normal()
        d = DensityGrid(n, vals)
        tv0, l1 = d.total_variation(), d.l1_norm()
        cur = d
        for k in range(1, 7):
            cur = DensityGrid(n, P.apply(cur.values))
            bound = ly.C_LY * ly.beta ** k * tv0 + ly.C_LY * l1
            assert cur.total_variation() <= 1.2 * bound


def test_refinement_consistency_trend(fam_a):
    T = fam_a.instantiate(0.01)
    phis = {}
    for n in (480, 960, 1920):
        P = build_ulam(T, n)
        vals, _ = power_fixed_density(P, np.ones(n), 1e-10, 200000)
        phis[n] = vals
    d1 = np.mean(np.abs(np.repeat(phis[480], 2) - phis[960]))
    d2 = np.mean(np.abs(np.repeat(phis[960], 2) - phis[1920]))
    assert d2 < d1     # halving the cells shrinks the fixed-density change


def test_row_sparsity_bound(fam_a):
    # each row holds at most branches * (ceil(max slope) + 2) nonzeros
    T = fam_a.instantiate(0.01)
    n = 1536
    P = build_ulam(T, n)
    per_row = np.bincount(P.matrix.indices, minlength=n)
    cap = len(T.branches) * (3 + 2)
    assert per_row.max() <= cap


def test_density_grid_norms():
    d = DensityGrid(4, np.array([1.0, -3.0, 2.0, 0.0]))
    assert d.l1_norm() == pytest.approx(1.5)
    assert d.mass() == pytest.approx(0.0)
    assert d.total_variation() == pytest.approx(4 + 5 + 2)


def test_density_grid_integrate_partial_cells():
    d = DensityGrid(4, np.array([2.0, 4.0, 0.0, 1.0]))
    assert d.integrate(0.125, 0.375) == pytest.approx(2 * 0.125 + 4 * 0.125)
    assert d.integrate(0.0, 1.0) == pytest.approx(d.mass())


def test_indicator_normalization():
    g = DensityGrid.indicator(Interval(0.0, 0.5), 6, normalize=True)
    assert g.mass() == pytest.approx(1.0, abs=1e-15)
    assert g.values[0] == pytest.approx(2.0)
    assert g.values[-1] == 0.0


def test_cells_within_and_center_selectors():
    assert list(cells_within(Interval(0.0, 0.5), 8)) == [0, 1, 2, 3]
    got = cells_with_center_in([Interval(0.24, 0.52)], 8)
    centers = (np.arange(8) + 0.5) / 8
    expected = [i for i, c in enumerate(centers) if 0.24 <= c <= 0.52]
    assert list(got) == expected


def test_from_matrix_validates_row_sums():
    with pytest.raises(ValueError):
        UlamMatrix.from_matrix(np.array([[0.5, 0.4], [0.5, 0.5]]))
    m = UlamMatrix.from_matrix(sparse.csr_matrix(np.array([[0.5, 0.5], [0.25, 0.75]])))
    assert m.n == 2
