import dataclasses
import math

import numpy as np
import pytest

from conftest import (FINE_EPS, FINE_N, block_rates, lebesgue_halves, record_solves,
                      scipy_csc)

from metamap.map_model import (Branch, HoleReport, Interval, MapModelError,
                               PerturbationFamily, PiecewiseMap, compute_holes, evaluate,
                               validate_hypotheses)
from metamap.metastability import (analytic_lhr, flux_balance, hole_measures,
                                   markov_stationary, predict_mixture,
                                   prepare_sweep, run_sweep_row)
from metamap.spectral import ergodic_densities, escape_rate, invariant_density
from metamap.transfer_operator import DensityGrid, build_ulam, cells_with_center_in


def test_holes_family_a_closed_form(fam_a):
    eps = 0.01
    rep = compute_holes(fam_a.instantiate(eps), 0.5)
    assert len(rep.H_l) == 1 and len(rep.H_r) == 1
    hl, hr = rep.H_l[0], rep.H_r[0]
    assert hl.lo == pytest.approx(1 / 3 - eps, abs=1e-12)
    assert hl.hi == pytest.approx(1 / 3, abs=1e-12)
    assert hr.lo == pytest.approx(2 / 3, abs=1e-12)
    assert hr.hi == pytest.approx(2 / 3 + eps / 3, abs=1e-12)
    assert sum(iv.length for iv in rep.H_l) == pytest.approx(eps, abs=1e-12)
    assert sum(iv.length for iv in rep.H_r) == pytest.approx(eps / 3, abs=1e-12)
    assert rep.warnings == ()


def test_holes_empty_at_eps_zero(fam_a, fam_b):
    for fam in (fam_a, fam_b):
        rep = compute_holes(fam.base, 0.5)
        assert rep.H_l == () and rep.H_r == ()


def test_holes_family_b_three_pieces_each_side(fam_b):
    eps = 0.01
    rep = compute_holes(fam_b.instantiate(eps), 0.5)
    assert len(rep.H_l) == 3 and len(rep.H_r) == 3
    assert sum(iv.length for iv in rep.H_l) == pytest.approx(0.03, abs=1e-12)
    assert sum(iv.length for iv in rep.H_r) == pytest.approx(0.01, abs=1e-12)
    assert any("touches the boundary" in w for w in rep.warnings)


def test_hole_points_map_across(fam_a):
    eps = 0.01
    T = fam_a.instantiate(eps)
    rep = compute_holes(T, 0.5)
    rng = np.random.default_rng(29)
    hl = rep.H_l[0]
    xs = rng.uniform(hl.lo + 1e-12, hl.hi, size=1000)
    assert all(evaluate(T, x)[0] >= 0.5 for x in xs)
    # left points outside the hole stay left
    count = 0
    while count < 1000:
        x = rng.uniform(0, 0.5)
        if hl.lo <= x <= hl.hi:
            continue
        assert evaluate(T, x)[0] < 0.5
        count += 1


def test_hole_measures_family_a(fam_a):
    eps = 0.01
    rep = compute_holes(fam_a.instantiate(eps), 0.5)
    phi_l, phi_r = lebesgue_halves(3840)
    done = hole_measures(rep, phi_l, phi_r)
    assert done.mu_l_Hl == pytest.approx(0.02, abs=1e-12)
    assert done.mu_r_Hr == pytest.approx(0.02 / 3, abs=1e-12)
    assert done.ratio == pytest.approx(1 / 3, abs=1e-12)


def test_hole_measures_symmetric_ratio_one():
    rep = HoleReport(H_l=(Interval(0.2, 0.21),), H_r=(Interval(0.79, 0.8),))
    phi_l, phi_r = lebesgue_halves(400)
    done = hole_measures(rep, phi_l, phi_r)
    assert done.ratio == pytest.approx(1.0, abs=1e-9)


def test_hole_measures_degenerate_errors():
    phi_l, phi_r = lebesgue_halves(100)
    empty = HoleReport(H_l=(), H_r=())
    with pytest.raises(MapModelError):
        hole_measures(empty, phi_l, phi_r)
    right_only = HoleReport(H_l=(), H_r=(Interval(0.7, 0.72),))
    with pytest.raises(MapModelError):
        hole_measures(right_only, phi_l, phi_r)


def test_analytic_lhr_family_a(fam_a):
    phi_l, phi_r = lebesgue_halves(3840)
    # phi_r(2/3) * (0 + 1/3) / (phi_l(1/3) * (1 + 0)) = (2/3) / 2
    assert analytic_lhr(fam_a, phi_l, phi_r) == pytest.approx(1 / 3, abs=1e-9)


def test_analytic_lhr_one_sided_and_symmetric(fam_a):
    # family A's map: lifting branch 2 opens 1/3-, lowering branch 5 opens 2/3+
    phi_l, phi_r = lebesgue_halves(600)
    no_right = PerturbationFamily(base=fam_a.base,
                                  intercept_eps=(0.0, 3.0, 0.0, 0.0, 0.0, 0.0),
                                  boundary_b=0.5)
    assert analytic_lhr(no_right, phi_l, phi_r) == 0.0
    balanced = PerturbationFamily(base=fam_a.base,
                                  intercept_eps=(0.0, 3.0, 0.0, 0.0, -3.0, 0.0),
                                  boundary_b=0.5)
    assert analytic_lhr(balanced, phi_l, phi_r) == pytest.approx(1.0, abs=1e-9)


def test_analytic_lhr_requires_left_hole(fam_a):
    phi_l, phi_r = lebesgue_halves(600)
    right_only = PerturbationFamily(base=fam_a.base,
                                    intercept_eps=(0.0, 0.0, 0.0, 0.0, -1.0, 0.0),
                                    boundary_b=0.5)
    with pytest.raises(MapModelError):
        analytic_lhr(right_only, phi_l, phi_r)
    bare = PerturbationFamily(base=fam_a.base, boundary_b=0.5)
    with pytest.raises(MapModelError):
        analytic_lhr(bare, phi_l, phi_r)


def test_predict_mixture_weights():
    phi_l, phi_r = lebesgue_halves(240)
    alpha, mix = predict_mixture(1 / 3, phi_l, phi_r)
    assert alpha == pytest.approx(0.25)
    assert mix.values[0] == pytest.approx(0.5)
    assert mix.values[-1] == pytest.approx(1.5)
    assert np.mean(mix.values) == pytest.approx(1.0, abs=1e-12)
    assert predict_mixture(1.0, phi_l, phi_r)[0] == pytest.approx(0.5)
    alpha_inf, mix_inf = predict_mixture(math.inf, phi_l, phi_r)
    assert alpha_inf == 1.0
    assert np.allclose(mix_inf.values, phi_l.values)
    with pytest.raises(ValueError):
        predict_mixture(-0.1, phi_l, phi_r)


def test_markov_stationary_closed_form():
    alpha, rho = markov_stationary(0.01, 0.03)
    assert alpha == pytest.approx(0.75, abs=1e-15)
    assert rho == pytest.approx(0.96, abs=1e-15)
    assert markov_stationary(0.2, 0.2)[0] == pytest.approx(0.5)
    assert markov_stationary(0.0, 0.03)[0] == 1.0


def test_markov_stationary_flux_identity():
    alpha, _ = markov_stationary(0.013, 0.007)
    assert alpha * 0.013 == pytest.approx((1 - alpha) * 0.007, abs=1e-15)


def test_markov_stationary_domain_errors():
    with pytest.raises(ValueError):
        markov_stationary(0.0, 0.0)
    with pytest.raises(ValueError):
        markov_stationary(-0.01, 0.05)
    with pytest.raises(ValueError):
        markov_stationary(0.6, 0.6)
    # NaN passed every check and gave (nan, nan)
    for lr, rl in ((math.nan, 0.1), (0.1, math.nan), (math.inf, 0.1), (0.1, -math.inf)):
        with pytest.raises(ValueError, match="finite"):
            markov_stationary(lr, rl)


def test_flux_balance_zero_for_empty_holes(fam_a):
    rep = compute_holes(fam_a.base, 0.5)
    assert flux_balance(DensityGrid(48, np.ones(48)), rep) == 0.0


def test_ergodic_densities_closed_form_matches_computed(fam_a):
    n = 768
    P0 = build_ulam(fam_a.base, n)
    phi_l_exact, phi_r_exact = lebesgue_halves(n)
    phi_l_num, phi_r_num = ergodic_densities(P0, n // 2)
    assert phi_l_exact.l1_distance(phi_l_num) <= 1e-8
    assert phi_r_exact.l1_distance(phi_r_num) <= 1e-8
    assert phi_l_num.integrate(0, 0.5) == pytest.approx(1.0, abs=1e-9)


def test_prepare_sweep_assembles_base_matrix_once(fam_a, monkeypatch):
    import metamap.metastability as ms
    sizes = []

    def counting_build_ulam(map_, n):
        sizes.append(n)
        return build_ulam(map_, n)

    monkeypatch.setattr(ms, "build_ulam", counting_build_ulam)
    ctx = prepare_sweep(fam_a, [0.01], 384)
    assert sizes == [384]
    assert ctx.phi_l.integrate(0, 0.5) == pytest.approx(1.0, abs=1e-9)


def test_prepare_sweep_refuses_a_grid_beyond_int32_before_allocating(fam_a, monkeypatch):
    # cells_below used to divide all 2**31 cell indices by n, a 16 GiB array,
    # before build_ulam could refuse the grid by name
    import metamap.transfer_operator as to

    def no_assembly(map_, n):
        raise AssertionError("assembly started")

    monkeypatch.setattr(to, "_branch_pieces", no_assembly)
    with pytest.raises(MapModelError, match=r"^n=2147483648 exceeds 2147483647, the most "
                                            r"cells int32 indices can name$"):
        prepare_sweep(fam_a, [0.01], 2 ** 31)


def test_sweep_context_is_frozen(fam_a):
    ctx = prepare_sweep(fam_a, [0.01], 384)
    assert ctx.k == 192
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx.k = 191


def test_convergence_study_small_grid(fam_a):
    ctx = prepare_sweep(fam_a, [0.02, 0.01], 768)
    rows = [run_sweep_row(ctx, eps)[0] for eps in (0.02, 0.01)]
    assert len(rows) == 2
    assert all(r.error is None for r in rows)
    assert rows[0].l1_phi_vs_mixture > rows[1].l1_phi_vs_mixture
    assert rows[1].rho > rows[0].rho
    for r in rows:
        assert r.lhr_emp == pytest.approx(1 / 3, abs=1e-6)
        assert r.alpha_pred == pytest.approx(0.25, abs=1e-6)
        assert r.leading_simple
        assert r.flux_gap <= 1e-9


def test_convergence_study_reaches_small_eps_on_fine_grid(fam_a):
    # the grid rule n >= 12/eps asks for n = 122880 at eps = 1e-4; the paper's
    # mixture limit shows as an L1 distance that keeps shrinking with eps
    eps_list = [8e-4, 4e-4, 2e-4, 1e-4]
    ctx = prepare_sweep(fam_a, eps_list, 122880)
    rows = [run_sweep_row(ctx, eps)[0] for eps in eps_list]
    assert [r.error for r in rows] == [None] * 4
    l1 = [r.l1_phi_vs_mixture for r in rows]
    assert all(b < a for a, b in zip(l1, l1[1:])), l1


def test_mixture_claim_in_rate_form_on_two_grids(fam_a, fam_b):
    # the paper's claim at grid sizes no dense oracle reaches, with each
    # bound a little past the worst measured case.  Family A: phi tends to
    # the mixture at O(eps), the L1 distance shrinking 1.87-2.09x per
    # halving, the two grids within 5.7% of each other, and mu(I_l) above
    # alpha_pred by 0.45-0.57 eps.  Family B, the counterexample: mu(I_l)
    # = (1.338-1.356) eps tends to 0, so phi tends to phi_r, at L1 distance
    # 0.5 + (1.92-1.99) eps from the mixture
    eps_list = (0.0016, 0.0008, 0.0004)
    l1_by_n = []
    for n in (30720, 61440):
        ctx_a, ctx_b = prepare_sweep(fam_a, eps_list, n), prepare_sweep(fam_b, eps_list, n)
        rows_a = [run_sweep_row(ctx_a, eps)[0] for eps in eps_list]
        rows_b = [run_sweep_row(ctx_b, eps)[0] for eps in eps_list]
        assert [r.error for r in rows_a + rows_b] == [None] * 6
        l1 = [r.l1_phi_vs_mixture for r in rows_a]
        assert all(a >= 1.8 * b for a, b in zip(l1, l1[1:])), (n, l1)
        for r in rows_a:
            assert 0.0 < r.mu_Il - r.alpha_pred <= 0.6 * r.eps, (n, r.eps, r.mu_Il)
        for r in rows_b:
            assert 1.3 <= r.mu_Il / r.eps <= 1.4, (n, r.eps, r.mu_Il)
            assert 1.85 <= (r.l1_phi_vs_mixture - 0.5) / r.eps <= 2.05, (n, r.eps)
        l1_by_n.append(l1)
    for coarse, fine in zip(*l1_by_n):
        assert abs(coarse - fine) <= 0.07 * fine, (coarse, fine)


def test_convergence_study_empty(fam_a):
    # an empty ladder is accepted: the eps=0 context is built, and no row runs
    ctx = prepare_sweep(fam_a, [], 768)
    assert ctx.k == 384 and ctx.alpha_pred == pytest.approx(0.25, abs=1e-6)


def test_convergence_study_eps_validation(fam_a):
    with pytest.raises(ValueError):
        prepare_sweep(fam_a, [0.01, 0.02], 768)
    with pytest.raises(ValueError):
        prepare_sweep(fam_a, [0.01, -0.001], 768)


def test_straddling_cell_fails_every_row_by_name(fam_a, monkeypatch):
    # at n = 769 cell 384 straddles b = 1/2, so P0 moves mass between its
    # blocks for every eps: the sweep is refused as a whole, naming the
    # leaking block, before any solver run.  The sweep used to run both
    # ergodic densities for about 17,400 steps each, onto the uniform
    # density, and then fail each row at the escape run
    calls = record_solves(monkeypatch)
    with pytest.raises(ValueError, match=r"^block \[0, 385\) of 769 cells is not invariant: "
                                         r"row 384 moves 0\.5 of its mass out of it$"):
        prepare_sweep(fam_a, [0.02, 0.01], 769)
    assert calls == []


@pytest.mark.parametrize("family", ["fam_a", "fam_b"])
def test_prepare_sweep_solves_the_eps0_blocks_in_one_run(request, monkeypatch, family):
    # both ergodic densities come from one block run; each builtin half is
    # Lebesgue, so the start is already fixed and the run takes one step
    calls = record_solves(monkeypatch)
    prepare_sweep(request.getfixturevalue(family), [0.01], 768)
    assert [(solver, steps) for solver, _, _, steps in calls] == [("_solve_blocks", 1)]


def test_ergodic_densities_refuse_a_leaking_block(fam_a):
    # eps = 0.01 opens holes between the blocks [0, 24) and [24, 48)
    with pytest.raises(ValueError, match=r"^block \[0, 24\) of 48 cells is not invariant: "
                                         r"row 15 moves 0\.48 of its mass out of it$"):
        ergodic_densities(build_ulam(fam_a.instantiate(0.01), 48), 24)


def test_one_sided_escape_ratio_matches_dense_oracle(fam_a):
    # at n = 768, eps = 0.001 the right hole [2/3, 2/3 + eps/3] covers no
    # cell centre: the row skips the right rate and keeps the left one,
    # whose lambda is the top eigenvalue of P0's left block with its hole
    # columns zeroed
    n, eps = 768, 0.001
    ctx = prepare_sweep(fam_a, [eps], n)
    row, _ = run_sweep_row(ctx, eps)
    assert row.error is None, row.error
    assert row.warnings == ("hole in [0.5, 1.0] thinner than one cell; escape rate skipped",)
    assert row.escape_ratio_r is None
    holes = hole_measures(compute_holes(fam_a.instantiate(eps), 0.5), ctx.phi_l, ctx.phi_r)
    Q = scipy_csc(ctx.P0).toarray()
    Q[:, cells_with_center_in(holes.H_l, n)] = 0.0
    lams = np.linalg.eigvals(Q[:ctx.k, :ctx.k])
    lam = float(lams[np.argmax(np.abs(lams))].real)
    expected = holes.mu_l_Hl / -math.log(lam)
    assert row.escape_ratio_l == pytest.approx(0.7571188307, rel=1e-9)
    assert abs(row.escape_ratio_l - expected) <= 1e-9 * expected


def test_sweep_rows_carry_failures_not_exceptions(fam_a):
    # eps = 0.2 pushes the perturbed branch image outside [0,1]
    ctx = prepare_sweep(fam_a, [0.01], 384)
    row, art = run_sweep_row(ctx, 0.2)
    assert art is None
    assert row.error is not None
    ok_row, ok_art = run_sweep_row(ctx, 0.01)
    assert ok_row.error is None and ok_art is not None


def test_row_takes_the_pair_from_the_density_solve(fam_a):
    ctx = prepare_sweep(fam_a, [0.01], 768)
    row, art = run_sweep_row(ctx, 0.01)
    inv = invariant_density(art.P, tol=ctx.tol)
    assert row.rho == inv.rho
    assert np.array_equal(art.psi.values, inv.psi.values)


@pytest.mark.parametrize("family", ["fam_a", "fam_b"])
def test_row_fields_are_builtin_numbers(request, family):
    # a numpy scalar here reaches the writers: a numpy.bool_ leading_simple
    # makes json.dump refuse sweep.json and the CSV read True, not true
    ctx = prepare_sweep(request.getfixturevalue(family), [0.02, 0.01], 768)
    for eps in (0.02, 0.01):
        row, art = run_sweep_row(ctx, eps)
        assert row.error is None
        inv = invariant_density(art.P, tol=ctx.tol, k=ctx.k)
        for obj in (row, inv):
            for f in dataclasses.fields(obj):
                value = getattr(obj, f.name)
                if value is None or isinstance(value, (DensityGrid, str, tuple)):
                    continue
                expected = {"leading_simple": bool, "iterations": int}.get(f.name, float)
                assert type(value) is expected, (type(obj).__name__, f.name, type(value))


def test_family_b_rows_carry_boundary_warning(fam_b):
    row, _ = run_sweep_row(prepare_sweep(fam_b, [0.01], 768), 0.01)
    assert any("touches the boundary" in w for w in row.warnings)


def test_psi_direction_positive_correlation(fam_a):
    ctx = prepare_sweep(fam_a, [0.01], 768)
    row, art = run_sweep_row(ctx, 0.01)
    corr = np.dot(art.psi.values, ctx.half_diff.values)
    assert corr > 0


def test_left_mass_converges_to_alpha_monotonically(sweep_a):
    # mu_eps(I_l) approaches the predicted weight from above along the sweep
    rows = sweep_a["rows"]
    gaps = [abs(r.mu_Il - r.alpha_pred) for r in rows]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.002


def test_two_block_chain_matches_weight_and_rho(sweep_a):
    # the 2x2 chain between the blocks, evaluated at the density the
    # psi-corrected run returns, is the paper's two-state analog: its
    # stationary weight is mu(I_l), and p_LR + p_RL approaches the
    # switching rate 1 - rho as eps shrinks
    gaps = []
    for row in sweep_a["rows"]:
        P = sweep_a["arts"][row.eps].P
        inv = invariant_density(P, tol=1e-10)
        # the blocks [0,1/2) and [1/2,1) on the even grid
        p_lr, p_rl = block_rates(P, inv.phi.values, P.n // 2)
        alpha, _ = markov_stationary(p_lr, p_rl)
        assert alpha == pytest.approx(row.mu_Il, abs=1e-9)
        gaps.append(abs(p_lr + p_rl - (1.0 - row.rho)) / (1.0 - row.rho))
    assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps


@pytest.mark.parametrize("tol", [1e-10, 1e-9])
def test_every_solve_of_a_row_runs_at_the_sweep_tol(fam_a, monkeypatch, tol):
    # one stopping rule per row: the deflated pair, the density and the
    # one escape run for both sides all stop at the tol the sweep was
    # prepared with
    ctx = prepare_sweep(fam_a, [0.01], 768, tol=tol)
    calls = record_solves(monkeypatch)
    row, _ = run_sweep_row(ctx, 0.01)
    assert row.error is None, row.error
    assert [(solver, t) for solver, t, _, _ in calls] == [
        ("_second_pair", tol), ("_corrected_step", tol), ("_solve_blocks", tol)]


@pytest.mark.parametrize("family", ["fam_a", "fam_b"])
def test_escape_ratios_at_the_sweep_tol_match_tight_solves(request, family):
    # a row solves both escape rates at the sweep's tol = 1e-10, not at
    # escape_rate's default 1e-12; on the fine ladder the ratios move by at
    # most 4.3e-11 relative
    fam = request.getfixturevalue(family)
    ctx = prepare_sweep(fam, FINE_EPS, FINE_N)
    for eps in FINE_EPS:
        row, art = run_sweep_row(ctx, eps)
        holes = hole_measures(compute_holes(art.map_eps, fam.boundary_b),
                              ctx.phi_l, ctx.phi_r)
        hole = cells_with_center_in(holes.H_l + holes.H_r, FINE_N)
        rates = escape_rate(ctx.P0, hole, ctx.k, tol=1e-12)
        for mu, rate, ratio in zip((holes.mu_l_Hl, holes.mu_r_Hr), rates,
                                   (row.escape_ratio_l, row.escape_ratio_r)):
            tight = mu / rate
            assert abs(ratio - tight) <= 1e-9 * tight, (eps, ratio, tight)


def random_two_half_family(rng):
    """Each half carries m full branches of slope +-m onto itself (so both
    halves are invariant with Lebesgue densities); one left branch is lifted
    and one right branch lowered, each opening a hole into the other half."""
    m = int(rng.integers(3, 6))
    branches, slope_eps, intercept_eps = [], [], []
    for half_lo in (0.0, 0.5):
        lift = int(rng.integers(m))
        for k in range(m):
            lo = half_lo + k / (2 * m)
            hi = half_lo + (k + 1) / (2 * m)
            if rng.integers(2):
                branches.append(Branch.affine(lo, hi, m, half_lo - m * lo))
            else:
                branches.append(Branch.affine(lo, hi, -m, half_lo + 0.5 + m * lo))
            slope_eps.append(0.0)
            if k != lift:
                intercept_eps.append(0.0)
            elif half_lo == 0.0:
                intercept_eps.append(float(rng.uniform(0.5, 3.0)))
            else:
                intercept_eps.append(float(rng.uniform(-3.0, -0.5)))
    fam = PerturbationFamily(base=PiecewiseMap(branches), slope_eps=tuple(slope_eps),
                             intercept_eps=tuple(intercept_eps), boundary_b=0.5)
    return fam, m


def test_sweep_rows_hold_fixed_point_properties_on_random_families():
    # properties of any correct fixed point: mass balance across the holes
    # at solver level, a fixed density, a second eigenvector of zero mass,
    # and open systems that lose mass through both holes
    for seed in range(40):
        fam, m = random_two_half_family(np.random.default_rng(seed))
        ctx = prepare_sweep(fam, [0.02, 0.01], 240 * m)
        for eps in (0.02, 0.01):
            row, art = run_sweep_row(ctx, eps)
            assert row.error is None, (seed, eps, row.error)
            assert row.flux_gap <= 10 * ctx.tol, (seed, eps)
            residual = np.mean(np.abs(art.P.apply(art.phi.values) - art.phi.values))
            assert residual <= 10 * ctx.tol, (seed, eps)
            assert abs(np.mean(art.psi.values)) <= 1e-12, (seed, eps)
            for ratio in (row.escape_ratio_l, row.escape_ratio_r):
                assert 0.0 < ratio < math.inf, (seed, eps)


# The seeds of random_two_half_family on which validate_hypotheses passes
# (I2).  The claim in rate form, that l1_phi_vs_mixture falls by at least
# 1.3x at both halvings of eps 0.004, 0.002, 0.001 on n = 12000m, holds on
# the same seeds except two:
# * seed 21 passes (I2), but its distance moves 0.85x, then 4.17x.  On
#   eps 0.008 ... 0.00025 at n = 24000m it falls from 0.0115 to 0.000396, so
#   the three-eps window misses a claim that holds.
# * seed 28 fails (I2): its left hole sits at b-, which the critical orbit
#   reaches, so mass that leaves through it comes back (left escape ratio
#   1.32-1.55).  On this ladder its distance still falls 1.34x per halving.
I2_PASSES = {0, 1, 2, 6, 7, 11, 12, 15, 18, 19, 20, 21, 22, 23, 24, 25, 26, 30,
             32, 33, 35, 37, 38, 39}


def test_I2_on_random_families_is_the_measured_table():
    passes = {seed for seed in range(40)
              if validate_hypotheses(random_two_half_family(np.random.default_rng(seed))[0]).I2}
    # on seeds 0-15 the claim holds on exactly these
    assert passes & set(range(16)) == {0, 1, 2, 6, 7, 11, 12, 15}
    assert passes == I2_PASSES


def test_analytic_lhr_matches_measured_hole_ratio(fam_a, fam_b):
    # with eps-free slopes an affine hole is exactly rate*eps wide, and these
    # densities are constant across it, so the first-order ratio is the
    # ratio measured at a finite eps
    cases = [(fam_a, 1), (fam_b, 1)]
    cases += [random_two_half_family(np.random.default_rng(seed)) for seed in range(40)]
    for k, (fam, m) in enumerate(cases):
        phi_l, phi_r = ergodic_densities(build_ulam(fam.base, 240 * m), 120 * m)
        measured = hole_measures(compute_holes(fam.instantiate(0.01), 0.5), phi_l, phi_r)
        assert analytic_lhr(fam, phi_l, phi_r) == pytest.approx(measured.ratio, rel=1e-12), k


def test_first_order_hole_rate_of_smooth_branch():
    # left half: f(x) = 1.5x + 2x^2 maps [0, 1/4] onto [0, 1/2] and is pushed
    # up by eps*x; right half: the end 1- of a decreasing branch is pushed down
    f = (lambda x: 1.5 * x + 2 * x * x, lambda x: 1.5 + 4 * x, lambda x: 4.0)
    g = (lambda x: x, lambda x: 1.0, lambda x: 0.0)
    base = PiecewiseMap([Branch.smooth(0.0, 0.25, *f),
                         Branch.affine(0.25, 0.5, 2.0, -0.5),
                         Branch.affine(0.5, 0.75, 2.0, -0.5),
                         Branch.affine(0.75, 1.0, -2.0, 2.5)])
    fam = PerturbationFamily(base=base, intercept_eps=(0.0, 0.0, 0.0, -1.0),
                             smooth_eps=(g, None, None, None), boundary_b=0.5)
    holes = fam.first_order_holes()
    assert [(c, side, left) for c, side, _, left in holes] == [(0.25, -1, True),
                                                               (1.0, -1, False)]
    # g(1/4) / f'(1/4) and 1 / |-2|
    assert [rate for _, _, rate, _ in holes] == pytest.approx([0.1, 0.5], rel=1e-12)
    eps = 1e-5
    rep = compute_holes(fam.instantiate(eps), 0.5)
    assert rep.H_l[0].length / eps == pytest.approx(0.1, rel=1e-4)
    assert rep.H_r[0].length / eps == pytest.approx(0.5, rel=1e-9)


def test_ergodic_density_of_a_half_that_is_not_lebesgue():
    # the second left branch covers only [0, 3/8], so Lebesgue on [0, 1/2]
    # is not invariant and phi_l has to be computed
    base = PiecewiseMap([Branch.affine(0.0, 0.25, 2.0, 0.0),
                         Branch.affine(0.25, 0.5, 1.5, -0.375),
                         Branch.affine(0.5, 0.75, 2.0, -0.5),
                         Branch.affine(0.75, 1.0, -2.0, 2.5)])
    fam = PerturbationFamily(base=base, boundary_b=0.5)
    n = 768
    P0 = build_ulam(base, n)
    phi_l, phi_r = ergodic_densities(P0, n // 2)
    lebesgue_l, lebesgue_r = lebesgue_halves(n)
    for phi in (phi_l, phi_r):
        assert np.mean(np.abs(P0.apply(phi.values) - phi.values)) <= 1e-9
    assert phi_l.integrate(0.0, 0.5) == pytest.approx(1.0, abs=1e-12)
    assert phi_l.l1_distance(lebesgue_l) > 0.05
    assert phi_r.l1_distance(lebesgue_r) <= 1e-9
