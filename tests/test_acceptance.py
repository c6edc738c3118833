"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
The family A sweep (eps 0.02 / 0.01 / 0.005 / 0.0025 on n = 3840) is computed
once in a session fixture and shared across criteria.
"""

import numpy as np
import pytest

from conftest import dense_top_eigenpairs

from metamap.bv_analysis import jump_decay_profile, saltus_decompose
from metamap.families import family_a, family_b
from metamap.map_model import Interval, compute_holes, postcritical_hierarchy
from metamap.metastability import hole_measures, markov_stationary, predict_mixture
from metamap.spectral import ergodic_densities, invariant_density, second_eigenpair
from metamap.transfer_operator import (DensityGrid, build_ulam,
                                       lasota_yorke_constants)


def report(criterion: str, detail: str):
    print(f"[{criterion}] PASS: {detail}")


def test_criterion_1_mixture_convergence(sweep_a):
    """Mixture convergence: L1(phi_eps, mixture) strictly decreasing, < 0.05
    at the smallest eps, in under 60 s."""
    rows = sweep_a["rows"]
    dists = [r.l1_phi_vs_mixture for r in rows]
    assert all(a > b for a, b in zip(dists, dists[1:])), dists
    assert dists[-1] < 0.05
    assert sweep_a["ctx"].alpha_pred == pytest.approx(0.25, abs=1e-9)
    assert sweep_a["elapsed"] < 60.0
    report("criterion-1",
           f"distances {['%.4f' % d for d in dists]} decreasing, "
           f"final {dists[-1]:.4f} < 0.05, sweep took {sweep_a['elapsed']:.1f}s")


def test_criterion_2_second_eigenvector_limit(sweep_a):
    """psi_eps approaches 1_Il - 1_Ir with zero mean and positive left mass."""
    eps = sweep_a["eps_list"][-1]
    art = sweep_a["arts"][eps]
    n = sweep_a["n"]
    ref = DensityGrid(n, np.where(np.arange(n) < n // 2, 1.0, -1.0))
    dist = art.psi.l1_distance(ref)
    assert dist < 0.10
    assert abs(np.mean(art.psi.values)) <= 1e-8
    assert art.psi.integrate(0.0, 0.5) > 0.0
    report("criterion-2",
           f"L1(psi, half-indicator difference) = {dist:.4f} < 0.10 at eps={eps}")


def test_criterion_3_spectral_gap_behavior(sweep_a):
    """rho real simple and increasing to 1; eps=0 top eigenvalue degenerate."""
    rows = sweep_a["rows"]
    rhos = [r.rho for r in rows]
    assert all(r.leading_simple for r in rows)
    assert all(a < b for a, b in zip(rhos, rhos[1:])), rhos
    assert all(0.0 < r < 1.0 for r in rhos)
    assert 1.0 - rhos[-1] < 0.05
    P0 = sweep_a["ctx"].P0
    res0 = invariant_density(P0, tol=1e-10)
    assert not res0.leading_simple
    report("criterion-3",
           f"rho {['%.5f' % r for r in rhos]} increasing, gap {1 - rhos[-1]:.4f} "
           f"< 0.05; eps=0 probe degenerate (limits {res0.probe_distance:.3f} apart)")


def test_criterion_4_flux_balance(sweep_a):
    """Equal invariant mass flows through the two holes, to grid resolution."""
    n = sweep_a["n"]
    worst = 0.0
    for r in sweep_a["rows"]:
        art = sweep_a["arts"][r.eps]
        bound = 2.0 * np.max(np.abs(art.phi.values)) / n
        assert r.flux_gap <= bound, (r.eps, r.flux_gap, bound)
        worst = max(worst, r.flux_gap)
    report("criterion-4", f"max flux gap {worst:.2e} within 2 sup(phi)/n")


def test_criterion_5_markov_oracle():
    alpha, rho = markov_stationary(0.01, 0.03)
    assert abs(alpha - 0.75) <= 1e-12
    assert abs(rho - 0.96) <= 1e-12
    report("criterion-5", f"alpha={alpha!r}, rho={rho!r} exact to 1e-12")


def test_criterion_6_escape_rate_ratio(sweep_a):
    """Hole measure over escape rate near 1 for both open systems at eps=0.005."""
    row = next(r for r in sweep_a["rows"] if r.eps == 0.005)
    assert 0.85 <= row.escape_ratio_l <= 1.15
    assert 0.85 <= row.escape_ratio_r <= 1.15
    report("criterion-6",
           f"ratios left {row.escape_ratio_l:.3f}, right {row.escape_ratio_r:.3f} "
           "in [0.85, 1.15]")


def test_criterion_7_boundary_violation_family():
    """Family B: hole ratio still 1/3 but phi collapses onto the right
    density, not the mixture."""
    fam = family_b()
    n, eps = 3840, 0.01
    P = build_ulam(fam.instantiate(eps), n)
    phi = invariant_density(P, tol=1e-10).phi
    phi_l, phi_r = ergodic_densities(build_ulam(fam.base, n), n // 2)
    d_right = phi.l1_distance(phi_r)
    _, mixture = predict_mixture(1 / 3, phi_l, phi_r)
    d_mix = phi.l1_distance(mixture)
    holes = hole_measures(compute_holes(fam.instantiate(eps), 0.5), phi_l, phi_r)
    assert d_right < 0.10
    assert d_mix > 0.30
    assert abs(holes.ratio - 1 / 3) <= 0.02
    report("criterion-7",
           f"L1(phi, right density) = {d_right:.4f} < 0.10, "
           f"L1(phi, mixture) = {d_mix:.4f} > 0.30, hole ratio {holes.ratio:.4f}")


def test_criterion_8_jump_decay():
    """Jump tail sums below lam^-m C_LY; every detected jump sits on a
    depth <= 6 postcritical point.  Uses n = 3900 so the postcritical points
    of eps = 0.01 (multiples of 0.01 and 1/6) are cell boundaries; off-grid
    jumps would smear into satellite pairs the matcher rightly rejects."""
    fam = family_a()
    eps, n = 0.01, 3900
    T = fam.instantiate(eps)
    P = build_ulam(T, n)
    phi = invariant_density(P, tol=1e-10).phi
    ly = lasota_yorke_constants(T, base=fam.base)
    hier = postcritical_hierarchy(T, 6)
    dec = saltus_decompose(phi, hier, lip_bound=ly.C_LY)
    assert dec.jumps and not dec.unmatched()
    assert all(j.depth <= 6 for j in dec.jumps)
    rows = jump_decay_profile(dec, ly, 4)
    for r in rows:
        assert r.tail <= 1.1 * 3.0 ** (-r.m) * 72.0, (r.m, r.tail)
    report("criterion-8",
           f"{len(dec.jumps)} jumps all matched (max depth "
           f"{max(j.depth for j in dec.jumps)}), tails "
           f"{['%.3f' % r.tail for r in rows]} within 1.1 * 3^-m * 72")


def test_criterion_9_uniform_variation_bound(sweep_a):
    """TV(phi_eps) <= 72 on every row; regular-part Lipschitz estimates stay
    below one sweep-wide constant."""
    fam = sweep_a["ctx"].family
    tvs, lips = [], []
    for r in sweep_a["rows"]:
        art = sweep_a["arts"][r.eps]
        tv = art.phi.total_variation()
        assert tv <= 72.0
        tvs.append(tv)
        ly = lasota_yorke_constants(art.map_eps, base=fam.base)
        hier = postcritical_hierarchy(art.map_eps, 6)
        dec = saltus_decompose(art.phi, hier, lip_bound=ly.C_LY)
        lips.append(dec.lipschitz_estimate)
    lip_cap = 5.0 * 72.0     # detection threshold times grid size
    assert all(lip <= lip_cap for lip in lips)
    report("criterion-9",
           f"TV max {max(tvs):.3f} <= 72; Lipschitz estimates "
           f"{['%.0f' % lip for lip in lips]} all <= {lip_cap:.0f}")


def test_criterion_10_refinement_and_dense_oracle(sweep_a, ulam_a_768):
    """Ulam refinement 1920 -> 3840 below 0.02; iterative second pair matches
    the dense eigensolve at n = 768."""
    fam = sweep_a["ctx"].family
    P_coarse = build_ulam(fam.instantiate(0.01), 1920)
    phi_coarse = invariant_density(P_coarse, tol=1e-10).phi
    phi_fine = sweep_a["arts"][0.01].phi
    refine = float(np.mean(np.abs(np.repeat(phi_coarse.values, 2) - phi_fine.values)))
    assert refine < 0.02

    res = invariant_density(ulam_a_768, tol=1e-10)
    rho_it, psi_it = second_eigenpair(ulam_a_768, res.phi, Interval(0, 0.5),
                                      tol=1e-10)
    lam2, vec = dense_top_eigenpairs(ulam_a_768, k=2)[1]
    assert abs(lam2.imag) <= 1e-10
    assert abs(rho_it - lam2.real) <= 1e-6
    dense_psi = DensityGrid(768, np.real(vec))
    if dense_psi.integrate(0, 0.5) < 0:
        dense_psi = DensityGrid(768, -dense_psi.values)
    dense_psi = DensityGrid(768, dense_psi.values / dense_psi.l1_norm())
    psi_err = psi_it.l1_distance(dense_psi)
    assert psi_err <= 1e-4
    report("criterion-10",
           f"refinement L1 {refine:.5f} < 0.02; dense oracle gaps "
           f"rho {abs(rho_it - lam2.real):.2e} <= 1e-6, psi {psi_err:.2e} <= 1e-4")
