import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (FINE_EPS, FINE_N, block_rates, corrected_step_reference,
                      dense_top_eigenpairs, plain_power, record_solves, scipy_csc,
                      three_block_cycle)

import metamap
from metamap import spectral
from metamap.map_model import Interval
from metamap.metastability import prepare_sweep, run_sweep_row
from metamap.scenarios import load_scenario
from metamap.spectral import (START_SEED, DegenerateSpectrumError, SolverError,
                              escape_rate, invariant_density, second_eigenpair)
from metamap.transfer_operator import (CSCArrays, DensityGrid, UlamMatrix, build_ulam,
                                       cells_with_center_in)


def markov_matrix(eps_lr, eps_rl):
    return UlamMatrix.from_matrix(np.array([[1 - eps_lr, eps_lr],
                                            [eps_rl, 1 - eps_rl]]))

def test_markov2_stationary_closed_form():
    # alpha = eps_rl / (eps_lr + eps_rl) = 0.75 for rates (0.01, 0.03)
    P = markov_matrix(0.01, 0.03)
    res = invariant_density(P, tol=1e-12)
    assert res.leading_simple
    measures = res.phi.values / P.n
    assert measures[0] == pytest.approx(0.75, abs=1e-10)
    assert measures[1] == pytest.approx(0.25, abs=1e-10)

def test_markov2_second_eigenpair():
    P = markov_matrix(0.01, 0.03)
    res = invariant_density(P, tol=1e-12)
    rho, psi = second_eigenpair(P, res.phi, Interval(0.0, 0.5), tol=1e-12)
    assert rho == pytest.approx(0.96, abs=1e-10)
    # density analog of (delta_l - delta_r)/2 on two cells is (1, -1)
    assert psi.values[0] == pytest.approx(1.0, abs=1e-9)
    assert psi.values[1] == pytest.approx(-1.0, abs=1e-9)
    assert psi.integrate(0.0, 0.5) > 0
    assert abs(np.mean(psi.values)) <= 1e-12

def test_eps_zero_degenerate_top_eigenvalue(fam_a):
    P = build_ulam(fam_a.base, 768)
    res = invariant_density(P, tol=1e-10)
    assert not res.leading_simple
    assert res.probe_phi is not None
    assert res.probe_distance > 10 * 1e-10
    # the two limits are fixed densities supported on opposite halves
    uniform, left = res.phi, res.probe_phi
    assert np.max(np.abs(uniform.values - 1.0)) <= 1e-9
    assert np.max(np.abs(left.values[:384] - 2.0)) <= 1e-9
    assert np.max(np.abs(left.values[384:])) <= 1e-9

def test_invariant_density_unique_for_positive_eps(ulam_a_768):
    res = invariant_density(ulam_a_768, tol=1e-10)
    assert res.leading_simple
    phi = res.phi
    assert phi.values.min() >= 0.0
    assert np.mean(phi.values) == pytest.approx(1.0, abs=1e-10)
    assert res.residual <= 1e-9

def test_invariant_density_max_iter_exceeded(ulam_a_768, monkeypatch):
    monkeypatch.setattr(spectral, "_default_max_iter", lambda n: 3)
    with pytest.raises(SolverError):
        invariant_density(ulam_a_768, tol=1e-10)

def test_second_eigenpair_out_of_steps_names_top_ritz_value(ulam_a_768, monkeypatch):
    # rho = 0.97074: its Ritz value is real and not 1, so the run that ran
    # out of steps is reported with it rather than returned
    res = invariant_density(ulam_a_768, tol=1e-10)
    monkeypatch.setattr(spectral, "_default_max_iter", lambda n: 3)
    with pytest.raises(SolverError, match=r"did not converge in 3 steps.*top Ritz "
                                          r"value of the last iterate is 0\.97"):
        second_eigenpair(ulam_a_768, res.phi, Interval(0, 0.5), tol=1e-10)

def test_second_eigenpair_matches_dense_oracle(ulam_a_768):
    res = invariant_density(ulam_a_768, tol=1e-10)
    rho_it, psi_it = second_eigenpair(ulam_a_768, res.phi, Interval(0, 0.5), tol=1e-10)

    pairs = dense_top_eigenpairs(ulam_a_768, k=2)
    lam1, _ = pairs[0]
    lam2, vec = pairs[1]
    assert abs(lam1 - 1.0) <= 1e-9
    assert abs(lam2.imag) <= 1e-10
    assert abs(rho_it - lam2.real) <= 1e-6
    vals = np.real(vec)
    dense_psi = DensityGrid(768, vals)
    if dense_psi.integrate(0, 0.5) < 0:
        dense_psi = DensityGrid(768, -vals)
    dense_psi = DensityGrid(768, dense_psi.values / dense_psi.l1_norm())
    assert psi_it.l1_distance(dense_psi) <= 1e-4

def test_psi_normalization_invariants(ulam_a_768):
    res = invariant_density(ulam_a_768, tol=1e-10)
    rho, psi = second_eigenpair(ulam_a_768, res.phi, Interval(0, 0.5), tol=1e-10)
    assert 0.0 < rho < 1.0
    assert abs(np.mean(psi.values)) <= 1e-8
    assert psi.l1_norm() == pytest.approx(1.0, abs=1e-10)
    assert psi.integrate(0.0, 0.5) > 0.0
    residual = np.mean(np.abs(ulam_a_768.apply(psi.values) - rho * psi.values))
    assert residual <= 1e-8

def test_deflation_restarts_from_seeded_noise():
    # symmetric doubly stochastic chain whose block start 1_[0,2) - 1_[2,4)
    # is itself an eigenvector, of eigenvalue 0.1: only the start's seeded
    # noise has a component along the second eigenvector (1, -1, 1, -1), of
    # eigenvalue 0.5, and the iteration runs on it
    a, b, c = (np.array(v, dtype=float) for v in ([1, 1, -1, -1], [1, -1, 1, -1],
                                                  [1, -1, -1, 1]))
    P = UlamMatrix.from_matrix((1.0 + 0.1 * np.outer(a, a) + 0.5 * np.outer(b, b)
                                + 0.2 * np.outer(c, c)) / 4.0)
    res = invariant_density(P, tol=1e-12)
    assert np.max(np.abs(res.phi.values - 1.0)) <= 1e-10
    rho, psi = second_eigenpair(P, res.phi, Interval(0.0, 0.5), tol=1e-10)
    assert rho == pytest.approx(0.5, abs=1e-9)
    assert np.max(np.abs(np.abs(psi.values) - 1.0)) <= 1e-8
    assert abs(np.mean(psi.values)) <= 1e-9
    assert psi.l1_norm() == pytest.approx(1.0, abs=1e-10)

def test_slow_contraction_converges_without_stalling():
    # rho = 0.998: one real slow mode, which plain power iteration settles
    # in 11,375 steps
    P = markov_matrix(1e-3, 1e-3)
    phi, _ = plain_power(P, np.array([2.0, 0.0]), 1e-10)
    assert np.max(np.abs(phi - 1.0)) <= 1e-9
    # a complex pair of modulus ~0.997 rotates: the step change shrinks by
    # only ~0.55 per 200-step window, slowly but steadily, so its 7,719
    # steps are convergence, not a stall
    theta = 2e-3
    P = UlamMatrix.from_matrix(np.array([[1 - theta, theta, 0],
                                         [0, 1 - theta, theta],
                                         [theta, 0, 1 - theta]]))
    phi, steps = plain_power(P, np.array([3.0, 0.0, 0.0]), 1e-10)
    assert steps > 400
    assert np.max(np.abs(phi - 1.0)) <= 1e-9

def test_escape_rate_empty_hole_is_zero(fam_a):
    P0 = build_ulam(fam_a.base, 768)
    assert escape_rate(P0, [], 384) == (0.0, 0.0)
    # a block without hole cells is held at zero: rate 0.0, not -0.0
    left, right = escape_rate(P0, [250], 384)
    assert left > 0.0 and math.copysign(1.0, right) == 1.0 and right == 0.0

def test_escape_rate_full_hole_rejected(fam_a):
    P0 = build_ulam(fam_a.base, 48)
    for hole in (range(24), range(24, 48), [3] + list(range(24, 48))):
        with pytest.raises(ValueError, match="whole block"):
            escape_rate(P0, list(hole), 24)

def test_escape_rate_hole_outside_subdomain_rejected(fam_a):
    # without the range check a negative index would silently wrap
    P0 = build_ulam(fam_a.base, 48)
    for cell in (-1, P0.n, 1000):
        with pytest.raises(ValueError, match="outside 0..47"):
            escape_rate(P0, [3, cell], 24)
    for k in (0, 48):
        with pytest.raises(ValueError, match="0 < k < n"):
            escape_rate(P0, [3], k)

def test_escape_rate_on_a_leaking_matrix_rejected(fam_a):
    # eps = 0.01 opens holes between the blocks [0, 24) and [24, 48): the
    # run refuses the matrix and names the block that leaks
    P = build_ulam(fam_a.instantiate(0.01), 48)
    with pytest.raises(ValueError, match=r"block \[0, 24\) of 48 cells is not invariant: "
                                         r"row 15 moves 0\.48 of its mass"):
        escape_rate(P, [3, 30], 24)
    # a split off the boundary cuts the left half's closed system
    with pytest.raises(ValueError, match=r"block \[0, 12\) of 48 cells is not invariant: "
                                         r"row 4 moves 1 of"):
        escape_rate(build_ulam(fam_a.base, 48), [3], 12)

    # a leak from the right block only, at and past the per-row bound 1e-9
    def chain(leak):
        return UlamMatrix.from_matrix(np.array([[0.5, 0.5, 0, 0], [0.5, 0.5, 0, 0],
                                                [0, 0, 0.5, 0.5], [leak, 0, 0.5, 0.5 - leak]]))
    # within the bound the leak escapes with the hole's mass
    assert escape_rate(chain(5e-10), [0, 2], 2) == pytest.approx(
        escape_rate(chain(0.0), [0, 2], 2), rel=0, abs=2e-9)
    with pytest.raises(ValueError, match=r"block \[2, 4\) of 4 cells is not invariant: "
                                         r"row 3 moves 2e-09 of"):
        escape_rate(chain(2e-9), [0, 2], 2)

def test_escape_rate_all_mass_escaping_named():
    # every row of the block [0, 2) maps onto its hole cell 1 at once
    P = UlamMatrix.from_matrix(np.array([[0, 1, 0, 0], [0, 1, 0, 0],
                                         [0, 0, 0.5, 0.5], [0, 0, 0.5, 0.5]]))
    with pytest.raises(DegenerateSpectrumError,
                       match=r"all mass of block \[0, 2\) escapes in one step"):
        escape_rate(P, [1, 2], 2)

def test_escape_monotone_in_hole(fam_a):
    P0 = build_ulam(fam_a.base, 768)
    small = escape_rate(P0, range(250, 254), 384)[0]
    large = escape_rate(P0, range(250, 258), 384)[0]
    nested = escape_rate(P0, list(range(250, 258)) + [100], 384)[0]
    assert small <= large <= nested
    assert small > 0

def test_escape_eigenvalue_matches_dense_oracle(fam_a):
    # one run gives both blocks' rates: each matches the top eigenvalue of
    # its own block of P0 with the hole columns zeroed
    n, k = 768, 384
    P0 = build_ulam(fam_a.base, n)
    hole = list(range(250, 254)) + list(range(520, 530))
    rates = escape_rate(P0, hole, k)
    Q = scipy_csc(P0).toarray()
    Q[:, hole] = 0.0
    for block, rate in zip((slice(0, k), slice(k, n)), rates):
        lam = np.max(np.abs(np.linalg.eigvals(Q[block, block])))
        assert abs(math.exp(-rate) - lam) <= 1e-13 * lam

def test_escape_rate_tracks_hole_measure(fam_a):
    # left system with the hole opened by eps = 0.02 at 1/3
    n, eps = 768, 0.02
    P0 = build_ulam(fam_a.base, n)
    hole = cells_with_center_in([Interval(1 / 3 - eps, 1 / 3)], n)
    assert 0.85 <= 2 * eps / escape_rate(P0, hole, n // 2)[0] <= 1.15

@pytest.mark.parametrize("family", ["fam_a", "fam_b"])
def test_solvers_are_reentrant(request, family):
    # the steps work in place on their own vectors and keep references
    # between steps (the corrected density step keeps a scratch buffer): a
    # second call on the same inputs must repeat every bit and leave the
    # inputs as they were (family B's density iterates pass through
    # negative cells)
    fam = request.getfixturevalue(family)
    n = 1200
    P = build_ulam(fam.instantiate(0.01), n)
    P0 = build_ulam(fam.base, n)
    hole = cells_with_center_in([Interval(1 / 3 - 0.01, 1 / 3), Interval(2 / 3, 0.7)], n)
    inputs = [a.copy() for a in (P.matrix.data, P0.matrix.data, hole)]

    def solve():
        res = invariant_density(P)
        rho, psi = second_eigenpair(P, res.phi, Interval(0.0, 0.5))
        return res, rho, psi, escape_rate(P0, hole, n // 2)

    def bits(out):
        res, rho, psi, rates = out
        return (res.phi.values.tobytes(), res.psi.values.tobytes(), res.rho,
                res.residual, res.iterations, *block_rates(P, res.phi.values, n // 2),
                rho, psi.values.tobytes(), rates)

    first = solve()
    snapshot = bits(first)
    # the first call's arrays must not be overwritten by the second call
    assert bits(solve()) == snapshot == bits(first)
    for before, after in zip(inputs, (P.matrix.data, P0.matrix.data, hole)):
        assert before.tobytes() == after.tobytes()

def test_complex_second_eigenvalue_detected():
    # three-state cyclic chain: eigenvalues 1 and a complex pair.  The
    # density solve raises rather than return a verdict, and so does the
    # second eigenpair on the plain power-iteration limit
    theta = 0.9
    P = UlamMatrix.from_matrix(np.array([[1 - theta, theta, 0],
                                         [0, 1 - theta, theta],
                                         [theta, 0, 1 - theta]]))
    with pytest.raises(DegenerateSpectrumError, match="complex"):
        invariant_density(P, tol=1e-12, k=1)
    phi, _ = plain_power(P, np.array([3.0, 0.0, 0.0]), 1e-12)
    assert np.max(np.abs(phi - 1.0)) <= 1e-10
    with pytest.raises(DegenerateSpectrumError, match="complex"):
        second_eigenpair(P, DensityGrid(3, phi), Interval(0.0, 1 / 3), tol=1e-12)

def test_complex_second_eigenvalue_leaves_leading_simple():
    # the complex pair of the three-state cycle lies inside the unit circle,
    # so eigenvalue 1 stays simple: every nonnegative start settles on the
    # uniform density.  The density solve refuses a verdict for the pair
    # rather than report eigenvalue 1 as not simple
    theta = 0.9
    P = UlamMatrix.from_matrix(np.array([[1 - theta, theta, 0],
                                         [0, 1 - theta, theta],
                                         [theta, 0, 1 - theta]]))
    (lam1, _), (lam2, _) = dense_top_eigenpairs(P, k=2)
    assert abs(lam1 - 1.0) <= 1e-12
    assert abs(lam2.imag) > 0.1 and abs(lam2) < 1.0 - 0.1
    for start in ([3.0, 0.0, 0.0], [0.0, 1.0, 2.0], [1.0, 1.0, 1.0]):
        phi, _ = plain_power(P, np.array(start), 1e-12)
        assert np.max(np.abs(phi - 1.0)) <= 1e-10, start
    with pytest.raises(DegenerateSpectrumError, match="complex"):
        invariant_density(P, tol=1e-12, k=2)


def test_complex_second_eigenvalue_named_at_large_n():
    # the deflated run stalls on the rotating pair -0.35 +- 0.779i, and the
    # Ritz check on its last iterate names the pair at a size no dense
    # eigensolve reaches
    P = three_block_cycle(12288)
    with pytest.raises(DegenerateSpectrumError, match="complex"):
        invariant_density(P, k=P.n // 3)
    phi, _ = plain_power(P, np.ones(P.n), 1e-10)
    with pytest.raises(DegenerateSpectrumError, match="complex"):
        second_eigenpair(P, DensityGrid(P.n, phi), Interval(0.0, 1 / 3))


def test_aggregation_steps_flat_in_eps(fam_a):
    # plain power iteration needs ~1/eps steps here (263 ... 8358); the
    # psi-corrected run takes 21-23, as the second pair's run does
    n = 1536
    for eps in (0.05, 0.02, 0.005, 0.002):
        res = invariant_density(build_ulam(fam_a.instantiate(eps), n), tol=1e-10)
        assert res.leading_simple
        assert res.iterations <= 50, (eps, res.iterations)


def test_density_solve_keeps_the_second_eigenpair(ulam_a_768):
    # the pair that decides simplicity is the one second_eigenpair returns
    res = invariant_density(ulam_a_768, tol=1e-10)
    rho, psi = second_eigenpair(ulam_a_768, res.phi, Interval(0, 0.5), tol=1e-10)
    assert res.rho == rho
    assert np.array_equal(res.psi.values, psi.values)


@pytest.mark.parametrize("lo, hi", [(0.0, 0.0), (0.0, 1.0), (0.125, 0.25)])
def test_left_block_must_be_a_proper_leading_block(ulam_a_768, lo, hi):
    # [0,0) covers k = 0 cells and [0,1) all n, so one block is empty; the
    # blocks are [0,k) and [k,n), so I_l must start at 0
    with pytest.raises(ValueError, match=r"must be \[0,b\) covering k cells"):
        second_eigenpair(ulam_a_768, None, Interval(lo, hi))


@pytest.mark.parametrize("k", [-1, 0, 768, 769])
def test_invariant_density_refuses_an_empty_block(ulam_a_768, k):
    with pytest.raises(ValueError, match=rf"block split k = {k} must leave 0 < k < n = 768"):
        invariant_density(ulam_a_768, k=k)


def test_aggregation_waits_for_settled_weight(fam_a):
    # a block-weight correction applied from a start whose first mass sat
    # in cells without exit once wiped out the left block.  The psi
    # correction needs no wait: it removes only the psi component, which
    # the second pair's run has already settled, and at eps=0 (where rho is
    # 1) the plain mass step runs (test_eps_zero_degenerate_top_eigenvalue)
    res = invariant_density(build_ulam(fam_a.instantiate(0.02), 768), tol=1e-10)
    assert res.leading_simple
    assert res.residual <= 1e-9


def test_aggregation_converges_on_boundary_violating_family(fam_b):
    # the slow mode drains the left half, and the correction removes it at
    # its rate rho from the first step: 20 steps, where the two-block
    # aggregation step took 80 with 10 jumps
    n = 3840
    res = invariant_density(build_ulam(fam_b.instantiate(2e-4), n), tol=1e-10)
    assert res.leading_simple
    assert res.residual <= 1e-9


@pytest.mark.parametrize("eps", [0.02, 0.01, 0.005])
def test_jump_steps_flat_in_eps_on_boundary_violating_family(fam_b, eps):
    # the slow mode is a drain into a strip that returns at once, not a block
    # exchange: a two-block aggregation step alone needed ~1/eps steps here
    # (266 / 559 / 1162).  The psi-corrected steps take 22-24.  The name
    # dates from the kernel's one-mode jump, which took 34 / 43 / 52
    n = 1536
    res = invariant_density(build_ulam(fam_b.instantiate(eps), n), tol=1e-10)
    assert res.leading_simple
    assert res.iterations <= 150, res.iterations


@pytest.mark.parametrize("eps", [0.02, 0.01, 0.005])
def test_invariant_density_nonnegative_after_jumps(fam_b, eps):
    # the psi correction drives iterates to -0.08 in cells where the density
    # vanishes, and the limit keeps values down to ~-3e-11 there, which the
    # clip removes.  The name dates from the kernel's one-mode jumps, which
    # left such values too
    n = 1536
    res = invariant_density(build_ulam(fam_b.instantiate(eps), n), tol=1e-10)
    assert res.phi.values.min() >= 0.0
    assert np.mean(res.phi.values) == pytest.approx(1.0, abs=1e-12)


def test_jump_refused_where_it_would_leave_the_nonnegative_cone():
    # lazy walk on 12 cells drifting right: the density grows from ~0.003 in
    # cell 0 to ~6 in cell 11, and rho = 0.9973 is no isolated slow mode
    # (the third eigenvalue is 0.9945), so the corrected density run
    # contracts at 0.9945: 4,295 steps, every iterate nonnegative.  The
    # name dates from the kernel's one-mode jump, which would have taken
    # cells down to -0.024 here
    m, p, q = 12, 0.02, 0.01
    A = np.diag(np.full(m - 1, p), 1) + np.diag(np.full(m - 1, q), -1)
    A += np.diag(1.0 - A.sum(axis=1))
    P = UlamMatrix.from_matrix(A)
    res = invariant_density(P, tol=1e-10, k=1)
    assert res.leading_simple
    assert res.residual <= 1e-9
    # the deflated run contracts at 0.9945/0.9973 per step for 8,166 steps;
    # no window of it may read as a stall
    assert abs(res.rho - dense_top_eigenpairs(P, k=2)[1][0].real) <= 1e-10


@pytest.mark.parametrize("eps", [1e-4, 12 / 122880])
def test_density_steps_flat_in_eps_at_large_n(fam_b, eps):
    # 24 and 25 steps; the two-block aggregation step took 3,753 at eps=1e-4
    # and 101 at 12/n
    res = invariant_density(build_ulam(fam_b.instantiate(eps), 122880), tol=1e-10)
    assert res.leading_simple
    assert res.iterations <= 40, res.iterations
    assert res.residual <= 10 * 1e-10


@pytest.mark.parametrize("family", ["fam_a", "fam_b"])
def test_folded_correction_reaches_the_reference_fixed_point(request, family):
    # <P psi - psi, x> is <psi, P^T x - x>, read from the step's input: the
    # run takes the reference's steps to the reference's limit (the two
    # differ by at most 1.8e-14 per cell here)
    n = 122880
    P = build_ulam(request.getfixturevalue(family).instantiate(12 / n), n)
    rho, psi = second_eigenpair(P, None, Interval(0.0, 0.5), 1e-10)
    got, steps = spectral._iterate(spectral._corrected_step(P, rho, psi.values),
                                   np.ones(n), 1e-10)
    ref, ref_steps = spectral._iterate(corrected_step_reference(P, rho, psi.values),
                                       np.ones(n), 1e-10)
    assert steps == ref_steps
    assert np.max(np.abs(got - ref)) <= 1e-13


@pytest.mark.parametrize("family", ["fam_a", "fam_b"])
def test_density_steps_on_the_fine_ladder(request, family):
    # the rows of the sweep_*_fine benchmark: 22-25 steps on both families,
    # where the aggregation step took 25-29 (A) and 46-67 (B)
    fam = request.getfixturevalue(family)
    for eps in (0.0064, 0.0032, 0.0016, 0.0008):
        res = invariant_density(build_ulam(fam.instantiate(eps), 15360), tol=1e-10)
        assert res.iterations <= 35, (eps, res.iterations)


@pytest.mark.parametrize("family", ["fam_a", "fam_b"])
def test_sweep_row_steps_on_the_fine_ladder(request, monkeypatch, family):
    # every solve of a sweep_*_fine row: the second pair takes 20-23 steps,
    # the density 22-25 and the one escape run for both sides 21-23 at the
    # sweep's tol
    bounds = {"_second_pair": 26, "_corrected_step": 35, "escape_rate": 25}
    ctx = prepare_sweep(request.getfixturevalue(family), FINE_EPS, FINE_N)
    calls = record_solves(monkeypatch)
    for eps in FINE_EPS:
        calls.clear()
        row, _ = run_sweep_row(ctx, eps)
        assert row.error is None, row.error
        steps = [(solver, k) for solver, _, _, k in calls]
        assert [solver for solver, _ in steps] == [
            "_second_pair", "_corrected_step", "escape_rate"]
        assert all(k <= bounds[solver] for solver, k in steps), (eps, steps)


def test_deflated_start_built_once_per_grid(fam_a, monkeypatch):
    # the start depends only on (n, k): each grid and each left block gets
    # its own read-only array
    cases = [(768, Interval(0.0, 0.5)), (1200, Interval(0.0, 0.5)), (768, Interval(0.0, 0.25))]
    calls = record_solves(monkeypatch)
    for n, I_l in cases + cases:
        second_eigenpair(build_ulam(fam_a.instantiate(0.01), n), None, I_l)
    starts = [w for _, _, w, _ in calls]
    for first, again in zip(starts, starts[len(cases):]):
        assert again is first
        assert not first.flags.writeable
    assert len({id(w) for w in starts}) == len(cases)


def test_deflated_start_is_exactly_plus_and_minus_one_on_the_blocks():
    # on an uneven split the start is +1 on [0,k) and -1 on [k,n) to the
    # bit before its seeded component is added and the mean removed; the
    # cell averages of the indicator of [0, 1/3) it replaced carried
    # rounding of ~1e-13 in single cells.  The component is splitmix64's
    # stream from START_SEED, here in Python integers
    n, k = 999, 333
    mask, state, draws = 2 ** 64 - 1, START_SEED, []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        draws.append(((z ^ (z >> 31)) >> 11) * 2.0 ** -53 - 0.5)
    w = np.where(np.arange(n) < k, 1.0, -1.0)
    w += 1e-6 * np.array(draws)
    w = w - np.mean(w)
    w /= np.mean(np.abs(w))
    assert spectral._deflated_start(n, k).tobytes() == w.tobytes()


def test_density_solve_independent_of_blas_threads():
    # every dot product is an einsum, so the BLAS thread count moves no bit.
    # While the exit probabilities used @ and steered the aggregation step,
    # this run took 224 steps on one thread and 985 on two
    code = (
        "import hashlib, numpy as np\n"
        "from conftest import block_rates\n"
        "from metamap.families import family_b\n"
        "from metamap.spectral import invariant_density\n"
        "from metamap.transfer_operator import build_ulam\n"
        "P = build_ulam(family_b().instantiate(2e-4), 61440)\n"
        "res = invariant_density(P)\n"
        "h = hashlib.sha256(res.phi.values.tobytes() + res.psi.values.tobytes()\n"
        "                   + np.array([res.rho, *block_rates(P, res.phi.values, P.n // 2)])\n"
        "                   .tobytes())\n"
        "print(res.iterations, h.hexdigest())\n")
    src = os.path.dirname(os.path.dirname(metamap.__file__))
    path = os.pathsep.join([src, os.path.dirname(os.path.abspath(__file__))])
    outs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True, timeout=120,
                           env={**os.environ, "PYTHONPATH": path,
                                "OPENBLAS_NUM_THREADS": threads}).stdout
            for threads in ("1", "2")]
    assert outs[0] == outs[1]


@pytest.mark.parametrize("family, n, eps", [("fam_a", 15360, 0.0064), ("fam_a", 15360, 0.0008),
                                            ("fam_b", 15360, 0.0064), ("fam_b", 15360, 0.0008),
                                            ("fam_b", 122880, 1e-4)])
def test_density_and_rho_match_arpack_beyond_the_dense_oracle(request, family, n, eps):
    # ARPACK's Arnoldi iteration is independent of the power-iteration
    # kernel and reaches grid sizes where no dense eigensolve does; the
    # worst distances are 2.9e-11 (phi), 4.5e-12 (rho) and 2.2e-11 (psi)
    from scipy.sparse.linalg import eigs

    P = build_ulam(request.getfixturevalue(family).instantiate(eps), n)
    res = invariant_density(P, tol=1e-10)
    vals, vecs = eigs(scipy_csc(P).T, k=2, which="LM", v0=np.random.default_rng(0).random(n))
    top, second = np.argsort(-np.abs(vals))
    assert abs(vals[top] - 1.0) <= 1e-12 and abs(vals[second].imag) <= 1e-12
    phi = vecs[:, top].real
    assert np.mean(np.abs(phi / np.mean(phi) - res.phi.values)) <= 2e-10
    assert abs(vals[second].real - res.rho) <= 1e-11
    # psi's convention: L1-normalized, positive integral over I_l = [0, 1/2)
    psi = vecs[:, second].real
    psi = psi / np.mean(np.abs(psi))
    if DensityGrid(n, psi).integrate(0.0, 0.5) < 0.0:
        psi = -psi
    assert np.mean(np.abs(psi - res.psi.values)) <= 1e-10


def _plain_limit(P, start, tol, max_iter):
    """Power iteration without correction, written out on its own and
    stopped by the kernel's rule; returns the limit and the step count.
    The reference for the kernel and for the corrected density step."""
    w, prev = start / np.mean(start), math.inf
    for k in range(1, max_iter + 1):
        nxt = P.apply(w)
        nxt /= np.mean(nxt)
        diff, w = float(np.mean(np.abs(nxt - w))), nxt
        r = diff / prev
        if diff <= tol and (diff == 0.0 or (r < 1.0 and diff * r / (1.0 - r) <= tol)):
            return w, k
        prev = diff
    raise SolverError("plain power iteration did not settle")


def _plain_verdict(P, probe, tol, max_iter):
    phi1, _ = _plain_limit(P, np.ones(P.n), tol, max_iter)
    phi2, _ = _plain_limit(P, probe, tol, max_iter)
    return float(np.mean(np.abs(phi1 - phi2))) <= 10.0 * tol


def _random_chain(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.random((n, n))
    return UlamMatrix.from_matrix(A / A.sum(axis=1, keepdims=True)), rng.random(n)


@pytest.mark.parametrize("P, start", [
    (markov_matrix(1e-3, 1e-3), np.array([2.0, 0.0])),
    (UlamMatrix.from_matrix(np.array([[1 - 2e-3, 2e-3, 0], [0, 1 - 2e-3, 2e-3],
                                      [2e-3, 0, 1 - 2e-3]])), np.array([3.0, 0.0, 0.0])),
    _random_chain(40, 7),
], ids=["two_state", "rotating_3_cycle", "random_40"])
def test_kernel_is_plain_power_iteration(P, start):
    # the mass-step kernel takes exactly the steps of plain power iteration
    # and lands on the same bits: 11,375 steps on the two-state chain,
    # 7,719 on the 3-cycle, whose complex pair rotates
    phi, steps = plain_power(P, start, 1e-10)
    ref, ref_steps = _plain_limit(P, start, 1e-10, max_iter=20000)
    assert steps == ref_steps
    assert phi.tobytes() == ref.tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_step_change_stops_the_run(bad):
    # a NaN step change fails diff <= tol and the stall test alike, so the
    # run used to spend its whole budget (20,000 steps on 8 cells) and then
    # report "did not converge"; it stops on the first one that is not finite
    calls = []

    def step(w):
        calls.append(w)
        return 0.5 * w if len(calls) < 3 else np.full(8, bad)

    with pytest.raises(SolverError, match=rf"step 3 has a step change of {bad}, "
                                          "which is not finite") as exc:
        spectral._iterate(step, np.ones(8), 1e-10)
    assert len(calls) == 3
    assert exc.value.iterate is None and not exc.value.stalled


def test_second_eigenpair_on_nan_entries_names_them():
    # the deflated run turns NaN at once; the Ritz check of a stalled run
    # is not attempted on a NaN iterate, so the SolverError reaches the row
    P = UlamMatrix(n=2, matrix=CSCArrays(np.array([0, 2, 4], dtype=np.int32),
                                         np.array([0, 1, 0, 1], dtype=np.int32),
                                         np.array([0.5, math.nan, 0.5, 0.5])))
    with pytest.raises(SolverError, match="step 1 has a step change of nan"):
        second_eigenpair(P, None, Interval(0.0, 0.5))
    with pytest.raises(SolverError, match="not finite"):
        invariant_density(P)


@pytest.mark.parametrize("col", [20, 44])
def test_nan_entry_in_a_middle_column_named_at_step_1(fam_a, col):
    # past n = 32 a step is first read on its end blocks only; every solver
    # step rescales a block by a sum over it, so a NaN in [0, 32) reaches
    # cell 0, one in [32, 64) cell 63, and the run still names it at the
    # step where it appears
    n = 64

    def with_nan(P):
        m = P.matrix
        data = m.data.copy()
        data[m.indptr[col]] = math.nan
        return UlamMatrix(n=n, matrix=CSCArrays(m.indptr, m.indices, data))

    P = with_nan(build_ulam(fam_a.instantiate(0.01), n))
    with pytest.raises(SolverError, match="step 1 has a step change of nan"):
        second_eigenpair(P, None, Interval(0.0, 0.5))
    with pytest.raises(SolverError, match="step 1 has a step change of nan"):
        invariant_density(P)
    with pytest.raises(SolverError, match="step 1 has a step change of nan"):
        escape_rate(with_nan(build_ulam(fam_a.base, n)), [3, 40], n // 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_end_blocks_stop_the_run_at_once(bad):
    # an end sum that is not finite is read in full, so an infinite one is
    # named at its own step, not as the NaN of the step after
    n = 4096
    calls = []

    def step(w):
        calls.append(w)
        return 0.5 * w if len(calls) < 3 else np.full(n, bad)

    with pytest.raises(SolverError, match=rf"step 3 has a step change of {bad}, "):
        spectral._iterate(step, np.ones(n), 1e-10)
    assert len(calls) == 3


def test_nan_in_the_middle_cells_only_named_by_the_stall_window():
    # a caller's step whose NaN stays off the end blocks, while the ends
    # keep moving, is read in full at step STALL_WINDOW at the latest
    n = 4096
    sign = np.ones(n)
    sign[:n // 32] = sign[-(n // 32):] = -1.0

    def step(w):
        nxt = w * sign
        nxt[n // 2] = math.nan
        return nxt

    with pytest.raises(SolverError, match=rf"step {spectral.STALL_WINDOW} has a step "
                                          "change of nan"):
        spectral._iterate(step, np.ones(n), 1e-10)


def full_read_iterate(step, w, tol):
    """``spectral._iterate`` reading the full step change at every step,
    the kernel's stopping rule before the end-block read."""
    n = w.size
    max_iter = spectral._default_max_iter(n)
    window = np.full(spectral.STALL_WINDOW, math.inf)
    diff = prev_diff = math.inf
    for k in range(1, max_iter + 1):
        nxt = step(w)
        diff = float(np.add.reduce(np.abs(nxt - w))) / n
        w = nxt
        r = diff / prev_diff if prev_diff > 0.0 else math.inf
        if diff <= tol and spectral._err_estimate(diff, r) <= tol:
            return w, k
        if not math.isfinite(diff):
            raise SolverError(f"power iteration step {k} has a step change of {diff}, "
                              "which is not finite")
        slot = k % spectral.STALL_WINDOW
        if k >= 2 * spectral.STALL_WINDOW and diff >= window[slot]:
            raise SolverError(f"power iteration stalled at step {k}", w, stalled=True)
        window[slot] = diff
        prev_diff = diff
    raise SolverError(f"power iteration did not converge in {max_iter} steps", w)


def _sweep_rows(monkeypatch, ctx, eps_list):
    """Each row of the sweep with its phi and psi bytes, and each kernel
    run's (solver, steps)."""
    calls = record_solves(monkeypatch)
    rows = []
    for eps in eps_list:
        row, art = run_sweep_row(ctx, eps)
        assert row.error is None, row.error
        rows.append((row, art.phi.values.tobytes(), art.psi.values.tobytes()))
    return rows, [(solver, k) for solver, _, _, k in calls]


@pytest.mark.parametrize("family, n, eps_list", [
    ("family_a", FINE_N, FINE_EPS), ("family_b", FINE_N, FINE_EPS),
    ("family_a", None, None), ("family_b", None, None)],
    ids=["a_fine", "b_fine", "a_builtin", "b_builtin"])
def test_end_block_read_keeps_every_step_and_bit(monkeypatch, family, n, eps_list):
    # the fine ladder of the sweep benchmarks and the builtin defaults:
    # the same rows, phi/psi bytes and steps per run as reading every step
    # in full
    scn = load_scenario(f"builtin:{family}")
    n, eps_list = n or scn.grid_n, eps_list or scn.eps_list
    ctx = prepare_sweep(scn.family, eps_list, n)
    got = _sweep_rows(monkeypatch, ctx, eps_list)
    monkeypatch.setattr(spectral, "_iterate", full_read_iterate)
    ref = _sweep_rows(monkeypatch, ctx, eps_list)
    assert got == ref


@pytest.mark.parametrize("where", ["middle", "ends"])
@pytest.mark.parametrize("rate", [0.2, 0.5, 0.9])
def test_end_block_read_matches_the_full_read(where, rate):
    # a step that moves only the middle cells is never skipped; one that
    # moves only the end blocks is skipped until its end sum falls to
    # 4*tol*n
    n, m = 4096, 4096 // 32
    moving = np.zeros(n, dtype=bool)
    if where == "middle":
        moving[m:n - m] = True
    else:
        moving[:m] = moving[n - m:] = True
    target = np.random.default_rng(5).random(n)

    def step(w):
        return np.where(moving, target + rate * (w - target), w)

    got, steps = spectral._iterate(step, np.zeros(n), 1e-10)
    ref, ref_steps = full_read_iterate(step, np.zeros(n), 1e-10)
    assert steps == ref_steps
    assert got.tobytes() == ref.tobytes()

@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 80),
       split=st.floats(0.05, 0.95), log_coupling=st.floats(-6.0, math.log10(0.3)),
       fill=st.floats(0.1, 1.0), shuffle=st.booleans())
@example(seed=13, n=28, split=0.125, log_coupling=-1.0, fill=0.5, shuffle=False)
def test_aggregation_converges_where_power_iteration_does(seed, n, split, log_coupling,
                                                          fill, shuffle):
    # shuffled, the weakly coupled blocks interleave, so [0,k) is not one
    # of them; the psi correction removes the slow mode wherever it lives
    rng = np.random.default_rng(seed)
    k = min(max(int(split * n), 1), n - 1)
    A = rng.random((n, n)) * (rng.random((n, n)) < fill) + np.diag(rng.random(n))
    A[:k, k:] *= 10.0 ** log_coupling
    A[k:, :k] *= 10.0 ** log_coupling
    if shuffle:
        perm = rng.permutation(n)
        A = A[np.ix_(perm, perm)]
    P = UlamMatrix.from_matrix(A / A.sum(axis=1, keepdims=True))
    probe = np.zeros(n)
    probe[:k] = n / k
    tol = 1e-10
    try:
        # a small budget keeps the weakly coupled draws, which plain power
        # iteration cannot finish, cheap to discard
        simple = _plain_verdict(P, probe, tol, max_iter=3000)
    except SolverError:
        return
    try:
        res = invariant_density(P, tol=tol, k=k)
    except DegenerateSpectrumError:
        # no verdict, rightly: the second eigenvalue is complex
        lam2 = dense_top_eigenpairs(P, k=2)[1][0]
        assert abs(lam2.imag) > 1e-8 * abs(lam2)
        return
    assert res.residual <= 10 * tol
    assert res.leading_simple == simple


def _two_class_chain(seed):
    """Row-stochastic chain on 9-29 states with two closed classes, each
    state's class drawn at random, so both classes straddle the blocks."""
    rng = np.random.default_rng(seed)
    n = rng.integers(9, 30)
    lab = rng.integers(0, 2, n)
    A = np.zeros((n, n))
    for c in (0, 1):
        idx = np.flatnonzero(lab == c)
        s = idx.size
        for i in idx:
            m = rng.random(s) * (rng.random(s) < 0.5)
            m[rng.integers(s)] += 0.1
            A[i, idx] = m / m.sum()
    return UlamMatrix.from_matrix(A)


@pytest.mark.parametrize("seed", [62, 357, 622, 641, 789, 791, 1330, 1585, 1706,
                                  1887, 1994, 2121, 2347, 2082, 1807])
def test_two_closed_classes_across_the_blocks_not_simple(seed):
    # the first 13: each class has as many cells in [0,k) as in [k,n), so the
    # start 1_[0,k) - 1_[k,n) alone has no component along the second fixed
    # density, and the deflated run settled on the third eigenvalue.  The
    # last 2: the former two-run probe called eigenvalue 1 simple
    P = _two_class_chain(seed)
    ones = np.abs(np.array([lam for lam, _ in dense_top_eigenpairs(P, k=3)]) - 1.0)
    assert np.sum(ones <= 1e-12) == 2
    res = invariant_density(P)
    assert not res.leading_simple
    assert res.rho is None and res.psi is None
    assert res.probe_distance > 10 * 1e-10
    q = res.probe_phi.values
    assert np.mean(q) == pytest.approx(1.0, abs=1e-12)
    assert np.mean(np.abs(P.apply(q) - q)) <= 1e-9
    assert res.probe_phi.l1_distance(res.phi) == pytest.approx(res.probe_distance, rel=1e-9)


def test_eigenvalues_one_and_minus_one_read_as_not_simple():
    # dense spectrum {1, -1, 1}: the deflated run alternates between the
    # two and stalls, and the Ritz check on its last iterate finds the
    # second fixed density behind the -1.  The plain mass step from the
    # uniform start then converges in 23 steps
    P = _two_class_chain(688)
    res = invariant_density(P)
    assert not res.leading_simple
    q = res.probe_phi.values
    assert np.mean(np.abs(P.apply(q) - q)) <= 1e-9
    assert res.probe_distance > 1e-9


def test_second_eigenvalue_minus_one_gives_no_verdict():
    # an irreducible chain of period 2 between the halves: eigenvalue 1 is
    # simple and -1 is second, so the deflated run settles on -1, which ties
    # in modulus with a second eigenvalue 1 and decides nothing
    rng = np.random.default_rng(0)
    n, h = 40, 20
    A = np.zeros((n, n))
    for i in range(n):
        A[i, (h if i < h else 0) + rng.choice(h, 4, replace=False)] = rng.random(4)
    P = UlamMatrix.from_matrix(A / A.sum(axis=1, keepdims=True))
    with pytest.raises(DegenerateSpectrumError, match="-1"):
        invariant_density(P)


@pytest.mark.parametrize("seed", [57, 1197, 1864])
def test_period_two_class_named_when_the_density_run_oscillates(seed):
    # dense spectra {1, -1, 1}: the Ritz check reads eigenvalue 1 as not
    # simple, then the plain mass step from the uniform start alternates
    # with the eigenvalue -1 and stalls, and that is what is reported
    P = _two_class_chain(seed)
    top = np.array([lam for lam, _ in dense_top_eigenpairs(P, k=3)])
    assert np.sum(np.abs(top + 1.0) <= 1e-12) == 1
    with pytest.raises(DegenerateSpectrumError, match="-1.*period 2"):
        invariant_density(P)


def test_slow_density_run_near_minus_one_is_not_called_period_two():
    # dense spectrum {1, 1, -0.99979}: eigenvalue 1 reads as not simple, and
    # the plain mass step from the uniform start contracts at 0.99979, so it
    # runs out of its 20,000 steps without stalling.  Two steps return its
    # last iterate to 1.2e-10 while one moves it by 5.6e-7, but no eigenvalue
    # is -1: the error is the step budget, not a period-2 class
    P = _two_class_chain(1284)
    top = np.array([lam for lam, _ in dense_top_eigenpairs(P, k=3)])
    assert np.sum(np.abs(top - 1.0) <= 1e-12) == 2
    assert np.min(np.abs(top + 1.0)) > 1e-4
    with pytest.raises(SolverError, match="did not converge"):
        invariant_density(P)


@pytest.mark.parametrize("seed", [178, 196])
def test_aggregation_stall_falls_back_to_plain_step(seed):
    # shuffled weakly coupled blocks: a two-block aggregation step on
    # [0,k) and [k,n) stalled here ("stalled at step 536" for seed 178) and
    # needed a plain-step retry.  The psi correction does not depend on the
    # blocks and converges in 47 and 49 steps
    rng = np.random.default_rng(seed)
    n = rng.integers(9, 30)
    k = n // 2
    coupling = 10.0 ** rng.uniform(-4, -2)
    A = rng.random((n, n)) * (rng.random((n, n)) < 0.5) + np.diag(rng.random(n))
    A[:k, k:] *= coupling
    A[k:, :k] *= coupling
    perm = rng.permutation(n)
    A = A[np.ix_(perm, perm)]
    P = UlamMatrix.from_matrix(A / A.sum(axis=1, keepdims=True))
    tol = 1e-10
    res = invariant_density(P, tol=tol)
    assert res.leading_simple
    assert res.residual <= 10 * tol


def test_full_read_after_a_skip_takes_the_ratio_zero():
    # full read, skipped step, full read: the last step change is below tol
    # and 0.6 times the first one, so only a ratio over the skipped step
    # stops the run at step 3, as reading every step in full does
    n, m, tol = 4096, 4096 // 32, 1e-10
    middle = np.zeros(n)
    middle[m:n - m] = 1.0
    ends = 1.0 - middle
    last = 2.4 * tol * middle + ends
    for kernel in (spectral._iterate, full_read_iterate):
        iterates = iter([1.5 * tol * middle, 1.5 * tol * middle + ends] + [last] * 3)
        w, steps = kernel(lambda w: next(iterates), np.zeros(n), tol)
        assert steps == 3
        assert w is last
