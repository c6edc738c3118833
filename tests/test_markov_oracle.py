"""The sweep rows against the exact oracle of ``markov_oracle``, on grids
that refine each row's Markov partition: there Ulam's method is exact, and
what is left is the solvers' tolerance."""

import functools
from fractions import Fraction

import numpy as np
import pytest

import markov_oracle

from metamap.families import DEFAULT_EPS_LIST, family_a, family_b
from metamap.metastability import prepare_sweep, run_sweep_row
from metamap.transfer_operator import DensityGrid

FAMILIES = {"family_a": family_a, "family_b": family_b}
HALF = Fraction(1, 2)
LADDER = tuple(Fraction(e).limit_denominator(1000) for e in DEFAULT_EPS_LIST)
EPS_625 = (Fraction(1, 625),)


def rational_branches(fam):
    """The family's branches as the oracle's Fraction tuples, each value
    the rational that its float rounds."""
    zeros = (0.0,) * len(fam.base.branches)
    rows = []
    for br, ds, di in zip(fam.base.branches, fam.slope_eps or zeros, fam.intercept_eps or zeros):
        floats = (br.domain.lo, br.domain.hi, br.slope, br.intercept, ds, di)
        row = tuple(Fraction(v).limit_denominator(1000) for v in floats)
        assert tuple(map(float, row)) == floats
        rows.append(row)
    return rows


@functools.cache
def oracle(name, eps):
    return markov_oracle.solve(rational_branches(FAMILIES[name]()), eps, HALF)


def below_half(exact):
    """mu(I_l): the fixed density's mass on the pieces below 1/2."""
    return float(sum(m for c, m in zip(exact.cuts[1:], exact.masses) if c <= HALF))


def exact_mixture(exact, n):
    """alpha phi_l + (1 - alpha) phi_r on n cells, with T0's ergodic
    densities and alpha from the exact hole ratio, which is the same at
    every eps for the builtins (eps-free slopes, densities constant across
    the holes), so it is the limiting ratio the prediction uses."""
    mu_l, mu_r = exact.hole_masses
    alpha = mu_r / (mu_l + mu_r)
    k = exact.cuts0.index(HALF)
    weights = np.where(np.arange(len(exact.masses0)) < k, alpha, 1.0 - alpha)
    return markov_oracle.cell_averages(exact.cuts0, exact.masses0 * weights, n)


@pytest.mark.parametrize("name, n, eps_list", [
    ("family_a", 4800, LADDER), ("family_b", 4800, LADDER),
    ("family_a", 15000, EPS_625), ("family_b", 15000, EPS_625),
    ("family_a", 120000, EPS_625)])
def test_sweep_rows_match_the_markov_oracle(name, n, eps_list):
    ctx = prepare_sweep(FAMILIES[name](), [float(e) for e in eps_list], n)
    for eps in eps_list:
        exact = oracle(name, eps)
        assert n % exact.denominator_lcm == 0, "the grid must refine both partitions"
        row, art = run_sweep_row(ctx, float(eps))
        assert row.error is None, row.error
        phi = markov_oracle.cell_averages(exact.cuts, exact.masses, n)
        assert art.phi.l1_distance(DensityGrid(n, phi)) <= 1e-9, eps
        assert abs(row.mu_Il - below_half(exact)) <= 1e-9, eps
        assert exact.eigenvalues[1].imag == 0.0
        assert abs(row.rho - exact.eigenvalues[1].real) <= 1e-9, eps
        l1 = float(np.mean(np.abs(phi - exact_mixture(exact, n))))
        assert abs(row.l1_phi_vs_mixture - l1) <= 1e-9, eps
        for got, want in zip((row.escape_ratio_l, row.escape_ratio_r), exact.escape_ratios):
            assert got == pytest.approx(want, rel=1e-7, abs=0.0), eps


@pytest.mark.parametrize("eps", LADDER + EPS_625)
def test_oracle_closed_forms_of_the_builtins(eps):
    # family A: mu(I_l) = 1/4 + eps/2 and |phi - mixture|_L1 = 2 eps; family
    # B, which breaks the boundary condition: |phi - mixture|_L1 = 1/2 + 2 eps
    a, b = oracle("family_a", eps), oracle("family_b", eps)
    assert below_half(a) == pytest.approx(float(Fraction(1, 4) + eps / 2), abs=1e-12)
    for exact, l1 in ((a, 2 * eps), (b, HALF + 2 * eps)):
        n = exact.denominator_lcm
        phi = markov_oracle.cell_averages(exact.cuts, exact.masses, n)
        assert float(np.mean(np.abs(phi - exact_mixture(exact, n)))) == \
            pytest.approx(float(l1), abs=1e-12)
        assert exact.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
        assert exact.masses.sum() == pytest.approx(1.0, abs=1e-12)


def test_oracle_refuses_what_it_cannot_answer():
    branches = rational_branches(family_a())
    with pytest.raises(ValueError, match="^partition has more than 2000 pieces$"):
        markov_oracle.solve(branches, Fraction(1, 80000), HALF)
    exact = oracle("family_a", Fraction(1, 400))
    with pytest.raises(ValueError, match="^grid n=3840 does not refine the piece"):
        markov_oracle.cell_averages(exact.cuts, exact.masses, 3840)
