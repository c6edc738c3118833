"""Holes, hole measures, mixture prediction and eps sweeps.

A perturbation opens holes H_l = I_l intersect T_eps^{-1}(I_r) and
H_r = I_r intersect T_eps^{-1}(I_l).  The perturbed invariant density is
predicted to approach alpha*phi_l + (1-alpha)*phi_r with
alpha/(1-alpha) equal to the limiting ratio mu_r(H_r)/mu_l(H_l); the second
eigenvector approaches (phi_l - phi_r)/2.  This module measures all of that
on Ulam grids across a sweep of eps values, where the halves are the cell
blocks [0,k) and [k,n), k = ``cells_below(b, n)``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .map_model import (Interval, MapModelError, PerturbationFamily, PiecewiseMap,
                        evaluate)
from . import spectral
# second_eigenpair is not called here: perfbench/tracer.py patches it under this name
from .spectral import (SolverError, escape_rate, invariant_density,  # noqa: F401
                       second_eigenpair)
from .transfer_operator import (DensityGrid, UlamMatrix, build_ulam, cells_below,
                                cells_with_center_in)

BOUNDARY_TOUCH_TOL = 1e-12
MIN_HOLE_WIDTH = 1e-14
HOLE_CHECK_SAMPLES = 7  # interior points of a hole that must map across b


@dataclass(frozen=True)
class HoleReport:
    """Hole geometry (interval lists per side) and, once completed against
    the unperturbed ergodic densities, the hole measures and their ratio."""

    H_l: tuple[Interval, ...]
    H_r: tuple[Interval, ...]
    warnings: tuple[str, ...] = ()
    mu_l_Hl: Optional[float] = None
    mu_r_Hr: Optional[float] = None
    ratio: Optional[float] = None


def _escape_pieces(branch, seg_lo: float, seg_hi: float, b: float,
                   above: bool) -> list[Interval]:
    """Part of [seg_lo, seg_hi] where the (monotone) branch value is above
    (or below) the boundary b."""
    if seg_hi - seg_lo <= MIN_HOLE_WIDTH:
        return []
    va, vb = branch(seg_lo), branch(seg_hi)
    lo_val, hi_val = min(va, vb), max(va, vb)
    if above and hi_val <= b:
        return []
    if not above and lo_val >= b:
        return []
    if (above and lo_val >= b) or (not above and hi_val <= b):
        return [Interval(seg_lo, seg_hi)]
    x_star = branch.preimage(b)
    if x_star is None:     # numerical corner: no crossing found
        return []
    x_star = min(max(x_star, seg_lo), seg_hi)
    increasing = branch.orientation > 0
    if above == increasing:
        piece = (x_star, seg_hi)
    else:
        piece = (seg_lo, x_star)
    if piece[1] - piece[0] <= MIN_HOLE_WIDTH:
        return []
    return [Interval(piece[0], piece[1])]


def compute_holes(map_eps: PiecewiseMap, b: float) -> HoleReport:
    """Closed-form (affine) or bracketed (smooth) hole geometry at one eps.

    Each branch domain is split at b, the crossing of the branch with the
    boundary level is located, and the escaping part is intersected with the
    corresponding half.  Pieces touching b itself are flagged: escape
    happening next to the boundary is exactly the pathology that breaks the
    mixture prediction.
    """
    if not (0.0 < b < 1.0):
        raise MapModelError("boundary point must be interior")
    H_l: list[Interval] = []
    H_r: list[Interval] = []
    warnings: list[str] = []
    for i, br in enumerate(map_eps.branches):
        d0, d1 = br.domain.lo, br.domain.hi
        H_l.extend(_escape_pieces(br, d0, min(d1, b), b, above=True))
        H_r.extend(_escape_pieces(br, max(d0, b), d1, b, above=False))
    for side, pieces in (("left", H_l), ("right", H_r)):
        for iv in pieces:
            if abs(iv.lo - b) <= BOUNDARY_TOUCH_TOL or abs(iv.hi - b) <= BOUNDARY_TOUCH_TOL:
                warnings.append(
                    f"{side} hole [{iv.lo:.12g}, {iv.hi:.12g}] touches the boundary "
                    f"point {b:.12g}: escaping mass re-enters immediately and the "
                    "mixture prediction does not apply")
    _check_hole_geometry(map_eps, b, H_l, H_r)
    return HoleReport(H_l=tuple(sorted(H_l, key=lambda iv: iv.lo)),
                      H_r=tuple(sorted(H_r, key=lambda iv: iv.lo)),
                      warnings=tuple(warnings))


def _check_hole_geometry(map_eps, b, H_l, H_r):
    """Raise MapModelError unless HOLE_CHECK_SAMPLES evenly spaced interior
    points of each hole map into the other half, to 1e-9."""
    qs = np.arange(1, HOLE_CHECK_SAMPLES + 1) / (HOLE_CHECK_SAMPLES + 1)
    for iv in H_l:
        for q in qs:
            x = iv.lo + q * iv.length
            if evaluate(map_eps, x)[0] < b - 1e-9:
                raise MapModelError(
                    f"computed left hole [{iv.lo}, {iv.hi}] does not map into the right half")
    for iv in H_r:
        for q in qs:
            x = iv.lo + q * iv.length
            if evaluate(map_eps, x)[0] > b + 1e-9:
                raise MapModelError(
                    f"computed right hole [{iv.lo}, {iv.hi}] does not map into the left half")


def hole_measures(report: HoleReport, phi_l: DensityGrid,
                  phi_r: DensityGrid) -> HoleReport:
    """Complete a hole report with measures under the eps=0 ergodic densities.

    mu_l(H_l) must be positive (relabel the halves otherwise); the ratio is
    mu_r(H_r) / mu_l(H_l).
    """
    mu_l = sum(phi_l.integrate(iv.lo, iv.hi) for iv in report.H_l)
    mu_r = sum(phi_r.integrate(iv.lo, iv.hi) for iv in report.H_r)
    if mu_l == 0.0 and mu_r == 0.0:
        raise MapModelError("both holes have measure zero: no perturbation to analyze")
    if mu_l == 0.0:
        raise MapModelError(
            "mu_l(H_l) = 0 but mu_r(H_r) > 0; swap the labels of the halves so "
            "the positive-measure hole is on the left")
    return dataclasses.replace(report, mu_l_Hl=mu_l, mu_r_Hr=mu_r, ratio=mu_r / mu_l)


def analytic_lhr(family: PerturbationFamily, phi_l: DensityGrid,
                 phi_r: DensityGrid) -> float:
    """The limit of mu_r(H_r)/mu_l(H_l) as eps -> 0, from first order.

    Each hole of ``family.first_order_holes()`` adds its width rate times
    its half's density in the cell just inside the branch end.  The value
    is one-sided: a density may jump at the end, as phi_l does at 1/2.
    """
    num = den = 0.0
    for c, side, rate, left in family.first_order_holes():
        v = rate * (phi_l if left else phi_r).value_beside(c, side)
        if left:
            den += v
        else:
            num += v
    if den == 0.0:
        raise MapModelError(
            "no first-order hole opens on the left; the limiting ratio is undefined")
    return num / den


def predict_mixture(lhr: float, phi_l: DensityGrid,
                    phi_r: DensityGrid) -> tuple[float, DensityGrid]:
    """Mixture weight and density alpha*phi_l + (1-alpha)*phi_r from the
    limiting hole ratio; lhr = +inf gives alpha = 1."""
    if math.isinf(lhr) and lhr > 0:
        alpha = 1.0
    else:
        if lhr < 0:
            raise ValueError("limiting hole ratio must be >= 0")
        alpha = lhr / (1.0 + lhr)
    values = alpha * phi_l.values + (1.0 - alpha) * phi_r.values
    return alpha, DensityGrid(phi_l.n, values)


def markov_stationary(eps_lr: float, eps_rl: float) -> tuple[float, float]:
    """Stationary weight of the left state and second eigenvalue of the
    two-state chain with switching probabilities (eps_lr, eps_rl)."""
    if not (math.isfinite(eps_lr) and math.isfinite(eps_rl)):
        raise ValueError("switching probabilities must be finite")
    if eps_lr < 0 or eps_rl < 0:
        raise ValueError("switching probabilities must be nonnegative")
    if eps_lr + eps_rl > 1.0:
        raise ValueError("switching probabilities must sum to at most 1")
    if eps_lr == 0.0 and eps_rl == 0.0:
        raise ValueError("both switching probabilities are zero: degenerate chain")
    alpha = eps_rl / (eps_lr + eps_rl)
    rho = 1.0 - eps_lr - eps_rl
    return alpha, rho


def flux_balance(phi_eps: DensityGrid, report: HoleReport) -> float:
    """|mu_eps(H_l) - mu_eps(H_r)| under the perturbed invariant density.

    Exactly zero (up to solver residual) for the true fixed density: the two
    holes exchange equal mass under stationarity.
    """
    mu_l = sum(phi_eps.integrate(iv.lo, iv.hi) for iv in report.H_l)
    mu_r = sum(phi_eps.integrate(iv.lo, iv.hi) for iv in report.H_r)
    return abs(mu_l - mu_r)


def ergodic_densities(P0: UlamMatrix, k: int,
                      tol: float = 1e-10) -> tuple[DensityGrid, DensityGrid]:
    """The eps=0 ergodic densities phi_l, phi_r of the blocks [0,k), [k,n)
    of ``P0``, the Ulam matrix of a family's base map.

    Each is the plain power-iteration limit of ``P0`` from its block's cell
    indicator; where it is Lebesgue on its block, as on the builtins, that
    start is already fixed and the run stops after one step.  A block that
    leaks mass raises the ValueError naming it before any run.
    """
    spectral._check_closed_blocks(P0, k)
    step, left = spectral._mass_step(P0), np.arange(P0.n) < k
    return tuple(DensityGrid(P0.n, spectral._iterate(step, w / np.mean(w), tol)[0])
                 for w in (left, ~left))


@dataclass(frozen=True)
class SweepRow:
    """One eps of a convergence study."""

    eps: float
    lhr_emp: Optional[float] = None
    alpha_pred: Optional[float] = None
    l1_phi_vs_mixture: Optional[float] = None
    l1_psi_vs_half_diff: Optional[float] = None
    rho: Optional[float] = None
    flux_gap: Optional[float] = None
    escape_ratio_l: Optional[float] = None
    escape_ratio_r: Optional[float] = None
    mu_Il: Optional[float] = None
    leading_simple: Optional[bool] = None
    warnings: tuple[str, ...] = ()
    error: Optional[str] = None


@dataclass(frozen=True)
class SweepContext:
    """Shared eps=0 objects of one convergence study; the halves are the
    blocks [0,k) and [k,n) of ``P0``."""

    family: PerturbationFamily
    n: int
    tol: float
    k: int
    P0: UlamMatrix
    phi_l: DensityGrid
    phi_r: DensityGrid
    half_diff: DensityGrid
    alpha_pred: float
    mixture: DensityGrid


@dataclass
class EpsArtifacts:
    """Per-eps byproducts a report writer may want beyond the sweep row."""

    eps: float
    map_eps: PiecewiseMap
    P: UlamMatrix
    phi: DensityGrid
    psi: Optional[DensityGrid]


def prepare_sweep(family: PerturbationFamily, eps_list, n: int,
                  tol: float = 1e-10) -> SweepContext:
    """Check the sweep's eps ladder and build its eps=0 context.

    ``eps_list`` must be positive and strictly decreasing; it may be empty.
    The halves are the blocks [0,k), [k,n) of P0, k = ``cells_below(b, n)``;
    a cell that straddles b fails the whole sweep in ``ergodic_densities``.
    The predicted mixture weight comes from :func:`analytic_lhr` on the
    eps=0 ergodic densities.
    """
    if any(e <= 0 for e in eps_list):
        raise ValueError("eps values must be positive")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    k = cells_below(family.boundary_b, n)
    P0 = build_ulam(family.base, n)
    phi_l, phi_r = ergodic_densities(P0, k, tol)
    half_diff = DensityGrid(n, 0.5 * (phi_l.values - phi_r.values))
    alpha, mixture = predict_mixture(analytic_lhr(family, phi_l, phi_r), phi_l, phi_r)
    return SweepContext(family=family, n=n, tol=tol, k=k, P0=P0, phi_l=phi_l,
                        phi_r=phi_r, half_diff=half_diff, alpha_pred=alpha,
                        mixture=mixture)


def run_sweep_row(ctx: SweepContext, eps: float) -> tuple[SweepRow, Optional[EpsArtifacts]]:
    """Full per-eps pipeline; numerical failures land in the row, not raised."""
    warnings: list[str] = []
    try:
        map_eps = ctx.family.instantiate(eps)
        P = build_ulam(map_eps, ctx.n)
        holes = hole_measures(compute_holes(map_eps, ctx.family.boundary_b),
                              ctx.phi_l, ctx.phi_r)
        warnings.extend(holes.warnings)
        inv = invariant_density(P, tol=ctx.tol, k=ctx.k)
        phi, rho, psi = inv.phi, inv.rho, inv.psi
        l1_psi = None
        if inv.leading_simple:
            l1_psi = psi.l1_distance(ctx.half_diff)
        else:
            warnings.append("leading eigenvalue not simple; second pair skipped")
        esc_l, esc_r = _escape_ratios(ctx, holes, warnings)
        row = SweepRow(eps=eps,
                       lhr_emp=holes.ratio,
                       alpha_pred=ctx.alpha_pred,
                       l1_phi_vs_mixture=phi.l1_distance(ctx.mixture),
                       l1_psi_vs_half_diff=l1_psi,
                       rho=rho,
                       flux_gap=flux_balance(phi, holes),
                       escape_ratio_l=esc_l,
                       escape_ratio_r=esc_r,
                       mu_Il=phi.integrate(0.0, ctx.family.boundary_b),
                       leading_simple=inv.leading_simple,
                       warnings=tuple(warnings))
        return row, EpsArtifacts(eps=eps, map_eps=map_eps, P=P, phi=phi, psi=psi)
    # MapModelError and DegenerateSpectrumError are ValueErrors
    except (SolverError, ValueError) as exc:
        return SweepRow(eps=eps, warnings=tuple(warnings), error=str(exc)), None


def _escape_ratios(ctx: SweepContext, holes: HoleReport,
                   warnings: list[str]) -> tuple[Optional[float], Optional[float]]:
    """Escape ratios mu(H) / rate of both halves through their holes.

    Both rates come from one ``escape_rate`` run on ``P0``, whose blocks
    [0,k) and [k,n) are the halves, at the sweep's ``tol``, the one
    tolerance of every solve in a row.  A hole thinner than one cell gives
    None and a warning.
    """
    b = ctx.family.boundary_b
    sides = ((holes.H_l, (0.0, b), holes.mu_l_Hl), (holes.H_r, (b, 1.0), holes.mu_r_Hr))
    cells = [cells_with_center_in(pieces, ctx.n) for pieces, _, _ in sides]
    for c, (_, (lo, hi), _) in zip(cells, sides):
        if c.size == 0:
            warnings.append(f"hole in [{lo}, {hi}] thinner than one cell; "
                            "escape rate skipped")
    if not any(c.size for c in cells):
        return None, None
    rates = escape_rate(ctx.P0, np.concatenate(cells), ctx.k, tol=ctx.tol)
    return tuple(None if c.size == 0 else mu / rate if rate > 0.0 else math.inf
                 for c, (_, _, mu), rate in zip(cells, sides, rates))
