"""Ulam discretization of the transfer (Perron-Frobenius) operator.

The unit interval is split into n equal cells A_0..A_{n-1}.  The Ulam matrix
has entries P[i,j] = Leb(A_i intersect T^{-1} A_j) / Leb(A_i), assembled from
closed-form preimage intervals for affine branches (exact up to rounding) and
bracketed preimages for smooth branches.  Densities are piecewise constant on
the same grid and evolve by left multiplication, (Ld)_j = sum_i d_i P[i,j].

``UlamMatrix`` stores P once, in CSC, whatever n is.  A density step
d -> P^T d runs through ``matrix.T``, a CSR view that shares P's arrays, so
each output cell gathers from one column of P and no transpose is copied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import sparse

from .map_model import Branch, Interval, MapModelError, PiecewiseMap, min_expansion, distortion

ROW_SUM_TOL = 1e-12


class UnsupportedRegimeError(ValueError):
    """The map falls outside the analysis regime this library implements."""


@dataclass(frozen=True)
class DensityGrid:
    """Piecewise-constant density on a uniform n-cell grid.

    ``values`` are cell averages, so the L1 norm is mean(|values|) and the
    mass is mean(values).
    """

    n: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.n,):
            raise ValueError(f"expected {self.n} cell values, got shape {v.shape}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def uniform(cls, n: int) -> "DensityGrid":
        return cls(n, np.ones(n))

    @classmethod
    def zeros(cls, n: int) -> "DensityGrid":
        return cls(n, np.zeros(n))

    @classmethod
    def indicator(cls, interval: Interval, n: int, normalize: bool = False) -> "DensityGrid":
        """Cell averages of 1_interval, optionally rescaled to mass 1."""
        bounds = np.arange(n + 1) / n
        over = np.clip(np.minimum(bounds[1:], interval.hi)
                       - np.maximum(bounds[:-1], interval.lo), 0.0, None)
        vals = over * n
        if normalize:
            m = vals.mean()
            if m <= 0:
                raise ValueError("cannot normalize an empty indicator")
            vals = vals / m
        return cls(n, vals)

    def l1_norm(self) -> float:
        return float(np.mean(np.abs(self.values)))

    def mass(self) -> float:
        return float(np.mean(self.values))

    def total_variation(self) -> float:
        return float(np.sum(np.abs(np.diff(self.values))))

    def l1_distance(self, other: "DensityGrid") -> float:
        if other.n != self.n:
            raise ValueError("grid size mismatch")
        return float(np.mean(np.abs(self.values - other.values)))

    def integrate(self, lo: float, hi: float) -> float:
        """Integral over [lo, hi] with exact partial-cell weighting."""
        if hi < lo:
            lo, hi = hi, lo
        bounds = np.arange(self.n + 1) / self.n
        over = np.clip(np.minimum(bounds[1:], hi) - np.maximum(bounds[:-1], lo), 0.0, None)
        return float(np.dot(over, self.values))

    def value_near(self, x: float) -> float:
        """Cell value at x averaged with its immediate neighbors."""
        i = min(max(int(np.searchsorted(np.arange(self.n + 1) / self.n, x, side="right") - 1), 0),
                self.n - 1)
        lo, hi = max(i - 1, 0), min(i + 2, self.n)
        return float(np.mean(self.values[lo:hi]))


@dataclass(frozen=True)
class UlamMatrix:
    """Row-stochastic n x n discretization of the transfer operator.

    ``matrix`` is P in CSC; densities act from the left through its CSR
    transpose view, which shares P's arrays.
    """

    n: int
    matrix: sparse.csc_matrix

    def __post_init__(self):
        # Made once: building the view scans P's index arrays, about a
        # quarter of a step's time at n = 15360 if redone per step.
        object.__setattr__(self, "_left", self.matrix.T)

    @classmethod
    def from_matrix(cls, m) -> "UlamMatrix":
        m = sparse.csc_matrix(m, dtype=float)
        n = m.shape[0]
        if m.shape != (n, n):
            raise ValueError("matrix must be square")
        out = cls(n=n, matrix=m)
        bad = np.max(np.abs(out.row_sums() - 1.0))
        if bad > ROW_SUM_TOL:
            raise ValueError(f"rows must sum to 1 (max deviation {bad:.3g})")
        return out

    def row_sums(self) -> np.ndarray:
        return np.asarray(self.matrix.sum(axis=1)).ravel()

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def apply(self, values: np.ndarray) -> np.ndarray:
        """One transfer step of cell values: P^T values."""
        return self._left @ values

    def restrict(self, idx: np.ndarray) -> "UlamMatrix":
        """Submatrix on the given cell indices (rows and columns)."""
        return UlamMatrix(n=len(idx), matrix=self.matrix[:, idx][idx, :])


def _branch_cut_points(br: Branch, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Split a branch domain at the preimages of all cell boundaries.

    Returns (cuts, coverage) where cuts are ascending x values from domain.lo
    to domain.hi and every subinterval [cuts[k], cuts[k+1]] maps inside a
    single cell.
    """
    d0, d1 = br.domain.lo, br.domain.hi
    ylo, yhi = br.image()
    j_lo = int(np.floor(ylo * n)) + 1
    j_hi = int(np.ceil(yhi * n)) - 1
    ys = np.arange(j_lo, j_hi + 1) / n
    ys = ys[(ys > ylo) & (ys < yhi)]
    if br.is_affine:
        xs = (ys - br.intercept) / br.slope
    else:
        xs = np.array([br.preimage(y) for y in ys], dtype=float)
    xs = np.concatenate(([d0, d1], xs))
    xs = np.clip(np.sort(xs), d0, d1)
    return xs


def build_ulam(map_: PiecewiseMap, n: int) -> UlamMatrix:
    """Assemble the Ulam matrix of a piecewise expanding map on n cells.

    Affine branches yield entries from exact interval intersections; smooth
    branches locate preimage cut points by bracketed root finding first.
    """
    if n < len(map_.branches):
        raise MapModelError(f"n={n} too coarse for {len(map_.branches)} branches")
    bounds = np.arange(n + 1) / n
    rows_all, cols_all, vals_all = [], [], []
    for br in map_.branches:
        cuts = _branch_cut_points(br, n)
        lefts, rights = cuts[:-1], cuts[1:]
        keep = rights > lefts
        lefts, rights = lefts[keep], rights[keep]
        if lefts.size == 0:
            continue
        mids = 0.5 * (lefts + rights)
        imgs = np.array([br(m) for m in mids]) if not br.is_affine \
            else br.slope * mids + br.intercept
        cols = np.clip(np.searchsorted(bounds, imgs, side="right") - 1, 0, n - 1)
        row0 = np.clip(np.searchsorted(bounds, lefts, side="right") - 1, 0, n - 1)
        split = bounds[np.minimum(row0 + 1, n)]
        part1 = np.minimum(rights, split) - lefts
        part2 = np.clip(rights - np.maximum(lefts, split), 0.0, None)
        rows_all.append(row0)
        cols_all.append(cols)
        vals_all.append(part1 * n)
        has2 = part2 > 0
        if np.any(has2):
            rows_all.append(np.minimum(row0[has2] + 1, n - 1))
            cols_all.append(cols[has2])
            vals_all.append(part2[has2] * n)
    rows = np.concatenate(rows_all)
    cols = np.concatenate(cols_all)
    vals = np.concatenate(vals_all)
    out = UlamMatrix(n=n, matrix=sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc())
    bad = np.max(np.abs(out.row_sums() - 1.0))
    if bad > ROW_SUM_TOL:
        raise MapModelError(
            f"Ulam rows do not sum to 1 (max deviation {bad:.3g}); "
            "a branch image likely escapes [0,1]")
    return out


def variation_inflation_constant(lam: float, dist: float, min_branch_width: float) -> float:
    """Additive constant in the one-step variation inequality
    Var(Lf) <= (2/lam) Var(f) + C |f|_L1, namely C = D/lam + 2/min width."""
    if min_branch_width <= 0:
        raise ValueError("branch widths must be positive")
    return dist / lam + 2.0 / min_branch_width


def cells_within(interval: Interval, n: int, tol: float = 1e-9) -> np.ndarray:
    """Indices of cells fully contained in the interval (up to tol)."""
    bounds = np.arange(n + 1) / n
    keep = (bounds[:-1] >= interval.lo - tol) & (bounds[1:] <= interval.hi + tol)
    return np.nonzero(keep)[0]


def cells_with_center_in(intervals: Sequence[Interval], n: int) -> np.ndarray:
    """Indices of cells whose center lies inside any of the intervals."""
    centers = (np.arange(n) + 0.5) / n
    keep = np.zeros(n, dtype=bool)
    for iv in intervals:
        keep |= (centers >= iv.lo) & (centers <= iv.hi)
    return np.nonzero(keep)[0]


@dataclass(frozen=True)
class LasotaYorkeConstants:
    """Constants of the iterated variation inequality
    Var(L^n f) <= C_LY beta^n Var(f) + C_LY |f|_L1 (valid for lam > 2)."""

    lam: float
    distortion: float
    C_eps: float
    beta: float
    C_LY: float


def lasota_yorke_constants(map_: PiecewiseMap,
                           base: Optional[PiecewiseMap] = None) -> LasotaYorkeConstants:
    """Variation-inequality constants of a map with min expansion > 2.

    When ``base`` is given (a perturbation family's unperturbed map), the
    iterated constant C_LY is anchored to the base map's one-step constant so
    the same bound serves the whole family.
    """
    lam = min_expansion(map_)
    if lam <= 2.0:
        raise UnsupportedRegimeError(
            f"min expansion {lam} <= 2: uniform variation bounds would need the "
            "no-periodic-critical-points analysis, which is not implemented")
    dist = distortion(map_)
    widths = [b.domain.hi - b.domain.lo for b in map_.branches]
    c_eps = variation_inflation_constant(lam, dist, min(widths))
    beta = 2.0 / lam
    if base is None:
        c0 = c_eps
    else:
        base_lam = min_expansion(base)
        base_widths = [b.domain.hi - b.domain.lo for b in base.branches]
        c0 = variation_inflation_constant(base_lam, distortion(base), min(base_widths))
    return LasotaYorkeConstants(lam=lam, distortion=dist, C_eps=c_eps,
                                beta=beta, C_LY=2.0 * c0 / (1.0 - beta))
