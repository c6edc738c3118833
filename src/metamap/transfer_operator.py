"""Ulam discretization of the transfer (Perron-Frobenius) operator.

The unit interval is split into n equal cells A_0..A_{n-1}.  The Ulam matrix
has entries P[i,j] = Leb(A_i intersect T^{-1} A_j) / Leb(A_i).  It is
assembled in cell coordinates X = n*x, where every cell boundary is an
integer: each branch domain is cut at the integers and at the preimages of
the integers of n*T (closed form for affine branches, bracketed root finding
for smooth ones), and each piece's entry is its length in X.  The entries of
a row are then exact differences of points in [i, i+1], so every row sums to
1 up to a few ulps at any n.  On affine branches, cut points that coincide
with a cell boundary leave no sliver entries.  A branch's pieces depend only
on the branch's fields and its cells, so a branch assembled on the same cells
twice before, or a branch equal to it, reuses them: a perturbation that moves
some branches leaves the others the base map's own
(``PerturbationFamily.instantiate``), and a sweep row assembles only the
branches eps moves.  Densities are piecewise constant on the same grid and
evolve by left multiplication, (Ld)_j = sum_i d_i P[i,j].

``UlamMatrix`` stores P once, as its CSC arrays, whatever n is.  They are
also the CSR arrays of P^T, so a density step d -> P^T d is scipy's
compiled ``csr_matvec`` on them: each output cell gathers from one column
of P and no transpose is copied.  ``csc_matvec`` on the same arrays gives
P v, which the psi-corrected density step needs once per run.  These two
kernels, and the two that ``build_ulam`` uses to build the arrays
(``coo_tocsr``, a stable counting sort by column, and
``csr_sum_duplicates``), are the only part of scipy the package uses
besides ``brentq``.  ``_load_sparsetools`` loads them on their own:
importing scipy's sparse package costs about 0.2 s and 21 MB per process.
P is never copied into blocks: ``cells_below(b, n)`` names the left block
[0,k) of a split at b, and ``cells_with_center_in`` the cells of a hole,
both as cells of the full grid.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import weakref
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .map_model import (ENDPOINT_TOL, Branch, Interval, MapModelError, PiecewiseMap,
                        distortion, min_expansion)

ROW_SUM_TOL = 1e-12
# a cut point n*x within SNAP_ULPS * n * machine epsilon of an integer is
# taken to lie on that cell boundary: that is the rounding of n*x from float data
SNAP_ULPS = 8


class UnsupportedRegimeError(ValueError):
    """The map falls outside the analysis regime this library implements."""


def _load_sparsetools():
    """scipy's compiled sparse kernels, without importing ``scipy.sparse``.

    The extension is loaded from scipy's install under its own name,
    ``scipy.sparse._sparsetools``, and registered in ``sys.modules``, so a
    later ``import scipy.sparse`` reuses this module; one already imported
    is reused here.  Finding scipy's directory does not import scipy.
    """
    name = "scipy.sparse._sparsetools"
    if name in sys.modules:
        return sys.modules[name]
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    found = importlib.machinery.PathFinder.find_spec(
        "_sparsetools", [os.path.join(scipy_dir, "sparse")])
    spec = importlib.util.spec_from_file_location(name, found.origin)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


_sparsetools = _load_sparsetools()


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

    def l1_norm(self) -> float:
        return float(np.mean(np.abs(self.values)))

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
        # only the cells [lo, hi] overlaps, and one more on each side for
        # rounding: weighting all n cells took 3.5-5% of a sweep row
        a = min(max(math.floor(lo * self.n) - 1, 0), self.n)
        b = min(max(math.ceil(hi * self.n) + 1, a), self.n)
        bounds = np.arange(a, b + 1) / self.n
        over = np.clip(np.minimum(bounds[1:], hi) - np.maximum(bounds[:-1], lo), 0.0, None)
        # einsum, not np.dot: see the deflated step in spectral._second_pair
        return float(np.einsum("i,i->", over, self.values[a:b]))

    def value_beside(self, x: float, side: int) -> float:
        """The value of the cell just below x (side -1) or above it (+1).

        x is nudged by ENDPOINT_TOL towards ``side``, so an x on a cell
        boundary, up to rounding, reads the cell on that side: a density
        may jump there.  Raises ValueError when that cell is off the grid.
        """
        i = math.floor((x + side * ENDPOINT_TOL) * self.n)
        if not 0 <= i < self.n:
            raise ValueError(f"no cell {'below' if side < 0 else 'above'} x={x}")
        return float(self.values[i])


@dataclass(frozen=True)
class CSCArrays:
    """P's compressed sparse column arrays, read-only: column j holds the
    entries ``data[indptr[j]:indptr[j+1]]`` in the rows ``indices[...]``
    (ascending, as ``build_ulam`` stores them).  Read as CSR, the same
    arrays are P^T."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        for a in (self.indptr, self.indices, self.data):
            a.setflags(write=False)

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])


@dataclass(frozen=True)
class UlamMatrix:
    """Row-stochastic n x n discretization of the transfer operator.

    ``matrix`` holds P's CSC arrays; densities act from the left through
    the same arrays read as the CSR arrays of P^T.
    """

    n: int
    matrix: CSCArrays

    @classmethod
    def from_matrix(cls, m) -> "UlamMatrix":
        """P from a dense array, or from anything with ``.tocsc()``, such as
        scipy's sparse matrices."""
        if hasattr(m, "tocsc"):
            m = m.tocsc()
            indptr, indices, data = m.indptr, m.indices, m.data
        else:
            m = np.asarray(m, dtype=float)
            # the nonzeros of m.T in C order are m's in column order, rows ascending
            cols, indices = np.nonzero(m.T)
            indptr = np.searchsorted(cols, np.arange(m.shape[1] + 1))
            data = m.T[cols, indices]
        n = m.shape[0]
        if m.shape != (n, n):
            raise ValueError("matrix must be square")
        # astype copies, so the caller's arrays stay writable
        arrays = CSCArrays(indptr.astype(np.int32), indices.astype(np.int32),
                           data.astype(float))
        finite = np.isfinite(arrays.data)
        if not finite.all():
            j = int(np.argmin(finite))
            col = int(np.searchsorted(arrays.indptr, j, side="right")) - 1
            raise ValueError(f"matrix entry ({arrays.indices[j]}, {col}) is "
                             f"{arrays.data[j]}, which is not finite")
        out = cls(n=n, matrix=arrays)
        bad = np.max(np.abs(out.row_sums() - 1.0))
        # not <=: a NaN deviation fails every comparison
        if not bad <= ROW_SUM_TOL:
            raise ValueError(f"rows must sum to 1 (max deviation {bad:.3g})")
        return out

    def row_sums(self) -> np.ndarray:
        return np.bincount(self.matrix.indices, weights=self.matrix.data, minlength=self.n)

    def _check(self, values: np.ndarray, name: str = "cell values") -> None:
        # the kernels check no lengths: a short vector would be read past its end
        if np.shape(values) != (self.n,):
            raise ValueError(f"expected {self.n} {name}, got shape {np.shape(values)}")

    def apply(self, values: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """One transfer step of cell values: P^T values.

        With ``out`` (float64, shape (n,)), P^T values is added into it and
        ``out`` is returned.
        """
        self._check(values)
        if out is None:
            out = np.zeros(self.n)
        else:
            self._check(out, "output cells")
        m = self.matrix
        _sparsetools.csr_matvec(self.n, self.n, m.indptr, m.indices, m.data, values, out)
        return out

    def apply_adjoint(self, values: np.ndarray) -> np.ndarray:
        """P values: the same arrays read as P's CSC arrays."""
        self._check(values)
        m = self.matrix
        out = np.zeros(self.n)
        _sparsetools.csc_matvec(self.n, self.n, m.indptr, m.indices, m.data, values, out)
        return out


def _snap(X: np.ndarray, tol: float) -> np.ndarray:
    """X with every value within tol of an integer moved onto that integer."""
    r = np.rint(X)
    return np.where(np.abs(X - r) <= tol, r, X)


def _column_cuts(br: Branch, n: int, X0: float, X1: float,
                 tol: float) -> tuple[int, int, np.ndarray]:
    """Where the branch's pieces of [X0, X1] change column, in cell coordinates.

    X = n*x and Y = n*T(x), so cell boundaries are the integers of both.
    Returns (c0, step, cuts): the column that the left end of [X0, X1] maps
    into, +1 or -1 as the column moves with X, and the preimages of the
    integers strictly inside the image, ascending in X.  Affine branches give
    the preimage of j in closed form, (j - n*t)/s; smooth branches by
    bracketed root finding.  Images and preimages within rounding of an
    integer are snapped onto it, so on an affine branch a cut that coincides
    with a cell boundary leaves no sliver.  A smooth branch's cuts carry the
    root finder's error, up to n*PREIMAGE_XTOL in X, which no snap covers.
    """
    if br.is_affine:
        s, nt = br.slope, n * br.intercept
        y0, y1 = s * X0 + nt, s * X1 + nt
        ytol = tol * (1.0 + abs(s))
    else:
        y0, y1 = n * br(br.domain.lo), n * br(br.domain.hi)
        ytol = tol
    # clamped to [0, n]: Branch admits images that leave [0,1] by rounding
    y0, y1 = (min(max(float(_snap(y, ytol)), 0.0), float(n)) for y in (y0, y1))
    if br.orientation > 0:
        c0, step = min(math.floor(y0), n - 1), 1
        js = np.arange(math.floor(y0) + 1, math.ceil(y1))
    else:
        c0, step = max(math.ceil(y0) - 1, 0), -1
        js = np.arange(math.ceil(y0) - 1, math.floor(y1), -1)
    if br.is_affine:
        cuts = (js - nt) / s
    else:
        cuts = n * np.array([br.preimage(j / n) for j in js], dtype=float)
    return c0, step, np.clip(_snap(cuts, tol), X0, X1)


def _pieces(br: Branch, n: int, X0: float, X1: float,
            tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, columns, entries) of the branch's pieces of [X0, X1], rows
    nondecreasing; see ``build_ulam``."""
    c0, step, ccuts = _column_cuts(br, n, X0, X1, tol)
    r0 = math.floor(X0)
    rcuts = np.arange(r0 + 1, math.ceil(X1), dtype=float)
    # both cut sets are sorted, so the stable sort is a merge
    edges = np.concatenate(([X0], np.sort(np.concatenate((rcuts, ccuts)), kind="stable"), [X1]))
    lengths = np.diff(edges)
    keep = lengths > 0                  # coincident cuts leave empty pieces
    if keep.all():
        p = np.arange(lengths.size, dtype=np.int32)
        rows = edges[:-1].astype(np.int32)
    else:
        p = np.flatnonzero(keep)
        rows = edges[p].astype(np.int32)
        lengths = lengths[p]
        p = p.astype(np.int32)
    # piece p has p cuts before it, floor(left end) - r0 of them row cuts,
    # so its column is c0 + step*(p - rows + r0)
    cols = np.subtract(p, rows, out=p) if step > 0 else np.subtract(rows, p, out=p)
    cols += np.int32(c0 + step * r0)
    for a in (rows, cols, lengths):
        a.setflags(write=False)
    return rows, cols, lengths


# Each branch's pieces per grid: branch -> {(n, X0, X1): pieces, or None
# after its first assembly on those cells}.  Keys compare by value.  Each
# assembly re-keys the entry under its own branch, so the entry goes when the
# last equal branch to reach it dies, not the first.
_REUSED = weakref.WeakKeyDictionary()


def _branch_pieces(map_: PiecewiseMap, n: int):
    """(rows, columns, entries) of each branch's pieces, rows nondecreasing;
    see ``build_ulam``."""
    tol = SNAP_ULPS * n * np.finfo(float).eps
    D = _snap(n * np.asarray(map_.critical_set), tol)
    D[0], D[-1] = 0.0, float(n)     # the critical set spans [0,1] to ENDPOINT_TOL
    for br, X0, X1 in zip(map_.branches, D[:-1].tolist(), D[1:].tolist()):
        grids, key = _REUSED.pop(br, {}), (n, X0, X1)
        _REUSED[br] = grids
        pieces = grids.get(key)
        if pieces is None:
            pieces = _pieces(br, n, X0, X1, tol)
            # kept from the second assembly on: a branch one map holds alone
            # is cut once and never kept
            grids[key] = pieces if key in grids else None
        yield pieces


def build_ulam(map_: PiecewiseMap, n: int) -> UlamMatrix:
    """Assemble the Ulam matrix of a piecewise expanding map on n cells.

    The work is done in cell coordinates X = n*x, where row i is [i, i+1].
    Each branch domain [X0, X1] is cut at the integers (row changes) and at
    the preimages of the integers of Y = n*T(x) (column changes).  A piece's
    row is the integer part of its left end, its column moves one step from
    the branch's first column for every column cut before it, and its entry
    is its length in X.  The cuts of one row lie in [i, i+1], so
    for i >= 1 the entries are exact differences and the row sums to exactly
    1 in any order.  The breakpoints n*c_k are computed once and shared by
    both adjacent branches; a (row, column) pair that two branches reach,
    when a breakpoint lies inside a cell, is stored once with the summed
    entry.  Raises MapModelError if a row still misses 1 by more than
    ROW_SUM_TOL, naming the worst row.

    The pieces of a branch assembled on the same cells twice before are
    reused, not cut again.  Branches compare by value, so an equal branch of
    another map reuses them too.  A branch is kept only from its second
    assembly on, so one that a single map holds is never kept.  Its pieces
    stay, one entry per grid with no bound on their number, for as long as
    the equal branch that assembled last lives.
    Reuse changes no bit of the result.
    """
    if n < len(map_.branches):
        raise MapModelError(f"n={n} too coarse for {len(map_.branches)} branches")
    # int32 indices, as scipy chooses at these sizes; the per-branch arrays
    # are freed once joined
    rows, cols, vals = map(np.concatenate, zip(*_branch_pieces(map_, n)))
    dev = np.bincount(rows, weights=vals, minlength=n) - 1.0
    worst = int(np.argmax(np.abs(dev)))
    if abs(dev[worst]) > ROW_SUM_TOL:
        raise MapModelError(
            f"Ulam row {worst} of {n} misses row sum 1 by {dev[worst]:+.3g} "
            f"(ROW_SUM_TOL = {ROW_SUM_TOL:g})")
    # Rows never decrease along the pieces.  P's CSC arrays (the CSR arrays
    # of P^T) come from scipy's compiled COO-to-CSR conversion with rows and
    # columns swapped: a stable counting sort by column, the same one that
    # csr_matrix(...).tocsc() runs, so it keeps each column's rows
    # ascending and puts the (row, column) pairs that two branches reach
    # side by side, without P's own CSR indptr.  The duplicate sum then adds
    # them in that order, as sum_duplicates() does: the arrays are theirs
    # bit for bit.
    colptr = np.empty(n + 1, dtype=np.int32)
    indices, data = np.empty(vals.size, dtype=np.int32), np.empty(vals.size)
    _sparsetools.coo_tocsr(n, n, vals.size, cols, rows, vals, colptr, indices, data)
    _sparsetools.csr_sum_duplicates(n, n, colptr, indices, data)
    nnz = colptr[-1]
    return UlamMatrix(n=n, matrix=CSCArrays(colptr, indices[:nnz], data[:nnz]))


def variation_inflation_constant(lam: float, dist: float, min_branch_width: float) -> float:
    """Additive constant in the one-step variation inequality
    Var(Lf) <= (2/lam) Var(f) + C |f|_L1, namely C = D/lam + 2/min width."""
    if min_branch_width <= 0:
        raise ValueError("branch widths must be positive")
    return dist / lam + 2.0 / min_branch_width


def cells_below(b: float, n: int) -> int:
    """The number k of cells that [0, b) overlaps, those with i/n < b: the
    blocks [0,k) and [k,n) of every split at b in the package."""
    return int(np.count_nonzero(np.arange(n) / n < b))


def cells_with_center_in(intervals: Sequence[Interval], n: int) -> np.ndarray:
    """Indices of cells whose center lies inside any of the intervals,
    ascending.

    Cell i's center (i + 0.5)/n lies in [lo, hi] only for i between
    ceil(lo*n - 0.5) and floor(hi*n - 0.5); the test runs on those cells
    and one more on each side, which rounding of lo*n and hi*n cannot pass.
    """
    keep = np.zeros(n, dtype=bool)
    for iv in intervals:
        i = np.arange(max(math.ceil(iv.lo * n - 0.5) - 1, 0),
                      min(math.floor(iv.hi * n - 0.5) + 2, n))
        centers = (i + 0.5) / n
        keep[i[(centers >= iv.lo) & (centers <= iv.hi)]] = True
    return np.flatnonzero(keep)


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
    the same bound serves the whole family; the base map must then have min
    expansion > 2 too.
    """
    lam = min_expansion(map_)
    base_lam = lam if base is None else min_expansion(base)
    for label, value in (("min expansion", lam), ("base map's min expansion", base_lam)):
        if value <= 2.0:
            raise UnsupportedRegimeError(
                f"{label} {value} <= 2: uniform variation bounds would need the "
                "no-periodic-critical-points analysis, which is not implemented")
    dist = distortion(map_)
    widths = [b.domain.hi - b.domain.lo for b in map_.branches]
    c_eps = variation_inflation_constant(lam, dist, min(widths))
    beta = 2.0 / lam
    if base is None:
        c0 = c_eps
    else:
        base_widths = [b.domain.hi - b.domain.lo for b in base.branches]
        c0 = variation_inflation_constant(base_lam, distortion(base), min(base_widths))
    return LasotaYorkeConstants(lam=lam, distortion=dist, C_eps=c_eps,
                                beta=beta, C_LY=2.0 * c0 / (1.0 - beta))
