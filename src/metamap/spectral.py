"""Leading and second eigenpairs of Ulam matrices, and open-system escape rates.

Every solver here is power iteration through one kernel, ``_iterate``: it
repeats ``w <- step(w)`` and stops when the mean-L1 step change and the
extrapolated distance to the limit are both below the tolerance.  The
callers differ only in their step: mass renormalization for the invariant
density, deflation against the invariant density for the second eigenpair,
and a hole mask with mean-1 renormalization for escape rates.  A dense
eigensolve (LAPACK, via numpy.linalg.eig) doubles as cross-check oracle and
as the second eigenpair's fallback when the iteration stalls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .map_model import Interval
from .transfer_operator import DensityGrid, UlamMatrix, cells_within

RESTART_SEED = 0x5EED
DENSE_FALLBACK_CAP = 4096
STALL_WINDOW = 200


class SolverError(RuntimeError):
    """Iteration stalled or did not converge within the allowed number of steps."""


class DegenerateSpectrumError(ValueError):
    """The requested eigenstructure does not exist (complex pair, zero gap...)."""


def _default_max_iter(n: int) -> int:
    # 10 n log n scales with grid size; the floor keeps small matrices (whose
    # spectral gap need not shrink with n) convergent.
    return max(int(10 * n * max(math.log(n), 1.0)), 20000)


def _err_estimate(diff: float, prev_diff: float) -> float:
    """Distance-to-limit estimate from two successive step sizes.

    For a linearly converging iteration with rate r, the remaining error is
    about diff * r / (1 - r); r is estimated by the step ratio.
    """
    if diff == 0.0:
        return 0.0
    if prev_diff <= 0.0 or diff >= prev_diff:
        return math.inf
    r = diff / prev_diff
    return diff * r / (1.0 - r)


def _iterate(step: Callable[[np.ndarray], np.ndarray], w: np.ndarray, tol: float,
             max_iter: Optional[int] = None) -> tuple[np.ndarray, int]:
    """Repeat ``w <- step(w)`` until it settles; return the limit and the step count.

    Stops once the mean-L1 step change and its ``_err_estimate`` are both
    <= tol.  Raises SolverError after ``max_iter`` steps (default
    ``_default_max_iter(w.size)``), or as soon as the step change, from step
    2*STALL_WINDOW on, is no smaller than it was STALL_WINDOW steps earlier:
    a contracting iteration shrinks over any such window, however slowly.
    """
    if max_iter is None:
        max_iter = _default_max_iter(w.size)
    window = np.full(STALL_WINDOW, math.inf)   # step changes of the last window
    prev_diff = math.inf
    for k in range(1, max_iter + 1):
        nxt = step(w)
        diff = float(np.mean(np.abs(nxt - w)))
        w = nxt
        if diff <= tol and _err_estimate(diff, prev_diff) <= tol:
            return w, k
        slot = k % STALL_WINDOW
        if k >= 2 * STALL_WINDOW and diff >= window[slot]:
            raise SolverError(
                f"power iteration stalled at step {k} (step change {diff:.3g}, "
                f"{window[slot]:.3g} {STALL_WINDOW} steps earlier)")
        window[slot] = diff
        prev_diff = diff
    raise SolverError(
        f"power iteration did not converge in {max_iter} steps "
        f"(last step change {prev_diff:.3g})")


@dataclass(frozen=True)
class InvariantDensityResult:
    phi: DensityGrid
    leading_simple: bool
    residual: float
    iterations: int
    probe_phi: Optional[DensityGrid] = None
    probe_distance: float = 0.0


def power_fixed_density(P: UlamMatrix, start: np.ndarray, tol: float,
                        max_iter: Optional[int] = None) -> tuple[np.ndarray, int]:
    """Iterate the transfer matrix from a nonnegative start until the iterate
    is within ~tol (L1) of the fixed density, renormalizing mass each step."""
    def step(d):
        nxt = P.apply(d)
        nxt /= np.mean(nxt)
        return nxt

    return _iterate(step, start / np.mean(start), tol, max_iter)


def invariant_density(P: UlamMatrix, tol: float = 1e-10,
                      max_iter: Optional[int] = None,
                      probe_start: Optional[DensityGrid] = None) -> InvariantDensityResult:
    """Fixed density of the Ulam matrix with a simplicity probe.

    Runs power iteration twice: from the uniform density and from an
    independent start (by default the left half-interval indicator).  If the
    two limits disagree by more than 10*tol in L1 the leading eigenvalue is
    reported as non-simple and both limits are returned.
    """
    n = P.n
    if probe_start is None:
        probe_start = DensityGrid.indicator(Interval(0.0, 0.5), n, normalize=True)
    phi1, it1 = power_fixed_density(P, np.ones(n), tol, max_iter)
    phi2, it2 = power_fixed_density(P, probe_start.values.copy(), tol, max_iter)
    dist = float(np.mean(np.abs(phi1 - phi2)))
    simple = dist <= 10.0 * tol
    residual = float(np.mean(np.abs(P.apply(phi1) - phi1)))
    out1 = DensityGrid(n, phi1)
    if simple:
        return InvariantDensityResult(phi=out1, leading_simple=True,
                                      residual=residual, iterations=it1 + it2)
    return InvariantDensityResult(phi=out1, leading_simple=False,
                                  residual=residual, iterations=it1 + it2,
                                  probe_phi=DensityGrid(n, phi2), probe_distance=dist)


def dense_top_eigenpairs(P: UlamMatrix, k: int = 2) -> list[tuple[complex, np.ndarray]]:
    """Top-k left eigenpairs by modulus from a dense eigensolve (oracle path)."""
    vals, vecs = np.linalg.eig(P.to_dense().T)
    order = np.argsort(-np.abs(vals))
    out = []
    for idx in order[:k]:
        out.append((complex(vals[idx]), vecs[:, idx]))
    return out


def _finalize_psi(values: np.ndarray, b_left: float, n: int) -> DensityGrid:
    """Apply the sign convention (positive integral over [0, b]) and L1-normalize."""
    g = DensityGrid(n, values)
    if g.integrate(0.0, b_left) < 0.0:
        g = DensityGrid(n, -g.values)
    norm = g.l1_norm()
    if norm <= 0:
        raise DegenerateSpectrumError("second eigenvector collapsed to zero")
    return DensityGrid(n, g.values / norm)


def second_eigenpair(P: UlamMatrix, phi: DensityGrid, I_l: Interval,
                     tol: float = 1e-10,
                     max_iter: Optional[int] = None) -> tuple[float, DensityGrid]:
    """Second eigenvalue and eigenvector of the Ulam matrix.

    Deflated power iteration: each step projects out the invariant-density
    direction, so iterates stay in the mass-zero subspace where the second
    eigenvalue dominates.  The eigenvector is L1-normalized with positive
    integral over I_l; its own integral vanishes by construction.

    Falls back to a dense eigensolve (n <= 4096) when the iteration stalls
    or runs out of steps, and raises if the second eigenvalue turns out to
    be complex.
    """
    n = P.n
    phi_v = phi.values / phi.mass()

    w = DensityGrid.indicator(I_l, n).values - DensityGrid.indicator(Interval(I_l.hi, 1.0), n).values
    w = w - np.mean(w) * phi_v
    if np.mean(np.abs(w)) < 1e-14:
        rng = np.random.default_rng(RESTART_SEED)
        w = rng.standard_normal(n)
        w = w - np.mean(w) * phi_v
    w /= np.mean(np.abs(w))

    rho = 0.0

    def step(w):
        nonlocal rho
        v = P.apply(w)
        v = v - np.mean(v) * phi_v
        rho = float(np.dot(v, w)) / float(np.dot(w, w))
        nrm = np.mean(np.abs(v))
        if nrm <= 1e-300:
            raise DegenerateSpectrumError("iterate collapsed; no second eigenvalue found")
        v /= nrm
        if np.dot(v, w) < 0:
            v = -v
        return v

    try:
        w, _ = _iterate(step, w, tol, max_iter)
    except SolverError:
        return _second_eigenpair_dense(P, phi_v, I_l)
    return rho, _finalize_psi(w, I_l.hi, n)


def _second_eigenpair_dense(P: UlamMatrix, phi_v: np.ndarray,
                            I_l: Interval) -> tuple[float, DensityGrid]:
    n = P.n
    if n > DENSE_FALLBACK_CAP:
        raise SolverError(
            f"second eigenpair iteration did not settle and n={n} exceeds the dense "
            f"fallback cap {DENSE_FALLBACK_CAP}")
    pairs = dense_top_eigenpairs(P, k=2)
    lam2, vec = pairs[1]
    if abs(lam2.imag) > 1e-8 * max(1.0, abs(lam2)):
        raise DegenerateSpectrumError(
            f"second eigenvalue {lam2} is complex; outside the metastable regime")
    vals = np.real(vec)
    vals = vals - np.mean(vals) * phi_v
    psi = _finalize_psi(vals, I_l.hi, n)
    return lam2.real, psi


@dataclass(frozen=True)
class EscapeReport:
    """Escape rate of an open system next to the measure of its hole."""

    rate: float
    hole_measure: float
    ratio: float
    eigenvalue: float


def escape_rate(P: UlamMatrix, hole_cells, sub_domain: Interval,
                hole_measure: Optional[float] = None,
                tol: float = 1e-12,
                max_iter: Optional[int] = None) -> EscapeReport:
    """Exponential escape rate through a hole in an invariant subinterval.

    Rows and columns are restricted to the cells of ``sub_domain`` (which must
    be invariant: restricted rows must still sum to 1), the hole columns are
    zeroed, and the leading eigenvalue of the resulting substochastic matrix
    is found by power iteration on nonnegative vectors renormalized to mean
    1.  rate = -log(lambda).

    ``hole_measure`` should be the invariant measure of the true hole; when
    omitted it is approximated by the closed-system stationary measure of the
    hole cells.
    """
    sub = cells_within(sub_domain, P.n)
    if sub.size == 0:
        raise ValueError("sub_domain contains no whole cells")
    hole_cells = np.asarray(sorted(set(int(c) for c in hole_cells)), dtype=int)
    pos_of = {int(c): i for i, c in enumerate(sub)}
    missing = [int(c) for c in hole_cells if int(c) not in pos_of]
    if missing:
        raise ValueError(f"hole cells {missing[:4]}... outside the sub-domain")
    hole_pos = np.array([pos_of[int(c)] for c in hole_cells], dtype=int)

    Q = P.restrict(sub)
    if np.max(np.abs(Q.row_sums() - 1.0)) > 1e-9:
        raise ValueError("sub_domain is not invariant under the map")

    m = sub.size
    if hole_measure is None:
        pi, _ = power_fixed_density(Q, np.ones(m), 1e-12, max_iter)
        hole_measure = float(np.sum(pi[hole_pos]) / m)

    if hole_pos.size == 0:
        return EscapeReport(rate=0.0, hole_measure=hole_measure,
                            ratio=math.nan, eigenvalue=1.0)
    if hole_pos.size == m:
        raise ValueError("hole covers the whole sub-domain; escape rate undefined")

    keep = np.ones(m)
    keep[hole_pos] = 0.0
    lam = 1.0

    def step(w):
        # Mean-1 iterates keep the mean-L1 step change on the scale of the
        # iterate; sum-1 iterates shrink it by 1/m and stop too early.
        nonlocal lam
        v = Q.apply(w) * keep
        lam = float(np.mean(v))
        if lam <= 0.0:
            raise DegenerateSpectrumError("all mass escapes in one step")
        return v / lam

    _iterate(step, keep / np.mean(keep), tol, max_iter)
    return EscapeReport(rate=-math.log(lam), hole_measure=hole_measure,
                        ratio=hole_measure / -math.log(lam) if lam < 1.0 else math.inf,
                        eigenvalue=lam)
