"""Leading and second eigenpairs of Ulam matrices, and open-system escape rates.

Every solver here is power iteration through one kernel, ``_iterate``: it
repeats ``w <- step(w)`` and stops when the mean-L1 step change and the
extrapolated distance to the limit are both below the tolerance.  The
callers differ only in their step: the deflated step for the second
eigenpair (P^T with the mean removed), the psi-corrected mass step for the
invariant density (each step removes the second eigenvector's component
at its rate rho, so the run contracts at the third eigenvalue's rate
instead of at rho_eps ~ 1 - c*eps), plain mass renormalization for the
eps=0 ergodic densities and for a density whose eigenvalue 1 is not
simple, and, for the escape rates of both invariant blocks of the eps=0
matrix in one run, a hole mask with each block renormalized to mean 1.
One cell count k names the blocks [0,k) and [k,n) throughout.
``invariant_density`` runs the deflated kernel first, from 1 on [0,k) and
-1 on [k,n) with a seeded generic component, and then the density kernel
once; it is the one owner of the second pair: a second eigenvalue within
10*tol of 1 means eigenvalue 1 is not simple, and otherwise the pair is
kept on the result; a second eigenvalue that is not real, or is -1,
raises.  A deflated run that stalls is named by a Rayleigh-Ritz check on
its last iterate (three vectors, six matvecs), so every outcome costs
O(nnz) at any n.

A step costs one sparse matvec and a few passes over the vector, and at
the grid sizes used the passes and their Python calls cost as much as the
matvec.  So the steps work in place on the matvec's fresh result, |d| and
|v| go into one scratch buffer per call, means are ``np.add.reduce`` over
the length (``np.mean`` without its wrapper: the same bits), and what is
read only at the end, the deflated step's Rayleigh quotient, is computed
once from the last step.  The kernel reads the full step change only
where a stop is possible: before that, the sum of |d| over the first and
last n // 32 cells already proves the step cannot stop (see
``_iterate``), at 1/16 of the full read's bytes.  The psi-corrected step
reads its correction's coefficient from its input, as <P psi - psi, x>,
and lets the matvec add P^T x into the scaled psi, so it makes no pass
over y - x and no separate subtraction.  The deflated, psi-corrected and
escape steps rescale by multiplying with the reciprocal of the scalar,
which costs less than half of an array division at n = 15360; the plain
mass step divides, so it keeps the bits of plain power iteration.  Dot
products use ``np.einsum`` (see the deflated step), so no result depends
on the BLAS thread count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .map_model import Interval
from .transfer_operator import DensityGrid, UlamMatrix, cells_below

START_SEED = 0x5EED
STALL_WINDOW = 200


class SolverError(RuntimeError):
    """Iteration stalled or did not converge within the allowed number of steps.

    ``iterate`` is the last iterate when ``_iterate`` stalled or ran out of
    steps, else None (also when a step change was not finite); ``stalled``
    is True when the step change stopped shrinking.
    """

    def __init__(self, message: str, iterate: Optional[np.ndarray] = None,
                 stalled: bool = False):
        super().__init__(message)
        self.iterate = iterate
        self.stalled = stalled


class DegenerateSpectrumError(ValueError):
    """The requested eigenstructure does not exist (complex pair, zero gap...)."""


def _default_max_iter(n: int) -> int:
    # 10 n log n scales with grid size; the floor keeps small matrices (whose
    # spectral gap need not shrink with n) convergent.
    return max(int(10 * n * max(math.log(n), 1.0)), 20000)


def _err_estimate(diff: float, r: float) -> float:
    """Distance to the limit when the step change shrinks by r per step.

    The remaining steps sum to about diff * r / (1 - r).
    """
    if diff == 0.0:
        return 0.0
    if r >= 1.0:
        return math.inf
    return diff * r / (1.0 - r)


def _iterate(step: Callable[[np.ndarray], np.ndarray], w: np.ndarray,
             tol: float) -> tuple[np.ndarray, int]:
    """Repeat ``w <- step(w)`` until it settles; return the limit and the step count.

    With d = w_k - w_{k-1}, diff = mean|d| and r = diff_k / diff_{k-1}, the
    loop stops once diff <= tol and ``_err_estimate(diff, r)`` <= tol.

    Before step STALL_WINDOW, a step first sums |d| over its first and last
    m = n // 32 cells only (none when n < 32).  Every term is nonnegative,
    so a finite sum above 4*tol*n proves diff > 4*tol: that step cannot
    stop, and it is not read in full.  The next full read then takes r = 0,
    which stops exactly where the true ratio would: diff <= tol gives
    r < 1/4 and an error estimate below tol/3.  So every run takes the
    steps it would take reading each step in full, and the stall window
    holds full reads only.

    Raises SolverError after ``_default_max_iter(w.size)`` steps, on the
    first step change that is not finite, or as soon as the step change,
    from step 2*STALL_WINDOW on, is no smaller than it was STALL_WINDOW
    steps earlier: a contracting iteration shrinks over any such window,
    however slowly.  A step change that is not finite is named at the
    step where it appears when it reaches cell 0 or cell n-1 there, which
    lie in the blocks [0,k) and [k,n) for every split k.  The package's
    steps (mass, corrected, deflated, escape) each rescale a block by a
    sum over it, so a NaN anywhere in a block reaches all of it in the
    step where it appears.  A caller's own step may be named later, at
    step STALL_WINDOW at the latest.
    """
    n = w.size
    max_iter = _default_max_iter(n)
    window = np.full(STALL_WINDOW, math.inf)   # step changes of the last window
    buf = np.empty_like(w)                     # |d|, overwritten every step
    m = n // 32
    ends, head, tail = buf[:2 * m], buf[:m], buf[m:2 * m]
    bound = 4.0 * tol * n                      # an end sum above it: diff > 4*tol
    diff = prev_diff = math.inf
    for k in range(1, max_iter + 1):
        nxt = step(w)
        if m and k < STALL_WINDOW:
            np.subtract(nxt[:m], w[:m], out=head)
            np.subtract(nxt[n - m:], w[n - m:], out=tail)
            if bound < np.add.reduce(np.abs(ends, out=ends)) < math.inf:
                w = nxt
                prev_diff = math.inf           # the next full read takes r = 0
                continue
        # add.reduce / n is np.mean without its Python wrapper: same bits
        diff = float(np.add.reduce(np.abs(np.subtract(nxt, w, out=buf), out=buf))) / n
        w = nxt
        r = diff / prev_diff if prev_diff > 0.0 else math.inf
        if diff <= tol and _err_estimate(diff, r) <= tol:
            return w, k
        if not math.isfinite(diff):
            # NaN fails every comparison below, so the run would use up its budget
            raise SolverError(f"power iteration step {k} has a step change of {diff}, "
                              "which is not finite")
        slot = k % STALL_WINDOW
        if k >= 2 * STALL_WINDOW and diff >= window[slot]:
            raise SolverError(
                f"power iteration stalled at step {k} (step change {diff:.3g}, "
                f"{window[slot]:.3g} {STALL_WINDOW} steps earlier)", w, stalled=True)
        window[slot] = diff
        prev_diff = diff
    raise SolverError(
        f"power iteration did not converge in {max_iter} steps "
        f"(last step change {diff:.3g})", w)


@dataclass(frozen=True)
class InvariantDensityResult:
    """Fixed density, simplicity verdict, second eigenpair and solver record.

    ``rho`` / ``psi`` are the deflated second eigenpair that decided the
    verdict; None only when the leading eigenvalue is not simple.  Then
    ``probe_phi`` is a second fixed density, at mean-L1 distance
    ``probe_distance`` from ``phi``.
    """

    phi: DensityGrid
    leading_simple: bool
    residual: float
    iterations: int
    probe_phi: Optional[DensityGrid] = None
    probe_distance: float = 0.0
    rho: Optional[float] = None
    psi: Optional[DensityGrid] = None


def _mass_step(P: UlamMatrix) -> Callable[[np.ndarray], np.ndarray]:
    n = P.n

    def step(d):
        nxt = P.apply(d)
        nxt /= np.add.reduce(nxt) / n
        return nxt
    return step


def _corrected_step(P: UlamMatrix, rho: float,
                    psi: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Mass step that removes the psi component at its exact rate rho.

    An iterate is x = phi + s*psi + fast, so y = P^T x carries s*rho*psi and
    <psi, y - x> = s*(rho - 1)*<psi, psi> up to the fast modes' share; y
    loses s*rho*psi and is rescaled to mean 1.  The run then contracts at
    the third eigenvalue's rate, not at rho ~ 1 - c*eps.

    <psi, y - x> is taken as <g, x> with g = P psi - psi, built once per
    run: it is the same number, <psi, P^T x - x> = <P psi - psi, x>, read
    from the step's input, so the matvec can add P^T x into the correction
    -s*rho*psi.  <g, x> is one dot, not a difference of two dots that
    cancel near the limit, and it carries none of the matvec's rounding:
    its own is about 1e-16 * sum|g_i x_i|, which 1/(1 - rho) magnifies.
    Measured against a dot over y - x (the tests' reference), the limit
    moves by at most 1.8e-14 per cell and the step counts are the same on
    the builtins up to n = 122880.  Where P is near the identity, g is
    small: on a 12-cell lazy walk the measured step ratio holds at the
    third eigenvalue's 0.9945 to the end, where the dot over y - x let it
    jitter by +-5% once the step change fell below 5e-12.
    """
    n = P.n
    scale = rho / ((rho - 1.0) * float(np.einsum("i,i->", psi, psi)))
    g = P.apply_adjoint(psi)
    g -= psi

    def step(x):
        y = np.multiply(psi, -scale * float(np.einsum("i,i->", g, x)))
        P.apply(x, out=y)
        y *= n / np.add.reduce(y)
        return y
    return step


def _clip_negative(phi: np.ndarray) -> np.ndarray:
    """phi clipped at 0 and rescaled to mean 1.

    The psi correction leaves values of ~-1e-10 in cells where the density
    vanishes.  A limit without negative cells is returned as it is:
    rescaling it would only move its last bits.
    """
    if phi.min() >= 0.0:
        return phi
    phi = np.maximum(phi, 0.0)
    return phi / np.mean(phi)


def invariant_density(P: UlamMatrix, tol: float = 1e-10,
                      k: Optional[int] = None) -> InvariantDensityResult:
    """Fixed density of the Ulam matrix, the simplicity of its eigenvalue 1
    and the second eigenpair that decides it.

    ``k`` names the left block [0,k), 0 < k < n, by default the cells
    below 1/2.  ``_second_pair`` runs first.  A second eigenvalue that is
    not real raises DegenerateSpectrumError, a stalled run that its Ritz
    check cannot name SolverError.  A second eigenvalue within 10*tol of -1
    raises DegenerateSpectrumError as well: it ties in modulus with a
    second eigenvalue 1, so it decides nothing.  A second eigenvalue rho
    with |1 - rho| <= 10*tol means eigenvalue 1 is not simple.

    The density kernel then runs once, from the uniform density: with the
    psi-corrected step (``_corrected_step``) when eigenvalue 1 is simple,
    with the plain mass step when it is not.  If that run stalls, and two
    steps return its last iterate while one does not, a closed class has
    period 2 (eigenvalue -1) and DegenerateSpectrumError says so; otherwise
    the SolverError propagates.  A run that only ran out of steps is not
    checked: one that contracts slowly through an eigenvalue near -1 also
    nearly returns after two steps.  When eigenvalue 1 is
    simple, (rho, psi) is kept on the result.  Otherwise phi + c*psi with
    no mass on [k,n) (on [0,k) if phi has none on [k,n)) is reported as a
    second fixed density.
    """
    n = P.n
    if k is None:
        k = cells_below(0.5, n)
    _check_split(k, n)
    rho, psi = _second_pair(P, k, tol)
    if abs(1.0 + rho) <= 10.0 * tol:
        raise DegenerateSpectrumError(
            f"second eigenvalue {rho!r} is -1, which ties in modulus with a second "
            "eigenvalue 1: simplicity of eigenvalue 1 cannot be decided")
    simple = abs(1.0 - rho) > 10.0 * tol
    step = _corrected_step(P, rho, psi.values) if simple else _mass_step(P)
    try:
        phi, steps = _iterate(step, np.ones(n), tol)
    except SolverError as exc:
        w = exc.iterate
        if (exc.stalled and np.mean(np.abs(step(step(w)) - w)) <= 10.0 * tol
                < np.mean(np.abs(step(w) - w))):
            raise DegenerateSpectrumError(
                "eigenvalue -1: the density iterates return after two steps but "
                "not after one, so a closed class has period 2") from exc
        raise
    phi = _clip_negative(phi)
    residual = float(np.mean(np.abs(P.apply(phi) - phi)))
    res = InvariantDensityResult(phi=DensityGrid(n, phi), leading_simple=simple,
                                 residual=residual, iterations=steps)
    if simple:
        return replace(res, rho=rho, psi=psi)
    # every phi + c*psi is fixed: report the one without mass on [k,n), or
    # without mass on [0,k) when phi itself has none on [k,n).  A psi with
    # no mass on either block separates no block; phi + psi is reported then
    phi_r, psi_r = float(phi[k:].sum()) / n, float(psi.values[k:].sum()) / n
    target = phi_r if phi_r > 10.0 * tol else phi_r - 1.0
    c = -target / psi_r if abs(psi_r) > 10.0 * tol else 1.0
    return replace(res, probe_phi=DensityGrid(n, phi + c * psi.values),
                   probe_distance=abs(c) * psi.l1_norm())


def _finalize_psi(values: np.ndarray, k: int) -> DensityGrid:
    """L1-normalized, with a positive sum over the left block [0,k)."""
    norm = float(np.mean(np.abs(values)))
    if norm <= 0:
        raise DegenerateSpectrumError("second eigenvector collapsed to zero")
    sign = 1.0 if np.add.reduce(values[:k]) >= 0.0 else -1.0
    return DensityGrid(values.size, values / (sign * norm))


@functools.lru_cache(maxsize=4)
def _deflated_start(n: int, k: int) -> np.ndarray:
    """The deflated run's start, read-only: 1 on [0,k), -1 on [k,n), plus
    1e-6 times a uniform draw in [-0.5, 0.5) seeded with START_SEED, less
    its mean."""
    w = np.full(n, -1.0)
    w[:k] = 1.0
    # any fixed start misses the eigenvectors it has no component along; a
    # seeded generic component shrinks those to a null set.  The draw is
    # splitmix64 in uint64 arithmetic, which wraps: no process pays the
    # 12-16 ms import of numpy.random for it
    z = np.arange(1, n + 1, dtype=np.uint64) * 0x9E3779B97F4A7C15 + START_SEED
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    z ^= z >> 31
    w += 1e-6 * ((z >> 11) * 2.0 ** -53 - 0.5)
    w = w - np.mean(w)
    w /= np.mean(np.abs(w))
    w.setflags(write=False)
    return w


def second_eigenpair(P: UlamMatrix, phi: Optional[DensityGrid], I_l: Interval,
                     tol: float = 1e-10) -> tuple[float, DensityGrid]:
    """``_second_pair`` on the left block that ``I_l`` = [0,b) names: the k
    cells it overlaps, which must leave 0 < k < n.  ``phi`` is not read."""
    n = P.n
    k = cells_below(I_l.hi, n)
    if not (I_l.lo == 0.0 and 0 < k < n):
        raise ValueError(f"I_l = [{I_l.lo}, {I_l.hi}) must be [0,b) covering k cells "
                         f"with 0 < k < n = {n} (k = {k})")
    return _second_pair(P, k, tol)


def _second_pair(P: UlamMatrix, k: int, tol: float) -> tuple[float, DensityGrid]:
    """Second eigenvalue and eigenvector of the Ulam matrix.

    Deflated power iteration on the mass-zero subspace, where the second
    eigenvalue dominates.  P's rows sum to 1, so P^T keeps the mass of
    every vector, and on mass-zero vectors the operator deflated against
    the density is P^T itself: each step only removes the mean of P^T w,
    which holds no more than rounding drift.  The start is
    ``_deflated_start(n, k)``, built once per grid and read, never written,
    by every call.  Each step normalizes the projected image v in
    place, to u = v/nrm with nrm its mean |v|.  The eigenvalue is the
    Rayleigh quotient <v, w>/<w, w> of the last step's input w and its
    image, taken as nrm*<u, w>/<w, w> from the dot the step's sign check
    already computes.
    The eigenvector is L1-normalized with positive sum over the left block
    [0,k); its own integral vanishes by construction.

    When the iteration stalls or runs out of steps, its last iterate w is
    checked by Rayleigh-Ritz on span{w, Aw, A^2 w}, A the deflated step
    without its normalization: six matvecs at any n.  A Ritz value within
    10*tol of 1 whose vector has residual <= 10*tol gives (1.0, that
    vector), the difference of two fixed densities; a top-modulus Ritz
    value that is not real raises DegenerateSpectrumError; anything else
    raises SolverError naming the top Ritz value.
    """
    n = P.n
    w = _deflated_start(n, k)
    buf = np.empty(n)                          # |v|, overwritten every step
    last = None                                # the last step's (nrm, <u, w>, w)

    def deflated(x):
        v = P.apply(x)
        v -= np.add.reduce(v) / n
        return v

    def step(w):
        nonlocal last
        v = deflated(w)
        nrm = np.add.reduce(np.abs(v, out=buf)) / n
        if nrm <= 1e-300:
            raise DegenerateSpectrumError("iterate collapsed; no second eigenvalue found")
        v *= 1.0 / nrm
        # einsum, not np.dot: a 1-D dot goes through BLAS threading, which
        # stalls for milliseconds per call in some processes at n >= 15360
        dot = float(np.einsum("i,i->", v, w))
        last = (nrm, dot, w)
        if dot < 0:
            np.negative(v, out=v)
        return v

    try:
        w, _ = _iterate(step, w, tol)
    except SolverError as exc:
        # a run stalls when two eigenvalues share the top modulus (a
        # rotating complex pair, or 1 and -1); the last iterate spans them
        w = exc.iterate
        if w is None:
            raise
        aw = deflated(w)
        q, _ = np.linalg.qr(np.column_stack([w, aw, deflated(aw)]))
        theta, y = np.linalg.eig(q.T @ np.column_stack([deflated(c) for c in q.T]))
        for t, yt in zip(theta, y.T):
            if abs(t - 1.0) <= 10.0 * tol:
                x = q @ yt.real
                x /= np.mean(np.abs(x))
                if np.mean(np.abs(deflated(x) - t.real * x)) <= 10.0 * tol:
                    return 1.0, _finalize_psi(x, k)
        top = theta[np.argmax(np.abs(theta))]
        if abs(top.imag) > 1e-8 * max(1.0, abs(top)):
            raise DegenerateSpectrumError(
                f"second eigenvalue {complex(top):.6g} is complex; outside the "
                "metastable regime") from exc
        raise SolverError(f"second eigenpair: {exc}; the top Ritz value of the last "
                          f"iterate is {top.real:.6g}", w) from exc
    # <v, w> of the projected image v = nrm*u, where u is what the step returned
    nrm, dot, w_in = last
    rho = float(nrm) * dot / float(np.einsum("i,i->", w_in, w_in))
    return rho, _finalize_psi(w, k)


def _check_split(k: int, n: int) -> None:
    """Refuse blocks [0,k) and [k,n) of which one is empty."""
    if not 0 < k < n:
        raise ValueError(f"block split k = {k} must leave 0 < k < n = {n}")


def _check_closed_blocks(P: UlamMatrix, k: int) -> None:
    """Refuse an empty block, or a P with a row whose entries in the other
    block's columns sum to more than 1e-9, naming its block.  One pass over
    P's entries, about 20 us at n = 15360."""
    n, m = P.n, P.matrix
    _check_split(k, n)
    split = m.indptr[k]
    # other: P's entries in the other block's columns, which P's CSC
    # arrays hold as one range
    for lo, hi, other in ((0, k, slice(split, None)), (k, n, slice(0, split))):
        rows = m.indices[other]
        out = (rows >= lo) & (rows < hi)
        if out.any():
            moved = np.bincount(rows[out], weights=m.data[other][out])
            worst = int(np.argmax(moved))
            if moved[worst] > 1e-9:
                raise ValueError(f"block [{lo}, {hi}) of {n} cells is not invariant: row "
                                 f"{worst} moves {moved[worst]:.3g} of its mass out of it")


def escape_rate(P: UlamMatrix, hole_cells, k: int,
                tol: float = 1e-12) -> tuple[float, float]:
    """Escape rates -log(lambda) of the blocks [0,k) and [k,n) of P through
    their hole cells, from one run.

    P must move no mass between the blocks, so that P with its hole columns
    zeroed is block diagonal (``_check_closed_blocks``).  Each step zeroes the
    hole cells and rescales each block to mean 1 on its own; a block's
    lambda is the mean of its part of the unrescaled step.  A block without
    hole cells is held at zero and its rate is 0.0.  Hole cells outside
    0..n-1, and a hole covering a whole block, raise ValueError.
    """
    n = P.n
    _check_closed_blocks(P, k)
    # np.unique would import numpy.ma (13-18 ms) in a fresh process
    hole = np.asarray(hole_cells, dtype=int).ravel()
    outside = hole[(hole < 0) | (hole >= n)]
    if outside.size:
        raise ValueError(f"hole cells {sorted(set(outside.tolist()))[:4]}... outside 0..{n - 1}")
    keep = np.ones(n)
    keep[hole] = 0.0
    lams, blocks = {0: 1.0, k: 1.0}, []         # the open blocks' (cells, size)
    for lo, hi in ((0, k), (k, n)):
        if keep[lo:hi].all():
            keep[lo:hi] = 0.0
        elif not keep[lo:hi].any():
            raise ValueError(f"hole covers the whole block [{lo}, {hi}); "
                             "escape rate undefined")
        else:
            blocks.append((slice(lo, hi), hi - lo))
    shut = np.flatnonzero(keep == 0.0)

    def step(w):
        # Mean-1 blocks keep the mean-L1 step change on the scale of the
        # iterate; sum-1 blocks shrink it by 1/m and stop too early.
        v = P.apply(w)
        # the iterates are nonnegative, so this zeroes what v *= keep would
        v[shut] = 0.0
        for cells, size in blocks:
            lam = lams[cells.start] = float(np.add.reduce(v[cells])) / size
            if lam <= 0.0:
                raise DegenerateSpectrumError(
                    f"all mass of block [{cells.start}, {cells.stop}) escapes in one step")
            v[cells] *= 1.0 / lam
        return v

    _iterate(step, keep, tol)
    # 0.0 - log: a block held at zero keeps lambda = 1 and rate 0.0, not -0.0
    return 0.0 - math.log(lams[0]), 0.0 - math.log(lams[k])
