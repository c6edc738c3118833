import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from metamap import spectral
from metamap.families import family_a, family_b
from metamap.map_model import Branch, PiecewiseMap
from metamap.metastability import prepare_sweep, run_sweep_row
from metamap.transfer_operator import DensityGrid, UlamMatrix, build_ulam

ACCEPTANCE_EPS = (0.02, 0.01, 0.005, 0.0025)
ACCEPTANCE_N = 3840
# the grid and eps ladder of the sweep_*_fine benchmark workloads
FINE_N = 15360
FINE_EPS = (0.0064, 0.0032, 0.0016, 0.0008)


@pytest.fixture()
def fam_a():
    return family_a()


@pytest.fixture()
def fam_b():
    return family_b()


@pytest.fixture()
def doubling_map():
    """2x mod 1; minimum expansion exactly 2 (outside the lam > 2 regime)."""
    return PiecewiseMap([Branch.affine(0.0, 0.5, 2.0, 0.0),
                         Branch.affine(0.5, 1.0, 2.0, -1.0)])


@pytest.fixture(scope="session")
def sweep_a():
    """Family A acceptance sweep: context, rows, per-eps artifacts, wall time."""
    fam = family_a()
    t0 = time.perf_counter()
    ctx = prepare_sweep(fam, ACCEPTANCE_EPS, ACCEPTANCE_N)
    results = [run_sweep_row(ctx, eps) for eps in ACCEPTANCE_EPS]
    elapsed = time.perf_counter() - t0
    rows = [r for r, _ in results]
    arts = {a.eps: a for _, a in results if a is not None}
    assert all(r.error is None for r in rows), [r.error for r in rows]
    return {"ctx": ctx, "rows": rows, "arts": arts, "elapsed": elapsed,
            "eps_list": ACCEPTANCE_EPS, "n": ACCEPTANCE_N}


@pytest.fixture(scope="session")
def ulam_a_768():
    """Family A eps=0.01 on the dense-oracle grid."""
    fam = family_a()
    return build_ulam(fam.instantiate(0.01), 768)


def scipy_csc(P):
    """The Ulam matrix P as a scipy CSC matrix on P's own arrays."""
    m = P.matrix
    return sparse.csc_matrix((m.data, m.indices, m.indptr), shape=(P.n, P.n))


def dense_top_eigenpairs(P, k=2):
    """Top-k left eigenpairs of the Ulam matrix P by modulus, from a dense
    LAPACK eigensolve: the tests' reference oracle."""
    vals, vecs = np.linalg.eig(scipy_csc(P).toarray().T)
    order = np.argsort(-np.abs(vals))
    return [(complex(vals[idx]), vecs[:, idx]) for idx in order[:k]]


def three_block_cycle(n, seed=0):
    """Sparse chain on three blocks of n/3 states in a cycle: each state
    stays with probability 0.1 and sends 0.9 evenly to 8 seeded-random
    states of the next block.  Its block chain is exact, so the second
    eigenvalues are 0.1 + 0.9 exp(+-2 pi i/3) = -0.35 +- 0.779i."""
    rng = np.random.default_rng(seed)
    b = n // 3
    cols = np.empty((n, 9), dtype=np.int64)
    cols[:, 0] = np.arange(n)
    for i in range(n):
        cols[i, 1:] = (i // b + 1) % 3 * b + rng.choice(b, 8, replace=False)
    vals = np.tile(np.r_[0.1, np.full(8, 0.9 / 8)], n)
    m = sparse.csc_matrix((vals, (np.repeat(np.arange(n), 9), cols.ravel())), shape=(n, n))
    return UlamMatrix.from_matrix(m)


def block_rates(P, x, k):
    """(p_LR, p_RL) of the density x on the blocks [0,k), [k,n): the 2x2
    chain between them.

    A block's exit probability is the mass-weighted mean of its rows'
    probabilities of leaving it, nan for a block without mass.
    """
    m = P.matrix
    # row i's probability of leaving its block: the entries of P's first k
    # columns summed per row, in storage order as P[:, :k].sum(axis=1) does
    out = np.bincount(m.indices[:m.indptr[k]], weights=m.data[:m.indptr[k]], minlength=P.n)
    out[:k] = 1.0 - out[:k]
    m_l, m_r = float(np.add.reduce(x[:k])), float(np.add.reduce(x[k:]))
    p_lr = float(np.einsum("i,i->", x[:k], out[:k])) / m_l if m_l > 0 else math.nan
    p_rl = float(np.einsum("i,i->", x[k:], out[k:])) / m_r if m_r > 0 else math.nan
    return p_lr, p_rl


def corrected_step_reference(P, rho, psi):
    """The psi-corrected density step in its first formulation: the
    correction's coefficient from one dot over the step's change y - x, and
    the scaled psi subtracted from the matvec's fresh result.
    ``spectral._corrected_step`` takes the same number as <P psi - psi, x>."""
    n = P.n
    scale = rho / ((rho - 1.0) * float(np.einsum("i,i->", psi, psi)))
    buf = np.empty(n)

    def step(x):
        y = P.apply(x)
        s = float(np.einsum("i,i->", psi, np.subtract(y, x, out=buf)))
        y -= np.multiply(psi, s * scale, out=buf)
        y *= n / np.add.reduce(y)
        return y
    return step


def plain_power(P, start, tol):
    """Plain power iteration of P^T from a nonnegative start, renormalized
    to mean 1 each step, through the kernel: (limit, steps)."""
    return spectral._iterate(spectral._mass_step(P), start / np.mean(start), tol)


def lebesgue_halves(n):
    """Lebesgue densities of [0, 1/2) and [1/2, 1) on an even n cells, each
    at mass 1."""
    left = np.arange(n) < n // 2
    return DensityGrid(n, np.where(left, 2.0, 0.0)), DensityGrid(n, np.where(left, 0.0, 2.0))


def traced_peak(f, *args) -> int:
    """The traced peak, in bytes, of the allocations made by one call."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def record_solves(monkeypatch):
    """Wrap ``spectral._iterate``: each run appends (solver, tol, start, steps).

    The solver names the function whose step ran: ``_second_pair``,
    ``_corrected_step``, ``_mass_step`` or ``_solve_blocks``.
    """
    calls = []
    iterate = spectral._iterate

    def wrapped(step, w, tol):
        out = iterate(step, w, tol)
        calls.append((step.__qualname__.split(".")[0], tol, w, out[1]))
        return out
    monkeypatch.setattr(spectral, "_iterate", wrapped)
    return calls
