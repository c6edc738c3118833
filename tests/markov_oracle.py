"""Exact Markov-partition oracle for rational piecewise-affine families.

Let every branch T_eps(x) = (s + eps*ds) x + (t + eps*dt) be affine with
rational data, and eps rational.  Then x -> a x + c keeps denominators
bounded, so the forward orbit of the branch ends is finite, and T_eps is
Markov on the partition that orbit cuts: each piece maps affinely onto a
union of pieces.  The transfer operator keeps the densities that are
constant on the pieces, and on their masses it is the stochastic matrix
P[i, j] = len(j) / (|slope| len(i)), for each piece j inside the image of
piece i.  Ulam's matrix on any grid that refines the partition has the same
fixed density and holds these eigenvalues among its own (Li, J. Approx.
Theory 17 (1976)).

The escape rates are those of the base map T0 through the holes T_eps
opens, H_l = [0, b] cap T_eps^-1 (b, 1] and H_r = [b, 1] cap T_eps^-1 [0, b):
the hole ends join T0's orbit, the hole pieces' rows are zeroed, and each
half's leading eigenvalue lam gives the rate -log(lam).

A branch is a tuple (lo, hi, slope, intercept, slope_eps, intercept_eps) of
Fractions.  This module imports nothing from metamap: the tests compare its
output with the pipeline's.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# a partition with more pieces is refused: its dense solves would take
# minutes (family A at eps = 1/80000 has 7001 pieces)
MAX_PIECES = 2000
TOP_EIGENVALUES = 4


@dataclass(frozen=True)
class Oracle:
    """The exact quantities of one T_eps and of T0 with T_eps's holes cut out.

    ``cuts`` is T_eps's Markov partition and ``masses`` its fixed density's
    mass on each piece, summing to 1; ``eigenvalues`` are the top ones of its
    matrix, by modulus, 1 first.  ``cuts0`` is T0's partition with the hole
    ends and b among its cuts, and ``masses0`` the masses of T0's ergodic
    densities on it, each half summing to 1.  ``hole_masses`` are mu_l(H_l)
    and mu_r(H_r) under those densities and ``escape_rates`` the two
    halves' -log(lam).
    """

    cuts: tuple[Fraction, ...]
    masses: np.ndarray
    eigenvalues: np.ndarray
    cuts0: tuple[Fraction, ...]
    masses0: np.ndarray
    hole_masses: tuple[float, float]
    escape_rates: tuple[float, float]

    @property
    def denominator_lcm(self) -> int:
        """The least grid n that refines both partitions."""
        return math.lcm(*(c.denominator for c in self.cuts + self.cuts0))

    @property
    def escape_ratios(self) -> tuple[float, float]:
        """mu(H) / rate of each half, as a sweep row reports them."""
        return tuple(mu / rate for mu, rate in zip(self.hole_masses, self.escape_rates))


def _maps(branches, eps):
    """(lo, hi, slope, intercept) of each branch of T_eps."""
    return [(lo, hi, s + eps * ds, t + eps * dt) for lo, hi, s, t, ds, dt in branches]


def markov_partition(maps, seeds=()) -> tuple[Fraction, ...]:
    """The forward orbit of the branch ends and of ``seeds``, sorted: at a
    shared end both one-sided images.  Refused over MAX_PIECES pieces, or
    where an image leaves [0, 1]."""
    todo = {x for lo, hi, _, _ in maps for x in (lo, hi)} | set(seeds)
    seen: set[Fraction] = set()
    while todo:
        x = todo.pop()
        seen.add(x)
        if len(seen) > MAX_PIECES + 1:
            raise ValueError(f"partition has more than {MAX_PIECES} pieces")
        for lo, hi, s, t in maps:
            if lo <= x <= hi:
                y = s * x + t
                if not 0 <= y <= 1:
                    raise ValueError(f"T({x}) = {y} leaves [0, 1]")
                if y not in seen:
                    todo.add(y)
    return tuple(sorted(seen))


def transfer_matrix(maps, cuts) -> np.ndarray:
    """P[i, j]: the share of piece i's mass that lands on piece j."""
    index = {c: k for k, c in enumerate(cuts)}
    ends = [hi for _, hi, _, _ in maps]
    m = len(cuts) - 1
    P = np.zeros((m, m))
    for i, (a, c) in enumerate(zip(cuts, cuts[1:])):
        # the branch ends are cuts, so the piece lies in one branch
        _, _, s, t = maps[bisect_right(ends, a)]
        y0, y1 = sorted((s * a + t, s * c + t))
        for j in range(index[y0], index[y1]):
            P[i, j] = float((cuts[j + 1] - cuts[j]) / (abs(s) * (c - a)))
    return P


def fixed_masses(P: np.ndarray) -> np.ndarray:
    """The masses m >= 0 with m P = m and sum 1, for an irreducible P."""
    m = len(P)
    A = P.T - np.eye(m)
    A[-1] = 1.0
    rhs = np.zeros(m)
    rhs[-1] = 1.0
    return np.linalg.solve(A, rhs)


def find_holes(maps, b: Fraction):
    """H_l and H_r of the affine maps, as (lo, hi) intervals by side."""
    sides = ([], [])
    for lo, hi, s, t in maps:
        x = (b - t) / s    # the branch crosses b here, or its line does
        for side, seg_lo, seg_hi in ((0, lo, min(hi, b)), (1, max(lo, b), hi)):
            if seg_lo >= seg_hi:
                continue
            pts = sorted({seg_lo, seg_hi, min(max(x, seg_lo), seg_hi)})
            for u, v in zip(pts, pts[1:]):
                y = s * (u + v) / 2 + t
                if (y > b) if side == 0 else (y < b):
                    sides[side].append((u, v))
    return tuple(tuple(h) for h in sides)


def solve(branches, eps: Fraction, b: Fraction) -> Oracle:
    """The exact fixed density, top eigenvalues, hole masses and escape
    rates of the family ``branches`` at ``eps`` with boundary ``b``."""
    maps = _maps(branches, eps)
    cuts = markov_partition(maps)
    P = transfer_matrix(maps, cuts)
    eig = np.linalg.eigvals(P)
    eig = eig[np.argsort(-np.abs(eig), kind="stable")][:TOP_EIGENVALUES]

    holes = find_holes(maps, b)
    maps0 = _maps(branches, Fraction(0))
    cuts0 = markov_partition(maps0, [b, *(x for h in holes for iv in h for x in iv)])
    P0 = transfer_matrix(maps0, cuts0)
    mid = [(a + c) / 2 for a, c in zip(cuts0, cuts0[1:])]
    in_hole = np.array([any(lo < x < hi for h in holes for lo, hi in h) for x in mid])
    k = cuts0.index(b)
    masses0 = np.empty(len(mid))
    hole_masses, rates = [], []
    for block in (slice(0, k), slice(k, len(mid))):
        masses0[block] = fixed_masses(P0[block, block])
        hole_masses.append(float(masses0[block][in_hole[block]].sum()))
        open_ = P0[block, block] * ~in_hole[block][:, None]
        lam = float(np.max(np.abs(np.linalg.eigvals(open_))))
        rates.append(-math.log(lam))
    return Oracle(cuts=cuts, masses=fixed_masses(P), eigenvalues=eig, cuts0=cuts0,
                  masses0=masses0, hole_masses=tuple(hole_masses),
                  escape_rates=tuple(rates))


def cell_averages(cuts, masses, n: int) -> np.ndarray:
    """The density with ``masses`` on the pieces of ``cuts``, averaged over
    each of n equal cells; refused unless the grid refines the partition."""
    out = np.empty(n)
    for a, c, mass in zip(cuts, cuts[1:], masses):
        i, j = a * n, c * n
        if i.denominator != 1 or j.denominator != 1:
            raise ValueError(f"grid n={n} does not refine the piece [{a}, {c}]")
        out[int(i):int(j)] = mass / float(c - a)
    return out
