"""Bounded-variation diagnostics of computed densities.

Invariant densities of piecewise expanding maps are BV functions whose
discontinuities sit on the forward orbit of the critical set, with jump sizes
decaying geometrically in the orbit depth.  This module extracts the jump
structure from a grid density (saltus/regular split), builds the postcritical
point hierarchy, and checks the geometric decay of the jump tail sums.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .map_model import MapModelError, PiecewiseMap, evaluate
from .transfer_operator import DensityGrid, LasotaYorkeConstants

JUMP_THRESHOLD_KAPPA = 5.0
DECAY_SLACK = 1.1


@dataclass(frozen=True)
class PostcriticalPoint:
    u: float
    depth: int
    generator: float   # the critical point whose orbit first reaches u


@dataclass(frozen=True)
class PostcriticalHierarchy:
    """Forward images of the critical set, each with its minimal depth."""

    map: PiecewiseMap
    max_depth: int
    points: tuple[PostcriticalPoint, ...]

    def positions(self) -> np.ndarray:
        return np.array([p.u for p in self.points])

    def depth_near(self, x: float, tol: float) -> Optional[int]:
        """Minimal depth among hierarchy points within tol of x, or None."""
        best = None
        for p in self.points:
            if abs(p.u - x) <= tol and (best is None or p.depth < best):
                best = p.depth
        return best

    def verify(self, tol: float = 1e-9) -> bool:
        """Recompute each point as a forward image of its generator."""
        for p in self.points:
            reachable = {p.generator}
            ok = False
            for _ in range(p.depth):
                nxt = set()
                for x in reachable:
                    nxt.update(evaluate(self.map, x))
                reachable = nxt
            ok = any(abs(v - p.u) <= tol for v in reachable)
            if not ok:
                return False
        return True


def postcritical_hierarchy(map_: PiecewiseMap, depth: int) -> PostcriticalHierarchy:
    """Breadth-first forward images of all one-sided critical values.

    Duplicates keep the minimal depth; enumeration stops early if the
    postcritical set closes up.
    """
    if depth < 1:
        raise MapModelError("depth must be >= 1")
    tol = 1e-12
    seen_pos: list[float] = []      # sorted positions for tolerance dedup
    records: list[PostcriticalPoint] = []

    def known(x: float) -> bool:
        i = bisect.bisect_left(seen_pos, x)
        for j in (i - 1, i):
            if 0 <= j < len(seen_pos) and abs(seen_pos[j] - x) <= tol:
                return True
        return False

    def remember(x: float, k: int, gen: float):
        bisect.insort(seen_pos, x)
        records.append(PostcriticalPoint(u=x, depth=k, generator=gen))

    frontier = [(c, c) for c in map_.critical_set]
    for k in range(1, depth + 1):
        nxt: list[tuple[float, float]] = []
        for x, gen in frontier:
            for v in evaluate(map_, x):
                if not known(v):
                    remember(v, k, gen)
                    nxt.append((v, gen))
        if not nxt:
            break
        frontier = nxt
    records.sort(key=lambda p: p.u)
    return PostcriticalHierarchy(map=map_, max_depth=depth, points=tuple(records))


@dataclass(frozen=True)
class Jump:
    location: float
    size: float
    depth: Optional[int]    # None = unmatched (counts as infinite depth)

    @property
    def matched(self) -> bool:
        return self.depth is not None


@dataclass(frozen=True)
class SaltusDecomposition:
    """Grid density split into jump (saltus) and regular parts.

    The saltus part uses the left-step kernel vanishing at 1, so
    saltus values accumulate jump sizes from the right; regular + saltus
    reproduces the input up to the smeared cells.
    """

    jumps: tuple[Jump, ...]
    regular: DensityGrid
    saltus: DensityGrid
    lipschitz_estimate: float

    def jump_mass_in(self, lo: float, hi: float) -> float:
        return sum(abs(j.size) for j in self.jumps if lo <= j.location <= hi)

    def total_jump_mass(self) -> float:
        return sum(abs(j.size) for j in self.jumps)

    def unmatched(self) -> tuple[Jump, ...]:
        return tuple(j for j in self.jumps if not j.matched)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("location,size,depth\n")
            for j in self.jumps:
                depth = "" if j.depth is None else str(j.depth)
                fh.write(f"{j.location!r},{j.size!r},{depth}\n")


def saltus_decompose(d: DensityGrid, hierarchy: PostcriticalHierarchy,
                     lip_bound: float,
                     kappa: float = JUMP_THRESHOLD_KAPPA) -> SaltusDecomposition:
    """Detect jumps of a grid density and split off the regular part.

    A cell boundary carries a jump iff the neighboring cell difference
    exceeds kappa * lip_bound / n (a Lipschitz regular part only produces
    O(lip/n) differences).  Adjacent above-threshold boundaries are merged:
    the Ulam projection smears a step across the cell containing it, so the
    two partial differences are summed and located at the larger one.  Jump
    locations are then matched against hierarchy points within half a cell.
    """
    if lip_bound <= 0:
        raise ValueError("lip_bound must be positive")
    n = d.n
    v = d.values
    diffs = np.diff(v)                      # diffs[i] sits at boundary (i+1)/n
    threshold = kappa * lip_bound / n
    above = np.abs(diffs) > threshold
    idx = np.nonzero(above)[0]

    jumps_raw: list[tuple[float, float]] = []
    group: list[int] = []

    def flush():
        if not group:
            return
        size = float(sum(diffs[i] for i in group))
        anchor = max(group, key=lambda i: abs(diffs[i]))
        jumps_raw.append(((anchor + 1) / n, size))
        group.clear()

    for i in idx:
        if group and i != group[-1] + 1:
            flush()
        group.append(int(i))
    flush()

    half_cell = 0.5 / n
    jumps = tuple(Jump(location=u, size=s,
                       depth=hierarchy.depth_near(u, half_cell))
                  for u, s in jumps_raw)

    # Saltus part with the step kernel vanishing at the right endpoint: walk
    # from the last cell leftward, absorbing exactly the above-threshold
    # boundary differences, so regular + saltus reproduces the input and the
    # regular part keeps only sub-threshold steps.
    sal = np.zeros(n)
    for i in range(n - 2, -1, -1):
        sal[i] = sal[i + 1] - (diffs[i] if above[i] else 0.0)
    regular_vals = v - sal
    reg_diffs = np.abs(np.diff(regular_vals))
    lip_est = float(np.max(reg_diffs) * n) if n > 1 else 0.0
    return SaltusDecomposition(jumps=jumps,
                               regular=DensityGrid(n, regular_vals),
                               saltus=DensityGrid(n, sal),
                               lipschitz_estimate=lip_est)


@dataclass(frozen=True)
class DecayRow:
    m: int
    tail: float
    bound: float
    passed: bool


def jump_decay_profile(dec: SaltusDecomposition, hierarchy: PostcriticalHierarchy,
                       ly: LasotaYorkeConstants, m_max: int,
                       slack: float = DECAY_SLACK) -> list[DecayRow]:
    """Tail sums of jump sizes beyond each depth m against lam^-m * C_LY.

    Depths recorded in the decomposition are used as-is; jumps still
    unmatched after a second look at the hierarchy have no certified depth
    and are counted in every tail, so misattribution can only make the check
    harder to pass.
    """
    half_cell = 0.5 / dec.regular.n
    depths = [j.depth if j.depth is not None
              else hierarchy.depth_near(j.location, half_cell)
              for j in dec.jumps]
    rows = []
    for m in range(m_max + 1):
        tail = sum(abs(j.size) for j, dep in zip(dec.jumps, depths)
                   if dep is None or dep > m)
        bound = ly.lam ** (-m) * ly.C_LY
        rows.append(DecayRow(m=m, tail=tail, bound=bound,
                             passed=tail <= slack * bound))
    return rows
