"""Bounded-variation diagnostics of computed densities.

Invariant densities of piecewise expanding maps are BV functions whose
discontinuities sit on the forward orbit of the critical set, with jump sizes
decaying geometrically in the orbit depth.  This module extracts the jump
structure from a grid density (saltus/regular split), matches each jump to
its depth in the postcritical hierarchy of :mod:`map_model`, and checks the
geometric decay of the jump tail sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .transfer_operator import DensityGrid, LasotaYorkeConstants

JUMP_THRESHOLD_KAPPA = 5.0
DECAY_SLACK = 1.1


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

    def unmatched(self) -> tuple[Jump, ...]:
        return tuple(j for j in self.jumps if not j.matched)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("location,size,depth\n")
            for j in self.jumps:
                depth = "" if j.depth is None else str(j.depth)
                fh.write(f"{j.location!r},{j.size!r},{depth}\n")


def saltus_decompose(d: DensityGrid, hierarchy: dict[int, list[float]],
                     lip_bound: float) -> SaltusDecomposition:
    """Detect jumps of a grid density and split off the regular part.

    A cell boundary carries a jump iff the neighboring cell difference
    exceeds JUMP_THRESHOLD_KAPPA * lip_bound / n (a Lipschitz regular part
    only produces O(lip/n) differences).  Adjacent above-threshold
    boundaries are merged: the Ulam projection smears a step across the cell
    containing it, so the two partial differences are summed and located at
    the larger one.  The depth of a jump is the first layer of
    ``hierarchy`` (see :func:`map_model.postcritical_hierarchy`) with a
    point within half a cell of it, or None when no layer has one.
    """
    if lip_bound <= 0:
        raise ValueError("lip_bound must be positive")
    n = d.n
    v = d.values
    diffs = np.diff(v)                      # diffs[i] sits at boundary (i+1)/n
    threshold = JUMP_THRESHOLD_KAPPA * lip_bound / n
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

    def depth(u: float) -> Optional[int]:
        return next((k for k, pts in hierarchy.items()
                     if any(abs(p - u) <= half_cell for p in pts)), None)

    jumps = tuple(Jump(location=u, size=s, depth=depth(u)) for u, s in jumps_raw)

    # Saltus part with the step kernel vanishing at the right endpoint: a sum
    # from the last cell leftward of exactly the above-threshold boundary
    # differences, so regular + saltus reproduces the input and the regular
    # part keeps only sub-threshold steps.
    sal = np.zeros(n)
    sal[:-1] = -np.cumsum(np.where(above, diffs, 0.0)[::-1])[::-1]
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


def jump_decay_profile(dec: SaltusDecomposition, ly: LasotaYorkeConstants,
                       m_max: int) -> list[DecayRow]:
    """Tail sums of jump sizes beyond each depth m against lam^-m * C_LY;
    a row passes when its tail is at most DECAY_SLACK times its bound.

    Unmatched jumps have no certified depth and are counted in every tail, so
    misattribution can only make the check harder to pass.
    """
    rows = []
    for m in range(m_max + 1):
        tail = sum(abs(j.size) for j in dec.jumps
                   if j.depth is None or j.depth > m)
        bound = ly.lam ** (-m) * ly.C_LY
        rows.append(DecayRow(m=m, tail=tail, bound=bound,
                             passed=tail <= DECAY_SLACK * bound))
    return rows
