"""Piecewise expanding interval maps, their perturbation families, the
holes a perturbation opens, and hypothesis checks.

A map of [0,1] is represented as an ordered list of monotone branches over a
critical partition 0 = c_0 < c_1 < ... < c_d = 1.  At interior partition
points the map is bi-valued: both one-sided limits are kept, each computed
from the adjacent branch.  Branches are either affine (slope, intercept) or
smooth (user-supplied function with first and second derivatives).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

ENDPOINT_TOL = 1e-12
PREIMAGE_XTOL = 1e-13
DERIVATIVE_SAMPLES = 2048  # a smooth branch's samples of T' and T''
HYPOTHESIS_TOL = 1e-9      # validate_hypotheses' and the hole check's distance tolerance
MIN_HOLE_WIDTH = 1e-14
HOLE_CHECK_SAMPLES = 7     # interior points of a hole that must map across b


class MapModelError(ValueError):
    """Invalid map geometry or domain violation."""


@dataclass(frozen=True)
class Interval:
    """Closed subinterval of [0,1]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 - ENDPOINT_TOL <= self.lo <= self.hi <= 1.0 + ENDPOINT_TOL):
            raise MapModelError(f"interval [{self.lo}, {self.hi}] not inside [0,1]")

    @property
    def length(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class Branch:
    """One monotone C^2 piece of an interval map.

    Affine branches carry (slope, intercept) and are handled in closed form
    everywhere.  Smooth branches carry callables ``f``, ``df``, ``d2f`` and
    fall back to sampling / bracketed root finding.
    """

    domain: Interval
    slope: Optional[float] = None
    intercept: Optional[float] = None
    f: Optional[Callable[[float], float]] = None
    df: Optional[Callable[[float], float]] = None
    d2f: Optional[Callable[[float], float]] = None

    @classmethod
    def affine(cls, lo, hi, slope, intercept) -> "Branch":
        return cls(domain=Interval(float(lo), float(hi)),
                   slope=float(slope), intercept=float(intercept))

    @classmethod
    def smooth(cls, lo, hi, f, df, d2f) -> "Branch":
        return cls(domain=Interval(float(lo), float(hi)), f=f, df=df, d2f=d2f)

    @property
    def is_affine(self) -> bool:
        return self.slope is not None

    def __post_init__(self):
        if self.is_affine:
            if abs(self.slope) <= 1.0:
                raise MapModelError(
                    f"branch on [{self.domain.lo}, {self.domain.hi}] has |slope| "
                    f"{abs(self.slope)} <= 1; map must be uniformly expanding")
        else:
            if self.f is None or self.df is None or self.d2f is None:
                raise MapModelError("smooth branch needs f, df and d2f")
            if self.min_abs_derivative() <= 1.0:
                raise MapModelError("smooth branch is not uniformly expanding")
        lo, hi = self.image()
        if lo < -ENDPOINT_TOL or hi > 1.0 + ENDPOINT_TOL:
            raise MapModelError(
                f"branch image [{lo}, {hi}] escapes [0,1]")

    def __call__(self, x: float) -> float:
        if self.is_affine:
            return self.slope * x + self.intercept
        return self.f(x)

    @property
    def orientation(self) -> int:
        """+1 for increasing branches, -1 for decreasing."""
        d = self.slope if self.is_affine else self.df(0.5 * (self.domain.lo + self.domain.hi))
        return 1 if d > 0 else -1

    def image(self) -> tuple[float, float]:
        a, b = self(self.domain.lo), self(self.domain.hi)
        return (a, b) if a <= b else (b, a)

    def min_abs_derivative(self) -> float:
        """Lower bound for inf |T'| over the closed branch domain.

        Exact for affine branches; for smooth branches a sample of
        DERIVATIVE_SAMPLES points is corrected downward by a curvature term
        so the bound is safe.
        """
        if self.is_affine:
            return abs(self.slope)
        xs = np.linspace(self.domain.lo, self.domain.hi, DERIVATIVE_SAMPLES)
        d = np.abs([self.df(x) for x in xs])
        curv = np.max(np.abs([self.d2f(x) for x in xs]))
        h = (self.domain.hi - self.domain.lo) / (DERIVATIVE_SAMPLES - 1)
        return float(np.min(d) - 0.5 * curv * h)

    def max_distortion(self) -> float:
        """sup |T''| / |T'| over the branch; 0 for affine branches.  Smooth
        ones are sampled at DERIVATIVE_SAMPLES points, doubled until the
        maximum settles."""
        if self.is_affine:
            return 0.0
        prev, samples = -1.0, DERIVATIVE_SAMPLES
        while True:
            xs = np.linspace(self.domain.lo, self.domain.hi, samples)
            vals = np.abs([self.d2f(x) for x in xs]) / np.abs([self.df(x) for x in xs])
            cur = float(np.max(vals))
            if prev >= 0 and abs(cur - prev) <= 1e-6 * max(1.0, cur) or samples >= 1 << 18:
                return cur
            prev, samples = cur, samples * 2

    def preimage(self, y: float) -> Optional[float]:
        """The unique x in the branch domain with T(x) = y, or None.

        y may lie ENDPOINT_TOL outside the image.  Affine branches are solved
        in closed form; smooth ones by bracketed root finding to PREIMAGE_XTOL.
        """
        lo, hi = self.image()
        if not (lo - ENDPOINT_TOL <= y <= hi + ENDPOINT_TOL):
            return None
        if self.is_affine:
            x = (y - self.intercept) / self.slope
            return min(max(x, self.domain.lo), self.domain.hi)
        a, b = self.domain.lo, self.domain.hi
        fa, fb = self.f(a) - y, self.f(b) - y
        if abs(fa) <= ENDPOINT_TOL:
            return a
        if abs(fb) <= ENDPOINT_TOL:
            return b
        if fa * fb > 0:
            return None
        # imported here: scipy.optimize dominates import time, and affine
        # branches never need it
        from scipy.optimize import brentq
        try:
            return float(brentq(lambda x: self.f(x) - y, a, b, xtol=PREIMAGE_XTOL))
        except RuntimeError as exc:  # pragma: no cover - brentq rarely fails
            raise MapModelError(f"preimage solve failed on branch {self.domain}: {exc}")


@dataclass(frozen=True)
class PiecewiseMap:
    """Piecewise C^2 uniformly expanding map of [0,1].

    Branch domains tile [0,1] exactly, sharing only endpoints; the critical
    set is the ordered list of all branch endpoints.
    """

    branches: tuple[Branch, ...]

    def __init__(self, branches: Sequence[Branch]):
        object.__setattr__(self, "branches", tuple(branches))
        self._validate()

    def _validate(self):
        if not self.branches:
            raise MapModelError("map needs at least one branch")
        if abs(self.branches[0].domain.lo) > ENDPOINT_TOL:
            raise MapModelError("first branch must start at 0")
        if abs(self.branches[-1].domain.hi - 1.0) > ENDPOINT_TOL:
            raise MapModelError("last branch must end at 1")
        for a, b in zip(self.branches, self.branches[1:]):
            if abs(a.domain.hi - b.domain.lo) > ENDPOINT_TOL:
                raise MapModelError(
                    f"branch domains [{a.domain.lo},{a.domain.hi}] and "
                    f"[{b.domain.lo},{b.domain.hi}] do not tile [0,1]")

    @property
    def critical_set(self) -> tuple[float, ...]:
        pts = [b.domain.lo for b in self.branches]
        pts.append(self.branches[-1].domain.hi)
        return tuple(pts)


def evaluate(map_: PiecewiseMap, x: float) -> tuple[float, ...]:
    """One or both values of the (possibly bi-valued) map at x.

    Interior branch points yield the single branch value.  At a shared
    critical point both one-sided limits are returned, deduplicated when they
    agree to 1e-12.
    """
    if x < -ENDPOINT_TOL or x > 1.0 + ENDPOINT_TOL:
        raise MapModelError(f"x={x} outside [0,1]")
    x = min(max(x, 0.0), 1.0)
    out: list[float] = []
    for br in map_.branches:
        if br.domain.lo - ENDPOINT_TOL <= x <= br.domain.hi + ENDPOINT_TOL:
            v = br(x)
            if not any(abs(v - w) <= ENDPOINT_TOL for w in out):
                out.append(v)
    return tuple(out)


def min_expansion(map_: PiecewiseMap) -> float:
    """inf |T'| over [0,1] minus the critical set."""
    return min(b.min_abs_derivative() for b in map_.branches)


def distortion(map_: PiecewiseMap) -> float:
    """sup |T''| / |T'|; exactly 0 for fully affine maps."""
    return max(b.max_distortion() for b in map_.branches)


def _dedup(points: list[float]) -> list[float]:
    """The points sorted, each dropped that lies within ENDPOINT_TOL above
    the last one kept."""
    out: list[float] = []
    for p in sorted(points):
        if not out or p - out[-1] > ENDPOINT_TOL:
            out.append(p)
    return out


def postcritical_hierarchy(map_: PiecewiseMap, depth: int) -> dict[int, list[float]]:
    """Forward images of the critical set, keyed by iteration count 1..depth.

    Bi-valued points contribute both one-sided images at every step.  Each
    layer is sorted and deduplicated to 1e-12 on its own, so a point's orbit
    depth is the first layer that holds it.
    """
    if depth < 1:
        raise MapModelError("depth must be >= 1")
    layers: dict[int, list[float]] = {}
    frontier = list(map_.critical_set)
    for k in range(1, depth + 1):
        nxt: list[float] = []
        for x in frontier:
            nxt.extend(evaluate(map_, x))
        layers[k] = _dedup(nxt)
        frontier = layers[k]
    return layers


def _delta(br: Branch, ds: float, di: float, g, x: float) -> float:
    """delta(x), the eps-derivative of T_eps(x) on branch ``br`` with the eps
    terms ``_branch_eps`` gives it: T_eps(x) = T0(x) + eps*delta(x)."""
    if br.is_affine:
        return ds * x + di
    return g[0](x) if g else 0.0


@dataclass(frozen=True)
class PerturbationFamily:
    """eps -> PiecewiseMap with branch coefficients linear in eps.

    ``slope_eps`` / ``intercept_eps`` perturb affine branches additively;
    smooth branches may carry an additive term ``eps * g(x)`` with
    derivatives.  Branch domains (hence the critical set) do not move with
    eps.  A family declares only its map: the holes the perturbation opens
    follow from it (:meth:`first_order_holes`).
    """

    base: PiecewiseMap
    slope_eps: tuple[float, ...] = ()
    intercept_eps: tuple[float, ...] = ()
    smooth_eps: tuple[Optional[tuple], ...] = ()   # per branch: (g, dg, d2g) or None
    boundary_b: float = 0.5

    def __post_init__(self):
        nb = len(self.base.branches)
        for name in ("slope_eps", "intercept_eps", "smooth_eps"):
            arr = getattr(self, name)
            if arr and len(arr) != nb:
                raise MapModelError(f"{name} must have one entry per branch")
        if not (0.0 < self.boundary_b < 1.0):
            raise MapModelError("boundary point must be interior")

    def _branch_eps(self):
        """(branch, slope_eps, intercept_eps, smooth_eps) per base branch, unset as 0.0/None."""
        nb = len(self.base.branches)
        return zip(self.base.branches, self.slope_eps or (0.0,) * nb,
                   self.intercept_eps or (0.0,) * nb, self.smooth_eps or (None,) * nb)

    def instantiate(self, eps: float) -> PiecewiseMap:
        """The map at parameter eps; eps=0 reproduces the base exactly.

        A branch that eps leaves alone (an affine one with both eps
        coefficients 0, a smooth one without an eps term) is the base's own
        ``Branch`` object, so ``build_ulam`` can reuse its assembly.
        """
        if eps == 0.0:
            return self.base
        branches = []
        for br, ds, di, g in self._branch_eps():
            if br.is_affine and ds == 0.0 and di == 0.0:
                branches.append(br)
            elif br.is_affine:
                branches.append(Branch.affine(br.domain.lo, br.domain.hi,
                                              br.slope + eps * ds,
                                              br.intercept + eps * di))
            elif g is None:
                branches.append(br)
            else:
                gf, gdf, gd2f = g
                branches.append(Branch.smooth(
                    br.domain.lo, br.domain.hi,
                    lambda x, _f=br.f, _g=gf, _e=eps: _f(x) + _e * _g(x),
                    lambda x, _df=br.df, _dg=gdf, _e=eps: _df(x) + _e * _dg(x),
                    lambda x, _d2f=br.d2f, _d2g=gd2f, _e=eps: _d2f(x) + _e * _d2g(x)))
        return PiecewiseMap(branches)

    def first_order_holes(self) -> list[tuple[float, int, float, bool]]:
        """The holes T_eps opens at first order, as (c, side, rate, left).

        Each is a branch end c with T0(c) = b whose eps-derivative
        ``delta`` pushes the image of the points just inside the branch
        (side -1 below c, +1 above) across b.  The hole is those points up
        to distance ``rate * eps`` from c, with rate = |delta / T0'(c)|;
        ``left`` says whether it lies in the left half.  T_eps is linear in
        eps, so the rate is exact at first order.
        """
        b = self.boundary_b
        out = []
        for br, ds, di, g in self._branch_eps():
            for c, side in ((br.domain.lo, 1), (br.domain.hi, -1)):
                if abs(br(c) - b) > ENDPOINT_TOL:
                    continue
                slope = br.slope if br.is_affine else br.df(c)
                delta = _delta(br, ds, di, g, c)
                # points at distance t inside map to b + slope*side*t + eps*delta
                if slope * side * delta < 0:
                    # at c = b itself the side decides the half
                    out.append((c, side, abs(delta / slope), c + side * ENDPOINT_TOL < b))
        return out


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
    lo_val, hi_val = sorted((branch(seg_lo), branch(seg_hi)))
    if (hi_val <= b) if above else (lo_val >= b):
        return []
    if (lo_val >= b) if above else (hi_val <= b):
        return [Interval(seg_lo, seg_hi)]
    x_star = branch.preimage(b)
    if x_star is None:     # numerical corner: no crossing found
        return []
    x_star = min(max(x_star, seg_lo), seg_hi)
    lo, hi = (x_star, seg_hi) if above == (branch.orientation > 0) else (seg_lo, x_star)
    return [] if hi - lo <= MIN_HOLE_WIDTH else [Interval(lo, hi)]


def compute_holes(map_eps: PiecewiseMap, b: float) -> HoleReport:
    """Closed-form (affine) or bracketed (smooth) hole geometry at one eps.

    Each branch domain is split at b, the crossing of the branch with the
    boundary level is located, and the escaping part is intersected with the
    corresponding half.  MapModelError is raised unless HOLE_CHECK_SAMPLES
    evenly spaced interior points of each piece map, under the branch that
    opened it, into the other half to HYPOTHESIS_TOL.  Branches tile [0,1]
    in order and open at most one piece per side, so pieces come ascending.
    Pieces touching b itself are flagged: escape happening next to the
    boundary is exactly the pathology that breaks the mixture prediction.
    """
    if not (0.0 < b < 1.0):
        raise MapModelError("boundary point must be interior")
    qs = np.arange(1, HOLE_CHECK_SAMPLES + 1) / (HOLE_CHECK_SAMPLES + 1)
    H_l: list[Interval] = []
    H_r: list[Interval] = []
    for br in map_eps.branches:
        d0, d1 = br.domain.lo, br.domain.hi
        for pieces, side, other, seg, above in ((H_l, "left", "right", (d0, min(d1, b)), True),
                                                (H_r, "right", "left", (max(d0, b), d1), False)):
            for iv in _escape_pieces(br, *seg, b, above):
                ys = [br(iv.lo + q * iv.length) for q in qs]
                if min(ys) < b - HYPOTHESIS_TOL if above else max(ys) > b + HYPOTHESIS_TOL:
                    raise MapModelError(f"computed {side} hole [{iv.lo}, {iv.hi}] does not "
                                        f"map into the {other} half")
                pieces.append(iv)
    warnings = [f"{side} hole [{iv.lo:.12g}, {iv.hi:.12g}] touches the boundary "
                f"point {b:.12g}: escaping mass re-enters immediately and the "
                "mixture prediction does not apply"
                for side, pieces in (("left", H_l), ("right", H_r)) for iv in pieces
                if abs(iv.lo - b) <= ENDPOINT_TOL or abs(iv.hi - b) <= ENDPOINT_TOL]
    return HoleReport(H_l=tuple(H_l), H_r=tuple(H_r), warnings=tuple(warnings))


@dataclass
class HypothesisReport:
    """Outcome of the checkable structural hypotheses for one family.

    Uniqueness of the ergodic densities (both before and after perturbation)
    is not decided here; the spectral solver flags non-simple leading
    eigenvalues instead.
    """

    min_expansion: float
    distortion: float
    I2: bool
    checked_depth: int
    I3: Optional[bool]
    I4a: bool
    P2: bool
    diagnostics: list[str] = field(default_factory=list)

    def lines(self) -> list[str]:
        """The report as ``metamap validate`` prints it, one line per entry;
        ``hypotheses.txt`` holds the same lines after its scenario line."""
        def verdict(ok):
            return "not checked" if ok is None else ("pass" if ok else "FAIL")
        return [f"min_expansion = {self.min_expansion!r}",
                f"distortion = {self.distortion!r}",
                f"I2 (depth {self.checked_depth}): {verdict(self.I2)}",
                f"I3: {verdict(self.I3)}",
                f"I4a: {verdict(self.I4a)}",
                f"P2: {verdict(self.P2)}",
                *(f"  {d}" for d in self.diagnostics)]


def validate_hypotheses(family: PerturbationFamily, depth: int = 8,
                        phi_l=None, phi_r=None) -> HypothesisReport:
    """Check the finite-horizon structural hypotheses of a family, for
    every eps at once.

    The holes are those of :meth:`PerturbationFamily.first_order_holes`,
    the branch ends that eps opens.

    * invariant halves: ``compute_holes(T0, b)`` opens no hole; P2 fails
      otherwise, as it does when that call raises;
    * no-return: forward images of the critical set up to ``depth`` steps stay
      at distance > HYPOTHESIS_TOL from the holes;
    * expansion: min |T'| > 2;
    * boundary: either the boundary point is critical with a one-sided gap
      wider than HYPOTHESIS_TOL across it, or it is a fixed point of every
      instantiation: T0(b) = b and delta(b) = 0, each to HYPOTHESIS_TOL, on
      the branch that holds b inside, as T_eps(b) = T0(b) + eps*delta(b);
    * hole positivity (only when phi_l/phi_r grids are supplied): each hole's
      half's ergodic density exceeds HYPOTHESIS_TOL in the cell just beside
      the hole's branch end, on the hole's side.

    Failures are reported with diagnostics, never raised.
    """
    T0 = family.base
    diags: list[str] = []
    lam = min_expansion(T0)

    b = family.boundary_b
    holes = family.first_order_holes()
    # the halves are invariant exactly when T0 opens no hole
    try:
        zero = compute_holes(T0, b)
    except MapModelError as exc:
        opened = [str(exc)]
    else:
        opened = [f"T0 opens the {side} hole [{iv.lo!r}, {iv.hi!r}] across boundary {b}"
                  for side, pieces in (("left", zero.H_l), ("right", zero.H_r))
                  for iv in pieces]
    if opened:
        diags.append(f"setup fails: {opened[0]}; the two halves are not invariant at eps=0")

    passes_i2 = True
    for k, pts in postcritical_hierarchy(T0, depth).items():
        for p in pts:
            d = min((abs(p - c) for c, *_ in holes), default=math.inf)
            if d <= HYPOTHESIS_TOL:
                passes_i2 = False
                diags.append(
                    f"(I2) fails: iterate {k} of the critical set hits "
                    f"infinitesimal hole at {p:.12g} (distance {d:.3g})")
    if passes_i2:
        diags.append(f"(I2) holds to depth {depth} (finite-horizon check only)")

    passes_i4a = lam > 2.0
    if not passes_i4a:
        diags.append(f"(I4a) fails: min expansion {lam} <= 2")

    b_critical = min(abs(b - c) for c in T0.critical_set) <= ENDPOINT_TOL
    if opened:
        passes_p2 = False
    elif b_critical:
        # One-sided values must straddle the boundary strictly; the boundary
        # stays critical automatically (domains do not move in this model).
        vals0 = evaluate(T0, b)
        left, right = vals0[0], vals0[-1]
        passes_p2 = left < b - HYPOTHESIS_TOL and right > b + HYPOTHESIS_TOL
        if not passes_p2:
            diags.append(
                f"(P2b) fails: need T0(b-) < b < T0(b+), got "
                f"T0(b-)={left:.12g}, b={b:.12g}, T0(b+)={right:.12g}")
    else:
        br, *terms = next(t for t in family._branch_eps()
                          if t[0].domain.lo < b < t[0].domain.hi)
        delta = _delta(br, *terms, b)
        passes_p2 = abs(br(b) - b) <= HYPOTHESIS_TOL and abs(delta) <= HYPOTHESIS_TOL
        if not passes_p2:
            diags.append(
                f"(P2a) fails: b={b:.12g} is not critical, so T_eps(b) = T0(b) + "
                f"eps*delta(b) must stay b, got T0(b)={br(b):.12g}, delta(b)={delta:.3g}")

    passes_i3: Optional[bool] = None
    if phi_l is not None and phi_r is not None:
        passes_i3 = True
        for c, side, _, left in holes:
            v = (phi_l if left else phi_r).value_beside(c, side)
            if v <= HYPOTHESIS_TOL:
                passes_i3 = False
                diags.append(f"(I3) fails: ergodic density ~{v:.3g} at hole {c:.12g}")
    else:
        diags.append("(I3) not checked: no ergodic densities supplied")
    diags.append("(I1)/(P1) assumed; verify via spectral simplicity probe")

    return HypothesisReport(min_expansion=lam, distortion=distortion(T0), I2=passes_i2,
                            checked_depth=depth, I3=passes_i3, I4a=passes_i4a,
                            P2=passes_p2, diagnostics=diags)
