"""Declarative scenario files and built-in scenarios.

A scenario bundles a perturbation family with the sweep parameters (eps list,
grid size, output directory).  Files are JSON; geometry fields are
exact rationals written as strings ("1/6", "0.25") or numbers, converted to
floats on load.  Builtins are referenced as "builtin:family_a",
"builtin:family_b" or "builtin:markov2".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .families import DEFAULT_EPS_LIST, DEFAULT_GRID_N, family_a, family_b
from .map_model import Branch, MapModelError, PerturbationFamily, PiecewiseMap
from .transfer_operator import MAX_GRID_N

DENOMINATOR_LIMIT = 10 ** 6  # largest denominator a critical point is read with


class ScenarioError(ValueError):
    """Scenario file failed to parse or validate; carries per-field messages."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("scenario invalid:\n" + "\n".join(f"  - {e}" for e in self.errors))


@dataclass(frozen=True)
class Scenario:
    """A family sweep, or without a family the two-state chains of
    ``markov_pairs``.  Frozen: derive variants with ``dataclasses.replace``."""

    name: str
    family: Optional[PerturbationFamily] = None
    markov_pairs: tuple[tuple[float, float], ...] = ()
    eps_list: tuple[float, ...] = DEFAULT_EPS_LIST
    grid_n: int = DEFAULT_GRID_N
    out_dir: str = "out"

    @property
    def kind(self) -> str:
        """"family" or "markov"."""
        return "markov" if self.family is None else "family"


def _rational(value, path, errors) -> float:
    if isinstance(value, bool):
        errors.append(f"{path}: expected a number or rational string")
    elif not isinstance(value, (int, float, str)):
        errors.append(f"{path}: expected a number or rational string, got {type(value).__name__}")
    elif isinstance(value, float) and not math.isfinite(value):   # json reads NaN, Infinity
        errors.append(f"{path}: expected a finite number, got {value!r}")
    else:
        try:
            return float(Fraction(value))
        except (ValueError, ZeroDivisionError):
            errors.append(f"{path}: cannot parse rational {value!r}")
        except OverflowError:
            errors.append(f"{path}: expected a finite number, got {value!r}")
    return math.nan


def normalize_eps(eps_list, field: str, given) -> tuple[float, ...]:
    """The eps ladder deduplicated and sorted descending, coarse to fine.
    Refused, naming ``field``: anything but a non-empty list of finite
    numbers > 0 (a value <= 0 quotes ``given``), and two values that share
    the ``:g`` label that names their files (``density_0.02.csv``)."""
    if not (isinstance(eps_list, list)
            and all(isinstance(e, (int, float)) and not isinstance(e, bool) for e in eps_list)):
        raise ScenarioError([f"{field}: expected a list of numbers"])
    if not eps_list:
        raise ScenarioError([f"{field}: expected at least one value"])
    if any(e <= 0 for e in eps_list):
        raise ScenarioError([f"{field}: values must be positive, got {given!r}"])
    try:
        eps = [float(e) for e in eps_list]
    except OverflowError as exc:
        raise ScenarioError([f"{field}: values must be finite, got one that overflows: {exc}"])
    bad = [e for e in eps if not math.isfinite(e)]
    if bad:
        raise ScenarioError([f"{field}: values must be finite, got {bad[0]!r}"])
    eps = sorted(set(eps), reverse=True)
    errors = [f"{field}: {a!r} and {b!r} share the file label {a:g}"
              for a, b in zip(eps, eps[1:]) if f"{a:g}" == f"{b:g}"]
    if errors:
        raise ScenarioError(errors)
    return tuple(eps)


def check_grid(grid_n, field: str) -> int:
    """``grid_n``, refused naming ``field`` unless it is an integer from 2
    to MAX_GRID_N."""
    if not isinstance(grid_n, int) or grid_n < 2:
        raise ScenarioError([f"{field}: expected an integer >= 2, got {grid_n!r}"])
    if grid_n > MAX_GRID_N:
        raise ScenarioError([f"{field}: expected at most {MAX_GRID_N} cells, the int32 "
                             f"index limit, got {grid_n!r}"])
    return grid_n


def check_out_dir(out_dir, field: str) -> str:
    """``out_dir``, refused naming ``field`` unless it is a non-empty string."""
    if not isinstance(out_dir, str) or not out_dir:
        raise ScenarioError([f"{field}: expected a directory, got {out_dir!r}"])
    return out_dir


def critical_denominator_lcm(map_: PiecewiseMap) -> int:
    """lcm of the denominators of the critical points (rational grid
    alignment), each read with denominator at most DENOMINATOR_LIMIT."""
    lcm = 1
    for c in map_.critical_set:
        den = Fraction(c).limit_denominator(DENOMINATOR_LIMIT).denominator
        lcm = lcm * den // math.gcd(lcm, den)
    return lcm


def _grid_rule(eps_list) -> float:
    """The grid rule's least n, 12/min(eps)."""
    return 12.0 / min(eps_list)


def suggested_grid_n(family: PerturbationFamily, eps_list) -> int:
    """Grid rule: at least 12/min(eps), rounded up to a multiple of the
    critical-point denominator lcm (keeps Ulam entries exact for affine maps
    and gives the narrow hole a few cells).  Refused on ``eps_list`` where
    12/min(eps) exceeds MAX_GRID_N, below about 5.6e-9, and on ``branches``
    where the multiple of the lcm does."""
    need = _grid_rule(eps_list)
    if need > MAX_GRID_N:
        raise ScenarioError([f"eps_list: {min(eps_list)!r} is too small for the grid rule "
                             "12/min(eps); give grid_n"])
    lcm = critical_denominator_lcm(family.base)
    n0 = max(math.ceil(need), 2 * len(family.base.branches), lcm)
    n = ((n0 + lcm - 1) // lcm) * lcm
    if n > MAX_GRID_N:
        raise ScenarioError([f"branches: the grid rule rounds up to n={n}, a multiple of the "
                             f"critical denominator lcm {lcm}, above {MAX_GRID_N}, the int32 "
                             "index limit; give grid_n"])
    return n


def grid_warnings(scn: Scenario) -> list[str]:
    """The grid-rule findings on the scenario's grid and eps list (not raised)."""
    if scn.family is None:
        return []
    out = []
    lcm = critical_denominator_lcm(scn.family.base)
    if scn.grid_n % lcm != 0:
        out.append(
            f"grid n={scn.grid_n} is not a multiple of the critical denominator "
            f"lcm {lcm}; Ulam entries will not align with the branch endpoints")
    if scn.eps_list:
        need = _grid_rule(scn.eps_list)
        if scn.grid_n < need:
            out.append(
                f"grid n={scn.grid_n} is below 12/min(eps) = {need:.0f}; the "
                "narrowest hole spans fewer than ~4 cells")
    return out


def _parse_branches(raw, errors) -> tuple[list[Branch], list[float], list[float]]:
    branches, slope_eps, intercept_eps = [], [], []
    if not isinstance(raw, list) or not raw:
        errors.append("branches: expected a non-empty list")
        return branches, slope_eps, intercept_eps
    for i, item in enumerate(raw):
        path = f"branches[{i}]"
        if not isinstance(item, dict):
            errors.append(f"{path}: expected an object")
            continue
        dom = item.get("domain")
        if not (isinstance(dom, list) and len(dom) == 2):
            errors.append(f"{path}.domain: expected [lo, hi]")
            continue
        lo = _rational(dom[0], f"{path}.domain[0]", errors)
        hi = _rational(dom[1], f"{path}.domain[1]", errors)
        if "slope" not in item or "intercept" not in item:
            errors.append(f"{path}: affine branches need slope and intercept")
            continue
        slope = _rational(item["slope"], f"{path}.slope", errors)
        intercept = _rational(item["intercept"], f"{path}.intercept", errors)
        if any(math.isnan(x) for x in (lo, hi, slope, intercept)):
            continue
        try:
            branches.append(Branch.affine(lo, hi, slope, intercept))
        except MapModelError as exc:
            errors.append(f"{path}: {exc}")
            continue
        slope_eps.append(_rational(item.get("slope_eps", 0), f"{path}.slope_eps", errors))
        intercept_eps.append(_rational(item.get("intercept_eps", 0),
                                       f"{path}.intercept_eps", errors))
    return branches, slope_eps, intercept_eps


def _scenario_from_dict(data: dict) -> Scenario:
    errors: list[str] = []
    name = data.get("name")
    if not isinstance(name, str) or not name:
        errors.append("name: required non-empty string")
    branches, slope_eps, intercept_eps = _parse_branches(data.get("branches"), errors)
    b = _rational(data.get("boundary"), "boundary", errors)
    family = None
    if branches and not math.isnan(b):
        try:
            base = PiecewiseMap(branches)
            family = PerturbationFamily(
                base=base,
                slope_eps=tuple(slope_eps),
                intercept_eps=tuple(intercept_eps),
                boundary_b=b,
            )
        except MapModelError as exc:
            errors.append(f"branches: {exc}")

    def checked(check, *args):
        try:
            return check(*args)
        except ScenarioError as exc:
            errors.extend(exc.errors)

    eps_list = data.get("eps_list", list(DEFAULT_EPS_LIST))
    eps_list = checked(normalize_eps, eps_list, "eps_list", eps_list)
    grid_n = data.get("grid_n")
    if grid_n is not None:
        grid_n = checked(check_grid, grid_n, "grid_n")
    elif family is not None and eps_list is not None:
        grid_n = checked(suggested_grid_n, family, eps_list)
    out_dir = checked(check_out_dir, data.get("out_dir", "out"), "out_dir")
    if errors:                   # family is None only where an error says why
        raise ScenarioError(errors)
    return Scenario(name=name, family=family, eps_list=eps_list, grid_n=grid_n,
                    out_dir=out_dir)


BUILTINS = {scn.name: scn for scn in (
    Scenario(name="family_a", family=family_a()),
    Scenario(name="family_b", family=family_b()),
    Scenario(name="markov2", markov_pairs=((0.01, 0.03),)),
)}


def load_scenario(source: str) -> Scenario:
    """Load a scenario from 'builtin:<name>' or a JSON file path."""
    if source.startswith("builtin:"):
        name = source.split(":", 1)[1]
        if name not in BUILTINS:
            raise ScenarioError([f"scenario: unknown builtin {name!r}; known: {tuple(BUILTINS)}"])
        return BUILTINS[name]
    try:
        with open(source) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ScenarioError([f"file: {source} not found"])
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"file: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"])
    if not isinstance(data, dict):
        raise ScenarioError(["file: top level must be an object"])
    return _scenario_from_dict(data)
