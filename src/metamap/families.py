"""Built-in map families used by the demos, tests and CLI.

``family_a``: six affine branches of slope +-3 on width-1/6 domains.  At
eps=0 the halves [0,1/2] and [1/2,1] are invariant, each carrying twice
Lebesgue as its ergodic density.  The perturbation lifts the second branch by
3*eps (opens a hole left of 1/3, width eps) and lowers the fifth by eps
(opens a hole right of 2/3, width eps/3), so the hole-measure ratio is 1/3
for every eps.

``family_b``: the boundary-violating family
T_eps(x) = [(3x mod 1/2) + 3*eps] 1_{x<1/2} + [(-3x mod 1/2) + 1/2 - eps] 1_{x>1/2}.
Mass ejected from the right half lands just left of 1/2 and returns to the
right half in one step, so the perturbed densities collapse onto the right
ergodic density instead of the mixture.

``markov2``: the two-state chain with switching rates (eps_lr, eps_rl),
solved in closed form by :func:`metamap.metastability.markov_stationary`.
"""

from __future__ import annotations

from fractions import Fraction as F

from .map_model import Branch, PerturbationFamily, PiecewiseMap

DEFAULT_EPS_LIST = (0.02, 0.01, 0.005, 0.0025)
DEFAULT_GRID_N = 3840


def _affine_map(rows) -> PiecewiseMap:
    return PiecewiseMap([Branch.affine(float(F(lo)), float(F(hi)), float(F(s)), float(F(t)))
                         for lo, hi, s, t in rows])


def family_a() -> PerturbationFamily:
    base = _affine_map([
        ("0", "1/6", 3, "0"),
        ("1/6", "1/3", 3, "-1/2"),
        ("1/3", "1/2", -3, "3/2"),
        ("1/2", "2/3", -3, "5/2"),
        ("2/3", "5/6", 3, "-3/2"),
        ("5/6", "1", 3, "-2"),
    ])
    return PerturbationFamily(
        base=base,
        intercept_eps=(0.0, 3.0, 0.0, 0.0, -1.0, 0.0),
        boundary_b=0.5,
    )


def family_b() -> PerturbationFamily:
    base = _affine_map([
        ("0", "1/6", 3, "0"),
        ("1/6", "1/3", 3, "-1/2"),
        ("1/3", "1/2", 3, "-1"),
        ("1/2", "2/3", -3, "5/2"),
        ("2/3", "5/6", -3, "3"),
        ("5/6", "1", -3, "7/2"),
    ])
    return PerturbationFamily(
        base=base,
        intercept_eps=(3.0, 3.0, 3.0, -1.0, -1.0, -1.0),
        boundary_b=0.5,
    )

