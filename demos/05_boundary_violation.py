"""A cautionary counterexample: the mixture prediction needs the boundary
condition, not just a hole ratio.

Family B is T_eps(x) = [(3x mod 1/2) + 3 eps] for x < 1/2 and
[(-3x mod 1/2) + 1/2 - eps] for x > 1/2.  Its holes have Lebesgue sizes
3 eps (left) and eps (right), so the hole-measure ratio is 1/3, exactly as
in family A - yet the perturbed density converges to the RIGHT ergodic
density alone, not to the 1/4 : 3/4 mixture.

The defect: T_0(1/2-) = 1/2, so one left hole opens right against the
boundary.  Mass ejected from the right half lands just left of 1/2 and is
thrown straight back - the right half never really loses anything.
"""

from metamap.families import family_b
from metamap.map_model import compute_holes, validate_hypotheses
from metamap.metastability import hole_measures, predict_mixture
from metamap.spectral import ergodic_densities, invariant_density
from metamap.transfer_operator import build_ulam, cells_below

fam = family_b()
report = validate_hypotheses(fam, [0.02, 0.01, 0.005], depth=8)
print("hypothesis check:")
print(f"  boundary condition P2: {report.P2}")
for d in report.diagnostics:
    if "P2" in d or "setup" in d:
        print(f"  {d}")

n = 3840
phi_l, phi_r = ergodic_densities(build_ulam(fam.base, n), cells_below(fam.boundary_b, n))
print(f"\n{'eps':>8} {'hole ratio':>11} {'|phi-mix|':>10} {'|phi-phi_r|':>12} {'mu(I_l)':>9}")
for eps in (0.02, 0.01, 0.005):
    T = fam.instantiate(eps)
    holes = hole_measures(compute_holes(T, 0.5), phi_l, phi_r)
    P = build_ulam(T, n)
    phi = invariant_density(P, tol=1e-10).phi
    _, mixture = predict_mixture(holes.ratio, phi_l, phi_r)
    print(f"{eps:8.4f} {holes.ratio:11.4f} {phi.l1_distance(mixture):10.4f} "
          f"{phi.l1_distance(phi_r):12.4f} {phi.integrate(0, 0.5):9.4f}")

print("\nthe distance to the mixture stalls near 0.5 while the distance to")
print("phi_r vanishes like eps: with the boundary condition broken, the")
print("hole ratio no longer predicts the limit.")

rep = compute_holes(fam.instantiate(0.01), 0.5)
print(f"\nhole geometry at eps=0.01: left pieces "
      f"{[(round(iv.lo, 4), round(iv.hi, 4)) for iv in rep.H_l]}")
for w in rep.warnings:
    print(f"warning: {w}")
