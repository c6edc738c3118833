"""Where the invariant density is allowed to jump, and how fast jumps decay.

Invariant densities of piecewise expanding maps are BV functions.  Their
discontinuities sit on the forward orbit of the critical set, and the total
jump mass beyond orbit depth m decays like lam^-m (lam = minimum expansion).
This demo decomposes the family A density into jump + regular parts and
checks the decay against the variation-inequality constant C_LY.

Grid choice matters here: at eps = 0.01 the postcritical points are
multiples of 0.01 and 1/6, so n = 3900 (a multiple of lcm(100, 6) = 300)
puts every jump exactly on a cell boundary.  On unaligned grids the Ulam
projection smears each deeper jump into satellite sub-jumps one image-width
apart.
"""

from metamap.bv_analysis import jump_decay_profile, saltus_decompose
from metamap.families import family_a
from metamap.map_model import postcritical_hierarchy
from metamap.spectral import invariant_density
from metamap.transfer_operator import build_ulam, lasota_yorke_constants

fam = family_a()
eps, n = 0.01, 3900
T = fam.instantiate(eps)

P = build_ulam(T, n)
phi = invariant_density(P, tol=1e-10).phi
ly = lasota_yorke_constants(T, base=fam.base)
print(f"variation inequality constants: lam={ly.lam}, C={ly.C_eps:.1f}, "
      f"beta={ly.beta:.3f}, C_LY={ly.C_LY:.1f}")
print(f"TV(phi) = {phi.total_variation():.6f} (bound {ly.C_LY:.0f})")

hier = postcritical_hierarchy(T, 6)
distinct = {round(p, 12) for pts in hier.values() for p in pts}
print(f"\npostcritical points to depth 6: {len(distinct)}")
dec = saltus_decompose(phi, hier, lip_bound=ly.C_LY)
print(f"detected jumps ({len(dec.jumps)}):")
for j in dec.jumps:
    print(f"  x = {j.location:.4f}  size {j.size:+.4f}  orbit depth {j.depth}")
print(f"regular part Lipschitz estimate: {dec.lipschitz_estimate:.2e} "
      "(the density is exactly a step function here)")

print(f"\n{'m':>3} {'tail sum':>10} {'lam^-m C_LY':>12} {'ok':>4}")
for row in jump_decay_profile(dec, ly, 4):
    print(f"{row.m:3d} {row.tail:10.4f} {row.bound:12.3f} {str(row.passed):>4}")

# approximate continuity near the infinitesimal holes at 1/3 and 2/3:
# the critical orbit never returns there, so no jump mass accumulates
for h in (1 / 3, 2 / 3):
    mass = dec.jump_mass_in(h - 1 / 48, h + 1 / 48)
    print(f"jump mass within 1/48 of {h:.4f}: {mass:.4f}")
