"""The metastable mode: the second eigenvector of the transfer operator.

For small eps the discretized transfer operator has a simple eigenvalue 1
(the invariant density) and a second real eigenvalue rho just below it.  The
gap 1 - rho is the total switching rate between the two almost-invariant
halves, and the eigenvector aligns with half the difference of the two
unperturbed ergodic densities: +1 on [0,1/2], -1 on [1/2,1] for family A.

A density started anywhere relaxes onto the line spanned by phi_l, phi_r at
the fast internal mixing rate, then crawls along it toward the mixture at
rate rho - metastability in one picture.
"""

import numpy as np

from metamap.families import family_a
from metamap.spectral import invariant_density
from metamap.transfer_operator import DensityGrid, build_ulam

fam = family_a()
n = 1920
ref = DensityGrid(n, np.where(np.arange(n) < n // 2, 1.0, -1.0))

print(f"{'eps':>8} {'rho':>10} {'1-rho':>10} {'(1-rho)/eps':>12} {'|psi - ref|_L1':>15}")
for eps in (0.02, 0.01, 0.005, 0.0025):
    P = build_ulam(fam.instantiate(eps), n)
    res = invariant_density(P, tol=1e-10)
    rho, psi = res.rho, res.psi      # the pair that decided simplicity
    print(f"{eps:8.4f} {rho:10.6f} {1 - rho:10.6f} {(1 - rho) / eps:12.3f} "
          f"{psi.l1_distance(ref):15.5f}")

print("\n(1 - rho)/eps settles near 8/3: the left hole leaks mass at rate "
      "2 eps\nand the right hole at 2 eps / 3, and the chain loses the sum.")

# at eps = 0 the top eigenvalue is doubly degenerate: the deflated second
# eigenvalue is 1, and phi plus a multiple of its eigenvector is a second
# fixed density (here the left half's, at L1 distance 1 from the uniform one)
P0 = build_ulam(fam.base, n)
res0 = invariant_density(P0, tol=1e-10)
print(f"\neps=0: leading eigenvalue simple? {res0.leading_simple} "
      f"(a second fixed density lies {res0.probe_distance:.3f} away in L1)")
