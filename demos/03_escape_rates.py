"""Open systems: escape rates through the holes.

Take the unperturbed map on one half and punch the hole the perturbation
would open.  Orbits stop when they enter the hole; Lebesgue mass then
survives like exp(-R k).  For small holes the escape rate R is
asymptotically the invariant measure of the hole, so the ratio
mu(hole) / R tends to 1 - a second, independent route to the limiting
hole ratio that drives the mixture weight.
"""

from metamap.families import family_a
from metamap.map_model import Interval
from metamap.spectral import escape_rate
from metamap.transfer_operator import build_ulam, cells_below, cells_with_center_in

fam = family_a()
n = 3840
P0 = build_ulam(fam.base, n)
# each half is invariant under the base map, so P0 is block diagonal: one
# run gives the rate of each block [0, k) and [k, n) through its own hole
k = cells_below(0.5, n)

print(f"{'eps':>8} {'side':>6} {'mu(hole)':>10} {'rate':>10} {'ratio':>7}")
for eps in (0.02, 0.01, 0.005):
    holes = {
        "left": (Interval(1 / 3 - eps, 1 / 3), 2 * eps),
        "right": (Interval(2 / 3, 2 / 3 + eps / 3), 2 * eps / 3),
    }
    cells = cells_with_center_in([hole for hole, _ in holes.values()], n)
    for (side, (_, mu)), rate in zip(holes.items(), escape_rate(P0, cells, k)):
        print(f"{eps:8.4f} {side:>6} {mu:10.5f} {rate:10.5f} {mu / rate:7.3f}")

print("\nratios drift toward 1 as the holes shrink; the residual is the")
print("cell quantization of the hole plus the finite-eps correction.")

# the rate is monotone in the hole: enlarging it can only lose mass faster
cells_small = cells_with_center_in([Interval(1 / 3 - 0.005, 1 / 3)], n)
cells_large = cells_with_center_in([Interval(1 / 3 - 0.01, 1 / 3)], n)
r_small = escape_rate(P0, cells_small, k)[0]
r_large = escape_rate(P0, cells_large, k)[0]
print(f"\nmonotonicity: rate(small hole) = {r_small:.5f} "
      f"<= rate(double hole) = {r_large:.5f}")
