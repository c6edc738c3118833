"""The headline experiment: a perturbed two-state interval map settles on a
predictable mixture of its two unperturbed ergodic densities.

Family A is six affine branches of slope +-3.  At eps = 0 the halves [0,1/2]
and [1/2,1] are invariant, each carrying density 2 on its half.  For eps > 0
a hole of width eps opens left of 1/3 (leaking right) and a hole of width
eps/3 opens right of 2/3 (leaking left).  The hole-measure ratio is 1/3, so
the unique invariant density should approach

    alpha * phi_l + (1 - alpha) * phi_r,   alpha / (1 - alpha) = 1/3,

i.e. 0.5 on the left half and 1.5 on the right.  Watch the L1 distance drop
linearly in eps.
"""

import numpy as np

from metamap.families import family_a
from metamap.metastability import prepare_sweep, run_sweep_row

fam = family_a()
eps_list = [0.02, 0.01, 0.005, 0.0025]
n = 3840

print(f"sweeping eps = {eps_list} on a {n}-cell grid")
ctx = prepare_sweep(fam, eps_list, n)
results = [run_sweep_row(ctx, eps) for eps in eps_list]
rows = [row for row, _ in results]

print(f"\npredicted mixture weight alpha = {rows[0].alpha_pred:.4f}")
print(f"{'eps':>8} {'lhr':>8} {'|phi - mix|_L1':>15} {'mu(I_l)':>9}")
for r in rows:
    print(f"{r.eps:8.4f} {r.lhr_emp:8.4f} {r.l1_phi_vs_mixture:15.5f} {r.mu_Il:9.4f}")

ratios = [a.l1_phi_vs_mixture / b.l1_phi_vs_mixture
          for a, b in zip(rows, rows[1:])]
print(f"\nsuccessive distance ratios: {[f'{r:.2f}' for r in ratios]}"
      "  (about 2 when halving eps: the distance is first order in eps)")

# a picture: the computed density at the smallest eps against the mixture
art = results[-1][1]
xs = (np.arange(n) + 0.5) / n
from metamap.svgplot import write_line_plot
import os
os.makedirs("demos/output", exist_ok=True)
write_line_plot("demos/output/mixture.svg",
                [(xs, art.phi.values, f"phi at eps={eps_list[-1]}"),
                 (xs, ctx.mixture.values, "predicted mixture")],
                title="invariant density vs predicted mixture",
                xlabel="x", ylabel="density")
print("\nwrote demos/output/mixture.svg")
