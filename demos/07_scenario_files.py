"""Driving everything from a declarative scenario file.

Scenario files are JSON: affine branches with exact rational coordinates
("1/6" strings or numbers) and their eps coefficients, the boundary point,
the eps sweep, grid size and output directory.  The same machinery backs the
CLI:

    metamap run --scenario demos/scenario_family_a.json
    metamap run --scenario builtin:family_a --eps 0.02,0.01 --grid 1920
    metamap validate --scenario builtin:family_b
    metamap markov --eps-lr 0.01 --eps-rl 0.03
"""

import os
from dataclasses import replace

from metamap.runner import run_scenario
from metamap.scenarios import grid_warnings, load_scenario, suggested_grid_n

here = os.path.dirname(__file__)
scn = load_scenario(os.path.join(here, "scenario_family_a.json"))
print(f"loaded scenario {scn.name!r}: {len(scn.family.base.branches)} branches, "
      f"eps {list(scn.eps_list)}, grid {scn.grid_n}")
for w in grid_warnings(scn):
    print(f"  note: {w}")
print(f"grid rule would suggest n = {suggested_grid_n(scn.family, scn.eps_list)} "
      "for the smallest eps")

# shrink the run so the demo finishes in a second or two
scn = replace(scn, eps_list=(0.02, 0.01), grid_n=768,
              out_dir=os.path.join(here, "output", "scenario_run"))

code = run_scenario(scn)
print(f"\nexit code {code}; artifacts:")
for name in sorted(os.listdir(scn.out_dir)):
    print(f"  {scn.out_dir}/{name}")
