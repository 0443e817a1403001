"""Anti-crossings at Delta = 0.5 and the crossover of the noneigenstate phase.

Scans both parity sectors for their minimal level gaps and sweeps the
weighted geometric phase of |10,0> through the same coupling range.  Because
|10,0> is exactly odd under parity, its phase responds to the odd-sector
anti-crossing only; the even-sector anti-crossing (the spectrally prominent
one) leaves it untouched.  The curvature d^2E/d omega_c^2 of each
anti-crossing pair shows why eigenstate Berry phases are ill-defined there:
driving the loop at rate omega moves a level's phase by
-2 pi omega d^2E/d omega_c^2, so the Berry phase holds to tol only below the
loop rate omega* = tol / (2 pi max|d^2E/d omega_c^2|).
"""

import math

import numpy as np

from rabigeom import geometry
from rabigeom.model import RabiParams

params_of_g = lambda g: RabiParams.equal_frequency(0.5, g, g)

print("Sector anti-crossings in g in [0.2, 0.32], omega1 = omega2 = 1.5:")
for kappa, name in ((1, "even"), (-1, "odd")):
    ac = geometry.detect_anticrossing(params_of_g, kappa=kappa,
                                      g_min=0.2, g_max=0.32, M=50)
    print(f"  {name:5} sector: levels {ac.level_pair} anti-cross at "
          f"g = {ac.g_star:.4f}, gap = {ac.min_gap:.3e}")
    omega_star = 0.01 / (2.0 * math.pi * max(map(abs, ac.curvature)))
    print(f"        d^2E/d omega_c^2 = {ac.curvature[0]:.2f}, "
          f"{ac.curvature[1]:.2f}: Berry phases hold to 0.01 only for loop "
          f"rates below omega* = {omega_star:.2e}")

print()
print("Weighted geometric phase of |10,0> through the region:")
for g in np.linspace(0.20, 0.30, 11):
    gamma, _ = geometry.noneigen_phase_beyond_rwa(params_of_g(float(g)))
    print(f"  g = {g:5.3f}:  gamma = {gamma:.5f}")

jump = geometry.locate_phase_jump(params_of_g, 0.2, 0.32)
print(f"\nSteepest change at g = {jump.g_jump:.4f} "
      f"(slope {jump.max_slope:.1f} rad per unit g, residual jump "
      f"{jump.jump_size:.1e}: a steep but continuous crossover at the "
      f"odd-sector anti-crossing)")
