"""Vacuum-to-vacuum cyclic evolution and the vacuum-induced geometric phase.

Starts the two-qubit system in |10>|0> (first qubit excited, field in vacuum),
finds the recurrence period from the rational energy-ratio condition, and
separates the Aharonov-Anandan phase from the weighted-Berry-phase part.
The geometric phase equals 2 pi times the average photon number over one
period, which is what makes it measurable by photon counting.
"""

import math

from rabigeom import dynamics, geometry
from rabigeom.model import RabiParams

print("Worked case: Delta = 0.01, g1 = g2 = 0.01 (units of omega_c)")
params = RabiParams.equal_frequency(0.01, 0.01, 0.01)
res = dynamics.cyclic_evolution_two_qubit(params)
p, q = res.windings[1], res.windings[2]
print(f"  bright-doublet energy ratio p/q = {p}/{q}")
print(f"  recurrence period T = {res.period / math.pi:.1f} pi / omega_c")
print(f"  recurrence fidelity 1 - {1 - res.recurrence_fidelity:.2e}")
print(f"  AA phase beta          = {res.aa_phase:.6f}")
print(f"  geometric phase gamma  = {res.gamma_geometric:.6f}")
print(f"  beta - gamma           = {res.aa_phase - res.gamma_geometric:.6f}"
      "  (pure winding contribution)")

avg = dynamics.average_photon_number(params, res.period)
print(f"  average photon number P = {avg.P:.6f} vs gamma/2pi = "
      f"{avg.gamma_over_2pi:.6f}")

print()
print("Saturation of the vacuum-induced phase with coupling (Delta = 0.01):")
for g in (0.005, 0.01, 0.02, 0.05, 0.1):
    gamma = geometry.vacuum_phase_two_qubit(
        RabiParams.equal_frequency(0.01, g, g))
    print(f"  g = {g:5.3f}:  gamma = {gamma:.4f}   (pi/2 = {math.pi / 2:.4f})")

print()
print("Inhomogeneous coupling suppresses the phase (g1 = 0.02 fixed):")
for g2 in (0.02, 0.05, 0.1, 0.2, 0.4):
    gamma = geometry.vacuum_phase_two_qubit(
        RabiParams.equal_frequency(0.0, 0.02, g2))
    print(f"  g2 = {g2:5.2f}:  gamma = {gamma:.4f}")
