"""Beyond-RWA eigensystem: the sweeps' sector solver vs a whole-space build.

The full Rabi Hamiltonian conserves only the parity
sigma1^z sigma2^z (-1)^(a^dag a).  Two independent constructions of each
parity sector are compared: exact diagonalization of the whole plain-Fock
product space, filtered by parity, and the sector solver of every sweep
(photons n <= M, the spin singlets taken out as exact eigenvectors).  The
adiabatic 2x2 approximation is then checked in its stated weak-coupling
regime.
"""

import numpy as np

from rabigeom import model
from rabigeom.model import RabiParams

params = RabiParams(omega1=1.5, omega2=1.5, g1=0.25, g2=0.25)
M = 50
fm = model.build_full_rabi(params, n_photons=4 * (M + 1))

print(f"omega1 = omega2 = {params.omega1}, g = {params.g1}; "
      f"M = {M}, plain-Fock cutoff = {4 * (M + 1)} levels")
for kappa, name in ((1, "even"), (-1, "odd")):
    plain, _, _ = model.solve_parity_sector(fm, kappa)
    sol = model.solve_sectors([params], M, kappa)
    sector, singlets = sol.energies[0, :8], sol.singlet[0]
    print(f"  {name} sector, lowest 8 levels "
          f"(max |dE| = {np.max(np.abs(sector - plain[:8])):.2e}):")
    for j, e in enumerate(sector):
        tag = "  <- spin singlet, E = n omega_c exactly" if singlets[j] else ""
        print(f"    {e:12.8f}{tag}")

print()
print("Adiabatic approximation, omega1 = omega2 = 0.5, weak coupling:")
print(f"{'g':>6} {'exact E0..E3':>42} {'max |dE|':>10}")
for g in (0.005, 0.02):
    weak = RabiParams(omega1=0.5, omega2=0.5, g1=g, g2=g)
    fm_w = model.build_full_rabi(weak, n_photons=60)
    exact = np.sort(np.concatenate([
        model.solve_parity_sector(fm_w, k)[0][:4]
        for k in (1, -1)]))[:4]
    approx = np.sort([s.energy for n in range(2) for k in (1, -1)
                      for s in model.adiabatic_eigensystem(weak, n, k)])[:4]
    err = np.max(np.abs(approx - exact))
    print(f"{g:6.3f} {np.array2string(exact, precision=5):>42} {err:10.2e}")
