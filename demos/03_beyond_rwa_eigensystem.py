"""Beyond-RWA eigensystem: the sweeps' sector solver vs a whole-space build.

The full Rabi Hamiltonian conserves only the parity
sigma1^z sigma2^z (-1)^(a^dag a).  Two independent constructions of each
parity sector are compared: exact diagonalization of the whole plain-Fock
product space, built below with np.kron and filtered by parity, and the
sector solver of every sweep (photons n <= M, the spin singlets taken out as
exact eigenvectors).  The adiabatic 2x2 approximation is then checked in its
stated weak-coupling regime.
"""

import numpy as np

from rabigeom import model
from rabigeom.model import RabiParams


def whole_space_levels(params, n_photons):
    """{parity: ascending energies} of the Rabi Hamiltonian
    sum_j [omega_j sigma_j^z / 2 + g_j sigma_j^x (a + a^dag)] + omega_c a^dag a
    on qubits (|1>, |0>) x (|1>, |0>) x photons n < n_photons."""
    one, z = np.eye(2), np.diag([1.0, -1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    a = np.diag(np.sqrt(np.arange(1.0, n_photons)), 1)
    qubits = 0.5 * (params.omega1 * np.kron(z, one)
                    + params.omega2 * np.kron(one, z))
    H = np.kron(qubits, np.eye(n_photons)) + np.kron(
        np.eye(4), np.diag(params.omega_c * np.arange(n_photons)))
    H += params.g1 * np.kron(np.kron(x, one), a + a.T)
    H += params.g2 * np.kron(np.kron(one, x), a + a.T)
    # sigma1^z sigma2^z (-1)^(a^dag a), the one conserved quantity
    parity = np.kron(np.diag(np.kron(z, z)), (-1.0) ** np.arange(n_photons))
    return {k: np.linalg.eigvalsh(H[np.ix_(parity == k, parity == k)])
            for k in (1, -1)}


params = RabiParams(omega1=1.5, omega2=1.5, g1=0.25, g2=0.25)
M = 50
whole = whole_space_levels(params, 4 * (M + 1))

print(f"omega1 = omega2 = {params.omega1}, g = {params.g1}; "
      f"M = {M}, plain-Fock cutoff = {4 * (M + 1)} levels")
for kappa, name in ((1, "even"), (-1, "odd")):
    plain = whole[kappa]
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
    exact = np.sort(np.concatenate([
        levels[:4] for levels in whole_space_levels(weak, 60).values()]))[:4]
    approx = np.sort([s.energy for n in range(2) for k in (1, -1)
                      for s in model.adiabatic_eigensystem(weak, n, k)])[:4]
    err = np.max(np.abs(approx - exact))
    print(f"{g:6.3f} {np.array2string(exact, precision=5):>42} {err:10.2e}")
