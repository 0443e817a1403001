"""The whole plain-Fock two-qubit Rabi Hamiltonian: the parity sectors' oracle.

Built from sigma^+, sigma^z and a with np.kron, so it shares no code with
the library.  Basis index q n_photons + n, with the qubit states q in the
order |11>, |10>, |01>, |00> and photon numbers n < n_photons.
"""

import numpy as np

QUBITS = ("11", "10", "01", "00")


def full_rabi(params, n_photons, rwa=False):
    """(H, parity, excitation): the Hamiltonian, the eigenvalue of
    sigma1^z sigma2^z (-1)^(a^dag a) per basis vector, and the RWA label
    k = n + (number of upper qubits), conserved only with rwa=True."""
    # qubit states (|1>, |0>): sigma^+ = |1><0|
    one, z = np.eye(2), np.diag([1.0, -1.0])
    up = np.array([[0.0, 1.0], [0.0, 0.0]])
    a = np.diag(np.sqrt(np.arange(1.0, n_photons)), 1)
    qubits = 0.5 * (params.omega1 * np.kron(z, one)
                    + params.omega2 * np.kron(one, z))
    H = np.kron(qubits, np.eye(n_photons)) + np.kron(
        np.eye(4), np.diag(params.omega_c * np.arange(n_photons)))
    for g, up_j in ((params.g1, np.kron(up, one)),
                    (params.g2, np.kron(one, up))):
        # g (sigma_j^+ a + h.c.), plus g (sigma_j^+ a^dag + h.c.) beyond RWA
        hop = np.kron(up_j, a) + (0.0 if rwa else np.kron(up_j, a.T))
        H += g * (hop + hop.T)
    s1, s2 = np.repeat([[1, 1, -1, -1], [1, -1, 1, -1]], n_photons, axis=1)
    n = np.tile(np.arange(n_photons), 4)
    return H, s1 * s2 * (-1) ** n, n + (s1 + s2 + 2) // 2


def parity_sector(params, n_photons, kappa, rwa=False):
    """(energies, eigenvectors as columns, whole-space basis indices) of the
    sector of parity kappa; basis index b holds b % n_photons photons."""
    H, parity, _ = full_rabi(params, n_photons, rwa)
    ix = np.flatnonzero(parity == kappa)
    values, vectors = np.linalg.eigh(H[np.ix_(ix, ix)])
    return values, vectors, ix


def index(qubits, n, n_photons):
    """Whole-space basis index of |qubits, n>."""
    return QUBITS.index(qubits) * n_photons + n
