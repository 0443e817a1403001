"""Dense real-symmetric eigensolves, constant-Hamiltonian propagation and quadrature.

Every Hamiltonian in this package is real symmetric in its chosen basis, so a
single eigensolver with a deterministic sign convention serves all modules;
eigvalsh takes the same input checks where only energies are read.
Energies and times are expressed in units of the field frequency (omega_c = 1).
"""

from typing import NamedTuple

import numpy as np


class InvalidMatrix(ValueError):
    """Matrix is not finite, not square, or not exactly symmetric."""


class DimensionError(ValueError):
    """Operands have incompatible dimensions."""


class InvalidGrid(ValueError):
    """Quadrature abscissae are not strictly increasing."""


#: threshold below which a vector component does not count as "first nonzero"
SIGN_EPS = 1e-12


class EigenDecomposition(NamedTuple):
    eigenvalues: np.ndarray   # ascending
    eigenvectors: np.ndarray  # orthonormal columns, same order


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector signs so the first component above SIGN_EPS is positive.

    Works on one matrix of column eigenvectors or on a stack of them.  A
    column with no component above SIGN_EPS keeps its sign: its "leading"
    entry is then at most SIGN_EPS in magnitude, so it never tests below
    -SIGN_EPS.
    """
    first = np.argmax(np.abs(vectors) > SIGN_EPS, axis=-2)
    lead = np.take_along_axis(vectors, first[..., None, :], axis=-2)
    return vectors * np.where(lead < -SIGN_EPS, -1.0, 1.0)


def eigh(matrix) -> EigenDecomposition:
    """Full spectrum of a real symmetric matrix, ascending, deterministic signs.

    Accepts one (n, n) matrix or a (P, n, n) stack, which is solved matrix by
    matrix exactly as P separate calls would be; the results then carry the
    leading stack axis.  Ties between degenerate eigenvalues keep the
    (deterministic) order produced by the underlying LAPACK driver; every
    eigenvector is normalized so that its first nonzero component is
    positive, which makes repeated runs and CSV goldens reproducible.
    """
    values, vectors = np.linalg.eigh(_checked_symmetric(matrix))
    return EigenDecomposition(values, _fix_signs(vectors))


def eigvalsh(matrix) -> np.ndarray:
    """Eigenvalues only of a real symmetric matrix or a (P, n, n) stack,
    ascending.

    Takes the same input checks as eigh but a LAPACK driver that forms no
    eigenvectors, so its values may differ from eigh's by rounding.
    """
    return np.linalg.eigvalsh(_checked_symmetric(matrix))


def _checked_symmetric(matrix) -> np.ndarray:
    """The matrix or stack as floats, or InvalidMatrix if it is not finite,
    not square, or not exactly symmetric."""
    H = np.asarray(matrix, dtype=float)
    if H.ndim not in (2, 3) or H.shape[-1] != H.shape[-2] or H.shape[-1] < 1:
        raise InvalidMatrix(f"expected a square matrix or a stack of them, "
                            f"got shape {H.shape}")
    if not np.all(np.isfinite(H)):
        raise InvalidMatrix("matrix has non-finite entries")
    if not np.array_equal(H, np.swapaxes(H, -1, -2)):
        raise InvalidMatrix("matrix is not exactly symmetric")
    return H


def propagate(decomp: EigenDecomposition, state, t) -> np.ndarray:
    """Evolve ``state`` for time ``t`` under the diagonalized Hamiltonian.

    Returns sum_j exp(-i E_j t) v_j (v_j . state).  ``t`` is a scalar, giving
    the (n,) state at that time, or a 1-D array of K times, giving the (K, n)
    states row by row; each row equals the scalar call at its time bit for
    bit.  Exact up to roundoff, so no integrator tolerance enters downstream
    phase bookkeeping.
    """
    values, vectors = decomp
    psi = np.asarray(state, dtype=complex)
    if psi.shape != (vectors.shape[0],):
        raise DimensionError(
            f"state has shape {psi.shape}, expected ({vectors.shape[0]},)")
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise DimensionError(f"times have shape {times.shape}, expected a "
                             "scalar or a 1-D array")
    amps = vectors.T @ psi
    phases = np.exp(-1j * (values * times[..., None])) * amps
    # einsum sums each row in the same order for one time or many; a
    # (K, n) @ (n, n) product would not
    return np.einsum("ij,...j->...i", vectors, phases)


def trapezoid_integral(x, y) -> float:
    """Composite trapezoid rule on an ordered grid; exact for affine integrands."""
    xg = np.asarray(x, dtype=float)
    yg = np.asarray(y, dtype=float)
    if xg.ndim != 1 or xg.size < 2 or yg.shape != xg.shape:
        raise InvalidGrid("need at least two (x, f(x)) samples of equal length")
    dx = np.diff(xg)
    if np.any(dx <= 0.0):
        raise InvalidGrid("abscissae must be strictly increasing")
    return float(np.sum(0.5 * (yg[1:] + yg[:-1]) * dx))
