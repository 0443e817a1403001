"""Geometric curvature and phase of the one- and two-qubit quantum Rabi models.

Library layout:

* :mod:`rabigeom.numerics` - symmetric eigensolves, propagation, quadrature
* :mod:`rabigeom.model` - Hamiltonians: JC closed forms, RWA excitation
  blocks (``solve_block`` returns energies and a (4, n) coefficient array),
  beyond-RWA parity sectors in plain Fock (a sector is given by its
  parameters and photon truncation M), displaced-Fock overlaps
  (``displacements`` returns the ladder displacements), exceptional exact
  eigenstates
* :mod:`rabigeom.geometry` - Berry connections and curvatures as arrays over
  a theta grid, Berry phases of eigenstates and vacuum-induced geometric
  phases of noneigenstates, each a float in radians, not reduced mod 2 pi
* :mod:`rabigeom.dynamics` - cyclic vacuum-to-vacuum evolutions,
  Aharonov-Anandan phases, photon-number averages
* :mod:`rabigeom.cli` - scenario presets writing reproducible CSV datasets

All energies and times are in units of the field frequency omega_c.
"""

import os
import sys

#: BLAS thread-count variables that default to "1" when rabigeom loads
#: before numpy, so each small sector eigensolve runs on one BLAS thread: on
#: a 2-CPU Xeon, OpenBLAS on two threads ran scan-anticrossing 4 % slower
#: (in 8 of 8 paired runs) and the fig3-fig5 presets 3 % slower (median)
#: than on one.  BLAS reads them once, as numpy loads, so nothing is set
#: when numpy is already imported; a value set by the user is kept.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules:
    for _var in BLAS_THREAD_VARS:
        os.environ.setdefault(_var, "1")
    del _var

from .model import RabiParams  # noqa: E402  (after the BLAS defaults)
from .dynamics import CyclicResult, PhotonAverage

__version__ = "0.1.0"

__all__ = [
    "RabiParams",
    "CyclicResult",
    "PhotonAverage",
    "__version__",
]
