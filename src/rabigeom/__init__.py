"""Geometric curvature and phase of the one- and two-qubit quantum Rabi models.

Library layout:

* :mod:`rabigeom.numerics` - symmetric eigensolves, propagation, quadrature
* :mod:`rabigeom.model` - Hamiltonians: JC closed forms, RWA excitation
  blocks (``solve_block`` returns energies and a (4, n) coefficient array),
  plain-Fock and displaced-Fock beyond-RWA constructions, exceptional exact
  eigenstates
* :mod:`rabigeom.geometry` - Berry connections and curvatures as arrays over
  a theta grid, Berry phases of eigenstates and vacuum-induced geometric
  phases of noneigenstates (``PhaseResult``)
* :mod:`rabigeom.dynamics` - cyclic vacuum-to-vacuum evolutions,
  Aharonov-Anandan phases, photon-number averages
* :mod:`rabigeom.cli` - scenario presets writing reproducible CSV datasets

All energies and times are in units of the field frequency omega_c.
"""

from .model import DisplacedBasis, RabiParams
from .geometry import PhaseResult
from .dynamics import CyclicResult, PhotonAverage

__version__ = "0.1.0"

__all__ = [
    "RabiParams",
    "DisplacedBasis",
    "PhaseResult",
    "CyclicResult",
    "PhotonAverage",
    "__version__",
]
