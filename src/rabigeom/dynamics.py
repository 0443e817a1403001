"""Vacuum-to-vacuum cyclic evolutions, Aharonov-Anandan phases, photon averages.

Time propagation uses the exact eigendecomposition of the small constant
excitation blocks, so no integrator tolerance enters the phase bookkeeping.
Total and dynamical phases are accumulated unreduced; the dynamical phase
includes the gauge contribution of the driving loop, whose schedule is
phi(t) = 2 pi t / T over the full cyclic duration.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import geometry, model, numerics
from .model import RabiParams, k1_block

TWO_PI = 2.0 * math.pi


#: rationalize accepts p/q with q <= MAX_DENOMINATOR within RATIONAL_TOLERANCE
MAX_DENOMINATOR = 64
RATIONAL_TOLERANCE = 1e-9


class NoRational(ValueError):
    """No rational approximation within tolerance and denominator bound."""


class DegenerateDoublet(ValueError):
    """A doublet level coincides with another, so no finite period recurs."""


@dataclass(frozen=True)
class CyclicResult:
    """Bookkeeping of one cyclic (recurrent) evolution.

    ``windings`` holds the integer number of 2 pi revolutions each eigenstate
    phase makes relative to the reference component over the duration
    ``cycles * period``; the Aharonov-Anandan phase satisfies
    aa_phase = total_phase - dynamical_phase exactly, with total_phase
    referenced to the component stated in ``reference``.
    """

    period: float
    cycles: int
    windings: tuple[int, ...]
    total_phase: float
    dynamical_phase: float
    aa_phase: float
    gamma_geometric: float
    recurrence_fidelity: float
    reference: str


@dataclass(frozen=True)
class PhotonAverage:
    """Average photon number over one period and its geometric counterpart.

    ``times``, ``photon_expectation`` and ``fidelity`` (|<initial|psi(t)>|)
    are the samples the time average integrates.
    """

    P: float
    gamma_over_2pi: float
    times: np.ndarray = field(repr=False)
    photon_expectation: np.ndarray = field(repr=False)
    fidelity: np.ndarray = field(repr=False)


def rationalize(ratio: float) -> tuple[int, int]:
    """Best rational p/q with q <= MAX_DENOMINATOR, or NoRational.

    Returns the reduced fraction with q > 0 produced by the continued-fraction
    expansion of ``ratio``; rejects it when the residual exceeds
    RATIONAL_TOLERANCE.
    """
    if not math.isfinite(ratio):
        raise NoRational(f"ratio {ratio!r} is not finite")
    frac = Fraction(ratio).limit_denominator(MAX_DENOMINATOR)
    if abs(ratio - frac.numerator / frac.denominator) > RATIONAL_TOLERANCE:
        raise NoRational(f"no p/q with |q| <= {MAX_DENOMINATOR} within "
                         f"{RATIONAL_TOLERANCE} of {ratio}")
    return frac.numerator, frac.denominator


def cyclic_evolution_jc(params: RabiParams, q: int = 1) -> CyclicResult:
    """Cyclic evolution of |1,0> in the JC model over q internal periods.

    The driving loop closes once while the k = 1 doublet beats q times, so the
    recurrence time is q T with T = 2 pi / Omega_1.  The total phase is
    referenced to the lower doublet component, which makes the upper component
    wind q full turns and reproduces
    beta = cos^2(theta/2) (gamma_1^+ + 2 q pi) + sin^2(theta/2) gamma_1^-.
    """
    if not params.is_jc():
        raise model.NotJCReduction("cyclic_evolution_jc requires g2 = omega2 = 0")
    if q < 1:
        raise ValueError("q must be a positive integer")
    eig = model.jc_eigensystem(params, 1)
    if eig.omega_k == 0.0:
        raise DegenerateDoublet("degenerate doublet: Omega_1 = 0")
    T = TWO_PI / eig.omega_k
    duration = q * T
    half = eig.theta_k / 2.0
    w_plus, w_minus = math.cos(half) ** 2, math.sin(half) ** 2
    gamma_plus = geometry.berry_phase_jc(params, 1, "+")
    gamma_minus = geometry.berry_phase_jc(params, 1, "-")
    gamma = w_plus * gamma_plus + w_minus * gamma_minus
    mean_energy = w_plus * eig.e_plus + w_minus * eig.e_minus
    total = -eig.e_minus * duration
    dynamical = -duration * mean_energy - gamma
    beta = total - dynamical
    H, _, initial = k1_block(params)
    final = numerics.propagate(numerics.eigh(H), initial, duration)
    fidelity = abs(np.vdot(initial, final))
    return CyclicResult(T, q, (q, 0), total, dynamical, beta, gamma,
                        float(fidelity), "lower doublet component")


def cyclic_evolution_two_qubit(params: RabiParams) -> CyclicResult:
    """Cyclic evolution of |10,0> for two identical-frequency qubits.

    Requires the bright-doublet energy ratio E2/E3 to be rational; the state
    then recurs at T = 2 p pi / E2 = 2 q pi / E3 with winding integers signed
    so that T > 0.  The total phase is referenced to the zero-energy dark
    component, hence it vanishes while
    beta = cos^2(alpha) [cos^2(theta/2) (gamma_2 + 2 p pi)
                         + sin^2(theta/2) (gamma_3 + 2 q pi)].
    """
    theta, alpha, big = model.equal_frequency_angles(params)
    e1, e2, e3 = 0.0, (-params.delta + big) / 2.0, (-params.delta - big) / 2.0
    if e2 == 0.0 or e3 == 0.0:
        raise DegenerateDoublet("bright doublet degenerate with the dark state")
    p, qd = rationalize(e2 / e3)
    T = TWO_PI * p / e2
    if T < 0.0:
        p, qd, T = -p, -qd, -T
    half = theta / 2.0
    ca2 = math.cos(alpha) ** 2
    w = (math.sin(alpha) ** 2, ca2 * math.cos(half) ** 2,
         ca2 * math.sin(half) ** 2)
    gammas = (0.0,
              geometry.berry_phase_equal_frequency(params, 2),
              geometry.berry_phase_equal_frequency(params, 3))
    gamma = w[1] * gammas[1] + w[2] * gammas[2]
    mean_energy = w[1] * e2 + w[2] * e3
    total = -e1 * T   # zero by construction, kept explicit
    dynamical = -T * mean_energy - gamma
    beta = total - dynamical
    decomp = numerics.eigh(model.build_block(params, 1))
    initial = np.array([1.0, 0.0, 0.0])
    final = numerics.propagate(decomp, initial, T)
    fidelity = abs(np.vdot(initial, final))
    return CyclicResult(T, 1, (0, p, qd), total, dynamical, beta, gamma,
                        float(fidelity), "dark (zero-energy) component")


#: time samples that average_photon_number propagates together; bounds its
#: working memory whatever the number of samples
PHOTON_AVERAGE_BLOCK = 4096


def average_photon_number(params: RabiParams, T: float,
                          initial: np.ndarray | None = None,
                          n_time_steps: int = 2001) -> PhotonAverage:
    """Trapezoid time average of <a^dag a> over one recurrence period.

    Under the RWA the average over an exact period equals the weighted
    geometric phase divided by 2 pi; the sampled trapezoid rule reproduces the
    identity to roundoff because the integrand is periodic on the grid.
    """
    if n_time_steps < 1000:
        raise ValueError("n_time_steps must be at least 1000")
    H, photon_numbers, default_initial = k1_block(params)
    if params.is_jc():
        gamma = geometry.vacuum_phase_jc(params)
    else:
        gamma = geometry.vacuum_phase_two_qubit(params)
    psi0 = default_initial if initial is None else np.asarray(initial, complex)
    decomp = numerics.eigh(H)
    if initial is not None:
        # custom state: weighted-sum gamma recomputed from its own populations
        amps = decomp.eigenvectors.T @ psi0
        nbars = photon_numbers @ (decomp.eigenvectors ** 2)
        gamma = TWO_PI * float((np.abs(amps) ** 2) @ nbars)
    ts = np.linspace(0.0, T, n_time_steps)
    nbar_t = np.empty(n_time_steps)
    fidelity = np.empty(n_time_steps)
    for start in range(0, n_time_steps, PHOTON_AVERAGE_BLOCK):
        block = slice(start, start + PHOTON_AVERAGE_BLOCK)
        psi = numerics.propagate(decomp, psi0, ts[block])
        nbar_t[block] = (np.abs(psi) ** 2) @ photon_numbers
        # |<psi0|psi>| as hypot of the parts: np.abs of a complex array
        # rounds differently from abs() of a complex scalar
        overlap = np.einsum("j,kj->k", np.conj(psi0), psi)
        fidelity[block] = np.hypot(overlap.real, overlap.imag)
    P = numerics.trapezoid_integral(ts, nbar_t) / T
    return PhotonAverage(P, gamma / TWO_PI, ts, nbar_t, fidelity)
