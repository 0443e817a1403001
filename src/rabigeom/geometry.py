"""Berry connections, curvatures and geometric phases for all model variants.

The driving loop is the photon phase shift R(phi) = exp(-i phi a^dag a) applied
adiabatically for phi from 0 to 2 pi.  Because i R^dag (dR/dphi) = a^dag a, the
Berry phase of any eigenstate reduces to gamma = 2 pi <a^dag a>, which is the
oracle identity every closed form in this module is tested against.  Phases are
reported unreduced (the excitation ladders contribute 2 pi windings); use
``reduce_phase`` for display.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from . import model, numerics
from .model import (BlockEigenpair, DisplacedBasis, RabiParams,
                    SectorSolution, TruncatedEigenpair)

TWO_PI = 2.0 * math.pi


class NotNormalized(ValueError):
    """State vector norm deviates from one beyond tolerance."""


class LabelError(ValueError):
    """Closed form or field label not applicable to the given parameters."""


class WeightError(ValueError):
    """Statistical weights do not sum to one."""


class AccuracyWarning(UserWarning):
    """Grid too coarse for the advertised finite-difference accuracy."""


class NoAnticrossing(RuntimeError):
    """Level gap is monotone over the scanned range."""


@dataclass(frozen=True)
class PhaseResult:
    """A geometric phase in radians, not reduced mod 2 pi."""

    gamma: float
    method: str
    weight_total: float | None = None


@dataclass(frozen=True)
class ConnectionSample:
    theta: float
    phi: float
    A_theta: float
    A_phi: float
    gauge: str = "paper gauge"


@dataclass(frozen=True)
class CurvatureSample:
    theta: float
    phi: float
    F_theta_phi: float = math.nan
    F_radial: float = math.nan


def reduce_phase(gamma: float) -> float:
    """Map an unreduced phase to [0, 2 pi) for display."""
    return gamma % TWO_PI


# ---------------------------------------------------------------------------
# Berry phase of eigenstates: the photon-number route
# ---------------------------------------------------------------------------

def photon_expectation_fock(coefficients, photon_numbers) -> float:
    """<a^dag a> of a real state expanded over basis states of definite n."""
    c = np.asarray(coefficients, dtype=float)
    ns = np.asarray(photon_numbers, dtype=float)
    norm = float(np.sum(c * c))
    if abs(norm - 1.0) > 1e-10:
        raise NotNormalized(f"state norm^2 = {norm!r}")
    return float(np.sum(ns * c * c))


def berry_phase_fock_state(coefficients, photon_numbers) -> PhaseResult:
    gamma = TWO_PI * photon_expectation_fock(coefficients, photon_numbers)
    return PhaseResult(gamma, "photon_expectation")


def berry_phase_block_state(pair: BlockEigenpair) -> PhaseResult:
    nbar = pair.photon_expectation
    if abs(float(np.sum(pair.coeffs**2)) - 1.0) > 1e-10:
        raise NotNormalized("block eigenpair coefficients not normalized")
    return PhaseResult(TWO_PI * nbar, "photon_expectation")


def truncated_photon_expectation(pair: TruncatedEigenpair,
                                 basis: DisplacedBasis) -> float:
    """<a^dag a> of a displaced-sector eigenstate.

    Expanding a = A - beta in each displaced ladder gives the quadratic form
    sum_n (n + beta^2) c_n^2 - 2 beta sqrt(n+1) c_{n+1} c_n per block, which is
    evaluated through the sector number operator.
    """
    c = pair.coefficients
    norm = float(c @ c)
    if abs(norm - 1.0) > 1e-8:
        raise NotNormalized(f"sector state norm^2 = {norm!r}")
    return float(c @ model.sector_number_operator(basis) @ c)


def berry_phase_truncated_state(pair: TruncatedEigenpair,
                                basis: DisplacedBasis) -> PhaseResult:
    return PhaseResult(TWO_PI * truncated_photon_expectation(pair, basis),
                       "photon_expectation")


def berry_phase_eigenstate(state, *args) -> PhaseResult:
    """Berry phase of any eigenstate as 2 pi <a^dag a>.

    Accepts a BlockEigenpair, a TruncatedEigenpair together with its
    DisplacedBasis, or a plain coefficient vector together with the photon
    number of each basis slot.
    """
    if isinstance(state, BlockEigenpair):
        return berry_phase_block_state(state)
    if isinstance(state, TruncatedEigenpair):
        return berry_phase_truncated_state(state, *args)
    return berry_phase_fock_state(state, *args)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def berry_phase_jc(params: RabiParams, k: int, branch: str) -> PhaseResult:
    """Closed-form JC Berry phase: plus branch pi(1-cos theta_k) + 2 pi (k-1),
    minus branch -pi(1-cos theta_k) + 2 pi k."""
    if branch not in ("+", "-"):
        raise LabelError(f"unknown JC branch {branch!r}")
    if k == 0:
        return PhaseResult(0.0, "closed_form")
    theta = model.spectral_angles(params, k).theta_k
    swing = math.pi * (1.0 - math.cos(theta))
    if branch == "+":
        gamma = swing + TWO_PI * (k - 1)
    else:
        gamma = -swing + TWO_PI * k
    return PhaseResult(gamma, "closed_form")


def berry_phase_block_closed_form(pair: BlockEigenpair) -> PhaseResult:
    """Closed-form phase of a solved two-qubit block eigenstate.

    For k = 1 the angle satisfies cos theta = 1 - 2 d^2; for k >= 2,
    cos theta = 1 - 2 |s_k| with s_k = d^2 - a^2 and the phase carries the
    winding 2 pi (k - 1) plus sgn(s_k) pi (1 - cos theta).
    """
    if pair.k == 0:
        return PhaseResult(0.0, "closed_form")
    if pair.k == 1:
        cos_theta = 1.0 - 2.0 * pair.d**2
        return PhaseResult(math.pi * (1.0 - cos_theta), "closed_form")
    s = pair.s_k
    cos_theta = 1.0 - 2.0 * abs(s)
    gamma = np.sign(s) * math.pi * (1.0 - cos_theta) + TWO_PI * (pair.k - 1)
    return PhaseResult(float(gamma), "closed_form")


def berry_phase_two_qubit(params: RabiParams, k: int, l: int) -> PhaseResult:
    """Closed-form two-qubit Berry phase of level l (ascending) in block k."""
    pairs = model.solve_block(params, k)
    if not 1 <= l <= len(pairs):
        raise LabelError(f"block k={k} has no level l={l}")
    return berry_phase_block_closed_form(pairs[l - 1])


def berry_phase_equal_frequency(params: RabiParams, l: int) -> PhaseResult:
    """k = 1 phases for identical qubit frequencies: 0, pi(1 -/+ ... )."""
    ef = model.equal_frequency_k1(params)
    cos_theta = math.cos(ef.theta_1_2)
    if l == 1:
        gamma = 0.0
    elif l == 2:
        gamma = math.pi * (1.0 - cos_theta)
    elif l == 3:
        gamma = math.pi * (1.0 + cos_theta)
    else:
        raise LabelError(f"equal-frequency k=1 has levels l=1..3, got {l}")
    return PhaseResult(gamma, "closed_form")


def berry_phase_adiabatic(params: RabiParams, n: int, kappa: int,
                          branch: int) -> PhaseResult:
    """Adiabatic-approximation phase pi(1 - cos theta) + 2 n pi with
    theta = 2 arcsin sqrt(beta1^2 d1^2 + beta2^2 d2^2)."""
    sols = model.adiabatic_eigensystem(params, n, kappa)
    sol = sols[0] if branch == +1 else sols[1]
    basis = DisplacedBasis.for_params(params, M=max(1, n))
    arg = basis.beta1**2 * sol.d1n**2 + basis.beta2**2 * sol.d2n**2
    theta = 2.0 * math.asin(min(1.0, math.sqrt(arg)))
    gamma = math.pi * (1.0 - math.cos(theta)) + TWO_PI * n
    return PhaseResult(gamma, "closed_form")


def berry_phase_exceptional(q: float) -> PhaseResult:
    """Exact phase of the one-photon exceptional states,
    cos theta = (1 - 2 q^2) / (1 + 2 q^2)."""
    cos_theta = (1.0 - 2.0 * q * q) / (1.0 + 2.0 * q * q)
    return PhaseResult(math.pi * (1.0 - cos_theta), "closed_form")


def berry_phase_closed_form(params: RabiParams | None, label) -> PhaseResult:
    """Dispatch on a state label tuple.

    Labels: ('jc', k, '+'|'-'), ('two_qubit', k, l), ('equal_frequency', l),
    ('adiabatic', n, kappa, branch), ('exceptional', q).
    """
    kind = label[0]
    if kind == "jc":
        return berry_phase_jc(params, label[1], label[2])
    if kind == "two_qubit":
        return berry_phase_two_qubit(params, label[1], label[2])
    if kind == "equal_frequency":
        return berry_phase_equal_frequency(params, label[1])
    if kind == "adiabatic":
        return berry_phase_adiabatic(params, label[1], label[2], label[3])
    if kind == "exceptional":
        return berry_phase_exceptional(label[1])
    raise LabelError(f"unknown closed-form label {label!r}")


# ---------------------------------------------------------------------------
# Connection and curvature over the (theta, phi) parameter sphere
# ---------------------------------------------------------------------------

_CONNECTION_LABELS = ("jc_plus", "jc_minus", "two_qubit_1", "two_qubit_2",
                      "two_qubit_3", "noneigen_jc", "noneigen_two_qubit")


def _analytic_a_phi(label: str, theta, alpha: float = 0.0):
    theta = np.asarray(theta, dtype=float)
    half = theta / 2.0
    if label in ("jc_plus", "two_qubit_2"):
        return np.sin(half) ** 2
    if label in ("jc_minus", "two_qubit_3"):
        return np.cos(half) ** 2
    if label == "two_qubit_1":
        return np.zeros_like(theta)
    if label == "noneigen_jc":
        return 0.5 * np.sin(theta) ** 2
    if label == "noneigen_two_qubit":
        return 0.5 * np.sin(theta) ** 2 * math.cos(alpha) ** 2
    raise LabelError(f"unknown connection label {label!r}")


def _state_photon_expectation(label: str, theta: float, params: RabiParams) -> float:
    """<a^dag a> recomputed from actual eigenvectors at parameters realizing theta.

    The polar angle maps to (Delta, coupling) at the fixed radius set by
    ``params``: Delta = 2r cos(theta) and the total coupling 2r sin(theta),
    with r = Omega_1/2 for the JC family and r = Theta_1/2 for two qubits.
    """
    if label.endswith("jc") or label.startswith("jc"):
        r = model.spectral_angles(params, 1).omega_k / 2.0
        delta = 2.0 * r * math.cos(theta)
        g1 = r * math.sin(theta)
        pars = RabiParams.jc(delta, g1)
        eig = model.jc_eigensystem(pars, 1)
        n_plus = eig.state_plus[1] ** 2
        if label == "jc_plus":
            return n_plus
        if label == "jc_minus":
            return eig.state_minus[1] ** 2
        # vacuum-start noneigenstate |1, 0>
        w_plus = math.cos(eig.theta_k / 2.0) ** 2
        return w_plus * n_plus + (1.0 - w_plus) * eig.state_minus[1] ** 2
    ang = model.spectral_angles(params, 1)
    r = ang.big_theta_1 / 2.0
    delta = 2.0 * r * math.cos(theta)
    gtot = r * math.sin(theta)
    pars = RabiParams.equal_frequency(delta, gtot * math.cos(ang.alpha),
                                      gtot * math.sin(ang.alpha))
    ef = model.equal_frequency_k1(pars)
    nbar = ef.states_block[:, 2] ** 2   # |00,1> slot carries the photon
    if label == "two_qubit_1":
        return float(nbar[0])
    if label == "two_qubit_2":
        return float(nbar[1])
    if label == "two_qubit_3":
        return float(nbar[2])
    # noneigenstate |10, 0>: weights of the uncoupled expansion
    half = ef.theta_1_2 / 2.0
    w = np.array([math.sin(ang.alpha) ** 2,
                  math.cos(ang.alpha) ** 2 * math.cos(half) ** 2,
                  math.cos(ang.alpha) ** 2 * math.sin(half) ** 2])
    return float(w @ nbar)


def connection_field(params: RabiParams, state_label: str, thetas,
                     phi: float = 0.0, verify: bool = True,
                     ) -> list[ConnectionSample]:
    """Berry connection samples (A_theta = 0, A_phi analytic) along a theta grid.

    With verify=True each analytic A_phi is checked against <a^dag a> of the
    eigenstates reconstructed at parameters realizing that polar angle; a
    mismatch beyond 1e-10 raises, since it would invalidate every phase
    downstream.
    """
    if state_label not in _CONNECTION_LABELS:
        raise LabelError(f"unknown connection label {state_label!r}")
    if state_label == "noneigen_two_qubit":
        alpha = model.spectral_angles(params, 1).alpha
    else:
        alpha = 0.0
    thetas = np.asarray(thetas, dtype=float)
    a_phi = _analytic_a_phi(state_label, thetas, alpha)
    if verify:
        for th, ap in zip(thetas, a_phi):
            nbar = _state_photon_expectation(state_label, float(th), params)
            if abs(nbar - ap) > 1e-10:
                raise AssertionError(
                    f"connection check failed at theta={th}: {nbar} vs {ap}")
    return [ConnectionSample(float(th), phi, 0.0, float(ap))
            for th, ap in zip(thetas, a_phi)]


def curvature_from_connection(samples: list[ConnectionSample],
                              ) -> list[CurvatureSample]:
    """F_theta_phi = dA_phi/dtheta by central differences on a uniform grid.

    In the gauge used here A_phi does not depend on phi, so the second term of
    the curl vanishes identically.
    """
    thetas = np.array([s.theta for s in samples])
    a_phi = np.array([s.A_phi for s in samples])
    if thetas.size < 3:
        raise ValueError("need at least three samples")
    spacing = np.diff(thetas)
    if not np.allclose(spacing, spacing[0], rtol=1e-9, atol=1e-15):
        raise ValueError("theta grid must be uniform")
    if spacing[0] > 1e-2:
        warnings.warn(f"theta spacing {spacing[0]:.3e} exceeds 1e-2; curvature "
                      "accuracy degraded", AccuracyWarning, stacklevel=2)
    F = np.gradient(a_phi, thetas, edge_order=2)
    phi = samples[0].phi
    return [CurvatureSample(float(th), phi, F_theta_phi=float(f))
            for th, f in zip(thetas, F)]


def phase_by_surface_integral(samples: list[CurvatureSample]) -> PhaseResult:
    """Stokes integral 2 pi int_0^theta F dtheta' of a phi-independent curvature.

    Yields the winding-free part of the Berry phase for the cap bounded by the
    loop at the largest sampled polar angle; families whose gauge is regular at
    the south pole pick up an extra 2 pi per enclosed monopole, accounted for
    by the caller.
    """
    thetas = np.array([s.theta for s in samples])
    F = np.array([s.F_theta_phi for s in samples])
    gamma = TWO_PI * numerics.trapezoid_integral(thetas, F)
    return PhaseResult(gamma, "curvature_integral")


_RADIAL_LABELS = ("eigen_jc", "eigen_two_qubit", "noneigen_jc",
                  "noneigen_two_qubit")


def radial_field(state_label: str, thetas, phis=(0.0,)) -> list[CurvatureSample]:
    """Radial curvature field on the unit parameter sphere, peak-normalized.

    Eigenstate fields are monopole-like and constant over the sphere; the
    vacuum-start noneigenstate fields carry the extra factor cos(theta), which
    vanishes on the equator and points inward on the southern hemisphere.
    """
    if state_label not in _RADIAL_LABELS:
        raise LabelError(f"unknown radial field label {state_label!r}")
    thetas = np.asarray(thetas, dtype=float)
    phis = np.asarray(phis, dtype=float)
    out = []
    for phi in phis:
        if state_label.startswith("eigen"):
            vals = np.ones_like(thetas)
        else:
            vals = np.cos(thetas)
        out.extend(CurvatureSample(float(th), float(phi), F_radial=float(v))
                   for th, v in zip(thetas, vals))
    return out


# ---------------------------------------------------------------------------
# Noneigenstate geometric phases
# ---------------------------------------------------------------------------

def noneigen_geometric_phase(weights, gammas) -> PhaseResult:
    """Statistical average of eigenstate Berry phases, weighted by populations."""
    w = np.asarray(weights, dtype=float)
    g = np.asarray(gammas, dtype=float)
    total = float(np.sum(w))
    if abs(total - 1.0) > 1e-10:
        raise WeightError(f"weights sum to {total!r}, expected 1")
    return PhaseResult(float(np.sum(w * g)), "weighted_sum", weight_total=total)


def vacuum_phase_jc(params: RabiParams) -> PhaseResult:
    """Vacuum-induced geometric phase of |1,0>: pi (1 - cos 2 theta_1) / 2."""
    theta = model.spectral_angles(params, 1).theta_k
    return PhaseResult(0.5 * math.pi * (1.0 - math.cos(2.0 * theta)),
                       "closed_form")


def vacuum_phase_two_qubit(params: RabiParams) -> PhaseResult:
    """Vacuum-induced geometric phase of |10,0> under the RWA
    (identical qubit frequencies): pi cos^2(alpha) (1 - cos 2 theta) / 2."""
    ef = model.equal_frequency_k1(params)
    gamma = 0.5 * math.pi * math.cos(ef.alpha) ** 2 \
        * (1.0 - math.cos(2.0 * ef.theta_1_2))
    return PhaseResult(gamma, "closed_form")


def noneigen_curvature_two_qubit(params: RabiParams) -> float:
    """Geometric curvature of |10,0>: sin(2 theta) cos^2(alpha) / 2."""
    ef = model.equal_frequency_k1(params)
    return 0.5 * math.sin(2.0 * ef.theta_1_2) * math.cos(ef.alpha) ** 2


def vacuum_amplitudes(params: RabiParams, basis: DisplacedBasis, kappa: int,
                      pairs: list[TruncatedEigenpair]) -> np.ndarray:
    """Overlaps <eigenstate | 10,0> with the qubit-1-excited vacuum state.

    In the sector representation the plain vacuum expands over each displaced
    ladder through <n|D(beta)|0>, and the qubit content of |10,0> selects the
    (1 - kappa)/2 combination, so even-parity overlaps vanish identically.
    """
    if kappa == 1:
        return np.zeros(len(pairs))
    mp1 = basis.M + 1
    col1 = model.displacement_matrix(mp1, basis.beta1)[:, 0]
    col2 = model.displacement_matrix(mp1, basis.beta2)[:, 0]
    return np.array([float(p.d1 @ col1 - p.d2 @ col2) for p in pairs])


def _check_weight_total(total: float) -> None:
    if abs(total - 1.0) > 1e-8:
        raise WeightError(f"vacuum-state weights sum to {total!r}; "
                          "truncation too small")


def noneigen_phase_beyond_rwa(params: RabiParams,
                              basis: DisplacedBasis | None = None,
                              weight_floor: float = 1e-12) -> PhaseResult:
    """Weighted Berry-phase sum for the initial state |10,0> beyond the RWA.

    Expands |10,0> over the truncated eigenstates of the odd parity sector
    (its even-sector overlaps vanish, see vacuum_amplitudes) and sums their
    Berry phases with the squared overlaps as weights, state by state;
    components below ``weight_floor`` are noise and dropped.  Sweeps use
    noneigen_phases_beyond_rwa, which agrees with this to rounding.
    """
    if basis is None:
        basis = DisplacedBasis.for_params(params)
    nop = model.sector_number_operator(basis)
    pairs = model.truncated_parity_solve(params, basis, -1,
                                         check_truncation=False)
    amps = vacuum_amplitudes(params, basis, -1, pairs)
    gamma = 0.0
    total = 0.0
    for p, w in zip(pairs, amps * amps):
        if w < weight_floor:
            continue
        c = p.coefficients
        gamma += w * TWO_PI * float(c @ nop @ c)
        total += w
    _check_weight_total(float(total))
    return PhaseResult(gamma, "weighted_sum", weight_total=total)


def noneigen_phases_beyond_rwa(odd: SectorSolution,
                               weight_floor: float = 1e-12,
                               ) -> list[PhaseResult]:
    """noneigen_phase_beyond_rwa at every point of a solved odd sector."""
    if odd.kappa != -1:
        raise ValueError("|10,0> has odd parity; pass the kappa = -1 sector")
    weights = np.where(odd.vacuum_weights >= weight_floor,
                       odd.vacuum_weights, 0.0)
    totals = np.sum(weights, axis=1)
    gammas = np.sum(weights * TWO_PI * odd.photon_numbers, axis=1)
    for total in totals:
        _check_weight_total(float(total))
    return [PhaseResult(float(g), "weighted_sum", weight_total=float(t))
            for g, t in zip(gammas, totals)]


# ---------------------------------------------------------------------------
# Anti-crossing detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnticrossingResult:
    g_star: float
    min_gap: float
    level_pair: tuple[int, int]
    adiabaticity_ratio: float
    adiabaticity_exceeded: bool


def detect_anticrossing(params_of_g, kappa: int, g_min: float, g_max: float,
                        level_pair: tuple[int, int] | None = None,
                        n_scan: int = 201, M: int = 50, n_levels: int = 8,
                        drop_singlets: bool = True,
                        rwa: bool = False) -> AnticrossingResult:
    """Locate the minimal gap of a parity sector along a coupling sweep.

    ``params_of_g`` maps the swept coupling to RabiParams.  A coarse scan with
    at least 200 points brackets the interior minimum of the adjacent-level gap
    (of ``level_pair`` if given, otherwise of whichever adjacent pair attains
    the smallest gap), which golden-section search then refines.  Raises
    NoAnticrossing when the bracketed minimum sits on the range boundary, and
    also when the refined gap closes completely: under the RWA levels of
    different excitation number cross exactly and the driving cannot connect
    them, so there is no anti-crossing to report.
    """
    if n_scan < 200:
        raise ValueError("n_scan must be at least 200")
    gs = np.linspace(g_min, g_max, n_scan)

    def levels(g_values) -> np.ndarray:
        params_list = [params_of_g(float(g)) for g in g_values]
        if rwa:
            return np.array([model.rwa_parity_levels(pars, kappa, n_levels,
                                                     drop_singlets)
                             for pars in params_list])
        sol = model.solve_sectors(params_list, M, kappa)
        return np.array([sol.energies[i, sol.kept(i, drop_singlets)[:n_levels]]
                         for i in range(len(params_list))])

    table = levels(gs)
    gaps = np.diff(table, axis=1)
    if level_pair is None:
        flat = np.argmin(gaps)
        i_coarse, pair_lo = np.unravel_index(flat, gaps.shape)
        pair = (int(pair_lo), int(pair_lo) + 1)
    else:
        pair = level_pair
        if pair[1] != pair[0] + 1:
            raise ValueError("level_pair must be adjacent levels (i, i+1)")
        i_coarse = int(np.argmin(gaps[:, pair[0]]))
    gap_curve = gaps[:, pair[0]]
    if i_coarse == 0 or i_coarse == n_scan - 1:
        raise NoAnticrossing(
            f"gap of levels {pair} is monotone over [{g_min}, {g_max}]")

    def gap_at(g: float) -> float:
        e = levels([g])[0]
        return float(e[pair[1]] - e[pair[0]])

    res = minimize_scalar(gap_at, bracket=(gs[i_coarse - 1], gs[i_coarse],
                                           gs[i_coarse + 1]),
                          method="golden", options={"xtol": 1e-7})
    g_star, min_gap = float(res.x), float(res.fun)
    if min_gap < 1e-8:
        raise NoAnticrossing(
            f"levels {pair} cross exactly at g = {g_star:.6f}; crossings "
            "between decoupled families are not anti-crossings")
    if min_gap > 0.9 * max(gap_curve[0], gap_curve[-1]):
        raise NoAnticrossing(
            f"gap of levels {pair} shows no pronounced minimum")
    if rwa:
        # gap geometry only; the driving matrix element is block-local
        return AnticrossingResult(g_star, min_gap, pair, math.nan, False)
    ratio = _adiabaticity_ratio(params_of_g(g_star), kappa, pair, M,
                                drop_singlets)
    return AnticrossingResult(g_star, min_gap, pair, ratio, ratio > 1.0)


@dataclass(frozen=True)
class PhaseJump:
    """Steepest-change point of a swept geometric phase."""

    g_jump: float
    jump_size: float      # |gamma change| across the final bracket
    max_slope: float      # |d gamma / d g| estimate at the located point


def locate_phase_jump(params_of_g, g_min: float, g_max: float,
                      n_scan: int = 61, n_refine: int = 24,
                      basis_M: int = 50) -> PhaseJump:
    """Locate the sharpest change of the beyond-RWA noneigenstate phase.

    Scans gamma(g) on a coarse grid, then bisects the interval of largest
    change.  A true discontinuity keeps a finite ``jump_size`` as the bracket
    shrinks; a steep but smooth crossover refines to jump_size near zero while
    ``g_jump`` converges to the point of maximal slope.
    """
    def gamma_at(g: float) -> float:
        pars = params_of_g(float(g))
        basis = DisplacedBasis.for_params(pars, M=basis_M)
        return noneigen_phase_beyond_rwa(pars, basis).gamma

    gs = np.linspace(g_min, g_max, n_scan)
    odd = model.solve_sectors([params_of_g(float(g)) for g in gs], basis_M, -1)
    vals = [r.gamma for r in noneigen_phases_beyond_rwa(odd)]
    i = int(np.argmax(np.abs(np.diff(vals))))
    lo, hi = float(gs[i]), float(gs[i + 1])
    # The bisection compares changes of gamma down to rounding level, so all
    # values it compares, bracket ends included, come from one evaluation.
    vlo, vhi = gamma_at(lo), gamma_at(hi)
    for _ in range(n_refine):
        mid = 0.5 * (lo + hi)
        vm = gamma_at(mid)
        if abs(vm - vlo) > abs(vhi - vm):
            hi, vhi = mid, vm
        else:
            lo, vlo = mid, vm
    width = hi - lo
    slope = abs(vhi - vlo) / width if width > 0.0 else math.inf
    return PhaseJump(0.5 * (lo + hi), abs(vhi - vlo), slope)


def _adiabaticity_ratio(params: RabiParams, kappa: int, pair: tuple[int, int],
                        M: int, drop_singlets: bool) -> float:
    """Proxy |<n| dH/dphi |m>| / (E_n - E_m)^2 per unit loop rate.

    For the phase-shift driving the numerator is |(E_m - E_n) <n|a^dag a|m>|,
    so the ratio reduces to |<n|a^dag a|m> / (E_n - E_m)|.
    """
    basis = DisplacedBasis.for_params(params, M=M)
    pairs = model.truncated_parity_solve(params, basis, kappa,
                                         check_truncation=False)
    if drop_singlets:
        skip = set(model.singlet_indices(params, pairs))
        pairs = [p for j, p in enumerate(pairs) if j not in skip]
    a, b = pairs[pair[0]], pairs[pair[1]]
    gap = b.energy - a.energy
    if gap == 0.0:
        return math.inf
    nop = model.sector_number_operator(basis)
    return abs(float(a.coefficients @ nop @ b.coefficients) / gap)
