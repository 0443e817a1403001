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

from . import model, numerics
from .model import RabiParams, SectorSolution

TWO_PI = 2.0 * math.pi

#: vacuum weights below this are dropped from the beyond-RWA phase sums.  They
#: are not all rounding noise: on the fig5 grids the floor moves gamma by up to
#: 7.4e-11 against no floor (Delta = 0.2, g = 0.23), far below the 1e-6
#: convergence gate.  The bench references pin the biased values, so this is
#: the one line to change when they are regenerated.
WEIGHT_FLOOR = 1e-12


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


def reduce_phase(gamma: float) -> float:
    """Map an unreduced phase to [0, 2 pi) for display."""
    return gamma % TWO_PI


# ---------------------------------------------------------------------------
# Berry phase of eigenstates: the photon-number route
# ---------------------------------------------------------------------------

def berry_phase_fock_state(coefficients, photon_numbers) -> float:
    """Berry phase 2 pi <a^dag a> of a real state expanded over basis states
    of definite photon number.

    This is the oracle every closed form is tested against.  A block state
    of solve_block has the slot photon numbers (k-2, k-1, k-1, k);
    displaced-sector phases come from model.solve_sectors as
    2 pi photon_numbers.
    """
    c = np.asarray(coefficients, dtype=float)
    ns = np.asarray(photon_numbers, dtype=float)
    norm = float(np.sum(c * c))
    if abs(norm - 1.0) > 1e-10:
        raise NotNormalized(f"state norm^2 = {norm!r}")
    return TWO_PI * float(np.sum(ns * c * c))


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def berry_phase_jc(params: RabiParams, k: int, branch: str) -> float:
    """Closed-form JC Berry phase: plus branch pi(1-cos theta_k) + 2 pi (k-1),
    minus branch -pi(1-cos theta_k) + 2 pi k."""
    if branch not in ("+", "-"):
        raise LabelError(f"unknown JC branch {branch!r}")
    if k == 0:
        return 0.0
    theta = model.spectral_angles(params, k).theta_k
    swing = math.pi * (1.0 - math.cos(theta))
    if branch == "+":
        return swing + TWO_PI * (k - 1)
    return -swing + TWO_PI * k


def berry_phase_block_closed_form(k: int, coeffs) -> np.ndarray:
    """Closed-form phases of the levels of two-qubit block k, one per column
    of the (4, n) ``coeffs`` on (a, b, c, d) returned by model.solve_block.

    With s_k = d^2 - a^2 and cos theta = 1 - 2 |s_k|, the phase is
    sgn(s_k) pi (1 - cos theta) plus the winding 2 pi (k - 1).  For k = 1
    (a = 0) this is pi (1 - cos theta) with cos theta = 1 - 2 d^2, and the
    k = 0 ground state (d = 1) gets 0.
    """
    a, _, _, d = np.asarray(coeffs, dtype=float)
    s = d * d - a * a
    cos_theta = 1.0 - 2.0 * np.abs(s)
    return np.sign(s) * math.pi * (1.0 - cos_theta) + TWO_PI * (k - 1)


def berry_phase_two_qubit(params: RabiParams, k: int, l: int) -> float:
    """Closed-form two-qubit Berry phase of level l (ascending) in block k."""
    _, coeffs = model.solve_block(params, k)
    if not 1 <= l <= coeffs.shape[1]:
        raise LabelError(f"block k={k} has no level l={l}")
    return float(berry_phase_block_closed_form(k, coeffs)[l - 1])


def berry_phase_equal_frequency(params: RabiParams, l: int) -> float:
    """k = 1 phases for identical qubit frequencies: 0, pi(1 -/+ ... )."""
    cos_theta = math.cos(model.equal_frequency_angles(params)[0])
    if l == 1:
        return 0.0
    if l == 2:
        return math.pi * (1.0 - cos_theta)
    if l == 3:
        return math.pi * (1.0 + cos_theta)
    raise LabelError(f"equal-frequency k=1 has levels l=1..3, got {l}")


def berry_phase_adiabatic(params: RabiParams, n: int, kappa: int,
                          branch: int) -> float:
    """Adiabatic-approximation phase pi(1 - cos theta) + 2 n pi with
    theta = 2 arcsin sqrt(beta1^2 d1^2 + beta2^2 d2^2)."""
    sols = model.adiabatic_eigensystem(params, n, kappa)
    sol = sols[0] if branch == +1 else sols[1]
    beta1, beta2 = (float(b[0]) for b in model.displacements([params]))
    arg = beta1**2 * sol.d1n**2 + beta2**2 * sol.d2n**2
    theta = 2.0 * math.asin(min(1.0, math.sqrt(arg)))
    return math.pi * (1.0 - math.cos(theta)) + TWO_PI * n


def berry_phase_exceptional(q: float) -> float:
    """Exact phase of the one-photon exceptional states,
    cos theta = (1 - 2 q^2) / (1 + 2 q^2)."""
    cos_theta = (1.0 - 2.0 * q * q) / (1.0 + 2.0 * q * q)
    return math.pi * (1.0 - cos_theta)


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
        # levels ascend as minus, plus on {|1,0>, |0,1>}; |0,1> carries the
        # photon
        H, photons, _ = model.k1_block(RabiParams.jc(delta, g1))
        _, vectors = numerics.eigh(H)
        nbar = photons @ vectors**2
        if label == "noneigen_jc":
            # |1, 0> has the weight vectors[0]^2 on each level
            return float(vectors[0] ** 2 @ nbar)
        return float(nbar[("jc_minus", "jc_plus").index(label)])
    ang = model.spectral_angles(params, 1)
    r = ang.big_theta_1 / 2.0
    delta = 2.0 * r * math.cos(theta)
    gtot = r * math.sin(theta)
    pars = RabiParams.equal_frequency(delta, gtot * math.cos(ang.alpha),
                                      gtot * math.sin(ang.alpha))
    # levels ascend as Psi3, Psi1, Psi2; |00,1> (slot d) carries the photon
    _, (_, b, _, d) = model.solve_block(pars, 1)
    nbar = d * d
    if label == "noneigen_two_qubit":
        # |10, 0> has the weight b^2 on each level
        return float((b * b) @ nbar)
    order = ("two_qubit_3", "two_qubit_1", "two_qubit_2")
    return float(nbar[order.index(label)])


def connection_field(params: RabiParams, state_label: str, thetas,
                     verify: bool = True) -> np.ndarray:
    """Berry connection A_phi(theta) along a theta grid, in the paper gauge.

    A_theta vanishes identically in this gauge, and A_phi does not depend on
    phi.  With verify=True each analytic A_phi is checked against <a^dag a>
    of the eigenstates reconstructed at parameters realizing that polar
    angle; a mismatch beyond 1e-10 raises, since it would invalidate every
    phase downstream.
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
    return a_phi


def curvature_from_connection(thetas, a_phi) -> np.ndarray:
    """F_theta_phi = dA_phi/dtheta by central differences on a uniform grid.

    In the gauge used here A_phi does not depend on phi, so the second term of
    the curl vanishes identically.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.size < 3:
        raise ValueError("need at least three samples")
    spacing = np.diff(thetas)
    if not np.allclose(spacing, spacing[0], rtol=1e-9, atol=1e-15):
        raise ValueError("theta grid must be uniform")
    if spacing[0] > 1e-2:
        warnings.warn(f"theta spacing {spacing[0]:.3e} exceeds 1e-2; curvature "
                      "accuracy degraded", AccuracyWarning, stacklevel=2)
    return np.gradient(np.asarray(a_phi, dtype=float), thetas, edge_order=2)


def phase_by_surface_integral(thetas, F) -> float:
    """Stokes integral 2 pi int_0^theta F dtheta' of a phi-independent curvature.

    Yields the winding-free part of the Berry phase for the cap bounded by the
    loop at the largest sampled polar angle; families whose gauge is regular at
    the south pole pick up an extra 2 pi per enclosed monopole, accounted for
    by the caller.
    """
    return TWO_PI * numerics.trapezoid_integral(thetas, F)


_RADIAL_LABELS = ("eigen_jc", "eigen_two_qubit", "noneigen_jc",
                  "noneigen_two_qubit")


def radial_field(state_label: str, thetas) -> np.ndarray:
    """Radial curvature field on the unit parameter sphere, peak-normalized.

    The field does not depend on phi.  Eigenstate fields are monopole-like
    and constant over the sphere; the vacuum-start noneigenstate fields carry
    the extra factor cos(theta), which vanishes on the equator and points
    inward on the southern hemisphere.
    """
    if state_label not in _RADIAL_LABELS:
        raise LabelError(f"unknown radial field label {state_label!r}")
    thetas = np.asarray(thetas, dtype=float)
    if state_label.startswith("eigen"):
        return np.ones_like(thetas)
    return np.cos(thetas)


# ---------------------------------------------------------------------------
# Noneigenstate geometric phases
# ---------------------------------------------------------------------------

def noneigen_geometric_phase(weights, gammas) -> float:
    """Statistical average of eigenstate Berry phases, weighted by populations."""
    w = np.asarray(weights, dtype=float)
    g = np.asarray(gammas, dtype=float)
    total = float(np.sum(w))
    if abs(total - 1.0) > 1e-10:
        raise WeightError(f"weights sum to {total!r}, expected 1")
    return float(np.sum(w * g))


def vacuum_phase_jc(params: RabiParams) -> float:
    """Vacuum-induced geometric phase of |1,0>: pi (1 - cos 2 theta_1) / 2."""
    theta = model.spectral_angles(params, 1).theta_k
    return 0.5 * math.pi * (1.0 - math.cos(2.0 * theta))


def vacuum_phase_two_qubit(params: RabiParams) -> float:
    """Vacuum-induced geometric phase of |10,0> under the RWA
    (identical qubit frequencies): pi cos^2(alpha) (1 - cos 2 theta) / 2."""
    theta, alpha, _ = model.equal_frequency_angles(params)
    return 0.5 * math.pi * math.cos(alpha) ** 2 * (1.0 - math.cos(2.0 * theta))


def noneigen_curvature_two_qubit(params: RabiParams) -> float:
    """Geometric curvature of |10,0>: sin(2 theta) cos^2(alpha) / 2."""
    theta, alpha, _ = model.equal_frequency_angles(params)
    return 0.5 * math.sin(2.0 * theta) * math.cos(alpha) ** 2


def _check_weight_total(total: float) -> None:
    if abs(total - 1.0) > 1e-8:
        raise WeightError(f"vacuum-state weights sum to {total!r}; "
                          "truncation too small")


def noneigen_phase_beyond_rwa(params: RabiParams,
                              M: int = 50) -> tuple[float, float]:
    """Weighted Berry-phase sum for the initial state |10,0> beyond the RWA,
    returned with the sum of the weights.

    Expands |10,0> over the eigenstates of the odd parity sector truncated at
    M (its even-sector overlaps vanish) and sums their Berry phases with the
    squared overlaps as weights, state by state; weights below WEIGHT_FLOOR
    are dropped.  Sweeps use noneigen_phases_beyond_rwa, which agrees with
    this to rounding; the bisection of locate_phase_jump compares this one's
    last bits.
    """
    if M < 10:
        raise ValueError("basis truncation M must be at least 10")
    mp1 = M + 1
    nop = model.sector_number_operator(params, M)
    _, vectors = numerics.eigh(model.sector_hamiltonian([params], M, -1))
    # the plain vacuum expands over each displaced ladder through <n|D(beta)|0>
    # (strided columns kept: with model._vacuum_overlaps' equal arrays
    # d1 @ col1 sums in another order and moves the bisection's last bits)
    col1, col2 = model.displacement_matrix(
        mp1, np.concatenate(model.displacements([params])))[:, :, 0]
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    gamma = 0.0
    total = 0.0
    for v in vectors[0].T:
        d1, d2 = inv_sqrt2 * v[:mp1], inv_sqrt2 * v[mp1:]
        amp = float(d1 @ col1 - d2 @ col2)
        w = amp * amp
        if w < WEIGHT_FLOOR:
            continue
        c = math.sqrt(2.0) * np.concatenate([d1, d2])
        gamma += w * TWO_PI * float(c @ nop @ c)
        total += w
    _check_weight_total(total)
    return gamma, total


def noneigen_phases_beyond_rwa(odd: SectorSolution,
                               ) -> tuple[np.ndarray, np.ndarray]:
    """noneigen_phase_beyond_rwa at every point of a solved odd sector: the
    arrays (gammas, weight_totals), one entry per point."""
    if odd.kappa != -1:
        raise ValueError("|10,0> has odd parity; pass the kappa = -1 sector")
    weights = np.where(odd.vacuum_weights >= WEIGHT_FLOOR,
                       odd.vacuum_weights, 0.0)
    totals = np.sum(weights, axis=1)
    gammas = np.sum(weights * TWO_PI * odd.photon_numbers, axis=1)
    for total in totals:
        _check_weight_total(float(total))
    return gammas, totals


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
    NoAnticrossing when the bracketed minimum sits on the range boundary or
    ties with a neighbour on the coarse grid, and also when the refined gap
    closes completely: under the RWA levels of different excitation number
    cross exactly and the driving cannot connect them, so there is no
    anti-crossing to report.  Raises ValueError, before any solve, for
    n_levels < 2 and for a level_pair that is not two adjacent levels among
    the n_levels lowest.

    Beyond the RWA the search reads only energies, so the coarse scan and
    every golden-section step take model.sector_energies (eigenvalues only),
    which hands a point to model.solve_sectors just when a solved state
    could be a singlet; the one eigenvector solve is the whole-sector
    numerics.eigh of _adiabaticity_ratio at the refined g_star.
    """
    if n_scan < 200:
        raise ValueError("n_scan must be at least 200")
    if n_levels < 2:
        raise ValueError(f"n_levels = {n_levels}: need at least two levels "
                         "to have a gap")
    if level_pair is not None:
        lo, hi = level_pair
        if hi != lo + 1:
            raise ValueError("level_pair must be adjacent levels (i, i+1)")
        if not 0 <= lo < hi < n_levels:
            raise ValueError(f"level_pair {tuple(level_pair)}: need levels "
                             f"0 <= i < i + 1 < n_levels = {n_levels}")
    gs = np.linspace(g_min, g_max, n_scan)

    def levels(g_values) -> np.ndarray:
        params_list = [params_of_g(float(g)) for g in g_values]
        if rwa:
            return np.array([model.rwa_parity_levels(pars, kappa, n_levels,
                                                     drop_singlets)
                             for pars in params_list])
        energies, singlet = model.sector_energies(params_list, M, kappa)
        return np.array([e[~(s & drop_singlets)][:n_levels]
                         for e, s in zip(energies, singlet)])

    table = levels(gs)
    gaps = np.diff(table, axis=1)
    if level_pair is None:
        flat = np.argmin(gaps)
        i_coarse, pair_lo = np.unravel_index(flat, gaps.shape)
        pair = (int(pair_lo), int(pair_lo) + 1)
    else:
        pair = level_pair
        i_coarse = int(np.argmin(gaps[:, pair[0]]))
    gap_curve = gaps[:, pair[0]]
    if i_coarse == 0 or i_coarse == n_scan - 1:
        raise NoAnticrossing(
            f"gap of levels {pair} is monotone over [{g_min}, {g_max}]")
    fa, fb, fc = gap_curve[i_coarse - 1:i_coarse + 2]
    if not (fb < fa and fb < fc):
        raise NoAnticrossing(
            f"gap of levels {pair} is flat at its minimum near "
            f"g = {gs[i_coarse]:.6f}; no strict bracket to refine")

    def gap_at(g: float) -> float:
        e = levels([g])[0]
        return float(e[pair[1]] - e[pair[0]])

    g_star, min_gap = map(float, _golden(gap_at,
                                         *gs[i_coarse - 1:i_coarse + 2]))
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


def _golden(f, xa: float, xb: float, xc: float, xtol: float = 1e-7,
            maxiter: int = 5000) -> tuple[float, float]:
    """Golden-section minimum (x, f(x)) of f inside the bracket xa < xb < xc.

    Repeats SciPy's golden-section method (``method="golden"``) step for
    step: its rounded ratio 0.61803399, first interior point on the wider
    side of xb, relative stop test, 5000-step cap and final pick, so the
    result is bit-identical to it.  The caller checks f(xb) < f(xa), f(xc).
    """
    gR = 0.61803399
    gC = 1.0 - gR
    x0, x3 = xa, xc
    if abs(xc - xb) > abs(xb - xa):
        x1, x2 = xb, xb + gC * (xc - xb)
    else:
        x1, x2 = xb - gC * (xb - xa), xb
    f1, f2 = f(x1), f(x2)
    for _ in range(maxiter):
        if abs(x3 - x0) <= xtol * (abs(x1) + abs(x2)):
            break
        if f2 < f1:
            x0, x1, f1 = x1, x2, f2
            x2 = gR * x1 + gC * x3
            f2 = f(x2)
        else:
            x3, x2, f2 = x2, x1, f1
            x1 = gR * x2 + gC * x0
            f1 = f(x1)
    return (x1, f1) if f1 < f2 else (x2, f2)


@dataclass(frozen=True)
class PhaseJump:
    """Steepest-change point of a swept geometric phase."""

    g_jump: float
    jump_size: float      # |gamma change| across the final bracket
    max_slope: float      # |d gamma / d g| estimate at the located point
    on_edge: bool         # coarse steepest step is the first or last interval


def locate_phase_jump(params_of_g, g_min: float, g_max: float,
                      n_scan: int = 61, n_refine: int = 24,
                      M: int = 50) -> PhaseJump:
    """Locate the sharpest change of the beyond-RWA noneigenstate phase.

    Scans gamma(g) on a coarse grid, then bisects the interval of largest
    change.  A true discontinuity keeps a finite ``jump_size`` as the bracket
    shrinks; a steep but smooth crossover refines to jump_size near zero while
    ``g_jump`` converges to the point of maximal slope.  ``on_edge`` flags a
    steepest coarse step at the window's edge, where the change may go on.
    """
    def gamma_at(g: float) -> float:
        return noneigen_phase_beyond_rwa(params_of_g(float(g)), M)[0]

    gs = np.linspace(g_min, g_max, n_scan)
    odd = model.solve_sectors([params_of_g(float(g)) for g in gs], M, -1)
    vals = noneigen_phases_beyond_rwa(odd)[0]
    i = int(np.argmax(np.abs(np.diff(vals))))
    on_edge = i in (0, n_scan - 2)
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
    return PhaseJump(0.5 * (lo + hi), abs(vhi - vlo), slope, on_edge)


def _adiabaticity_ratio(params: RabiParams, kappa: int, pair: tuple[int, int],
                        M: int, drop_singlets: bool) -> float:
    """Proxy |<n| dH/dphi |m>| / (E_n - E_m)^2 per unit loop rate.

    For the phase-shift driving the numerator is |(E_m - E_n) <n|a^dag a|m>|,
    so the ratio reduces to |<n|a^dag a|m> / (E_n - E_m)|.
    """
    values, vectors = numerics.eigh(
        model.sector_hamiltonian([params], M, kappa))
    singlet = model._sector_singlets([params], values, vectors, kappa)[0]
    kept = np.flatnonzero(~(singlet & drop_singlets))
    a, b = kept[pair[0]], kept[pair[1]]
    gap = float(values[0, b] - values[0, a])
    if gap == 0.0:
        return math.inf
    nop = model.sector_number_operator(params, M)
    return abs(float(vectors[0, :, a] @ nop @ vectors[0, :, b]) / gap)
