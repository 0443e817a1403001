"""Hamiltonians of the one- and two-qubit quantum Rabi model, with and without RWA.

Covers the Jaynes-Cummings closed forms, the excitation-number blocks of the
two-qubit RWA Hamiltonian with the closed-form angles of their
equal-frequency k = 1 block, the beyond-RWA parity sectors in plain Fock that
every sweep solves (the library's one plain-Fock Hamiltonian), the
displaced-Fock overlaps with the adiabatic (level-diagonal) approximation and
the displaced sector of the phase-jump bisection, and the exceptional exact
eigenstates.
Spin singlets exist for identical qubits only, which means exactly equal
frequencies and couplings (RabiParams.identical_qubits), and are known
before any solve: the S_n rows of a parity sector where kappa (-1)^n = -1,
and the level at (k - 1) omega_c of each RWA excitation block k >= 1.

Conventions: omega_c = 1 fixes the unit of energy; the detuning is
Delta = omega1 - omega_c throughout.  Qubit basis states |1> (upper) and |0>
(lower) are eigenstates of sigma^z; two-qubit labels are |q1 q2>.
"""

import functools
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import numerics

EQ_TOL = 1e-12


class NotJCReduction(ValueError):
    """Parameters do not describe the single-qubit (JC) reduction."""


class NotEqualFrequency(ValueError):
    """Operation requires omega1 == omega2."""


@dataclass(frozen=True)
class RabiParams:
    """Physical parameters, all in units of the field frequency omega_c."""

    omega1: float
    omega2: float = 0.0
    g1: float = 0.0
    g2: float = 0.0
    omega_c: float = 1.0

    def __post_init__(self):
        vals = (self.omega1, self.omega2, self.g1, self.g2, self.omega_c)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("parameters must be finite")
        if self.omega_c <= 0.0:
            raise ValueError("omega_c must be positive")
        if self.g1 < 0.0 or self.g2 < 0.0:
            raise ValueError("coupling strengths must be non-negative")

    @property
    def delta(self) -> float:
        return self.omega1 - self.omega_c

    @classmethod
    def jc(cls, delta: float, g1: float) -> "RabiParams":
        """Single-qubit parameters from detuning (qubit 2 removed)."""
        return cls(omega1=1.0 + delta, omega2=0.0, g1=g1, g2=0.0)

    @classmethod
    def equal_frequency(cls, delta: float, g1: float, g2: float) -> "RabiParams":
        """Two identical-frequency qubits, omega1 = omega2 = omega_c + delta."""
        return cls(omega1=1.0 + delta, omega2=1.0 + delta, g1=g1, g2=g2)

    def is_jc(self) -> bool:
        return self.omega2 == 0.0 and self.g2 == 0.0

    def identical_qubits(self) -> bool:
        """Exactly equal qubit frequencies and couplings, the condition for
        the spin singlets (|10,n> - |01,n>)/sqrt(2)."""
        return self.omega1 == self.omega2 and self.g1 == self.g2


@dataclass(frozen=True)
class SpectralAngles:
    """Rabi frequencies and mixing angles of the k-th excitation block."""

    omega_k: float    # sqrt(Delta^2 + 4 g1^2 k), single-qubit ladder
    theta_k: float    # arccos(Delta / Omega_k)
    big_theta_1: float  # sqrt(Delta^2 + 4 (g1^2 + g2^2))
    alpha: float      # coupling angle, cos(alpha) = g1 / sqrt(g1^2 + g2^2)


def spectral_angles(params: RabiParams, k: int) -> SpectralAngles:
    if k < 0:
        raise ValueError("k must be non-negative")
    delta = params.delta
    omega_k = math.sqrt(delta**2 + 4.0 * params.g1**2 * k)
    if omega_k > 0.0:
        theta_k = math.acos(min(1.0, max(-1.0, delta / omega_k)))
    else:
        theta_k = 0.0
    gsq = params.g1**2 + params.g2**2
    big_theta_1 = math.sqrt(delta**2 + 4.0 * gsq)
    alpha = math.atan2(params.g2, params.g1) if gsq > 0.0 else 0.0
    return SpectralAngles(omega_k, theta_k, big_theta_1, alpha)


# ---------------------------------------------------------------------------
# Jaynes-Cummings closed forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JCEigensystem:
    """Energies and eigenvectors of one JC excitation doublet.

    States live on the basis {|1, k-1>, |0, k>}; for k = 0 the block is the
    one-dimensional ground state |0, 0> with energy -omega1/2.
    """

    k: int
    omega_k: float
    theta_k: float
    e_plus: float
    e_minus: float
    state_plus: np.ndarray
    state_minus: np.ndarray


def jc_eigensystem(params: RabiParams, k: int) -> JCEigensystem:
    """Closed-form eigensystem of the JC model in the k-excitation block."""
    if not params.is_jc():
        raise NotJCReduction("jc_eigensystem requires omega2 = 0 and g2 = 0")
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        e0 = -params.omega1 / 2.0
        one = np.array([1.0])
        return JCEigensystem(0, 0.0, 0.0, e0, e0, one, one)
    ang = spectral_angles(params, k)
    half = ang.theta_k / 2.0
    e_mid = params.omega_c * (k - 0.5)
    plus = np.array([math.cos(half), math.sin(half)])
    minus = np.array([math.sin(half), -math.cos(half)])
    return JCEigensystem(k, ang.omega_k, ang.theta_k,
                         e_mid + ang.omega_k / 2.0, e_mid - ang.omega_k / 2.0,
                         plus, minus)


# ---------------------------------------------------------------------------
# Two-qubit RWA blocks
# ---------------------------------------------------------------------------

def build_block(params: RabiParams, k: int) -> np.ndarray:
    """Matrix of the two-qubit RWA Hamiltonian restricted to excitation number k.

    Block bases: k = 0: {|00,0>}; k = 1: {|10,0>, |01,0>, |00,1>};
    k >= 2: {|11,k-2>, |10,k-1>, |01,k-1>, |00,k>}.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    w1, w2, wc = params.omega1, params.omega2, params.omega_c
    g1, g2 = params.g1, params.g2
    if k == 0:
        return np.array([[-(w1 + w2) / 2.0]])
    if k == 1:
        return np.array([
            [(w1 - w2) / 2.0, 0.0, g1],
            [0.0, (-w1 + w2) / 2.0, g2],
            [g1, g2, wc - (w1 + w2) / 2.0],
        ])
    rkm1 = math.sqrt(k - 1.0)
    rk = math.sqrt(float(k))
    H = np.array([
        [-wc + (w1 + w2) / 2.0, g2 * rkm1, g1 * rkm1, 0.0],
        [g2 * rkm1, (w1 - w2) / 2.0, 0.0, g1 * rk],
        [g1 * rkm1, 0.0, (-w1 + w2) / 2.0, g2 * rk],
        [0.0, g1 * rk, g2 * rk, wc - (w1 + w2) / 2.0],
    ])
    H[np.diag_indices(4)] += (k - 1.0) * wc
    return H


def solve_block(params: RabiParams, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Energies (ascending) and coefficients of one excitation block.

    Column j of the (4, n) ``coeffs`` holds the coefficients (a, b, c, d) of
    level j on |11,k-2>, |10,k-1>, |01,k-1>, |00,k>.  Slots that do not exist
    for k <= 1 are zero, which keeps <a^dag a> = (k - 1) + d^2 - a^2 uniform
    in k.
    """
    values, vectors = numerics.eigh(build_block(params, k))
    return values, np.pad(vectors, ((4 - vectors.shape[0], 0), (0, 0)))


def k1_block(params: RabiParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Single-excitation block, its photon numbers, and the vacuum-start state.

    JC: basis {|1,0>, |0,1>}; two qubits: basis {|10,0>, |01,0>, |00,1>}.
    """
    if params.is_jc():
        w1, wc, g1 = params.omega1, params.omega_c, params.g1
        return (np.array([[w1 / 2.0, g1], [g1, wc - w1 / 2.0]]),
                np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    return (build_block(params, 1), np.array([0.0, 0.0, 1.0]),
            np.array([1.0, 0.0, 0.0]))


def equal_frequency_angles(params: RabiParams) -> tuple[float, float, float]:
    """(theta_1_2, alpha, big_theta_1) of the k = 1 block for omega1 = omega2.

    The block holds the dark state Psi1 = sin(alpha)|10,0> - cos(alpha)|01,0>
    at energy 0 and the bright doublet Psi2, Psi3 at energies
    (-Delta +/- big_theta_1)/2, which mixes cos(alpha)|10,0> + sin(alpha)|01,0>
    with |00,1> at the angle theta_1_2; cos(alpha) = g1 / sqrt(g1^2 + g2^2).
    solve_block(params, 1) gives the states numerically, ascending in energy
    as Psi3, Psi1, Psi2.
    """
    if abs(params.omega1 - params.omega2) > EQ_TOL:
        raise NotEqualFrequency("the equal-frequency closed forms require "
                                "omega1 == omega2")
    ang = spectral_angles(params, 1)
    big = ang.big_theta_1
    if big > 0.0:
        theta = math.acos(min(1.0, max(-1.0, params.delta / big)))
    else:
        theta = 0.0
    return theta, ang.alpha, big


# ---------------------------------------------------------------------------
# Displaced Fock states
# ---------------------------------------------------------------------------

class OverlapOverflow(ValueError):
    """A displaced-Fock overlap is not finite in double precision."""


# _lgam, _gamma, _binomials and _genlaguerre repeat SciPy 1.17's arithmetic
# (cephes lgam, Gamma and beta, binom, eval_genlaguerre) step for step, so
# the overlaps equal, bit for bit, the formula evaluated with scipy.special.
_LGAM_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4,
           7.93650340457716943945E-4, -2.77777777730099687205E-3,
           8.33333333333331927722E-2)
_STIR = (7.87311395793093628397E-4, -2.29549961613378126380E-4,
         -2.68132617805781232825E-3, 3.47222221605458667310E-3,
         8.33333333333482257126E-2)


def _lgam(k: int) -> float:
    """cephes lgam (scipy.special.gammaln) at a positive integer k."""
    if k < 13:
        return math.log(float(math.factorial(k - 1)))
    x = float(k)
    q = (x - 0.5) * math.log(x) - x + 0.91893853320467274178
    p = 1.0 / (x * x)
    coef = _LGAM_A if x < 1000.0 else (7.9365079365079365079365e-4,
                                       -2.7777777777777777777778e-3,
                                       0.0833333333333333333333)
    return q + functools.reduce(lambda acc, c: acc * p + c, coef) / x


def _gamma(k: int) -> float:
    """cephes Gamma at a positive integer k < 171.62: the product
    (k-1)(k-2)...2 taken downwards up to 33, Stirling's formula above."""
    if k <= 33:
        return math.prod(range(k - 1, 1, -1), start=1.0)
    x, t = float(k), 1.0 / k
    w = 1.0 + t * functools.reduce(lambda acc, c: acc * t + c, _STIR)
    if x > 143.01608:   # x^(x - 1/2) would overflow
        v = math.pow(x, 0.5 * x - 0.25)
        return 2.50662827463100050242 * (v * (v / math.exp(x))) * w
    return 2.50662827463100050242 * (math.pow(x, x - 0.5) / math.exp(x)) * w


@functools.lru_cache(maxsize=None)
def _log_factorials(size: int) -> np.ndarray:
    """log k! for k <= size, as scipy.special.gammaln(k + 1)."""
    return np.array([_lgam(k) for k in range(1, size + 2)])


@functools.lru_cache(maxsize=None)
def _binomials(size: int) -> np.ndarray:
    """binom(n + a, n) at [n, a] for n + a < size (0 elsewhere), as
    scipy.special.binom: for k = min(n, a) < 20 a product of k factors,
    rescaled once past 1e50, else 1/(m+1)/beta(1+a, 1+n) with m = n + a,
    cephes beta being Gamma(hi) (1/Gamma(m+2)) Gamma(lo) up to m + 2 = 171.62
    and exp(lgam(hi) + (lgam(lo) - lgam(m+2))) beyond."""
    n, a = np.indices((size, size))
    m, k, hi = n + a, np.minimum(n, a), np.maximum(n, a) + 1
    table = np.zeros((size, size))
    prod = (m < size) & (k < 20)
    num, den, mp, kp = 1.0, 1.0, m[prod].astype(float), k[prod]
    for i in range(1, 20):
        on = i <= kp
        num = np.where(on, num * ((i + mp) - kp), num)
        den = np.where(on, den * i, den)
        big = on & (np.abs(num) > 1e50)
        num, den = np.where(big, num / den, num), np.where(big, 1.0, den)
    table[prod] = num / den
    near = (m < size) & (k >= 20) & (m + 2 <= 171.624376956302725)
    gam = np.array([_gamma(j) for j in range(min(size, 170) + 2)])
    table[near] = 1.0 / (m[near] + 1.0) / (
        gam[hi[near]] * (1.0 / gam[m[near] + 2]) * gam[k[near] + 1])
    far = (m < size) & (k >= 20) & ~near
    lf = _log_factorials(size)
    logs = lf[hi[far] - 1] + (lf[k[far]] - lf[m[far] + 1])
    beta = np.array([math.exp(v) for v in logs.tolist()])
    with np.errstate(all="ignore"):   # binom overflows from m = 1030
        table[far] = 1.0 / (m[far] + 1.0) / beta
    return table


def _genlaguerre(x: np.ndarray, size: int) -> np.ndarray:
    """L_n^(a)(x) at [n, a, i] for n + a < size (others unset), size >= 3, as
    scipy.special.eval_genlaguerre at integer n: 1 at n = 0, -x + a + 1 at
    n = 1, and binom(n + a, n) p_n from n = 2 on, where SciPy's recurrence
    for p_n depends on (a, x) only and so runs once for every degree."""
    a, negx = np.arange(size, dtype=float)[:, None], -x
    k = np.arange(1.0, size - 1.0)[:, None, None]
    K = (k + a) + 1.0
    c, e = negx / K, k / K
    d = negx / (a + 1.0)
    L = np.empty((size, size, x.size))
    p = L[1:]   # p_n at row n - 1
    p[0] = d + 1.0
    # whole rows: the entries at a >= size - n are computed and not used
    for cj, ej, pj, pn in zip(c, e, p[:-1], p[1:]):
        d *= ej
        d += cj * pj
        np.add(d, pj, out=pn)
    L[2:] *= _binomials(size)[2:, :, None]
    L[0], L[1] = 1.0, (negx + a) + 1.0
    return L


@functools.lru_cache(maxsize=None)
def _triangle(size: int) -> tuple:
    """The lower triangle m >= n of a size x size matrix in np.tril_indices
    order: m, n, (-1)^(m-n) and 0.5 (log n! - log m!)."""
    m, n = np.tril_indices(size)
    lf = _log_factorials(size)
    return m, n, (-1.0) ** (m - n), 0.5 * (lf[n] - lf[m])


def _overlap_entries(d: np.ndarray, size: int,
                     column: bool = False) -> np.ndarray:
    """<m| D(d) |n> over _triangle(size), or its n = 0 entries only with
    ``column``, one row per nonzero displacement in ``d``.

    This is the package's one displaced-Fock overlap formula:
    sqrt(n!/m!) d^(m-n) e^(-d^2/2) L_n^(m-n)(d^2), its prefactor taken in log
    space.  Each entry equals, bit for bit, the formula evaluated with
    scipy.special.gammaln and eval_genlaguerre (SciPy 1.17); the tests check
    sizes up to 201, |d| up to 20 and every branch of the binomial.  Entries
    that overflow come out inf or nan, without a warning."""
    tri = _triangle(size)
    m, n, alt, half = (t[tri[1] == 0] for t in tri) if column else tri
    d = d[:, None]
    x = d * d
    with np.errstate(all="ignore"):
        logpref = half + (m - n) * np.log(np.abs(d)) - x / 2.0
        laguerre = (1.0 if column else
                    _genlaguerre(x[:, 0], max(size, 3))[n, m - n].T)
        return np.where(d < 0.0, alt, 1.0) * np.exp(logpref) * laguerre


def displacement_matrix(size: int, delta) -> np.ndarray:
    """Dense matrix of <m| D(delta) |n> for m, n < size (vectorized evaluation).

    ``delta`` is one displacement, giving a (size, size) matrix, or a 1-D
    array of them, giving a (len(delta), size, size) stack, each matrix
    evaluated as on its own.  A zero displacement gives the identity
    exactly.  Raises OverlapOverflow when an entry is not
    finite: e^(-d^2/2) underflows where L_n^(m-n)(d^2) overflows, from
    size 183 at displacement 60 and size 287 at displacement 40, and at
    every displacement from size 1031, where binom(m, n) overflows.
    """
    if size < 1:
        raise ValueError("size must be positive")
    d = np.asarray(delta, dtype=float).reshape(-1)
    D = np.empty((d.size, size, size))
    moved = d != 0.0
    D[~moved] = np.eye(size)
    if np.any(moved):
        lower = _overlap_entries(d[moved], size)
        bad = ~np.all(np.isfinite(lower), axis=1)
        if np.any(bad):
            raise OverlapOverflow(
                f"displaced-Fock overlap not finite at size {size}, "
                f"displacement {float(d[moved][bad][0])!r}; lower the "
                "truncation")
        m, n, alt, _ = _triangle(size)
        at = np.flatnonzero(moved)[:, None]
        D[at, m, n] = lower
        D[at, n, m] = alt * lower
    return D.reshape(np.shape(delta) + (size, size))


def _vacuum_overlaps(size: int, deltas) -> np.ndarray:
    """<m| D(delta) |0> for m < size, one row per displacement.

    Equal, bit for bit, to displacement_matrix(size, deltas)[:, :, 0], without
    forming the matrices; L_0 = 1, so no recurrence runs.
    """
    d = np.asarray(deltas, dtype=float)
    cols = np.zeros((d.size, size))
    cols[:, 0] = 1.0
    moved = d != 0.0
    if np.any(moved):
        cols[moved] = _overlap_entries(d[moved], size, column=True)
    return cols


def displacements(params_list: Sequence[RabiParams],
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Displacements (beta1, beta2) of the displaced-Fock ladders, one entry
    per parameter point.

    The ladders pair with the qubit configurations of the frame in which the
    couplings are diagonal: beta1 = (g1+g2)/omega_c for |11>/|00> (the |00>
    ladder at -beta1) and beta2 = (g1-g2)/omega_c for |10>/|01> (|01> at
    -beta2).
    """
    g1 = np.array([p.g1 for p in params_list])
    g2 = np.array([p.g2 for p in params_list])
    wc = np.array([p.omega_c for p in params_list])
    return (g1 + g2) / wc, (g1 - g2) / wc


@dataclass(frozen=True)
class AdiabaticSolution:
    """One level-diagonal (adiabatic) beyond-RWA eigenstate."""

    kappa: int
    n: int
    branch: int        # +1 or -1
    energy: float
    d1n: float
    d2n: float
    mu: float
    omega_n_kappa: float


def adiabatic_eigensystem(params: RabiParams, n: int, kappa: int,
                          ) -> tuple[AdiabaticSolution, AdiabaticSolution]:
    """Both branches of the adiabatic approximation at displaced level n.

    Valid for qubit frequencies well below omega_c and couplings up to about
    0.02 omega_c; inter-level couplings are dropped so each n yields a 2x2
    problem in the parity-symmetrized displaced basis.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if kappa not in (1, -1):
        raise ValueError("kappa must be +1 or -1")
    b1, b2 = (float(b[0]) for b in displacements([params]))
    wc = params.omega_c
    d_sum, d_diff = displacement_matrix(n + 1, [b1 + b2, b1 - b2])[:, n, n]
    omega = float(0.5 * params.omega1 * kappa * (-1.0) ** n * d_sum
                  + 0.5 * params.omega2 * d_diff)
    mu = math.sqrt(omega**2 + wc**2 * (b1**2 - b2**2) ** 2 / 4.0)
    center = n * wc - (b1**2 + b2**2) * wc / 2.0
    out = []
    for branch in (+1, -1):
        denom = (b2**2 - b1**2) * wc / 2.0 - branch * mu
        if abs(denom) < 1e-14:
            # removable 2x2 singularity: the branch is a pure |11>/|00>-type state
            d1, d2 = 1.0, 0.0
        else:
            xi = omega / denom
            norm = 1.0 / math.sqrt(1.0 + xi * xi)
            d1, d2 = xi * norm, -norm
        out.append(AdiabaticSolution(kappa, n, branch, center + branch * mu,
                                     d1, d2, mu, omega))
    return out[0], out[1]


def _displaced_sector(params_list: Sequence[RabiParams], M: int,
                      kappa: int) -> np.ndarray:
    """The parity-kappa sector of sector_hamiltonian in the displaced-Fock
    basis, for the bisection of geometry.noneigen_phase_beyond_rwa and as
    the tests' second basis.

    Each ladder is displaced by its ``displacements`` and truncated at level
    M: rows n and M+1+n hold the |11>/|00>-type and |10>/|01>-type states
    of displaced level n.  Both diagonal blocks are diagonal; they couple
    through B[m, n] = omega1/2 * kappa (-1)^n <m|D(beta1+beta2)|n>
    + omega2/2 * <m|D(beta1-beta2)|n>, i.e. the flip of qubit j is dressed
    by the displaced-Fock overlap at displacement 2 g_j / omega_c.  Each
    distinct displacement of the points goes to displacement_matrix once.
    """
    if kappa not in (1, -1):
        raise ValueError("kappa must be +1 or -1")
    if not params_list:
        raise ValueError("need at least one parameter point")
    mp1 = M + 1
    P = len(params_list)
    w1 = np.array([p.omega1 for p in params_list])[:, None, None]
    w2 = np.array([p.omega2 for p in params_list])[:, None, None]
    wc = np.array([p.omega_c for p in params_list])[:, None]
    b1, b2 = displacements(params_list)
    d, index = np.unique(np.concatenate([b1 + b2, b1 - b2]),
                         return_inverse=True)
    D = displacement_matrix(mp1, d)
    ns = np.arange(mp1)
    # in place, each entry rounded as (w1/2 kappa D) (-1)^n + w2/2 D
    B = D[index[:P]]
    B *= 0.5 * w1 * kappa
    B *= (-1.0) ** ns
    B += 0.5 * w2 * D[index[P:]]
    S = np.zeros((P, 2 * mp1, 2 * mp1))
    i = np.arange(2 * mp1)
    S[:, i, i] = np.concatenate([ns * wc - b1[:, None]**2 * wc,
                                 ns * wc - b2[:, None]**2 * wc], axis=1)
    S[:, :mp1, mp1:] = B
    S[:, mp1:, :mp1] = np.swapaxes(B, 1, 2)
    return S


def sector_number_operator(params: RabiParams, M: int) -> np.ndarray:
    """Photon number operator a^dag a on the basis of _displaced_sector.

    Block diagonal: the displaced ladder contributes n + beta^2 on the
    diagonal and -beta sqrt(n+1) on the first off-diagonals.
    """
    beta1, beta2 = (float(b[0]) for b in displacements([params]))
    mp1 = M + 1
    ns = np.arange(mp1)
    off = np.sqrt(ns[:-1] + 1.0)

    def block(beta: float) -> np.ndarray:
        b = np.diag(ns + beta**2).astype(float)
        b[ns[:-1], ns[:-1] + 1] = -beta * off
        b[ns[:-1] + 1, ns[:-1]] = -beta * off
        return b

    N = np.zeros((2 * mp1, 2 * mp1))
    N[:mp1, :mp1] = block(beta1)
    N[mp1:, mp1:] = block(beta2)
    return N


# ---------------------------------------------------------------------------
# Parity sectors in plain Fock
# ---------------------------------------------------------------------------

def _sector_entries(params_list: Sequence[RabiParams], M: int, kappa: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sector_hamiltonian's entries: ``rows`` and ``cols``, shared by every
    point, and the (P, len(rows)) ``values``; the diagonal comes first, in
    row order, then each off-diagonal entry once in each orientation."""
    if kappa not in (1, -1):
        raise ValueError("kappa must be +1 or -1")
    if not params_list:
        raise ValueError("need at least one parameter point")
    mp1 = M + 1
    w1, w2, g1, g2, wc = (
        np.array([getattr(p, key) for p in params_list])[:, None]
        for key in ("omega1", "omega2", "g1", "g2", "omega_c"))
    ns = np.arange(mp1)
    pair = (-1) ** ns == kappa   # the levels that hold |11> and |00>
    i = np.arange(2 * mp1)
    t = np.flatnonzero(~pair)
    # level n and n + 1: a holds |11>, |00> and b holds T, S
    a = np.where(pair[:-1], ns[:-1], ns[1:])
    b = np.where(pair[:-1], ns[1:], ns[:-1])
    root = np.sqrt(ns[1:] / 2.0)
    # an overflowing parameter leaves non-finite entries, which numerics
    # rejects (InvalidMatrix) when the matrix is solved
    with np.errstate(over="ignore", invalid="ignore"):
        qubit = np.where(pair, 0.5 * (w1 + w2), 0.0)
        diagonal = np.concatenate([ns * wc + qubit, ns * wc - qubit], axis=1)
        split = np.repeat(0.5 * (w1 - w2), t.size, axis=1)
        plus, minus = (g1 + g2) * root, (g1 - g2) * root
    entries = ((i, i, diagonal), (t, mp1 + t, split), (mp1 + t, t, split),
               (a, b, plus), (b, a, plus), (mp1 + a, b, plus),
               (b, mp1 + a, plus), (a, mp1 + b, -minus), (mp1 + b, a, -minus),
               (mp1 + a, mp1 + b, minus), (mp1 + b, mp1 + a, minus))
    return tuple(np.concatenate(part, axis=-1) for part in zip(*entries))


def sector_hamiltonian(params_list: Sequence[RabiParams], M: int,
                       kappa: int) -> np.ndarray:
    """Beyond-RWA Hamiltonians of the parity-kappa sector in plain Fock.

    Entry p of the returned (P, 2(M+1), 2(M+1)) stack is the sector matrix of
    ``params_list[p]`` on photon levels n <= M.  Rows n and M+1+n hold level
    n: |11,n> and |00,n> where (-1)^n = kappa, otherwise T_n and S_n with
    T, S = (|10> +- |01>)/sqrt(2).  The T-S entry of a level is
    (omega1 - omega2)/2, and (a + a^dag) couples level n to n + 1 through
    (g1 + g2)/sqrt(2) (T with |11> and |00>) and +-(g1 - g2)/sqrt(2) (S), so
    for identical qubits (RabiParams.identical_qubits) every S row is zero
    off the diagonal: the spin singlets.  The solvers never build this
    stack: _sector_blocks scatters the same entries (_sector_entries) into
    the rows each batch solves.
    """
    rows, cols, values = _sector_entries(params_list, M, kappa)
    S = np.zeros((len(params_list), 2 * (M + 1), 2 * (M + 1)))
    S[:, rows, cols] = values
    return S


#: sweep points built and diagonalized together by solve_sectors and
#: sector_energies, one batch after another, so it sets how many blocks and
#: eigenvector sets are alive at once.  Each batch builds only its solved
#: rows, so 8 ran faster than 4; 16 was faster on fig3-fig5 only, and took
#: 1-2 MB more peak memory
SECTOR_BATCH = 8


@dataclass(frozen=True)
class SectorSolution:
    """One parity sector solved at every point of a sweep.

    Row p of each (P, 2(M+1)) array belongs to the p-th parameter point, its
    states in ascending energy; exactly tied energies (at g = 0 a spin
    singlet and the |11>/|00>-type state of its level) may come in either
    order.  ``singlet`` marks the spin singlets, which exist only at
    identical points.  Eigenvectors are not kept.
    """

    kappa: int
    energies: np.ndarray = field(repr=False)
    photon_numbers: np.ndarray = field(repr=False)   # <a^dag a> per state
    singlet: np.ndarray = field(repr=False)          # see _sector_blocks
    vacuum_weights: np.ndarray = field(repr=False)   # |<state|10,0>|^2
    residuals: np.ndarray = field(repr=False)        # see solve_sectors

    def kept(self, point: int, drop_singlets: bool = True) -> np.ndarray:
        """State indices of one point, ascending in energy, singlets skipped."""
        if drop_singlets:
            return np.flatnonzero(~self.singlet[point])
        return np.arange(self.energies.shape[1])


def solve_sectors(params_list: Sequence[RabiParams], M: int,
                  kappa: int) -> SectorSolution:
    """Solve the parity-kappa sector at every point, truncated at level M.

    This is the package's one sector solver: it solves sector_hamiltonian,
    in plain Fock, where <a^dag a> = sum_n n c_n^2 and the |10,0> weight of
    an odd-sector state is ((c_0 + c_(M+1))/sqrt(2))^2, from the rows of T_0
    and S_0.  Points are built SECTOR_BATCH at a time, each batch's block of
    solved rows straight from the matrix entries (_sector_blocks), in order
    in the calling thread (_map_batches); eigenvectors live only inside a
    batch, so one batch's eigenvectors are alive at a time.  At identical
    points each spin singlet S_n is an exact eigenvector at its diagonal
    entry n omega_c, so numerics.eigh solves only the other rows there; a
    point whose qubits differ is solved whole, exactly as a one-point call.

    No truncation warning is raised: ``residuals`` holds each state's
    truncation residual r = ||H c - E c||, its truncated vector c taken into
    the space of photons n <= M + 1.  All of H c - E c lies on level M + 1,
    where it is sqrt(M + 1) (g1 sigma1^x + g2 sigma2^x) c(M), c(M) being the
    qubit part of c on level M; a singlet's r is 0.  The eigensolver's own
    rounding inside the sector, of order eps ||H||, is not counted (about
    1e-14 at ||H|| = 19 for nearly identical qubits).  E is a Rayleigh-Ritz
    upper bound, and the running maximum of r over the states below bounds
    the energy error.
    """
    _check_sector_points(params_list, M)
    parts = _map_batches(_solve_batch, params_list, M, kappa)
    return SectorSolution(kappa, *(np.concatenate(a) for a in zip(*parts)))


def sector_energies(params_list: Sequence[RabiParams], M: int,
                    kappa: int) -> tuple[np.ndarray, np.ndarray]:
    """solve_sectors' (P, 2(M+1)) ascending energies and singlet mask, from
    eigenvalues alone: no eigenvector is formed.

    The rows solved are those of solve_sectors, by numerics.eigvalsh, so the
    energies agree with solve_sectors' to rounding.  The singlets are read
    from the parameters (_sector_blocks), before any solve, so the singlet
    masks, and so the kept states, are exactly those of solve_sectors.
    """
    _check_sector_points(params_list, M)
    parts = _map_batches(_energies_batch, params_list, M, kappa)
    energies, singlet = (np.concatenate(a) for a in zip(*parts))
    return energies, singlet


def _map_batches(solve, params_list: Sequence[RabiParams], M: int,
                 kappa: int) -> list:
    """``solve(batch, M, kappa)`` of every SECTOR_BATCH-point batch of
    ``params_list``, in batch order, in the calling thread.

    Each point's matrix is solved on the same rows whichever batch holds
    it, so the results do not depend on SECTOR_BATCH.  The first failing
    batch's error is raised, and no later batch is started.
    """
    return [solve(params_list[start:start + SECTOR_BATCH], M, kappa)
            for start in range(0, len(params_list), SECTOR_BATCH)]


#: bytes of physical memory, or None where os.sysconf cannot tell
PHYSICAL_MEMORY = (os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
                   if "SC_PHYS_PAGES" in getattr(os, "sysconf_names", {})
                   else None)


def _check_sector_points(params_list: Sequence[RabiParams], M: int) -> None:
    """ValueError for too short a truncation or no point, and MemoryError,
    before any array is built, when one batch's solved blocks, each at most
    a whole sector, may be larger than physical memory.  Batches are solved
    one at a time, so one batch is what is alive at once."""
    if M < 10:
        raise ValueError("basis truncation M must be at least 10")
    if not params_list:
        raise ValueError("need at least one parameter point")
    blocks = SECTOR_BATCH * (2 * (M + 1)) ** 2 * 8
    if PHYSICAL_MEMORY is not None and blocks > PHYSICAL_MEMORY:
        raise MemoryError(f"a batch of {SECTOR_BATCH} solved blocks at "
                          f"M = {M} may take {blocks / 2**30:.3g} GiB, over "
                          f"the {PHYSICAL_MEMORY / 2**30:.3g} GiB of memory")


def _sector_blocks(batch: Sequence[RabiParams], M: int, kappa: int) -> tuple:
    """The sector matrices of one batch, split for the eigensolve.

    Returns the (P, n) diagonals, the (P, n) singlet mask and at most two
    (members, keep, block): the points whose qubits differ, solved whole,
    and the identical points (RabiParams.identical_qubits) without their
    singlet rows.  The singlet rows are those of S_n, the second row of
    level n where kappa (-1)^n = -1: for identical qubits each is exactly
    zero off the diagonal, the singlet (|10,n> - |01,n>)/sqrt(2) at its
    diagonal entry n omega_c.  ``keep`` masks the solved rows, at least the
    M + 1 of the first half, and the block is
    sector_hamiltonian(...)[np.ix_(members, keep, keep)], read from
    _sector_entries, so no whole matrix is built.
    """
    rows, cols, values = _sector_entries(batch, M, kappa)
    identical = np.array([p.identical_qubits() for p in batch])
    s_rows = np.concatenate([np.zeros(M + 1, dtype=bool),
                             kappa * (-1) ** np.arange(M + 1) == -1])
    subs = []
    for members, keep in ((np.flatnonzero(~identical), np.ones_like(s_rows)),
                          (np.flatnonzero(identical), ~s_rows)):
        if members.size:
            k = np.count_nonzero(keep)
            at = np.cumsum(keep) - 1   # the row of the block of a solved row
            on = np.flatnonzero(keep[rows] & keep[cols])
            block = np.zeros((members.size, k, k))
            block[:, at[rows[on]], at[cols[on]]] = values[np.ix_(members, on)]
            subs.append((members, keep, block))
    return values[:, :s_rows.size], identical[:, None] & s_rows, subs


def _solve_batch(batch: Sequence[RabiParams], M: int, kappa: int) -> tuple:
    """solve_sectors' five arrays for one batch of points.

    A solved state's <a^dag a>, |10,0> weight and residual are read from its
    solved rows alone; each singlet is a state of its own, with its photon
    level, the weight of its basis state and residual 0.
    """
    diag, singlet, subs = _sector_blocks(batch, M, kappa)
    photons = np.tile(np.arange(M + 1), 2)
    # level M couples to level M + 1 through (g1 +- g2) sqrt((M + 1)/2); an
    # overflow here fails the eigensolve first (see sector_hamiltonian)
    g1, g2 = (np.array([getattr(p, key) for p in batch])[:, None]
              for key in ("g1", "g2"))
    root = math.sqrt((M + 1) / 2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        up_plus, up_minus = (g1 + g2) * root, (g1 - g2) * root
    # |10,0> = (T_0 + S_0)/sqrt(2) lies in the odd sector only
    vacuum = (0, M + 1) if kappa == -1 else ()
    half = (1.0 / math.sqrt(2.0)) ** 2   # the weight of the singlet S_0
    # energies, <a^dag a>, singlet, vacuum weight, residual
    out = [np.empty(singlet.shape, dtype=bool if i == 2 else float)
           for i in range(5)]
    while subs:
        members, keep, sub = subs.pop()
        values, vectors = numerics.eigh(sub)
        del sub
        g, k = values.shape
        at = np.cumsum(keep) - 1   # the column of each solved row

        def row(r: int) -> np.ndarray:
            """Every solved state's coefficient on basis row r."""
            return vectors[:, at[r]] if keep[r] else np.zeros((g, k))

        hi, lo = row(M), row(2 * M + 1)
        plus, minus = up_plus[members], up_minus[members]
        if (-1) ** M == kappa:   # level M holds |11> and |00>
            residuals = np.hypot(plus * (hi + lo), minus * (lo - hi))
        else:                    # level M holds T and S
            residuals = math.sqrt(2.0) * np.hypot(plus * hi, minus * lo)
        weights = (((row(0) + row(M + 1)) / math.sqrt(2.0)) ** 2 if vacuum
                   else np.zeros((g, k)))
        loose = np.flatnonzero(~keep)
        # the solved states, then the singlets
        per_state = (
            (values, diag[members][:, loose]),
            (photons[keep] @ vectors**2, photons[loose]),
            (np.zeros((g, k), dtype=bool), singlet[members][:, loose]),
            (weights, np.isin(loose, vacuum) * half),
            (residuals, np.zeros(loose.size)))
        del vectors
        values = np.concatenate(per_state[0], axis=1)
        # stable, so the ascending eigh output of a whole solve keeps its order
        order = np.argsort(values, axis=1, kind="stable")
        for dest, (solved, rows) in zip(out, per_state):
            per = np.concatenate(
                [solved, np.broadcast_to(rows, (g, rows.shape[-1]))], axis=1)
            dest[members] = np.take_along_axis(per, order, axis=1)
    return tuple(out)


def _energies_batch(batch: Sequence[RabiParams], M: int, kappa: int) -> tuple:
    """sector_energies' energies and singlet mask for one batch of points."""
    diag, singlet, subs = _sector_blocks(batch, M, kappa)
    energies = np.empty(singlet.shape)
    flags = np.empty(singlet.shape, dtype=bool)
    for members, keep, sub in subs:
        values = numerics.eigvalsh(sub)
        # as in _solve_batch
        per = np.pad(singlet[members][:, ~keep], ((0, 0), (sub.shape[1], 0)))
        values = np.concatenate([values, diag[members][:, ~keep]], axis=1)
        order = np.argsort(values, axis=1, kind="stable")
        energies[members] = np.take_along_axis(values, order, axis=1)
        flags[members] = np.take_along_axis(per, order, axis=1)
    return energies, flags


def _rwa_last_block(params: RabiParams, k0: int, n_levels: int,
                    drop_singlets: bool) -> int:
    """Largest block k that can hold one of the n_levels lowest levels of the
    blocks k0, k0 + 2, k0 + 4, ...

    By Gershgorin's theorem every level of block k lies within h + s sqrt(k)
    of (k - 1) omega_c, where s = g1 + g2 and h is the largest |diagonal
    offset|.  The blocks k0 .. kn hold at least n_levels levels (counting one
    fewer per block k >= 1 when singlets are dropped), all at or below
    E = (kn - 1) omega_c + h + s sqrt(kn); a block whose lowest possible
    level lies above E holds none of the lowest n_levels.
    """
    wc, s = params.omega_c, params.g1 + params.g2
    h = max(abs(wc - (params.omega1 + params.omega2) / 2.0),
            abs(params.omega1 - params.omega2) / 2.0)
    drop = int(drop_singlets)
    first = 1 if k0 == 0 else 3 - drop
    kn = k0 + 2 * max(0, math.ceil((n_levels - first) / (4 - drop)))
    e_max = (kn - 1) * wc + h + s * math.sqrt(kn)
    # (k - 1) wc - h - s sqrt(k) <= e_max  <=>  sqrt(k) <= x
    x = (s + math.sqrt(s * s + 4.0 * wc * (e_max + wc + h))) / (2.0 * wc)
    return math.ceil(x * x)


def rwa_parity_levels(params_list: Sequence[RabiParams], parity: int,
                      n_levels: int, drop_singlets: bool = False
                      ) -> np.ndarray:
    """The n_levels lowest levels of the RWA excitation blocks with
    (-1)^k = parity at every point, ascending: a (P, n_levels) array.

    The blocks solved at a point are those an energy bound admits
    (_rwa_last_block), so strong couplings, which pull high blocks down, are
    covered.  The whole sweep takes two stacked numerics.eigh calls: one for
    every point's lowest block (k = 0 or 1) and one for all the 4x4 blocks
    k >= 2.  Each matrix of a stack is solved as on its own, so a point's
    levels do not depend on the others.  MemoryError, before any block is
    built, when the admitted blocks may not fit in physical memory.

    With drop_singlets, each block k >= 1 of identical qubits loses its level
    nearest (k - 1) omega_c, its singlet's exact energy; no eigenvector is
    read.  A level tied with the singlet (at g = 0, or Delta = 0) has that
    value to rounding, so which copy goes does not matter.
    """
    k0 = 0 if parity == 1 else 1
    drops = [drop_singlets and p.identical_qubits() for p in params_list]
    blocks = [range(k0, _rwa_last_block(p, k0, n_levels, drop) + 1, 2)
              for p, drop in zip(params_list, drops)]
    # a block and its eigenpairs take 425 bytes at the stacked eigh
    # (tracemalloc, g = 20 to 100), so refuse before building any block
    count = sum(len(ks) for ks in blocks)
    if PHYSICAL_MEMORY is not None and 425 * count > PHYSICAL_MEMORY:
        raise MemoryError(f"the {count} RWA blocks the energy bound admits "
                          f"may take {425 * count / 2**30:.3g} GiB, over the "
                          f"{PHYSICAL_MEMORY / 2**30:.3g} GiB of memory")
    # eigh, not eigvalsh: eigvalsh rounds some levels differently (fig3 moves)
    low = numerics.eigh(np.array([build_block(p, k0) for p in params_list]))
    # the reshape keeps an empty list of 4x4 blocks a valid (0, 4, 4) stack
    high = numerics.eigh(np.reshape(
        [build_block(p, k) for p, ks in zip(params_list, blocks)
         for k in ks[1:]], (-1, 4, 4)))
    out = np.empty((len(params_list), n_levels))
    stop = 0
    for i, (p, ks, drop) in enumerate(zip(params_list, blocks, drops)):
        start, stop = stop, stop + len(ks) - 1
        values = [low.eigenvalues[i], *high.eigenvalues[start:stop]]
        if drop:
            values = [np.delete(v, np.argmin(np.abs(v - (k - 1) * p.omega_c)))
                      if k else v for v, k in zip(values, ks)]
        out[i] = np.sort(np.concatenate(values))[:n_levels]
    return out


# ---------------------------------------------------------------------------
# Exceptional exact eigenstates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExceptionalState:
    """Exact eigenstate available only under special parameter conditions."""

    kind: str               # 'singlet' | 'even' | 'odd'
    energy: float
    state: np.ndarray = field(repr=False)   # plain-Fock vector
    n_photons: int
    q: float | None = None  # mixing coefficient of the one-photon states
    n: int | None = None    # photon number, singlets only


#: qubit states in the order of exceptional_states' vector layout
_QUBIT_LABELS = ("11", "10", "01", "00")


def _fock_vector(n_photons: int, components: list[tuple[str, int, float]],
                 ) -> np.ndarray:
    v = np.zeros(4 * n_photons)
    for qubits, n, amp in components:
        v[_QUBIT_LABELS.index(qubits) * n_photons + n] = amp
    return v


def exceptional_states(params: RabiParams, n_photons: int = 24,
                       ) -> list[ExceptionalState]:
    """All exceptional exact solutions applicable at these parameters.

    Spin singlets require identical qubits; the even/odd one-photon states
    require homogeneous coupling with omega1 +/- omega2 = 2 omega_c and have
    the constant energy omega_c.  Returns an empty list when nothing applies.
    Each state is a vector on the whole plain-Fock product space of photons
    n < n_photons: |q, n> sits at index q N + n, with N = n_photons and the
    qubit states q = |11>, |10>, |01>, |00> in that order.
    """
    out: list[ExceptionalState] = []
    wc = params.omega_c
    homogeneous = abs(params.g1 - params.g2) <= EQ_TOL
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    if params.identical_qubits():
        for n in range(n_photons):
            v = _fock_vector(n_photons, [("10", n, inv_sqrt2), ("01", n, -inv_sqrt2)])
            out.append(ExceptionalState("singlet", n * wc, v, n_photons, n=n))
    if homogeneous and abs(params.omega1 + params.omega2 - 2.0 * wc) <= EQ_TOL \
            and abs(params.omega1 - params.omega2) > EQ_TOL:
        q = 2.0 * params.g1 / (params.omega1 - params.omega2)
        norm = 1.0 / math.sqrt(2.0 * q * q + 1.0)
        # the one-photon singlet component enters with -q for H psi = omega_c psi
        v = _fock_vector(n_photons, [("10", 1, -q * norm), ("01", 1, q * norm),
                                     ("11", 0, norm)])
        out.append(ExceptionalState("even", wc, v, n_photons, q=q))
    if homogeneous and abs(params.omega1 - params.omega2 - 2.0 * wc) <= EQ_TOL:
        q = 2.0 * params.g1 / (params.omega1 + params.omega2)
        norm = 1.0 / math.sqrt(2.0 * q * q + 1.0)
        v = _fock_vector(n_photons, [("00", 1, q * norm), ("11", 1, -q * norm),
                                     ("10", 0, norm)])
        out.append(ExceptionalState("odd", wc, v, n_photons, q=q))
    return out
