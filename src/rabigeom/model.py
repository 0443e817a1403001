"""Hamiltonians of the one- and two-qubit quantum Rabi model, with and without RWA.

Covers the Jaynes-Cummings closed forms, the excitation-number blocks of the
two-qubit RWA Hamiltonian, the equal-frequency specialization, the plain-Fock
beyond-RWA matrix with its parity labels, the displaced-Fock parity-sector
construction with its adiabatic (level-diagonal) approximation, and the
exceptional exact eigenstates.

Conventions: omega_c = 1 fixes the unit of energy; the detuning is
Delta = omega1 - omega_c throughout.  Qubit basis states |1> (upper) and |0>
(lower) are eigenstates of sigma^z; two-qubit labels are |q1 q2>.
"""

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.special import eval_genlaguerre, gammaln

from . import numerics

EQ_TOL = 1e-12


class NotJCReduction(ValueError):
    """Parameters do not describe the single-qubit (JC) reduction."""


class NotEqualFrequency(ValueError):
    """Operation requires omega1 == omega2."""


class TruncationWarning(UserWarning):
    """A returned state has non-negligible weight on the last basis level."""


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
        """Equal qubit frequencies and couplings, the condition for spin singlets."""
        return (abs(self.omega1 - self.omega2) <= EQ_TOL
                and abs(self.g1 - self.g2) <= EQ_TOL)


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
    return values, _abcd(vectors)


def _abcd(vectors: np.ndarray) -> np.ndarray:
    """Block eigenvectors on the slots (a, b, c, d): absent leading slots zero."""
    return np.pad(vectors, ((4 - vectors.shape[0], 0), (0, 0)))


@dataclass(frozen=True)
class EqualFrequencyK1:
    """The three k = 1 eigenstates for omega1 = omega2.

    ``states_uncoupled`` holds the eigenvectors on the basis
    (phi0_plus, phi0_minus, phi1) of the uncoupled system, rows in the order
    Psi1, Psi2, Psi3 of increasing mixing content (Psi1 is the dark state,
    Psi2/Psi3 the bright doublet split by big_theta_1).  ``states_block``
    gives the same states on the block basis {|10,0>, |01,0>, |00,1>}.
    """

    theta_1_2: float
    alpha: float
    big_theta_1: float
    energies: tuple[float, float, float]   # (E1, E2, E3) = (0, (-D+T)/2, (-D-T)/2)
    states_uncoupled: np.ndarray
    states_block: np.ndarray


def equal_frequency_k1(params: RabiParams) -> EqualFrequencyK1:
    if abs(params.omega1 - params.omega2) > EQ_TOL:
        raise NotEqualFrequency("equal_frequency_k1 requires omega1 == omega2")
    ang = spectral_angles(params, 1)
    delta, big = params.delta, ang.big_theta_1
    if big > 0.0:
        theta = math.acos(min(1.0, max(-1.0, delta / big)))
    else:
        theta = 0.0
    half = theta / 2.0
    ca, sa = math.cos(ang.alpha), math.sin(ang.alpha)
    # rows: Psi1 = phi0_minus; Psi2, Psi3 mix phi0_plus with phi1
    uncoupled = np.array([
        [0.0, 1.0, 0.0],
        [math.cos(half), 0.0, math.sin(half)],
        [math.sin(half), 0.0, -math.cos(half)],
    ])
    phi_basis = np.array([
        [ca, sa, 0.0],    # phi0_plus on {|10,0>, |01,0>, |00,1>}
        [sa, -ca, 0.0],   # phi0_minus
        [0.0, 0.0, 1.0],  # phi1 = |00,1>
    ])
    states_block = uncoupled @ phi_basis
    energies = (0.0, (-delta + big) / 2.0, (-delta - big) / 2.0)
    return EqualFrequencyK1(theta, ang.alpha, big, energies, uncoupled, states_block)


# ---------------------------------------------------------------------------
# Plain-Fock construction, with and without RWA
# ---------------------------------------------------------------------------

# qubit configurations in block order; entries are sigma^z eigenvalues (s1, s2)
_QUBIT_CONFIGS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
_QUBIT_LABELS = ("11", "10", "01", "00")


@dataclass(frozen=True)
class FullModel:
    """Plain-Fock matrix of the (two-qubit) Rabi Hamiltonian plus basis labels.

    Basis index = 4-state qubit configuration (order |11>, |10>, |01>, |00>)
    times photon number n < n_photons.  ``parity`` holds the eigenvalue of
    sigma1^z sigma2^z (-1)^(a^dag a) per basis vector; the matrix is exactly
    block diagonal in it.  ``excitation`` is the RWA block label
    k = n + (s1 + s2 + 2)/2, only conserved when rwa=True.
    """

    params: RabiParams
    n_photons: int
    rwa: bool
    matrix: np.ndarray = field(repr=False)
    parity: np.ndarray = field(repr=False)
    excitation: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return 4 * self.n_photons

    def basis_index(self, qubits: str, n: int) -> int:
        return _QUBIT_LABELS.index(qubits) * self.n_photons + n

    def photon_numbers(self) -> np.ndarray:
        return np.tile(np.arange(self.n_photons), 4)

    def parity_indices(self, parity: int) -> np.ndarray:
        return np.flatnonzero(self.parity == parity)

    def sector_matrix(self, parity: int) -> np.ndarray:
        ix = self.parity_indices(parity)
        return self.matrix[np.ix_(ix, ix)]


def build_full_rabi(params: RabiParams, n_photons: int, rwa: bool = False) -> FullModel:
    """Rabi Hamiltonian on the truncated plain-Fock product basis.

    With rwa=False the couplings are g_j (a^dag + a) sigma_j^x; with rwa=True
    only the excitation-conserving halves g_j (a^dag sigma_j^- + a sigma_j^+)
    are kept.
    """
    if n_photons < 10:
        raise ValueError("n_photons must be at least 10")
    np_ = n_photons
    dim = 4 * np_
    H = np.zeros((dim, dim))
    ns = np.arange(np_)
    for q, (s1, s2) in enumerate(_QUBIT_CONFIGS):
        sl = slice(q * np_, (q + 1) * np_)
        H[sl, sl] = np.diag(ns * params.omega_c
                            + 0.5 * (s1 * params.omega1 + s2 * params.omega2))
    # sigma_j^x flips qubit j; photon element sqrt(n+1) between n and n+1
    flips = (
        (params.g1, ((0, 2), (1, 3))),   # qubit 1: 11<->01, 10<->00
        (params.g2, ((0, 1), (2, 3))),   # qubit 2: 11<->10, 01<->00
    )
    root = np.sqrt(ns[:-1] + 1.0)
    for g, pairs in flips:
        if g == 0.0:
            continue
        for qa, qb in pairs:
            # qa has the qubit up, qb down
            up = slice(qa * np_, (qa + 1) * np_)
            dn = slice(qb * np_, (qb + 1) * np_)
            blk = np.zeros((np_, np_))
            # up, n  <->  down, n+1   (kept in RWA)
            blk[ns[:-1], ns[:-1] + 1] = g * root
            if not rwa:
                # up, n+1  <->  down, n  (counter-rotating)
                blk[ns[:-1] + 1, ns[:-1]] = g * root
            H[up, dn] += blk
            H[dn, up] += blk.T
    parity = np.concatenate([
        s1 * s2 * (-1) ** ns for (s1, s2) in _QUBIT_CONFIGS]).astype(int)
    excitation = np.concatenate([
        ns + (s1 + s2 + 2) // 2 for (s1, s2) in _QUBIT_CONFIGS])
    return FullModel(params, n_photons, rwa, H, parity, excitation)


def solve_parity_sector(model: FullModel, parity: int,
                        check_truncation: bool = True):
    """Diagonalize one parity sector of a plain-Fock model.

    Returns (energies, vectors, basis_indices); ``vectors`` columns are the
    sector eigenvectors on the restricted basis.  Emits TruncationWarning when
    the sector ground state has population above 1e-8 on the top Fock level.
    """
    ix = model.parity_indices(parity)
    decomp = numerics.eigh(model.sector_matrix(parity))
    if check_truncation:
        pop = _top_population(model, ix, decomp.eigenvectors)
        if pop > 1e-8:
            warnings.warn(
                f"ground-state population {pop:.2e} on the last Fock level; "
                f"increase n_photons", TruncationWarning, stacklevel=2)
    return decomp.eigenvalues, decomp.eigenvectors, ix


def _top_population(model: FullModel, ix: np.ndarray,
                    vectors: np.ndarray) -> float:
    """Population of the sector ground state on the top Fock level; ``ix`` and
    ``vectors`` as returned by solve_parity_sector."""
    top = np.flatnonzero(model.photon_numbers()[ix] == model.n_photons - 1)
    return float(np.sum(vectors[top, 0] ** 2))


# ---------------------------------------------------------------------------
# Displaced Fock states
# ---------------------------------------------------------------------------

def _overlap_entries(d: np.ndarray, m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """<m| D(d) |n> for m >= n: nonzero displacements ``d`` broadcast against
    the index arrays ``m`` and ``n``.

    This is the package's one displaced-Fock overlap formula:
    sqrt(n!/m!) d^(m-n) e^(-d^2/2) L_n^(m-n)(d^2), its prefactor taken in log
    space.
    """
    x = d * d
    logpref = 0.5 * (gammaln(n + 1) - gammaln(m + 1)) \
        + (m - n) * np.log(np.abs(d)) - x / 2.0
    sign = np.sign(d) ** (m - n)
    return sign * np.exp(logpref) * eval_genlaguerre(n, m - n, x)


def displacement_matrix(size: int, delta) -> np.ndarray:
    """Dense matrix of <m| D(delta) |n> for m, n < size (vectorized evaluation).

    ``delta`` is one displacement, giving a (size, size) matrix, or a 1-D
    array of them, giving a (len(delta), size, size) stack.  A zero
    displacement gives the identity exactly; a displacement repeated in the
    stack is evaluated once.
    """
    if size < 1:
        raise ValueError("size must be positive")
    deltas = np.asarray(delta, dtype=float)
    flat = deltas.reshape(-1)
    D = np.repeat(np.eye(size)[None], flat.size, axis=0)
    moved = flat != 0.0
    if np.any(moved):
        d, inverse = np.unique(flat[moved], return_inverse=True)
        m, n = np.tril_indices(size)
        lower = _overlap_entries(d[:, None], m, n)
        block = np.empty((d.size, size, size))
        block[:, m, n] = lower
        block[:, n, m] = (-1.0) ** (m - n) * lower
        D[moved] = block[inverse]
    return D.reshape(deltas.shape + (size, size))


def _vacuum_overlaps(size: int, deltas) -> np.ndarray:
    """<m| D(delta) |0> for m < size, one row per displacement.

    Equal, bit for bit, to displacement_matrix(size, deltas)[:, :, 0], without
    forming the matrices.
    """
    d = np.asarray(deltas, dtype=float)
    cols = np.zeros((d.size, size))
    cols[:, 0] = 1.0
    moved = d != 0.0
    if np.any(moved):
        m = np.arange(size)
        cols[moved] = _overlap_entries(d[moved][:, None], m, np.zeros_like(m))
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


def sector_hamiltonian(params_list: Sequence[RabiParams], M: int,
                       kappa: int) -> np.ndarray:
    """Beyond-RWA Hamiltonians in the parity-kappa displaced-Fock sector basis.

    Entry p of the returned (P, 2(M+1), 2(M+1)) stack is the sector matrix of
    ``params_list[p]``, each ladder displaced by its ``displacements`` and
    truncated at level M.  The |11>/|00>-type and |10>/|01>-type blocks
    couple through
    B[m, n] = omega1/2 * kappa (-1)^n <m|D(beta1+beta2)|n>
            + omega2/2 * <m|D(beta1-beta2)|n>,
    i.e. the flip of qubit j is dressed by the displaced-Fock overlap at
    displacement 2 g_j / omega_c.
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
    D = displacement_matrix(mp1, np.concatenate([b1 + b2, b1 - b2]))
    ns = np.arange(mp1)
    signs = (-1.0) ** ns
    B = (0.5 * w1 * kappa) * D[:P] * signs[None, :] + 0.5 * w2 * D[P:]
    S = np.zeros((P, 2 * mp1, 2 * mp1))
    diag = np.arange(2 * mp1)
    S[:, diag, diag] = np.concatenate([ns * wc - b1[:, None]**2 * wc,
                                       ns * wc - b2[:, None]**2 * wc], axis=1)
    S[:, :mp1, mp1:] = B
    S[:, mp1:, :mp1] = np.swapaxes(B, 1, 2)
    return S


def sector_number_operator(params: RabiParams, M: int) -> np.ndarray:
    """Photon number operator a^dag a on the parity-sector basis.

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


def _tail_population(vectors: np.ndarray) -> np.ndarray:
    """Largest last-displaced-level population over the lower half of a sector."""
    mp1 = vectors.shape[-2] // 2
    return np.max(vectors[..., mp1 - 1, :mp1] ** 2 + vectors[..., -1, :mp1] ** 2,
                  axis=-1)


#: sweep points diagonalized together by solve_sectors; sets how many
#: eigenvector sets are alive at once
SECTOR_BATCH = 4


@dataclass(frozen=True)
class SectorSolution:
    """One parity sector solved at every point of a sweep.

    Row p of each (P, 2(M+1)) array belongs to the p-th parameter point, its
    states in ascending energy.  Eigenvectors are not kept.
    """

    kappa: int
    energies: np.ndarray = field(repr=False)
    photon_numbers: np.ndarray = field(repr=False)   # <a^dag a> per state
    singlet: np.ndarray = field(repr=False)          # see _singlet_mask
    vacuum_weights: np.ndarray = field(repr=False)   # |<state|10,0>|^2
    tail_population: np.ndarray = field(repr=False)  # (P,), lower half

    def kept(self, point: int, drop_singlets: bool = True) -> np.ndarray:
        """State indices of one point, ascending in energy, singlets skipped."""
        if drop_singlets:
            return np.flatnonzero(~self.singlet[point])
        return np.arange(self.energies.shape[1])


def _photon_numbers(vectors: np.ndarray, beta1: np.ndarray,
                    beta2: np.ndarray) -> np.ndarray:
    """<a^dag a> of every column state, at O(M) per state.

    Evaluates the tridiagonal blocks of sector_number_operator without
    forming them: sum_n (n + beta^2) c_n^2 - 2 beta sqrt(n+1) c_n c_{n+1}.
    """
    mp1 = vectors.shape[-2] // 2
    ns = np.arange(mp1, dtype=float)
    off = np.sqrt(ns[1:])
    total = 0.0
    for half, beta in ((vectors[:, :mp1], beta1), (vectors[:, mp1:], beta2)):
        beta = beta[:, None]
        sq = half * half
        total = total + (ns @ sq + beta**2 * sq.sum(axis=1)
                         - 2.0 * beta * (off @ (half[:, :-1] * half[:, 1:])))
    return total


def _singlet_mask(params_list: Sequence[RabiParams], values: np.ndarray,
                  vectors: np.ndarray, kappa: int,
                  tol: float = 1e-9) -> np.ndarray:
    """Mask of the spin singlets (|10> - |01>) |n> (identical qubits only):
    pure |10>-type sector vectors at kappa (-1)^n = -1 and energy n omega_c."""
    mp1 = vectors.shape[-2] // 2
    identical = np.array([p.identical_qubits() for p in params_list])[:, None]
    wc = np.array([p.omega_c for p in params_list])[:, None]
    n = np.rint(values / wc)
    level = np.clip(n, 0, mp1 - 1).astype(int)
    d2 = np.take_along_axis(vectors[:, mp1:], level[:, None, :], axis=1)[:, 0]
    parity = 1 - 2 * (level % 2)
    return (identical & (n >= 0) & (n < mp1) & (np.abs(values - n * wc) <= tol)
            & (kappa * parity == -1) & (d2 * d2 > 1.0 - 1e-6))


def _vacuum_weights(vectors: np.ndarray, beta1: np.ndarray,
                    beta2: np.ndarray, kappa: int) -> np.ndarray:
    """Squared overlaps <state|10,0>; even-parity overlaps vanish identically.

    The plain vacuum expands over each displaced ladder through
    <n|D(beta)|0>, and |10,0> selects the (1 - kappa)/2 combination.
    """
    if kappa == 1:
        return np.zeros((len(beta1), vectors.shape[-1]))
    mp1 = vectors.shape[-2] // 2
    P = len(beta1)
    cols = _vacuum_overlaps(mp1, np.concatenate([beta1, beta2]))
    amps = (np.einsum("pnj,pn->pj", vectors[:, :mp1], cols[:P])
            - np.einsum("pnj,pn->pj", vectors[:, mp1:], cols[P:]))
    amps *= 1.0 / math.sqrt(2.0)
    return amps * amps


def solve_sectors(params_list: Sequence[RabiParams], M: int,
                  kappa: int) -> SectorSolution:
    """Solve the parity-kappa sector at every point, truncated at level M.

    This is the package's one displaced-Fock sector solver.  Points are
    diagonalized SECTOR_BATCH at a time with sector_hamiltonian and
    numerics.eigh; eigenvectors live only inside one batch.  No truncation
    warning is raised: ``tail_population`` records the largest
    last-displaced-level population of the lower half of each sector.
    """
    if M < 10:
        raise ValueError("basis truncation M must be at least 10")
    if not params_list:
        raise ValueError("need at least one parameter point")
    parts = []
    for start in range(0, len(params_list), SECTOR_BATCH):
        batch = params_list[start:start + SECTOR_BATCH]
        betas = displacements(batch)
        values, vectors = numerics.eigh(sector_hamiltonian(batch, M, kappa))
        parts.append((values, _photon_numbers(vectors, *betas),
                      _singlet_mask(batch, values, vectors, kappa),
                      _vacuum_weights(vectors, *betas, kappa),
                      _tail_population(vectors)))
    return SectorSolution(kappa, *(np.concatenate(a) for a in zip(*parts)))


def _rwa_singlet_mask(k: np.ndarray, values: np.ndarray, coeffs: np.ndarray,
                      omega_c: float) -> np.ndarray:
    """Mask of the dark (|10> - |01>) |k-1> levels of identical-qubit RWA
    blocks: level j belongs to block k[j], has energy values[j] and the
    coefficients coeffs[:, j] on (a, b, c, d) as returned by solve_block."""
    a, b, c, d = coeffs
    return ((np.abs(values - (k - 1) * omega_c) < 1e-9)
            & (np.abs(a) < 1e-9) & (np.abs(d) < 1e-9) & (np.abs(b + c) < 1e-9))


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


def rwa_parity_levels(params: RabiParams, parity: int, n_levels: int,
                      drop_singlets: bool = False) -> np.ndarray:
    """The n_levels lowest levels of the RWA excitation blocks with
    (-1)^k = parity, ascending.

    The blocks solved are those an energy bound admits (_rwa_last_block), so
    strong couplings, which pull high blocks down, are covered.  The lowest
    block (k = 0 or 1) takes one eigh call and the 4x4 blocks k >= 2 one
    stacked call.
    """
    k0 = 0 if parity == 1 else 1
    drop = drop_singlets and params.identical_qubits()
    ks = range(k0, _rwa_last_block(params, k0, n_levels, drop) + 1, 2)
    low = numerics.eigh(build_block(params, k0))
    # the reshape keeps an empty list of 4x4 blocks a valid (0, 4, 4) stack
    high = numerics.eigh(np.reshape([build_block(params, k) for k in ks[1:]],
                                    (-1, 4, 4)))
    values = np.concatenate([low.eigenvalues, high.eigenvalues.ravel()])
    if drop:
        n0 = low.eigenvalues.size
        coeffs = np.hstack([_abcd(low.eigenvectors), *high.eigenvectors])
        k = np.repeat(ks, [n0] + [4] * (len(ks) - 1))
        values = values[~_rwa_singlet_mask(k, values, coeffs, params.omega_c)]
    return np.sort(values)[:n_levels]


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


def _fock_vector(model_n_photons: int, components: list[tuple[str, int, float]],
                 ) -> np.ndarray:
    v = np.zeros(4 * model_n_photons)
    for qubits, n, amp in components:
        v[_QUBIT_LABELS.index(qubits) * model_n_photons + n] = amp
    return v


def exceptional_states(params: RabiParams, n_photons: int = 24,
                       ) -> list[ExceptionalState]:
    """All exceptional exact solutions applicable at these parameters.

    Spin singlets require identical qubits; the even/odd one-photon states
    require homogeneous coupling with omega1 +/- omega2 = 2 omega_c and have
    the constant energy omega_c.  Returns an empty list when nothing applies.
    """
    out: list[ExceptionalState] = []
    wc = params.omega_c
    homogeneous = abs(params.g1 - params.g2) <= EQ_TOL
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    if homogeneous and abs(params.omega1 - params.omega2) <= EQ_TOL:
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
