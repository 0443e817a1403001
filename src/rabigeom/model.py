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

    k: int
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
    return SpectralAngles(k, omega_k, theta_k, big_theta_1, alpha)


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


@dataclass(frozen=True)
class BlockEigenpair:
    """One eigenstate of an excitation block.

    Coefficients (a, b, c, d) multiply |11,k-2>, |10,k-1>, |01,k-1>, |00,k>;
    slots that do not exist for k <= 1 are stored as zero, which keeps the
    photon-number identity <a^dag a> = (k - 1) + d^2 - a^2 uniform in k.
    """

    k: int
    l: int           # 1-based rank in ascending energy order
    energy: float
    coeffs: np.ndarray = field(repr=False)
    a: float
    b: float
    c: float
    d: float

    @property
    def s_k(self) -> float:
        return self.d**2 - self.a**2

    @property
    def photon_expectation(self) -> float:
        return (self.k - 1.0) + self.s_k


def solve_block(params: RabiParams, k: int) -> list[BlockEigenpair]:
    """Eigenpairs of one excitation block, sorted ascending in energy."""
    H = build_block(params, k)
    values, vectors = numerics.eigh(H)
    pairs = []
    for idx in range(values.size):
        v = vectors[:, idx]
        if k == 0:
            a, b, c, d = 0.0, 0.0, 0.0, v[0]
        elif k == 1:
            a, (b, c, d) = 0.0, v
        else:
            a, b, c, d = v
        pairs.append(BlockEigenpair(k, idx + 1, float(values[idx]), v,
                                    float(a), float(b), float(c), float(d)))
    return pairs


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

    @property
    def thetas(self) -> tuple[float, float, float]:
        return (0.0, self.theta_1_2, self.theta_1_2 + math.pi)


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
        top = np.flatnonzero(model.photon_numbers()[ix] == model.n_photons - 1)
        pop = float(np.sum(decomp.eigenvectors[top, 0] ** 2))
        if pop > 1e-8:
            warnings.warn(
                f"ground-state population {pop:.2e} on the last Fock level; "
                f"increase n_photons", TruncationWarning, stacklevel=2)
    return decomp.eigenvalues, decomp.eigenvectors, ix


# ---------------------------------------------------------------------------
# Displaced Fock states
# ---------------------------------------------------------------------------

def displacement_matrix(size: int, delta) -> np.ndarray:
    """Dense matrix of <m| D(delta) |n> for m, n < size (vectorized evaluation).

    ``delta`` is one displacement, giving a (size, size) matrix, or a 1-D
    array of them, giving a (len(delta), size, size) stack.  A zero
    displacement gives the identity exactly.
    """
    if size < 1:
        raise ValueError("size must be positive")
    deltas = np.asarray(delta, dtype=float)
    flat = deltas.reshape(-1)
    D = np.repeat(np.eye(size)[None], flat.size, axis=0)
    moved = flat != 0.0
    if np.any(moved):
        d = flat[moved][:, None]
        m, n = np.tril_indices(size)
        x = d * d
        logpref = 0.5 * (gammaln(n + 1) - gammaln(m + 1)) \
            + (m - n) * np.log(np.abs(d)) - x / 2.0
        sign = np.sign(d) ** (m - n)
        lower = sign * np.exp(logpref) * eval_genlaguerre(n, m - n, x)
        block = np.empty((d.shape[0], size, size))
        block[:, m, n] = lower
        block[:, n, m] = (-1.0) ** (m - n) * lower
        D[moved] = block
    return D.reshape(deltas.shape + (size, size))


@dataclass(frozen=True)
class DisplacedBasis:
    """Truncated displaced-Fock basis for the beyond-RWA parity sectors.

    The four displacements pair with the qubit configurations of the frame in
    which the couplings are diagonal: beta1 = -beta4 = (g1+g2)/omega_c for
    |11>/|00> and beta2 = -beta3 = (g1-g2)/omega_c for |10>/|01>.
    """

    M: int
    betas: tuple[float, float, float, float]

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M must be at least 1")

    @classmethod
    def for_params(cls, params: RabiParams, M: int = 50) -> "DisplacedBasis":
        b1 = (params.g1 + params.g2) / params.omega_c
        b2 = (params.g1 - params.g2) / params.omega_c
        return cls(M, (b1, b2, -b2, -b1))

    @property
    def beta1(self) -> float:
        return self.betas[0]

    @property
    def beta2(self) -> float:
        return self.betas[1]


@dataclass(frozen=True)
class AdiabaticSolution:
    """One level-diagonal (adiabatic) beyond-RWA eigenstate."""

    kappa: int
    n: int
    branch: int        # +1 or -1
    energy: float
    d1n: float
    d2n: float
    xi: float
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
    basis = DisplacedBasis.for_params(params, M=max(1, n))
    b1, b2 = basis.beta1, basis.beta2
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
            xi, d1, d2 = math.inf, 1.0, 0.0
        else:
            xi = omega / denom
            norm = 1.0 / math.sqrt(1.0 + xi * xi)
            d1, d2 = xi * norm, -norm
        out.append(AdiabaticSolution(kappa, n, branch, center + branch * mu,
                                     d1, d2, xi, mu, omega))
    return out[0], out[1]


@dataclass(frozen=True)
class TruncatedEigenpair:
    """Numerically exact beyond-RWA eigenstate in one parity sector.

    d1[n] multiplies the |11>-type symmetrized basis vector at displaced level
    n, d2[n] the |10>-type one; the state normalization is
    2 sum_n (d1[n]^2 + d2[n]^2) = 1.
    """

    kappa: int
    energy: float
    d1: np.ndarray = field(repr=False)
    d2: np.ndarray = field(repr=False)

    @property
    def coefficients(self) -> np.ndarray:
        """Unit-norm coefficient vector (sqrt(2) * (d1, d2)) on the sector basis."""
        return math.sqrt(2.0) * np.concatenate([self.d1, self.d2])


def sector_hamiltonian(params_list: Sequence[RabiParams],
                       bases: Sequence[DisplacedBasis],
                       kappa: int) -> np.ndarray:
    """Beyond-RWA Hamiltonians in the parity-kappa displaced-Fock sector basis.

    Entry p of the returned (P, 2(M+1), 2(M+1)) stack is the sector matrix of
    ``params_list[p]`` on ``bases[p]``; all bases share one truncation M.  The
    |11>/|00>-type and |10>/|01>-type blocks couple through
    B[m, n] = omega1/2 * kappa (-1)^n <m|D(beta1+beta2)|n>
            + omega2/2 * <m|D(beta1-beta2)|n>,
    i.e. the flip of qubit j is dressed by the displaced-Fock overlap at
    displacement 2 g_j / omega_c.
    """
    if kappa not in (1, -1):
        raise ValueError("kappa must be +1 or -1")
    if len(params_list) != len(bases) or not bases:
        raise ValueError("need one basis per parameter point, at least one")
    if any(b.M != bases[0].M for b in bases):
        raise ValueError("bases must share one truncation M")
    mp1 = bases[0].M + 1
    P = len(bases)
    w1 = np.array([p.omega1 for p in params_list])[:, None, None]
    w2 = np.array([p.omega2 for p in params_list])[:, None, None]
    wc = np.array([p.omega_c for p in params_list])[:, None]
    b1 = np.array([b.beta1 for b in bases])
    b2 = np.array([b.beta2 for b in bases])
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


def sector_number_operator(basis: DisplacedBasis) -> np.ndarray:
    """Photon number operator a^dag a on the parity-sector basis.

    Block diagonal: the displaced ladder contributes n + beta^2 on the
    diagonal and -beta sqrt(n+1) on the first off-diagonals.
    """
    mp1 = basis.M + 1
    ns = np.arange(mp1)
    off = np.sqrt(ns[:-1] + 1.0)

    def block(beta: float) -> np.ndarray:
        b = np.diag(ns + beta**2).astype(float)
        b[ns[:-1], ns[:-1] + 1] = -beta * off
        b[ns[:-1] + 1, ns[:-1]] = -beta * off
        return b

    N = np.zeros((2 * mp1, 2 * mp1))
    N[:mp1, :mp1] = block(basis.beta1)
    N[mp1:, mp1:] = block(basis.beta2)
    return N


def _tail_population(vectors: np.ndarray) -> np.ndarray:
    """Largest last-displaced-level population over the lower half of a sector."""
    mp1 = vectors.shape[-2] // 2
    return np.max(vectors[..., mp1 - 1, :mp1] ** 2 + vectors[..., -1, :mp1] ** 2,
                  axis=-1)


def truncated_parity_solve(params: RabiParams, basis: DisplacedBasis,
                           kappa: int, check_truncation: bool = True,
                           ) -> list[TruncatedEigenpair]:
    """All eigenpairs of one displaced-Fock parity sector, ascending in energy."""
    if basis.M < 10:
        raise ValueError("basis truncation M must be at least 10")
    mp1 = basis.M + 1
    values, vectors = numerics.eigh(sector_hamiltonian([params], [basis], kappa))
    values, vectors = values[0], vectors[0]
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    pairs = [TruncatedEigenpair(kappa, float(values[j]),
                                inv_sqrt2 * vectors[:mp1, j],
                                inv_sqrt2 * vectors[mp1:, j])
             for j in range(values.size)]
    if check_truncation:
        worst = float(_tail_population(vectors))
        if worst > 1e-8:
            warnings.warn(
                f"low-lying sector state has population {worst:.2e} on the "
                f"last displaced level; increase M", TruncationWarning,
                stacklevel=2)
    return pairs


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
    singlet: np.ndarray = field(repr=False)          # as singlet_indices
    vacuum_weights: np.ndarray = field(repr=False)   # |<state|10,0>|^2
    tail_population: np.ndarray = field(repr=False)  # (P,), lower half

    def kept(self, point: int, drop_singlets: bool = True) -> np.ndarray:
        """State indices of one point, ascending in energy, singlets skipped."""
        if drop_singlets:
            return np.flatnonzero(~self.singlet[point])
        return np.arange(self.energies.shape[1])


def _photon_numbers(vectors: np.ndarray,
                    bases: Sequence[DisplacedBasis]) -> np.ndarray:
    """<a^dag a> of every column state, at O(M) per state.

    Evaluates the tridiagonal blocks of sector_number_operator without
    forming them: sum_n (n + beta^2) c_n^2 - 2 beta sqrt(n+1) c_n c_{n+1}.
    """
    mp1 = bases[0].M + 1
    ns = np.arange(mp1, dtype=float)
    off = np.sqrt(ns[1:])
    total = 0.0
    for half, beta in ((vectors[:, :mp1], [b.beta1 for b in bases]),
                       (vectors[:, mp1:], [b.beta2 for b in bases])):
        beta = np.array(beta)[:, None]
        sq = half * half
        total = total + (ns @ sq + beta**2 * sq.sum(axis=1)
                         - 2.0 * beta * (off @ (half[:, :-1] * half[:, 1:])))
    return total


def _singlet_mask(params_list: Sequence[RabiParams], values: np.ndarray,
                  vectors: np.ndarray, kappa: int,
                  tol: float = 1e-9) -> np.ndarray:
    """Vectorized singlet_indices: pure |10>-type states at energy n omega_c."""
    mp1 = vectors.shape[-2] // 2
    identical = np.array([p.identical_qubits() for p in params_list])[:, None]
    wc = np.array([p.omega_c for p in params_list])[:, None]
    n = np.rint(values / wc)
    level = np.clip(n, 0, mp1 - 1).astype(int)
    d2 = np.take_along_axis(vectors[:, mp1:], level[:, None, :], axis=1)[:, 0]
    parity = 1 - 2 * (level % 2)
    return (identical & (n >= 0) & (n < mp1) & (np.abs(values - n * wc) <= tol)
            & (kappa * parity == -1) & (d2 * d2 > 1.0 - 1e-6))


def _vacuum_weights(vectors: np.ndarray, bases: Sequence[DisplacedBasis],
                    kappa: int) -> np.ndarray:
    """Squared overlaps <state|10,0>; even-parity overlaps vanish identically.

    The plain vacuum expands over each displaced ladder through
    <n|D(beta)|0>, and |10,0> selects the (1 - kappa)/2 combination.
    """
    if kappa == 1:
        return np.zeros((len(bases), vectors.shape[-1]))
    mp1 = bases[0].M + 1
    P = len(bases)
    betas = [b.beta1 for b in bases] + [b.beta2 for b in bases]
    cols = displacement_matrix(mp1, np.array(betas))[:, :, 0]
    amps = (np.einsum("pnj,pn->pj", vectors[:, :mp1], cols[:P])
            - np.einsum("pnj,pn->pj", vectors[:, mp1:], cols[P:]))
    amps *= 1.0 / math.sqrt(2.0)
    return amps * amps


def solve_sectors(params_list: Sequence[RabiParams], M: int,
                  kappa: int) -> SectorSolution:
    """Solve the parity-kappa sector at every point on DisplacedBasis.for_params.

    Points are diagonalized SECTOR_BATCH at a time with the builder and
    eigensolver of truncated_parity_solve, so energies agree with it bit for
    bit; eigenvectors live only inside one batch.  No truncation warning is
    raised: ``tail_population`` records what truncated_parity_solve checks.
    """
    if M < 10:
        raise ValueError("basis truncation M must be at least 10")
    if not params_list:
        raise ValueError("need at least one parameter point")
    parts = []
    for start in range(0, len(params_list), SECTOR_BATCH):
        batch = params_list[start:start + SECTOR_BATCH]
        bases = [DisplacedBasis.for_params(p, M) for p in batch]
        values, vectors = numerics.eigh(sector_hamiltonian(batch, bases, kappa))
        parts.append((values, _photon_numbers(vectors, bases),
                      _singlet_mask(batch, values, vectors, kappa),
                      _vacuum_weights(vectors, bases, kappa),
                      _tail_population(vectors)))
    return SectorSolution(kappa, *(np.concatenate(a) for a in zip(*parts)))


def singlet_indices(params: RabiParams, pairs: list[TruncatedEigenpair],
                    tol: float = 1e-9) -> list[int]:
    """Positions of spin-singlet eigenstates within a solved parity sector.

    Singlets (|10> - |01>) |n> exist only for identical qubits; in the sector
    representation they are pure |10>-type vectors at levels with
    kappa (-1)^n = -1 and energy exactly n omega_c.
    """
    if not params.identical_qubits():
        return []
    out = []
    for j, p in enumerate(pairs):
        n = round(p.energy / params.omega_c)
        if n < 0 or abs(p.energy - n * params.omega_c) > tol:
            continue
        if p.kappa * (-1) ** n != -1:
            continue
        if n < p.d1.size and 2.0 * p.d2[n] ** 2 > 1.0 - 1e-6:
            out.append(j)
    return out


def is_rwa_singlet(pair: BlockEigenpair, params: RabiParams) -> bool:
    """Dark (|10> - |01>) |k-1> level of an identical-qubit RWA block."""
    return (abs(pair.energy - (pair.k - 1) * params.omega_c) < 1e-9
            and abs(pair.a) < 1e-9 and abs(pair.d) < 1e-9
            and abs(pair.b + pair.c) < 1e-9)


def rwa_parity_levels(params: RabiParams, parity: int, n_levels: int,
                      drop_singlets: bool = False) -> np.ndarray:
    """RWA sector spectrum: union of excitation blocks with (-1)^k = parity."""
    singlet_like = drop_singlets and params.identical_qubits()
    energies = []
    k = 0 if parity == 1 else 1
    while k <= 2 * n_levels + 2:
        for pair in solve_block(params, k):
            if singlet_like and k >= 1 and is_rwa_singlet(pair, params):
                continue
            energies.append(pair.energy)
        k += 2
    return np.sort(energies)[:n_levels]


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
