import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.linalg import expm

import oracle
import rabigeom
from rabigeom import model, numerics
from rabigeom.model import (RabiParams, adiabatic_eigensystem,
                            build_block, displacement_matrix,
                            exceptional_states, jc_eigensystem, solve_block)

#: sigma^z eigenvalues (s1, s2) of the qubit states |11>, |10>, |01>, |00>
QUBIT_SPINS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


# ---------------------------------------------------------------------------
# parameters and JC closed forms
# ---------------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        RabiParams(omega1=1.0, g1=-0.1)
    with pytest.raises(ValueError):
        RabiParams(omega1=math.inf)
    with pytest.raises(ValueError):
        RabiParams(omega1=1.0, omega_c=0.0)
    assert RabiParams.jc(0.25, 0.1).delta == pytest.approx(0.25)


def test_jc_resonant_doublet():
    eig = jc_eigensystem(RabiParams.jc(0.0, 0.1), 1)
    assert eig.theta_k == pytest.approx(math.pi / 2)
    assert eig.e_plus == pytest.approx(0.5 + 0.1)
    assert eig.e_minus == pytest.approx(0.5 - 0.1)


def test_jc_zero_coupling_bare_states():
    eig = jc_eigensystem(RabiParams.jc(0.3, 0.0), 1)
    assert eig.theta_k == pytest.approx(0.0)
    assert np.allclose(eig.state_plus, [1.0, 0.0])
    assert np.allclose(eig.state_minus, [0.0, -1.0])


def test_jc_detuned_angles():
    eig = jc_eigensystem(RabiParams.jc(0.5, 0.25), 1)
    assert eig.omega_k == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert math.cos(eig.theta_k) == pytest.approx(0.5 / math.sqrt(0.5), abs=1e-15)


def test_jc_ground_level():
    eig = jc_eigensystem(RabiParams.jc(0.2, 0.1), 0)
    assert eig.e_plus == pytest.approx(-1.2 / 2)


def test_jc_requires_reduction():
    with pytest.raises(model.NotJCReduction):
        jc_eigensystem(RabiParams(omega1=1.0, omega2=0.5, g1=0.1, g2=0.0), 1)
    with pytest.raises(model.NotJCReduction):
        jc_eigensystem(RabiParams(omega1=1.0, g1=0.1, g2=0.01), 1)


# ---------------------------------------------------------------------------
# RWA blocks
# ---------------------------------------------------------------------------

def test_block_k0_entry():
    params = RabiParams(omega1=1.2, omega2=0.8, g1=0.1, g2=0.2)
    assert build_block(params, 0)[0, 0] == pytest.approx(-1.0)


def test_block_k1_decoupled_diagonal():
    params = RabiParams(omega1=1.2, omega2=0.8)
    H = build_block(params, 1)
    assert np.allclose(H, np.diag([0.2, -0.2, 1.0 - 1.0]))


def test_block_k2_transcription():
    params = RabiParams(omega1=1.0, omega2=1.0, g1=0.1, g2=0.1)
    H = build_block(params, 2)
    r2 = math.sqrt(2.0)
    expected = np.array([
        [0.0, 0.1, 0.1, 0.0],
        [0.1, 0.0, 0.0, 0.1 * r2],
        [0.1, 0.0, 0.0, 0.1 * r2],
        [0.0, 0.1 * r2, 0.1 * r2, 0.0],
    ]) + np.eye(4)
    assert np.array_equal(H, H.T)
    assert np.allclose(H, expected, atol=1e-15)


@pytest.mark.parametrize("k", range(7))
def test_block_matches_projected_rwa_hamiltonian(k):
    """Each printed block must equal the restriction of the RWA Hamiltonian."""
    params = RabiParams(omega1=1.13, omega2=0.71, g1=0.12, g2=0.23)
    H, _, excitation = oracle.full_rabi(params, 12, rwa=True)
    # flatnonzero scans qubit blocks in the order (11, 10, 01, 00), which is
    # exactly the printed block basis ordering
    ix = np.flatnonzero(excitation == k)
    projected = H[np.ix_(ix, ix)]
    assert np.max(np.abs(projected - build_block(params, k))) <= 1e-12


def test_block_trace_identity():
    params = RabiParams(omega1=0.9, omega2=1.1, g1=0.15, g2=0.05)
    for k in range(6):
        energies, _ = solve_block(params, k)
        assert sum(energies) == pytest.approx(
            np.trace(build_block(params, k)), rel=1e-10)


def test_solve_block_equal_frequency_energies():
    params = RabiParams.equal_frequency(0.15, 0.1, 0.2)
    big = math.sqrt(0.15**2 + 4 * (0.1**2 + 0.2**2))
    energies, _ = solve_block(params, 1)
    got = sorted(energies)
    want = sorted([0.0, (-0.15 + big) / 2, (-0.15 - big) / 2])
    assert np.allclose(got, want, atol=1e-12)


def test_solve_block_dark_state_vector():
    params = RabiParams.equal_frequency(0.15, 0.1, 0.2)
    alpha = math.atan2(0.2, 0.1)
    energies, coeffs = solve_block(params, 1)
    dark = coeffs[:, np.argmin(np.abs(energies))]
    # the k = 1 block has no |11,k-2> slot: a = 0
    assert np.allclose(dark, [0.0, math.sin(alpha), -math.cos(alpha), 0.0],
                       atol=1e-12)


def test_solve_block_orthonormal_k2():
    rng = np.random.default_rng(2)
    params = RabiParams(omega1=rng.uniform(0.5, 1.5), omega2=rng.uniform(0.5, 1.5),
                        g1=rng.uniform(0.0, 0.3), g2=rng.uniform(0.0, 0.3))
    _, V = solve_block(params, 2)
    assert np.allclose(V.T @ V, np.eye(4), atol=1e-12)
    for c in V.T:
        assert np.sum(c**2) == pytest.approx(1.0, abs=1e-12)


def test_equal_frequency_k1_worked_case():
    params = RabiParams.equal_frequency(0.01, 0.01, 0.01)
    assert model.equal_frequency_angles(params)[2] == \
        pytest.approx(0.03, abs=1e-15)
    # ascending: Psi3 at (-D - T)/2, the dark Psi1 at 0, Psi2 at (-D + T)/2
    energies, _ = solve_block(params, 1)
    assert energies == pytest.approx([-0.02, 0.0, 0.01], abs=1e-15)


def test_equal_frequency_k1_angles():
    assert model.equal_frequency_angles(RabiParams.equal_frequency(
        0.0, 0.1, 0.1))[0] == pytest.approx(math.pi / 2)
    params = RabiParams.equal_frequency(0.2, 0.1, 0.0)
    theta, alpha, _ = model.equal_frequency_angles(params)
    jc = jc_eigensystem(RabiParams.jc(0.2, 0.1), 1)
    assert alpha == pytest.approx(0.0)
    assert theta == pytest.approx(jc.theta_k, abs=1e-12)
    # Psi2 (the highest level) reduces to the JC doublet on |10,0>, |00,1>
    psi2 = solve_block(params, 1)[1][:, 2]
    assert np.allclose(psi2 * np.sign(psi2[1]),
                       [0.0, jc.state_plus[0], 0.0, jc.state_plus[1]],
                       atol=1e-12)


def test_equal_frequency_requires_equal():
    unequal = RabiParams(omega1=1.0, omega2=0.9, g1=0.1, g2=0.1)
    with pytest.raises(model.NotEqualFrequency):
        model.equal_frequency_angles(unequal)


@pytest.mark.parametrize("delta, g1, g2", [(0.0, 0.0, 0.0), (0.2, 0.1, 0.0),
                                           (-0.05, 0.02, 0.07)])
def test_equal_frequency_angles_match_k1(delta, g1, g2):
    """The closed-form angles against the numerically solved k = 1 block."""
    params = RabiParams.equal_frequency(delta, g1, g2)
    theta, alpha, big = model.equal_frequency_angles(params)
    energies, (_, b, _, d) = solve_block(params, 1)
    assert energies == pytest.approx(
        [(-delta - big) / 2.0, 0.0, (-delta + big) / 2.0], abs=1e-15)
    if g1 == g2 == 0.0:
        # a degenerate block fixes no states
        assert (theta, alpha, big) == (0.0, 0.0, 0.0)
        return
    # <a^dag a> = d^2 and the |10,0> weight b^2 of Psi3, Psi1, Psi2
    half, ca2 = theta / 2.0, math.cos(alpha) ** 2
    assert d * d == pytest.approx(
        [math.cos(half) ** 2, 0.0, math.sin(half) ** 2], abs=1e-14)
    assert b * b == pytest.approx(
        [ca2 * math.sin(half) ** 2, math.sin(alpha) ** 2,
         ca2 * math.cos(half) ** 2], abs=1e-14)


# ---------------------------------------------------------------------------
# the whole plain-Fock space (the oracle)
# ---------------------------------------------------------------------------

def test_full_rabi_decoupled_energies():
    params = RabiParams(omega1=0.9, omega2=0.3)
    H, _, _ = oracle.full_rabi(params, 12)
    vals = np.sort(np.diag(H))
    expect = np.sort([n + s1 * 0.45 + s2 * 0.15
                      for n in range(12) for (s1, s2) in QUBIT_SPINS])
    assert np.allclose(np.sort(numerics.eigh(H).eigenvalues), expect,
                       atol=1e-12)
    assert np.allclose(vals, expect, atol=1e-12)


def test_full_rabi_parity_block_structure():
    params = RabiParams(omega1=1.3, omega2=0.7, g1=0.21, g2=0.13)
    H, parity, _ = oracle.full_rabi(params, 14)
    even = np.flatnonzero(parity == 1)
    odd = np.flatnonzero(parity == -1)
    assert np.all(H[np.ix_(even, odd)] == 0.0)
    assert np.all(H[np.ix_(odd, even)] == 0.0)
    assert np.array_equal(H, H.T)


def test_full_rabi_singlets_are_exact():
    params = RabiParams(omega1=1.1, omega2=1.1, g1=0.25, g2=0.25)
    H, _, _ = oracle.full_rabi(params, 20)
    for n in (0, 3, 7):
        v = np.zeros(4 * 20)
        v[oracle.index("10", n, 20)] = 1 / math.sqrt(2)
        v[oracle.index("01", n, 20)] = -1 / math.sqrt(2)
        assert np.linalg.norm(H @ v - n * v) <= 1e-12


def test_full_rabi_constant_eigenvalue_in_even_sector():
    params = RabiParams(omega1=1.4, omega2=0.6, g1=0.17, g2=0.17)
    vals, _, _ = oracle.parity_sector(params, 80, 1)
    assert np.min(np.abs(vals - 1.0)) <= 1e-10


def test_full_rabi_truncation_top_population():
    params = RabiParams(omega1=1.0, omega2=1.0, g1=0.9, g2=0.9)
    n_photons = 10
    _, vectors, ix = oracle.parity_sector(params, n_photons, 1)
    # the sector ground state's population on the top Fock level
    top = np.flatnonzero(ix % n_photons == n_photons - 1)
    assert np.sum(vectors[top, 0] ** 2) > 1e-8


def test_rwa_flag_conserves_excitation():
    params = RabiParams(omega1=1.2, omega2=0.8, g1=0.1, g2=0.2)
    H, _, k = oracle.full_rabi(params, 12, rwa=True)
    coupling = H - np.diag(np.diag(H))
    rows, cols = np.nonzero(coupling)
    assert np.all(k[rows] == k[cols])


# ---------------------------------------------------------------------------
# displaced Fock states
# ---------------------------------------------------------------------------

def test_displaced_overlap_identity():
    D = displacement_matrix(5, 0.0)
    for m in range(5):
        for n in range(5):
            assert D[m, n] == pytest.approx(1.0 if m == n else 0.0, abs=1e-15)


def test_displaced_overlap_vacuum():
    for d in (0.1, 0.7, 1.9):
        assert displacement_matrix(1, d)[0, 0] == pytest.approx(
            math.exp(-d * d / 2), abs=1e-15)


def _displacement_expm(size, delta):
    a = np.diag(np.sqrt(np.arange(1, size)), 1)
    return expm(delta * (a.T - a))


def test_displaced_overlap_against_expm():
    oracle = _displacement_expm(60, 0.04)
    assert displacement_matrix(2, 0.04)[1, 1] == pytest.approx(oracle[1, 1],
                                                               abs=1e-10)
    for m, n, d in ((3, 5, 0.6), (8, 2, 1.2), (10, 10, 0.3)):
        oracle = _displacement_expm(80, d)
        D = displacement_matrix(max(m, n) + 1, d)
        assert D[m, n] == pytest.approx(oracle[m, n], abs=1e-10)


def test_displaced_overlap_symmetry():
    for m, n, d in ((2, 5, 0.8), (7, 3, 1.5), (4, 4, 0.2)):
        D = displacement_matrix(max(m, n) + 1, d)
        assert D[m, n] == pytest.approx((-1.0) ** (m - n) * D[n, m], abs=1e-14)


def test_displaced_overlap_unitarity():
    for n in range(0, 11, 2):
        for d in (0.5, 1.0, 2.0):
            total = np.sum(displacement_matrix(n + 41, d)[:, n] ** 2)
            assert total == pytest.approx(1.0, abs=1e-8)


def test_displacement_matrix_consistency():
    D = displacement_matrix(40, 0.6)
    oracle = _displacement_expm(120, 0.6)[:40, :40]
    assert np.max(np.abs(D - oracle)) <= 1e-10


def test_displacement_matrix_stack_zero_edge():
    # beta2 = 0 when g1 = g2, and beta1 - beta2 = 0 in the JC case (g2 = 0)
    (eq1, jc1), (eq2, jc2) = model.displacements(
        [RabiParams.equal_frequency(0.5, 0.3, 0.3), RabiParams.jc(0.1, 0.25)])
    deltas = np.array([eq1 + eq2, eq2, jc1 - jc2, jc1, -0.8])
    assert deltas[1] == 0.0 and deltas[2] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stack = displacement_matrix(51, deltas)
    assert stack.shape == (5, 51, 51)
    for D, d in zip(stack, deltas):
        if d == 0.0:
            assert np.array_equal(D, np.eye(51))
        else:
            assert np.max(np.abs(D - displacement_matrix(51, d))) <= 1e-14


def test_displacement_matrix_evaluates_repeats_once():
    # g1 = g2 makes beta1 + beta2 and beta1 - beta2 repeat across a sweep
    deltas = np.array([0.3, -0.3, 0.3, 0.0, 1.2, 0.3, 1.2, -0.0, 2e-3])
    stack = displacement_matrix(51, deltas)
    assert np.array_equal(stack, np.stack([displacement_matrix(51, d)
                                           for d in deltas]))


@pytest.mark.parametrize("size", [11, 51, 61])
def test_vacuum_overlaps_equal_displacement_column(size):
    betas = np.array([0.0, 1e-6, -1e-6, 0.01, -0.01, 0.3, -0.3, 1.0, -1.0,
                      3.0, -3.0])
    cols = model._vacuum_overlaps(size, betas)
    assert np.array_equal(cols, displacement_matrix(size, betas)[:, :, 0])


def _scipy_overlaps(size, deltas):
    """Oracle: the displaced-Fock overlap formula evaluated with
    scipy.special.gammaln and eval_genlaguerre, filled into matrices the
    way displacement_matrix fills them (nonzero displacements only)."""
    m, n = np.tril_indices(size)
    d = np.asarray(deltas, dtype=float)[:, None]
    x = d * d
    logpref = 0.5 * (special.gammaln(n + 1) - special.gammaln(m + 1)) \
        + (m - n) * np.log(np.abs(d)) - x / 2.0
    lower = (np.sign(d) ** (m - n) * np.exp(logpref)
             * special.eval_genlaguerre(n, m - n, x))
    D = np.empty((d.size, size, size))
    D[:, m, n] = lower
    D[:, n, m] = (-1.0) ** (m - n) * lower
    return D


# the binomial's branches: min(n, m - n) >= 20 needs size >= 41 (cephes
# Gamma and 1/Gamma in beta), m + 2 > 171.62 needs size >= 171 (cephes lgam)
@pytest.mark.parametrize("size", [11, 51, 61, 172, 201])
def test_overlaps_equal_scipy_special_bit_for_bit(size):
    deltas = np.array([1e-8, -1e-8, 0.2, -0.2, 0.5236, -0.5236, 1.0, -1.0,
                       3.0, -3.0, 20.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # the oracle warns on none of these
        oracle = _scipy_overlaps(size, deltas)
        stack = displacement_matrix(size, deltas)
        cols = model._vacuum_overlaps(size, deltas)
    assert np.array_equal(stack, oracle)
    assert np.array_equal(cols, oracle[:, :, 0])


def test_log_factorials_and_binomials_equal_scipy_special():
    k = np.arange(2001)
    assert np.array_equal(model._log_factorials(2000), special.gammaln(k + 1.0))
    # sizes past 171 (lgam branch of beta) and 430 (the product's 1e50
    # rescale, from m = 428 on)
    for size in (3, 41, 61, 172, 201, 440):
        n, a = np.indices((size, size))
        inside = n + a < size
        table = model._binomials(size)
        assert np.array_equal(table[inside],
                              special.binom((n + a)[inside], n[inside]))
        assert not np.any(table[~inside])


@pytest.mark.parametrize("size, delta", [(183, 60.0), (183, -60.0),
                                         (287, 40.0)])
def test_displacement_matrix_names_overflowing_overlaps(size, delta):
    # e^(-d^2/2) underflows to 0 where L_n^(m-n)(d^2) overflows, so the
    # formula gives 0 * inf; one size below, every entry is finite
    with pytest.raises(model.OverlapOverflow,
                       match=f"size {size}, displacement {delta!r}"):
        displacement_matrix(size, [0.5, delta])
    assert np.all(np.isfinite(displacement_matrix(size - 1, delta)))


#: columns |11>, T, S, |00> on the block slots, T, S = (|10> +- |01>)/sqrt(2)
_R = 1.0 / math.sqrt(2.0)
_TRIPLET_BASIS = np.array([[1.0, 0.0, 0.0, 0.0],
                           [0.0, _R, _R, 0.0],
                           [0.0, _R, -_R, 0.0],
                           [0.0, 0.0, 0.0, 1.0]])


def _rwa_levels_triplet_basis(params, parity, n_levels, drop_singlets):
    """Reference: one eigh per excitation block.  To drop singlets, each
    block k >= 1 of identical qubits is rotated into the triplet basis and
    its singlet row and column S deleted; no level is matched to a value."""
    energies = []
    for k in range(0 if parity == 1 else 1, 4 * n_levels + 9, 2):
        H = build_block(params, k)
        if drop_singlets and params.identical_qubits() and k >= 1:
            U = _TRIPLET_BASIS[4 - len(H):, 4 - len(H):]  # k = 1 has no |11>
            s = len(H) - 2                                 # the S slot
            H = np.delete(np.delete(U.T @ H @ U, s, axis=0), s, axis=1)
        energies.extend(numerics.eigh(H).eigenvalues)
    return np.sort(energies)[:n_levels]


@pytest.mark.parametrize("params", [
    RabiParams.equal_frequency(0.5, 0.2, 0.2),
    RabiParams.equal_frequency(0.0, 0.0, 0.0),
    RabiParams.equal_frequency(0.3, 0.1, 0.25),
    RabiParams(omega1=1.2, omega2=0.7, g1=0.1, g2=0.15),
    RabiParams.equal_frequency(0.0, 0.05, 0.05),
    RabiParams.equal_frequency(0.5, 0.0, 0.0),
])
def test_rwa_parity_levels_match_per_block_solves(params):
    for parity in (1, -1):
        for n_levels in (1, 8):
            for drop in (False, True):
                got = model.rwa_parity_levels([params], parity, n_levels, drop)[0]
                want = _rwa_levels_triplet_basis(params, parity, n_levels,
                                                 drop)
                if drop and params.identical_qubits():
                    # the rotation rounds the triplet blocks differently
                    assert np.max(np.abs(got - want)) <= 1e-12
                else:
                    assert np.array_equal(got, want)
    # coupled identical qubits: dropping singlets removes levels
    if params.identical_qubits() and params.g1 > 0.0:
        assert not np.array_equal(
            model.rwa_parity_levels([params], -1, 8, True)[0],
            model.rwa_parity_levels([params], -1, 8)[0])


@settings(max_examples=50, deadline=None)
@given(delta=st.floats(-1.0, 1.0), g=st.floats(0.0, 1.0))
@example(delta=0.0, g=0.01)
@example(delta=0.0, g=0.7)
@example(delta=0.5, g=0.0)
@example(delta=0.0, g=0.0)
def test_rwa_parity_levels_drop_one_singlet_per_block(delta, g):
    # at Delta = 0 (every g) and at g = 0 the singlet ties with another level
    params = RabiParams.equal_frequency(delta, g, g)
    for parity in (1, -1):
        got = model.rwa_parity_levels([params], parity, 8, True)[0]
        want = _rwa_levels_triplet_basis(params, parity, 8, True)
        assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("g", [0.5, 2.0, 3.0, 5.0])
def test_rwa_parity_levels_match_plain_fock_rwa(g):
    # strong couplings pull high excitation blocks below the low ones
    params = RabiParams.equal_frequency(0.5, g, g)
    for parity in (1, -1):
        want, _, _ = oracle.parity_sector(params, 120, parity, rwa=True)
        got = model.rwa_parity_levels([params], parity, 8)[0]
        assert np.max(np.abs(got - want[:8])) <= 1e-12


def test_rwa_parity_levels_refuse_blocks_beyond_memory(monkeypatch):
    # each admitted block counts 425 bytes against physical memory, and a
    # sweep over it fails before any block is built or any warning raised
    built = []

    def recording_build(params, k):
        built.append(k)
        return build(params, k)
    build = model.build_block
    monkeypatch.setattr(model, "build_block", recording_build)
    small = RabiParams.equal_frequency(0.5, 0.3, 0.3)
    count = len(range(1, model._rwa_last_block(small, 1, 8, False) + 1, 2))
    monkeypatch.setattr(model, "PHYSICAL_MEMORY", 425 * count)
    model.rwa_parity_levels([small], -1, 8)
    assert len(built) == count
    built.clear()
    monkeypatch.setattr(model, "PHYSICAL_MEMORY", 425 * count - 1)
    with pytest.raises(MemoryError, match="RWA blocks"):
        model.rwa_parity_levels([small], -1, 8)
    # g = 1e5 admits 2.0e10 odd blocks, some 8 TiB
    monkeypatch.setattr(model, "PHYSICAL_MEMORY", 2**36)
    huge = RabiParams.equal_frequency(0.5, 1e5, 1e5)
    assert model._rwa_last_block(huge, 1, 3, False) == 40000400003
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for parity in (1, -1):
            with pytest.raises(MemoryError, match="RWA blocks"):
                model.rwa_parity_levels([small, huge], parity, 3)
    assert built == []


# ---------------------------------------------------------------------------
# adiabatic approximation and truncated sectors
# ---------------------------------------------------------------------------

def test_adiabatic_zero_coupling_limit():
    params = RabiParams(omega1=0.4, omega2=0.3)
    for n in (0, 1, 2):
        for kappa in (1, -1):
            plus, minus = adiabatic_eigensystem(params, n, kappa)
            # overlaps are 1, so the splitting is |omega1 +- omega2| / 2
            mag = abs(0.4 * kappa * (-1) ** n + 0.3) / 2.0
            assert plus.energy == pytest.approx(n + mag, abs=1e-12)
            assert minus.energy == pytest.approx(n - mag, abs=1e-12)
            assert plus.d1n**2 + plus.d2n**2 == pytest.approx(1.0, abs=1e-12)


def test_adiabatic_homogeneous_coupling_overlaps():
    # g1 = g2 makes both dressing displacements equal to 2 g1 / omega_c
    params = RabiParams(omega1=0.5, omega2=0.5, g1=0.02, g2=0.02)
    plus, _ = adiabatic_eigensystem(params, 0, 1)
    d = math.exp(-0.04**2 / 2.0)   # <0|D(0.04)|0>
    assert plus.omega_n_kappa == pytest.approx((0.5 / 2) * d + (0.5 / 2) * d,
                                               abs=1e-14)
    b1 = 0.04
    assert plus.mu == pytest.approx(
        math.sqrt(plus.omega_n_kappa**2 + b1**4 / 4.0), abs=1e-14)


def test_adiabatic_matches_exact_weak_coupling():
    params = RabiParams(omega1=0.5, omega2=0.5, g1=0.02, g2=0.02)
    exact = np.sort(np.concatenate([
        oracle.parity_sector(params, 60, k)[0][:6]
        for k in (1, -1)]))
    approx = np.sort([s.energy for n in range(3) for kappa in (1, -1)
                      for s in adiabatic_eigensystem(params, n, kappa)])
    assert np.max(np.abs(approx[:4] - exact[:4])) <= 1e-3


def test_truncated_solve_zero_coupling():
    params = RabiParams(omega1=0.9, omega2=0.3, g1=1e-12, g2=1e-12)
    got = []
    for kappa in (1, -1):
        got += list(model.solve_sectors([params], 20, kappa).energies[0, :6])
    expect = sorted(n + s1 * 0.45 + s2 * 0.15 for n in range(21)
                    for (s1, s2) in QUBIT_SPINS)[:6]
    assert np.allclose(sorted(got)[:6], expect, atol=1e-8)


def test_truncated_matches_plain_fock():
    params = RabiParams(omega1=1.5, omega2=1.5, g1=0.25, g2=0.25)
    for kappa in (1, -1):
        plain, _, _ = oracle.parity_sector(params, 4 * 51, kappa)
        sector = model.solve_sectors([params], 50, kappa).energies[0, :15]
        assert np.max(np.abs(sector - plain[:15])) <= 1e-8


@settings(max_examples=30, deadline=None)
@given(omega1=st.floats(0.1, 1.9), omega2=st.floats(0.1, 1.9),
       g1=st.floats(0.0, 0.35), g2=st.floats(0.0, 0.35))
@example(omega1=1.5, omega2=1.5, g1=0.2, g2=0.2)
def test_plain_and_displaced_sectors_agree_over_the_domain(omega1, omega2,
                                                          g1, g2):
    """solve_sectors (plain Fock) against the whole displaced-Fock sector,
    solved by eigh, with <a^dag a> from sector_number_operator.

    Over 305 points of this domain, M = 40 and both parities, the 8 lowest
    energies agreed within 2.9e-14 and |d<a^dag a>| min(gap, 1) stayed below
    1.1e-14, where gap is the distance to the nearer neighbouring level
    (5.4e-13 at a gap of 8.8e-3); states with a gap below 1e-6 are skipped.
    """
    params = RabiParams(omega1=omega1, omega2=omega2, g1=g1, g2=g2)
    M = 40
    nop = model.sector_number_operator(params, M)
    for kappa in (1, -1):
        sol = model.solve_sectors([params], M, kappa)
        values, vectors = numerics.eigh(model._displaced_sector([params], M,
                                                                kappa))
        assert np.max(np.abs(sol.energies[0, :8] - values[0, :8])) <= 1e-13
        nbar = np.einsum("nj,nm,mj->j", vectors[0], nop, vectors[0])[:8]
        levels = sol.energies[0, :9]
        gap = np.minimum(np.diff(levels), np.diff(levels, prepend=-np.inf)[:8])
        isolated = gap > 1e-6
        error = np.abs(sol.photon_numbers[0, :8] - nbar)
        assert np.all((error * np.minimum(gap, 1.0))[isolated] <= 5e-14)


def test_solve_sectors_residual_flags_short_truncation():
    # the ground state's residual falls with M; at M = 10 it is far from
    # rounding at g = 1.4
    params = RabiParams(omega1=1.0, omega2=1.0, g1=1.4, g2=1.4)
    ground = [model.solve_sectors([params], M, 1).residuals[0, 0]
              for M in (10, 40, 80)]
    assert ground[0] > 1e-2 and ground[0] > ground[1] > ground[2]
    assert ground[2] < 1e-13


def _sector_in_whole_space(M, kappa, n_photons):
    """(whole-space dimension, 2(M+1)) matrix whose columns are the sector
    basis states of sector_hamiltonian in the oracle's whole space:
    |11,n>, |00,n> where (-1)^n = kappa, else T_n, S_n = (|10,n> +-
    |01,n>)/sqrt(2), with level n in columns n and M + 1 + n."""
    embed = np.zeros((4 * n_photons, 2 * (M + 1)))
    half = 1.0 / math.sqrt(2.0)
    for n in range(M + 1):
        first, second = n, M + 1 + n
        if (-1) ** n == kappa:
            embed[oracle.index("11", n, n_photons), first] = 1.0
            embed[oracle.index("00", n, n_photons), second] = 1.0
        else:
            for qubits, sign in (("10", 1.0), ("01", -1.0)):
                embed[oracle.index(qubits, n, n_photons), first] = half
                embed[oracle.index(qubits, n, n_photons), second] = \
                    sign * half
    return embed


@settings(max_examples=25, deadline=None)
@given(st.floats(0.3, 1.7), st.floats(0.3, 1.7), st.floats(0.05, 0.9),
       st.floats(0.05, 0.9), st.sampled_from([10, 13, 16]),
       st.sampled_from([1, -1]))
@example(w1=0.30000000000000004, w2=0.3, g1=0.30000000000000004, g2=0.3,
         M=16, kappa=1)
def test_solve_sectors_residual_is_the_ritz_residual(w1, w2, g1, g2, M,
                                                     kappa):
    """Each state's residual is the part of H c - E c on level M + 1, with
    its Ritz vector c, the eigenvector of the sector truncated at level M,
    taken into the whole space of photons n <= M + 1, where the oracle
    builds H with np.kron.  The rest of H c - E c is eigh's own rounding
    inside the truncated sector, which no residual counts: for qubits one
    ulp apart (the example) it reaches 1.6e-14 at ||H|| = 19."""
    params = RabiParams(omega1=w1, omega2=w2, g1=g1, g2=g2)
    assume(w1 != w2 and g1 != g2)   # no singlet, so the sector solves whole
    sol = model.solve_sectors([params], M, kappa)
    values, vectors = numerics.eigh(model.sector_hamiltonian([params], M,
                                                             kappa)[0])
    assert np.array_equal(sol.energies[0], values)
    H = oracle.full_rabi(params, M + 2)[0]
    ritz = _sector_in_whole_space(M, kappa, M + 2) @ vectors
    beyond = [oracle.index(qubits, M + 1, M + 2)
              for qubits in ("00", "01", "10", "11")]
    residuals = np.linalg.norm((H @ ritz - ritz * values)[beyond], axis=0)
    # measured 1.1e-15 over 120 points
    assert np.max(np.abs(sol.residuals[0] - residuals)) <= 1e-14


#: eight points of fig4's grid (Delta = 0.5)
_FIG4_POINTS = np.linspace(0.005, 0.35, 70)[::9]


@pytest.mark.parametrize("kappa", [1, -1])
def test_solve_sectors_matches_per_point_solve(kappa):
    """Batched kernel against a parity sector of the whole plain-Fock space.

    The oracle shares no code with sector_hamiltonian: it builds the
    product basis of 80 photons, where |10,0> is one basis state and the
    singlets are read from eigenvector weights.
    """
    params_list = [RabiParams.equal_frequency(0.5, g, g) for g in _FIG4_POINTS]
    # unequal couplings or frequencies couple every S row, which fixes the
    # relative sign of T_0 and S_0 in the |10,0> weight
    params_list += [RabiParams.equal_frequency(0.5, 0.1, 0.25),
                    RabiParams(omega1=1.1, omega2=0.8, g1=0.2, g2=0.3)]
    sol = model.solve_sectors(params_list, 50, kappa)
    assert sol.kappa == kappa and sol.energies.shape == (10, 102)
    low = slice(0, 20)
    for i, params in enumerate(params_list):
        vals, vecs, ix = oracle.parity_sector(params, 80, kappa)
        vecs = vecs[:, low]
        assert np.max(np.abs(sol.energies[i, low] - vals[low])) <= 1e-12
        nbar = (ix % 80) @ vecs**2
        assert np.max(np.abs(sol.photon_numbers[i, low] - nbar)) <= 1e-12
        pos = {b: k for k, b in enumerate(ix)}
        vacuum = pos.get(oracle.index("10", 0, 80))
        if kappa == 1:
            assert vacuum is None
            assert np.array_equal(sol.vacuum_weights[i], np.zeros(102))
        else:
            weights = vecs[vacuum] ** 2
            assert np.max(np.abs(sol.vacuum_weights[i, low] - weights)) <= 1e-13
        # singlets: weight above 1 - 1e-6 on one (|10,n> - |01,n>)/sqrt(2)
        pairs = [(pos[oracle.index("10", n, 80)],
                  pos[oracle.index("01", n, 80)])
                 for n in range(80) if oracle.index("10", n, 80) in pos]
        singlet_weight = np.max([(vecs[a] - vecs[b]) ** 2 / 2.0
                                 for a, b in pairs], axis=0)
        assert np.array_equal(sol.singlet[i, low], singlet_weight > 1.0 - 1e-6)
        assert list(sol.kept(i)) == [j for j in range(102)
                                     if not sol.singlet[i, j]]
    assert np.any(sol.singlet[:, low])


#: identical qubits; omega_c != 1 tells the levels n omega_c from n
_SINGLET_PARAMS = RabiParams(omega1=1.6, omega2=1.6, g1=0.2, g2=0.2,
                             omega_c=1.25)


def _at_n_omega_c(energies, omega_c):
    n = np.rint(energies / omega_c)
    return (n >= 0) & (np.abs(energies - n * omega_c) <= 1e-9)


@pytest.mark.parametrize("parity", [1, -1])
def test_singlet_test_drops_exactly_levels_at_n_omega_c(parity):
    params, wc = _SINGLET_PARAMS, _SINGLET_PARAMS.omega_c
    # RWA block stack: the singlet of block k sits at (k - 1) omega_c
    every = model.rwa_parity_levels([params], parity, 60)[0]
    at_n = _at_n_omega_c(every, wc)
    assert np.array_equal(np.rint(every[at_n] / wc) % 2,
                          np.full(np.count_nonzero(at_n), (1 + parity) // 2))
    kept = model.rwa_parity_levels([params], parity, 30,
                                   drop_singlets=True)[0]
    assert np.array_equal(kept, every[~at_n][:30])
    assert np.count_nonzero(at_n[:30]) >= 5
    # beyond-RWA sector: one singlet per level n with parity (-1)^(n+1)
    sol = model.solve_sectors([params], 30, parity)
    at_n = _at_n_omega_c(sol.energies[0], wc)
    assert np.array_equal(sol.singlet[0], at_n)
    assert np.array_equal(np.rint(sol.energies[0, at_n] / wc),
                          np.arange((1 + parity) // 2, 31, 2))
    assert np.array_equal(sol.kept(0), np.flatnonzero(~at_n))


def test_solve_sectors_mixed_points_and_validation():
    params_list = [RabiParams(omega1=1.1, omega2=0.8, g1=0.2, g2=0.3),
                   RabiParams.jc(0.1, 0.2),
                   RabiParams.equal_frequency(-0.2, 0.15, 0.15)]
    sol = model.solve_sectors(params_list, 20, -1)
    fields = ("energies", "photon_numbers", "singlet", "vacuum_weights",
              "residuals")
    for i, params in enumerate(params_list):
        one = model.solve_sectors([params], 20, -1)
        for name in fields:
            assert np.array_equal(getattr(sol, name)[i], getattr(one, name)[0])
    assert not np.any(sol.singlet[:2])
    with pytest.raises(ValueError):
        model.solve_sectors(params_list, 9, 1)
    with pytest.raises(ValueError):
        model.solve_sectors([], 20, 1)


def _whole_sector_solve(params_list, M, kappa):
    """solve_sectors' five arrays from numerics.eigh of the whole sector
    matrices, every row included.

    <a^dag a> = sum_n n c_n^2 and the |10,0> weight ((c_0 + c_(M+1))
    /sqrt(2))^2 are written as the kernel wrote them over the whole sector.
    The residual of each state is |S' c| for the rows S' of photon level
    M + 1 of the sector matrix at truncation M + 1.  The singlet mask
    comes from the eigenvectors, by a rule that shares no code with the
    kernel's singlet rows: at exactly equal qubit frequencies and
    couplings, a state within 1e-9 of n omega_c whose squared component on
    row M+1+n (S_n where kappa (-1)^n = -1) is above 1 - 1e-6.
    """
    values, vectors = numerics.eigh(model.sector_hamiltonian(params_list, M,
                                                             kappa))
    identical = np.array([[p.omega1 == p.omega2 and p.g1 == p.g2]
                          for p in params_list])
    wc = np.array([[p.omega_c] for p in params_list])
    n = np.rint(values / wc)
    level = np.clip(n, 0, M).astype(int)
    d2 = np.take_along_axis(vectors[:, M + 1:], level[:, None, :], axis=1)[:, 0]
    singlet = (identical & (n == level) & (kappa * (-1) ** level == -1)
               & (np.abs(values - n * wc) <= 1e-9) & (d2 * d2 > 1.0 - 1e-6))
    weights = (((vectors[:, 0] + vectors[:, M + 1]) / math.sqrt(2.0)) ** 2
               if kappa == -1 else np.zeros(values.shape))
    longer = model.sector_hamiltonian(params_list, M + 1, kappa)
    # rows of level M + 1, columns of levels n <= M, as laid out at M + 1
    cols = np.r_[0:M + 1, M + 2:2 * M + 3]
    couple = longer[:, [M + 1, 2 * M + 3]][:, :, cols]
    residuals = np.linalg.norm(couple @ vectors, axis=1)
    return (values, np.tile(np.arange(M + 1), 2) @ vectors**2, singlet,
            weights, residuals)


_SECTOR_FIELDS = ("energies", "photon_numbers", "singlet", "vacuum_weights",
                  "residuals")

#: identical qubits, where the singlets leave the eigensolve: fig4's grid,
#: resonance at weak (gaps about 1e-3) and strong coupling, and omega_c != 1
_DEFLATED_CASES = {
    "fig4": ([RabiParams.equal_frequency(0.5, g, g)
              for g in np.linspace(0.005, 0.35, 70)], 50),
    "resonant_weak": ([RabiParams.equal_frequency(0.0, 1e-3, 1e-3)], 50),
    "resonant_strong": ([RabiParams.equal_frequency(0.0, 0.3, 0.3)], 50),
    "singlet_params": ([_SINGLET_PARAMS], 30),
}


@pytest.mark.parametrize("kappa", [1, -1])
@pytest.mark.parametrize("case", _DEFLATED_CASES)
def test_solve_sectors_matches_whole_sector_solve(case, kappa):
    params_list, M = _DEFLATED_CASES[case]
    sol = model.solve_sectors(params_list, M, kappa)
    energies, photons, singlet, weights, residuals = _whole_sector_solve(
        params_list, M, kappa)
    assert sol.energies.shape == energies.shape == (len(params_list),
                                                    2 * (M + 1))
    # measured 1.1e-13, 7.1e-14, 5.0e-14 and 4.3e-14
    assert np.max(np.abs(sol.energies - energies)) <= 5e-13
    assert np.max(np.abs(sol.photon_numbers - photons)) <= 1e-11
    assert np.max(np.abs(sol.vacuum_weights - weights)) <= 1e-13
    # measured 4.2e-13, on high states whose residuals are of order 1
    assert np.max(np.abs(sol.residuals - residuals)) <= 1e-12
    assert np.array_equal(sol.singlet, singlet)
    for i in range(len(params_list)):
        assert np.array_equal(sol.kept(i), np.flatnonzero(~singlet[i]))
    # the singlets are exact: E = n omega_c and <a^dag a> = n
    wc = np.array([p.omega_c for p in params_list])[:, None]
    n = np.rint(sol.energies / wc)
    # one singlet per level n with kappa (-1)^n = -1
    per_point = np.count_nonzero(kappa * (-1) ** np.arange(M + 1) == -1)
    assert np.array_equal(np.count_nonzero(sol.singlet, axis=1),
                          np.full(len(params_list), per_point))
    assert np.array_equal(sol.energies[sol.singlet], (n * wc)[sol.singlet])
    assert np.array_equal(sol.photon_numbers[sol.singlet], n[sol.singlet])


@pytest.mark.parametrize("kappa", [1, -1])
def test_solve_sectors_zero_coupling_matches_up_to_tied_order(kappa):
    """At g = 0 a singlet ties exactly with the decoupled |11>/|00>-type
    state of the same level, and the two may come in either order."""
    params = RabiParams.equal_frequency(0.5, 0.0, 0.0)
    sol = model.solve_sectors([params], 50, kappa)
    whole = _whole_sector_solve([params], 50, kappa)
    assert np.array_equal(sol.energies[0], whole[0][0])
    for e in np.unique(whole[0][0]):
        tied = sol.energies[0] == e

        def states(arrays):
            return sorted(zip(*(a[0][tied] for a in arrays)))
        assert states([sol.photon_numbers, sol.singlet, sol.vacuum_weights]) \
            == states(whole[1:4])
    # every basis state is an eigenvector, and none reaches level M + 1
    assert not np.any(sol.residuals) and not np.any(whole[4])


def test_solve_sectors_keeps_whole_solve_for_unequal_qubits():
    # qubits that differ, even by 1e-13 or only at g = 0, keep numerics.eigh
    # of the whole sector bit for bit, also next to identical points, whose
    # singlets leave the eigensolve, in one batch
    coupled = [RabiParams(omega1=1.1, omega2=0.8, g1=0.2, g2=0.3),
               RabiParams.equal_frequency(0.5, 0.2, 0.2 + 1e-13),
               RabiParams(omega1=1.5, omega2=1.5 + 1e-13, g1=0.2, g2=0.2),
               RabiParams.jc(0.3, 0.0),
               RabiParams(omega1=1.3, omega2=0.7, omega_c=0.9)]
    # identical qubits at g = 0: the sector matrix is diagonal
    diagonal = RabiParams(omega1=0.0, omega2=0.0)
    params_list = [coupled[0], RabiParams.equal_frequency(0.5, 0.2, 0.2),
                   coupled[1], diagonal, *coupled[2:]]
    unequal = [0, 2, 4, 5, 6]
    for kappa in (1, -1):
        sol = model.solve_sectors(params_list, 20, kappa)
        for i, params in enumerate(params_list):
            one = model.solve_sectors([params], 20, kappa)
            for name in _SECTOR_FIELDS:
                assert np.array_equal(getattr(sol, name)[i],
                                      getattr(one, name)[0])
        whole = _whole_sector_solve(coupled, 20, kappa)
        # the residuals, which the reference forms by another route, to
        # rounding
        for name, want in zip(_SECTOR_FIELDS[:4], whole):
            assert np.array_equal(getattr(sol, name)[unequal], want)
        assert np.allclose(sol.residuals[unequal], whole[4], rtol=1e-13,
                           atol=1e-15)
        assert np.array_equal(sol.energies[3], np.sort(np.diagonal(
            model.sector_hamiltonian([diagonal], 20, kappa)[0])))


#: one batch of identical and unequal points: g2 or omega2 off by 1e-13
#: (not identical, so no state is a singlet), g = 0 with a singlet tied to
#: an |11>/|00>-type state, g = 0 at resonance (solved states at
#: n omega_c), a diagonal matrix, unequal qubits at g = 0 and g > 0, and
#: an ordinary deflated point
_ENERGIES_MIXED = [RabiParams.equal_frequency(0.5, 0.2, 0.2 + 1e-13),
                   RabiParams(omega1=1.5, omega2=1.5 + 1e-13, g1=0.2, g2=0.2),
                   RabiParams.equal_frequency(0.5, 0.0, 0.0),
                   RabiParams.equal_frequency(0.0, 0.0, 0.0),
                   RabiParams(omega1=0.0, omega2=0.0),
                   RabiParams(omega1=1.3, omega2=0.7, omega_c=0.9),
                   RabiParams(omega1=1.1, omega2=0.8, g1=0.2, g2=0.3),
                   RabiParams.equal_frequency(0.5, 0.2, 0.2)]


@pytest.mark.parametrize("kappa", [1, -1])
@pytest.mark.parametrize("case", [*_DEFLATED_CASES, "mixed"])
def test_sector_energies_match_solve_sectors(case, kappa):
    params_list, M = _DEFLATED_CASES.get(case, (_ENERGIES_MIXED, 50))
    sol = model.solve_sectors(params_list, M, kappa)
    energies, singlet = model.sector_energies(params_list, M, kappa)
    assert energies.shape == sol.energies.shape
    assert np.array_equal(singlet, sol.singlet)
    # eigvalsh against eigh on the same rows: measured 1.1e-13
    assert np.max(np.abs(energies - sol.energies)) <= 5e-13
    assert np.all(np.diff(energies, axis=1) >= 0.0)


@pytest.mark.parametrize("kappa", [1, -1])
def test_sector_energies_solve_no_eigenvectors(monkeypatch, kappa):
    shapes = []

    def recording_eigh(matrix):
        shapes.append(np.shape(matrix))
        return eigh(matrix)
    eigh = numerics.eigh
    monkeypatch.setattr(numerics, "eigh", recording_eigh)
    energies, _ = model.sector_energies(_ENERGIES_MIXED, 50, kappa)
    assert energies.shape == (len(_ENERGIES_MIXED), 102)
    assert shapes == []


def test_sector_energies_validation():
    with pytest.raises(ValueError):
        model.sector_energies([_SINGLET_PARAMS], 9, 1)
    with pytest.raises(ValueError):
        model.sector_energies([], 20, 1)


#: twenty points for the batching tests: identical qubits at several g,
#: _ENERGIES_MIXED (qubits 1e-13 apart, g = 0, a diagonal matrix, unequal
#: qubits), more unequal qubits, omega_c != 1 and the JC reduction
_BATCH_MIXED = ([RabiParams.equal_frequency(0.5, g, g)
                 for g in (0.05, 0.15, 0.2615, 0.35, 0.5)]
                + _ENERGIES_MIXED
                + [RabiParams(omega1=1.2, omega2=0.8, g1=g, g2=0.5 * g)
                   for g in (0.1, 0.3)]
                + [RabiParams.equal_frequency(-0.5, g, g)
                   for g in (0.0, 0.1, 0.2, 0.3)]
                + [_SINGLET_PARAMS, RabiParams.jc(0.1, 0.2)])


@pytest.mark.parametrize("kappa", [1, -1])
def test_sector_results_do_not_depend_on_the_batch_size(monkeypatch, kappa):
    results = []
    for batch in (1, 3, 4, 8, 16, len(_BATCH_MIXED)):
        monkeypatch.setattr(model, "SECTOR_BATCH", batch)
        sol = model.solve_sectors(_BATCH_MIXED, 30, kappa)
        results.append(
            [getattr(sol, name) for name in _SECTOR_FIELDS]
            + list(model.sector_energies(_BATCH_MIXED, 30, kappa)))
    for other in results[1:]:
        for want, got in zip(results[0], other):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("first, user, blas", [
    ("", {}, ["1", "1"]),                                  # before numpy
    ("", {"OPENBLAS_NUM_THREADS": "3"}, ["3", "1"]),       # user's value
    ("import numpy", {}, [None, None])])                   # numpy first
def test_blas_defaults(first, user, blas):
    # a sweep of three batches is solved in the calling thread: no pool is
    # imported and no thread is started
    code = (f"import json, os, sys, threading\n{first}\n"
            "from rabigeom import BLAS_THREAD_VARS, model\n"
            "points = [model.RabiParams.equal_frequency(0.5, g, g)\n"
            "          for g in [0.01 * k for k in range(20)]]\n"
            "model.solve_sectors(points, 20, -1)\n"
            "model.sector_energies(points, 20, 1)\n"
            "print(json.dumps([[os.environ.get(v) for v in BLAS_THREAD_VARS],"
            " 'concurrent.futures' in sys.modules,"
            " threading.active_count()]))")
    env = {var: value for var, value in os.environ.items()
           if var not in rabigeom.BLAS_THREAD_VARS}
    src = os.path.dirname(os.path.dirname(model.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**env, **user, "PYTHONPATH": src})
    got_blas, futures_imported, threads = json.loads(out.stdout)
    assert got_blas == blas
    assert not futures_imported
    assert threads == 1


@pytest.mark.parametrize("failing", [1, 2, 3])
@pytest.mark.parametrize("solve", [model.solve_sectors, model.sector_energies])
def test_sector_batch_errors_reach_the_caller(monkeypatch, solve, failing):
    # batch `failing` of four (counted from 0) is the first whose entries
    # overflow, after the batches before it solve; building it raises no
    # numpy warning
    monkeypatch.setattr(model, "SECTOR_BATCH", 4)
    start = 4 * failing
    points = [RabiParams.equal_frequency(0.5, g, g)
              for g in np.r_[np.linspace(0.0, 1.0, start),
                             np.linspace(1e308, 1.5e308, 20 - start)]]
    assert np.all(np.isfinite(model.sector_hamiltonian(points[:start], 30,
                                                       1)))
    assert not np.all(np.isfinite(model.sector_hamiltonian(
        points[start:start + 4], 30, 1)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(numerics.InvalidMatrix, match="non-finite"):
            solve(points, 30, 1)
    assert caught == []


@pytest.mark.parametrize("kappa", [1, -1])
def test_sector_blocks_are_the_whole_matrices_on_the_solved_rows(kappa):
    S = model.sector_hamiltonian(_BATCH_MIXED, 30, kappa)
    diag, singlet, subs = model._sector_blocks(_BATCH_MIXED, 30, kappa)
    assert np.array_equal(diag, np.diagonal(S, axis1=1, axis2=2))
    # the singlets: the S_n rows where kappa (-1)^n = -1, of identical
    # qubits only, each with no nonzero off-diagonal entry
    identical = np.array([p.identical_qubits() for p in _BATCH_MIXED])
    s_rows = np.r_[np.zeros(31, dtype=bool),
                   kappa * (-1) ** np.arange(31) == -1]
    assert np.array_equal(singlet, np.outer(identical, s_rows))
    off = np.count_nonzero(S, axis=2) - (diag != 0.0)
    assert not np.any(off[singlet])
    # the unequal points solved whole, the identical ones without singlets
    assert len(subs) == 2
    assert sorted(p for members, _, _ in subs for p in members) == \
        list(range(len(_BATCH_MIXED)))
    for members, keep, sub in subs:
        assert np.array_equal(singlet[members],
                              np.tile(~keep, (len(members), 1)))
        # one kind of point per block
        assert np.all(identical[members] == identical[members[0]])
        want = S[np.ix_(members, keep, keep)]
        assert sub.shape == want.shape and sub.tobytes() == want.tobytes()


@pytest.mark.parametrize("kappa", [1, -1])
def test_sector_blocks_peak_below_one_whole_stack(kappa):
    # the blocks are scattered from the matrix entries: no (8, 102, 102)
    # stack of whole matrices, nor a copy of one, is built on the way
    batch = [RabiParams.equal_frequency(0.5, g, g)
             for g in np.linspace(0.2, 0.32, 8)]
    tracemalloc.start()
    try:
        blocks = model._sector_blocks(batch, 50, kappa)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(members) for members, _, _ in blocks[2]] == [8]
    assert peak < 8 * 102**2 * 8


@pytest.mark.parametrize("drop", [False, True])
@pytest.mark.parametrize("parity", [1, -1])
def test_rwa_parity_levels_solve_a_sweep_in_two_stacked_calls(
        monkeypatch, parity, drop):
    # fig3's sweep
    params_list = [RabiParams.equal_frequency(0.5, g, g)
                   for g in np.linspace(0.001, 0.5, 101)]
    singles = [model.rwa_parity_levels([params], parity, 8, drop)[0]
               for params in params_list]
    shapes = []

    def recording_eigh(matrix):
        shapes.append(np.shape(matrix))
        return eigh(matrix)
    eigh = numerics.eigh
    monkeypatch.setattr(numerics, "eigh", recording_eigh)
    levels = model.rwa_parity_levels(params_list, parity, 8, drop)
    assert levels.shape == (101, 8)
    assert np.array_equal(levels, np.array(singles))
    low = 1 if parity == 1 else 3
    assert len(shapes) == 2 and shapes[0] == (101, low, low)
    assert shapes[1][1:] == (4, 4)


@pytest.mark.parametrize("kappa, kept", [(1, 77), (-1, 76)])
def test_solve_sectors_eigensolve_skips_the_singlets(monkeypatch, kappa, kept):
    shapes = []

    def recording_eigh(matrix):
        shapes.append(np.shape(matrix))
        return eigh(matrix)
    eigh = numerics.eigh
    monkeypatch.setattr(numerics, "eigh", recording_eigh)
    model.solve_sectors([RabiParams.equal_frequency(0.5, g, g)
                         for g in (0.1, 0.2, 0.3)], 50, kappa)
    model.solve_sectors([RabiParams.equal_frequency(0.5, 0.1, 0.2)], 50, kappa)
    assert shapes == [(3, kept, kept), (1, 102, 102)]


@pytest.mark.parametrize("g", [0.05, 0.2, 0.35])
def test_photon_numbers_are_energy_derivatives(g):
    """Hellmann-Feynman: <a^dag a> = dE/d omega_c, from energies alone
    (Richardson-extrapolated central differences, h = 1e-3)."""
    def lowest(omega_c, kappa):
        sol = model.solve_sectors([RabiParams(omega1=1.5, omega2=1.5, g1=g,
                                              g2=g, omega_c=omega_c)],
                                  50, kappa)
        states = sol.kept(0)[:3]
        return sol.energies[0, states], sol.photon_numbers[0, states]

    h = 1e-3
    for kappa in (1, -1):
        def slope(step):
            return (lowest(1.0 + step, kappa)[0]
                    - lowest(1.0 - step, kappa)[0]) / (2.0 * step)
        derivative = (4.0 * slope(h / 2.0) - slope(h)) / 3.0
        # measured worst 4.4e-11
        assert np.max(np.abs(derivative - lowest(1.0, kappa)[1])) <= 1e-9


def test_displacements_values():
    beta1, beta2 = model.displacements([RabiParams(omega1=1.0, g1=0.3, g2=0.1),
                                        RabiParams(omega1=1.0, g1=0.2, g2=0.5,
                                                   omega_c=2.0)])
    assert beta1.shape == beta2.shape == (2,)
    assert beta1 == pytest.approx([0.4, 0.35]) and \
        beta2 == pytest.approx([0.2, -0.15])


# ---------------------------------------------------------------------------
# exceptional states
# ---------------------------------------------------------------------------

def test_singlet_family():
    params = RabiParams(omega1=1.1, omega2=1.1, g1=0.3, g2=0.3)
    states = exceptional_states(params, n_photons=16)
    singlets = [s for s in states if s.kind == "singlet"]
    assert len(singlets) == 16
    H, _, _ = oracle.full_rabi(params, 16)
    for s in singlets:
        assert np.linalg.norm(H @ s.state - s.energy * s.state) <= 1e-10
        assert s.energy == pytest.approx(s.n * 1.0)


def test_even_exceptional_state():
    params = RabiParams(omega1=1.5, omega2=0.5, g1=0.1, g2=0.1)
    states = exceptional_states(params, n_photons=20)
    assert [s.kind for s in states] == ["even"]
    s = states[0]
    assert s.q == pytest.approx(0.2)
    assert s.energy == pytest.approx(1.0)
    H, _, _ = oracle.full_rabi(params, 20)
    assert np.linalg.norm(H @ s.state - s.state) <= 1e-10


def test_odd_exceptional_state():
    params = RabiParams(omega1=2.5, omega2=0.5, g1=0.12, g2=0.12)
    states = exceptional_states(params, n_photons=20)
    assert [s.kind for s in states] == ["odd"]
    s = states[0]
    assert s.q == pytest.approx(2 * 0.12 / 3.0)
    H, _, _ = oracle.full_rabi(params, 20)
    assert np.linalg.norm(H @ s.state - s.state) <= 1e-10


def test_exceptional_states_empty_when_inapplicable():
    assert exceptional_states(RabiParams(omega1=1.5, omega2=0.5,
                                         g1=0.1, g2=0.2)) == []
    assert exceptional_states(RabiParams(omega1=1.4, omega2=0.7,
                                         g1=0.1, g2=0.1)) == []
