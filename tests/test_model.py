import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from rabigeom import model, numerics
from rabigeom.model import (RabiParams, adiabatic_eigensystem,
                            build_block, build_full_rabi, displacement_matrix, equal_frequency_k1,
                            exceptional_states, jc_eigensystem, solve_block,
                            solve_parity_sector)


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
    fm = build_full_rabi(params, n_photons=12, rwa=True)
    # flatnonzero scans qubit blocks in the order (11, 10, 01, 00), which is
    # exactly the printed block basis ordering
    ix = np.flatnonzero(fm.excitation == k)
    projected = fm.matrix[np.ix_(ix, ix)]
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
    ef = equal_frequency_k1(params)
    assert ef.big_theta_1 == pytest.approx(0.03, abs=1e-15)
    assert ef.energies[1] == pytest.approx(0.01, abs=1e-15)
    assert ef.energies[2] == pytest.approx(-0.02, abs=1e-15)


def test_equal_frequency_k1_angles():
    assert equal_frequency_k1(RabiParams.equal_frequency(0.0, 0.1, 0.1)
                              ).theta_1_2 == pytest.approx(math.pi / 2)
    ef = equal_frequency_k1(RabiParams.equal_frequency(0.2, 0.1, 0.0))
    jc = jc_eigensystem(RabiParams.jc(0.2, 0.1), 1)
    assert ef.alpha == pytest.approx(0.0)
    assert ef.theta_1_2 == pytest.approx(jc.theta_k, abs=1e-12)
    # Psi2/Psi3 reduce to the JC doublet on {|10,0>, |00,1>}
    assert np.allclose(ef.states_block[1], [jc.state_plus[0], 0.0,
                                            jc.state_plus[1]], atol=1e-12)


def test_equal_frequency_requires_equal():
    with pytest.raises(model.NotEqualFrequency):
        equal_frequency_k1(RabiParams(omega1=1.0, omega2=0.9, g1=0.1, g2=0.1))


# ---------------------------------------------------------------------------
# plain-Fock full model
# ---------------------------------------------------------------------------

def test_full_rabi_decoupled_energies():
    params = RabiParams(omega1=0.9, omega2=0.3)
    fm = build_full_rabi(params, n_photons=12)
    vals = np.sort(np.diag(fm.matrix))
    expect = np.sort([n + s1 * 0.45 + s2 * 0.15
                      for n in range(12) for (s1, s2) in model._QUBIT_CONFIGS])
    assert np.allclose(np.sort(numerics.eigh(fm.matrix).eigenvalues), expect,
                       atol=1e-12)
    assert np.allclose(vals, expect, atol=1e-12)


def test_full_rabi_parity_block_structure():
    params = RabiParams(omega1=1.3, omega2=0.7, g1=0.21, g2=0.13)
    fm = build_full_rabi(params, n_photons=14)
    even = fm.parity_indices(1)
    odd = fm.parity_indices(-1)
    assert np.all(fm.matrix[np.ix_(even, odd)] == 0.0)
    assert np.all(fm.matrix[np.ix_(odd, even)] == 0.0)
    assert np.array_equal(fm.matrix, fm.matrix.T)


def test_full_rabi_singlets_are_exact():
    params = RabiParams(omega1=1.1, omega2=1.1, g1=0.25, g2=0.25)
    fm = build_full_rabi(params, n_photons=20)
    for n in (0, 3, 7):
        v = np.zeros(fm.dim)
        v[fm.basis_index("10", n)] = 1 / math.sqrt(2)
        v[fm.basis_index("01", n)] = -1 / math.sqrt(2)
        assert np.linalg.norm(fm.matrix @ v - n * v) <= 1e-12


def test_full_rabi_constant_eigenvalue_in_even_sector():
    params = RabiParams(omega1=1.4, omega2=0.6, g1=0.17, g2=0.17)
    fm = build_full_rabi(params, n_photons=80)
    vals, _, _ = solve_parity_sector(fm, 1, check_truncation=False)
    assert np.min(np.abs(vals - 1.0)) <= 1e-10


def test_full_rabi_truncation_warning():
    params = RabiParams(omega1=1.0, omega2=1.0, g1=0.9, g2=0.9)
    fm = build_full_rabi(params, n_photons=10)
    with pytest.warns(model.TruncationWarning):
        solve_parity_sector(fm, 1)


def test_rwa_flag_conserves_excitation():
    params = RabiParams(omega1=1.2, omega2=0.8, g1=0.1, g2=0.2)
    fm = build_full_rabi(params, n_photons=12, rwa=True)
    k = fm.excitation
    coupling = fm.matrix - np.diag(np.diag(fm.matrix))
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


def _rwa_levels_per_block(params, parity, n_levels, drop_singlets):
    """Reference: one eigh per excitation block and a scalar singlet test."""
    singlet_like = drop_singlets and params.identical_qubits()
    energies = []
    for k in range(0 if parity == 1 else 1, 2 * n_levels + 3, 2):
        values, coeffs = solve_block(params, k)
        for energy, (a, b, c, d) in zip(values, coeffs.T):
            if (singlet_like and k >= 1
                    and abs(energy - (k - 1) * params.omega_c) < 1e-9
                    and abs(a) < 1e-9 and abs(d) < 1e-9
                    and abs(b + c) < 1e-9):
                continue
            energies.append(energy)
    return np.sort(energies)[:n_levels]


@pytest.mark.parametrize("params", [
    RabiParams.equal_frequency(0.5, 0.2, 0.2),
    RabiParams.equal_frequency(0.0, 0.0, 0.0),
    RabiParams.equal_frequency(0.3, 0.1, 0.25),
    RabiParams(omega1=1.2, omega2=0.7, g1=0.1, g2=0.15),
])
def test_rwa_parity_levels_match_per_block_solves(params):
    for parity in (1, -1):
        for n_levels in (1, 8):
            for drop in (False, True):
                got = model.rwa_parity_levels(params, parity, n_levels, drop)
                want = _rwa_levels_per_block(params, parity, n_levels, drop)
                assert np.array_equal(got, want)
    # coupled identical qubits: dropping singlets removes levels
    if params.identical_qubits() and params.g1 > 0.0:
        assert not np.array_equal(model.rwa_parity_levels(params, -1, 8, True),
                                  model.rwa_parity_levels(params, -1, 8))


@pytest.mark.parametrize("g", [0.5, 2.0, 3.0, 5.0])
def test_rwa_parity_levels_match_plain_fock_rwa(g):
    # strong couplings pull high excitation blocks below the low ones
    params = RabiParams.equal_frequency(0.5, g, g)
    fm = build_full_rabi(params, 120, rwa=True)
    for parity in (1, -1):
        want, _, _ = solve_parity_sector(fm, parity)
        got = model.rwa_parity_levels(params, parity, 8)
        assert np.max(np.abs(got - want[:8])) <= 1e-12


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
    fm = build_full_rabi(params, n_photons=60)
    exact = np.sort(np.concatenate([
        solve_parity_sector(fm, k, check_truncation=False)[0][:6]
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
                    for (s1, s2) in model._QUBIT_CONFIGS)[:6]
    assert np.allclose(sorted(got)[:6], expect, atol=1e-8)


def test_truncated_matches_plain_fock():
    params = RabiParams(omega1=1.5, omega2=1.5, g1=0.25, g2=0.25)
    fm = build_full_rabi(params, n_photons=4 * 51)
    for kappa in (1, -1):
        plain, _, _ = solve_parity_sector(fm, kappa, check_truncation=False)
        disp = model.solve_sectors([params], 50, kappa).energies[0, :15]
        assert np.max(np.abs(disp - plain[:15])) <= 1e-8


def test_solve_sectors_tail_population_flags_short_truncation():
    params = RabiParams(omega1=1.0, omega2=1.0, g1=1.4, g2=1.4)
    assert model.solve_sectors([params], 10, 1).tail_population[0] > 1e-8


#: eight points of fig4's grid (Delta = 0.5)
_FIG4_POINTS = np.linspace(0.005, 0.35, 70)[::9]


@pytest.mark.parametrize("kappa", [1, -1])
def test_solve_sectors_matches_per_point_solve(kappa):
    """Batched displaced-Fock kernel against the plain-Fock parity sector.

    In the plain-Fock basis <a^dag a> is diagonal and the |10,0> weight is one
    squared component, so the reference shares no displaced-basis code.
    """
    params_list = [RabiParams.equal_frequency(0.5, g, g) for g in _FIG4_POINTS]
    # unequal couplings displace both ladders, which fixes the relative sign
    # of their |10,0> overlaps
    params_list += [RabiParams.equal_frequency(0.5, 0.1, 0.25),
                    RabiParams(omega1=1.1, omega2=0.8, g1=0.2, g2=0.3)]
    sol = model.solve_sectors(params_list, 50, kappa)
    assert sol.kappa == kappa and sol.energies.shape == (10, 102)
    low = slice(0, 20)
    for i, params in enumerate(params_list):
        fm = build_full_rabi(params, n_photons=80)
        vals, vecs, ix = solve_parity_sector(fm, kappa, check_truncation=False)
        vecs = vecs[:, low]
        assert np.max(np.abs(sol.energies[i, low] - vals[low])) <= 1e-12
        nbar = fm.photon_numbers()[ix] @ vecs**2
        assert np.max(np.abs(sol.photon_numbers[i, low] - nbar)) <= 1e-12
        pos = {b: k for k, b in enumerate(ix)}
        vacuum = pos.get(fm.basis_index("10", 0))
        if kappa == 1:
            assert vacuum is None
            assert np.array_equal(sol.vacuum_weights[i], np.zeros(102))
        else:
            weights = vecs[vacuum] ** 2
            assert np.max(np.abs(sol.vacuum_weights[i, low] - weights)) <= 1e-13
        # singlets: weight above 1 - 1e-6 on one (|10,n> - |01,n>)/sqrt(2)
        pairs = [(pos[fm.basis_index("10", n)], pos[fm.basis_index("01", n)])
                 for n in range(80) if fm.basis_index("10", n) in pos]
        singlet_weight = np.max([(vecs[a] - vecs[b]) ** 2 / 2.0
                                 for a, b in pairs], axis=0)
        assert np.array_equal(sol.singlet[i, low], singlet_weight > 1.0 - 1e-6)
        assert list(sol.kept(i)) == [j for j in range(102)
                                     if not sol.singlet[i, j]]
    assert np.any(sol.singlet[:, low])


def test_solve_sectors_mixed_points_and_validation():
    params_list = [RabiParams(omega1=1.1, omega2=0.8, g1=0.2, g2=0.3),
                   RabiParams.jc(0.1, 0.2),
                   RabiParams.equal_frequency(-0.2, 0.15, 0.15)]
    sol = model.solve_sectors(params_list, 20, -1)
    fields = ("energies", "photon_numbers", "singlet", "vacuum_weights",
              "tail_population")
    for i, params in enumerate(params_list):
        one = model.solve_sectors([params], 20, -1)
        for name in fields:
            assert np.array_equal(getattr(sol, name)[i], getattr(one, name)[0])
    assert not np.any(sol.singlet[:2])
    with pytest.raises(ValueError):
        model.solve_sectors(params_list, 9, 1)
    with pytest.raises(ValueError):
        model.solve_sectors([], 20, 1)


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
    fm = build_full_rabi(params, n_photons=16)
    for s in singlets:
        assert np.linalg.norm(fm.matrix @ s.state - s.energy * s.state) <= 1e-10
        assert s.energy == pytest.approx(s.n * 1.0)


def test_even_exceptional_state():
    params = RabiParams(omega1=1.5, omega2=0.5, g1=0.1, g2=0.1)
    states = exceptional_states(params, n_photons=20)
    assert [s.kind for s in states] == ["even"]
    s = states[0]
    assert s.q == pytest.approx(0.2)
    assert s.energy == pytest.approx(1.0)
    fm = build_full_rabi(params, n_photons=20)
    assert np.linalg.norm(fm.matrix @ s.state - s.state) <= 1e-10


def test_odd_exceptional_state():
    params = RabiParams(omega1=2.5, omega2=0.5, g1=0.12, g2=0.12)
    states = exceptional_states(params, n_photons=20)
    assert [s.kind for s in states] == ["odd"]
    s = states[0]
    assert s.q == pytest.approx(2 * 0.12 / 3.0)
    fm = build_full_rabi(params, n_photons=20)
    assert np.linalg.norm(fm.matrix @ s.state - s.state) <= 1e-10


def test_exceptional_states_empty_when_inapplicable():
    assert exceptional_states(RabiParams(omega1=1.5, omega2=0.5,
                                         g1=0.1, g2=0.2)) == []
    assert exceptional_states(RabiParams(omega1=1.4, omega2=0.7,
                                         g1=0.1, g2=0.1)) == []
