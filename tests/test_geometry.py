import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import oracle
from rabigeom import geometry, model, numerics
from rabigeom.geometry import (berry_phase_block_closed_form,
                               berry_phase_fock_state, berry_phase_jc,
                               connection_field, curvature_from_connection,
                               detect_anticrossing, locate_phase_jump,
                               noneigen_geometric_phase,
                               noneigen_phase_beyond_rwa, phase_by_surface_integral,
                               radial_field, vacuum_phase_jc,
                               vacuum_phase_two_qubit)
from rabigeom.model import RabiParams

TWO_PI = 2 * math.pi


def _slot_photons(k):
    """Photon numbers of the block slots (a, b, c, d) of block k."""
    return [k - 2, k - 1, k - 1, k]


# ---------------------------------------------------------------------------
# oracle identity gamma = 2 pi <a^dag a>
# ---------------------------------------------------------------------------

def test_ground_state_phase_is_zero():
    _, coeffs = model.solve_block(RabiParams(omega1=1.2, omega2=0.7,
                                             g1=0.2, g2=0.1), 0)
    assert berry_phase_fock_state(coeffs[:, 0], _slot_photons(0)) == 0.0
    assert berry_phase_block_closed_form(0, coeffs)[0] == 0.0


def test_jc_resonant_plus_phase_is_pi():
    params = RabiParams.jc(0.0, 0.08)
    assert berry_phase_jc(params, 1, "+") == \
        pytest.approx(math.pi, abs=1e-12)
    eig = model.jc_eigensystem(params, 1)
    got = geometry.berry_phase_fock_state(eig.state_plus, [0, 1])
    assert got == pytest.approx(math.pi, abs=1e-12)


def test_two_qubit_k2_identity_random():
    rng = np.random.default_rng(5)
    for _ in range(25):
        params = RabiParams(omega1=rng.uniform(0.5, 1.5),
                            omega2=rng.uniform(0.5, 1.5),
                            g1=rng.uniform(0.01, 0.3),
                            g2=rng.uniform(0.01, 0.3))
        _, coeffs = model.solve_block(params, 2)
        for l in (1, 2, 3, 4):
            closed = geometry.berry_phase_two_qubit(params, 2, l)
            oracle = berry_phase_fock_state(coeffs[:, l - 1], _slot_photons(2))
            assert abs(closed - oracle) <= 1e-9


def test_jc_minus_zero_coupling_winding():
    params = RabiParams.jc(0.3, 0.0)
    for k in (1, 2, 5):
        got = berry_phase_jc(params, k, "-")
        assert got == pytest.approx(TWO_PI * k, abs=1e-12)


def test_equal_frequency_l3_resonance():
    params = RabiParams.equal_frequency(0.0, 0.05, 0.05)
    got = geometry.berry_phase_equal_frequency(params, 3)
    assert got == pytest.approx(math.pi, abs=1e-12)


def test_exceptional_phase_value():
    got = geometry.berry_phase_exceptional(0.2)
    cos_theta = (1 - 0.08) / (1 + 0.08)
    assert got == pytest.approx(math.pi * (1 - cos_theta), abs=1e-12)
    assert got == pytest.approx(0.46542, abs=1e-5)
    # oracle identity on the displayed state
    params = RabiParams(omega1=1.5, omega2=0.5, g1=0.1, g2=0.1)
    state = model.exceptional_states(params, n_photons=16)[0]
    fock = berry_phase_fock_state(
        state.state, np.tile(np.arange(16), 4))
    assert fock == pytest.approx(got, abs=1e-12)


def test_label_errors():
    params = RabiParams.jc(0.1, 0.1)
    with pytest.raises(geometry.LabelError):
        berry_phase_jc(params, 1, "x")
    with pytest.raises(geometry.LabelError):
        geometry.berry_phase_two_qubit(params, 1, 9)
    with pytest.raises(geometry.LabelError):
        geometry.berry_phase_equal_frequency(
            RabiParams.equal_frequency(0.1, 0.1, 0.1), 4)


def test_unnormalized_state_rejected():
    with pytest.raises(geometry.NotNormalized):
        berry_phase_fock_state([0.5, 0.5], [0, 1])


def test_gauge_invariance_under_sign_flips():
    params = RabiParams(omega1=1.1, omega2=0.9, g1=0.12, g2=0.21)
    _, coeffs = model.solve_block(params, 3)
    for c in coeffs.T:
        assert berry_phase_fock_state(-c, _slot_photons(3)) == \
            berry_phase_fock_state(c, _slot_photons(3))
    assert np.array_equal(berry_phase_block_closed_form(3, -coeffs),
                          berry_phase_block_closed_form(3, coeffs))


# ---------------------------------------------------------------------------
# connection, curvature, Stokes
# ---------------------------------------------------------------------------

def test_connection_values():
    params = RabiParams.jc(0.1, 0.05)
    plus = connection_field(params, "jc_plus", [0.0, math.pi / 3])
    assert plus[0] == pytest.approx(0.0, abs=1e-15)
    minus = connection_field(params, "jc_minus", [math.pi / 2])
    assert minus[0] == pytest.approx(0.5, abs=1e-12)
    non = connection_field(params, "noneigen_jc", [0.3, 1.1])
    assert non[0] == pytest.approx(0.5 * math.sin(0.3) ** 2, abs=1e-12)


def test_jc_connection_check_does_not_use_the_closed_form(monkeypatch):
    def closed_form(*args):
        raise AssertionError("the JC connection check used jc_eigensystem")
    monkeypatch.setattr(model, "jc_eigensystem", closed_form)
    params = RabiParams.jc(0.1, 0.05)
    thetas = np.linspace(0.0, math.pi, 13)
    for label in ("jc_plus", "jc_minus", "noneigen_jc"):
        connection_field(params, label, thetas)  # verify=True checks <n>


def test_connection_two_qubit_consistency():
    params = RabiParams.equal_frequency(0.07, 0.04, 0.09)
    thetas = np.linspace(0.05, math.pi - 0.05, 9)
    for label in ("two_qubit_1", "two_qubit_2", "two_qubit_3",
                  "noneigen_two_qubit"):
        connection_field(params, label, thetas)  # verify=True checks <n>


def test_curvature_matches_analytic_forms():
    h = 1e-3
    thetas = np.arange(-h, math.pi + 1.5 * h, h)
    params = RabiParams.jc(0.1, 0.05)
    a_phi = connection_field(params, "jc_plus", thetas, verify=False)
    got = curvature_from_connection(thetas, a_phi)
    assert np.max(np.abs(got - 0.5 * np.sin(thetas))) <= 1e-6

    curv = curvature_from_connection(thetas, np.full_like(thetas, 0.7))
    assert np.max(np.abs(curv)) <= 1e-12

    alpha = math.pi / 4
    weighted = 0.5 * np.sin(thetas) ** 2 * math.cos(alpha) ** 2
    got = curvature_from_connection(thetas, weighted)
    assert np.max(np.abs(got - 0.25 * np.sin(2 * thetas))) <= 1e-6


def test_curvature_warns_on_coarse_grid():
    thetas = np.linspace(0.0, math.pi, 20)
    with pytest.warns(geometry.AccuracyWarning):
        curvature_from_connection(thetas, np.sin(thetas / 2) ** 2)


def _theta_grid(theta_max, h=1e-3):
    return np.linspace(0.0, theta_max, max(3, round(theta_max / h) + 1))


def _surface_integral(fn, theta_max, h=1e-3):
    thetas = _theta_grid(theta_max, h)
    return phase_by_surface_integral(thetas, [fn(t) for t in thetas])


def test_surface_integral_full_sphere_monopole():
    assert _surface_integral(lambda t: 0.5 * math.sin(t), math.pi) == \
        pytest.approx(TWO_PI, abs=1e-6)


def test_surface_integral_vacuum_phase():
    params = RabiParams.jc(0.12, 0.07)
    theta1 = model.spectral_angles(params, 1).theta_k
    want = vacuum_phase_jc(params)
    assert _surface_integral(lambda t: 0.5 * math.sin(2 * t), theta1) == \
        pytest.approx(want, abs=1e-6)


def test_surface_integral_two_qubit_vacuum_phase():
    params = RabiParams.equal_frequency(-0.08, 0.03, 0.06)
    theta, alpha, _ = model.equal_frequency_angles(params)
    ca2 = math.cos(alpha) ** 2
    want = vacuum_phase_two_qubit(params)
    assert _surface_integral(lambda t: 0.5 * math.sin(2 * t) * ca2,
                             theta) == pytest.approx(want, abs=1e-6)


def test_stokes_reproduces_eigenstate_phases():
    """Finite-difference curvature integrates back to the closed forms.

    The south-anchored families (jc_minus, two_qubit_3) carry one full
    monopole winding of 2 pi on top of the north-cap integral.
    """
    rng = np.random.default_rng(12)
    for _ in range(10):
        params = RabiParams.jc(rng.uniform(-0.4, 0.4), rng.uniform(0.02, 0.3))
        theta1 = model.spectral_angles(params, 1).theta_k
        thetas = _theta_grid(theta1)
        for label, branch, winding in (("jc_plus", "+", 0.0),
                                       ("jc_minus", "-", TWO_PI)):
            a_phi = connection_field(params, label, thetas, verify=False)
            curv = curvature_from_connection(thetas, a_phi)
            got = phase_by_surface_integral(thetas, curv) + winding
            want = berry_phase_jc(params, 1, branch)
            assert abs(got - want) <= 1e-5


def test_radial_field_values():
    thetas = [0.0, math.pi / 2, 3 * math.pi / 4]
    eig = radial_field("eigen_jc", thetas)
    assert all(f == pytest.approx(1.0) for f in eig)
    non = radial_field("noneigen_jc", thetas)
    assert non[1] == pytest.approx(0.0, abs=1e-15)
    assert non[2] < 0.0
    with pytest.raises(geometry.LabelError):
        radial_field("bogus", thetas)


# ---------------------------------------------------------------------------
# noneigenstate phases
# ---------------------------------------------------------------------------

def test_noneigen_weighted_sum_jc_resonance():
    params = RabiParams.jc(0.0, 0.1)
    eig = model.jc_eigensystem(params, 1)
    half = eig.theta_k / 2
    weights = [math.cos(half) ** 2, math.sin(half) ** 2]
    gammas = [berry_phase_jc(params, 1, "+"),
              berry_phase_jc(params, 1, "-")]
    got = noneigen_geometric_phase(weights, gammas)
    assert got == pytest.approx(math.pi, abs=1e-12)
    assert got / TWO_PI <= 0.5 + 1e-12


def test_noneigen_two_qubit_resonance_and_suppression():
    params = RabiParams.equal_frequency(0.0, 0.05, 0.05)
    assert vacuum_phase_two_qubit(params) == pytest.approx(
        math.pi / 2, abs=1e-12)
    lopsided = RabiParams.equal_frequency(0.0, 0.001, 0.4)
    assert vacuum_phase_two_qubit(lopsided) <= 1e-4


def test_noneigen_weight_error():
    with pytest.raises(geometry.WeightError):
        noneigen_geometric_phase([0.6, 0.3], [1.0, 1.0])


def test_noneigen_bounds_random():
    rng = np.random.default_rng(9)
    for _ in range(50):
        params = RabiParams.equal_frequency(rng.uniform(-0.5, 0.5),
                                            rng.uniform(0.0, 0.3),
                                            rng.uniform(0.0, 0.3))
        jc = vacuum_phase_jc(RabiParams.jc(params.delta, max(params.g1, 1e-6)))
        assert -1e-12 <= jc <= math.pi + 1e-12
        tq = vacuum_phase_two_qubit(params)
        ca2 = math.cos(model.spectral_angles(params, 1).alpha) ** 2
        assert -1e-12 <= tq <= math.pi * ca2 + 1e-12
        assert tq / TWO_PI <= 0.25 + 1e-12 or params.g1 != params.g2


def test_noneigen_curvature_detuning_antisymmetry():
    for g in (0.02, 0.1):
        plus = geometry.noneigen_curvature_two_qubit(
            RabiParams.equal_frequency(0.1, g, g))
        minus = geometry.noneigen_curvature_two_qubit(
            RabiParams.equal_frequency(-0.1, g, g))
        assert plus == pytest.approx(-minus, abs=1e-12)


def test_beyond_rwa_phase_reduces_to_rwa():
    params = RabiParams.equal_frequency(0.1, 1e-4, 1e-4)
    got, weight_total = noneigen_phase_beyond_rwa(params, M=20)
    want = vacuum_phase_two_qubit(params)
    assert abs(got - want) <= 1e-4
    assert weight_total == pytest.approx(1.0, abs=1e-10)


def test_beyond_rwa_weight_error_when_truncation_too_small():
    # M = 10 displaced levels keep only 0.99858 of |10,0>'s weight at g = 1
    bad = RabiParams.equal_frequency(0.5, 1.0, 1.0)
    with pytest.raises(geometry.WeightError):
        noneigen_phase_beyond_rwa(bad, M=10)
    # in the plain-Fock sector of the sweeps |10,0> is a basis vector, so
    # its weights sum to 1 less what the floor drops, at any truncation
    good = RabiParams.equal_frequency(0.5, 0.1, 0.1)
    odd = model.solve_sectors([good, bad], 10, -1)
    _, totals = geometry.noneigen_phases_beyond_rwa(odd)
    assert np.all(np.abs(totals - 1.0) <= 1e-10)


def test_beyond_rwa_batched_matches_per_point():
    params_list = [RabiParams.equal_frequency(delta, g, g)
                   for delta in (0.5, -0.2) for g in np.linspace(0.005, 0.35, 9)]
    odd = model.solve_sectors(params_list, 50, -1)
    gammas, totals = geometry.noneigen_phases_beyond_rwa(odd)
    assert gammas.shape == totals.shape == (len(params_list),)
    for params, got, total in zip(params_list, gammas, totals):
        want, want_total = noneigen_phase_beyond_rwa(params)
        assert abs(got - want) <= 1e-12
        assert abs(total - want_total) <= 1e-12
    with pytest.raises(ValueError):
        geometry.noneigen_phases_beyond_rwa(
            model.solve_sectors(params_list[:1], 50, 1))


def test_beyond_rwa_weak_coupling_agreement():
    for delta in (0.1, -0.1):
        params = RabiParams.equal_frequency(delta, 0.02, 0.02)
        got = noneigen_phase_beyond_rwa(params)[0]
        want = vacuum_phase_two_qubit(params)
        assert abs(got - want) <= 5e-2


def test_beyond_rwa_symmetry_breaking():
    """Delta -> -Delta symmetry of the RWA phase fails beyond the RWA."""
    g = 0.2
    plus = noneigen_phase_beyond_rwa(RabiParams.equal_frequency(0.2, g, g))[0]
    minus = noneigen_phase_beyond_rwa(RabiParams.equal_frequency(-0.2, g, g))[0]
    rwa_plus = vacuum_phase_two_qubit(RabiParams.equal_frequency(0.2, g, g))
    rwa_minus = vacuum_phase_two_qubit(RabiParams.equal_frequency(-0.2, g, g))
    assert abs(rwa_plus - rwa_minus) <= 1e-12
    assert abs(plus - minus) > 1e-2


def test_beyond_rwa_matches_plain_fock_oracle():
    """Eigenstate phases of the truncated sectors match 2 pi <n> of the
    whole plain-Fock space."""
    params = RabiParams(omega1=1.5, omega2=1.5, g1=0.15, g2=0.15)
    for kappa in (1, -1):
        got = TWO_PI * model.solve_sectors([params], 50, kappa).photon_numbers[0]
        vals, vecs, ix = oracle.parity_sector(params, 4 * 51, kappa)
        local_ns = ix % (4 * 51)
        for rank in range(12):
            plain = TWO_PI * float(local_ns @ (vecs[:, rank] ** 2))
            assert abs(got[rank] - plain) <= 1e-6


@pytest.mark.parametrize("g,tol", [(0.005, 5e-3), (0.02, 6e-2)])
def test_berry_phase_adiabatic_matches_sector_states(g, tol):
    """The adiabatic phase against 2 pi <a^dag a> of the full sector state
    nearest in energy, for n <= 2, both parities and both branches.

    The approximation drops the couplings between displaced levels, so it
    degrades with g; the branches it gets exactly are the pure |10>/|01>-type
    ones (d1 = 0): the spin singlets, where beta2 = 0 makes the state a
    plain Fock state with phase 2 n pi.
    """
    params = RabiParams(omega1=0.5, omega2=0.5, g1=g, g2=g)
    exact = 0
    for kappa in (1, -1):
        sol = model.solve_sectors([params], 50, kappa)
        for n in range(3):
            states = model.adiabatic_eigensystem(params, n, kappa)
            for branch, state in zip((1, -1), states):
                j = np.argmin(np.abs(sol.energies[0] - state.energy))
                gamma = geometry.berry_phase_adiabatic(params, n, kappa, branch)
                diff = abs(gamma - TWO_PI * sol.photon_numbers[0, j])
                assert diff <= tol
                if state.d1n == 0.0:
                    exact += 1
                    assert diff <= 1e-13
    assert exact == 3


def test_beyond_rwa_weighted_phase_matches_plain_fock():
    """The |10,0> phase, batched and per point, against a plain-Fock sum.

    In the plain-Fock basis each weight is one squared component and <a^dag a>
    is diagonal; weights below the same WEIGHT_FLOOR are dropped.
    """
    params_list = [RabiParams.equal_frequency(delta, g, g) for delta in (0.5, -0.5)
                   for g in np.linspace(0.005, 0.35, 70)[::9]]
    batched, _ = geometry.noneigen_phases_beyond_rwa(
        model.solve_sectors(params_list, 50, -1))
    for params, got in zip(params_list, batched):
        _, vecs, ix = oracle.parity_sector(params, 80, -1)
        weights = vecs[list(ix).index(oracle.index("10", 0, 80))] ** 2
        weights = np.where(weights >= geometry.WEIGHT_FLOOR, weights, 0.0)
        plain = TWO_PI * float(weights @ ((ix % 80) @ vecs**2))
        assert abs(got - plain) <= 1e-13
        assert abs(noneigen_phase_beyond_rwa(params)[0] - plain) <= 1e-13


# ---------------------------------------------------------------------------
# anti-crossing detection
# ---------------------------------------------------------------------------

def _on_delta_half(g):
    return RabiParams.equal_frequency(0.5, g, g)


@functools.lru_cache(maxsize=None)
def _anticrossing(kappa):
    return detect_anticrossing(_on_delta_half, kappa=kappa, g_min=0.2,
                               g_max=0.32)


def test_detect_anticrossing_even_sector():
    res = detect_anticrossing(_on_delta_half, kappa=1, g_min=0.2, g_max=0.32,
                              M=40)
    assert 0.25 <= res.g_star <= 0.27
    assert res.min_gap < 0.05
    # the pair bends by ~129 per omega_c^2; the other low levels by < 2
    assert min(map(abs, res.curvature)) > 100


def test_detect_anticrossing_monotone_raises():
    with pytest.raises(geometry.NoAnticrossing):
        detect_anticrossing(_on_delta_half, kappa=1, g_min=0.01, g_max=0.05,
                            M=30)


@pytest.mark.parametrize("kappa", [1, -1])
def test_detect_anticrossing_solves_no_eigenvectors(monkeypatch, kappa):
    """The scan, the golden section and the curvature read energies only."""
    shapes = []

    def recording_eigh(matrix):
        shapes.append(np.shape(matrix))
        return eigh(matrix)
    eigh = numerics.eigh
    monkeypatch.setattr(numerics, "eigh", recording_eigh)
    res = detect_anticrossing(_on_delta_half, kappa=kappa, g_min=0.2,
                              g_max=0.32)
    assert res == _anticrossing(kappa)
    assert shapes == []


@pytest.mark.parametrize("kappa", [1, -1])
def test_anticrossing_curvature_is_the_slope_of_the_photon_number(kappa):
    """Hellmann-Feynman: <a^dag a> = dE/d omega_c, so the curvature is the
    omega_c slope of the pair's photon numbers, here read from
    solve_sectors' eigenvectors (agreement 1.5e-5 even, 3.2e-5 odd)."""
    res = _anticrossing(kappa)
    star, h = _on_delta_half(res.g_star), 1e-4
    sol = model.solve_sectors([replace(star, omega_c=1.0 - h),
                               replace(star, omega_c=1.0 + h)], 50, kappa)
    below, above = (sol.photon_numbers[i, sol.kept(i)[list(res.level_pair)]]
                    for i in (0, 1))
    np.testing.assert_allclose(res.curvature, (above - below) / (2 * h),
                               rtol=1e-3)


@pytest.mark.parametrize("kappa", [1, -1])
def test_anticrossing_critical_loop_rate_moves_the_phases_by_tol(kappa):
    """Driving the loop at rate omega is the cavity red-shifted by omega, so
    the exact Aharonov-Anandan phases are 2 pi <a^dag a> at omega_c - omega.
    At omega* = tol / (2 pi max|curvature|) the most a phase of the 8 lowest
    kept levels moves is tol, to first order (measured 1.0002 tol)."""
    tol = 0.01
    res = _anticrossing(kappa)
    omega = tol / (TWO_PI * max(map(abs, res.curvature)))
    star = _on_delta_half(res.g_star)
    sol = model.solve_sectors([star, replace(star, omega_c=1.0 - omega)], 50,
                              kappa)
    still, driven = (TWO_PI * sol.photon_numbers[i, sol.kept(i)[:8]]
                     for i in (0, 1))
    assert 0.95 * tol <= np.max(np.abs(driven - still)) <= 1.05 * tol


_GRID = np.linspace(0.2, 0.32, 201)


@pytest.mark.parametrize("f,bracket,wider_right", [
    (lambda x: (x - 0.3) ** 2, (0.0, 0.2, 1.0), True),
    (lambda x: math.cosh(x - 1.7), (1.0, 1.9, 2.0), False),
    (lambda x: 0.1 * x - math.exp(-(x + 2.0) ** 2), (-3.0, -2.1, -1.8), False),
    # a flat bottom ties f1 and f2 at the final pick
    (lambda x: max(abs(x - 0.5), 0.1), (0.0, 0.5, 1.5), True),
    # coarse-grid brackets: the two spacings differ only by rounding
    (lambda x: math.hypot(x - 0.2613, 0.01), tuple(_GRID[101:104]), True),
    (lambda x: math.hypot(x - 0.2617, 0.01), tuple(_GRID[102:105]), False),
])
def test_golden_matches_scipy_bit_for_bit(f, bracket, wider_right):
    xa, xb, xc = bracket
    # the first new point goes into the wider side of xb
    assert (abs(xc - xb) > abs(xb - xa)) == wider_right
    ref = minimize_scalar(f, bracket=bracket, method="golden",
                          options={"xtol": 1e-7})
    x, fx = geometry._golden(f, *bracket)
    assert ref.success
    assert x == ref.x and fx == ref.fun


def test_detect_anticrossing_tied_bracket_raises():
    # couplings quantized to 0.005 make neighbouring grid points share one gap,
    # so the coarse minimum ties with its right neighbour
    def params_of_g(g):
        q = round(g / 0.005) * 0.005
        return RabiParams.equal_frequency(0.5, q, q)
    with pytest.raises(geometry.NoAnticrossing, match="flat at its minimum"):
        detect_anticrossing(params_of_g, kappa=1, g_min=0.2, g_max=0.32, M=30)


@functools.lru_cache(maxsize=None)
def _scans_at(delta, M, scan_M):
    """detect_anticrossing (even sector) and locate_phase_jump over the
    window [0.2, 0.32] at delta, refined at M after scans at scan_M."""
    def params_of_g(g):
        return RabiParams.equal_frequency(delta, g, g)
    ac = detect_anticrossing(params_of_g, kappa=1, g_min=0.2, g_max=0.32, M=M,
                             scan_M=scan_M)
    jump = locate_phase_jump(params_of_g, 0.2, 0.32, M=M, scan_M=scan_M)
    return ac, (jump.g_jump, jump.jump_size, jump.max_slope, jump.on_edge)


@pytest.mark.parametrize("scan_M", [20, 30, 40])
@pytest.mark.parametrize("delta", [-0.6, -0.2, 0.2, 0.5, 0.6])
def test_scan_cutoff_only_brackets(delta, scan_M):
    """The coarse scans only pick the bracket (and the level pair), which is
    the same at every scan cutoff the ladder offers: everything returned is
    refined at M, bit for bit as with scans at M."""
    assert _scans_at(delta, 50, scan_M) == _scans_at(delta, 50, 50)
