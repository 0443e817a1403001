import math

import numpy as np
import pytest

from rabigeom import geometry, model
from rabigeom.geometry import (ConnectionSample, berry_phase_closed_form,
                               berry_phase_eigenstate, connection_field,
                               curvature_from_connection, detect_anticrossing, noneigen_geometric_phase,
                               noneigen_phase_beyond_rwa, phase_by_surface_integral,
                               radial_field, vacuum_phase_jc,
                               vacuum_phase_two_qubit)
from rabigeom.model import DisplacedBasis, RabiParams

TWO_PI = 2 * math.pi


# ---------------------------------------------------------------------------
# oracle identity gamma = 2 pi <a^dag a>
# ---------------------------------------------------------------------------

def test_ground_state_phase_is_zero():
    pairs = model.solve_block(RabiParams(omega1=1.2, omega2=0.7,
                                         g1=0.2, g2=0.1), 0)
    assert berry_phase_eigenstate(pairs[0]).gamma == 0.0


def test_jc_resonant_plus_phase_is_pi():
    params = RabiParams.jc(0.0, 0.08)
    assert berry_phase_closed_form(params, ("jc", 1, "+")).gamma == \
        pytest.approx(math.pi, abs=1e-12)
    eig = model.jc_eigensystem(params, 1)
    got = geometry.berry_phase_fock_state(eig.state_plus, [0, 1])
    assert got.gamma == pytest.approx(math.pi, abs=1e-12)


def test_two_qubit_k2_identity_random():
    rng = np.random.default_rng(5)
    for _ in range(25):
        params = RabiParams(omega1=rng.uniform(0.5, 1.5),
                            omega2=rng.uniform(0.5, 1.5),
                            g1=rng.uniform(0.01, 0.3),
                            g2=rng.uniform(0.01, 0.3))
        for pair in model.solve_block(params, 2):
            closed = berry_phase_closed_form(params, ("two_qubit", 2, pair.l))
            oracle = berry_phase_eigenstate(pair)
            assert abs(closed.gamma - oracle.gamma) <= 1e-9


def test_jc_minus_zero_coupling_winding():
    params = RabiParams.jc(0.3, 0.0)
    for k in (1, 2, 5):
        got = berry_phase_closed_form(params, ("jc", k, "-")).gamma
        assert got == pytest.approx(TWO_PI * k, abs=1e-12)


def test_equal_frequency_l3_resonance():
    params = RabiParams.equal_frequency(0.0, 0.05, 0.05)
    got = berry_phase_closed_form(params, ("equal_frequency", 3)).gamma
    assert got == pytest.approx(math.pi, abs=1e-12)


def test_exceptional_phase_value():
    got = berry_phase_closed_form(None, ("exceptional", 0.2)).gamma
    cos_theta = (1 - 0.08) / (1 + 0.08)
    assert got == pytest.approx(math.pi * (1 - cos_theta), abs=1e-12)
    assert got == pytest.approx(0.46542, abs=1e-5)
    # oracle identity on the displayed state
    params = RabiParams(omega1=1.5, omega2=0.5, g1=0.1, g2=0.1)
    state = model.exceptional_states(params, n_photons=16)[0]
    fock = geometry.berry_phase_fock_state(
        state.state, np.tile(np.arange(16), 4))
    assert fock.gamma == pytest.approx(got, abs=1e-12)


def test_label_errors():
    params = RabiParams.jc(0.1, 0.1)
    with pytest.raises(geometry.LabelError):
        berry_phase_closed_form(params, ("jc", 1, "x"))
    with pytest.raises(geometry.LabelError):
        berry_phase_closed_form(params, ("two_qubit", 1, 9))
    with pytest.raises(geometry.LabelError):
        berry_phase_closed_form(params, ("nope",))


def test_unnormalized_state_rejected():
    with pytest.raises(geometry.NotNormalized):
        geometry.berry_phase_fock_state([0.5, 0.5], [0, 1])


def test_gauge_invariance_under_sign_flips():
    params = RabiParams(omega1=1.1, omega2=0.9, g1=0.12, g2=0.21)
    for pair in model.solve_block(params, 3):
        flipped = model.BlockEigenpair(pair.k, pair.l, pair.energy,
                                       -pair.coeffs, -pair.a, -pair.b,
                                       -pair.c, -pair.d)
        assert berry_phase_eigenstate(flipped).gamma == \
            berry_phase_eigenstate(pair).gamma


# ---------------------------------------------------------------------------
# connection, curvature, Stokes
# ---------------------------------------------------------------------------

def test_connection_values():
    params = RabiParams.jc(0.1, 0.05)
    plus = connection_field(params, "jc_plus", [0.0, math.pi / 3])
    assert plus[0].A_phi == pytest.approx(0.0, abs=1e-15)
    assert all(s.A_theta == 0.0 for s in plus)
    minus = connection_field(params, "jc_minus", [math.pi / 2])
    assert minus[0].A_phi == pytest.approx(0.5, abs=1e-12)
    non = connection_field(params, "noneigen_jc", [0.3, 1.1])
    assert non[0].A_phi == pytest.approx(0.5 * math.sin(0.3) ** 2, abs=1e-12)


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
    samples = connection_field(params, "jc_plus", thetas, verify=False)
    curv = curvature_from_connection(samples)
    got = np.array([c.F_theta_phi for c in curv])
    assert np.max(np.abs(got - 0.5 * np.sin(thetas))) <= 1e-6

    flat = [ConnectionSample(t, 0.0, 0.0, 0.7) for t in thetas]
    curv = curvature_from_connection(flat)
    assert max(abs(c.F_theta_phi) for c in curv) <= 1e-12

    alpha = math.pi / 4
    weighted = [ConnectionSample(t, 0.0, 0.0,
                                 0.5 * math.sin(t) ** 2 * math.cos(alpha) ** 2)
                for t in thetas]
    curv = curvature_from_connection(weighted)
    got = np.array([c.F_theta_phi for c in curv])
    assert np.max(np.abs(got - 0.25 * np.sin(2 * thetas))) <= 1e-6


def test_curvature_warns_on_coarse_grid():
    thetas = np.linspace(0.0, math.pi, 20)
    samples = [ConnectionSample(t, 0.0, 0.0, math.sin(t / 2) ** 2)
               for t in thetas]
    with pytest.warns(geometry.AccuracyWarning):
        curvature_from_connection(samples)


def _theta_grid(theta_max, h=1e-3):
    return np.linspace(0.0, theta_max, max(3, round(theta_max / h) + 1))


def _curvature_samples(fn, theta_max, h=1e-3):
    return [geometry.CurvatureSample(t, 0.0, F_theta_phi=fn(t))
            for t in _theta_grid(theta_max, h)]


def test_surface_integral_full_sphere_monopole():
    samples = _curvature_samples(lambda t: 0.5 * math.sin(t), math.pi)
    assert phase_by_surface_integral(samples).gamma == pytest.approx(
        TWO_PI, abs=1e-6)


def test_surface_integral_vacuum_phase():
    params = RabiParams.jc(0.12, 0.07)
    theta1 = model.spectral_angles(params, 1).theta_k
    samples = _curvature_samples(lambda t: 0.5 * math.sin(2 * t), theta1)
    want = vacuum_phase_jc(params).gamma
    assert phase_by_surface_integral(samples).gamma == pytest.approx(
        want, abs=1e-6)


def test_surface_integral_two_qubit_vacuum_phase():
    params = RabiParams.equal_frequency(-0.08, 0.03, 0.06)
    ef = model.equal_frequency_k1(params)
    ca2 = math.cos(ef.alpha) ** 2
    samples = _curvature_samples(
        lambda t: 0.5 * math.sin(2 * t) * ca2, ef.theta_1_2)
    want = vacuum_phase_two_qubit(params).gamma
    assert phase_by_surface_integral(samples).gamma == pytest.approx(
        want, abs=1e-6)


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
        for label, lab_tuple, winding in (("jc_plus", ("jc", 1, "+"), 0.0),
                                          ("jc_minus", ("jc", 1, "-"), TWO_PI)):
            samples = connection_field(params, label, thetas, verify=False)
            curv = curvature_from_connection(samples)
            got = phase_by_surface_integral(curv).gamma + winding
            want = berry_phase_closed_form(params, lab_tuple).gamma
            assert abs(got - want) <= 1e-5


def test_radial_field_values():
    thetas = [0.0, math.pi / 2, 3 * math.pi / 4]
    eig = radial_field("eigen_jc", thetas)
    assert all(s.F_radial == pytest.approx(1.0) for s in eig)
    non = radial_field("noneigen_jc", thetas)
    assert non[1].F_radial == pytest.approx(0.0, abs=1e-15)
    assert non[2].F_radial < 0.0
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
    gammas = [berry_phase_closed_form(params, ("jc", 1, "+")).gamma,
              berry_phase_closed_form(params, ("jc", 1, "-")).gamma]
    got = noneigen_geometric_phase(weights, gammas)
    assert got.gamma == pytest.approx(math.pi, abs=1e-12)
    assert got.gamma / TWO_PI <= 0.5 + 1e-12


def test_noneigen_two_qubit_resonance_and_suppression():
    params = RabiParams.equal_frequency(0.0, 0.05, 0.05)
    assert vacuum_phase_two_qubit(params).gamma == pytest.approx(
        math.pi / 2, abs=1e-12)
    lopsided = RabiParams.equal_frequency(0.0, 0.001, 0.4)
    assert vacuum_phase_two_qubit(lopsided).gamma <= 1e-4


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
        assert -1e-12 <= jc.gamma <= math.pi + 1e-12
        tq = vacuum_phase_two_qubit(params)
        ca2 = math.cos(model.spectral_angles(params, 1).alpha) ** 2
        assert -1e-12 <= tq.gamma <= math.pi * ca2 + 1e-12
        assert tq.gamma / TWO_PI <= 0.25 + 1e-12 or params.g1 != params.g2


def test_noneigen_curvature_detuning_antisymmetry():
    for g in (0.02, 0.1):
        plus = geometry.noneigen_curvature_two_qubit(
            RabiParams.equal_frequency(0.1, g, g))
        minus = geometry.noneigen_curvature_two_qubit(
            RabiParams.equal_frequency(-0.1, g, g))
        assert plus == pytest.approx(-minus, abs=1e-12)


def test_beyond_rwa_phase_reduces_to_rwa():
    params = RabiParams.equal_frequency(0.1, 1e-4, 1e-4)
    got = noneigen_phase_beyond_rwa(params, DisplacedBasis.for_params(params, M=20))
    want = vacuum_phase_two_qubit(params).gamma
    assert abs(got.gamma - want) <= 1e-4
    assert got.weight_total == pytest.approx(1.0, abs=1e-10)


def test_beyond_rwa_weight_error_when_truncation_too_small():
    # M = 10 keeps only 0.99858 of |10,0>'s weight at g = 1
    bad = RabiParams.equal_frequency(0.5, 1.0, 1.0)
    with pytest.raises(geometry.WeightError):
        noneigen_phase_beyond_rwa(bad, DisplacedBasis.for_params(bad, M=10))
    good = RabiParams.equal_frequency(0.5, 0.1, 0.1)
    odd = model.solve_sectors([good, bad], 10, -1)
    with pytest.raises(geometry.WeightError):
        geometry.noneigen_phases_beyond_rwa(odd)


def test_beyond_rwa_batched_matches_per_point():
    params_list = [RabiParams.equal_frequency(delta, g, g)
                   for delta in (0.5, -0.2) for g in np.linspace(0.005, 0.35, 9)]
    odd = model.solve_sectors(params_list, 50, -1)
    batched = geometry.noneigen_phases_beyond_rwa(odd)
    for params, got in zip(params_list, batched):
        want = noneigen_phase_beyond_rwa(params)
        assert abs(got.gamma - want.gamma) <= 1e-12
        assert abs(got.weight_total - want.weight_total) <= 1e-12
    with pytest.raises(ValueError):
        geometry.noneigen_phases_beyond_rwa(
            model.solve_sectors(params_list[:1], 50, 1))


def test_beyond_rwa_weak_coupling_agreement():
    for delta in (0.1, -0.1):
        params = RabiParams.equal_frequency(delta, 0.02, 0.02)
        got = noneigen_phase_beyond_rwa(params).gamma
        want = vacuum_phase_two_qubit(params).gamma
        assert abs(got - want) <= 5e-2


def test_beyond_rwa_symmetry_breaking():
    """Delta -> -Delta symmetry of the RWA phase fails beyond the RWA."""
    g = 0.2
    plus = noneigen_phase_beyond_rwa(RabiParams.equal_frequency(0.2, g, g)).gamma
    minus = noneigen_phase_beyond_rwa(RabiParams.equal_frequency(-0.2, g, g)).gamma
    rwa_plus = vacuum_phase_two_qubit(RabiParams.equal_frequency(0.2, g, g)).gamma
    rwa_minus = vacuum_phase_two_qubit(RabiParams.equal_frequency(-0.2, g, g)).gamma
    assert abs(rwa_plus - rwa_minus) <= 1e-12
    assert abs(plus - minus) > 1e-2


def test_beyond_rwa_matches_plain_fock_oracle():
    """Eigenstate phases from the displaced sectors match 2 pi <n> in plain Fock."""
    params = RabiParams(omega1=1.5, omega2=1.5, g1=0.15, g2=0.15)
    basis = DisplacedBasis.for_params(params, M=50)
    fm = model.build_full_rabi(params, n_photons=4 * 51)
    ns = fm.photon_numbers()
    for kappa in (1, -1):
        pairs = model.truncated_parity_solve(params, basis, kappa,
                                             check_truncation=False)
        vals, vecs, ix = model.solve_parity_sector(fm, kappa,
                                                   check_truncation=False)
        local_ns = ns[ix]
        for rank in range(12):
            disp = geometry.berry_phase_truncated_state(pairs[rank], basis)
            plain = TWO_PI * float(local_ns @ (vecs[:, rank] ** 2))
            assert abs(disp.gamma - plain) <= 1e-6


# ---------------------------------------------------------------------------
# anti-crossing detection
# ---------------------------------------------------------------------------

def test_detect_anticrossing_even_sector():
    params_of_g = lambda g: RabiParams.equal_frequency(0.5, g, g)
    res = detect_anticrossing(params_of_g, kappa=1, g_min=0.2, g_max=0.32,
                              M=40)
    assert 0.25 <= res.g_star <= 0.27
    assert res.min_gap < 0.05
    assert res.adiabaticity_exceeded


def test_detect_anticrossing_monotone_raises():
    params_of_g = lambda g: RabiParams.equal_frequency(0.5, g, g)
    with pytest.raises(geometry.NoAnticrossing):
        detect_anticrossing(params_of_g, kappa=1, g_min=0.01, g_max=0.05,
                            M=30, level_pair=(0, 1))


def test_detect_anticrossing_rwa_blocks_cross_exactly():
    """Different excitation blocks cross without repulsion under the RWA."""
    params_of_g = lambda g: RabiParams.equal_frequency(0.5, g, g)
    with pytest.raises(geometry.NoAnticrossing):
        detect_anticrossing(params_of_g, kappa=1, g_min=0.2, g_max=0.45,
                            rwa=True)
