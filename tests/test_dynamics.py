import cmath
import math

import numpy as np
import pytest

from rabigeom import dynamics, geometry, model, numerics
from rabigeom.dynamics import (average_photon_number, cyclic_evolution_jc,
                               cyclic_evolution_two_qubit, rationalize)
from rabigeom.model import RabiParams, k1_block

TWO_PI = 2 * math.pi


# ---------------------------------------------------------------------------
# rationalize
# ---------------------------------------------------------------------------

def test_rationalize_worked_ratio():
    assert rationalize(0.01 / -0.02) == (-1, 2)


def test_rationalize_unity_and_reduction():
    assert rationalize(1.0) == (1, 1)
    assert rationalize(0.75) == (3, 4)
    assert rationalize(-2.5) == (-5, 2)


def test_rationalize_rejects_irrational():
    with pytest.raises(dynamics.NoRational):
        rationalize(math.pi / 2, tolerance=1e-9, max_denominator=64)
    with pytest.raises(dynamics.NoRational):
        rationalize(math.nan)


# ---------------------------------------------------------------------------
# JC cyclic evolution
# ---------------------------------------------------------------------------

def test_jc_resonant_aa_phase():
    params = RabiParams.jc(0.0, 0.05)
    res = cyclic_evolution_jc(params, q=1)
    # equal weights: beta = (pi + 2 pi)/2 + pi/2 = 2 pi
    assert res.aa_phase == pytest.approx(TWO_PI, abs=1e-10)
    assert res.period == pytest.approx(TWO_PI / 0.1, abs=1e-12)
    assert res.recurrence_fidelity >= 1 - 1e-10


def test_jc_aa_phase_closed_form_random():
    rng = np.random.default_rng(21)
    for _ in range(20):
        params = RabiParams.jc(rng.uniform(-0.4, 0.4), rng.uniform(0.01, 0.3))
        q = int(rng.integers(1, 4))
        res = cyclic_evolution_jc(params, q=q)
        eig = model.jc_eigensystem(params, 1)
        half = eig.theta_k / 2
        gp = geometry.berry_phase_jc(params, 1, "+")
        gm = geometry.berry_phase_jc(params, 1, "-")
        want = math.cos(half) ** 2 * (gp + 2 * q * math.pi) \
            + math.sin(half) ** 2 * gm
        assert res.aa_phase == pytest.approx(want, abs=1e-9)
        assert res.aa_phase == pytest.approx(res.total_phase - res.dynamical_phase,
                                             abs=1e-12)


def test_jc_weak_coupling_limit():
    params = RabiParams.jc(0.3, 1e-6)
    res = cyclic_evolution_jc(params, q=2)
    # the initial state is almost the upper eigenstate: beta -> 2 q pi
    assert res.aa_phase == pytest.approx(2 * 2 * math.pi, abs=1e-6)


def test_jc_total_phase_matches_propagation():
    params = RabiParams.jc(0.2, 0.07)
    res = cyclic_evolution_jc(params)
    H, _, initial = k1_block(params)
    final = numerics.propagate(numerics.eigh(H), initial, res.period)
    amp = complex(np.vdot(initial, final))
    assert abs(amp) == pytest.approx(1.0, abs=1e-10)
    assert cmath.phase(amp * cmath.exp(-1j * res.total_phase)) == \
        pytest.approx(0.0, abs=1e-9)


def test_jc_requires_reduction():
    with pytest.raises(model.NotJCReduction):
        cyclic_evolution_jc(RabiParams.equal_frequency(0.0, 0.1, 0.1))


# ---------------------------------------------------------------------------
# two-qubit cyclic evolution
# ---------------------------------------------------------------------------

def test_two_qubit_worked_case():
    params = RabiParams.equal_frequency(0.01, 0.01, 0.01)
    res = cyclic_evolution_two_qubit(params)
    assert res.windings == (0, 1, -2)
    assert res.period == pytest.approx(200 * math.pi, rel=1e-12)
    assert res.recurrence_fidelity >= 1 - 1e-8
    assert res.total_phase == 0.0


def test_two_qubit_symmetric_splitting():
    params = RabiParams.equal_frequency(0.0, 0.03, 0.04)
    res = cyclic_evolution_two_qubit(params)
    # E2 = -E3, so p/q = -1
    assert res.windings[1] == -res.windings[2] == 1
    assert res.period == pytest.approx(TWO_PI / 0.05, rel=1e-12)
    assert res.recurrence_fidelity >= 1 - 1e-8


def test_two_qubit_irrational_ratio():
    params = RabiParams.equal_frequency(0.3, 0.1, 0.07)
    with pytest.raises(dynamics.NoRational):
        cyclic_evolution_two_qubit(params)


def _rational_ratio_params(rng):
    """Parameters engineered so E2/E3 = p/q exactly."""
    while True:
        p = int(rng.integers(1, 7))
        q = -int(rng.integers(1, 7))
        if math.gcd(p, -q) != 1 or p == -q:
            continue
        s = (p + q) / (q - p)
        if abs(s) >= 1.0:
            continue
        gtot = rng.uniform(0.02, 0.2)
        big = 2.0 * gtot / math.sqrt(1.0 - s * s)
        delta = s * big
        alpha = rng.uniform(0.1, 1.4)
        return (p, q, RabiParams.equal_frequency(
            delta, gtot * math.cos(alpha), gtot * math.sin(alpha)))


def test_two_qubit_aa_relation_random():
    """beta - gamma = 2 pi cos^2(alpha) [p cos^2(t/2) + q sin^2(t/2)]."""
    rng = np.random.default_rng(33)
    for _ in range(50):
        p, q, params = _rational_ratio_params(rng)
        res = cyclic_evolution_two_qubit(params)
        assert (res.windings[1], res.windings[2]) == (p, q)
        theta, alpha, _ = model.equal_frequency_angles(params)
        half = theta / 2
        ca2 = math.cos(alpha) ** 2
        want = TWO_PI * ca2 * (p * math.cos(half) ** 2 + q * math.sin(half) ** 2)
        assert res.aa_phase - res.gamma_geometric == pytest.approx(want,
                                                                   abs=1e-9)
        assert res.recurrence_fidelity >= 1 - 1e-8


def test_two_qubit_aa_closed_form():
    rng = np.random.default_rng(4)
    for _ in range(10):
        p, q, params = _rational_ratio_params(rng)
        res = cyclic_evolution_two_qubit(params)
        theta, alpha, _ = model.equal_frequency_angles(params)
        half = theta / 2
        ca2 = math.cos(alpha) ** 2
        g2 = geometry.berry_phase_equal_frequency(params, 2)
        g3 = geometry.berry_phase_equal_frequency(params, 3)
        want = ca2 * math.cos(half) ** 2 * (g2 + 2 * p * math.pi) \
            + ca2 * math.sin(half) ** 2 * (g3 + 2 * q * math.pi)
        assert res.aa_phase == pytest.approx(want, abs=1e-9)


# ---------------------------------------------------------------------------
# photon averages and conservation laws
# ---------------------------------------------------------------------------

def test_photon_average_jc_resonance():
    params = RabiParams.jc(0.0, 0.05)
    res = cyclic_evolution_jc(params)
    avg = average_photon_number(params, res.period)
    assert avg.P == pytest.approx(0.5, abs=1e-6)
    assert abs(avg.P - avg.gamma_over_2pi) <= 1e-6


def test_photon_average_two_qubit_resonance():
    params = RabiParams.equal_frequency(0.0, 0.05, 0.05)
    res = cyclic_evolution_two_qubit(params)
    avg = average_photon_number(params, res.period)
    assert avg.P == pytest.approx(0.25, abs=1e-6)
    assert abs(avg.P - avg.gamma_over_2pi) <= 1e-6


def test_photon_average_stationary_state():
    params = RabiParams.jc(0.1, 0.08)
    eig = model.jc_eigensystem(params, 1)
    avg = average_photon_number(params, 7.3, initial=eig.state_plus)
    nbar = eig.state_plus[1] ** 2
    assert avg.P == pytest.approx(nbar, abs=1e-10)
    assert avg.gamma_over_2pi == pytest.approx(nbar, abs=1e-12)


def test_norm_and_excitation_conserved():
    params = RabiParams.equal_frequency(0.13, 0.04, 0.09)
    H, photon_numbers, initial = k1_block(params)
    decomp = numerics.eigh(H)
    rng = np.random.default_rng(8)
    for _ in range(40):
        t = rng.uniform(0.0, 500.0)
        psi = numerics.propagate(decomp, initial, t)
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-10
        # the whole block carries excitation number one
        k_expect = float(np.sum(np.abs(psi) ** 2))
        assert k_expect == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("params", [RabiParams.jc(0.1, 0.08),
                                    RabiParams.equal_frequency(0.01, 0.01, 0.01),
                                    RabiParams.equal_frequency(0.3, 0.1, 0.05)])
def test_photon_average_matches_per_sample_loop_bit_for_bit(params):
    avg = average_photon_number(params, 123.4, n_time_steps=5001)
    H, photon_numbers, initial = k1_block(params)
    decomp = numerics.eigh(H)
    nbar, fidelity = [], []
    for t in avg.times:
        psi = numerics.propagate(decomp, initial, t)
        nbar.append(float(photon_numbers @ (np.abs(psi) ** 2)))
        fidelity.append(float(abs(np.vdot(initial, psi))))
    assert np.array_equal(avg.times, np.linspace(0.0, 123.4, 5001))
    assert np.array_equal(avg.photon_expectation, nbar)
    assert np.array_equal(avg.fidelity, fidelity)


@pytest.mark.parametrize("steps", [dynamics.PHOTON_AVERAGE_BLOCK,
                                   dynamics.PHOTON_AVERAGE_BLOCK + 1,
                                   2 * dynamics.PHOTON_AVERAGE_BLOCK + 7])
def test_photon_average_blocks_match_one_batch(steps):
    # reference: every sample propagated in one call
    params = RabiParams.equal_frequency(0.01, 0.01, 0.01)
    avg = average_photon_number(params, 50.0, n_time_steps=steps)
    H, photon_numbers, initial = k1_block(params)
    psi = numerics.propagate(numerics.eigh(H), initial, avg.times)
    overlap = np.einsum("j,kj->k", initial, psi)
    assert np.array_equal(avg.photon_expectation,
                          (np.abs(psi) ** 2) @ photon_numbers)
    assert np.array_equal(avg.fidelity, np.hypot(overlap.real, overlap.imag))
