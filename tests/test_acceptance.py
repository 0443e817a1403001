"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criterion 8 is known-red: the initial state |10,0> is an
exact odd-parity state, so its weighted geometric phase cannot respond to the
even-sector anti-crossing; the test asserts the criterion as stated and the
failure message records the measured locations (see the analysis note in the
repository documentation of known deviations).
"""

import math
import time

import numpy as np
import pytest

from rabigeom import dynamics, geometry, model
from rabigeom.model import RabiParams

TWO_PI = 2 * math.pi


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_oracle_identity_suite():
    """Closed-form phases equal 2 pi <a^dag a> for every RWA block state."""
    t0 = time.time()
    deltas = np.linspace(-0.5, 0.5, 20)
    gs = np.linspace(0.3 / 20, 0.3, 20)
    worst = 0.0
    for delta in deltas:
        for g in gs:
            tq = RabiParams.equal_frequency(float(delta), float(g), float(g))
            for k in range(7):
                _, coeffs = model.solve_block(tq, k)
                closed = geometry.berry_phase_block_closed_form(k, coeffs)
                for c, gamma in zip(coeffs.T, closed):
                    oracle = geometry.berry_phase_fock_state(
                        c, [k - 2, k - 1, k - 1, k])
                    worst = max(worst, abs(gamma - oracle))
            # the k = 1 levels ascend as Psi3, Psi1 (dark), Psi2
            energies, coeffs = model.solve_block(tq, 1)
            big = model.equal_frequency_angles(tq)[2]
            closed_energies = (-tq.delta - big) / 2, 0.0, (-tq.delta + big) / 2
            e_err = float(np.max(np.abs(energies - closed_energies)))
            worst = max(worst, e_err)
            for j, l in enumerate((3, 1, 2)):
                closed = geometry.berry_phase_equal_frequency(tq, l)
                nbar = float(coeffs[3, j] ** 2)
                worst = max(worst, abs(closed - TWO_PI * nbar))
            jc = RabiParams.jc(float(delta), float(g))
            for k in range(1, 7):
                eig = model.jc_eigensystem(jc, k)
                for branch, state in (("+", eig.state_plus),
                                      ("-", eig.state_minus)):
                    closed = geometry.berry_phase_jc(jc, k, branch)
                    nbar = (k - 1) * state[0] ** 2 + k * state[1] ** 2
                    worst = max(worst, abs(closed - TWO_PI * nbar))
    elapsed = time.time() - t0
    report("criterion 1: oracle identity (<= 1e-9, < 10 s)",
           worst <= 1e-9 and elapsed < 10.0,
           f"worst |diff| = {worst:.2e}, {elapsed:.1f} s")


def test_criterion_2_stokes_suite():
    """Surface-integrated finite-difference curvature reproduces closed forms."""
    t0 = time.time()
    rng = np.random.default_rng(2024)
    h = 1e-3
    worst = 0.0
    for trial in range(100):
        delta = float(rng.uniform(-0.5, 0.5))
        g = float(rng.uniform(0.02, 0.3))
        family = trial % 6
        if family in (0, 1):    # JC doublet
            params = RabiParams.jc(delta, g)
            theta_star = model.spectral_angles(params, 1).theta_k
            label = "jc_plus" if family == 0 else "jc_minus"
            winding = 0.0 if family == 0 else TWO_PI
            closed = geometry.berry_phase_jc(params, 1,
                                             "+" if family == 0 else "-")
        elif family in (2, 3):  # two-qubit bright doublet
            g2 = float(rng.uniform(0.02, 0.3))
            params = RabiParams.equal_frequency(delta, g, g2)
            theta_star = model.equal_frequency_angles(params)[0]
            label = "two_qubit_2" if family == 2 else "two_qubit_3"
            winding = 0.0 if family == 2 else TWO_PI
            closed = geometry.berry_phase_equal_frequency(
                params, 2 if family == 2 else 3)
        elif family == 4:       # vacuum-start JC noneigenstate
            params = RabiParams.jc(delta, g)
            theta_star = model.spectral_angles(params, 1).theta_k
            label, winding = "noneigen_jc", 0.0
            closed = geometry.vacuum_phase_jc(params)
        else:                   # vacuum-start two-qubit noneigenstate
            g2 = float(rng.uniform(0.02, 0.3))
            params = RabiParams.equal_frequency(delta, g, g2)
            theta_star = model.equal_frequency_angles(params)[0]
            label, winding = "noneigen_two_qubit", 0.0
            closed = geometry.vacuum_phase_two_qubit(params)
        thetas = np.linspace(0.0, theta_star, max(3, round(theta_star / h) + 1))
        a_phi = geometry.connection_field(params, label, thetas, verify=False)
        curv = geometry.curvature_from_connection(thetas, a_phi)
        got = geometry.phase_by_surface_integral(thetas, curv) + winding
        worst = max(worst, abs(got - closed))
    elapsed = time.time() - t0
    report("criterion 2: Stokes suite (<= 1e-5 at 100 points, < 30 s)",
           worst <= 1e-5 and elapsed < 30.0,
           f"worst |diff| = {worst:.2e}, {elapsed:.1f} s")


def test_criterion_3_worked_paper_case():
    """Delta = g1 = g2 = 0.01: p/q = -1/2 exactly, recurrence at T = 2 pi/E2."""
    t0 = time.time()
    res = dynamics.cyclic_evolution_two_qubit(
        RabiParams.equal_frequency(0.01, 0.01, 0.01))
    p, q = res.windings[1], res.windings[2]
    ok = (p * 2 == -q * 1) and abs(p) == 1 \
        and res.recurrence_fidelity >= 1 - 1e-8 \
        and res.period == pytest.approx(200 * math.pi, rel=1e-12)
    elapsed = time.time() - t0
    report("criterion 3: worked case p/q = -1/2, fidelity >= 1 - 1e-8, < 1 s",
           ok and elapsed < 1.0,
           f"p={p}, q={q}, T={res.period:.6f}, "
           f"1-fidelity={1 - res.recurrence_fidelity:.1e}, {elapsed:.2f} s")


def test_criterion_4_photon_number_relation():
    """|P - gamma/2pi| <= 1e-6, with P = 1/2 and P = 1/4 at the resonances."""
    t0 = time.time()
    worst = 0.0
    for delta in (0.0, 0.2, -0.2):
        params = RabiParams.jc(delta, 0.05)
        res = dynamics.cyclic_evolution_jc(params)
        avg = dynamics.average_photon_number(params, res.period)
        worst = max(worst, abs(avg.P - avg.gamma_over_2pi))
        if delta == 0.0:
            worst = max(worst, abs(avg.P - 0.5))
    # two-qubit: resonance and the engineered rational detuning Delta = g
    for delta in (0.0, 0.05):
        params = RabiParams.equal_frequency(delta, 0.05, 0.05)
        res = dynamics.cyclic_evolution_two_qubit(params)
        avg = dynamics.average_photon_number(params, res.period)
        worst = max(worst, abs(avg.P - avg.gamma_over_2pi))
        if delta == 0.0:
            worst = max(worst, abs(avg.P - 0.25))
    elapsed = time.time() - t0
    report("criterion 4: photon-number relation (<= 1e-6, < 30 s)",
           worst <= 1e-6 and elapsed < 30.0,
           f"worst |diff| = {worst:.2e}, {elapsed:.1f} s")


def test_criterion_5_curvature_extremum():
    """Noneigenstate curvature peaks at g2 = Delta / sqrt(8) for Delta = 0.05."""
    t0 = time.time()
    delta = 0.05
    gs = np.arange(1e-4, 0.1 + 1e-9, 1e-4)
    F = np.array([geometry.noneigen_curvature_two_qubit(
        RabiParams.equal_frequency(delta, float(g), float(g))) for g in gs])
    g_peak = float(gs[np.argmax(np.abs(F))])
    want = delta / math.sqrt(8.0)
    elapsed = time.time() - t0
    report("criterion 5: curvature extremum at Delta/sqrt(8) (res 1e-4, < 5 s)",
           abs(g_peak - want) <= 1e-4 and elapsed < 5.0,
           f"peak at {g_peak:.5f}, expected {want:.5f}, {elapsed:.1f} s")


def test_criterion_6_adiabatic_weak_coupling():
    """Adiabatic energies within 1e-3 of plain-Fock exact for g <= 0.02."""
    t0 = time.time()
    worst = 0.0
    for g in (0.005, 0.01, 0.015, 0.02):
        params = RabiParams(omega1=0.5, omega2=0.5, g1=g, g2=g)
        fm = model.build_full_rabi(params, n_photons=60)
        exact = np.sort(np.concatenate([
            model.solve_parity_sector(fm, kappa)[0][:6]
            for kappa in (1, -1)]))
        approx = np.sort([s.energy for n in range(3) for kappa in (1, -1)
                          for s in model.adiabatic_eigensystem(params, n, kappa)])
        worst = max(worst, float(np.max(np.abs(approx[:4] - exact[:4]))))
    elapsed = time.time() - t0
    report("criterion 6: adiabatic energies (<= 1e-3 omega_c, < 60 s)",
           worst <= 1e-3 and elapsed < 60.0,
           f"worst |dE| = {worst:.2e}, {elapsed:.1f} s")


def test_criterion_7_exceptional_solutions():
    """E = omega_c present in the exact spectrum, phases match the closed form."""
    t0 = time.time()
    worst_e, worst_g = 0.0, 0.0
    cases = ((RabiParams(omega1=1.5, omega2=0.5, g1=0.1, g2=0.1), 1),
             (RabiParams(omega1=2.5, omega2=0.5, g1=0.12, g2=0.12), -1))
    for params, parity in cases:
        fm = model.build_full_rabi(params, n_photons=120)
        vals, vecs, ix = model.solve_parity_sector(fm, parity)
        j = int(np.argmin(np.abs(vals - 1.0)))
        worst_e = max(worst_e, abs(float(vals[j]) - 1.0))
        state = model.exceptional_states(params, n_photons=120)[0]
        gamma_closed = geometry.berry_phase_exceptional(state.q)
        nbar = float(fm.photon_numbers()[ix] @ (vecs[:, j] ** 2))
        worst_g = max(worst_g, abs(TWO_PI * nbar - gamma_closed))
    elapsed = time.time() - t0
    report("criterion 7: exceptional solutions (E and gamma <= 1e-8, < 60 s)",
           worst_e <= 1e-8 and worst_g <= 1e-8 and elapsed < 60.0,
           f"|E-1| = {worst_e:.1e}, |dgamma| = {worst_g:.1e}, {elapsed:.1f} s")


def test_criterion_8_anticrossing_sudden_change():
    """Even-sector gap minimum vs noneigenstate phase jump (KNOWN RED).

    |10,0> is exactly odd under parity, so the weighted phase is smooth at the
    even-sector anti-crossing; its steep crossover instead tracks the
    odd-sector anti-crossing near g = 0.216.  The criterion is asserted as
    stated; the failure detail records every measured quantity.
    """
    t0 = time.time()
    params_of_g = lambda g: RabiParams.equal_frequency(0.5, g, g)
    ac = geometry.detect_anticrossing(params_of_g, kappa=1,
                                      g_min=0.2, g_max=0.32, M=50)
    jump = geometry.locate_phase_jump(params_of_g, 0.2, 0.32, M=50)
    odd = geometry.detect_anticrossing(params_of_g, kappa=-1,
                                       g_min=0.2, g_max=0.32, M=50)
    elapsed = time.time() - t0
    in_window = 0.245 <= ac.g_star <= 0.285 and 0.245 <= jump.g_jump <= 0.285
    agree = abs(ac.g_star - jump.g_jump) <= 0.005
    report("criterion 8: anti-crossing / sudden change (window + 0.005, < 10 min)",
           in_window and agree and elapsed < 600.0,
           f"even-sector g_star = {ac.g_star:.4f} (gap {ac.min_gap:.3e}), "
           f"phase steepest change at {jump.g_jump:.4f} "
           f"(recorded jump magnitude {jump.jump_size:.3e}, "
           f"slope {jump.max_slope:.2f}), odd-sector g_star = {odd.g_star:.4f}; "
           f"|10,0> is parity-odd so only the odd sector carries weight; "
           f"{elapsed:.0f} s")


def _reported_phases(params: RabiParams, M: int) -> list[float]:
    """All beyond-RWA phases a figure dataset reports at one sweep point."""
    out = []
    for kappa in (1, -1):
        sol = model.solve_sectors([params], M, kappa)
        out.extend(TWO_PI * sol.photon_numbers[0, sol.kept(0)[:3]])
    # sol is now the odd sector, the only one that |10,0> has weight in
    out.append(geometry.noneigen_phases_beyond_rwa(sol)[0][0])
    return out


def test_criterion_9_truncation_convergence_gate():
    """Raising M from 50 to 60 moves every reported phase by < 1e-6."""
    t0 = time.time()
    worst = 0.0
    for delta in (0.5, -0.2):
        for g in (0.05, 0.15, 0.25, 0.35):
            params = RabiParams.equal_frequency(delta, g, g)
            base = np.array(_reported_phases(params, 50))
            check = np.array(_reported_phases(params, 60))
            worst = max(worst, float(np.max(np.abs(base - check))))
    elapsed = time.time() - t0
    report("criterion 9: truncation gate M 50 -> 60 (< 1e-6, < 10 min)",
           worst < 1e-6 and elapsed < 600.0,
           f"max drift = {worst:.2e}, {elapsed:.1f} s")


def test_criterion_10_dual_basis_equivalence():
    """Displaced-Fock sector spectra match plain-Fock parity filtering."""
    t0 = time.time()
    rng = np.random.default_rng(77)
    worst = 0.0
    M = 50
    for _ in range(20):
        params = RabiParams(omega1=float(rng.uniform(0.1, 1.5)),
                            omega2=float(rng.uniform(0.1, 1.5)),
                            g1=float(rng.uniform(0.01, 0.35)),
                            g2=float(rng.uniform(0.01, 0.35)))
        fm = model.build_full_rabi(params, n_photons=4 * (M + 1))
        for kappa in (1, -1):
            plain, _, _ = model.solve_parity_sector(fm, kappa)
            disp = model.solve_sectors([params], M, kappa).energies[0, :20]
            worst = max(worst, float(np.max(np.abs(disp - plain[:20]))))
    elapsed = time.time() - t0
    report("criterion 10: dual-basis equivalence (<= 1e-8, lowest 20, < 5 min)",
           worst <= 1e-8 and elapsed < 300.0,
           f"worst |dE| = {worst:.2e}, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# qualitative shape checks standing in for the figures' missing tables
# ---------------------------------------------------------------------------

def test_fig2_shape_saturation():
    """Near resonance the homogeneous-coupling phase saturates at pi/2."""
    gs = np.linspace(0.005, 0.1, 40)
    vals = [geometry.vacuum_phase_two_qubit(
        RabiParams.equal_frequency(0.01, float(g), float(g)))
        for g in gs]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    # gamma = pi/2 (1 - Delta^2/Theta^2): within 0.2% of pi/2 by g = 0.1
    assert vals[-1] == pytest.approx(math.pi / 2, rel=2e-3)
    assert max(vals) <= math.pi / 2 + 1e-12


def test_fig4_shape_phases_grow_beyond_rwa():
    """Strong coupling: beyond-RWA phases exceed RWA, some exceed 2 pi."""
    from rabigeom.cli import _COUNTERPARTS, _eigenphases

    def counterpart_phases(params):
        row = _eigenphases({kappa: model.solve_sectors([params], 50, kappa)
                            for kappa in (1, -1)})[0]
        return {name: row[col] for name, col in _COUNTERPARTS.items()}

    params = RabiParams.equal_frequency(0.5, 0.45, 0.45)
    full = counterpart_phases(params)
    assert full["psi0"] > 0.5
    assert max(full.values()) > TWO_PI
    weak = RabiParams.equal_frequency(0.5, 0.02, 0.02)
    weak_full = counterpart_phases(weak)
    assert abs(weak_full["psi1_2"]
               - geometry.berry_phase_equal_frequency(weak, 2)) < 5e-2


def test_fig5_shape_rwa_symmetry_and_breaking():
    g = 0.2
    rwa_p = geometry.vacuum_phase_two_qubit(RabiParams.equal_frequency(0.2, g, g))
    rwa_m = geometry.vacuum_phase_two_qubit(RabiParams.equal_frequency(-0.2, g, g))
    assert rwa_p == pytest.approx(rwa_m, abs=1e-12)
    full_p = geometry.noneigen_phase_beyond_rwa(
        RabiParams.equal_frequency(0.2, g, g))[0]
    full_m = geometry.noneigen_phase_beyond_rwa(
        RabiParams.equal_frequency(-0.2, g, g))[0]
    assert abs(full_p - full_m) > 1e-2
