import numpy as np
import pytest
from scipy.linalg import expm

from rabigeom import numerics
from rabigeom.model import RabiParams, build_block, jc_eigensystem


def random_symmetric(rng, dim):
    a = rng.standard_normal((dim, dim))
    return a + a.T


def test_eigh_identity():
    vals, vecs = numerics.eigh(np.eye(4))
    assert np.allclose(vals, np.ones(4))
    assert np.allclose(vecs.T @ vecs, np.eye(4), atol=1e-12)


def test_eigh_pauli_x():
    vals, _ = numerics.eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(vals, [-1.0, 1.0])


def test_eigh_equal_frequency_block():
    # k = 1 block at zero detuning: spectrum {-G, 0, +G} with G = sqrt(g1^2+g2^2)
    params = RabiParams.equal_frequency(0.0, 0.03, 0.04)
    vals, _ = numerics.eigh(build_block(params, 1))
    assert np.allclose(vals, [-0.05, 0.0, 0.05], atol=1e-14)


#: eigh and eigvalsh share their input checks
solvers = pytest.mark.parametrize("solve", [numerics.eigh, numerics.eigvalsh],
                                  ids=lambda f: f.__name__)


@solvers
def test_rejects_bad_input(solve):
    with pytest.raises(numerics.InvalidMatrix):
        solve(np.array([[0.0, np.nan], [np.nan, 0.0]]))
    with pytest.raises(numerics.InvalidMatrix):
        solve(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(numerics.InvalidMatrix):
        solve(np.zeros((2, 3)))


@pytest.mark.parametrize("dim", [2, 5, 64, 256])
def test_eigh_round_trip(dim):
    rng = np.random.default_rng(dim)
    H = random_symmetric(rng, dim)
    vals, vecs = numerics.eigh(H)
    rebuilt = vecs @ np.diag(vals) @ vecs.T
    scale = np.max(np.abs(H))
    assert np.max(np.abs(rebuilt - H)) <= 1e-10 * scale
    assert np.max(np.abs(vecs.T @ vecs - np.eye(dim))) <= 1e-12
    assert np.all(np.diff(vals) >= -1e-12)


def test_eigh_sign_convention_deterministic():
    """eigh keeps LAPACK's signs, which repeat from run to run."""
    rng = np.random.default_rng(3)
    H = random_symmetric(rng, 17)
    first = numerics.eigh(H)
    second = numerics.eigh(H.copy())
    assert np.array_equal(first.eigenvectors, second.eigenvectors)


def test_eigh_stack_matches_single_calls():
    rng = np.random.default_rng(11)
    stack = np.array([random_symmetric(rng, 9) for _ in range(5)])
    stack[2] = np.diag([3.0, -1.0, 2.0, 2.0, 0.5, -4.0, 1.0, 0.0, 7.0])
    got = numerics.eigh(stack)
    assert got.eigenvalues.shape == (5, 9)
    assert got.eigenvectors.shape == (5, 9, 9)
    for H, vals, vecs in zip(stack, *got):
        single = numerics.eigh(H)
        assert np.array_equal(vals, single.eigenvalues)
        assert np.array_equal(vecs, single.eigenvectors)
        assert np.array_equal(vecs, np.linalg.eigh(H)[1])


@solvers
def test_stack_rejects_any_bad_matrix(solve):
    good = np.eye(3)
    asymmetric = np.eye(3)
    asymmetric[0, 2] = 1e-15
    non_finite = np.eye(3)
    non_finite[1, 1] = np.inf
    for bad in (asymmetric, non_finite):
        with pytest.raises(numerics.InvalidMatrix):
            solve(np.array([good, good, bad, good]))
    with pytest.raises(numerics.InvalidMatrix):
        solve(np.zeros((2, 3, 4)))


def test_eigvalsh_matches_eigh_values():
    rng = np.random.default_rng(7)
    stack = np.array([random_symmetric(rng, 40) for _ in range(3)])
    values = numerics.eigvalsh(stack)
    assert values.shape == (3, 40)
    assert np.all(np.diff(values, axis=1) >= 0.0)
    # another LAPACK driver: equal to rounding, not bit for bit
    assert np.max(np.abs(values - numerics.eigh(stack).eigenvalues)) <= 1e-12
    for H, vals in zip(stack, values):
        assert np.array_equal(numerics.eigvalsh(H), vals)


def test_propagate_stationary_state():
    H = np.array([[1.0, 0.3], [0.3, -0.5]])
    decomp = numerics.eigh(H)
    v0 = decomp.eigenvectors[:, 0]
    out = numerics.propagate(decomp, v0, 2.7)
    assert np.allclose(out, np.exp(-1j * decomp.eigenvalues[0] * 2.7) * v0,
                       atol=1e-12)


def test_propagate_identity_at_t0():
    H = np.array([[1.0, 0.3], [0.3, -0.5]])
    state = np.array([0.6, 0.8])
    out = numerics.propagate(numerics.eigh(H), state, 0.0)
    assert np.allclose(out, state, atol=1e-14)


def test_propagate_rabi_flop_against_expm():
    # resonant JC doublet: |1,0> -> |0,1> after half a Rabi period
    params = RabiParams.jc(0.0, 0.07)
    eig = jc_eigensystem(params, 1)
    H = np.array([[params.omega1 / 2.0, params.g1],
                  [params.g1, params.omega_c - params.omega1 / 2.0]])
    t = np.pi / eig.omega_k
    got = numerics.propagate(numerics.eigh(H), np.array([1.0, 0.0]), t)
    oracle = expm(-1j * H * t) @ np.array([1.0, 0.0])
    assert np.allclose(got, oracle, atol=1e-12)
    assert abs(got[0]) < 1e-12
    assert abs(abs(got[1]) - 1.0) < 1e-12


def test_propagate_preserves_norm():
    rng = np.random.default_rng(11)
    H = random_symmetric(rng, 6)
    decomp = numerics.eigh(H)
    for _ in range(1000):
        state = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        state /= np.linalg.norm(state)
        out = numerics.propagate(decomp, state, rng.uniform(-50, 50))
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-10


def test_propagate_dimension_mismatch():
    decomp = numerics.eigh(np.eye(3))
    with pytest.raises(numerics.DimensionError):
        numerics.propagate(decomp, np.array([1.0, 0.0]), 1.0)
    with pytest.raises(numerics.DimensionError):
        numerics.propagate(decomp, np.array([1.0, 0.0, 0.0]), np.ones((2, 2)))


def _propagate_one(decomp, state, t):
    """Reference: the one-time product sum_j exp(-i E_j t) v_j (v_j . state)."""
    values, vectors = decomp
    amps = vectors.T @ np.asarray(state, dtype=complex)
    return vectors @ (np.exp(-1j * values * t) * amps)


@pytest.mark.parametrize("dim", [2, 3, 6])
def test_propagate_times_array_matches_one_time_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    decomp = numerics.eigh(random_symmetric(rng, dim))
    state = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    ts = np.linspace(0.0, 700.0, 4001)
    batch = numerics.propagate(decomp, state, ts)
    assert batch.shape == (ts.size, dim)
    for t, row in zip(ts, batch):
        one = numerics.propagate(decomp, state, t)
        assert one.shape == (dim,)
        assert np.array_equal(row, one)
        if dim <= 3:
            # the sizes of the k = 1 blocks: their rounding is pinned by the
            # evolve dataset; a larger product may sum in another order
            assert np.array_equal(one, _propagate_one(decomp, state, t))
        else:
            assert np.allclose(one, _propagate_one(decomp, state, t),
                               rtol=0.0, atol=1e-13)


def test_trapezoid_constant():
    x = np.linspace(0.0, 2 * np.pi, 37)
    assert numerics.trapezoid_integral(x, np.ones_like(x)) == pytest.approx(
        2 * np.pi, abs=1e-14)


def test_trapezoid_half_sine():
    x = np.linspace(0.0, np.pi, 10_000)
    val = numerics.trapezoid_integral(x, 0.5 * np.sin(x))
    assert val == pytest.approx(1.0, abs=1e-7)


def test_trapezoid_half_sin2():
    x = np.linspace(0.0, np.pi / 2, 10_000)
    val = numerics.trapezoid_integral(x, 0.5 * np.sin(2 * x))
    assert val == pytest.approx(0.5, abs=1e-7)


def test_trapezoid_exact_for_affine():
    x = np.array([0.0, 0.5, 2.0, 3.0])
    y = 3.0 * x - 1.0
    assert numerics.trapezoid_integral(x, y) == pytest.approx(10.5, abs=1e-14)


def test_trapezoid_rejects_unordered():
    with pytest.raises(numerics.InvalidGrid):
        numerics.trapezoid_integral([0.0, 2.0, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(numerics.InvalidGrid):
        numerics.trapezoid_integral([0.0], [1.0])
