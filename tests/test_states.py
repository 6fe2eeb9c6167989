import numpy as np
import pytest

from qchan import (
    StatePairParams,
    incompatibility,
    max_noncommuting_pair,
    purity,
    state_pair,
    to_bloch,
)


def test_both_north_pole():
    rho_a, rho_b = state_pair(StatePairParams(0, 0, 0, 0))
    np.testing.assert_allclose(rho_a.mat, np.diag([1.0, 0.0]), atol=1e-15)
    np.testing.assert_allclose(rho_b.mat, np.diag([1.0, 0.0]), atol=1e-15)


def test_orthogonal_poles():
    rho_a, rho_b = state_pair(StatePairParams(0, 0, np.pi, 0))
    np.testing.assert_allclose(rho_a.mat, np.diag([1.0, 0.0]), atol=1e-15)
    np.testing.assert_allclose(rho_b.mat, np.diag([0.0, 1.0]), atol=1e-15)


def test_phase_sign_convention():
    # upper off-diagonal of rho_a carries e^{+i phi}
    x, phi = 1.1, 0.8
    rho_a, _ = state_pair(StatePairParams(x, phi, 0, 0))
    expected_upper = np.exp(1j * phi) * np.sin(x) / 2
    assert abs(rho_a.mat[0, 1] - expected_upper) < 1e-15


def test_max_noncommuting_bloch_vectors():
    rho_a, rho_b = max_noncommuting_pair(0.0, 0.0)
    np.testing.assert_allclose(to_bloch(rho_a).as_array(), (0, 0, 1), atol=1e-15)
    np.testing.assert_allclose(to_bloch(rho_b).as_array(), (1, 0, 0), atol=1e-15)

    rho_a, rho_b = max_noncommuting_pair(np.pi / 2, 0.0)
    np.testing.assert_allclose(to_bloch(rho_a).as_array(), (1, 0, 0), atol=1e-14)
    np.testing.assert_allclose(to_bloch(rho_b).as_array(), (0, 0, -1), atol=1e-14)


def test_pairs_are_pure_on_grid():
    for x in np.linspace(0, np.pi, 9):
        for phi in np.linspace(0, 2 * np.pi, 9, endpoint=False):
            rho_a, rho_b = state_pair(StatePairParams(x, phi, x + 0.4, phi + 1.0))
            assert abs(purity(rho_a) - 1.0) < 1e-12
            assert abs(purity(rho_b) - 1.0) < 1e-12


@pytest.mark.parametrize("n", [32])
def test_max_noncommuting_incompatibility_is_one_on_grid(n):
    xs = np.linspace(0, np.pi, n)
    phis = np.linspace(0, 2 * np.pi, n, endpoint=False)
    worst = 0.0
    for x in xs:
        for phi in phis:
            rho_a, rho_b = max_noncommuting_pair(x, phi)
            worst = max(worst, abs(incompatibility(rho_a, rho_b) - 1.0))
    assert worst < 1e-10


@pytest.mark.parametrize("x", [1e12, 1e16, 1e17, -1e17])
def test_max_noncommuting_pair_keeps_the_quarter_turn_at_large_x(x):
    # x + pi/2 rounded to x at 1e17 (incompatibility 0), and lost part of the quarter turn at 1e12 to 1e16
    for phi in (0.0, 0.9):
        assert abs(incompatibility(*max_noncommuting_pair(x, phi)) - 1.0) <= 1e-12


def test_angles_reduced_modulo_two_pi():
    base = state_pair(StatePairParams(0.4, 1.2, 2.0, 5.9))
    shifted = state_pair(StatePairParams(0.4 + 2 * np.pi, 1.2 - 2 * np.pi, 2.0, 5.9 + 4 * np.pi))
    np.testing.assert_allclose(base[0].mat, shifted[0].mat, atol=1e-12)
    np.testing.assert_allclose(base[1].mat, shifted[1].mat, atol=1e-12)


def test_probe_params_takes_floats_and_arrays():
    from qchan.states import probe_params

    xs, phis = np.array([0.0, 0.7, 1.5]), np.array([1.1, 0.0, 6.0])
    batch = probe_params(xs, phis)
    for i, (x, phi) in enumerate(zip(xs.tolist(), phis.tolist())):
        one = probe_params(x, phi)
        assert one == (x, phi, x + np.pi / 2, phi) and tuple(float(v[i]) for v in batch) == one
    assert all(np.allclose(a.mat, b.mat) for a, b in zip(max_noncommuting_pair(0.7, 0.0), state_pair(probe_params(0.7, 0.0))))
