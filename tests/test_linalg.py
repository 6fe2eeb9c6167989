import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchan import (
    BlochVector,
    DensityMatrix,
    IDENTITY2,
    KrausChannel,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    apply,
    check_outer_inequality,
    coherence_l1,
    commutator,
    from_bloch,
    hs_norm_sq,
    incompatibility,
    incompatibility_trace_form,
    pd,
    purity,
    to_bloch,
    visibilities,
)
from qchan.linalg import as_matrix
from conftest import not_qubit_matrix, random_unitary, sample_ball


def test_pauli_self_commutator_is_zero():
    assert np.allclose(commutator(SIGMA_X, SIGMA_X), 0)


def test_pauli_algebra_identity():
    np.testing.assert_allclose(commutator(SIGMA_X, SIGMA_Y), 2j * np.asarray(SIGMA_Z), atol=1e-15)


def test_max_noncommuting_pair_commutator_matrix():
    # For the probe family the commutator has zero diagonal and off-diagonal
    # entries +e^{i phi}/2 and -e^{-i phi}/2 regardless of x.
    from qchan import max_noncommuting_pair

    for x, phi in [(0.0, 0.0), (0.9, 1.7), (2.4, 5.1)]:
        rho_a, rho_b = max_noncommuting_pair(x, phi)
        c = commutator(rho_a, rho_b)
        expected = np.array(
            [[0.0, np.exp(1j * phi) / 2], [-np.exp(-1j * phi) / 2, 0.0]]
        )
        np.testing.assert_allclose(c, expected, atol=1e-14)
        assert abs(hs_norm_sq(c) - 0.5) < 1e-14


def test_commutator_dimension_mismatch():
    with pytest.raises(ValueError, match=not_qubit_matrix((3, 3))):
        commutator(np.eye(2), np.eye(3))


_STATE = np.eye(2) / 2
# Every public entry point that takes a matrix, called with one argument replaced by ``m``.
MATRIX_ENTRY_POINTS = {
    "as_matrix": as_matrix,
    "DensityMatrix": DensityMatrix,
    "commutator-first": lambda m: commutator(m, _STATE),
    "commutator-second": lambda m: commutator(_STATE, m),
    "hs_norm_sq": hs_norm_sq,
    "purity": purity,
    "to_bloch": to_bloch,
    "incompatibility-first": lambda m: incompatibility(m, _STATE),
    "incompatibility-second": lambda m: incompatibility(_STATE, m),
    "incompatibility_trace_form": lambda m: incompatibility_trace_form(_STATE, m),
    "visibilities": lambda m: visibilities(m, _STATE),
    "coherence_l1": coherence_l1,
    "check_outer_inequality-rho0": lambda m: check_outer_inequality(m, _STATE),
    "check_outer_inequality-rhot": lambda m: check_outer_inequality(_STATE, m),
    "apply": lambda m: apply(pd(0.2), m),
    "KrausChannel": lambda m: KrausChannel((m,), "x"),
    "KrausChannel-second": lambda m: KrausChannel((np.eye(2), m), "x"),
}


@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (2, 3), (2, 2, 2)], ids=["1x1", "3x3", "2x3", "2x2x2"])
@pytest.mark.parametrize("entry", sorted(MATRIX_ENTRY_POINTS))
def test_every_matrix_entry_point_takes_only_qubit_matrices(entry, shape):
    # linalg.as_matrix is the one shape check: anything but a 2x2 array fails there, with one message.
    with pytest.raises(ValueError, match=not_qubit_matrix(shape)):
        MATRIX_ENTRY_POINTS[entry](np.full(shape, 0.25))


def test_hs_norm_sq_values():
    assert hs_norm_sq(np.zeros((2, 2))) == 0.0
    assert abs(hs_norm_sq(IDENTITY2) - 2.0) < 1e-15


def test_from_bloch_poles_and_center():
    np.testing.assert_allclose(from_bloch((0, 0, 1)).mat, np.diag([1.0, 0.0]), atol=1e-15)
    np.testing.assert_allclose(from_bloch((0, 0, 0)).mat, np.eye(2) / 2, atol=1e-15)


def test_from_bloch_matches_state_parameterization():
    x, phi = 0.7, 1.3
    v = (np.sin(x) * np.cos(phi), -np.sin(x) * np.sin(phi), np.cos(x))
    rho = from_bloch(v)
    expected = np.array(
        [
            [np.cos(x / 2) ** 2, np.exp(1j * phi) * np.sin(x) / 2],
            [np.exp(-1j * phi) * np.sin(x) / 2, np.sin(x / 2) ** 2],
        ]
    )
    np.testing.assert_allclose(rho.mat, expected, atol=1e-14)


def test_from_bloch_rejects_long_vectors():
    with pytest.raises(ValueError, match="invalid Bloch vector"):
        from_bloch((1.01, 0, 0))


def test_density_matrix_rejects_bad_inputs():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 0.3], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(2))
    with pytest.raises(ValueError, match="positive semidefinite"):
        DensityMatrix(np.diag([1.005, -0.005]))
    with pytest.raises(ValueError, match="finite"):
        DensityMatrix(np.array([[np.nan, 0], [0, 1]]))


def test_density_matrix_is_read_only():
    rho = from_bloch((0.3, 0.1, -0.2))
    with pytest.raises(ValueError):
        rho.mat[0, 0] = 2.0


def test_to_bloch_examples():
    assert to_bloch(np.diag([1.0, 0.0])) == BlochVector(0.0, 0.0, 1.0)
    assert to_bloch(np.eye(2) / 2) == BlochVector(0.0, 0.0, 0.0)
    v = to_bloch(from_bloch((0.6, 0, 0)))
    np.testing.assert_allclose(tuple(v), (0.6, 0.0, 0.0), atol=1e-15)


def test_to_bloch_rejects_other_dimensions():
    with pytest.raises(ValueError, match=not_qubit_matrix((3, 3))):
        to_bloch(np.eye(3) / 3)


def test_purity_examples():
    assert abs(purity(np.diag([1.0, 0.0])) - 1.0) < 1e-15
    assert abs(purity(np.eye(2) / 2) - 0.5) < 1e-15
    assert abs(purity(from_bloch((0.6, 0, 0))) - 0.68) < 1e-15


def test_bloch_round_trip_on_ball(rng):
    for v in sample_ball(rng, 200):
        back = to_bloch(from_bloch(v))
        np.testing.assert_allclose(back.as_array(), v, atol=1e-12)


def test_positivity_accepts_whole_ball_boundary(rng):
    d = rng.normal(size=(50, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    for v in d:
        assert from_bloch(v).mat.shape == (2, 2)
        with pytest.raises(ValueError):
            from_bloch(1.01 * v)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_commutator_of_hermitian_is_anti_hermitian(seed):
    r = np.random.default_rng(seed)
    a = r.normal(size=(2, 2)) + 1j * r.normal(size=(2, 2))
    b = r.normal(size=(2, 2)) + 1j * r.normal(size=(2, 2))
    a = a + a.conj().T
    b = b + b.conj().T
    c = commutator(a, b)
    assert np.max(np.abs(c.conj().T + c)) < 1e-14 * max(1.0, np.max(np.abs(c)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_hs_norm_unitary_invariance(seed):
    r = np.random.default_rng(seed)
    a = r.normal(size=(2, 2)) + 1j * r.normal(size=(2, 2))
    u = random_unitary(r)
    assert abs(hs_norm_sq(u @ a @ u.conj().T) - hs_norm_sq(a)) < 1e-12
