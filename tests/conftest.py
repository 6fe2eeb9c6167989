import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def sample_ball(rng, n):
    """n Bloch vectors uniform in the closed unit ball."""
    d = rng.normal(size=(n, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return d * rng.random((n, 1)) ** (1.0 / 3.0)


def random_unitary(rng, dim=2):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_kraus_ops(rng, n_ops):
    """Kraus operators of a random CPTP qubit map.

    They are the 2x2 blocks of a Haar-random Stinespring isometry
    C^2 -> C^2 (x) C^n_ops: the Q factor of a complex Gaussian matrix with the
    phases of R's diagonal moved into Q.
    """
    g = rng.normal(size=(2 * n_ops, 2)) + 1j * rng.normal(size=(2 * n_ops, 2))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return tuple(q[2 * k : 2 * k + 2] for k in range(n_ops))
