"""Qubit matrix helpers and validated qubit state representations.

Matrices are plain 2x2 ``numpy.ndarray`` values of dtype complex128, and
:func:`as_matrix` is the one check of a matrix's shape: every input matrix
enters through it. Quantum states get a thin validated wrapper
(:class:`DensityMatrix`) so that every downstream computation can rely on
Hermiticity, unit trace and positivity. All values are immutable after
construction and all functions are pure.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
BLOCH_NORM_TOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a

IDENTITY2 = _readonly(np.eye(2, dtype=complex))
SIGMA_X = _readonly(np.array([[0, 1], [1, 0]], dtype=complex))
SIGMA_Y = _readonly(np.array([[0, -1j], [1j, 0]], dtype=complex))
SIGMA_Z = _readonly(np.array([[1, 0], [0, -1]], dtype=complex))
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def as_matrix(a) -> np.ndarray:
    """Coerce a DensityMatrix or array-like to a 2x2 complex ndarray with finite entries."""
    if isinstance(a, DensityMatrix):
        return a.mat
    m = np.asarray(a, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix: qchan acts on one qubit, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix entries must be finite")
    return m


def commutator(a, b) -> np.ndarray:
    """Commutator AB - BA. Anti-Hermitian whenever A and B are Hermitian."""
    ma, mb = as_matrix(a), as_matrix(b)
    return ma @ mb - mb @ ma


def hs_norm_sq(a) -> float:
    """Squared Hilbert-Schmidt norm Tr(A^dag A) = sum of |entries|^2."""
    m = as_matrix(a)
    return float(np.sum(np.abs(m) ** 2))


class BlochVector(NamedTuple):
    """Real 3-vector r with rho = (I + r . sigma)/2; |r| <= 1, =1 for pure states."""

    x: float
    y: float
    z: float

    @property
    def norm(self) -> float:
        return float(np.sqrt(self.x**2 + self.y**2 + self.z**2))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


def min_eigenvalue(mat: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian 2x2 matrix, by the analytic formula (deterministic, no iterative solver)."""
    half_tr = 0.5 * (mat[0, 0] + mat[1, 1]).real
    det = (mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]).real
    disc = max(half_tr * half_tr - det, 0.0)
    return float(half_tr - np.sqrt(disc))


class DensityMatrix:
    """Validated qubit state: a 2x2 matrix, Hermitian, unit trace, positive semidefinite.

    Construction rejects matrices violating any invariant:
    max |M - M^dag| <= 1e-12, |Tr M - 1| <= 1e-12, min eigenvalue >= -1e-10.
    The stored array is read-only; instances are safe to share across threads.
    """

    __slots__ = ("mat",)

    def __init__(self, mat):
        m = as_matrix(mat)
        herm_dev = float(np.max(np.abs(m - m.conj().T)))
        if herm_dev > HERMITICITY_TOL:
            raise ValueError(f"not Hermitian: max |M - M^dag| = {herm_dev:.3e}")
        trace_dev = abs(np.trace(m) - 1.0)
        if trace_dev > TRACE_TOL:
            raise ValueError(f"trace is not 1: |Tr - 1| = {trace_dev:.3e}")
        lam = min_eigenvalue(m)
        if lam < EIGENVALUE_FLOOR:
            raise ValueError(f"not positive semidefinite: min eigenvalue = {lam:.3e}")
        self.mat = _readonly(m.copy())


def bloch_array(v) -> np.ndarray:
    """A Bloch vector as a float array, checked to have three components and norm at most 1 + ``BLOCH_NORM_TOL``."""
    r = np.asarray(tuple(v), dtype=float)
    if r.shape != (3,):
        raise ValueError("Bloch vector must have three real components")
    norm = float(np.linalg.norm(r))
    if norm > 1.0 + BLOCH_NORM_TOL:
        raise ValueError(f"invalid Bloch vector: norm {norm:.12f} exceeds 1")
    return r


def from_bloch(v) -> DensityMatrix:
    """Qubit state (I + r . sigma)/2 for a Bloch vector with |r| <= 1."""
    x, y, z = bloch_array(v)
    mat = 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]], dtype=complex)
    return DensityMatrix(mat)


def to_bloch(rho) -> BlochVector:
    """Bloch vector of a qubit state; inverse of :func:`from_bloch`."""
    m = as_matrix(rho)
    x = float((m[0, 1] + m[1, 0]).real)
    y = float((1j * (m[0, 1] - m[1, 0])).real)
    z = float((m[0, 0] - m[1, 1]).real)
    return BlochVector(x, y, z)


def purity(rho) -> float:
    """Tr(rho^2), in [1/2, 1] for a qubit state; equals 1 exactly for pure states."""
    return hs_norm_sq(rho)
