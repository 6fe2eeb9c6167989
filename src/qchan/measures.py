"""Incompatibility of state pairs; the channel closed forms live in :mod:`qchan.channels`.

The central quantity is the squared Hilbert-Schmidt norm of the commutator of
two qubit states (2x2 matrices, checked by :func:`qchan.linalg.as_matrix`),

    M(rho, sigma) = 2 Tr(C^dag C),   C = rho sigma - sigma rho,

which equals |a x b|^2 of the Bloch vectors and has the exact
trace rewriting 4 (Tr[rho^2 sigma^2] - Tr[(rho sigma)^2]). The two trace
factors are the interferometric visibilities: M = 4 (v1 - v2).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .linalg import as_matrix, bloch_array, commutator, hs_norm_sq

IMAG_RESIDUE_TOL = 1e-12
DIAGONAL_TOL = 1e-12


def _real_trace(value: complex, what: str) -> float:
    """Strip the imaginary residue of a trace that must be real."""
    if abs(value.imag) > IMAG_RESIDUE_TOL:
        raise RuntimeError(
            f"internal consistency: {what} has imaginary part {value.imag:.3e}"
        )
    return float(value.real)


def incompatibility(rho, sigma) -> float:
    """M(rho, sigma) = 2 Tr(C^dag C) with C = [rho, sigma].

    Symmetric, zero exactly when the states commute, and bounded by 1.
    """
    return 2.0 * hs_norm_sq(commutator(rho, sigma))


def incompatibility_bloch(a, b) -> float:
    """Qubit form |a x b|^2 on Bloch vectors (norms must not exceed 1)."""
    cross = np.cross(bloch_array(a), bloch_array(b))
    return float(np.dot(cross, cross))


def incompatibility_trace_form(rho, sigma) -> float:
    """Trace form 4 (Tr[rho^2 sigma^2] - Tr[(rho sigma)^2]).

    Algebraically identical to :func:`incompatibility` for Hermitian inputs.
    """
    v1, v2 = visibilities(rho, sigma)
    return 4.0 * (v1 - v2)


class VisibilityPair(NamedTuple):
    """Interference visibilities v1 = Tr[rho^2 sigma^2], v2 = Tr[(rho sigma)^2]."""

    v1: float
    v2: float


def visibilities(rho, sigma) -> VisibilityPair:
    """The two trace quantities whose difference gives M = 4 (v1 - v2)."""
    a, b = as_matrix(rho), as_matrix(sigma)
    ab = a @ b
    v1 = _real_trace(np.trace(a @ a @ b @ b), "Tr[rho^2 sigma^2]")
    v2 = _real_trace(np.trace(ab @ ab), "Tr[(rho sigma)^2]")
    return VisibilityPair(v1, v2)


def coherence_l1(rho) -> float:
    """l1-norm coherence: sum of |off-diagonal entries|."""
    m = as_matrix(rho)
    return float(np.sum(np.abs(m)) - np.sum(np.abs(np.diag(m))))


class OuterInequalityCheck(NamedTuple):
    """Outcome of the incompatibility vs coherence bound; slack = rhs - lhs."""

    holds: bool
    slack: float


def check_outer_inequality(rho0, rhot, tol: float = 1e-10) -> OuterInequalityCheck:
    """Check M(rho0, rhot) <= 2 C_l1(rhot) for a diagonal initial state.

    The bound is stated for a mixed initial state diagonal in the reference
    basis; non-diagonal rho0 violates that hypothesis and is rejected. The
    quantum-Fisher-information middle term of the full chain is intentionally
    not computed.
    """
    m0 = as_matrix(rho0)
    off = float(np.max(np.abs(m0 - np.diag(np.diag(m0)))))
    if off > DIAGONAL_TOL:
        raise ValueError(
            f"hypothesis violation: rho0 must be diagonal, off-diagonal max {off:.3e}"
        )
    lhs = incompatibility(m0, rhot)
    rhs = 2.0 * coherence_l1(rhot)
    slack = rhs - lhs
    return OuterInequalityCheck(holds=slack >= -tol, slack=slack)

