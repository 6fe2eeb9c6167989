"""Incompatibility of state pairs and channel quantumness closed forms.

The central quantity is the squared Hilbert-Schmidt norm of the commutator,

    M(rho, sigma) = 2 Tr(C^dag C),   C = rho sigma - sigma rho,

which for qubits equals |a x b|^2 of the Bloch vectors and has the exact
trace rewriting 4 (Tr[rho^2 sigma^2] - Tr[(rho sigma)^2]). The two trace
factors are the interferometric visibilities: M = 4 (v1 - v2).
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

import numpy as np

from .channels import channel_args
from .linalg import BLOCH_NORM_TOL, as_matrix, commutator, hs_norm_sq

IMAG_RESIDUE_TOL = 1e-12
DIAGONAL_TOL = 1e-12


def _real_trace(value: complex, what: str) -> float:
    """Strip the imaginary residue of a trace that must be real."""
    if abs(value.imag) > IMAG_RESIDUE_TOL:
        raise RuntimeError(
            f"internal consistency: {what} has imaginary part {value.imag:.3e}"
        )
    return float(value.real)


def _pair(rho, sigma):
    a, b = as_matrix(rho), as_matrix(sigma)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a, b


def incompatibility(rho, sigma) -> float:
    """M(rho, sigma) = 2 Tr(C^dag C) with C = [rho, sigma].

    Symmetric, zero exactly when the states commute, and bounded by 1 for
    qubit pairs.
    """
    a, b = _pair(rho, sigma)
    return 2.0 * hs_norm_sq(commutator(a, b))


def incompatibility_bloch(a, b) -> float:
    """Qubit form |a x b|^2 on Bloch vectors (norms must not exceed 1)."""
    va = np.asarray(tuple(a), dtype=float)
    vb = np.asarray(tuple(b), dtype=float)
    for v in (va, vb):
        if v.shape != (3,):
            raise ValueError("Bloch vectors must have three components")
        if np.linalg.norm(v) > 1.0 + BLOCH_NORM_TOL:
            raise ValueError(f"invalid Bloch vector: norm {np.linalg.norm(v):.12f}")
    cross = np.cross(va, vb)
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
    a, b = _pair(rho, sigma)
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
    off = float(np.max(np.abs(m0 - np.diag(np.diag(m0))))) if m0.size else 0.0
    if off > DIAGONAL_TOL:
        raise ValueError(
            f"hypothesis violation: rho0 must be diagonal, off-diagonal max {off:.3e}"
        )
    lhs = incompatibility(m0, rhot)
    rhs = 2.0 * coherence_l1(rhot)
    slack = rhs - lhs
    return OuterInequalityCheck(holds=slack >= -tol, slack=slack)


def closed_form_mu(label: str, params: Mapping[str, float]) -> float:
    """Analytic quantumness for a channel label, from the registry.

    Values are exact maxima over the maximally noncommuting probe family for
    every parameter value: rtn -> Lambda^2, nmd -> Omega^2, pd -> 1 - gamma,
    ad -> 1 - gamma, unruh -> cos^2 r, gdc -> max(l1^2, l2^2) l3^2 with
    l1 = p0+p1-p2-p3, l2 = p0-p1+p2-p3, l3 = p0-p1-p2+p3 (the Bloch map is
    diag(l1, l2, l3)). A label with no closed form (gad) raises ValueError.
    """
    spec, args = channel_args(label, params)
    if spec.closed_form is None:
        raise ValueError(f"channel {label} has no closed form")
    return spec.closed_form(*args)
