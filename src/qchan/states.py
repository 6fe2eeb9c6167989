"""Parameterized pure-state pairs used to probe channels.

The probe family is built from two single-qubit pure states

    |a> = cos(x/2)|0> + e^{-i phi} sin(x/2)|1>
    |b> = cos(y/2)|0> + e^{-i xi}  sin(y/2)|1>

whose density matrices carry e^{+i phi} on the upper off-diagonal. The sign
convention matters: it fixes the Bloch vector to
(sin x cos phi, -sin x sin phi, cos x), the one map :func:`bloch_vectors`.
Setting y = x + pi/2 and xi = phi makes the pair maximally noncommuting
(incompatibility 1) for every (x, phi).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .linalg import DensityMatrix, from_bloch

TWO_PI = 2.0 * np.pi
HALF_PI = 0.5 * np.pi


class StatePairParams(NamedTuple):
    """Angles (radians) for a probe pair; canonical ranges x, y in [0, pi], phi, xi in [0, 2 pi)."""

    x: float
    phi: float
    y: float
    xi: float


def bloch_vectors(theta, phi):
    """Bloch vectors of the pure states at polar angles theta and azimuths phi, stacked on a new last axis."""
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), -st * np.sin(phi), np.cos(theta)], axis=-1)


def state_pair(params: StatePairParams) -> tuple[DensityMatrix, DensityMatrix]:
    """Build the pure pair (rho_a, rho_b) for the given angles.

    Angles outside the canonical ranges are reduced modulo 2 pi rather than
    rejected.
    """
    x, phi, y, xi = (float(v) % TWO_PI for v in params)
    return from_bloch(bloch_vectors(x, phi)), from_bloch(bloch_vectors(y, xi))


def probe_params(x, phi) -> StatePairParams:
    """Angles of the maximally noncommuting probe pair at (x, phi): y = x + pi/2, xi = phi; floats or arrays."""
    return StatePairParams(x, phi, x + HALF_PI, phi)


def max_noncommuting_pair(x: float, phi: float) -> tuple[DensityMatrix, DensityMatrix]:
    """The states of :func:`probe_params`; their incompatibility is 1 for every (x, phi).

    x is reduced modulo 2 pi first, an exact step on [0, 2 pi): at |x| near 1e16, x + pi/2 rounds to x.
    """
    return state_pair(probe_params(float(x) % TWO_PI, phi))
