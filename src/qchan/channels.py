"""Kraus-operator channels with CPTP validation, plus pluggable memory kernels.

Each constructor returns a :class:`KrausChannel` whose operators satisfy the
completeness relation sum_i K_i^dag K_i = I within 1e-10. The built-in
channels:

    rtn    random telegraph noise dephasing, kernel value Lambda
    nmd    non-Markovian dephasing, kernel value Omega
    pd     phase damping, rate gamma
    ad     amplitude damping, rate gamma
    gad    generalized amplitude damping, parameters alpha and xi
    unruh  acceleration-induced thermal channel, parameter r
    gdc    generalized depolarizing (Pauli) channel, weights p0..p3

Memory kernels are injected as values: ``rtn``/``nmd`` take the scalar kernel
value, while :func:`rtn_kernel` / :func:`nmd_kernel` produce those values from
physical parameters. The kernel functional forms are documented defaults taken
from the standard open-systems literature, not channel-intrinsic content, and
can be swapped for any other map into [-1, 1].

:data:`CHANNELS` is the one table of per-label facts: constructor, parameter
names, closed forms and sweep kernel. Everything that dispatches on a channel
label reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from .linalg import DensityMatrix, IDENTITY2, PAULIS, SIGMA_X, SIGMA_Y, SIGMA_Z

COMPLETENESS_TOL = 1e-10
KERNEL_TOL = 1e-12
_BASIS = np.stack((IDENTITY2,) + PAULIS)
# _PAULI_TENSOR[(ij), (abcd)] = conj(s_i[a, c]) s_j[b, d], so Tr(s_i Phi(s_j)) = _PAULI_TENSOR[(ij)] . vec(C)
_PAULI_TENSOR = np.einsum("iac,jbd->ijabcd", _BASIS.conj(), _BASIS).reshape(16, 16)


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A channel rho -> sum_i K_i rho K_i^dag with validated completeness.

    ``ops`` are read-only complex128 views of one stacked copy of the given
    operators, so later changes to the caller's arrays do not reach the
    channel. A qubit channel builds its Pauli transfer matrix
    T[i, j] = Tr(s_i Phi(s_j))/2 once, here, from one Choi contraction: the
    first row is sum K^dag K in the Pauli basis, so it is the completeness
    check, and the rest is the :func:`bloch_map`. Other dimensions check
    sum K^dag K directly. ``params`` records the constructor arguments under
    their stable names (gamma, alpha, xi, r, p0..p3, lambda, omega) for
    reporting and for closed-form lookups. Channels compare and hash by identity.
    """

    ops: tuple
    label: str
    params: Mapping[str, float] = field(default_factory=dict)
    _bloch: Optional[tuple] = field(init=False, repr=False, default=None)

    def __post_init__(self):
        mats = [np.asarray(k, dtype=complex) for k in self.ops]
        if not mats:
            raise ValueError("channel needs at least one Kraus operator")
        for m in mats:
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"expected a square matrix, got shape {m.shape}")
            if m.shape != mats[0].shape:
                raise ValueError("all Kraus operators must share one dimension")
        stack, dim = np.array(mats), len(mats[0])
        peak = np.abs(stack).max()
        if not peak <= 1.0 + COMPLETENESS_TOL:  # |K_ab|^2 <= (sum K^dag K)_bb; so no contraction below overflows
            if not np.isfinite(stack).all():
                raise ValueError("matrix entries must be finite")
            raise ValueError(f"completeness violated: a Kraus entry has modulus {peak:.3e}, above 1")
        if dim == 2:
            # T[i, j] = Tr(s_i Phi(s_j))/2 over s = (I, X, Y, Z) from C[(ab), (cd)] = sum_k K_ab conj(K_cd), built
            # from elementwise products: a BLAS product's fused multiply-adds break the exact zeros of rtn(0).
            flat = stack.reshape(-1, 4)
            choi = (flat[:, :, None] * flat.conj()[:, None, :]).sum(axis=0)
            t = 0.5 * (_PAULI_TENSOR @ choi.reshape(16)).real.reshape(4, 4)
            t.setflags(write=False)
            object.__setattr__(self, "_bloch", (t[1:, 1:], t[1:, 0]))
            # sum K^dag K = T00 I + T01 X + T02 Y + T03 Z: max |T00 - 1 +- T03| = |T00 - 1| + |T03|
            t00, t01, t02, t03 = t[0].tolist()
            dev = max(abs(t00 - 1.0) + abs(t03), math.hypot(t01, t02))
        else:
            # sum_i K_i^dag K_i = V^dag V with V the rows of every K_i stacked
            rows = stack.reshape(-1, dim)
            dev = float(np.abs(rows.conj().T @ rows - np.eye(dim)).max())
        if not dev <= COMPLETENESS_TOL:
            raise ValueError(f"completeness violated: max |sum K^dag K - I| = {dev:.3e}")
        stack.setflags(write=False)
        object.__setattr__(self, "ops", tuple(stack))
        object.__setattr__(self, "params", dict(self.params))

    @property
    def dim(self) -> int:
        return self.ops[0].shape[0]


def apply(ch: KrausChannel, rho) -> DensityMatrix:
    """Apply the channel: sum_i K_i rho K_i^dag."""
    state = rho if isinstance(rho, DensityMatrix) else DensityMatrix(rho)
    if state.dim != ch.dim:
        raise ValueError(f"dimension mismatch: channel {ch.dim}, state {state.dim}")
    out = sum(k @ state.mat @ k.conj().T for k in ch.ops)
    return DensityMatrix(out)


def bloch_map(ch: KrausChannel) -> tuple[np.ndarray, np.ndarray]:
    """Affine Bloch representation r -> A r + c of a qubit channel.

    A[i, j] = Tr(sigma_i Phi(sigma_j))/2 and c[i] = Tr(sigma_i Phi(I))/2.
    Exact for any CPTP qubit map; used as the fast evaluation route. A read:
    the channel builds its transfer matrix at construction, and ``A`` and
    ``c`` are read-only views of it, the same objects on every call.
    """
    if ch.dim != 2:
        raise ValueError("Bloch representation is qubit-only")
    return ch._bloch


def _check_kernel_value(value: float, name: str) -> float:
    v = float(value)
    if not abs(v) <= 1.0 + KERNEL_TOL:  # NaN fails this test too
        raise ValueError(f"invalid kernel value: {name} = {v:.6f} is outside [-1, 1]")
    return min(1.0, max(-1.0, v))


def _dephasing_pair(value: float):
    k_plus = math.sqrt((1.0 + value) / 2.0)
    k_minus = math.sqrt((1.0 - value) / 2.0)
    return (k_plus * np.asarray(IDENTITY2), k_minus * np.asarray(SIGMA_Z))


def rtn(lambda_: float) -> KrausChannel:
    """Random telegraph noise dephasing for kernel value Lambda in [-1, 1].

    K0 = k+ I and K1 = k- sigma_z with k_pm = sqrt((1 +- Lambda)/2); the map
    scales off-diagonal entries by Lambda and leaves populations untouched.
    """
    value = _check_kernel_value(lambda_, "lambda")
    return KrausChannel(_dephasing_pair(value), "rtn", {"lambda": value})


def nmd(omega: float) -> KrausChannel:
    """Non-Markovian dephasing: same operator structure as rtn, value Omega."""
    value = _check_kernel_value(omega, "omega")
    return KrausChannel(_dephasing_pair(value), "nmd", {"omega": value})


def pd(gamma: float) -> KrausChannel:
    """Phase damping with gamma in [0, 1].

    Kraus pair diag(1, sqrt(1-gamma)) and diag(0, sqrt(gamma)): populations
    preserved, coherences scaled by sqrt(1-gamma). The second operator's
    (0, 0) entry must be 0, not 1, for completeness to hold.
    """
    g = float(gamma)
    if not 0.0 <= g <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {g}")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - g)]], dtype=complex)
    k1 = np.array([[0.0, 0.0], [0.0, np.sqrt(g)]], dtype=complex)
    return KrausChannel((k0, k1), "pd", {"gamma": g})


def ad(gamma: float) -> KrausChannel:
    """Amplitude damping with gamma in [0, 1] (decay |1> -> |0>)."""
    g = float(gamma)
    if not 0.0 <= g <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {g}")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - g)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(g)], [0.0, 0.0]], dtype=complex)
    return KrausChannel((k0, k1), "ad", {"gamma": g})


def gad(alpha: float, xi: float) -> KrausChannel:
    """Generalized amplitude damping with alpha, xi in [0, 1].

    Four operators sqrt(alpha) diag(1, sqrt(xi)), sqrt(alpha P) |0><1|,
    sqrt(beta) diag(sqrt(xi), 1) and sqrt(beta P) |1><0| with beta = 1 - alpha
    and P = 1 - xi, the unique weights for which completeness is met for every
    alpha. alpha = 1 reduces to amplitude damping with gamma = 1 - xi; xi = 1
    is the identity for any alpha.
    """
    a = float(alpha)
    x = float(xi)
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {a}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"xi must be in [0, 1], got {x}")
    beta = 1.0 - a
    p = 1.0 - x
    g0 = np.sqrt(a) * np.array([[1.0, 0.0], [0.0, np.sqrt(x)]], dtype=complex)
    g1 = np.sqrt(a) * np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=complex)
    g3 = np.sqrt(beta) * np.array([[np.sqrt(x), 0.0], [0.0, 1.0]], dtype=complex)
    g4 = np.sqrt(beta) * np.array([[0.0, 0.0], [np.sqrt(p), 0.0]], dtype=complex)
    return KrausChannel((g0, g1, g3, g4), "gad", {"alpha": a, "xi": x})


def unruh(r: float) -> KrausChannel:
    """Unruh channel for r in [0, pi/4].

    Kraus pair diag(cos r, 1) and sin r |1><0|; complete because
    cos^2 r + sin^2 r = 1 on the |0> component. The parameter maps to an
    acceleration a through cos r = (1 + e^{-2 pi omega c / a})^{-1/2}.
    """
    rv = float(r)
    if not 0.0 <= rv <= np.pi / 4.0 + 1e-15:
        raise ValueError(f"r must be in [0, pi/4], got {rv}")
    u0 = np.array([[np.cos(rv), 0.0], [0.0, 1.0]], dtype=complex)
    u1 = np.array([[0.0, 0.0], [np.sin(rv), 0.0]], dtype=complex)
    return KrausChannel((u0, u1), "unruh", {"r": rv})


def unruh_r_from_acceleration(exponent: float) -> float:
    """Unruh parameter r with cos r = (1 + e^{-x})^{-1/2}, x = 2 pi omega c / a.

    x -> infinity (small acceleration) gives r -> 0 and quantumness cos^2 r -> 1.
    """
    x = float(exponent)
    if not x >= 0.0:
        raise ValueError("exponent 2 pi omega c / a must be nonnegative")
    return float(np.arccos(1.0 / np.sqrt(1.0 + np.exp(-x))))


def gdc(p0: float, p1: float, p2: float, p3: float) -> KrausChannel:
    """Generalized depolarizing channel: operators sqrt(p_i) sigma_i.

    Weights must be nonnegative and sum to 1 within 1e-12.
    """
    weights = [float(p) for p in (p0, p1, p2, p3)]
    if any(w < 0.0 for w in weights):
        raise ValueError(f"negative weight in {weights}")
    total = sum(weights)
    if not abs(total - 1.0) <= 1e-12:
        raise ValueError(f"weights must sum to 1, got {total!r}")
    mats = (np.asarray(IDENTITY2), np.asarray(SIGMA_X), np.asarray(SIGMA_Y), np.asarray(SIGMA_Z))
    ops = tuple(np.sqrt(w) * m for w, m in zip(weights, mats))
    params = {f"p{i}": w for i, w in enumerate(weights)}
    return KrausChannel(ops, "gdc", params)


def _rates(gamma: float, b: float) -> tuple[float, float]:
    g, bv = float(gamma), float(b)
    if not (0.0 < g < np.inf and 0.0 < bv < np.inf):
        raise ValueError(f"gamma and b must be positive and finite, got gamma={g}, b={bv}")
    if not np.isfinite(4.0 * bv * bv + g * g):
        raise ValueError(f"gamma and b are too large: 4 b^2 + gamma^2 overflows, got gamma={g}, b={bv}")
    return g, bv


def rtn_kernel(t: float, gamma: float, b: float) -> float:
    """Damped random-telegraph kernel Lambda(t) for decay rate gamma and coupling b.

    Oscillatory regime (4 b^2 > gamma^2):
        Lambda = e^{-gamma t} (cos(w t) + (gamma/w) sin(w t)),  w = sqrt(4 b^2 - gamma^2)
    Damped regime (4 b^2 < gamma^2): the hyperbolic analogue with
    w_h = sqrt(gamma^2 - 4 b^2), evaluated in exponential form for stability,
    with w_h - gamma = -4 b^2 / (w_h + gamma) so that b << gamma does not cancel.
    Critical case (4 b^2 = gamma^2): (1 + gamma t) e^{-gamma t}.

    The value stays in [-1, 1] for all t >= 0 and Lambda(0) = 1.
    """
    tv = float(t)
    if not 0.0 <= tv < np.inf:
        raise ValueError(f"t must be finite and nonnegative, got {tv}")
    g, bv = _rates(gamma, b)
    disc = 4.0 * bv * bv - g * g
    if disc > 0.0:
        w = np.sqrt(disc)
        val = np.exp(-g * tv) * (np.cos(w * tv) + (g / w) * np.sin(w * tv))
    elif disc < 0.0:
        wh = np.sqrt(-disc)
        slow = 4.0 * bv * bv / (wh + g)  # g - wh without its cancellation; 1 - g / wh = -slow / wh
        val = 0.5 * ((1.0 + g / wh) * np.exp(-slow * tv) - (slow / wh) * np.exp(-(wh + g) * tv))
    else:
        val = (1.0 + g * tv) * np.exp(-g * tv)
    return _check_kernel_value(val, "Lambda(t)")


def nmd_kernel(p: float) -> float:
    """Default dephasing kernel Omega(p) = 1 - 2p for p in [0, 1]."""
    pv = float(p)
    if not 0.0 <= pv <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {pv}")
    return 1.0 - 2.0 * pv


@dataclass(frozen=True)
class MemoryKernel:
    """A scalar kernel s -> value in [-1, 1] driving rtn/nmd decoherence."""

    evaluate: Callable[[float], float]
    label: str


def rtn_memory_kernel(gamma: float, b: float) -> MemoryKernel:
    """Time kernel t -> rtn_kernel(t, gamma, b), label carries the parameters."""
    g, bv = _rates(gamma, b)
    return MemoryKernel(
        evaluate=lambda t: rtn_kernel(t, g, bv),
        label=f"rtn-damped(gamma={g:g},b={bv:g})",
    )


def nmd_memory_kernel() -> MemoryKernel:
    """Probability kernel p -> 1 - 2p."""
    return MemoryKernel(evaluate=nmd_kernel, label="nmd-linear")


def builtin_kernel(name: str, params: Mapping[str, float]) -> MemoryKernel:
    """Resolve a kernel by name from exactly its parameters: rtn-damped takes gamma and b, nmd-linear none."""
    names = {"rtn-damped": ("gamma", "b"), "nmd-linear": ()}.get(name)
    if names is None:
        raise ValueError(f"unknown kernel {name!r} (available: rtn-damped, nmd-linear)")
    extra = [k for k in params if k not in names]
    if extra:
        raise ValueError(f"kernel {name} does not take parameter(s): {', '.join(extra)}")
    try:
        return nmd_memory_kernel() if name == "nmd-linear" else rtn_memory_kernel(params["gamma"], params["b"])
    except KeyError as exc:
        raise ValueError(f"kernel rtn-damped needs parameter {exc}") from None


def _squared(v: float) -> float:
    return v**2


def _one_minus(gamma: float) -> float:
    return 1.0 - gamma


def _cos_squared(r: float) -> float:
    return float(np.cos(r) ** 2)


def _ad_coherence(gamma: float) -> float:
    if gamma > 1.0 / 6.0:
        return 1.0 - gamma
    return (6.0 * gamma * gamma - 3.0 * gamma + 2.0) / 6.0


def _gad_coherence(alpha: float, xi: float) -> dict:
    xi_tilde = 2.5 * (alpha - 1.0) ** 2 * (1.0 - xi) ** 2
    return {"late": xi, "early": 0.5 * xi + xi_tilde}


@dataclass(frozen=True)
class ChannelSpec:
    """The facts about one channel family, keyed by its label in :data:`CHANNELS`.

    Every callable takes the parameters positionally, in ``params`` order.
    ``closed_form`` is the exact probe-domain maximum for every parameter
    value, or None when the family has none (gad). ``coherence`` is the
    coherence-based measure's reference curve. Sweeping ``kernel_param``
    drives the first parameter through a memory kernel, ``default_kernel``
    unless another is chosen.
    """

    make: Callable[..., KrausChannel]
    params: tuple
    coherence: Callable
    closed_form: Optional[Callable[..., float]] = None
    kernel_param: Optional[str] = None
    default_kernel: Optional[str] = None


CHANNELS = {
    "rtn": ChannelSpec(
        rtn, ("lambda",), closed_form=_squared, coherence=_squared, kernel_param="t", default_kernel="rtn-damped"
    ),
    "nmd": ChannelSpec(
        nmd, ("omega",), closed_form=_squared, coherence=_squared, kernel_param="p", default_kernel="nmd-linear"
    ),
    "pd": ChannelSpec(pd, ("gamma",), closed_form=_one_minus, coherence=_one_minus),
    "ad": ChannelSpec(ad, ("gamma",), closed_form=_one_minus, coherence=_ad_coherence),
    "gad": ChannelSpec(gad, ("alpha", "xi"), coherence=_gad_coherence),
    "unruh": ChannelSpec(unruh, ("r",), closed_form=_cos_squared, coherence=_cos_squared),
    "gdc": ChannelSpec(
        gdc,
        ("p0", "p1", "p2", "p3"),
        # Bloch map diag(l1, l2, l3), so |cof(A) n(phi)|^2 = l3^2 (l2^2 sin^2 phi + l1^2 cos^2 phi)
        closed_form=lambda p0, p1, p2, p3: (
            max((p0 + p1 - p2 - p3) ** 2, (p0 - p1 + p2 - p3) ** 2) * (p0 - p1 - p2 + p3) ** 2
        ),
        coherence=lambda p0, p1, p2, p3: (p0 - p1) ** 2 + (p2 - p3) ** 2,
    ),
}


def channel_args(label: str, params: Mapping[str, float]) -> tuple[ChannelSpec, list]:
    """Registry entry for ``label`` and its parameter values in ``params`` order."""
    spec = CHANNELS.get(label)
    if spec is None:
        raise ValueError(f"unknown channel {label!r} (available: {', '.join(sorted(CHANNELS))})")
    missing = [k for k in spec.params if k not in params]
    if missing:
        raise ValueError(f"missing parameter(s) for {label}: {', '.join(missing)}")
    return spec, [float(params[k]) for k in spec.params]


def make_channel(label: str, params: Mapping[str, float]) -> KrausChannel:
    """Build a channel from its label and exactly its named parameters."""
    spec, args = channel_args(label, params)
    extra = [k for k in params if k not in spec.params]
    if extra:
        raise ValueError(f"channel {label} does not take parameter(s): {', '.join(extra)}")
    return spec.make(*args)
