"""Qubit Kraus-operator channels with CPTP validation, plus pluggable memory kernels.

Each constructor returns a :class:`KrausChannel` whose 2x2 operators satisfy
the completeness relation sum_i K_i^dag K_i = I within 1e-10. The built-in
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
physical parameters, for one float or for a 1-D array of sweep values. The
kernel functional forms are documented defaults taken from the standard
open-systems literature, not channel-intrinsic content, and can be swapped for
any other map into [-1, 1].

:data:`CHANNELS` is the one table of per-label facts: constructor, Kraus
builder, parameter names, closed forms and sweep kernel. Everything that
dispatches on a channel label reads it. Every constructor is the one-point
case of :func:`make_channels`, which builds a batch of one family's points
from arrays of their parameters, with one contraction and one CPTP check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .linalg import DensityMatrix, IDENTITY2, PAULIS, as_matrix

COMPLETENESS_TOL = 1e-10
KERNEL_TOL = 1e-12
_BASIS = np.stack((IDENTITY2,) + PAULIS)
# _PAULI_TENSOR[(ij), (abcd)] = conj(s_i[a, c]) s_j[b, d], so Tr(s_i Phi(s_j)) = _PAULI_TENSOR[(ij)] . vec(C). Its four
# entries per row are +-1 or +-i: the real part is a signed sum of C's float view at _PAULI_PICK, signs _PAULI_SIGN.
_PAULI_TENSOR = np.einsum("iac,jbd->ijabcd", _BASIS.conj(), _BASIS).reshape(16, 16)
_COEF = _PAULI_TENSOR[_PAULI_TENSOR != 0].reshape(16, 4)
_PAULI_PICK = 2 * np.nonzero(_PAULI_TENSOR)[1].reshape(16, 4) + (_COEF.real == 0)
_PAULI_SIGN = _COEF.real - _COEF.imag


def _transfer_matrices(stacks: np.ndarray) -> np.ndarray:
    """The CPTP check of P qubit Kraus sets stacked as (P, k, 2, 2), and their read-only (P, 4, 4) transfer matrices.

    T[i, j] = Tr(s_i Phi(s_j))/2 over s = (I, X, Y, Z) comes from the Choi matrix C[(ab), (cd)] = sum_k K_ab
    conj(K_cd) by elementwise products and fixed-order sums, (t0 + t2) + (t1 + t3) over a row's four terms: a
    channel's bits do not depend on P, and terms that cancel in pairs (as in rtn(0)) give exact zeros. T's first
    row is sum K^dag K in the Pauli basis, so it is the completeness check. Raises for the first failing channel.
    """
    n, k = stacks.shape[:2]
    peak = np.maximum.reduce(np.abs(stacks).reshape(n, -1), axis=1)
    bounded = peak <= 1.0 + COMPLETENESS_TOL  # |K_ab|^2 <= (sum K^dag K)_bb; so no contraction below overflows
    # argmin is the first False, if any: one call in place of all() and argmin()
    safe = stacks if bounded[bounded.argmin()] else np.where(bounded[:, None, None, None], stacks, 0.0)
    flat = safe.reshape(n, k, 4)
    prod = flat[:, :, :, None] * flat.conj()[:, :, None, :]
    choi = prod[:, 0]
    for j in range(1, k):
        choi = choi + prod[:, j]
    terms = choi.reshape(n, 16).view(float)[:, _PAULI_PICK] * _PAULI_SIGN
    pairs = terms[..., :2] + terms[..., 2:]
    t = (0.5 * (pairs[..., 0] + pairs[..., 1])).reshape(n, 4, 4)
    # sum K^dag K = T00 I + T01 X + T02 Y + T03 Z: max |T00 - 1 +- T03| = |T00 - 1| + |T03|
    dev = np.maximum(np.abs(t[:, 0, 0] - 1.0) + np.abs(t[:, 0, 3]), np.hypot(t[:, 0, 1], t[:, 0, 2]))
    passed = bounded & (dev <= COMPLETENESS_TOL)
    i = int(passed.argmin())
    if not passed[i]:
        if bounded[i]:
            raise ValueError(f"completeness violated: max |sum K^dag K - I| = {dev[i]:.3e}")
        if not np.isfinite(stacks[i]).all():
            raise ValueError("matrix entries must be finite")
        raise ValueError(f"completeness violated: a Kraus entry has modulus {peak[i]:.3e}, above 1")
    t.setflags(write=False)
    return t


def _adopt(channels: list, label: str, stacks: np.ndarray, params: list) -> list:
    """Check and contract ``stacks``, then give channel i the label, its read-only operators, params[i], Bloch map."""
    t = _transfer_matrices(stacks)
    stacks.setflags(write=False)
    k, ops = stacks.shape[1], list(stacks.reshape(-1, *stacks.shape[2:]))  # one view per operator
    for i, (ch, p, bloch) in enumerate(zip(channels, params, zip(t[:, 1:, 1:], t[:, 1:, 0]))):
        vars(ch).update(label=label, ops=tuple(ops[i * k : (i + 1) * k]), params=p, _bloch=bloch)  # frozen: no setattr
    return channels


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A qubit channel rho -> sum_i K_i rho K_i^dag with validated completeness.

    Every operator must be 2x2. ``ops`` are read-only complex128 views of one
    stacked copy of the given operators, so later changes to the caller's
    arrays do not reach the channel. The channel builds its Pauli transfer
    matrix T[i, j] = Tr(s_i Phi(s_j))/2 once, here, as the one-channel case of
    :func:`make_channels`' check and contraction: the first row of T is the
    completeness check, and the rest is the :func:`bloch_map`. ``params``
    records the constructor arguments under their stable names (gamma,
    alpha, xi, r, p0..p3, lambda, omega) for reporting and for closed-form
    lookups. Channels compare and hash by identity.
    """

    ops: tuple
    label: str
    params: Mapping[str, float] = field(default_factory=dict)
    _bloch: tuple = field(init=False, repr=False)

    def __post_init__(self):
        mats = [as_matrix(k) for k in self.ops]
        if not mats:
            raise ValueError("channel needs at least one Kraus operator")
        if any(m.shape != (2, 2) for m in mats):
            raise ValueError("Kraus operators must be 2x2: a channel acts on one qubit")
        _adopt([self], self.label, np.array(mats)[None], [dict(self.params)])

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
    return ch._bloch


def _raise_first(*checks) -> None:
    """Raise what one-point calls in point order would raise first, if any point fails.

    Each check is (ok, message): ok marks the points that pass it and message(i) is its text for point i. The checks
    come in the order one point runs them, so the first failing point raises the message of its first failing check.
    """
    passed = checks[0][0]
    for ok, _ in checks[1:]:
        passed = passed & ok
    if passed.size:
        i = int(passed.argmin())  # the first failing point, if any fails
        if not passed[i]:
            raise ValueError(next(message(i) for ok, message in checks if not ok[i]))


def _kernel_values(values: np.ndarray, name: str, *checks) -> np.ndarray:
    """``values`` clamped to [-1, 1], after ``checks`` and the check that each is within ``KERNEL_TOL`` of it."""
    in_range = np.abs(values) <= 1.0 + KERNEL_TOL  # NaN fails this test too
    _raise_first(*checks, (in_range, lambda i: f"invalid kernel value: {name} = {values[i]:.6f} is outside [-1, 1]"))
    return np.minimum(np.maximum(values, -1.0), 1.0)


def _unit(value: float, name: str) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def _entries(*entries) -> np.ndarray:
    """The (P, k, 2, 2) complex stack of P points' k operators from their row-major entries, (P,) arrays or floats."""
    size = next(len(entry) for entry in entries if isinstance(entry, np.ndarray))
    stack = np.zeros((size, len(entries)), dtype=complex)
    real = stack.real
    for j, entry in enumerate(entries):
        if isinstance(entry, np.ndarray) or entry:  # a constant 0.0 is there already
            real[:, j] = entry
    return stack.reshape(len(stack), -1, 2, 2)


def _dephasing_kraus(name: str, values: np.ndarray):
    v = _kernel_values(values, name)
    k_plus, k_minus = np.sqrt((1.0 + v) / 2.0), np.sqrt((1.0 - v) / 2.0)
    return _entries(k_plus, 0.0, 0.0, k_plus, k_minus, 0.0, 0.0, -k_minus), [{name: x} for x in v.tolist()]


def rtn(lambda_: float) -> KrausChannel:
    """Random telegraph noise dephasing for kernel value Lambda in [-1, 1].

    K0 = k+ I and K1 = k- sigma_z with k_pm = sqrt((1 +- Lambda)/2); the map
    scales off-diagonal entries by Lambda and leaves populations untouched.
    """
    return make_channel("rtn", {"lambda": lambda_})


def nmd(omega: float) -> KrausChannel:
    """Non-Markovian dephasing: same operator structure as rtn, value Omega."""
    return make_channel("nmd", {"omega": omega})


def _pd_kraus(gamma: np.ndarray):
    records = [{"gamma": _unit(g, "gamma")} for g in gamma.tolist()]
    return _entries(1.0, 0.0, 0.0, np.sqrt(1.0 - gamma), 0.0, 0.0, 0.0, np.sqrt(gamma)), records


def pd(gamma: float) -> KrausChannel:
    """Phase damping with gamma in [0, 1].

    Kraus pair diag(1, sqrt(1-gamma)) and diag(0, sqrt(gamma)): populations
    preserved, coherences scaled by sqrt(1-gamma). The second operator's
    (0, 0) entry must be 0, not 1, for completeness to hold.
    """
    return make_channel("pd", {"gamma": gamma})


def _ad_kraus(gamma: np.ndarray):
    records = [{"gamma": _unit(g, "gamma")} for g in gamma.tolist()]
    return _entries(1.0, 0.0, 0.0, np.sqrt(1.0 - gamma), 0.0, np.sqrt(gamma), 0.0, 0.0), records


def ad(gamma: float) -> KrausChannel:
    """Amplitude damping with gamma in [0, 1] (decay |1> -> |0>)."""
    return make_channel("ad", {"gamma": gamma})


def _gad_kraus(alpha: np.ndarray, xi: np.ndarray):
    records = [{"alpha": _unit(a, "alpha"), "xi": _unit(x, "xi")} for a, x in zip(alpha.tolist(), xi.tolist())]
    sa, sb, sx, sp = np.sqrt(alpha), np.sqrt(1.0 - alpha), np.sqrt(xi), np.sqrt(1.0 - xi)
    ops = _entries(sa, 0.0, 0.0, sa * sx, 0.0, sa * sp, 0.0, 0.0, sb * sx, 0.0, 0.0, sb, 0.0, 0.0, sb * sp, 0.0)
    return ops, records


def gad(alpha: float, xi: float) -> KrausChannel:
    """Generalized amplitude damping with alpha, xi in [0, 1].

    Four operators sqrt(alpha) diag(1, sqrt(xi)), sqrt(alpha P) |0><1|,
    sqrt(beta) diag(sqrt(xi), 1) and sqrt(beta P) |1><0| with beta = 1 - alpha
    and P = 1 - xi, the unique weights for which completeness is met for every
    alpha. alpha = 1 reduces to amplitude damping with gamma = 1 - xi; xi = 1
    is the identity for any alpha.
    """
    return make_channel("gad", {"alpha": alpha, "xi": xi})


def _unruh_r(r: float) -> float:
    if not 0.0 <= r <= np.pi / 4.0 + 1e-15:
        raise ValueError(f"r must be in [0, pi/4], got {r}")
    return r


def _unruh_kraus(r: np.ndarray):
    records = [{"r": _unruh_r(x)} for x in r.tolist()]
    return _entries(np.cos(r), 0.0, 0.0, 1.0, 0.0, 0.0, np.sin(r), 0.0), records


def unruh(r: float) -> KrausChannel:
    """Unruh channel for r in [0, pi/4].

    Kraus pair diag(cos r, 1) and sin r |1><0|; complete because
    cos^2 r + sin^2 r = 1 on the |0> component. The parameter maps to an
    acceleration a through cos r = (1 + e^{-2 pi omega c / a})^{-1/2}.
    """
    return make_channel("unruh", {"r": r})


def unruh_r_from_acceleration(exponent: float) -> float:
    """Unruh parameter r with cos r = (1 + e^{-x})^{-1/2}, x = 2 pi omega c / a.

    x -> infinity (small acceleration) gives r -> 0 and quantumness cos^2 r -> 1.
    """
    x = float(exponent)
    if not x >= 0.0:
        raise ValueError("exponent 2 pi omega c / a must be nonnegative")
    return float(np.arccos(1.0 / np.sqrt(1.0 + np.exp(-x))))


def _gdc_weights(*weights: float) -> dict:
    if any(w < 0.0 for w in weights):
        raise ValueError(f"negative weight in {list(weights)}")
    total = sum(weights)
    if not abs(total - 1.0) <= 1e-12:
        raise ValueError(f"weights must sum to 1, got {total!r}")
    return {f"p{i}": w for i, w in enumerate(weights)}


def _gdc_kraus(*weights: np.ndarray):
    records = [_gdc_weights(*point) for point in zip(*(w.tolist() for w in weights))]
    s0, s1, s2, s3 = map(np.sqrt, weights)
    ops = _entries(s0, 0.0, 0.0, s0, 0.0, s1, s1, 0.0, 0.0, 0.0, 0.0, 0.0, s3, 0.0, 0.0, -s3)
    ops.imag[:, 2, 0, 1], ops.imag[:, 2, 1, 0] = -s2, s2  # sqrt(p2) Y
    return ops, records


def gdc(p0: float, p1: float, p2: float, p3: float) -> KrausChannel:
    """Generalized depolarizing channel: operators sqrt(p_i) sigma_i.

    Weights must be nonnegative and sum to 1 within 1e-12.
    """
    return make_channel("gdc", {"p0": p0, "p1": p1, "p2": p2, "p3": p3})


def _rates(gamma: float, b: float) -> tuple[float, float]:
    g, bv = float(gamma), float(b)
    if not (0.0 < g < np.inf and 0.0 < bv < np.inf):
        raise ValueError(f"gamma and b must be positive and finite, got gamma={g}, b={bv}")
    if not np.isfinite(4.0 * bv * bv + g * g):
        raise ValueError(f"gamma and b are too large: 4 b^2 + gamma^2 overflows, got gamma={g}, b={bv}")
    return g, bv


def rtn_kernel(t, gamma: float, b: float):
    """Damped random-telegraph kernel Lambda(t) for decay rate gamma and coupling b.

    Oscillatory regime (4 b^2 > gamma^2):
        Lambda = e^{-gamma t} (cos(w t) + (gamma/w) sin(w t)),  w = sqrt(4 b^2 - gamma^2)
    Damped regime (4 b^2 < gamma^2): the hyperbolic analogue with
    w_h = sqrt(gamma^2 - 4 b^2), evaluated in exponential form for stability,
    with w_h - gamma = -4 b^2 / (w_h + gamma) so that b << gamma does not cancel.
    Critical case (4 b^2 = gamma^2): (1 + gamma t) e^{-gamma t}.

    The value stays in [-1, 1] for all t >= 0 and Lambda(0) = 1. ``t`` is a float, giving a float, or a 1-D array of
    them, giving an array: the float is the one-point case, bit for bit, and a block raises the one-point message of
    its first failing t.
    """
    ts = np.array(t, dtype=float, ndmin=1)
    t_check = (0.0 <= ts) & (ts < np.inf), lambda i: f"t must be finite and nonnegative, got {ts.item(i)}"
    _raise_first((t_check[0][:1], t_check[1]))  # the first point checks its t before the rates
    g, bv = _rates(gamma, b)
    _raise_first(t_check)
    disc, checks = 4.0 * bv * bv - g * g, ()
    with np.errstate(over="ignore", invalid="ignore"):  # a rate times a large t overflows to inf, as in float products
        if disc < 0.0:
            wh = math.sqrt(-disc)
            slow = 4.0 * bv * bv / (wh + g)  # g - wh without its cancellation; 1 - g / wh = -slow / wh
            val = 0.5 * ((1.0 + g / wh) * np.exp(-slow * ts) - (slow / wh) * np.exp(-(wh + g) * ts))
        else:
            decay = np.exp(-g * ts)
            if disc > 0.0:
                w = math.sqrt(disc)
                phase = w * ts
                # e^{-gamma t} > 0 but w t overflows, so cos and sin have no argument
                no_phase = "Lambda(t) has no float value: w t overflows at t={}, gamma={}, b={}"
                checks = (((decay == 0.0) | (phase < np.inf), lambda i: no_phase.format(ts.item(i), g, bv)),)
                val = decay * (np.cos(phase) + (g / w) * np.sin(phase))
            else:
                val = (1.0 + g * ts) * decay
            # the limit 0 where e^{-gamma t} is 0: cos(w t) or 1 + gamma t may have overflowed, and 0 times either
            # is NaN
            val = np.where(decay == 0.0, 0.0, val)
    values = _kernel_values(val, "Lambda(t)", *checks)
    return values if np.ndim(t) else float(values[0])


def nmd_kernel(p):
    """Default dephasing kernel Omega(p) = 1 - 2p for p in [0, 1]; p is a float or a 1-D array, as in rtn_kernel."""
    ps = np.array(p, dtype=float, ndmin=1)
    _raise_first(((0.0 <= ps) & (ps <= 1.0), lambda i: f"p must be in [0, 1], got {ps.item(i)}"))
    values = 1.0 - 2.0 * ps
    return values if np.ndim(p) else float(values[0])


@dataclass(frozen=True)
class MemoryKernel:
    """A kernel s -> value in [-1, 1] driving rtn/nmd decoherence: on a float, or on a 1-D array of sweep values."""

    evaluate: Callable
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


def named_values(kind: str, name: str, names: Sequence[str], params: Mapping[str, float]) -> list[float]:
    """The values of exactly the parameters ``names`` in ``params``, as floats in ``names`` order.

    Raises naming the ``kind`` (channel or kernel), its ``name`` and every missing parameter, else every extra one.
    """
    try:
        values = [float(params[k]) for k in names]
    except KeyError:
        missing = ", ".join(k for k in names if k not in params)
        raise ValueError(f"{kind} {name} is missing parameter(s): {missing}") from None
    if len(params) > len(names):  # every name is present, so the other keys are extra
        raise ValueError(f"{kind} {name} does not take parameter(s): {', '.join(k for k in params if k not in names)}")
    return values


# The built-in memory kernels by name: each factory and the names of its parameters, in its argument order.
KERNELS = {"rtn-damped": (rtn_memory_kernel, ("gamma", "b")), "nmd-linear": (nmd_memory_kernel, ())}


def builtin_kernel(name: str, params: Mapping[str, float]) -> MemoryKernel:
    """Resolve a kernel of :data:`KERNELS` by name from exactly its parameters."""
    if name not in KERNELS:
        raise ValueError(f"unknown kernel {name!r} (available: {', '.join(KERNELS)})")
    factory, names = KERNELS[name]
    return factory(*named_values("kernel", name, names, params))


@dataclass(frozen=True)
class ChannelSpec:
    """The facts about one channel family, keyed by its label in :data:`CHANNELS`.

    Every callable takes the parameters positionally, in ``params`` order. ``kraus`` takes one float array per
    parameter, P points long, checks every point as a one-point call would, and returns the points' (P, k, 2, 2)
    operator stack with one ``params`` record per point; :func:`make_channels` checks and contracts the stack.
    ``closed_form`` takes floats and is the exact probe-domain maximum for every parameter value, or None when the
    family has none (gad). Sweeping ``kernel_param`` drives the first parameter through a memory kernel of
    :data:`KERNELS`, ``default_kernel`` unless another is chosen.
    """

    kraus: Callable[..., tuple[np.ndarray, list]]
    params: tuple
    closed_form: Optional[Callable[..., float]] = None
    kernel_param: Optional[str] = None
    default_kernel: Optional[str] = None


CHANNELS = {
    "rtn": ChannelSpec(partial(_dephasing_kraus, "lambda"), ("lambda",), lambda v: v**2, "t", "rtn-damped"),
    "nmd": ChannelSpec(partial(_dephasing_kraus, "omega"), ("omega",), lambda v: v**2, "p", "nmd-linear"),
    "pd": ChannelSpec(_pd_kraus, ("gamma",), closed_form=lambda gamma: 1.0 - gamma),
    "ad": ChannelSpec(_ad_kraus, ("gamma",), closed_form=lambda gamma: 1.0 - gamma),
    "gad": ChannelSpec(_gad_kraus, ("alpha", "xi")),
    "unruh": ChannelSpec(_unruh_kraus, ("r",), closed_form=lambda r: float(np.cos(r) ** 2)),
    "gdc": ChannelSpec(
        _gdc_kraus, ("p0", "p1", "p2", "p3"),
        # Bloch map diag(l1, l2, l3), so |cof(A) n(phi)|^2 = l3^2 (l2^2 sin^2 phi + l1^2 cos^2 phi)
        lambda p0, p1, p2, p3: max((p0 + p1 - p2 - p3) ** 2, (p0 - p1 + p2 - p3) ** 2) * (p0 - p1 - p2 + p3) ** 2,
    ),
}


def channel_args(label: str, params: Mapping[str, float]) -> tuple[ChannelSpec, list[float]]:
    """Registry entry for ``label`` and the values of exactly its parameters, in ``params`` order."""
    spec = CHANNELS.get(label)
    if spec is None:
        raise ValueError(f"unknown channel {label!r} (available: {', '.join(sorted(CHANNELS))})")
    return spec, named_values("channel", label, spec.params, params)


def closed_form_mu(label: str, params: Mapping[str, float]) -> float:
    """The family's ``closed_form`` at exactly its parameters; ValueError for a label with none (gad).

    Exact maxima over the probe domain for every parameter value: rtn -> Lambda^2, nmd -> Omega^2, pd -> 1 - gamma,
    ad -> 1 - gamma, unruh -> cos^2 r, gdc -> max(l1^2, l2^2) l3^2 with l1 = p0+p1-p2-p3, l2 = p0-p1+p2-p3,
    l3 = p0-p1-p2+p3 (the Bloch map is diag(l1, l2, l3)).
    """
    spec, args = channel_args(label, params)
    if spec.closed_form is None:
        raise ValueError(f"channel {label} has no closed form")
    return spec.closed_form(*args)


def make_channels(label: str, points: Sequence[Mapping[str, float]]) -> list[KrausChannel]:
    """One channel per mapping in ``points``, each from exactly its named parameters.

    The points' values go to the family's builder as one array per parameter, and its operators, stacked as
    (P, k, 2, 2), through one contraction and one CPTP check; channel i is bitwise the channel built alone, and a
    block raises the one-point message of its first failing point.
    """
    args = []
    for params in points:
        try:
            spec, values = channel_args(label, params)
        except ValueError:
            if args:  # an earlier point's value checks come first
                spec.kraus(*_columns(args))
            raise
        args.append(values)
    if not args:
        return []
    stacks, records = spec.kraus(*_columns(args))
    return _adopt([object.__new__(KrausChannel) for _ in records], label, stacks, records)


def _columns(args: list) -> np.ndarray:
    """One contiguous float array per parameter from the points' value lists: each ufunc then runs the loop it runs
    on one point."""
    return np.array(list(zip(*args)), dtype=float)


def make_channel(label: str, params: Mapping[str, float]) -> KrausChannel:
    """Build a channel from its label and exactly its named parameters: the one-point :func:`make_channels`."""
    return make_channels(label, (params,))[0]
