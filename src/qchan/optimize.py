"""Global maximization of output-state incompatibility over input pairs.

Two optimization domains are supported, one entry each in :data:`DOMAINS`:

``probe`` (default)
    The maximally noncommuting probe protocol: input pairs are
    ``max_noncommuting_pair(x, phi)`` with x in [0, pi/2] and phi in
    [0, 2 pi). The upper x bound keeps the partner polar angle x + pi/2
    inside the canonical [0, pi] range. The analytic closed forms of
    :func:`qchan.measures.closed_form_mu` are exact maxima over this domain,
    which is what ``validate`` checks.

``all-pairs``
    The literal maximization over all pure input pairs, a 4-angle grid over
    two full Bloch spheres. For the non-unital channels (ad, gad, unruh) this
    strictly exceeds the probe value (for example ad at gamma = 0.25 yields
    0.94447 against the probe value 0.75), because those channels can
    increase the incompatibility of inputs that are not maximally
    noncommuting. Convexity of the objective in each Bloch argument pushes
    the maximum to pure states, so this domain also dominates every mixed
    input pair.

Both stages are deterministic: a uniform grid (lexicographic tie-break on the
angle tuple, outer axes first) followed by Nelder-Mead refinement of the best
grid point on the negated objective, with angles clipped (polar) or wrapped
(azimuthal) inside the objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import optimize as _sciopt

from .channels import CHANNELS, KrausChannel, bloch_map
from .measures import closed_form_mu
from .states import StatePairParams

TWO_PI = 2.0 * np.pi
HALF_PI = 0.5 * np.pi

DOMAIN_PROBE = "probe"
DOMAIN_ALL_PAIRS = "all-pairs"


def _domain(name: str) -> Domain:
    if name not in DOMAINS:
        raise ValueError(f"domain must be one of {tuple(DOMAINS)}, got {name!r}")
    return DOMAINS[name]


@dataclass(frozen=True)
class OptimizerConfig:
    grid_points_per_angle: int = 24
    refinement_iterations: int = 200
    refinement_tolerance: float = 1e-10
    mixed_samples: int = 2000
    seed: int = 0
    domain: str = DOMAIN_PROBE

    def __post_init__(self):
        if self.grid_points_per_angle < 2:
            raise ValueError("grid_points_per_angle must be at least 2")
        if self.refinement_iterations < 1:
            raise ValueError("refinement_iterations must be positive")
        if self.refinement_tolerance <= 0.0:
            raise ValueError("refinement_tolerance must be positive")
        if self.mixed_samples < 1:
            raise ValueError("mixed_samples must be positive")
        _domain(self.domain)


@dataclass(frozen=True)
class QuantumnessResult:
    """Maximized output incompatibility with provenance.

    ``closed_form`` and ``abs_error`` are populated only for channels with a
    trusted analytic value, and only where it holds (gad is reported
    numerically only). ``converged`` is False when the refinement stage hit
    its iteration cap, which is not an error: the best value seen is still
    returned.
    """

    mu: float
    argmax_params: StatePairParams
    closed_form: Optional[float]
    abs_error: Optional[float]
    evaluations: int
    converged: bool


def _pair_bloch_vectors(x, phi):
    """Bloch vectors of the probe pair (second state at polar angle x + pi/2)."""
    sx, cx = np.sin(x), np.cos(x)
    cp, sp = np.cos(phi), np.sin(phi)
    a = np.stack([sx * cp, -sx * sp, cx], axis=-1)
    b = np.stack([cx * cp, -cx * sp, -sx], axis=-1)
    return a, b


def _single_bloch(theta, phi):
    st, ct = np.sin(theta), np.cos(theta)
    return np.stack([st * np.cos(phi), -st * np.sin(phi), ct], axis=-1)


def _cross_sq(u, v):
    c = np.cross(u, v)
    return np.sum(c * c, axis=-1)


def _probe_objective(a_mat, c_vec, x, phi):
    a, b = _pair_bloch_vectors(np.asarray(x, dtype=float), np.asarray(phi, dtype=float))
    return _cross_sq(a @ a_mat.T + c_vec, b @ a_mat.T + c_vec)


def _pairs_objective(a_mat, c_vec, angles):
    ta, pa, tb, pb = (np.asarray(v, dtype=float) for v in angles)
    out_a = _single_bloch(ta, pa) @ a_mat.T + c_vec
    out_b = _single_bloch(tb, pb) @ a_mat.T + c_vec
    return _cross_sq(out_a, out_b)


def _probe_grid(a_mat, c_vec, xs, phis):
    grid_x, grid_p = np.meshgrid(xs, phis, indexing="ij")
    values = _probe_objective(a_mat, c_vec, grid_x, grid_p)
    ix, ip = divmod(int(np.argmax(values)), len(phis))
    return np.array([xs[ix], phis[ip]]), float(values[ix, ip]), values.size


def _pairs_grid(a_mat, c_vec, thetas, phis):
    """Every ordered pair of single-state grid points, scanned in row blocks."""
    n = len(phis)
    grid_t, grid_p = np.meshgrid(thetas, phis, indexing="ij")
    outs = _single_bloch(grid_t.ravel(), grid_p.ravel()) @ a_mat.T + c_vec
    m = outs.shape[0]
    best_value = -1.0
    best_flat = 0
    block = 256
    for start in range(0, m, block):
        vals = _cross_sq(outs[start : start + block, None, :], outs[None, :, :])
        k = int(np.argmax(vals))
        if float(vals.flat[k]) > best_value:
            best_value = float(vals.flat[k])
            best_flat = start * m + k
    ia, ib = divmod(best_flat, m)
    start_angles = np.array([thetas[ia // n], phis[ia % n], thetas[ib // n], phis[ib % n]])
    return start_angles, best_value, m * m


@dataclass(frozen=True)
class Domain:
    """One optimization domain; its angles alternate polar and azimuthal.

    Polar angles lie in [0, polar_max] and azimuths in [0, 2 pi). ``grid``
    scans the uniform grid on :meth:`axes` and returns (start angles, best
    value, evaluations); ``objective`` evaluates one angle tuple; ``pair``
    turns canonical angles into the reported :class:`StatePairParams`.
    """

    polar_max: float
    grid: Callable
    objective: Callable
    pair: Callable[..., StatePairParams]

    def axes(self, n: int):
        return np.linspace(0.0, self.polar_max, n), np.linspace(0.0, TWO_PI, n, endpoint=False)

    def canonical(self, angles) -> tuple:
        """Clip polar angles into range and wrap azimuths, as plain floats."""
        return tuple(
            float(v) % TWO_PI if i % 2 else min(max(float(v), 0.0), self.polar_max)
            for i, v in enumerate(angles)
        )


DOMAINS = {
    DOMAIN_PROBE: Domain(
        HALF_PI,
        _probe_grid,
        objective=lambda a_mat, c_vec, angles: _probe_objective(a_mat, c_vec, *angles),
        pair=lambda x, phi: StatePairParams(x, phi, x + HALF_PI, phi),
    ),
    DOMAIN_ALL_PAIRS: Domain(np.pi, _pairs_grid, _pairs_objective, StatePairParams),
}


def _refine(neg_objective, start, cfg: OptimizerConfig):
    res = _sciopt.minimize(
        neg_objective,
        np.asarray(start, dtype=float),
        method="Nelder-Mead",
        options={
            "maxiter": cfg.refinement_iterations,
            "xatol": cfg.refinement_tolerance,
            "fatol": cfg.refinement_tolerance,
        },
    )
    return res


def _require_qubit(ch: KrausChannel):
    if ch.dim != 2:
        raise ValueError(f"unsupported dimension {ch.dim}: optimizer is qubit-only")


def _closed_form_fields(ch: KrausChannel, mu: float):
    spec = CHANNELS.get(ch.label)
    if spec is None or spec.closed_form is None:
        return None, None
    try:
        cf = float(closed_form_mu(ch.label, ch.params))
    except ValueError:  # missing parameters, or outside the region where it holds
        return None, None
    return cf, abs(mu - cf)


def maximize_mu(ch: KrausChannel, config: Optional[OptimizerConfig] = None) -> QuantumnessResult:
    """Maximize the output incompatibility of a qubit channel.

    Stage 1 scans a uniform grid over the configured domain; stage 2 refines
    the best grid point with Nelder-Mead on the negated objective until the
    simplex collapses below ``refinement_tolerance`` or the iteration cap is
    reached. Ties on the grid resolve to the lexicographically smallest angle
    tuple. The result is deterministic for a fixed configuration, independent
    of evaluation order.
    """
    cfg = config or OptimizerConfig()
    _require_qubit(ch)
    domain = DOMAINS[cfg.domain]
    a_mat, c_vec = bloch_map(ch)
    start, best_value, evaluations = domain.grid(a_mat, c_vec, *domain.axes(cfg.grid_points_per_angle))
    best_angles = domain.canonical(start)

    def neg(p):
        return -float(domain.objective(a_mat, c_vec, domain.canonical(p)))

    res = _refine(neg, start, cfg)
    if -res.fun > best_value:
        best_value = float(-res.fun)
        best_angles = domain.canonical(res.x)
    cf, err = _closed_form_fields(ch, best_value)
    return QuantumnessResult(
        mu=best_value,
        argmax_params=domain.pair(*best_angles),
        closed_form=cf,
        abs_error=err,
        evaluations=int(evaluations + res.nfev),
        converged=bool(res.success),
    )


def brute_force_mu(ch: KrausChannel, n: int, domain: str = DOMAIN_PROBE) -> float:
    """Exhaustive grid maximum with no refinement; a lower bound on mu.

    Deliberately evaluated through the definition route (Kraus application,
    commutator, Hilbert-Schmidt norm) rather than the affine Bloch route used
    by :func:`maximize_mu`, so the two act as independent cross-checks. The
    bound is nondecreasing under nested grid refinement.
    """
    _require_qubit(ch)
    if n < 2:
        raise ValueError("grid size must be at least 2")
    polars, phis = _domain(domain).axes(n)
    grid_x, grid_p = np.meshgrid(polars, phis, indexing="ij")
    kraus = np.stack(ch.ops)

    def push(states):
        # states: (m, 2, 2) stack -> channel outputs, same shape
        return np.einsum("kab,nbc,kdc->nad", kraus, states, kraus.conj())

    def density(bloch):
        x, y, z = bloch[..., 0], bloch[..., 1], bloch[..., 2]
        out = np.empty(bloch.shape[:-1] + (2, 2), dtype=complex)
        out[..., 0, 0] = 0.5 * (1.0 + z)
        out[..., 0, 1] = 0.5 * (x - 1j * y)
        out[..., 1, 0] = 0.5 * (x + 1j * y)
        out[..., 1, 1] = 0.5 * (1.0 - z)
        return out

    if domain == DOMAIN_PROBE:
        a, b = _pair_bloch_vectors(grid_x.ravel(), grid_p.ravel())
        out_a = push(density(a))
        out_b = push(density(b))
        comm = out_a @ out_b - out_b @ out_a
        return float(np.max(2.0 * np.sum(np.abs(comm) ** 2, axis=(-2, -1))))

    outs = push(density(_single_bloch(grid_x.ravel(), grid_p.ravel())))
    m = outs.shape[0]
    best = 0.0
    block = 128
    for start in range(0, m, block):
        left = outs[start : start + block]
        prod = np.einsum("aij,bjk->abik", left, outs)
        prod_rev = np.einsum("bij,ajk->abik", outs, left)
        vals = 2.0 * np.sum(np.abs(prod - prod_rev) ** 2, axis=(-2, -1))
        best = max(best, float(np.max(vals)))
    return best


def mixed_state_diagnostic(ch: KrausChannel, config: Optional[OptimizerConfig] = None) -> float:
    """Maximum output incompatibility over random interior Bloch-ball pairs.

    A scope probe, never the reported mu. Convexity guarantees the value is
    bounded by the all-pairs pure maximum; for non-unital channels it can
    exceed the probe-domain value, which is exactly the restriction the
    diagnostic is meant to expose.
    """
    cfg = config or OptimizerConfig()
    _require_qubit(ch)
    rng = np.random.default_rng(cfg.seed)
    a_mat, c_vec = bloch_map(ch)
    directions = rng.normal(size=(cfg.mixed_samples, 2, 3))
    directions /= np.linalg.norm(directions, axis=-1, keepdims=True)
    radii = rng.random((cfg.mixed_samples, 2, 1)) ** (1.0 / 3.0)
    pairs = directions * radii
    outs = pairs @ a_mat.T + c_vec
    return float(np.max(_cross_sq(outs[:, 0, :], outs[:, 1, :])))
