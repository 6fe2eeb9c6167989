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

Each domain has one ``solve`` on the channel's affine Bloch map
``r -> A r + c``; :func:`maximize_mu` is ``bloch_map``, that solve, then the
closed-form fields. Grid scans break ties lexicographically on the angle
tuple, outer axes first. Both refines stop after ``REFINEMENT_ITERATIONS``
iterations or at ``REFINEMENT_TOLERANCE``, and both solves are deterministic.

The probe solve uses that every probe pair has
``a x b = n(phi) = (sin phi, cos phi, 0)``, so the output cross product is

    (A a + c) x (A b + c) = cof(A) n(phi) + K (a - b),    K y = (A y) x c.

One function, :func:`_probe_terms`, evaluates its squared norm (with gradient
and Hessian) on a grid or at a point. For a unital channel (``c = 0`` up to
``UNITAL_TOL``) the objective ``|cof(A) n(phi)|^2`` does not depend on x: mu
is the top eigenvalue of the upper-left 2x2 block of ``cof(A)^T cof(A)``,
reported at x = 0 and the phi of its eigenvector, for one evaluation and no
grid. Otherwise the solve scans the uniform grid and polishes its best point
with projected Newton steps.

The all-pairs solve scans its 4-angle grid, then runs Nelder-Mead on the
negated objective from the best point, with angles clipped (polar) or wrapped
(azimuthal) inside the objective; it is the only user of scipy, which is
imported on its first call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .channels import CHANNELS, KrausChannel, bloch_map
from .measures import closed_form_mu
from .states import StatePairParams

TWO_PI = 2.0 * np.pi
HALF_PI = 0.5 * np.pi

DOMAIN_PROBE = "probe"
DOMAIN_ALL_PAIRS = "all-pairs"

# bloch_map leaves rounding residue in c for unital channels (4e-17 for pd).
# Below this norm the x-dependence of the probe objective, at most
# 2 sqrt(2) |c| for a CPTP map, is under 3e-14.
UNITAL_TOL = 1e-14

# Bounds of both refines: an iteration cap, and a step (probe) or simplex
# (all-pairs) tolerance.
REFINEMENT_ITERATIONS = 200
REFINEMENT_TOLERANCE = 1e-10


def __getattr__(name):
    # scipy.optimize costs most of the import time and memory of the package,
    # and only the all-pairs refine uses it.
    if name == "_sciopt":
        from scipy import optimize

        return optimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _domain(name: str) -> Domain:
    if name not in DOMAINS:
        raise ValueError(f"domain must be one of {tuple(DOMAINS)}, got {name!r}")
    return DOMAINS[name]


@dataclass(frozen=True)
class OptimizerConfig:
    grid_points_per_angle: int = 24
    domain: str = DOMAIN_PROBE

    def __post_init__(self):
        if self.grid_points_per_angle < 2:
            raise ValueError("grid_points_per_angle must be at least 2")
        _domain(self.domain)


@dataclass(frozen=True)
class QuantumnessResult:
    """Maximized output incompatibility with provenance.

    ``mu`` is at most 1, the bound of ``|a' x b'|^2`` for Bloch vectors;
    rounding above it is clipped. ``closed_form`` and ``abs_error`` are
    populated only for channels with a trusted analytic value, and only where
    it holds (gad is reported numerically only). ``evaluations`` counts the
    objective evaluations of the domain's solve: 1 for the probe eigen-solve
    of a unital channel, otherwise the grid's plus the refine's (the points
    the probe Newton polish evaluated, or Nelder-Mead's function calls in the
    all-pairs domain). ``converged`` is False only when the refine stopped at
    ``REFINEMENT_ITERATIONS`` (probe) or at Nelder-Mead's iteration or
    evaluation cap (all-pairs), which is not an error: the best value seen is
    still returned.
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


def _pairs_objective(a_mat, c_vec, angles):
    ta, pa, tb, pb = (np.asarray(v, dtype=float) for v in angles)
    out_a = _single_bloch(ta, pa) @ a_mat.T + c_vec
    out_b = _single_bloch(tb, pb) @ a_mat.T + c_vec
    return _cross_sq(out_a, out_b)


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


def _pairs_canonical(angles) -> tuple:
    """Clip the two polar angles into [0, pi] and wrap the azimuths, as plain floats."""
    return tuple(float(v) % TWO_PI if i % 2 else min(max(float(v), 0.0), np.pi) for i, v in enumerate(angles))


def _axes(polar_max: float, n: int):
    """Grid axes of a domain: n polar angles in [0, polar_max], n azimuths in [0, 2 pi)."""
    return np.linspace(0.0, polar_max, n), np.linspace(0.0, TWO_PI, n, endpoint=False)


def _cofactor(a_mat):
    """cof(A), the matrix with (A u) x (A v) = cof(A) (u x v)."""
    cols = a_mat.T
    return np.cross(np.roll(cols, -1, axis=0), np.roll(cols, -2, axis=0)).T


def _probe_terms(cols, x, phi):
    """Probe objective |cof(A) n + K d|^2 with its gradient and Hessian in (x, phi).

    ``cols`` holds the first two columns of cof(A) and the three of K as
    float triples. With m = dn/dphi = (cos phi, -sin phi, 0) the difference of
    the pair's Bloch vectors is d = (sin x - cos x) m + (sin x + cos x) e_z.
    ``x`` and ``phi`` are floats or arrays that broadcast together.
    """
    c0, c1, k0, k1, k2 = cols
    sp, cp = np.sin(phi), np.cos(phi)
    s_minus, s_plus = np.sin(x) - np.cos(x), np.sin(x) + np.cos(x)
    f = f_x = f_p = f_xx = f_pp = f_xp = 0.0
    for i in range(3):
        cn, cm = sp * c0[i] + cp * c1[i], cp * c0[i] - sp * c1[i]
        kn, km = sp * k0[i] + cp * k1[i], cp * k0[i] - sp * k1[i]
        g = cn + s_minus * km + s_plus * k2[i]
        g_x, g_p = s_plus * km - s_minus * k2[i], cm - s_minus * kn
        f += g * g
        f_x += g * g_x
        f_p += g * g_p
        f_xx += g_x * g_x - g * (s_minus * km + s_plus * k2[i])
        f_pp += g_p * g_p - g * (cn + s_minus * km)
        f_xp += g_x * g_p - g * s_plus * kn
    return f, (2.0 * f_x, 2.0 * f_p), (2.0 * f_xx, 2.0 * f_xp, 2.0 * f_pp)


def _ascent_step(x: float, grad, hess):
    """Newton step where the Hessian is negative definite, else the gradient.

    With x on a bound of [0, pi/2] and the gradient pointing out, only phi moves.
    """
    g_x, g_p = grad
    h_xx, h_xp, h_pp = hess
    if (x <= 0.0 and g_x < 0.0) or (x >= HALF_PI and g_x > 0.0):
        return 0.0, (-g_p / h_pp if h_pp < 0.0 else g_p)
    det = h_xx * h_pp - h_xp * h_xp
    if h_xx < 0.0 and det > 0.0:
        return (h_xp * g_p - h_pp * g_x) / det, (h_xp * g_x - h_xx * g_p) / det
    return g_x, g_p


def _probe_solve(a_mat, c_vec, n: int):
    """Exact solve for a unital channel, else the n x n grid and a projected Newton polish of its best point.

    Returns (angles, value, evaluations, converged). The unital solve is one
    evaluation. The polish never lowers the value: a step is halved until the
    value does not drop, and the polish stops once a step moves the angles by
    at most ``REFINEMENT_TOLERANCE``.
    """
    cof = _cofactor(a_mat)
    cols = (*cof[:, :2].T.tolist(), *np.cross(a_mat.T, c_vec).tolist())
    if np.linalg.norm(c_vec) <= UNITAL_TOL:
        _, vecs = np.linalg.eigh((cof.T @ cof)[:2, :2])
        phi = math.atan2(vecs[0, -1], vecs[1, -1]) % math.pi
        return (0.0, phi), float(_probe_terms(cols, 0.0, phi)[0]), 1, True
    xs, phis = _axes(HALF_PI, n)
    ix, ip = divmod(int(np.argmax(_probe_terms(cols, xs[:, None], phis)[0])), n)
    x, phi = float(xs[ix]), float(phis[ip])
    value, grad, hess = _probe_terms(cols, x, phi)
    evaluations = n * n + 1
    for _ in range(REFINEMENT_ITERATIONS):
        step_x, step_p = _ascent_step(x, grad, hess)
        t = 1.0
        while True:
            new_x = min(max(x + t * step_x, 0.0), HALF_PI)
            if max(abs(new_x - x), abs(t * step_p)) <= REFINEMENT_TOLERANCE:
                return (float(x), float(phi)), float(value), evaluations, True
            terms = _probe_terms(cols, new_x, phi + t * step_p)
            evaluations += 1
            if terms[0] >= value:
                break
            t *= 0.5
        x, phi = new_x, (phi + t * step_p) % TWO_PI
        value, grad, hess = terms
    return (float(x), float(phi)), float(value), evaluations, False


def _pairs_refine(a_mat, c_vec, start, start_value):
    """Nelder-Mead on the negated all-pairs objective from the grid's best point.

    Returns (angles, value, evaluations, converged); the grid point is kept
    unless Nelder-Mead finds a higher value.
    """
    from scipy import optimize as sciopt

    def neg(p):
        return -float(_pairs_objective(a_mat, c_vec, _pairs_canonical(p)))

    res = sciopt.minimize(
        neg,
        np.asarray(start, dtype=float),
        method="Nelder-Mead",
        options={
            "maxiter": REFINEMENT_ITERATIONS,
            "xatol": REFINEMENT_TOLERANCE,
            "fatol": REFINEMENT_TOLERANCE,
        },
    )
    if -res.fun > start_value:
        return _pairs_canonical(res.x), float(-res.fun), res.nfev, bool(res.success)
    return _pairs_canonical(start), start_value, res.nfev, bool(res.success)


def _pairs_solve(a_mat, c_vec, n: int):
    """The all-pairs grid with n points per angle, then Nelder-Mead from its best point."""
    start, value, grid_evaluations = _pairs_grid(a_mat, c_vec, *_axes(np.pi, n))
    angles, value, refine_evaluations, converged = _pairs_refine(a_mat, c_vec, start, value)
    return angles, value, grid_evaluations + refine_evaluations, converged


@dataclass(frozen=True)
class Domain:
    """One optimization domain; its angles alternate polar and azimuthal.

    Polar angles lie in [0, polar_max] and azimuths in [0, 2 pi). ``solve``
    takes the Bloch map ``(A, c)`` and the grid points per angle and returns
    (angles, value, evaluations, converged); ``pair`` turns those angles into
    the reported :class:`StatePairParams`.
    """

    polar_max: float
    solve: Callable
    pair: Callable[..., StatePairParams]


DOMAINS = {
    DOMAIN_PROBE: Domain(HALF_PI, _probe_solve, pair=lambda x, phi: StatePairParams(x, phi, x + HALF_PI, phi)),
    DOMAIN_ALL_PAIRS: Domain(np.pi, _pairs_solve, StatePairParams),
}


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

    Computes the channel's Bloch map and runs the configured domain's solve
    (see the module docstring); grid ties resolve to the lexicographically
    smallest angle tuple. The result is deterministic for a fixed
    configuration.
    """
    cfg = config or OptimizerConfig()
    _require_qubit(ch)
    domain = DOMAINS[cfg.domain]
    angles, mu, evaluations, converged = domain.solve(*bloch_map(ch), cfg.grid_points_per_angle)
    mu = min(mu, 1.0)  # |a' x b'|^2 <= 1; bloch_map rounding can land just above
    cf, err = _closed_form_fields(ch, mu)
    return QuantumnessResult(
        mu=mu,
        argmax_params=domain.pair(*angles),
        closed_form=cf,
        abs_error=err,
        evaluations=evaluations,
        converged=converged,
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
    polars, phis = _axes(_domain(domain).polar_max, n)
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

