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
    The literal maximization over all pure input pairs. For the non-unital
    channels (ad, gad, unruh) it exceeds the probe value: ad at gamma = 0.25
    gives 0.94447 against 0.75. The probe window x in [0, pi/2] accounts for
    most of that gap, since the full x-circle of maximally noncommuting pairs
    reaches 0.91337; only the rest comes from non-orthogonal pairs. Convexity
    of the objective in each Bloch argument pushes the maximum to pure states,
    so this domain also dominates every mixed input pair.

Each domain has one ``solve`` on the channel's affine Bloch map
``r -> A r + c``; :func:`maximize_mu` is ``bloch_map``, that solve, then the
closed-form fields. Grid values within ``TIE_TOL`` of the grid maximum tie,
and ties go to the lexicographically smallest angle tuple, outer axes first.
Both polishes never lower the value and stop after ``REFINEMENT_ITERATIONS``
iterations or at ``REFINEMENT_TOLERANCE``; both solves are deterministic.

The probe solve uses that every probe pair has
``a x b = n(phi) = (sin phi, cos phi, 0)``, so the output cross product is

    (A a + c) x (A b + c) = cof(A) n(phi) + K (a - b),    K y = (A y) x c.

:func:`_probe_values` evaluates its squared norm on the grid, values only;
:func:`_probe_terms` adds gradient and Hessian at a point, for the polish. For
a unital channel (``c = 0`` up to ``UNITAL_TOL``) the objective
``|cof(A) n(phi)|^2`` does not depend on x: mu is the top eigenvalue of the
upper-left 2x2 block of ``cof(A)^T cof(A)``, computed in closed form from the
block's entries and reported at x = 0 and the phi of its eigenvector, for one
evaluation and no grid. Otherwise the solve scans the uniform grid and
polishes its best point with projected Newton steps.

The all-pairs solve is exact in the second input b: for each first input a
the maximum over b is a trust-region subproblem (:func:`_sphere_max`). A
unital channel gives ``|cof(A)(a x b)|^2 <= (s1 s2)^2``, attained at the top
two right singular vectors of A, for one evaluation. Otherwise the solve scans
an n x n grid over a and polishes its best point in the sphere's tangent plane.
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

# bloch_map leaves rounding residue in c for unital channels (up to 1.1e-16 for pd, at pd(0.5)).
# Below this norm the x-dependence of the probe objective, at most
# 2 sqrt(2) |c| for a CPTP map, is under 3e-14.
UNITAL_TOL = 1e-14

# Bounds of both polishes: an iteration cap and a step tolerance in radians.
# Grid values within TIE_TOL of the grid maximum tie (a few ulp of values <= 1).
REFINEMENT_ITERATIONS = 200
REFINEMENT_TOLERANCE = 1e-10
TIE_TOL = 1e-14

# All-pairs polish: the step of its central differences, taken on a stencil of
# (s, t) offsets (centre, +-s, +-t, the four corners), and the curvature below
# which a direction is flat, 25 times their rounding noise 4e-16 / FD_STEP^2.
FD_STEP = 1e-4
FLAT_CURVATURE = 1e-6
_STENCIL = FD_STEP * np.array([[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [1, -1], [-1, 1], [-1, -1]], float)

# Rows of first inputs per all-pairs oracle product: memory O(ORACLE_BLOCK m) for m grid states.
ORACLE_BLOCK = 128


def __getattr__(name):
    # qchan does not use scipy; only benchmarks/ reads this attribute.
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
    rounding above it is clipped. ``closed_form`` and ``abs_error`` are filled
    for every channel whose label has a closed form in
    :data:`qchan.channels.CHANNELS` (all but gad), at every parameter value,
    and None otherwise. ``evaluations`` counts the objective evaluations of
    the domain's solve: 1 for a unital channel, otherwise the grid's plus the
    polish's. An all-pairs evaluation is one first input solved exactly over
    every second input (n*n on the grid, 9 per polish step tried). ``converged`` is False only when the polish hit
    ``REFINEMENT_ITERATIONS``; the best value seen is still returned.
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


def _bloch_angles(v):
    """(theta, phi) of a unit Bloch vector, the inverse of :func:`_single_bloch`."""
    return math.atan2(math.hypot(v[0], v[1]), v[2]), math.atan2(-v[1], v[0]) % TWO_PI


def _axes(polar_max: float, n: int):
    """Grid axes of a domain: n polar angles in [0, polar_max], n azimuths in [0, 2 pi)."""
    return np.linspace(0.0, polar_max, n), np.linspace(0.0, TWO_PI, n, endpoint=False)


def _grid_argmax(values) -> int:
    """Flat index of the first grid value within ``TIE_TOL`` of the maximum."""
    return int(np.argmax(values.ravel() >= values.max() - TIE_TOL))


def _cross(u, v):
    """u x v for float triples, in plain floats (small-array numpy costs more here)."""
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _cofactor(a_mat):
    """Columns of cof(A) as float triples: (A u) x (A v) = cof(A) (u x v); column j is A e_{j+1} x A e_{j+2}."""
    cols = a_mat.T.tolist()
    return [_cross(cols[j - 2], cols[j - 1]) for j in range(3)]


def _probe_terms(cols, x, phi):
    """Probe objective |cof(A) n + K d|^2 with its gradient and Hessian in (x, phi), for the polish.

    ``cols`` carries the first two columns of cof(A) and the three of K as
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


def _probe_values(cols, xs, phis):
    """The probe objective alone on the grid ``xs`` x ``phis``, as ``|G(x) (sin phi, cos phi) + s_plus k2|^2``."""
    # G = [c0 - s_minus k1, c1 + s_minus k0]: the terms of _probe_terms grouped by phi.
    c0, c1, k0, k1, k2 = np.array(cols)
    s_minus, s_plus = (np.sin(xs) - np.cos(xs))[:, None, None], (np.sin(xs) + np.cos(xs))[:, None, None]
    g = (c0 - s_minus * k1) * np.sin(phis)[:, None] + (c1 + s_minus * k0) * np.cos(phis)[:, None] + s_plus * k2
    return np.sum(g * g, axis=-1)


def _probe_solve(a_mat, c_vec, n: int):
    """Exact solve for a unital channel, else the n x n grid and a projected Newton polish of its best point.

    Returns (angles, value, evaluations, converged). The unital solve is one
    evaluation, the top eigenpair of a 2x2 block in closed form. The polish
    never lowers the value: a step is halved until the value does not drop,
    and the polish stops once a step moves the angles by at most
    ``REFINEMENT_TOLERANCE``.
    """
    a_cols, c = a_mat.T.tolist(), c_vec.tolist()
    cols = (*_cofactor(a_mat)[:2], *(_cross(col, c) for col in a_cols))
    if math.hypot(*c) <= UNITAL_TOL:
        # Top eigenpair of the block [[p, q], [q, r]]: (p + r)/2 + h, with eigenvector (h + d, q) or
        # (q, h - d), the one without cancellation; a degenerate block (q = 0, p = r) gives phi = 0.
        p, q, r = (sum(s * t for s, t in zip(cols[i], cols[j])) for i, j in ((0, 0), (0, 1), (1, 1)))
        d = 0.5 * (p - r)
        h = math.hypot(d, q)
        phi = math.atan2(*((h + d, q) if d >= 0.0 else (q, h - d))) % math.pi
        return (0.0, phi), 0.5 * (p + r) + h, 1, True
    xs, phis = _axes(HALF_PI, n)
    ix, ip = divmod(_grid_argmax(_probe_values(cols, xs, phis)), n)
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


def _sphere_max(a_mat, c_vec, a_vecs):
    """Maximum over unit b of |(A a + c) x (A b + c)|^2, and its b, for each row a of ``a_vecs``.

    With u = A a + c, M = [u]_x A, H = M^T M and g = M^T (u x c) this is the
    trust-region subproblem max ``b.H b + 2 g.b + |u x c|^2`` (Moré & Sorensen
    1983): ``b = (lam I - H)^{-1} g`` at the root lam >= lambda_max(H) of
    ``|b| = 1``, found by Newton on the concave, increasing ``1/|b(lam)|``. In
    the hard case (no top eigencomponent of g) lam = lambda_max and b is
    filled to unit norm along the top eigenvector.
    """
    u = a_vecs @ a_mat.T + c_vec
    uu, p = np.sum(u * u, axis=1), u @ a_mat  # H = |u|^2 A^T A - p p^T, g = |u|^2 A^T c - (u.c) p
    w, v = np.linalg.eigh(uu[:, None, None] * (a_mat.T @ a_mat) - p[:, :, None] * p[:, None, :])
    gt = np.einsum("nij,ni->nj", v, uu[:, None] * (c_vec @ a_mat) - (u @ c_vec)[:, None] * p)
    # |b(lam)| >= |gt_j| / (lam - w_j) for each j, so this start is at or below the root.
    lam = np.maximum(w[:, -1], np.max(w + np.abs(gt), axis=1))
    for _ in range(100):
        r = np.where((gt != 0.0) & (lam[:, None] > w), 1.0 / np.maximum(lam[:, None] - w, 1e-300), 0.0)
        s = np.sum((gt * r) ** 2, axis=1)
        step = np.where(s > 1.0, s * (np.sqrt(s) - 1.0) / np.maximum(np.sum(gt * gt * r**3, axis=1), 1e-300), 0.0)
        if np.all(step <= 1e-15 * (1.0 + lam)):
            break
        lam = lam + step
    coef = gt * r
    coef[:, -1] += np.where(coef[:, -1] == 0.0, np.sqrt(np.maximum(1.0 - np.sum(coef * coef, axis=1), 0.0)), 0.0)
    b = np.einsum("nij,nj->ni", v, coef)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    return np.sum(np.cross(u, b @ a_mat.T + c_vec) ** 2, axis=1), b


def _tangent_points(theta, phi, steps):
    """The point at (theta, phi) moved by each (s, t) row of ``steps`` along its theta and phi tangents, normalized."""
    st, ct, sp, cp = math.sin(theta), math.cos(theta), math.sin(phi), math.cos(phi)
    points = np.array([st * cp, -st * sp, ct]) + steps @ np.array([[ct * cp, -ct * sp, -st], [-sp, -cp, 0.0]])
    return points / np.linalg.norm(points, axis=1, keepdims=True)


def _pairs_solve(a_mat, c_vec, n: int):
    """Closed form for a unital channel, else an n x n grid over the first input and a Newton polish.

    Returns (angles, value, evaluations, converged). The polish steps by
    Newton along negative curvature, by the gradient along positive curvature
    and not at all along flat directions (ad, gad and unruh are invariant
    under z-rotation), halving a step until the value does not drop.
    """
    # numpy's products round differently for strided operands; C order makes the result depend on values only.
    a_mat, c_vec = np.ascontiguousarray(a_mat), np.ascontiguousarray(c_vec)
    if np.linalg.norm(c_vec) <= UNITAL_TOL:
        _, sing, vt = np.linalg.svd(a_mat)
        return (*_bloch_angles(vt[0]), *_bloch_angles(vt[1])), float((sing[0] * sing[1]) ** 2), 1, True
    grid_t, grid_p = np.meshgrid(*_axes(np.pi, n), indexing="ij")
    k = _grid_argmax(_sphere_max(a_mat, c_vec, _single_bloch(grid_t.ravel(), grid_p.ravel()))[0])
    theta, phi = float(grid_t.flat[k]), float(grid_p.flat[k])
    f, b = _sphere_max(a_mat, c_vec, _tangent_points(theta, phi, _STENCIL))
    evaluations = n * n + len(_STENCIL)
    for _ in range(REFINEMENT_ITERATIONS):
        h_st = 0.25 * (f[5] - f[6] - f[7] + f[8])
        hess = np.array([[f[1] + f[2], h_st], [h_st, f[3] + f[4]]]) - 2.0 * f[0] * np.eye(2)
        curv, vecs = np.linalg.eigh(hess / FD_STEP**2)
        gain = np.where(curv < -FLAT_CURVATURE, -1.0 / np.minimum(curv, -FLAT_CURVATURE), curv > FLAT_CURVATURE)
        step = vecs @ (gain * (vecs.T @ np.array([f[1] - f[2], f[3] - f[4]]))) / (2.0 * FD_STEP)
        t = 1.0
        while True:
            if t * np.max(np.abs(step)) <= REFINEMENT_TOLERANCE:
                return (theta, phi, *_bloch_angles(b[0])), float(f[0]), evaluations, True
            new_theta, new_phi = _bloch_angles(_tangent_points(theta, phi, t * step[None])[0])
            new_f, new_b = _sphere_max(a_mat, c_vec, _tangent_points(new_theta, new_phi, _STENCIL))
            evaluations += len(_STENCIL)
            if new_f[0] >= f[0]:
                break
            t *= 0.5
        theta, phi, f, b = new_theta, new_phi, new_f, new_b
    return (theta, phi, *_bloch_angles(b[0])), float(f[0]), evaluations, False


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
    except ValueError:  # a KrausChannel built directly may lack the parameters
        return None, None
    return cf, abs(mu - cf)


def maximize_mu(ch: KrausChannel, config: Optional[OptimizerConfig] = None) -> QuantumnessResult:
    """Maximize the output incompatibility of a qubit channel.

    Computes the channel's Bloch map and runs the configured domain's solve
    (see the module docstring); grid ties (within ``TIE_TOL``) resolve to the
    lexicographically smallest angle tuple. The result is deterministic for a
    fixed configuration.
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

    Deliberately evaluated through Kraus application and the trace form
    ``4 (Tr[rho^2 sigma^2] - Tr[(rho sigma)^2])``, not the affine Bloch route
    used by :func:`maximize_mu`, so the two act as independent cross-checks.
    The input states go through the Kraus superoperator ``sum_k K (x) conj(K)``
    in one product. Each output state gives a complex row
    ``L(rho) = [vec(rho^2), vec(rho (x) rho)]`` and a row ``R(sigma)`` with
    ``L(rho) . R(sigma)`` equal to the bracket; both are stored as real rows of
    twice the width whose dot product is ``Re(L(rho) . R(sigma))``. All-pairs
    takes row-by-column products ``ORACLE_BLOCK`` rows at a time, in
    O(block m) memory for m grid states, and since the bracket is symmetric in
    (rho, sigma) each block meets only the states from its own first row on.
    The bound is nondecreasing under nested grid refinement.
    """
    _require_qubit(ch)
    if n < 2:
        raise ValueError("grid size must be at least 2")
    polars, phis = _axes(_domain(domain).polar_max, n)
    grid_x, grid_p = np.meshgrid(polars, phis, indexing="ij")
    kraus = np.stack(ch.ops)
    superop = np.einsum("kab,kdc->bcad", kraus, kraus.conj()).reshape(4, 4)

    def outputs(bloch):
        # Channel outputs sum_k K rho K^dag of the input states, as an (m, 2, 2) stack.
        x, y, z = bloch[..., 0], bloch[..., 1], bloch[..., 2]
        states = 0.5 * np.stack([1.0 + z, x - 1j * y, x + 1j * y, 1.0 - z], axis=-1)
        return (states @ superop).reshape(-1, 2, 2)

    # L(rho) . R(sigma) = sum rho2_ij sigma2_ji - sum rho_ij rho_kl sigma_jk sigma_li over (i, j, k, l);
    # with x.view(float) = (Re x0, Im x0, ...), L.view(float) . conj(R).view(float) = Re(L . R).
    def left(rho):
        sq = np.einsum("nij,njk->nik", rho, rho)
        return np.concatenate([sq.reshape(-1, 4), np.einsum("nij,nkl->nijkl", rho, rho).reshape(-1, 16)], axis=1).view(float)

    def right(sigma):
        sq = np.einsum("nij,njk->nki", sigma, sigma)
        row = np.concatenate([sq.reshape(-1, 4), -np.einsum("njk,nli->nijkl", sigma, sigma).reshape(-1, 16)], axis=1)
        return np.conj(row).view(float)

    if domain == DOMAIN_PROBE:
        a, b = _pair_bloch_vectors(grid_x.ravel(), grid_p.ravel())
        return 4.0 * float(np.max(np.einsum("ni,ni->n", left(outputs(a)), right(outputs(b)))))

    rho = outputs(_single_bloch(grid_x.ravel(), grid_p.ravel()))
    lrows, rrows = left(rho), right(rho)
    best = 0.0
    for start in range(0, len(lrows), ORACLE_BLOCK):
        best = max(best, float(np.max(lrows[start : start + ORACLE_BLOCK] @ rrows[start:].T)))
    return 4.0 * best  # exact: a power of two
