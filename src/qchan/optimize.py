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
iterations or at ``REFINEMENT_TOLERANCE``; the all-pairs polish also stops once
a step's first-order gain is below one ulp of the value. Both solves are
deterministic.

The probe solve uses that every probe pair has
``a x b = n(phi) = (sin phi, cos phi, 0)``, so the output cross product is

    (A a + c) x (A b + c) = cof(A) n(phi) + K (a - b),    K y = (A y) x c.

:func:`_probe_values` evaluates its squared norm on the grid, values only;
:func:`_probe_terms` adds gradient and Hessian at a point, for the polish. For
a unital channel (``c = 0`` up to ``UNITAL_TOL``) the objective
``|cof(A) n(phi)|^2`` does not depend on x: mu is the top eigenvalue of the
upper-left 2x2 block of ``cof(A)^T cof(A)``, computed in closed form from the
block's entries and reported at x = 0 and the phi of its eigenvector, for one
evaluation and no grid. An axially symmetric channel (:func:`_is_axial`) has
an objective that does not depend on phi, and its maximum
``(p^2 + q^2)(|A_zz| + |c_z|)^2`` is one evaluation too. Otherwise the solve
scans the uniform grid and polishes its best point with projected Newton
steps.

The all-pairs solve is exact in the second input b: for each first input a
the maximum over b is a trust-region subproblem in the plane normal to
A a + c (:func:`_sphere_max`), solved without ``eigh``. A unital channel gives
``|cof(A)(a x b)|^2 <= (s1 s2)^2``, attained at the top two right singular
vectors of A, for one evaluation. Otherwise the solve scans a grid over a
(n polar angles at phi_a = 0 for an axially symmetric channel, else n x n)
and polishes its best point by Newton steps on the envelope
``F(a) = max_b f(a, b)``, with the analytic gradient and Hessian of
:func:`_envelope_terms` and one exact inner solve per trial point: the grid's
in one numpy batch, a trial's in plain floats (:func:`_sphere_max_one`), where
numpy's per-call cost on one-element arrays would outweigh the arithmetic.
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

# Largest grid: all-pairs solves its n * n first inputs in one batch.
MAX_GRID_POINTS = 1024

# Rows of first inputs per all-pairs oracle product: memory O(ORACLE_BLOCK m) for m grid states.
ORACLE_BLOCK = 128

# The oracle's orthonormal Hermitian basis E_p (Tr[E_p E_q] = delta_pq): |0><0|, |1><1|, X/sqrt 2, Y/sqrt 2.
HERMITIAN_BASIS = np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]]])
HERMITIAN_BASIS[2:] /= math.sqrt(2.0)
# B[(p, q), (r, s)] = Re(Tr[E_p E_q E_r E_s] - Tr[E_p E_r E_q E_s]), from the traces of all products of four E's:
# for rho = sum h_p E_p and sigma = sum g_r E_r, Tr[rho^2 sigma^2] - Tr[(rho sigma)^2] = (h (x) h) . B (g (x) g).
_WORD_TRACES = np.einsum("pab,qbc,rcd,sda->pqrs", *[HERMITIAN_BASIS] * 4)
TRACE_FORM = (_WORD_TRACES - _WORD_TRACES.transpose(0, 2, 1, 3)).real.reshape(16, 16)


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
        if not 2 <= self.grid_points_per_angle <= MAX_GRID_POINTS:
            raise ValueError(f"grid_points_per_angle must be between 2 and {MAX_GRID_POINTS}, got {self.grid_points_per_angle}")
        _domain(self.domain)


@dataclass(frozen=True)
class QuantumnessResult:
    """Maximized output incompatibility with provenance.

    ``mu`` is at most 1, the bound of ``|a' x b'|^2`` for Bloch vectors;
    rounding above it is clipped. ``closed_form`` and ``abs_error`` are filled
    for every channel whose label has a closed form in
    :data:`qchan.channels.CHANNELS` (all but gad), at every parameter value,
    and None otherwise. ``evaluations`` counts the objective evaluations of
    the domain's solve: 1 for a closed form (unital, or axial in the probe
    domain), otherwise the grid's plus the polish's. An all-pairs evaluation
    is one first input solved exactly over every second input: n*n grid
    points (n on the axial branch) plus one per polish trial. ``converged``
    is False only when the polish hit ``REFINEMENT_ITERATIONS``; the best
    value seen is still returned.
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


def _ascent_step(grad, hess, axis=None):
    """Newton step where the Hessian (h_00, h_01, h_11) is negative definite, else the gradient.

    With ``axis`` set to 0 or 1 only that angle moves, by the same rule in one dimension.
    """
    if axis is not None:
        g, h = grad[axis], hess[2 * axis]
        step = -g / h if h < 0.0 else g
        return (step, 0.0) if axis == 0 else (0.0, step)
    g_0, g_1 = grad
    h_00, h_01, h_11 = hess
    det = h_00 * h_11 - h_01 * h_01
    if h_00 < 0.0 and det > 0.0:
        return (h_01 * g_1 - h_11 * g_0) / det, (h_01 * g_0 - h_00 * g_1) / det
    return g_0, g_1


def _probe_values(cols, xs, phis):
    """The probe objective alone on the grid ``xs`` x ``phis``, as ``|G(x) (sin phi, cos phi) + s_plus k2|^2``."""
    # G = [c0 - s_minus k1, c1 + s_minus k0]: the terms of _probe_terms grouped by phi.
    c0, c1, k0, k1, k2 = np.array(cols)
    s_minus, s_plus = (np.sin(xs) - np.cos(xs))[:, None, None], (np.sin(xs) + np.cos(xs))[:, None, None]
    g = (c0 - s_minus * k1) * np.sin(phis)[:, None] + (c1 + s_minus * k0) * np.cos(phis)[:, None] + s_plus * k2
    return np.sum(g * g, axis=-1)


def _probe_solve(a_mat, c_vec, n: int):
    """Exact solve for a unital or axially symmetric channel, else the n x n grid and a projected Newton polish.

    Returns (angles, value, evaluations, converged). The unital solve is one
    evaluation, the top eigenpair of a 2x2 block in closed form, and so is
    the axial one (:func:`_is_axial`). The polish of the grid's best point
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
    if _is_axial(a_mat, c_vec):
        # At phi = 0 the output cross product is (-q, p, 0) (t + c_z (cos x - sin x)), and no phi does better:
        # mu = (p^2 + q^2)(|t| + |c_z|)^2 at x = 0 or x = pi/2, whichever end has |t + c_z (cos x - sin x)| larger.
        (p, q, _), _, (_, _, t) = a_cols
        x = 0.0 if abs(t + c[2]) >= abs(t - c[2]) else HALF_PI
        return (x, 0.0), (p * p + q * q) * (abs(t) + abs(c[2])) ** 2, 1, True
    xs, phis = _axes(HALF_PI, n)
    ix, ip = divmod(_grid_argmax(_probe_values(cols, xs, phis)), n)
    x, phi = float(xs[ix]), float(phis[ip])
    value, grad, hess = _probe_terms(cols, x, phi)
    evaluations = n * n + 1
    for _ in range(REFINEMENT_ITERATIONS):
        # on a bound of [0, pi/2] with the gradient pointing out, only phi moves
        outward = (x <= 0.0 and grad[0] < 0.0) or (x >= HALF_PI and grad[0] > 0.0)
        step_x, step_p = _ascent_step(grad, hess, 1 if outward else None)
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


def _is_axial(a_mat, c_vec) -> bool:
    """Whether ``r -> A r + c`` commutes with rotations about z, within ``UNITAL_TOL``.

    That is, A is block-diagonal with xy block ``[[p, -q], [q, p]]`` and
    c = (0, 0, c_z), as for ad, gad and unruh and their z-rotated copies.
    """
    (a00, a01, a02), (a10, a11, a12), (a20, a21, _) = a_mat.tolist()
    c_x, c_y, _ = c_vec.tolist()
    return max(map(abs, (a00 - a11, a01 + a10, a02, a12, a20, a21, c_x, c_y))) <= UNITAL_TOL


def _sphere_max(a_mat, c_vec, a_vecs):
    """Maximum over unit b of |(A a + c) x (A b + c)|^2, and its b, for each row a of ``a_vecs``.

    With u = A a + c and (e1, e2) an orthonormal basis of the plane normal to
    u (Duff et al. 2017's branchless one), the objective is
    ``|u|^2 |Q b + d|^2`` for the 2x3 matrix Q with rows ``A^T e1``,
    ``A^T e2`` and d = (e1.c, e2.c). So the trust-region subproblem (Moré &
    Sorensen 1983) lives in the row space of Q: with ``Q Q^T = W diag(w) W^T``
    in closed form and delta = W^T d, the top two eigencomponents of
    ``g = Q^T d`` are ``sqrt(w_j) delta_j`` and the secular equation
    ``sum_j g_j^2 / (lam - w_j)^2 = 1`` has two terms. Newton on the concave,
    increasing ``1/|b(lam)|`` from below finds its root ``lam >= w_1``; the
    second coefficient is ``g_2 / (lam - w_2)`` and the top one follows from
    ``|b| = 1``, which also covers the hard case (no top component of g).
    Inside, vectors are (3, m) arrays with one column per first input; the
    maximizers come back as the rows of an (m, 3) array.
    """
    u = a_mat @ a_vecs.T + c_vec[:, None]
    norm = np.sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2])
    nx, ny, nz = u / np.maximum(norm, 1e-300)  # u = 0 gives the basis (e_x, e_y)
    sign = np.copysign(1.0, nz)
    k = -1.0 / (sign + nz)
    xy = nx * ny * k
    e1, e2 = np.array([1.0 + sign * nx * nx * k, sign * xy, -sign * nx]), np.array([xy, sign + ny * ny * k, -ny])
    q1, q2, d1, d2 = a_mat.T @ e1, a_mat.T @ e2, c_vec @ e1, c_vec @ e2
    # Eigenpairs of [[p, q], [q, r]] = Q Q^T as in _probe_solve: top eigenvector (h + half, q) or
    # (q, h - half), the one without cancellation, and (1, 0) for a multiple of the identity.
    p, q, r = np.sum(q1 * q1, axis=0), np.sum(q1 * q2, axis=0), np.sum(q2 * q2, axis=0)
    half = 0.5 * (p - r)
    h = np.hypot(half, q)
    w1, w2 = 0.5 * (p + r) + h, np.maximum(0.5 * (p + r) - h, 0.0)
    vx, vy = np.where(half >= 0.0, np.maximum(h + half, 1e-300), q), np.where(half >= 0.0, q, h - half)
    vn = np.hypot(vx, vy)
    vx, vy = vx / vn, vy / vn
    delta1, delta2 = vx * d1 + vy * d2, vx * d2 - vy * d1
    g1, g2 = np.sqrt(w1) * np.abs(delta1), np.sqrt(w2) * delta2
    # |b(lam)| >= |g_j| / (lam - w_j) for each j, so this start is at or below the root.
    lam = np.maximum(w1 + g1, w2 + np.abs(g2))
    for _ in range(100):
        r1, r2 = (lam > w1) / np.maximum(lam - w1, 1e-300), (lam > w2) / np.maximum(lam - w2, 1e-300)
        t1, t2 = g1 * r1, g2 * r2
        s = t1 * t1 + t2 * t2
        step = np.where(s > 1.0, s * (np.sqrt(s) - 1.0) / np.maximum(t1 * t1 * r1 + t2 * t2 * r2, 1e-300), 0.0)
        if (step <= 1e-15 * (1.0 + lam)).all():
            break
        lam = lam + step
    # b = Q^T W diag(w)^(-1/2) beta with beta_2 = t2 and beta_1 = +-sqrt(1 - beta_2^2); beta_2 / sqrt(w_2) = delta2 r2.
    top = np.copysign(np.sqrt(np.maximum(1.0 - t2 * t2, 0.0)), delta1) / np.sqrt(np.where(w1 > 0.0, w1, np.inf))
    b = q1 * (vx * top - vy * delta2 * r2) + q2 * (vy * top + vx * delta2 * r2)
    b_norm = np.sqrt(b[0] * b[0] + b[1] * b[1] + b[2] * b[2])
    b = np.where(b_norm > 0.0, b / np.maximum(b_norm, 1e-300), e1)  # Q = 0: every b attains the maximum
    v = a_mat @ b + c_vec[:, None]
    values = (u[1] * v[2] - u[2] * v[1]) ** 2 + (u[2] * v[0] - u[0] * v[2]) ** 2 + (u[0] * v[1] - u[1] * v[0]) ** 2
    return values, b.T


def _sphere_max_one(rows, c, a):
    """(value, b) of :func:`_sphere_max` for one first input a, line for line in plain floats; A given by its rows.

    Every vector, b included, is a float triple.
    """
    u = tuple(_dot(row, a) + s for row, s in zip(rows, c))
    norm = math.sqrt(_dot(u, u))
    nx, ny, nz = (s / max(norm, 1e-300) for s in u)
    sign = math.copysign(1.0, nz)
    k = -1.0 / (sign + nz)
    xy = nx * ny * k
    e1, e2 = (1.0 + sign * nx * nx * k, sign * xy, -sign * nx), (xy, sign + ny * ny * k, -ny)
    q1, q2, d1, d2 = *(tuple(_dot(col, e) for col in zip(*rows)) for e in (e1, e2)), _dot(c, e1), _dot(c, e2)
    p, q, r = _dot(q1, q1), _dot(q1, q2), _dot(q2, q2)
    half = 0.5 * (p - r)
    h = math.hypot(half, q)
    w1, w2 = 0.5 * (p + r) + h, max(0.5 * (p + r) - h, 0.0)
    vx, vy = (max(h + half, 1e-300), q) if half >= 0.0 else (q, h - half)
    vn = math.hypot(vx, vy)
    vx, vy = vx / vn, vy / vn
    delta1, delta2 = vx * d1 + vy * d2, vx * d2 - vy * d1
    g1, g2 = math.sqrt(w1) * abs(delta1), math.sqrt(w2) * delta2
    lam = max(w1 + g1, w2 + abs(g2))
    for _ in range(100):
        r1, r2 = (1.0 / (lam - w1) if lam > w1 else 0.0), (1.0 / (lam - w2) if lam > w2 else 0.0)
        t1, t2 = g1 * r1, g2 * r2
        s = t1 * t1 + t2 * t2
        step = s * (math.sqrt(s) - 1.0) / max(t1 * t1 * r1 + t2 * t2 * r2, 1e-300) if s > 1.0 else 0.0
        if step <= 1e-15 * (1.0 + lam):
            break
        lam += step
    top = math.copysign(math.sqrt(max(1.0 - t2 * t2, 0.0)), delta1) / math.sqrt(w1) if w1 > 0.0 else 0.0
    b = tuple(s * (vx * top - vy * delta2 * r2) + t * (vy * top + vx * delta2 * r2) for s, t in zip(q1, q2))
    b_norm = math.sqrt(_dot(b, b))
    b = tuple(s / b_norm for s in b) if b_norm > 0.0 else e1
    w = _cross(u, tuple(_dot(row, b) + s for row, s in zip(rows, c)))
    return _dot(w, w), b


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _frame(theta, phi):
    """The point (theta, phi) of the sphere and its unit tangents along theta and along phi, as float triples."""
    st, ct, sp, cp = math.sin(theta), math.cos(theta), math.sin(phi), math.cos(phi)
    return (st * cp, -st * sp, ct), (ct * cp, -ct * sp, -st), (-sp, -cp, 0.0)


def _envelope_terms(rows, c, theta, phi, b):
    """Gradient and Hessian (h_00, h_01, h_11) of F(a) = max_b f(a, b) in the tangents of a = (theta, phi).

    f = |u|^2 |v|^2 - (u.v)^2 with u = A a + c and v = A b + c, for the rows
    of A and c as float triples and b the maximizer. By the envelope theorem
    the gradient is that of f in a alone. The Hessian is the Schur complement
    ``H_aa - H_ab H_bb^{-1} H_ba`` of f's Riemannian Hessian on the two
    spheres (the term ``-(x . grad_x f) I`` on each sphere's block), or
    ``H_aa`` alone where ``H_bb`` is not negative definite and b is not
    locally unique (the hard case).
    """
    a, *a_tangents = _frame(theta, phi)
    _, *b_tangents = _frame(*_bloch_angles(b))
    aa, ab = [tuple(_dot(row, t) for row in rows) for t in (a, b)]  # A a and A b
    x = [tuple(_dot(row, t) for row in rows) for t in a_tangents]  # A t for the tangents t of a
    y = [tuple(_dot(row, t) for row in rows) for t in b_tangents]  # and of b
    u, v = tuple(s + t for s, t in zip(aa, c)), tuple(s + t for s, t in zip(ab, c))
    uu, vv, uv = _dot(u, u), _dot(v, v), _dot(u, v)
    grad_u = tuple(2.0 * (vv * s - uv * t) for s, t in zip(u, v))
    grad_v = tuple(2.0 * (uu * s - uv * t) for s, t in zip(v, u))
    xu, xv, yu, yv = [_dot(s, u) for s in x], [_dot(s, v) for s in x], [_dot(s, u) for s in y], [_dot(s, v) for s in y]
    radial_a, radial_b = _dot(aa, grad_u), _dot(ab, grad_v)
    h_aa = [[2.0 * (vv * _dot(x[i], x[j]) - xv[i] * xv[j]) - (i == j) * radial_a for j in (0, 1)] for i in (0, 1)]
    h_bb = [[2.0 * (uu * _dot(y[i], y[j]) - yu[i] * yu[j]) - (i == j) * radial_b for j in (0, 1)] for i in (0, 1)]
    h_ab = [[4.0 * xu[i] * yv[j] - 2.0 * (xv[i] * yu[j] + uv * _dot(x[i], y[j])) for j in (0, 1)] for i in (0, 1)]
    det = h_bb[0][0] * h_bb[1][1] - h_bb[0][1] * h_bb[1][0]
    if h_bb[0][0] < 0.0 and det > 0.0:
        inv = ((h_bb[1][1] / det, -h_bb[0][1] / det), (-h_bb[1][0] / det, h_bb[0][0] / det))
        for i in (0, 1):
            for j in (0, 1):
                h_aa[i][j] -= sum(h_ab[i][k] * inv[k][m] * h_ab[j][m] for k in (0, 1) for m in (0, 1))
    return (_dot(x[0], grad_u), _dot(x[1], grad_u)), (h_aa[0][0], h_aa[0][1], h_aa[1][1])


def _pairs_solve(a_mat, c_vec, n: int):
    """Closed form for a unital channel, else a grid over the first input and a Newton polish of its envelope.

    Returns (angles, value, evaluations, converged). Every grid point and
    polish trial is one exact solve over the second input: the grid's as one
    :func:`_sphere_max` batch, each trial's by :func:`_sphere_max_one` in
    plain floats, with b kept as a float triple. The polish steps by
    :func:`_ascent_step` on the gradient and Hessian of
    :func:`_envelope_terms`, halving a step until the value does not drop.
    An axially symmetric map (:func:`_is_axial`) leaves the envelope
    invariant under rotations about z, so phi_a = 0 is exact: its grid is n
    polar angles and its polish moves theta_a alone. Otherwise the grid is
    n x n and the polish steps in the tangent plane of the first input.
    """
    # numpy's products round differently for strided operands; C order makes the result depend on values only.
    a_mat, c_vec = np.ascontiguousarray(a_mat), np.ascontiguousarray(c_vec)
    if np.linalg.norm(c_vec) <= UNITAL_TOL:
        _, sing, vt = np.linalg.svd(a_mat)
        return (*_bloch_angles(vt[0]), *_bloch_angles(vt[1])), float((sing[0] * sing[1]) ** 2), 1, True
    axial = _is_axial(a_mat, c_vec)
    rows, c = a_mat.tolist(), c_vec.tolist()
    thetas, phis = _axes(np.pi, n)
    grid_t, grid_p = np.meshgrid(thetas, phis[:1] if axial else phis, indexing="ij")
    values, bs = _sphere_max(a_mat, c_vec, _single_bloch(grid_t.ravel(), grid_p.ravel()))
    k = _grid_argmax(values)
    theta, phi, value, b = float(grid_t.flat[k]), float(grid_p.flat[k]), float(values[k]), tuple(bs[k].tolist())
    evaluations = values.size
    for _ in range(REFINEMENT_ITERATIONS):
        grad, hess = _envelope_terms(rows, c, theta, phi, b)
        step = _ascent_step(grad, hess, 0 if axial else None)
        gain = grad[0] * step[0] + grad[1] * step[1]  # first-order gain of the full step
        t = 1.0
        while True:
            # a step below the tolerance, or with a first-order gain below one ulp, which no trial value can show
            if t * max(map(abs, step)) <= REFINEMENT_TOLERANCE or t * gain <= math.ulp(value):
                return (theta, phi, *_bloch_angles(b)), value, evaluations, True
            if axial:  # theta_a folded back into [0, pi]: the envelope is even in theta_a
                new_theta, new_phi = abs(math.remainder(theta + t * step[0], TWO_PI)), phi
            else:  # the tangent step, projected back onto the sphere (the angles ignore the norm)
                a, t_theta, t_phi = _frame(theta, phi)
                new_theta, new_phi = _bloch_angles([s + t * (step[0] * i + step[1] * j) for s, i, j in zip(a, t_theta, t_phi)])
            new_value, new_b = _sphere_max_one(rows, c, _frame(new_theta, new_phi)[0])
            evaluations += 1
            if new_value >= value:
                break
            t *= 0.5
        theta, phi, value, b = new_theta, new_phi, new_value, new_b
    return (theta, phi, *_bloch_angles(b)), value, evaluations, False


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
    in one product, which also takes each output state's 4 real coordinates h
    in the orthonormal Hermitian basis :data:`HERMITIAN_BASIS`. The bracket is
    the real quadratic form ``q(rho) . B q(sigma)`` on the 16-wide rows
    ``q = h (x) h``, with B = :data:`TRACE_FORM`. Probe pairs take one row-wise
    product. All-pairs takes row-by-column products ``ORACLE_BLOCK`` rows at a
    time, in O(block m) memory for m grid states, and since the bracket is
    symmetric in (rho, sigma) each block meets only the states from its own
    first row on. The bound is nondecreasing under nested grid refinement.
    """
    _require_qubit(ch)
    if n < 2:
        raise ValueError("grid size must be at least 2")
    polars, phis = _axes(_domain(domain).polar_max, n)
    grid_x, grid_p = np.meshgrid(polars, phis, indexing="ij")
    kraus = np.stack(ch.ops)
    superop = np.einsum("kab,kdc->bcad", kraus, kraus.conj()).reshape(4, 4)
    # h_p = Tr[E_p rho] = vec(rho) . vec(conj(E_p)) for the Hermitian E_p; 0.5 is the input states' factor.
    to_coords = 0.5 * superop @ HERMITIAN_BASIS.reshape(4, 4).conj().T

    def rows(bloch):
        # q = h (x) h of the channel outputs sum_k K rho K^dag of the input states, as an (m, 16) array.
        x, y, z = bloch[..., 0], bloch[..., 1], bloch[..., 2]
        h = (np.stack([1.0 + z, x - 1j * y, x + 1j * y, 1.0 - z], axis=-1) @ to_coords).real
        return (h[:, :, None] * h[:, None, :]).reshape(-1, 16)

    if domain == DOMAIN_PROBE:
        a, b = _pair_bloch_vectors(grid_x.ravel(), grid_p.ravel())
        return 4.0 * float(np.max(np.einsum("ni,ni->n", rows(a), rows(b) @ TRACE_FORM.T)))

    q = rows(_single_bloch(grid_x.ravel(), grid_p.ravel()))
    qb = q @ TRACE_FORM.T
    best = 0.0
    for start in range(0, len(q), ORACLE_BLOCK):
        best = max(best, float(np.max(q[start : start + ORACLE_BLOCK] @ qb[start:].T)))
    return 4.0 * best  # exact: a power of two
