"""Global maximization of output-state incompatibility over input pairs.

Two optimization domains are supported, one entry each in :data:`DOMAINS`:

``probe`` (default)
    The maximally noncommuting probe protocol: input pairs are
    ``probe_params(x, phi)`` with x in [0, pi/2] and phi in
    [0, 2 pi). The upper x bound keeps the partner polar angle x + pi/2
    inside the canonical [0, pi] range. The analytic closed forms of
    :func:`qchan.channels.closed_form_mu` are exact maxima over this domain,
    which is what ``validate`` checks.

``all-pairs``
    The literal maximization over all pure input pairs. For the non-unital
    channels (ad, gad, unruh) it exceeds the probe value: ad at gamma = 0.25
    gives 0.94447 against 0.75. The probe window x in [0, pi/2] accounts for
    most of that gap, since the full x-circle of maximally noncommuting pairs
    reaches 0.91337; only the rest comes from non-orthogonal pairs. Convexity
    of the objective in each Bloch argument pushes the maximum to pure states,
    so this domain also dominates every mixed input pair. The closed forms of
    :func:`qchan.channels.closed_form_mu` do not apply here, so its results
    carry no closed-form fields.

A domain's entry is its solve on the channel's affine Bloch map
``r -> A r + c``, which returns the reported :class:`StatePairParams`;
:func:`maximize_mu` is ``bloch_map``, that solve, then, in the probe domain,
the closed-form fields. Grid values within ``TIE_TOL`` of the grid maximum
tie, and ties go to the lexicographically smallest angle tuple, outer axes
first. Each solve that is not a closed form ends in :func:`_polish`; all are
deterministic.

The probe solve uses that every probe pair has
``a x b = n(phi) = (sin phi, cos phi, 0)``, so the output cross product is

    (A a + c) x (A b + c) = cof(A) n(phi) + K (a - b),    K y = (A y) x c.

For fixed x, grouped by phi, this is ``|G(x) n + w(x)|^2`` on the unit
circle, a trust-region subproblem (Moré & Sorensen 1983) that
:func:`_probe_circle` solves exactly; :func:`_probe_solve` scans x and
polishes the envelope ``max_phi``. The all-pairs solve (:func:`_pairs_solve`)
is exact in the second input b: for each first input a the maximum over b is
a trust-region subproblem in the plane normal to A a + c
(:func:`_sphere_max`), and it polishes the envelope ``max_b`` over a; its
grid stage (:func:`_grid_max`) bounds every grid point and solves exactly only
those that can reach the maximum (k points tied within ``TIE_TOL`` cost k
solves). Unital and axially symmetric channels have closed forms in both
domains (:func:`_axial_pairs` in all-pairs), one evaluation each, and take no
grid. Each exact solve (:func:`_trust_region_2x2`,
:func:`_sphere_max`, :func:`_probe_circle`) is one routine, run on numpy
arrays (``xp = numpy``: the probe x grid) or on one point's floats
(``xp =`` :class:`_Floats`: polish trials, contenders). The all-pairs bound
runs the 2x2 step's secular stage (:func:`_secular`) alone on arrays, without
building the maximizer, and its largest bound is solved first.

The all-pairs grid over the first input and the oracle's input states come
from one table, :func:`_grid`. An entry holds each grid point's polar angle,
azimuth and three Bloch components as read-only float64 arrays, n polar angles
by n azimuths. It is keyed by the polar range and n. The table fills on first
use, not at import, and keeps the ``GRID_CACHE_SIZE`` (4) most recently used
entries of at most ``GRID_CACHE_POINTS`` (65,536) points; a larger grid is
built for its call alone. One entry holds 40 bytes per point: about 23 KB for
an n = 24 all-pairs grid and at most 2.6 MB, so the table retains at most
about 10.5 MB.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .channels import KrausChannel, bloch_map, closed_form_mu
from .states import HALF_PI, TWO_PI, StatePairParams, bloch_vectors, probe_params

DOMAIN_PROBE = "probe"
DOMAIN_ALL_PAIRS = "all-pairs"

# bloch_map leaves rounding residue in c for unital channels (up to 1.1e-16 for pd, at pd(0.5)).
# Below this norm the x-dependence of the probe objective, at most
# 2 sqrt(2) |c| for a CPTP map, is under 3e-14.
UNITAL_TOL = 1e-14

# Bounds of the polish (:func:`_polish`): an iteration cap and a step tolerance in radians.
# Grid values within TIE_TOL of the grid maximum tie (a few ulp of values <= 1).
REFINEMENT_ITERATIONS = 200
REFINEMENT_TOLERANCE = 1e-10
TIE_TOL = 1e-14
# The polish's H_bb is negative definite when its larger eigenvalue is below -DEFINITE_TOL times its largest entry. The
# entries' rounding is about 1e-15 of that scale, so a singular H_bb (a unitary map) takes the hard case whatever it
# rounds to. The ratio is -0.34 or below on the benchmark maps and about -2e-10 on ad(1e-9).
DEFINITE_TOL = 1e-12

# Grid points per angle: the default, and the largest (all-pairs bounds its n * n first inputs in one array pass).
DEFAULT_GRID = 24
MAX_GRID_POINTS = 1024

# Entries of the grid table (:func:`_grid`), and the most points it keeps per entry (n = 256 all-pairs, 2.6 MB).
GRID_CACHE_SIZE = 4
GRID_CACHE_POINTS = 65_536

# First inputs per all-pairs oracle product: memory O(ORACLE_BLOCK m) for m grid states. Before the oracle pruned its
# columns, 64 beat 128 by 7-11% at n = 96 and tied with it in the all-pairs benchmark (n = 24).
ORACLE_BLOCK = 64
# Relative widening of the oracle's pruning bound |h_i|^2 |h_j|^2; the products' rounding is below 1e-13 of it.
ORACLE_MARGIN = 1e-9

# The Pauli matrices S = (I, X, Y, Z), and the oracle's orthonormal traceless basis E_p = (X, Y, Z) / sqrt 2.
PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
TRACELESS_BASIS = PAULI[1:] / math.sqrt(2.0)
# The bracket Tr[rho^2 sigma^2] - Tr[(rho sigma)^2] = -Tr[[rho, sigma]^2] / 2 ignores rho -> rho + t I, so with
# h_p = Tr[E_p rho] and g_r = Tr[E_r sigma] it is (h (x) h) . B9 (g (x) g), B9[(p, q), (r, s)] the real part of
# Tr[E_p E_q E_r E_s] - Tr[E_p E_r E_q E_s]. TRACE_FORM = F^T B9 F acts on the 6 products h_p h_q, p <= q
# (TRACE_PAIRS): F maps both (p, q) and (q, p) to the column of h_p h_q.
TRACE_PAIRS = np.triu_indices(3)
_FOLD = np.zeros((3, 3, 6))
_FOLD[(*TRACE_PAIRS, range(6))] = _FOLD[(*TRACE_PAIRS[::-1], range(6))] = 1.0
_WORD_TRACES = np.einsum("pab,qbc,rcd,sda->pqrs", *[TRACELESS_BASIS] * 4)
_B9 = (_WORD_TRACES - _WORD_TRACES.transpose(0, 2, 1, 3)).real
TRACE_FORM = np.einsum("pqx,pqrs,rsy->xy", _FOLD, _B9, _FOLD)


def __getattr__(name):
    # qchan does not use scipy; only benchmarks/ reads this attribute.
    if name == "_sciopt":
        from scipy import optimize

        return optimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _domain(name: str) -> str:
    if name not in DOMAINS:
        raise ValueError(f"domain must be one of {tuple(DOMAINS)}, got {name!r}")
    return name


def check_grid(n: int, source: str) -> int:
    """``n`` if it is an integer grid size in [2, ``MAX_GRID_POINTS``], else a ValueError that names its ``source``."""
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"{source} must be an integer, got {n!r}")
    if not 2 <= n <= MAX_GRID_POINTS:
        raise ValueError(f"{source} must be between 2 and {MAX_GRID_POINTS}, got {n}")
    return n


@dataclass(frozen=True)
class OptimizerConfig:
    grid_points_per_angle: int = DEFAULT_GRID
    domain: str = DOMAIN_PROBE

    def __post_init__(self):
        check_grid(self.grid_points_per_angle, "grid_points_per_angle")
        _domain(self.domain)


@dataclass(frozen=True)
class QuantumnessResult:
    """Maximized output incompatibility with provenance.

    ``mu`` is at most 1, the bound of ``|a' x b'|^2`` for Bloch vectors;
    rounding above it is clipped. ``closed_form`` and ``abs_error`` are filled
    in the probe domain for every channel whose label has a closed form in
    :data:`qchan.channels.CHANNELS` (all but gad), and None otherwise and in
    all-pairs. ``evaluations`` counts the objective evaluations of the domain's
    solve: 1 for a closed form (unital or axial, always converged), else n
    (probe) or n*n (all-pairs) grid points plus one per polish trial, each an
    exact solve over phi (probe) or over the second input (all-pairs; a grid
    point by its upper bound, and exactly only where that can reach the grid
    maximum). The polish stops once a step moves at most
    ``REFINEMENT_TOLERANCE`` or gains at most one ulp of the value;
    ``converged`` is False only when it stopped at ``REFINEMENT_ITERATIONS``
    instead. The best value seen is returned.
    """

    mu: float
    argmax_params: StatePairParams
    closed_form: Optional[float]
    abs_error: Optional[float]
    evaluations: int
    converged: bool


class _Floats:
    """``xp`` for one point: the numpy names the shared solves call, on floats; ``where`` evaluates both branches."""

    sqrt, hypot, copysign, sin, cos, arctan2 = math.sqrt, math.hypot, math.copysign, math.sin, math.cos, math.atan2
    maximum, all, where = max, bool, staticmethod(lambda cond, a, b: a if cond else b)


def _azimuth(xp, s, c):
    """atan2(s, c) in [0, 2 pi); ``% TWO_PI`` alone rounds a tiny negative angle to 2 pi, here folded to 0."""
    phi = xp.arctan2(s, c) % TWO_PI
    return xp.where(phi == TWO_PI, 0.0, phi)


def _bloch_angles(v):
    """(theta, phi) of a unit Bloch vector, the inverse of :func:`qchan.states.bloch_vectors`."""
    return math.atan2(math.hypot(v[0], v[1]), v[2]), _azimuth(_Floats, -v[1], v[0])


class _Grid(NamedTuple):
    """A grid of input states, polar angle major: the angles and the Bloch components of each point, read-only."""

    theta: np.ndarray
    phi: np.ndarray
    bloch: np.ndarray  # (3, points)


def _build_grid(polar_max: float, n: int) -> _Grid:
    """n polar angles in [0, polar_max] by n azimuths in [0, 2 pi), polar angle major."""
    thetas, phis = np.linspace(0.0, polar_max, n), np.linspace(0.0, TWO_PI, n, endpoint=False)
    theta, phi = (axis.ravel() for axis in np.meshgrid(thetas, phis, indexing="ij"))
    grid = _Grid(theta, phi, np.ascontiguousarray(bloch_vectors(theta, phi).T))
    for array in grid:
        array.flags.writeable = False
    return grid


_grid_table = functools.lru_cache(maxsize=GRID_CACHE_SIZE)(_build_grid)


def _grid(polar_max: float, n: int) -> _Grid:
    """The grid of a domain (module docstring): from the table up to ``GRID_CACHE_POINTS`` points, else built anew."""
    return (_grid_table if n * n <= GRID_CACHE_POINTS else _build_grid)(polar_max, n)


def _grid_argmax(values) -> int:
    """Flat index of the first grid value within ``TIE_TOL`` of the maximum."""
    return int(np.argmax(values.ravel() >= values.max() - TIE_TOL))


def _cross(u, v):
    """u x v for triples of floats or of arrays, by components."""
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _cofactor(cols):
    """The first two columns of cof(A), from A's columns, as float triples: A e_1 x A e_2 and A e_2 x A e_0.

    (A u) x (A v) = cof(A) (u x v), and a probe pair's u x v lies in the xy plane.
    """
    return _cross(cols[1], cols[2]), _cross(cols[2], cols[0])


def _probe_terms(cols, x: float, phi: float):
    """Gradient (f_x, 0) and Hessian (F'', 0, -1), as in :func:`_envelope_terms`, of the probe envelope F = max_phi f.

    The unused second axis has no gradient and unit negative curvature, so :func:`_ascent_step` moves x alone.

    At the maximizer phi, ``F'' = f_xx - f_xphi^2 / f_phiphi`` (f_xx where f_phiphi >= 0). f = |cof(A) n + K d|^2 with
    ``cols`` the first two columns of cof(A) and the three of K as float triples; with m = dn/dphi =
    (cos phi, -sin phi, 0), the pair's Bloch vectors differ by d = (sin x - cos x) m + (sin x + cos x) e_z.
    """
    c0, c1, k0, k1, k2 = cols
    sp, cp = math.sin(phi), math.cos(phi)
    s_minus, s_plus = math.sin(x) - math.cos(x), math.sin(x) + math.cos(x)
    f_x = f_xx = f_pp = f_xp = 0.0
    for i in range(3):
        cn, cm = sp * c0[i] + cp * c1[i], cp * c0[i] - sp * c1[i]
        kn, km = sp * k0[i] + cp * k1[i], cp * k0[i] - sp * k1[i]
        g = cn + s_minus * km + s_plus * k2[i]
        g_x, g_p = s_plus * km - s_minus * k2[i], cm - s_minus * kn
        f_x += g * g_x
        f_xx += g_x * g_x - g * (s_minus * km + s_plus * k2[i])
        f_pp += g_p * g_p - g * (cn + s_minus * km)
        f_xp += g_x * g_p - g * s_plus * kn
    return (2.0 * f_x, 0.0), (2.0 * (f_xx - f_xp * f_xp / f_pp if f_pp < 0.0 else f_xx), 0.0, -1.0)


def _ascent_step(grad, hess):
    """Newton step where the Hessian (h_00, h_01, h_11) is negative definite, else the gradient."""
    g_0, g_1 = grad
    h_00, h_01, h_11 = hess
    det = h_00 * h_11 - h_01 * h_01
    if h_00 < 0.0 and det > 0.0:
        return (h_01 * g_1 - h_11 * g_0) / det, (h_01 * g_0 - h_00 * g_1) / det
    return g_0, g_1


def _eigen_2x2(xp, p, q, r):
    """Eigenvalues w1 >= w2 (w2 clipped at 0) of the block ``[[p, q], [q, r]] >= 0`` and a top eigenvector.

    The vector is (h + half, q) or (q, h - half), the one without cancellation, (1, 0) for a multiple of the identity.
    """
    half = 0.5 * (p - r)
    h = xp.hypot(half, q)
    turn = half >= 0.0
    v = xp.where(turn, xp.maximum(h + half, 1e-300), q), xp.where(turn, q, h - half)
    return 0.5 * (p + r) + h, xp.maximum(0.5 * (p + r) - h, 0.0), v


def _secular_terms(xp, p, q, r, d, row_space):
    """(w1, w2, g1, g2) of :func:`_trust_region_2x2`, the input of :func:`_secular`, and (v1, delta, root1) for y."""
    w1, w2, (vx, vy) = _eigen_2x2(xp, p, q, r)
    vn = xp.hypot(vx, vy)
    vx, vy = vx / vn, vy / vn
    delta1, delta2 = vx * d[0] + vy * d[1], vx * d[1] - vy * d[0]
    root1, root2 = (xp.sqrt(w1), xp.sqrt(w2)) if row_space else (1.0, 1.0)
    return (w1, w2, root1 * abs(delta1), root2 * delta2), ((vx, vy), (delta1, delta2), root1)


def _secular(xp, w1, w2, g1, g2, steps):
    """The secular stage of :func:`_trust_region_2x2`, from its eigenvalues and g terms: the last lam and D there.

    Newton on the concave, increasing ``1/|beta(lam)|``, ``beta_j = g_j / (lam - w_j)``, takes up to ``steps`` steps
    from below to the root ``lam >= w1`` of ``|beta| = 1`` and stops once a step is below ``1e-15 (1 + lam)``; a single
    step (the all-pairs bound) skips that test. ``D = lam + sum_j g_j^2 / (lam - w_j)`` is at least the maximum of
    ``sum_j w_j beta_j^2 + 2 g_j beta_j`` over unit beta at any lam > w1, and at lam = w1 in the hard case (weak
    duality), and equal to it at the root.
    """
    # |beta(lam)| >= |g_j| / (lam - w_j) for each j, so this start is at or below the root.
    lam = xp.maximum(w1 + g1, w2 + abs(g2))
    for i in range(steps + 1):  # each exit leaves the terms t_j at the last lam
        r1, r2 = (lam > w1) / xp.maximum(lam - w1, 1e-300), (lam > w2) / xp.maximum(lam - w2, 1e-300)
        t1, t2 = g1 * r1, g2 * r2
        if i == steps:
            break
        t1_sq, t2_sq = t1 * t1, t2 * t2
        s = t1_sq + t2_sq
        step = xp.where(s > 1.0, s * (xp.sqrt(s) - 1.0) / xp.maximum(t1_sq * r1 + t2_sq * r2, 1e-300), 0.0)
        if steps > 1 and xp.all(step <= 1e-15 * (1.0 + lam)):
            break
        lam = lam + step
    return lam, lam + g1 * t1 + g2 * t2


def _trust_region_2x2(xp, p, q, r, d, row_space=False, steps=100):
    """Top eigenvalue w1 of the block ``[[p, q], [q, r]] >= 0``, a two-term trust-region maximizer y for d, and D.

    y comes from the unit beta that maximizes ``sum_j w_j beta_j^2 + 2 g_j beta_j``, delta = V^T d for
    V = [v1, v1 turned by +90 degrees], v1 the unit top eigenvector. Circle form, ``max |G n + w|^2`` with block G^T G
    and d = G^T w: g = delta, y = V beta = n. ``row_space`` form, ``max |Q b + d|^2`` with block Q Q^T:
    ``g_j = sqrt(w_j) delta_j``, ``y = V diag(w)^(-1/2) beta``, b along Q^T y. After :func:`_secular`,
    ``beta_2 = g_2 / (lam - w_2)`` and ``|beta| = 1`` give beta_1, also in the hard case (g_1 = 0). The entries are
    floats (``xp`` = :class:`_Floats`) or arrays of blocks (``xp`` = numpy).
    """
    (w1, w2, g1, g2), ((vx, vy), (delta1, delta2), root1) = _secular_terms(xp, p, q, r, d, row_space)
    lam, dual = _secular(xp, w1, w2, g1, g2, steps)
    r2 = (lam > w2) / xp.maximum(lam - w2, 1e-300)  # as in _secular, at its last lam
    t2 = g2 * r2
    # the coefficient of V's second column, beta_2 / root2, is delta2 r2 in both forms
    top = xp.copysign(xp.sqrt(xp.maximum(1.0 - t2 * t2, 0.0)), delta1) / xp.where(root1 > 0.0, root1, math.inf)
    return w1, (vx * top - vy * delta2 * r2, vy * top + vx * delta2 * r2), dual


def _probe_circle(xp, cols, x):
    """Exact maximum over phi of the probe objective at x, as (phi, value); x a float, or an array of them.

    The objective is ``|G n + w|^2`` with n = (sin phi, cos phi), G's columns ``c0 - s_minus k1`` and
    ``c1 + s_minus k0`` and ``w = s_plus k2``. Its block goes to :func:`_trust_region_2x2` in (cos phi, sin phi) order,
    so a multiple of the identity gives phi = 0. The value is read at phi, so it is attained.
    """
    c0, c1, k0, k1, k2 = cols
    sin_x, cos_x = xp.sin(x), xp.cos(x)
    s_minus, s_plus = sin_x - cos_x, sin_x + cos_x
    g_sin = (c0[0] - s_minus * k1[0], c0[1] - s_minus * k1[1], c0[2] - s_minus * k1[2])
    g_cos = (c1[0] + s_minus * k0[0], c1[1] + s_minus * k0[1], c1[2] + s_minus * k0[2])
    w = (s_plus * k2[0], s_plus * k2[1], s_plus * k2[2])
    p, q, r, d1, d2 = _dot(g_cos, g_cos), _dot(g_sin, g_cos), _dot(g_sin, g_sin), _dot(g_cos, w), _dot(g_sin, w)
    # The block's smaller eigenvalue adds a constant on the circle. Dropped, and the rest scaled to order one, the
    # secular step neither cancels against it nor stops at its absolute tolerance (rounding-level c, near-unitary A).
    half = 0.5 * (p - r)
    h = xp.hypot(half, q)
    scale = h + xp.hypot(d1, d2)
    scale = xp.where(scale > 0.0, scale, 1.0)
    _, (n_cos, n_sin), _ = _trust_region_2x2(xp, (h + half) / scale, q / scale, (h - half) / scale, (d1 / scale, d2 / scale))
    phi = _azimuth(xp, n_sin, n_cos)
    sp, cp = xp.sin(phi), xp.cos(phi)
    g = (sp * g_sin[0] + cp * g_cos[0] + w[0], sp * g_sin[1] + cp * g_cos[1] + w[1],
         sp * g_sin[2] + cp * g_cos[2] + w[2])
    return phi, _dot(g, g)


def _polish(point, inner, value, terms, trial, move):
    """The envelope polish of both domains: ascent on F(point) = max_inner f from a grid point and its inner argmax.

    Each iteration takes the :func:`_ascent_step` of ``terms(point, inner)``, F's gradient and Hessian, and halves it
    until the value does not drop; ``move(point, t, step)`` gives the point t step away and the distance moved,
    ``trial(point)`` one exact inner solve as (value, inner). It stops, converged, once a step moves
    at most ``REFINEMENT_TOLERANCE`` or gains at most one ulp of the value to first order, which no trial can show;
    else after ``REFINEMENT_ITERATIONS`` iterations. Returns (point, inner, value, trials, converged), the best seen.
    """
    trials = 0
    for _ in range(REFINEMENT_ITERATIONS):
        grad, hess = terms(point, inner)
        step = _ascent_step(grad, hess)
        gain = grad[0] * step[0] + grad[1] * step[1]  # first-order gain of the full step
        t = 1.0
        while True:
            new_point, moved = move(point, t, step)
            if moved <= REFINEMENT_TOLERANCE or t * gain <= math.ulp(value):
                return point, inner, value, trials, True
            new_value, new_inner = trial(new_point)
            trials += 1
            if new_value >= value:
                break
            t *= 0.5
        point, inner, value = new_point, new_inner, new_value
    return point, inner, value, trials, False


def _probe_solve(a_mat, c_vec, n: int):
    """Exact solve for a unital or axially symmetric channel, else an x grid and a polish of the envelope.

    Returns (probe_params(x, phi), value, evaluations, converged). The unital solve is the top eigenpair of a 2x2 block
    and the axial one a closed form, one evaluation each. Otherwise each evaluation is one :func:`_probe_circle`: n
    points x in [0, pi/2] in one batch, then :func:`_polish` of ``F(x) = max_phi f`` by :func:`_probe_terms`.
    """
    a_cols, c = a_mat.T.tolist(), c_vec.tolist()
    if math.hypot(*c) <= UNITAL_TOL:
        # |cof(A) n(phi)|^2: the block in (cos phi, sin phi) order as in _probe_circle, so q = 0, p = r gives phi = 0
        c0, c1 = _cofactor(a_cols)
        mu, _, (v_cos, v_sin) = _eigen_2x2(_Floats, _dot(c1, c1), _dot(c0, c1), _dot(c0, c0))
        return probe_params(0.0, math.atan2(v_sin, v_cos) % math.pi), mu, 1, True
    if _is_axial(a_mat, c_vec):
        # At phi = 0 the output cross product is s (-sin alpha, cos alpha, 0) (t + c_z (cos x - sin x)), and no phi does
        # better: mu = s^2 (|t| + |c_z|)^2 at x = 0 or x = pi/2, whichever end has |t + c_z (cos x - sin x)| larger.
        s_sq, t, c_z = _axial_terms(a_mat, c_vec)
        x = 0.0 if abs(t + c_z) >= abs(t - c_z) else HALF_PI
        return probe_params(x, 0.0), s_sq * (abs(t) + abs(c_z)) ** 2, 1, True
    cols = (*_cofactor(a_cols), *(_cross(col, c) for col in a_cols))
    xs = np.linspace(0.0, HALF_PI, n)
    phis, values = _probe_circle(np, cols, xs)
    k = _grid_argmax(values)

    def move(x, t, step):  # clamped to the window, with the distance actually moved
        new_x = min(max(x + t * step[0], 0.0), HALF_PI)
        return new_x, abs(new_x - x)

    x, phi, value, trials, converged = _polish(
        float(xs[k]), float(phis[k]), float(values[k]), functools.partial(_probe_terms, cols),
        lambda x: _probe_circle(_Floats, cols, x)[::-1], move,
    )
    return probe_params(x, phi), value, n + trials, converged


def _is_axial(a_mat, c_vec) -> bool:
    """Whether ``r -> A r + c`` commutes with rotations about z, within ``UNITAL_TOL``.

    That is, A is block-diagonal with xy block ``[[p, -q], [q, p]]`` and
    c = (0, 0, c_z), as for ad, gad and unruh and their z-rotated copies.
    """
    (a00, a01, a02), (a10, a11, a12), (a20, a21, _) = a_mat.tolist()
    c_x, c_y, _ = c_vec.tolist()
    return max(map(abs, (a00 - a11, a01 + a10, a02, a12, a20, a21, c_x, c_y))) <= UNITAL_TOL


def _axial_terms(a_mat, c_vec):
    """(s^2, t, c_z) of an axially symmetric map (:func:`_is_axial`): its xy block is s R_z(alpha) and A_zz = t."""
    (p, _, _), (q, _, _), (_, _, t) = a_mat.tolist()
    return p * p + q * q, t, float(c_vec[2])


def _axial_pairs(s_sq, t, c):
    """All-pairs maximum of the axially symmetric map of :func:`_axial_terms` (s^2, t, c != 0), exactly: (pair, value).

    With x = cos theta and z = t x + c, an input has ``|A a + c|^2 = P(x) = s^2 (1 - x^2) + z^2``, and two inputs an
    azimuth Delta apart have ``u.v = s^2 sin theta_a sin theta_b cos Delta + z_a z_b``. Maximized over Delta, the
    objective is ``P_a P_b - max(0, |z_a z_b| - s^2 sin theta_a sin theta_b)^2``, which is C^1. Its maximum is one
    of two candidates, each with theta_a = theta_b and phi_a = 0:
    - product, where some Delta makes u.v = 0: a critical point of P_a P_b, so both x at P's critical point, with
      the value P^2;
    - meridian, Delta = pi, where the objective is ``s^2 (sin theta_a z_b + sin theta_b z_a)^2``: its critical points
      have theta_a = theta_b and x a root of ``2 t x^2 + c x - t``. The roots have opposite signs, and the one with
      x t c >= 0, in [-1/sqrt 2, 1/sqrt 2], gives the larger value 4 s^2 (1 - x^2) z^2.
    The product candidate wins where it is within ``TIE_TOL`` of the meridian one. With a at a pole the objective is at
    most s^2 (|t| + |c|)^2, the probe maximum; the meridian objective at x = sign(t c) / sqrt 2 is already
    s^2 (|t| + sqrt 2 |c|)^2.
    """
    x = 2.0 * t / (c + math.copysign(math.sqrt(c * c + 8.0 * t * t), c))  # no cancellation
    value, phi_b = 4.0 * s_sq * (1.0 - x * x) * (t * x + c) ** 2, math.pi
    if t * t != s_sq:
        y = -t * c / (t * t - s_sq)
        side, z = s_sq * (1.0 - y * y), t * y + c
        if z * z < side and (side + z * z) ** 2 >= value - TIE_TOL:  # z^2 < side also gives |y| < 1
            x, value, phi_b = y, (side + z * z) ** 2, math.acos(-z * z / side)
    return StatePairParams(math.acos(x), 0.0, math.acos(x), phi_b), value


def _tangents(xp, n):
    """Duff et al. 2017's branchless orthonormal basis (e1, e2) of the plane normal to the unit n, with e1 x e2 = n.

    It holds at both poles, and n = 0 gives (e_x, e_y). n is a triple of floats (``xp`` = :class:`_Floats`) or of
    arrays (``xp`` = numpy), with bit-identical results.
    """
    nx, ny, nz = n
    sign = xp.copysign(1.0, nz)
    k = -1.0 / (sign + nz)
    xy = nx * ny * k
    return (1.0 + sign * nx * nx * k, sign * xy, -sign * nx), (xy, sign + ny * ny * k, -ny)


def _sphere_block(xp, rows, c, a):
    """u = A a + c, e1, Q's rows (q1, q2), the block Q Q^T and d of :func:`_sphere_max` at the first input a."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = rows
    u = (_dot(rows[0], a) + c[0], _dot(rows[1], a) + c[1], _dot(rows[2], a) + c[2])
    norm = xp.maximum(xp.sqrt(_dot(u, u)), 1e-300)
    e1, e2 = _tangents(xp, (u[0] / norm, u[1] / norm, u[2] / norm))
    (x1, y1, z1), (x2, y2, z2) = e1, e2
    q1 = (a00 * x1 + a10 * y1 + a20 * z1, a01 * x1 + a11 * y1 + a21 * z1, a02 * x1 + a12 * y1 + a22 * z1)  # A^T e1
    q2 = (a00 * x2 + a10 * y2 + a20 * z2, a01 * x2 + a11 * y2 + a21 * z2, a02 * x2 + a12 * y2 + a22 * z2)  # A^T e2
    return u, e1, (q1, q2), (_dot(q1, q1), _dot(q1, q2), _dot(q2, q2)), (_dot(c, e1), _dot(c, e2))


def _sphere_bound(rows, c, a):
    """Upper bound ``|u|^2 (D + |d|^2)`` on :func:`_sphere_max` at each first input of the arrays a.

    D is the dual value of :func:`_sphere_max`'s trust-region step one Newton step from its start: the secular stage
    alone (:func:`_secular`), without the maximizer.
    """
    u, _, _, block, d = _sphere_block(np, rows, c, a)
    _, dual = _secular(np, *_secular_terms(np, *block, d, row_space=True)[0], steps=1)
    return _dot(u, u) * (dual + d[0] * d[0] + d[1] * d[1])


def _sphere_max(xp, rows, c, a):
    """Maximum over unit b of |(A a + c) x (A b + c)|^2, and its b, for the first input a; A given by its rows.

    With u = A a + c and (e1, e2) the :func:`_tangents` of u / |u|, the objective is ``|u|^2 |Q b + d|^2`` for the
    2x3 matrix Q with rows ``A^T e1``, ``A^T e2`` and d = (e1.c, e2.c): the row-space form of :func:`_trust_region_2x2`.
    The rows of A and c are float triples; a, and the b returned, are triples of floats (``xp`` = :class:`_Floats`) or
    of arrays with one entry per first input (``xp`` = numpy).
    """
    u, e1, (q1, q2), block, d = _sphere_block(xp, rows, c, a)
    _, (y1, y2), _ = _trust_region_2x2(xp, *block, d, row_space=True)
    b = (q1[0] * y1 + q2[0] * y2, q1[1] * y1 + q2[1] * y2, q1[2] * y1 + q2[2] * y2)
    b_norm = xp.sqrt(_dot(b, b))
    found, b_norm = b_norm > 0.0, xp.maximum(b_norm, 1e-300)
    b = (xp.where(found, b[0] / b_norm, e1[0]), xp.where(found, b[1] / b_norm, e1[1]),
         xp.where(found, b[2] / b_norm, e1[2]))  # Q = 0: every b attains the maximum
    w = _cross(u, (_dot(rows[0], b) + c[0], _dot(rows[1], b) + c[1], _dot(rows[2], b) + c[2]))
    return _dot(w, w), b


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _apply(rows, v):
    """A v for the rows of A, as three :func:`_dot`."""
    return _dot(rows[0], v), _dot(rows[1], v), _dot(rows[2], v)


def _envelope_terms(rows, c, a, b):
    """Gradient and Hessian (h_00, h_01, h_11) of F(a) = max_b f(a, b) in the basis :func:`_tangents` of the unit a.

    f = |u|^2 |v|^2 - (u.v)^2 with u = A a + c and v = A b + c, for the rows of A and c as float triples and b the
    maximizer, a unit triple. By the envelope theorem the gradient is that of f in a alone. The Hessian is the Schur
    complement ``H_aa - H_ab H_bb^{-1} H_ba`` of f's Riemannian Hessian on the two spheres (the term
    ``-(x . grad_x f) I`` on each sphere's block), or ``H_aa`` alone where ``H_bb`` is not negative definite by the
    margin ``DEFINITE_TOL`` and b is not locally unique (the hard case).
    """
    aa, ab = _apply(rows, a), _apply(rows, b)  # A a and A b
    e1, e2 = _tangents(_Floats, a)
    x0, x1 = _apply(rows, e1), _apply(rows, e2)  # A t for the tangents t of a
    e1, e2 = _tangents(_Floats, b)
    y0, y1 = _apply(rows, e1), _apply(rows, e2)  # and of b
    u, v = (aa[0] + c[0], aa[1] + c[1], aa[2] + c[2]), (ab[0] + c[0], ab[1] + c[1], ab[2] + c[2])
    uu, vv, uv = _dot(u, u), _dot(v, v), _dot(u, v)
    grad_u = (2.0 * (vv * u[0] - uv * v[0]), 2.0 * (vv * u[1] - uv * v[1]), 2.0 * (vv * u[2] - uv * v[2]))
    grad_v = (2.0 * (uu * v[0] - uv * u[0]), 2.0 * (uu * v[1] - uv * u[1]), 2.0 * (uu * v[2] - uv * u[2]))
    x0u, x1u, x0v, x1v = _dot(x0, u), _dot(x1, u), _dot(x0, v), _dot(x1, v)
    y0u, y1u, y0v, y1v = _dot(y0, u), _dot(y1, u), _dot(y0, v), _dot(y1, v)
    radial_a, radial_b = _dot(aa, grad_u), _dot(ab, grad_v)
    h_00 = 2.0 * (vv * _dot(x0, x0) - x0v * x0v) - radial_a
    h_01 = 2.0 * (vv * _dot(x0, x1) - x0v * x1v)
    h_11 = 2.0 * (vv * _dot(x1, x1) - x1v * x1v) - radial_a
    b_00 = 2.0 * (uu * _dot(y0, y0) - y0u * y0u) - radial_b
    b_01 = 2.0 * (uu * _dot(y0, y1) - y0u * y1u)
    b_11 = 2.0 * (uu * _dot(y1, y1) - y1u * y1u) - radial_b
    top = 0.5 * (b_00 + b_11) + math.hypot(0.5 * (b_00 - b_11), b_01)  # H_bb's larger eigenvalue
    if top < -DEFINITE_TOL * max(abs(b_00), abs(b_01), abs(b_11)):
        det = b_00 * b_11 - b_01 * b_01
        # H_ab's entries m_ij, and H_bb^{-1} = (i_00, i_01; i_01, i_11); each term is m_ik i_kl m_jl
        m_00 = 4.0 * x0u * y0v - 2.0 * (x0v * y0u + uv * _dot(x0, y0))
        m_01 = 4.0 * x0u * y1v - 2.0 * (x0v * y1u + uv * _dot(x0, y1))
        m_10 = 4.0 * x1u * y0v - 2.0 * (x1v * y0u + uv * _dot(x1, y0))
        m_11 = 4.0 * x1u * y1v - 2.0 * (x1v * y1u + uv * _dot(x1, y1))
        i_00, i_01, i_11 = b_11 / det, -b_01 / det, b_00 / det
        h_00 -= m_00 * i_00 * m_00 + m_00 * i_01 * m_01 + m_01 * i_01 * m_00 + m_01 * i_11 * m_01
        h_01 -= m_00 * i_00 * m_10 + m_00 * i_01 * m_11 + m_01 * i_01 * m_10 + m_01 * i_11 * m_11
        h_11 -= m_10 * i_00 * m_10 + m_10 * i_01 * m_11 + m_11 * i_01 * m_10 + m_11 * i_11 * m_11
    return (_dot(x0, grad_u), _dot(x1, grad_u)), (h_00, h_01, h_11)


def _grid_max(rows, c, grid: _Grid, n: int):
    """Flat index, value and b of the first grid point whose :func:`_sphere_max` is within ``TIE_TOL`` of the maximum.

    Every point of the grid (n polar angles in [0, pi] by n azimuths) is bounded in one pass, then solved in plain
    floats in descending bound (ties in grid order) until no bound left can reach the tie window: k tied points cost k
    solves. The largest bound is solved first, and only the bounds within the window of its value are sorted.
    """
    bounds = _sphere_bound(rows, c, grid.bloch)
    bounds.reshape(n, -1)[:: n - 1, 1:] = -math.inf  # each pole once: its copies at phi > 0 are the point at phi = 0
    solved = {}

    def solve(k):
        solved[k] = _sphere_max(_Floats, rows, c, grid.bloch[:, k].tolist())
        return solved[k][0]

    best = solve(int(bounds.argmax()))
    # TIE_TOL of ties, and TIE_TOL (45 ulp of 1) for bound and solve rounding
    for k in sorted(np.flatnonzero(bounds >= best - 2.0 * TIE_TOL).tolist(), key=bounds.item, reverse=True):
        if bounds[k] < best - 2.0 * TIE_TOL:
            break
        if k not in solved:
            best = max(best, solve(k))
    k = min(k for k, (value, _) in solved.items() if value >= best - TIE_TOL)
    return k, *solved[k]


def _pairs_solve(a_mat, c_vec, n: int):
    """Closed form for a unital or axially symmetric channel, else :func:`_grid_max` and a polish of the envelope.

    Returns (StatePairParams, value, evaluations, converged). The unital solve is A's top two singular values and the
    axial one :func:`_axial_pairs`, one evaluation each. Otherwise the grid is n x n first inputs, and :func:`_polish`
    takes :func:`_envelope_terms`, trials of :func:`_sphere_max` on floats, and moves of the unit first input a to
    ``a + t (s0 e1 + s1 e2)``, renormalized, for its :func:`_tangents` (e1, e2); angles are formed only for the result.
    """
    rows, c = a_mat.tolist(), c_vec.tolist()
    if math.hypot(*c) <= UNITAL_TOL:  # the probe solve's unital test
        _, sing, vt = np.linalg.svd(a_mat)  # |cof(A)(a x b)|^2 <= (s1 s2)^2, attained at the top right singular vectors
        pair = StatePairParams(*_bloch_angles(vt[0]), *_bloch_angles(vt[1]))
        return pair, float((sing[0] * sing[1]) ** 2), 1, True
    if _is_axial(a_mat, c_vec):
        return (*_axial_pairs(*_axial_terms(a_mat, c_vec)), 1, True)
    grid = _grid(np.pi, n)
    k, value, b = _grid_max(rows, c, grid, n)

    def move(a, t, step):  # renormalized; the distance is t times the step's largest tangent component
        moved = [s + t * (step[0] * i + step[1] * j) for s, i, j in zip(a, *_tangents(_Floats, a))]
        norm = math.sqrt(_dot(moved, moved))
        return [s / norm for s in moved], t * max(map(abs, step))

    a, b, value, trials, converged = _polish(
        grid.bloch[:, k].tolist(), b, value, functools.partial(_envelope_terms, rows, c),
        functools.partial(_sphere_max, _Floats, rows, c), move,
    )
    return StatePairParams(*_bloch_angles(a), *_bloch_angles(b)), value, grid.theta.size + trials, converged


# Each domain's solve: (A, c) and the grid points per angle in, (StatePairParams, value, evaluations, converged) out.
DOMAINS = {DOMAIN_PROBE: _probe_solve, DOMAIN_ALL_PAIRS: _pairs_solve}
DEFAULT_CONFIG = OptimizerConfig()


def _closed_form_fields(ch: KrausChannel, mu: float):
    try:
        cf = float(closed_form_mu(ch.label, ch.params))
    except ValueError:  # not a registry label, a KrausChannel built directly without exactly its parameters, or gad
        return None, None
    return cf, abs(mu - cf)


def maximize_mu(ch: KrausChannel, config: Optional[OptimizerConfig] = None) -> QuantumnessResult:
    """Maximize the output incompatibility of a qubit channel.

    Computes the channel's Bloch map and runs the configured domain's solve
    (see the module docstring); grid ties (within ``TIE_TOL``) resolve to the
    lexicographically smallest angle tuple. The result is deterministic for a
    fixed configuration.
    """
    cfg = config or DEFAULT_CONFIG
    pair, mu, evaluations, converged = DOMAINS[cfg.domain](*bloch_map(ch), cfg.grid_points_per_angle)
    mu = min(mu, 1.0)  # |a' x b'|^2 <= 1; bloch_map rounding can land just above
    cf, err = _closed_form_fields(ch, mu) if cfg.domain == DOMAIN_PROBE else (None, None)  # probe-domain maxima
    return QuantumnessResult(mu, pair, cf, err, evaluations, converged)


def brute_force_mu(ch: KrausChannel, n: int, domain: str = DOMAIN_PROBE) -> float:
    """Exhaustive grid maximum with no refinement; a lower bound on mu.

    Deliberately evaluated through Kraus application and the trace form
    ``4 (Tr[rho^2 sigma^2] - Tr[(rho sigma)^2])``, not the affine Bloch route
    used by :func:`maximize_mu`, so the two act as independent cross-checks.
    The bracket ignores the outputs' traces, so each output state enters by
    its 3 real coordinates ``h_p = Tr[E_p rho]`` in the traceless basis
    :data:`TRACELESS_BASIS`. They are ``[1, x, y, z] @ R`` for an input of
    Bloch vector (x, y, z), where the 4x3 map R is one contraction of the Kraus
    operators with the Pauli matrices. The bracket is the real quadratic form
    ``q(rho) . B q(sigma)`` on each state's 6 products
    ``q = (h_p h_q)_{p <= q}``, with B = :data:`TRACE_FORM`; the states' q are
    the columns of one (6, m) array. Probe pairs take one column-wise product.
    All-pairs takes each pole once (a pole's n grid copies are one state) and
    products of ``ORACLE_BLOCK`` states against the rest at a time, in
    O(block m) memory for m grid states; since the bracket is symmetric in
    (rho, sigma) each block meets only the states from its own first one on.
    The bracket is ``|h_i x h_j|^2 <= |h_i|^2 |h_j|^2``, so the states go in
    descending ``|h|^2`` (``q[0] + q[3] + q[5]``), each block meets only the
    states whose bound with its first one, widened by ``ORACLE_MARGIN``, can
    pass the running maximum, and the loop stops at the first block where
    none can. The bound is nondecreasing under nested grid refinement.
    """
    grid = _grid(HALF_PI if _domain(domain) == DOMAIN_PROBE else np.pi, check_grid(n, "n"))
    kraus = np.stack(ch.ops)
    # R[i, p] = Tr[E_p sum_k K S_i K^dag] / 2: the input state (S_0 + x S_1 + y S_2 + z S_3) / 2 in, h_p out
    to_coords = 0.5 * np.einsum("pab,kbc,icd,kad->ip", TRACELESS_BASIS, kraus, PAULI, kraus.conj()).real

    def rows(bloch):
        # q = (h_p h_q)_{p <= q} of the channel outputs of the input states (columns of bloch), as a (6, m) array
        h = to_coords[1:].T @ bloch + to_coords[0][:, None]
        return h[TRACE_PAIRS[0]] * h[TRACE_PAIRS[1]]

    if domain == DOMAIN_PROBE:
        pairs = probe_params(grid.theta, grid.phi)
        q, partners = rows(grid.bloch), rows(bloch_vectors(pairs.y, pairs.xi).T)
        return 4.0 * float(np.max(np.einsum("in,in->n", q, TRACE_FORM @ partners)))

    # each pole once: the north pole's last copy (every copy is (0, 0, 1)) to the south pole's copy at phi = 0
    q = rows(grid.bloch[:, n - 1 : n * n - n + 1])
    norms = q[0] + q[3] + q[5]  # |h|^2, from each state's own products
    order = np.argsort(-norms, kind="stable")
    q, norms = q[:, order], norms[order]
    qb, falling = TRACE_FORM @ q, -norms  # falling ascends
    best = 0.0
    for start in range(0, q.shape[1], ORACLE_BLOCK):
        # The bracket |h_i x h_j|^2 is at most |h_i|^2 |h_j|^2 (Lagrange's identity), and the block's first state has
        # the largest |h_i|^2: only columns whose product with it, widened far beyond rounding, passes best can win.
        top = norms[start] * (1.0 + ORACLE_MARGIN)
        if top * norms[start] <= best:
            break
        stop = int(np.searchsorted(falling, -best / top, side="right"))  # at least start + 1
        best = max(best, float(np.max(q[:, start : start + ORACLE_BLOCK].T @ qb[:, start:stop])))
    return 4.0 * best  # exact: a power of two
