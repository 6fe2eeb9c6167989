import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchan import (
    DOMAIN_ALL_PAIRS,
    DOMAIN_PROBE,
    KrausChannel,
    OptimizerConfig,
    StatePairParams,
    ad,
    apply,
    brute_force_mu,
    closed_form_mu,
    gad,
    gdc,
    incompatibility,
    max_noncommuting_pair,
    maximize_mu,
    nmd,
    pd,
    rtn,
    state_pair,
    unruh,
)
from qchan import channels, optimize
from qchan.channels import bloch_map
from qchan.states import bloch_vectors
from conftest import random_kraus_ops, random_unitary, sample_ball

IDENTITY = KrausChannel((np.eye(2),), "identity")


def test_identity_channel_is_maximally_quantum():
    res = maximize_mu(IDENTITY)
    assert abs(res.mu - 1.0) < 1e-8
    assert res.closed_form is None and res.abs_error is None


def test_pd_quarter_damping():
    res = maximize_mu(pd(0.25))
    assert abs(res.mu - 0.75) < 1e-6
    assert res.closed_form == 0.75
    assert res.abs_error < 1e-6
    assert res.converged


def test_gdc_example_against_brute_force_oracle():
    ch = gdc(0.7, 0.1, 0.1, 0.1)
    oracle = brute_force_mu(ch, 24)
    res = maximize_mu(ch)
    assert abs(oracle - 0.1296) < 1e-6
    assert abs(res.mu - 0.1296) < 1e-6


def test_gdc_closed_form_holds_for_unsorted_weights():
    # Bloch map diag(l1, l2, l3); the probe maximum is max(l1^2, l2^2) l3^2 for
    # every order of the weights, including (p0 - p3)(p1 - p2) < 0.
    rng = np.random.default_rng(11)
    weights = [(0.1, 0.4, 0.3, 0.2), (0.7, 0.1, 0.1, 0.1), (0.2, 0.1, 0.3, 0.4), (0.05, 0.6, 0.05, 0.3)]
    weights += [tuple(rng.permutation(rng.dirichlet(np.ones(4)))) for _ in range(12)]
    for w in weights:
        ch = gdc(*w)
        closed = closed_form_mu("gdc", {f"p{i}": p for i, p in enumerate(w)})
        assert abs(closed - maximize_mu(ch).mu) <= 1e-12, w
        assert closed >= brute_force_mu(ch, 24) - 1e-12, w
    # A = diag(0, -0.2, -0.4): the maximum A_yy^2 A_zz^2 sits at phi = pi/2
    res = maximize_mu(gdc(0.1, 0.4, 0.3, 0.2))
    assert res.closed_form == pytest.approx(0.0064, abs=1e-15)
    assert res.abs_error <= 1e-15


def test_gad_probe_closed_form_on_grid():
    # gad is axially symmetric with xy block sqrt(xi) I, A_zz = xi and
    # c_z = (2 alpha - 1)(1 - xi), so its probe maximum is xi (xi + |c_z|)^2.
    grid = np.linspace(0.0, 1.0, 11)
    for alpha in grid:
        for xi in grid:
            closed = xi * (xi + abs(2 * alpha - 1) * (1 - xi)) ** 2
            assert abs(maximize_mu(gad(alpha, xi)).mu - closed) <= 1e-12, (alpha, xi)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_ops=st.integers(1, 4))
def test_random_cptp_maps_dominate_oracle_and_probe(seed, n_ops):
    ch = KrausChannel(random_kraus_ops(np.random.default_rng(seed), n_ops), "random")
    mu = {}
    for domain, oracle_n in ((DOMAIN_PROBE, 8), (DOMAIN_ALL_PAIRS, 24)):
        mu[domain] = maximize_mu(ch, OptimizerConfig(grid_points_per_angle=8, domain=domain)).mu
        assert mu[domain] >= brute_force_mu(ch, oracle_n, domain) - 1e-12
    assert mu[DOMAIN_ALL_PAIRS] >= mu[DOMAIN_PROBE] - 1e-12


def test_rtn_closed_form_and_kernel_params():
    res = maximize_mu(rtn(0.5))
    assert res.closed_form == 0.25
    assert abs(res.mu - 0.25) < 1e-9


def test_brute_force_examples():
    assert brute_force_mu(IDENTITY, 16) >= 0.99
    assert abs(brute_force_mu(rtn(0.5), 32) - 0.25) < 2e-3
    assert brute_force_mu(ad(1.0), 12) < 1e-12
    assert brute_force_mu(ad(1.0), 12, domain=DOMAIN_ALL_PAIRS) < 1e-12


def _explicit_oracle(ch, n, domain):
    """Grid maximum of 2 |[rho, sigma]|_F^2 over the apply() outputs, every pair in one array."""
    polar_max = np.pi / 2 if domain == DOMAIN_PROBE else np.pi
    angles = [(t, p) for t in np.linspace(0, polar_max, n) for p in np.linspace(0, 2 * np.pi, n, endpoint=False)]
    if domain == DOMAIN_PROBE:
        outs = np.array([[apply(ch, s).mat for s in max_noncommuting_pair(t, p)] for t, p in angles])
        rho, sigma = outs[:, 0], outs[:, 1]
    else:
        outs = np.array([apply(ch, state_pair(StatePairParams(t, p, 0.0, 0.0))[0]).mat for t, p in angles])
        rho, sigma = outs[:, None], outs[None]
    comm = rho @ sigma - sigma @ rho
    return float(np.max(2.0 * np.sum(np.abs(comm) ** 2, axis=(-2, -1))))


_ORACLE_CHANNELS = [ad(0.25), gad(1.0, 0.6), unruh(np.pi / 6), IDENTITY, ad(1.0)] + [
    KrausChannel(random_kraus_ops(np.random.default_rng(seed), 3), "random") for seed in range(5)
]


@pytest.mark.parametrize("domain", [DOMAIN_PROBE, DOMAIN_ALL_PAIRS])
@pytest.mark.parametrize("ch", _ORACLE_CHANNELS, ids=lambda ch: ch.label)
def test_brute_force_matches_explicit_pairs(ch, domain, monkeypatch):
    # n = 2 and 3: every state, or six of nine, is a copy of a pole. n = 13 gives 169 probe pairs and, each pole once, 145
    # all-pairs states: the default block size covers them in three blocks, the last one partial.
    for n in (2, 3, 6, 13):
        reference = _explicit_oracle(ch, n, domain)
        for block in (1, 7, optimize.ORACLE_BLOCK):
            monkeypatch.setattr(optimize, "ORACLE_BLOCK", block)
            assert abs(brute_force_mu(ch, n, domain) - reference) <= 1e-13, (n, block)


def _complex_row_oracle(ch, n, domain):
    """The oracle as complex rows L(rho) = [vec(rho^2), vec(rho (x) rho)] and R(sigma), 40 reals wide.

    ``L(rho) . R(sigma)`` is the bracket ``Tr[rho^2 sigma^2] - Tr[(rho sigma)^2]``, summed over
    every index of both traces instead of through a basis of Hermitian matrices.
    """
    grid = optimize._grid(np.pi / 2 if domain == DOMAIN_PROBE else np.pi, n, n)
    kraus = np.stack(ch.ops)
    superop = np.einsum("kab,kdc->bcad", kraus, kraus.conj()).reshape(4, 4)

    def outputs(bloch):
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

    rho = outputs(bloch_vectors(grid.theta, grid.phi))
    if domain == DOMAIN_PROBE:
        partners = outputs(bloch_vectors(grid.theta + np.pi / 2, grid.phi))
        return 4.0 * float(np.max(np.einsum("ni,ni->n", left(rho), right(partners))))
    return 4.0 * float(np.max(left(rho) @ right(rho).T))


def _benchmark_random_maps(seed):
    """The five random 3-Kraus maps of the all-pairs benchmark workload for ``seed`` (the same recipe)."""
    rng = np.random.default_rng(seed)
    return [KrausChannel(random_kraus_ops(rng, 3), "random") for _ in range(5)]


@pytest.mark.parametrize("n", [24, 48])
@pytest.mark.parametrize("domain", [DOMAIN_PROBE, DOMAIN_ALL_PAIRS])
def test_brute_force_matches_complex_row_oracle(domain, n):
    # The 6-wide real quadratic form and the 40-wide complex rows differ by rounding only.
    for ch in _ORACLE_CHANNELS + _benchmark_random_maps(1):
        assert abs(brute_force_mu(ch, n, domain) - _complex_row_oracle(ch, n, domain)) <= 1e-14, ch.label


def _full_table_oracle(ch, n):
    """The all-pairs oracle with no sorting and no pruning: every pair of its states (each pole once), in row blocks."""
    grid = optimize._grid(np.pi, n, n)
    kraus = np.stack(ch.ops)
    basis, pauli = optimize.TRACELESS_BASIS, optimize.PAULI
    to_coords = 0.5 * np.einsum("pab,kbc,icd,kad->ip", basis, kraus, pauli, kraus.conj()).real
    h = to_coords[1:].T @ grid.bloch[:, n - 1 : n * n - n + 1] + to_coords[0][:, None]
    q = h[optimize.TRACE_PAIRS[0]] * h[optimize.TRACE_PAIRS[1]]
    qb = optimize.TRACE_FORM @ q
    return 4.0 * max(float(np.max(q[:, i : i + 256].T @ qb)) for i in range(0, q.shape[1], 256))


@pytest.mark.parametrize("n", [2, 3, 7, 24, 48])
def test_pruned_oracle_matches_the_full_table(n):
    # The oracle skips the pairs whose bound |h_i|^2 |h_j|^2 cannot pass its running maximum; its products run in
    # other shapes than the full table's, so the values may differ by rounding alone.
    # The maximum pair of gad(0.9, 0.3) lies beyond the first row blocks: at n = 24 a cut by the smallest |h_i|^2 of
    # each block in place of its first loses 3.9e-4.
    for ch in _ORACLE_CHANNELS + _benchmark_random_maps(1) + _benchmark_random_maps(2) + [gad(0.9, 0.3)]:
        assert abs(brute_force_mu(ch, n, DOMAIN_ALL_PAIRS) - _full_table_oracle(ch, n)) <= 2.2e-16, (ch.label, n)


def test_brute_force_never_uses_the_bloch_map(monkeypatch):
    def forbidden(ch):
        raise AssertionError("brute_force_mu must not use the affine Bloch route")

    ch = ad(0.25)
    expected = {domain: brute_force_mu(ch, 8, domain) for domain in (DOMAIN_PROBE, DOMAIN_ALL_PAIRS)}
    monkeypatch.setattr(optimize, "bloch_map", forbidden)
    monkeypatch.setattr(channels, "bloch_map", forbidden)
    # The oracle's map R from the input's Pauli coordinates to the output's is the cached transfer matrix up to a
    # transpose and a factor, so a shortcut through the cache would pass unseen without this: a wrong A and c
    # change nothing.
    object.__setattr__(ch, "_bloch", (np.diag([0.5, -0.25, 0.1]), np.array([0.3, -0.2, 0.4])))
    for domain, value in expected.items():
        assert brute_force_mu(ch, 8, domain) == value > 0.5


def test_traceless_trace_form_is_the_bracket():
    # The 6-wide fold on the traceless coordinates against the bracket itself and against the 16-wide form on the
    # basis |0><0|, |1><1|, X/sqrt 2, Y/sqrt 2, for Hermitian matrices of any trace, negative ones included.
    rng = np.random.default_rng(24)
    old_basis = np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]]])
    old_basis[2:] /= math.sqrt(2.0)
    words = np.einsum("pab,qbc,rcd,sda->pqrs", *[old_basis] * 4)
    old_form = (words - words.transpose(0, 2, 1, 3)).real.reshape(16, 16)

    def old_row(m):
        h = np.einsum("pab,ba->p", old_basis, m).real
        return np.kron(h, h)

    def row(m):
        h = np.einsum("pab,ba->p", optimize.TRACELESS_BASIS, m).real
        return h[optimize.TRACE_PAIRS[0]] * h[optimize.TRACE_PAIRS[1]]

    for i in range(200):
        rho, sigma = (a + a.conj().T for a in rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2)))
        rho, sigma = rho + (i % 5 - 2) * np.eye(2), sigma * (1 + i % 3)  # traces shifted and scaled
        direct = np.trace(rho @ rho @ sigma @ sigma) - np.trace(rho @ sigma @ rho @ sigma)
        folded = row(rho) @ optimize.TRACE_FORM @ row(sigma)
        scale = np.sum(np.abs(rho) ** 2) * np.sum(np.abs(sigma) ** 2)  # the size of the terms that cancel
        assert abs(direct.imag) <= 1e-14 * scale and abs(folded - direct.real) <= 1e-14 * scale, i
        assert abs(folded - old_row(rho) @ old_form @ old_row(sigma)) <= 1e-14 * scale, i


def test_all_pairs_oracle_memory_is_row_blocked():
    # One 2304 x 2304 table of pair values alone is 42 MB; row blocks keep the peak near 4 MB.
    tracemalloc.start()
    try:
        brute_force_mu(ad(0.25), 48, DOMAIN_ALL_PAIRS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25e6


def test_refinement_dominates_grid():
    cfg = OptimizerConfig(grid_points_per_angle=16)
    for ch in (rtn(0.6), nmd(-0.4), pd(0.3), ad(0.45), gad(0.7, 0.5), unruh(0.4), gdc(0.5, 0.3, 0.1, 0.1)):
        assert maximize_mu(ch, cfg).mu >= brute_force_mu(ch, 16) - 1e-12
        cfg_all = OptimizerConfig(grid_points_per_angle=16, domain=DOMAIN_ALL_PAIRS)
        assert maximize_mu(ch, cfg_all).mu >= brute_force_mu(ch, 24, domain=DOMAIN_ALL_PAIRS) - 1e-12


def test_determinism():
    cfg = OptimizerConfig(grid_points_per_angle=12)
    a = maximize_mu(gad(0.4, 0.7), cfg)
    b = maximize_mu(gad(0.4, 0.7), cfg)
    assert a.mu == b.mu
    assert a.argmax_params == b.argmax_params
    assert a.evaluations == b.evaluations


def _probe_cols(a_mat, c_vec):
    """The cofactor and K columns that optimize._probe_terms and optimize._probe_circle take."""
    return (*optimize._cofactor(a_mat.T.tolist()), *np.cross(a_mat.T, c_vec).tolist())


def _direct_probe_objective(a_mat, c_vec, x, phi):
    """|a' x b'|^2 for the probe pair at (x, phi): the second state at polar angle x + pi/2, same azimuth."""
    a, b = bloch_vectors(x, phi), bloch_vectors(np.add(x, np.pi / 2), phi)
    return np.sum(np.cross(a @ a_mat.T + c_vec, b @ a_mat.T + c_vec) ** 2, axis=-1)


def test_probe_objective_constant_for_dephasing_channels():
    xs = np.linspace(0, np.pi / 2, 40)
    phis = np.linspace(0, 2 * np.pi, 40, endpoint=False)
    gx, gp = np.meshgrid(xs, phis, indexing="ij")
    for ch in (rtn(0.7), nmd(0.45), pd(0.2)):
        a, c = bloch_map(ch)
        vals = _direct_probe_objective(a, c, gx, gp)
        assert np.std(vals) <= 1e-10
        # the exact circle solve reads the same constant at every x
        circle = [optimize._probe_circle(optimize._Floats, _probe_cols(a, c), x)[1] for x in xs.tolist()]
        assert np.max(np.abs(np.array(circle) - np.max(vals))) <= 1e-14


def test_probe_point_is_attainable():
    for ch in (rtn(0.3), ad(0.25), unruh(np.pi / 6), gdc(0.6, 0.2, 0.1, 0.1)):
        rho_a, rho_b = max_noncommuting_pair(0.0, 0.0)
        probe_value = incompatibility(apply(ch, rho_a), apply(ch, rho_b))
        assert maximize_mu(ch).mu >= probe_value - 1e-12


def test_all_pairs_domain_exceeds_closed_form_for_nonunital_channels():
    # Unrestricted maximization over two full Bloch spheres finds strictly
    # more incompatibility than the maximally noncommuting probe protocol
    # for amplitude-damping-like channels. Reduced oracle: by rotational
    # symmetry about z the maximum lies among coplanar pairs
    # a = (sin s, 0, cos s), b = (sin u, 0, cos u).
    g = 0.25
    kappa = 1.0 - g
    s, u = np.meshgrid(
        np.linspace(0, 2 * np.pi, 1501), np.linspace(0, 2 * np.pi, 1501), indexing="ij"
    )
    bracket = kappa * np.sin(u - s) + g * (np.sin(u) - np.sin(s))
    oracle = kappa * np.max(bracket**2)

    res = maximize_mu(ad(g), OptimizerConfig(domain=DOMAIN_ALL_PAIRS))
    assert res.mu > closed_form_mu("ad", {"gamma": g}) + 0.1
    assert res.mu >= oracle - 1e-6
    assert res.mu <= oracle + 1e-3


def test_unruh_mirrors_ad_in_all_pairs_domain():
    r = np.pi / 6
    cfg = OptimizerConfig(domain=DOMAIN_ALL_PAIRS)
    mu_unruh = maximize_mu(unruh(r), cfg).mu
    mu_ad = maximize_mu(ad(np.sin(r) ** 2), cfg).mu
    assert abs(mu_unruh - mu_ad) < 1e-6


def test_probe_matches_closed_forms_for_nonunital_channels():
    assert abs(maximize_mu(ad(0.25)).mu - 0.75) < 1e-9
    assert abs(maximize_mu(unruh(np.pi / 4)).mu - 0.5) < 1e-9
    assert abs(maximize_mu(unruh(np.pi / 8)).mu - np.cos(np.pi / 8) ** 2) < 1e-9


def test_all_pairs_dominates_mixed_input_pairs():
    # The objective is convex in each Bloch argument, so no pair of mixed
    # inputs beats the all-pairs maximum over pure inputs.
    rng = np.random.default_rng(11)
    a, b = sample_ball(rng, 2000), sample_ball(rng, 2000)
    for ch in (IDENTITY, pd(0.5), ad(0.25), gdc(0.6, 0.2, 0.1, 0.1)):
        a_mat, c_vec = bloch_map(ch)
        mixed = np.max(np.sum(np.cross(a @ a_mat.T + c_vec, b @ a_mat.T + c_vec) ** 2, axis=-1))
        assert mixed <= maximize_mu(ch, OptimizerConfig(domain=DOMAIN_ALL_PAIRS)).mu + 1e-9


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(grid_points_per_angle=1)
    with pytest.raises(ValueError):
        OptimizerConfig(domain="everything")
    # the grid cap is checked on the number alone; building either config allocates nothing
    cap = optimize.MAX_GRID_POINTS
    assert OptimizerConfig(grid_points_per_angle=cap, domain=DOMAIN_ALL_PAIRS).grid_points_per_angle == cap
    with pytest.raises(ValueError, match=f"between 2 and {cap}"):
        OptimizerConfig(grid_points_per_angle=cap + 1, domain=DOMAIN_ALL_PAIRS)


def test_argmax_params_describe_the_maximizer():
    from qchan import state_pair

    res = maximize_mu(ad(0.25))
    rho_a, rho_b = state_pair(res.argmax_params)
    achieved = incompatibility(apply(ad(0.25), rho_a), apply(ad(0.25), rho_b))
    assert abs(achieved - res.mu) < 1e-9


def test_import_leaves_scipy_optimize_unloaded():
    src = str(Path(optimize.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", "import sys, qchan; print('scipy.optimize' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
    assert callable(optimize._sciopt.minimize)


def _rotated_gdc():
    # U K V with Haar-random U, V: still unital, but the Bloch map is no longer diagonal.
    rng = np.random.default_rng(7)
    u, v = random_unitary(rng), random_unitary(rng)
    return KrausChannel(tuple(u @ k @ v for k in gdc(0.5, 0.3, 0.15, 0.05).ops), "rotated-gdc")


@pytest.mark.parametrize(
    "ch",
    [rtn(0.6), nmd(-0.4), pd(0.3), gdc(0.7, 0.1, 0.1, 0.1), gdc(0.1, 0.4, 0.3, 0.2), _rotated_gdc()],
    ids=lambda ch: ch.label,
)
def test_unital_probe_solve_spends_one_evaluation(ch):
    n = 16
    res = maximize_mu(ch, OptimizerConfig(grid_points_per_angle=n))
    assert res.evaluations == 1
    assert res.converged
    assert res.argmax_params.x == 0.0
    assert res.mu >= brute_force_mu(ch, 48) - 1e-12


def test_unital_branch_boundary_is_continuous():
    # gad(1/2, xi) is unital; a shift of alpha by 1e-9 moves c off zero. The
    # probe solve then takes the axial closed form, and the all-pairs solve the
    # polar grid and the envelope polish, with its sphere solves next to their
    # hard case.
    for domain in (DOMAIN_PROBE, DOMAIN_ALL_PAIRS):
        cfg = OptimizerConfig(domain=domain)
        unital = maximize_mu(gad(0.5, 0.6), cfg)
        assert unital.evaluations == 1
        for alpha in (0.5 - 1e-9, 0.5 + 1e-9):
            ch = gad(alpha, 0.6)
            res = maximize_mu(ch, cfg)
            if domain == DOMAIN_PROBE:
                a_mat, c_vec = bloch_map(ch)
                assert optimize._is_axial(a_mat, c_vec) and np.linalg.norm(c_vec) > optimize.UNITAL_TOL
                assert res.evaluations == 1 and res.argmax_params.phi == 0.0
                assert res.mu == pytest.approx(0.6 * (0.6 + abs(c_vec[2])) ** 2, abs=1e-15)
            else:
                assert res.evaluations > 1
            assert abs(res.mu - unital.mu) <= 1e-8


@pytest.mark.parametrize("domain", [DOMAIN_PROBE, DOMAIN_ALL_PAIRS])
def test_mu_never_exceeds_one(domain):
    # A single unitary Kraus op keeps |a' x b'|^2 = 1 for orthogonal pure
    # inputs; bloch_map rounding alone lifts the raw maximum above 1.
    ch = KrausChannel(random_kraus_ops(np.random.default_rng(10), 1), "unitary")
    res = maximize_mu(ch, OptimizerConfig(domain=domain))
    assert res.mu <= 1.0
    rho_a, rho_b = state_pair(res.argmax_params)
    assert abs(incompatibility(apply(ch, rho_a), apply(ch, rho_b)) - res.mu) <= 1e-12


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_ops=st.integers(1, 4))
def test_probe_objective_matches_cofactor_form(seed, n_ops):
    a_mat, c_vec = bloch_map(KrausChannel(random_kraus_ops(np.random.default_rng(seed), n_ops), "random"))
    cof = np.linalg.det(a_mat) * np.linalg.inv(a_mat).T
    xs = np.linspace(0.0, np.pi / 2, 7)
    phis = np.linspace(0.0, 2 * np.pi, 9)
    gx, gp = np.meshgrid(xs, phis, indexing="ij")
    a, b = bloch_vectors(gx, gp), bloch_vectors(gx + np.pi / 2, gp)
    n = np.stack([np.sin(gp), np.cos(gp), np.zeros_like(gp)], axis=-1)
    cofactor_form = np.sum((n @ cof.T + np.cross((a - b) @ a_mat.T, c_vec)) ** 2, axis=-1)
    direct = _direct_probe_objective(a_mat, c_vec, gx, gp)
    assert np.max(np.abs(direct - cofactor_form)) <= 1e-14

    # The envelope terms the polish reads at the circle maximizer phi of each x: F' = f_x against differences of the
    # direct objective at that phi, and F'' against the five-point second difference of F(x) = max_phi f, accurate
    # to O(wide^4).
    cols = _probe_cols(a_mat, c_vec)
    h, wide = 1e-5, 3e-4

    def envelope(x):
        return optimize._probe_circle(optimize._Floats, cols, x)[1]

    for x in xs.tolist():
        phi = optimize._probe_circle(optimize._Floats, cols, x)[0]
        (f_x, zero), (curvature, *zeros) = optimize._probe_terms(cols, x, phi)
        assert zero == 0.0 and zeros == [0.0, 0.0]
        f = [float(_direct_probe_objective(a_mat, c_vec, x + s * h, phi)) for s in (-1, 1)]
        assert abs(f_x - (f[1] - f[0]) / (2 * h)) <= 1e-8
        s = [envelope(x + k * wide) for k in (-2, -1, 0, 1, 2)]
        assert abs(curvature - (16 * (s[1] + s[3]) - s[0] - s[4] - 30 * s[2]) / (12 * wide**2)) <= 1e-7


def _numpy_cofactor(a_mat):
    """Reference cofactor from numpy rolls and cross products: column j is A e_{j+1} x A e_{j+2}."""
    return np.cross(np.roll(a_mat.T, -1, axis=0), np.roll(a_mat.T, -2, axis=0)).T


def test_cofactor_maps_input_cross_products_to_output_ones():
    rng = np.random.default_rng(3)
    singular = [np.outer(rng.normal(size=3), rng.normal(size=3)), np.zeros((3, 3)), bloch_map(rtn(0.0))[0]]
    u, v = rng.normal(size=(2, 20, 3))
    for a_mat in [rng.normal(size=(3, 3)) for _ in range(20)] + singular:
        cof = _numpy_cofactor(a_mat)
        assert np.max(np.abs(np.cross(u @ a_mat.T, v @ a_mat.T) - np.cross(u, v) @ cof.T)) <= 1e-14
        # optimize._cofactor gives the two columns that probe pairs (u x v in the xy plane) read
        assert np.max(np.abs(np.array(optimize._cofactor(a_mat.T.tolist())).T - cof[:, :2])) <= 1e-15


def _pauli_mixture(seed):
    # Pauli weights between two random unitaries: a unital map with a generic Bloch matrix.
    rng = np.random.default_rng(seed)
    u, v = random_unitary(rng), random_unitary(rng)
    return KrausChannel(tuple(u @ k @ v for k in gdc(*rng.dirichlet(np.ones(4))).ops), "pauli-mixture")


def _eigh_probe_solve(a_mat):
    """mu and phi of the top eigenvector of the upper-left 2x2 block of cof(A)^T cof(A), by np.linalg.eigh."""
    cof = np.array(optimize._cofactor(a_mat.T.tolist())).T  # cof(A)'s first two columns
    w, vecs = np.linalg.eigh(cof.T @ cof)
    return w[-1], np.arctan2(vecs[0, -1], vecs[1, -1])


def test_unital_probe_solve_matches_eigh():
    for seed in range(50):
        ch = _pauli_mixture(seed)
        res = maximize_mu(ch)
        mu, phi = _eigh_probe_solve(bloch_map(ch)[0])
        assert res.evaluations == 1 and res.argmax_params.x == 0.0
        assert abs(res.mu - mu) <= 1e-15
        assert abs(np.sin(res.argmax_params.phi - phi)) <= 1e-12


def test_unital_probe_solve_on_special_blocks():
    # A degenerate block (q = 0, p = r) leaves phi free; it is reported as 0, as eigh does.
    for ch in (rtn(0.3), pd(0.5), gdc(0.25, 0.25, 0.25, 0.25)):
        assert maximize_mu(ch).argmax_params.phi == 0.0
    # q ~ -1e-20 with p > r: lam - p cancels to a rounding residue, so only
    # the (lam - r, q) form of the eigenvector gives phi = pi/2.
    a_mat = np.diag([0.65, 0.76, 0.59])
    a_mat[0, 1] = 5e-20
    cof = np.array(optimize._cofactor(a_mat.T.tolist())).T
    block = cof.T @ cof
    assert block[0, 0] > block[1, 1] and 1e-21 < abs(block[0, 1]) < 1e-19
    (x, phi, _, _), value, evaluations, converged = optimize._probe_solve(a_mat, np.zeros(3), 24)
    mu, phi_eigh = _eigh_probe_solve(a_mat)
    assert abs(value - mu) <= 1e-15 and abs(np.sin(phi - phi_eigh)) <= 1e-12
    assert abs(phi - np.pi / 2) <= 1e-12 and (x, evaluations, converged) == (0.0, 1, True)


def test_probe_solve_avoids_small_array_numpy(monkeypatch):
    # The probe solve makes no numpy call per point. The unital and axial solves call none of these; a map that is
    # neither calls the trigonometric ones only on the x grid's n-element arrays (its maximum is inside the x range,
    # so the polish takes steps, each a plain-float circle solve).
    random_map = KrausChannel(random_kraus_ops(np.random.default_rng(0), 3), "random")
    exact = (rtn(0.3), ad(0.25))
    expected = [maximize_mu(ch).mu for ch in (*exact, random_map)]
    assert maximize_mu(random_map).evaluations > 24
    sizes = []

    def on_arrays(routine):
        def checked(x, *args):
            sizes.append(np.size(x))
            return routine(x, *args)

        return checked

    def forbidden(*args, **kwargs):
        raise AssertionError("the probe solve called a small-array numpy routine")

    for name in ("sin", "cos", "arctan2"):
        monkeypatch.setattr(np, name, on_arrays(getattr(np, name)))
    for name in ("cross", "einsum"):
        monkeypatch.setattr(np, name, forbidden)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    assert [maximize_mu(ch).mu for ch in exact] == expected[:2] and sizes == []
    assert maximize_mu(random_map).mu == expected[2]
    assert sizes == [24] * 5  # sin and cos of the x grid, arctan2 for its phis, and their sin and cos


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_ops=st.integers(1, 4))
def test_probe_solve_on_random_maps(seed, n_ops):
    rng = np.random.default_rng(seed)
    ops = random_kraus_ops(rng, n_ops)
    ch = KrausChannel(ops, "random")
    res = maximize_mu(ch)
    assert res.mu >= brute_force_mu(ch, 48) - 1e-12
    rho_a, rho_b = state_pair(res.argmax_params)
    assert abs(incompatibility(apply(ch, rho_a), apply(ch, rho_b)) - res.mu) <= 1e-12
    u = random_unitary(rng)
    rotated = KrausChannel(tuple(u @ k for k in ops), "random")
    assert abs(maximize_mu(rotated).mu - res.mu) <= 1e-10


def test_probe_solve_finds_the_basin_a_2d_grid_missed():
    # A 24 x 24 (x, phi) grid and a 2-D polish stopped at 0.2917922338787219 on this map.
    ch = KrausChannel(random_kraus_ops(np.random.default_rng(678), 3), "random")
    res = maximize_mu(ch)
    assert abs(res.mu - 0.2944173361469945) <= 1e-12
    assert res.mu >= brute_force_mu(ch, 48) - 1e-12


def test_probe_solve_reaches_the_x_scan_maximum():
    # 240 maps, among them seeds 36 and 118 with 2 operators, where a 2-D grid picked the wrong basin.
    xs = np.linspace(0.0, np.pi / 2, 401).tolist()
    for seed in range(120):
        for n_ops in (2, 3):
            ch = KrausChannel(random_kraus_ops(np.random.default_rng(seed), n_ops), "random")
            cols = _probe_cols(*bloch_map(ch))
            scan = max(optimize._probe_circle(optimize._Floats, cols, x)[1] for x in xs)
            res = maximize_mu(ch)
            assert res.mu >= scan - 1e-12, (seed, n_ops)
            # 36 at most on these maps; with f_xx alone as the curvature, not the envelope's F'', up to 69
            assert res.converged and res.evaluations <= 48, (seed, n_ops)


def _qr_maps(count):
    """Random CPTP maps: map i has k = 1 + i % 4 Kraus operators, the 2x2 blocks of the Q factor of a complex Gaussian
    2k x 2 matrix, all drawn from one default_rng(12345)."""
    rng, maps = np.random.default_rng(12345), []
    for i in range(count):
        k = 1 + i % 4
        q = np.linalg.qr(rng.normal(size=(2 * k, 2)) + 1j * rng.normal(size=(2 * k, 2)))[0]
        maps.append(KrausChannel(tuple(q[2 * j : 2 * j + 2] for j in range(k)), "random"))
    return maps


def test_probe_polish_stops_on_a_sub_ulp_gain():
    # Map 45 took 38 evaluations at n = 24 when the probe polish stopped only on a step below REFINEMENT_TOLERANCE:
    # it kept halving steps whose first-order gain was below one ulp of the value, which no trial can show.
    maps = _qr_maps(266)
    res = maximize_mu(maps[45])
    assert res.converged and res.evaluations <= 25 and res.mu == 0.924481919873687
    # A polish that spins shows here before it shows as time: maps 61, 110, 242 and 265 took 24 to 32 evaluations at
    # n = 8.
    for i in (45, 61, 110, 242, 265):
        for n in (8, 24):
            res = maximize_mu(maps[i], OptimizerConfig(grid_points_per_angle=n))
            assert res.converged and res.evaluations <= n + 4, (i, n)


def _circle_cases():
    """Bloch maps (A, c) for the circle solve: random CPTP maps, unitary and near-unitary ones, rank-deficient G."""
    rng = np.random.default_rng(11)
    for n_ops in (1, 1, 2, 3, 4):
        yield bloch_map(KrausChannel(random_kraus_ops(rng, n_ops), "random"))
    for scale in (1e-6, *(3e-15, 1e-15) * 4):
        # A rotation and c of that size: the block's eigenvalues agree to about |c|. At rounding-level |c| a secular
        # solve of the unshifted block falls up to 4e-15 short, and its n can miss unit norm, so that the quadratic's
        # own value there would exceed the maximum.
        rotation = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        yield rotation * np.sign(np.linalg.det(rotation)), scale * rng.normal(size=3)
    u, v = rng.normal(size=(2, 3)) / 2.0
    yield np.outer(u, v), rng.normal(size=3) / 2.0  # rank-one A: cof(A) = 0 and G has rank at most one
    yield np.zeros((3, 3)), rng.normal(size=3) / 2.0  # G = 0: every phi attains |w|^2


def test_probe_circle_solve_against_a_dense_phi_scan():
    rng = np.random.default_rng(12)
    phis = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
    for a_mat, c_vec in _circle_cases():
        cols = _probe_cols(a_mat, c_vec)
        for x in [0.0, np.pi / 2, *rng.uniform(0.0, np.pi / 2, 20)]:
            phi, value = optimize._probe_circle(optimize._Floats, cols, float(x))
            assert 0.0 <= phi < 2 * np.pi
            assert value >= np.max(_direct_probe_objective(a_mat, c_vec, np.full_like(phis, x), phis)) - 1e-15
            assert abs(value - _direct_probe_objective(a_mat, c_vec, x, phi)) <= 1e-15


def _trust_region_cases():
    """Blocks [[p, q], [q, r]] >= 0 and d: random ones, then a zero block, multiples of the identity, g_1 = 0, w_2 = 0."""
    rng = np.random.default_rng(31)
    for _ in range(200):
        m = rng.normal(size=(2, 3))
        block = m @ m.T
        yield block[0, 0], block[0, 1], block[1, 1], tuple(rng.normal(size=2))
    yield 0.0, 0.0, 0.0, (0.3, -0.2)
    yield 0.0, 0.0, 0.0, (0.0, 0.0)
    yield 0.7, 0.0, 0.7, (0.1, 0.4)
    yield 0.7, 0.0, 0.7, (0.0, 0.0)
    yield 0.9, 0.0, 0.2, (0.0, 0.5)  # d orthogonal to the top eigenvector (1, 0): the hard case g_1 = 0
    yield 0.9, 0.0, 0.2, (0.0, 0.05)
    yield 0.36, 0.48, 0.64, (0.3, 0.1)  # rank one: w_2 = 0


@pytest.mark.parametrize("row_space", [False, True])
def test_trust_region_2x2_on_floats_and_arrays_agree(row_space):
    cases = list(_trust_region_cases())
    p, q, r, d1, d2 = (np.array(v) for v in zip(*[(p, q, r, *d) for p, q, r, d in cases]))
    w1, (y1, y2), _ = optimize._trust_region_2x2(np, p, q, r, (d1, d2), row_space)
    top, _, (v1, v2) = optimize._eigen_2x2(np, p, q, r)
    for i, (p, q, r, d) in enumerate(cases):
        w, y, _ = optimize._trust_region_2x2(optimize._Floats, p, q, r, d, row_space)
        assert abs(w - w1[i]) <= 1e-15 and max(abs(y[0] - y1[i]), abs(y[1] - y2[i])) <= 1e-15, i
        w, _, v = optimize._eigen_2x2(optimize._Floats, p, q, r)
        assert abs(w - top[i]) <= 1e-15 and max(abs(v[0] - v1[i]), abs(v[1] - v2[i])) <= 1e-15, i


@pytest.mark.parametrize("row_space", [False, True])
def test_secular_stage_is_the_one_copy_of_the_step(row_space):
    # The all-pairs bound runs the secular stage alone; its dual value is the full solve's, bit for bit.
    cases = list(_trust_region_cases())
    p, q, r, d1, d2 = (np.array(v) for v in zip(*[(p, q, r, *d) for p, q, r, d in cases]))
    for steps in (1, 100):
        terms, _ = optimize._secular_terms(np, p, q, r, (d1, d2), row_space)
        _, dual = optimize._secular(np, *terms, steps)
        assert np.array_equal(dual, optimize._trust_region_2x2(np, p, q, r, (d1, d2), row_space, steps)[2])
        for p_i, q_i, r_i, d in cases:
            terms, _ = optimize._secular_terms(optimize._Floats, p_i, q_i, r_i, d, row_space)
            _, dual = optimize._secular(optimize._Floats, *terms, steps)
            assert dual == optimize._trust_region_2x2(optimize._Floats, p_i, q_i, r_i, d, row_space, steps)[2]


def test_probe_circle_on_floats_and_arrays_agree():
    # the x grids of 200 random maps, and the circle cases, near-unitary maps with rounding-level c among them
    xs = np.linspace(0.0, np.pi / 2, 24)
    rng = np.random.default_rng(13)
    maps = [bloch_map(KrausChannel(random_kraus_ops(rng, 2 + i % 3), "random")) for i in range(200)]
    for a_mat, c_vec in [*maps, *_circle_cases()]:
        cols = _probe_cols(a_mat, c_vec)
        phis, values = optimize._probe_circle(np, cols, xs)
        for x, phi, value in zip(xs.tolist(), phis, values):
            one_phi, one_value = optimize._probe_circle(optimize._Floats, cols, x)
            assert abs(one_value - value) <= 1e-15
            # the value is stationary in phi at the maximum, so the two roundings move phi more (1.9e-14 at most)
            assert abs(math.remainder(one_phi - phi, 2 * np.pi)) <= 1e-13


def test_azimuths_stay_below_two_pi():
    # atan2 of a tiny negative angle, taken % 2 pi, rounds to 2 pi itself; both angle readers fold it to 0.
    assert optimize._bloch_angles((1.0, 1e-17, 0.0)) == (np.pi / 2, 0.0)
    zero = (0.0, 0.0, 0.0)
    # |G n + w|^2 with G's sin column (-1e-17, 0, 0), cos column e_x and w = e_x: the maximizer is at phi = -1e-17
    cols = ((-1e-17, 0.0, 0.0), (1.0, 0.0, 0.0), zero, zero, (1.0, 0.0, 0.0))
    assert optimize._probe_circle(optimize._Floats, cols, 0.0) == (0.0, 4.0)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_ops=st.integers(1, 4))
def test_all_pairs_mu_invariant_under_output_unitary(seed, n_ops):
    # K_i -> U K_i rotates every output Bloch vector, which leaves |a' x b'|^2
    # unchanged.
    rng = np.random.default_rng(seed)
    ops = random_kraus_ops(rng, n_ops)
    u = random_unitary(rng)
    cfg = OptimizerConfig(grid_points_per_angle=8, domain=DOMAIN_ALL_PAIRS)
    mu = maximize_mu(KrausChannel(ops, "random"), cfg).mu
    assert abs(maximize_mu(KrausChannel(tuple(u @ k for k in ops), "random"), cfg).mu - mu) <= 1e-10


def test_all_pairs_coarse_grid_finds_the_global_maximum():
    # The 4-angle objective of the rotated copy has a local maximum near
    # 0.13777 that a coarse search can stop at; the maximum does not depend on U.
    rng = np.random.default_rng(10)
    ops = random_kraus_ops(rng, 3)
    u = random_unitary(rng)
    cfg = OptimizerConfig(grid_points_per_angle=8, domain=DOMAIN_ALL_PAIRS)
    for kraus in (ops, tuple(u @ k for k in ops)):
        assert abs(maximize_mu(KrausChannel(kraus, "random"), cfg).mu - 0.13832313082060127) <= 1e-10


@pytest.mark.parametrize("ch", [ad(0.25), unruh(np.pi / 6), gad(0.7, 0.5)], ids=lambda ch: ch.label)
def test_grid_ties_resolve_to_the_smallest_azimuth(ch):
    # These channels are invariant under z-rotation, so every azimuth of the
    # first input ties; both solves fix phi = 0 for axially symmetric maps.
    for domain in (DOMAIN_PROBE, DOMAIN_ALL_PAIRS):
        assert maximize_mu(ch, OptimizerConfig(domain=domain)).argmax_params.phi == 0.0


def _unitary_mixture(seed):
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(3))
    return KrausChannel(tuple(np.sqrt(w) * random_unitary(rng) for w in weights), "unitary-mixture")


@pytest.mark.parametrize(
    "ch",
    [pd(0.3), rtn(0.6), gdc(0.5, 0.3, 0.15, 0.05), gdc(0.1, 0.4, 0.3, 0.2), _unitary_mixture(1), _unitary_mixture(2)],
    ids=lambda ch: ch.label,
)
def test_unital_all_pairs_solve_is_closed_form(ch):
    res = maximize_mu(ch, OptimizerConfig(domain=DOMAIN_ALL_PAIRS))
    s = np.linalg.svd(bloch_map(ch)[0], compute_uv=False)
    assert res.evaluations == 1 and res.converged
    assert abs(res.mu - (s[0] * s[1]) ** 2) <= 1e-15
    rho_a, rho_b = state_pair(res.argmax_params)
    assert abs(incompatibility(apply(ch, rho_a), apply(ch, rho_b)) - res.mu) <= 1e-12
    assert res.mu >= brute_force_mu(ch, 24, DOMAIN_ALL_PAIRS) - 1e-12


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_ops=st.integers(1, 4))
def test_all_pairs_solve_on_random_maps(seed, n_ops):
    ch = KrausChannel(random_kraus_ops(np.random.default_rng(seed), n_ops), "random")
    res = maximize_mu(ch, OptimizerConfig(domain=DOMAIN_ALL_PAIRS))
    assert res.converged
    assert res.mu >= brute_force_mu(ch, 24, DOMAIN_ALL_PAIRS) - 1e-12
    rho_a, rho_b = state_pair(res.argmax_params)
    assert abs(incompatibility(apply(ch, rho_a), apply(ch, rho_b)) - res.mu) <= 1e-12


def test_all_pairs_solve_ignores_memory_layout():
    # numpy rounds products of strided operands differently; the solve must depend on the values of (A, c) only,
    # on the axial branch and at the default grid too.
    maps = [bloch_map(KrausChannel(random_kraus_ops(np.random.default_rng(seed), 3), "random")) for seed in range(20)]
    maps.append(bloch_map(gad(0.3, 0.2)))
    assert optimize._is_axial(*maps[-1])
    for a_mat, c_vec in maps:
        a_buf, c_buf = np.zeros((3, 6)), np.zeros(6)
        a_buf[:, ::2], c_buf[::2] = a_mat, c_vec
        for n in (8, optimize.DEFAULT_GRID):
            contiguous = optimize._pairs_solve(np.ascontiguousarray(a_mat), np.ascontiguousarray(c_vec), n)
            assert optimize._pairs_solve(a_buf[:, ::2], c_buf[::2], n) == contiguous
            assert optimize._pairs_solve(np.asfortranarray(a_mat), c_vec, n) == contiguous


def test_grid_table_is_read_only_and_bounded():
    for array in optimize._grid(np.pi, 7, 7):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    assert optimize._grid_table.cache_info().maxsize == optimize.GRID_CACHE_SIZE == 4
    for n in range(2, 2 + 2 * optimize.GRID_CACHE_SIZE):
        optimize._grid(np.pi, n, 1)
    assert optimize._grid_table.cache_info().currsize == optimize.GRID_CACHE_SIZE
    # a grid above GRID_CACHE_POINTS is built for its call and not kept; one at the limit is kept
    optimize._grid_table.cache_clear()
    big = optimize._grid(np.pi, 257, 256)
    assert big.theta.size == 257 * 256 > optimize.GRID_CACHE_POINTS == 256 * 256
    assert not big.bloch.flags.writeable and optimize._grid_table.cache_info().currsize == 0
    assert optimize._grid(np.pi, 256, 256) is optimize._grid(np.pi, 256, 256)
    assert optimize._grid_table.cache_info().currsize == 1


def test_grid_table_entries_keep_polar_range_and_azimuths_apart():
    optimize._grid_table.cache_clear()
    full, axial, half = optimize._grid(np.pi, 7, 7), optimize._grid(np.pi, 7, 1), optimize._grid(np.pi / 2, 7, 7)
    assert (full.theta.size, axial.theta.size, half.theta.size) == (49, 7, 49)
    assert full.theta[-1] == axial.theta[-1] == np.pi and half.theta[-1] == np.pi / 2 and np.all(axial.phi == 0.0)
    for grid in (full, axial, half):
        assert np.array_equal(grid.bloch, bloch_vectors(grid.theta, grid.phi).T)


def _grid_readers():
    """Calls that read the grid table (all-pairs solves and both oracles) and probe solves, on two maps."""
    for ch in (KrausChannel(random_kraus_ops(np.random.default_rng(3), 3), "random"), gad(0.3, 0.2)):
        for domain in (DOMAIN_PROBE, DOMAIN_ALL_PAIRS):
            for n in (2, 7, 24):
                yield lambda ch=ch, cfg=OptimizerConfig(grid_points_per_angle=n, domain=domain): maximize_mu(ch, cfg)
            for n in (7, 24):
                yield lambda ch=ch, n=n, domain=domain: brute_force_mu(ch, n, domain)


def test_results_do_not_depend_on_the_grid_table_state():
    # Each result from a cold table, then all of them again from one warm table in both orders, so that each also
    # follows calls at other sizes, in the other domain and on the other branch (axial or not) of the same size.
    calls = list(_grid_readers())
    cold = []
    for call in calls:
        optimize._grid_table.cache_clear()
        cold.append(call())
    assert [call() for call in calls] == cold
    assert [call() for call in reversed(calls)] == cold[::-1]


def test_all_pairs_converges_on_benchmark_random_maps():
    # The five random 3-Kraus maps of the all-pairs benchmark workload, seeds 1-3.
    cfg = OptimizerConfig(domain=DOMAIN_ALL_PAIRS)
    for seed in (1, 2, 3):
        for ch in _benchmark_random_maps(seed):
            assert maximize_mu(ch, cfg).converged


def test_all_pairs_solve_runs_without_scipy():
    src = str(Path(optimize.__file__).resolve().parents[1])
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "import qchan\n"
        "print(repr(qchan.maximize_mu(qchan.ad(0.25), qchan.OptimizerConfig(domain='all-pairs')).mu))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert abs(float(done.stdout) - 0.9444741363334508) <= 1e-12


def _z_rotation(angle):
    return np.diag([np.exp(-0.5j * angle), np.exp(0.5j * angle)])


_AXIAL_CHANNELS = [
    KrausChannel(tuple(_z_rotation(t_out) @ k @ _z_rotation(t_in) for k in ch.ops), f"rotated-{ch.label}")
    for ch, t_in, t_out in [
        (ad(0.25), 0.3, 0.0),
        (ad(0.8), 2.0, -0.7),
        (unruh(np.pi / 6), 0.0, 1.1),
        (gad(0.9, 0.3), 0.5, 0.4),
        (gad(0.2, 0.7), -1.3, 0.0),
    ]
]


@pytest.mark.parametrize("ch", _AXIAL_CHANNELS, ids=lambda ch: ch.label)
def test_axial_probe_solve_is_closed_form(ch):
    # A z-rotation before or after the channel keeps its Bloch map axially symmetric.
    a_mat, c_vec = bloch_map(ch)
    assert optimize._is_axial(a_mat, c_vec)
    res = maximize_mu(ch)
    assert res.evaluations == 1 and res.converged and res.argmax_params.phi == 0.0
    assert res.argmax_params.x in (0.0, np.pi / 2)
    p_sq = a_mat[0, 0] ** 2 + a_mat[1, 0] ** 2
    assert res.mu == pytest.approx(p_sq * (abs(a_mat[2, 2]) + abs(c_vec[2])) ** 2, abs=1e-15)
    assert res.mu >= brute_force_mu(ch, 48) - 1e-12
    rho_a, rho_b = state_pair(res.argmax_params)
    assert abs(incompatibility(apply(ch, rho_a), apply(ch, rho_b)) - res.mu) <= 1e-12


@pytest.mark.parametrize("ch", _AXIAL_CHANNELS, ids=lambda ch: ch.label)
def test_axial_all_pairs_solve_scans_polar_angles(ch):
    n = 24
    res = maximize_mu(ch, OptimizerConfig(domain=DOMAIN_ALL_PAIRS))
    assert res.converged and res.argmax_params.phi == 0.0
    assert n < res.evaluations < n * n
    assert res.mu >= brute_force_mu(ch, 24, DOMAIN_ALL_PAIRS) - 1e-12
    rho_a, rho_b = state_pair(res.argmax_params)
    assert abs(incompatibility(apply(ch, rho_a), apply(ch, rho_b)) - res.mu) <= 1e-12


def test_axial_test_rejects_generic_maps():
    for seed in range(20):
        assert not optimize._is_axial(*bloch_map(KrausChannel(random_kraus_ops(np.random.default_rng(seed), 3), "random")))
    # [[p, q], [q, -p]] in the xy block is a reflection, not a rotation about z
    assert not optimize._is_axial(np.diag([0.5, -0.5, 0.2]), np.array([0.0, 0.0, 0.3]))


def _eigh_sphere_max(a_mat, c_vec, a_vecs):
    """Reference trust-region solve by a batched eigh of H = M^T M, M = [u]_x A (no hard-case care)."""
    u = a_vecs @ a_mat.T + c_vec
    uu, p = np.sum(u * u, axis=1), u @ a_mat
    w, v = np.linalg.eigh(uu[:, None, None] * (a_mat.T @ a_mat) - p[:, :, None] * p[:, None, :])
    gt = np.einsum("nij,ni->nj", v, uu[:, None] * (c_vec @ a_mat) - (u @ c_vec)[:, None] * p)
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
    return np.sum(np.cross(u, b @ a_mat.T + c_vec) ** 2, axis=1)


def _dense_sphere_max(a_mat, c_vec, a_vecs, n=120):
    """Maximum of f(a, b) over an n x 2n grid of b for each row a: a lower bound on the sphere maximum."""
    tb, pb = np.meshgrid(np.linspace(0.0, np.pi, n), np.linspace(0.0, 2 * np.pi, 2 * n, endpoint=False), indexing="ij")
    v = bloch_vectors(tb.ravel(), pb.ravel()) @ a_mat.T + c_vec
    vv = np.sum(v * v, axis=1)
    best = []
    for start in range(0, len(a_vecs), 32):
        u = a_vecs[start : start + 32] @ a_mat.T + c_vec
        best.append(np.max(np.sum(u * u, axis=1)[:, None] * vv - (u @ v.T) ** 2, axis=1))
    return np.concatenate(best)


def _batched_route(a_mat, c_vec, a_vecs):
    """(values, bs) of :func:`optimize._sphere_max` for the rows of ``a_vecs``, from one batch on arrays."""
    values, bs = optimize._sphere_max(np, a_mat.tolist(), c_vec.tolist(), tuple(a_vecs.T))
    return values, np.stack(bs, axis=1)


def _check_attained(a_mat, c_vec, a_vecs, values, bs):
    assert np.all(np.isfinite(bs)) and np.max(np.abs(np.linalg.norm(bs, axis=1) - 1.0)) <= 1e-15
    direct = np.sum(np.cross(a_vecs @ a_mat.T + c_vec, bs @ a_mat.T + c_vec) ** 2, axis=1)
    assert np.max(np.abs(values - direct)) <= 1e-15


def test_sphere_max_on_the_gad_grid_against_references():
    # An eigh of the 3x3 H divides a rounding-level top component of g by a rounding-level gap on this grid
    # and falls up to 2.5e-3 short of the maximum (grid index 340: 0.104816 against 0.107361).
    a_mat, c_vec = bloch_map(gad(0.3, 0.2))
    a_vecs = optimize._grid(np.pi, 24, 24).bloch.T
    values, bs = _batched_route(a_mat, c_vec, a_vecs)
    _check_attained(a_mat, c_vec, a_vecs, values, bs)
    dense, eigh = _dense_sphere_max(a_mat, c_vec, a_vecs), _eigh_sphere_max(a_mat, c_vec, a_vecs)
    assert np.all(values >= dense - 1e-15)
    assert np.all(values >= eigh - 1e-15)
    assert values[340] == pytest.approx(0.10736144990547, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_sphere_max_matches_eigh_route_on_random_maps(seed):
    rng = np.random.default_rng(seed)
    a_mat, c_vec = bloch_map(KrausChannel(random_kraus_ops(rng, 3), "random"))
    a_vecs = sample_ball(rng, 200)
    a_vecs /= np.linalg.norm(a_vecs, axis=1, keepdims=True)
    values, bs = _batched_route(a_mat, c_vec, a_vecs)
    _check_attained(a_mat, c_vec, a_vecs, values, bs)
    assert np.max(np.abs(values - _eigh_sphere_max(a_mat, c_vec, a_vecs))) <= 1e-14
    assert np.all(values >= _dense_sphere_max(a_mat, c_vec, a_vecs, 40) - 1e-15)


def _plain_float_route(a_mat, c_vec, a_vecs):
    """(values, bs) of :func:`optimize._sphere_max` for the rows of ``a_vecs``, from one plain-float solve per row."""
    solved = [optimize._sphere_max(optimize._Floats, a_mat.tolist(), c_vec.tolist(), a) for a in a_vecs.tolist()]
    return np.array([value for value, _ in solved]), np.array([b for _, b in solved])


@pytest.mark.parametrize("first_seed", range(0, 200, 20))
def test_plain_float_inner_solve_matches_the_batched_one(first_seed):
    for seed in range(first_seed, first_seed + 20):
        rng = np.random.default_rng(seed)
        a_mat, c_vec = bloch_map(KrausChannel(random_kraus_ops(rng, 2 + seed % 2), "random"))
        a_vecs = sample_ball(rng, 20)
        a_vecs /= np.linalg.norm(a_vecs, axis=1, keepdims=True)
        values, bs = _plain_float_route(a_mat, c_vec, a_vecs)
        _check_attained(a_mat, c_vec, a_vecs, values, bs)
        assert np.max(np.abs(values - _batched_route(a_mat, c_vec, a_vecs)[0])) <= 1e-15


def test_sphere_max_on_degenerate_maps():
    # both routes: the batched solve of the grid and the plain-float solve of a polish trial
    rng = np.random.default_rng(5)
    a_vecs = sample_ball(rng, 50)
    a_vecs /= np.linalg.norm(a_vecs, axis=1, keepdims=True)
    x, y = rng.normal(size=(2, 3))
    x, y = x / np.linalg.norm(x), y / np.linalg.norm(y)
    orthogonal = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    for route in (_batched_route, _plain_float_route):
        # A = 0 (ad(1)): every output is the pole, f = 0
        a_mat, c_vec = bloch_map(ad(1.0))
        values, bs = route(a_mat, c_vec, a_vecs)
        assert np.max(np.abs(a_mat)) == 0.0 and np.all(values == 0.0)
        _check_attained(a_mat, c_vec, a_vecs, values, bs)
        # rank 1, A = s x y^T: f is convex in y.b, so the maximum sits at b = +-y
        a_mat, c_vec = 0.6 * np.outer(x, y), np.array([0.1, -0.2, 0.15])
        values, bs = route(a_mat, c_vec, a_vecs)
        _check_attained(a_mat, c_vec, a_vecs, values, bs)
        u = a_vecs @ a_mat.T + c_vec
        ends = [np.sum(np.cross(u, s * 0.6 * x + c_vec) ** 2, axis=1) for s in (1.0, -1.0)]
        assert np.max(np.abs(values - np.maximum(*ends))) <= 1e-15
        # orthogonal A, c = 0: Q Q^T = I and g = 0, the maximum |a x b|^2 = 1 at every b orthogonal to a
        values, bs = route(orthogonal, np.zeros(3), a_vecs)
        _check_attained(orthogonal, np.zeros(3), a_vecs, values, bs)
        assert np.max(np.abs(values - 1.0)) <= 4e-15  # rounding of A^T A = I and of the unit rows
        # a first input mapped to u = A a + c = 0
        a_mat, c_vec = 0.5 * np.eye(3), np.array([0.0, 0.0, 0.5])
        rows = np.array([[0.0, 0.0, -1.0], [0.0, 0.6, -0.8]])
        values, bs = route(a_mat, c_vec, rows)
        _check_attained(a_mat, c_vec, rows, values, bs)
        assert values[0] == 0.0
        assert values[1] >= _dense_sphere_max(a_mat, c_vec, rows)[1] - 1e-15
        # and ad(0.5) at the south pole
        a_mat, c_vec = bloch_map(ad(0.5))
        values, bs = route(a_mat, c_vec, rows[:1])
        _check_attained(a_mat, c_vec, rows[:1], values, bs)
        assert values[0] == 0.0


def _record_calls(monkeypatch, name):
    """Record each call of ``optimize.<name>``: its batch size, or None for one plain-float point.

    The shared solves take ``xp`` first; ``_sphere_bound``, which takes none, always records its batch size.
    """
    solve, sizes = getattr(optimize, name), []

    def recording(xp, *args):
        sizes.append(None if xp is optimize._Floats else np.shape(args[-1])[-1])
        return solve(xp, *args)

    monkeypatch.setattr(optimize, name, recording)
    return sizes


def test_all_pairs_solve_bounds_the_grid_and_solves_few_points(monkeypatch):
    # The grid is one array _sphere_bound pass; every exact inner solve, of a grid contender or of a polish trial, is
    # a plain-float _sphere_max. The grid's own solves are few: on the benchmark's maps, at most 3 of 576 (or of 24).
    bounds, solves = _record_calls(monkeypatch, "_sphere_bound"), _record_calls(monkeypatch, "_sphere_max")
    cfg = OptimizerConfig(domain=DOMAIN_ALL_PAIRS)
    maps = [ad(0.25), gad(1.0, 0.6), unruh(np.pi / 6), gad(0.3, 0.2)]
    maps += [ch for seed in (1, 2, 3, 4) for ch in _benchmark_random_maps(seed)]
    for ch in maps:
        bounds.clear()
        solves.clear()
        evaluations = maximize_mu(ch, cfg).evaluations
        grid = 24 if optimize._is_axial(*bloch_map(ch)) else 576
        assert evaluations > grid and bounds == [grid] and set(solves) == {None}, ch.label
        assert 1 <= len(solves) - (evaluations - grid) <= 3, ch.label


def _pole_channel(pole):
    """A random map turned on its input so that its all-pairs maximum has the first input at a pole (0 north, 1 south)."""
    ops = random_kraus_ops(np.random.default_rng(7), 3)
    pair = maximize_mu(KrausChannel(ops, "random"), OptimizerConfig(domain=DOMAIN_ALL_PAIRS)).argmax_params
    psi = np.array([np.cos(pair.x / 2), np.exp(-1j * pair.phi) * np.sin(pair.x / 2)])  # the state of Bloch vector a
    turn = np.column_stack([psi, [-np.conj(psi[1]), np.conj(psi[0])]])  # |0> to psi, |1> to its orthogonal state
    return KrausChannel(tuple(k @ (turn if pole == 0 else turn[:, ::-1]) for k in ops), "random")


@pytest.mark.parametrize("pole", [0, 1])
def test_all_pairs_grid_solves_a_pole_once(monkeypatch, pole):
    # The grid rows at theta = 0 and theta = pi hold n copies of one point with equal bounds; the pole is solved once.
    ch = _pole_channel(pole)
    solves = _record_calls(monkeypatch, "_sphere_max")
    res = maximize_mu(ch, OptimizerConfig(domain=DOMAIN_ALL_PAIRS))
    assert res.argmax_params.x == pole * np.pi and res.argmax_params.phi == 0.0
    assert len(solves) - (res.evaluations - 576) == 1
    _check_grid_stage(*bloch_map(ch), optimize._grid(np.pi, 24, 24), 24)


def test_all_pairs_grid_solves_on_a_flat_grid(monkeypatch):
    # ad(gamma) between two random unitaries lies within about gamma of a unitary channel, so its grid is flat within
    # the tie window and each tied point costs one exact solve. The counts are pinned at those of this bound, so that
    # a looser one fails here before it shows as time.
    rng = np.random.default_rng(3)
    u, v = random_unitary(rng), random_unitary(rng)
    grid, solves = optimize._grid(np.pi, 24, 24), _record_calls(monkeypatch, "_sphere_max")
    for gamma, most in ((1e-13, 116), (1e-11, 13), (1e-9, 1)):
        a_mat, c_vec = bloch_map(KrausChannel(tuple(u @ k @ v for k in ad(gamma).ops), "random"))
        assert not optimize._is_axial(a_mat, c_vec)
        solves.clear()
        optimize._grid_max(a_mat.tolist(), c_vec.tolist(), grid, 24)
        assert 1 <= len(solves) <= most, gamma


@pytest.mark.parametrize("pole", [0, 1])
def test_all_pairs_oracle_takes_a_pole_once(pole):
    # The oracle keeps one copy of each pole and drops the rest; on a map whose maximum has its first input at a pole,
    # the value stays that of every pair of the full grid.
    ch = _pole_channel(pole)
    for n in (2, 3, 12):
        assert abs(brute_force_mu(ch, n, DOMAIN_ALL_PAIRS) - _explicit_oracle(ch, n, DOMAIN_ALL_PAIRS)) <= 1e-13, n


def _check_bounds(a_mat, c_vec, a_vecs):
    """Each first input's bound is finite and at least its plain-float exact value (within 4.5 ulp of 1)."""
    exact, _ = _plain_float_route(a_mat, c_vec, a_vecs)
    bounds = optimize._sphere_bound(a_mat.tolist(), c_vec.tolist(), a_vecs.T)
    assert np.all(np.isfinite(bounds)) and np.all(bounds >= exact - 1e-15)
    return exact, bounds


def _check_grid_stage(a_mat, c_vec, grid, n):
    """The bounds hold on the grid, and the grid stage picks the point of _grid_argmax over a full plain-float scan.

    Its exact solves are those of a descending scan of all bounds (ties in grid order, each pole once), in that order.
    """
    exact, bounds = _check_bounds(a_mat, c_vec, grid.bloch.T)
    bounds.reshape(n, -1)[:: n - 1, 1:] = -np.inf
    scan, best = [], -np.inf
    for k in np.argsort(-bounds, kind="stable"):
        if bounds[k] < best - 2.0 * optimize.TIE_TOL:
            break
        scan.append(grid.bloch[:, k].tolist())
        best = max(best, exact[k])
    solve, solved = optimize._sphere_max, []

    def recording(xp, rows, c, a):
        solved.append(a)
        return solve(xp, rows, c, a)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimize, "_sphere_max", recording)
        k = optimize._grid_max(a_mat.tolist(), c_vec.tolist(), grid, n)[0]
    assert k == optimize._grid_argmax(exact) and solved == scan


@pytest.mark.parametrize("first_seed", range(0, 200, 50))
def test_sphere_bound_on_random_maps(first_seed):
    grid = optimize._grid(np.pi, 12, 12)
    for seed in range(first_seed, first_seed + 50):
        a_mat, c_vec = bloch_map(KrausChannel(random_kraus_ops(np.random.default_rng(seed), 2 + seed % 3), "random"))
        _check_grid_stage(a_mat, c_vec, grid, 12)


def test_sphere_bound_on_degenerate_maps():
    rng = np.random.default_rng(5)
    a_vecs = sample_ball(rng, 50)
    a_vecs /= np.linalg.norm(a_vecs, axis=1, keepdims=True)
    a_vecs = np.vstack([a_vecs, [[0.0, 0.0, -1.0], [0.0, 0.6, -0.8]]])
    orthogonal = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    grid = optimize._grid(np.pi, 12, 12)
    # Q = 0 (ad(1)); u = 0 at a = (0, 0, -1); w1 = w2 with g = 0 (orthogonal A, c = 0) and with g != 0 (A = I / 2)
    for a_mat, c_vec in [
        bloch_map(ad(1.0)),
        (0.5 * np.eye(3), np.array([0.0, 0.0, 0.5])),
        (orthogonal, np.zeros(3)),
        (0.5 * np.eye(3), np.array([0.1, -0.2, 0.3])),
    ]:
        _check_bounds(a_mat, c_vec, a_vecs)
        _check_grid_stage(a_mat, c_vec, grid, 12)
    # the hard case g1 = 0: u lies along z, so Q's rows are A's first two rows, the block is diag(w1, w2) and
    # d = (0, c_y) is orthogonal to the top eigenvector (1, 0); the bound is the dual value at lam = w1, and tight
    a_mat, c_vec, a = np.diag([0.75, 0.25, 0.5]), np.array([0.0, 0.0625, 0.125]), [0.0, -0.25, math.sqrt(0.9375)]
    _, _, _, block, d = optimize._sphere_block(optimize._Floats, a_mat.tolist(), c_vec.tolist(), a)
    assert block == (0.5625, 0.0, 0.0625) and d == (0.0, 0.0625)
    exact, bounds = _check_bounds(a_mat, c_vec, np.array([a]))
    assert bounds[0] <= exact[0] + 1e-15


def test_probe_solve_batches_only_the_grid(monkeypatch):
    # The x grid is one batched _probe_circle call; every polish trial is a plain-float solve.
    sizes = _record_calls(monkeypatch, "_probe_circle")
    random_map = KrausChannel(random_kraus_ops(np.random.default_rng(0), 3), "random")
    for n in (24, 7):
        sizes.clear()
        evaluations = maximize_mu(random_map, OptimizerConfig(grid_points_per_angle=n)).evaluations
        assert evaluations > n and sizes == [n] + [None] * (evaluations - n)
    # the unital and axial solves take no circle solve
    sizes.clear()
    assert maximize_mu(rtn(0.3)).evaluations == maximize_mu(ad(0.25)).evaluations == 1 and sizes == []


def test_all_pairs_solve_avoids_eigh(monkeypatch):
    chs = [gad(0.3, 0.2), KrausChannel(random_kraus_ops(np.random.default_rng(4), 3), "random")]
    cfg = OptimizerConfig(domain=DOMAIN_ALL_PAIRS)
    expected = [maximize_mu(ch, cfg).mu for ch in chs]

    def forbidden(*args, **kwargs):
        raise AssertionError("the all-pairs solve called np.linalg.eigh")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    assert [maximize_mu(ch, cfg).mu for ch in chs] == expected


def _envelope(a_mat, c_vec, a, direction, h):
    """F at the point h along the great circle from the unit a in the direction (s0, s1) of its tangent basis."""
    e1, e2 = (np.array(e) for e in optimize._tangents(optimize._Floats, a))
    t = direction[0] * e1 + direction[1] * e2
    return _batched_route(a_mat, c_vec, (np.cos(h) * np.array(a) + np.sin(h) * t)[None])[0][0]


@pytest.mark.parametrize("seed", range(4))
def test_envelope_terms_match_differences(seed):
    rng = np.random.default_rng(seed)
    a_mat, c_vec = bloch_map(KrausChannel(random_kraus_ops(rng, 3), "random"))
    # away from the poles, within 1e-3 of each pole and at each: the tangent basis has no pole of its own
    thetas = [*rng.uniform(0.3, 2.8, size=3), 0.0, 1e-3 * rng.random(), np.pi - 1e-3 * rng.random(), np.pi]
    for theta in thetas:
        a = bloch_vectors(theta, rng.uniform(0.0, 2 * np.pi)).tolist()
        b = _batched_route(a_mat, c_vec, np.array([a]))[1][0]
        grad, (h_00, h_01, h_11) = optimize._envelope_terms(a_mat.tolist(), c_vec.tolist(), a, b.tolist())
        hess = np.array([[h_00, h_01], [h_01, h_11]])
        h = 1e-4
        for direction in ((1.0, 0.0), (0.0, 1.0), (np.sqrt(0.5), np.sqrt(0.5))):
            f = [_envelope(a_mat, c_vec, a, direction, s * h) for s in (-1, 0, 1)]
            assert abs((f[2] - f[0]) / (2 * h) - np.dot(grad, direction)) <= 1e-7
            assert abs((f[2] - 2 * f[1] + f[0]) / h**2 - np.dot(direction, hess @ direction)) <= 1e-5


def _envelope_reference(a_mat, c_vec, a, b):
    """The terms of :func:`optimize._envelope_terms` by 3x3 and 2x2 matrices, and whether H_bb is negative definite.

    H_bb counts as negative definite when its top eigenvalue is below -``DEFINITE_TOL`` times its largest entry.

    f = |u|^2 |v|^2 - (u.v)^2 for u = A a + c and v = A b + c: its Euclidean derivatives in u and v, carried to the
    tangent bases T_a and T_b through A, minus (x . grad_x f) I on each sphere's block; H_bb^{-1} H_ba by np.linalg.solve.
    """
    a, b = np.array(a), np.array(b)
    t_a, t_b = (np.array(optimize._tangents(optimize._Floats, x.tolist())).T for x in (a, b))  # 3x2
    u, v = a_mat @ a + c_vec, a_mat @ b + c_vec
    grad_u, grad_v = 2.0 * ((v @ v) * u - (u @ v) * v), 2.0 * ((u @ u) * v - (u @ v) * u)
    d_uu = 2.0 * ((v @ v) * np.eye(3) - np.outer(v, v))
    d_vv = 2.0 * ((u @ u) * np.eye(3) - np.outer(u, u))
    d_uv = 2.0 * (2.0 * np.outer(u, v) - np.outer(v, u) - (u @ v) * np.eye(3))
    m_a, m_b = a_mat @ t_a, a_mat @ t_b
    h_aa = m_a.T @ d_uu @ m_a - ((a_mat @ a) @ grad_u) * np.eye(2)
    h_bb = m_b.T @ d_vv @ m_b - ((a_mat @ b) @ grad_v) * np.eye(2)
    h_ab = m_a.T @ d_uv @ m_b
    definite = bool(np.linalg.eigvalsh(h_bb).max() < -optimize.DEFINITE_TOL * np.abs(h_bb).max())
    hess = h_aa - h_ab @ np.linalg.solve(h_bb, h_ab.T) if definite else h_aa
    return m_a.T @ grad_u, hess, definite


def _envelope_cases():
    """(A, c, a, b, whether H_bb is negative definite, None if either): random maps at random points and both poles."""
    rng = np.random.default_rng(31)
    for n_ops in (2, 3, 4, 2, 3, 4):  # not 1: a unitary map's H_bb is singular at the maximizer (see below)
        a_mat, c_vec = bloch_map(KrausChannel(random_kraus_ops(rng, n_ops), "random"))
        thetas = [*rng.uniform(0.1, 3.0, size=4), 0.0, np.pi]
        for a in bloch_vectors(np.array(thetas), rng.uniform(0.0, 2 * np.pi, size=len(thetas))).tolist():
            b = optimize._sphere_max(optimize._Floats, a_mat.tolist(), c_vec.tolist(), a)[1]
            yield a_mat, c_vec, a, list(b), True  # a strict local maximum over b
            b = rng.normal(size=3)
            yield a_mat, c_vec, a, (b / np.linalg.norm(b)).tolist(), None
        yield a_mat, c_vec, [0.0, 0.0, 1.0], [0.0, 0.0, -1.0], None
    # hard cases: a constant map (A = 0, f = 0 everywhere) and the identity, where |a x b|^2 stays 1 as b turns about a
    for a, b in (([0.0, 0.0, 1.0], [1.0, 0.0, 0.0]), ([0.0, 0.0, -1.0], [0.0, 1.0, 0.0]), ([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])):
        yield np.zeros((3, 3)), np.array([0.3, -0.2, 0.5]), a, b, False
        yield np.eye(3), np.zeros(3), a, b, False


def test_envelope_terms_match_a_matrix_reference():
    branches = []
    for a_mat, c_vec, a, b, definite in _envelope_cases():
        grad, (h_00, h_01, h_11) = optimize._envelope_terms(a_mat.tolist(), c_vec.tolist(), a, b)
        ref_grad, ref_hess, ref_definite = _envelope_reference(a_mat, c_vec, a, b)
        assert definite in (None, ref_definite)
        branches.append(ref_definite)
        scale = 1.0 + np.max(np.abs(ref_hess))
        assert np.max(np.abs(np.array(grad) - ref_grad)) <= 1e-14
        assert np.max(np.abs(np.array([[h_00, h_01], [h_01, h_11]]) - ref_hess)) <= 1e-13 * scale, (a, b)
    assert 0 < branches.count(False) < branches.count(True)  # both branches, the Schur complement on most points


def _near_unitary_maps():
    """A unitary map, ad(1e-13) between two Haar unitaries, and maps of 2-4 operators within 1e-13 of a unitary one."""
    rng = np.random.default_rng(41)
    u, v = random_unitary(rng), random_unitary(rng)
    yield KrausChannel((u,), "random")
    yield KrausChannel(tuple(u @ k @ v for k in ad(1e-13).ops), "random")
    for n_ops in (2, 3, 4):
        big, small = math.sqrt(1.0 - 1e-13) * random_unitary(rng), random_kraus_ops(rng, n_ops - 1)
        yield KrausChannel((big,) + tuple(math.sqrt(1e-13) * k for k in small), "random")


def test_envelope_terms_take_the_hard_case_on_near_unitary_maps():
    # At the inner maximizer of a map within 1e-13 of a unitary one, turning b about u changes f by that little: H_bb
    # is singular to within about 1e-13 of its scale. Its branch is then the hard case, H_aa alone, decided by a
    # margin and not by the rounding of det, which took the Schur complement with an inverse of order 1e13.
    rng = np.random.default_rng(43)
    for ch in _near_unitary_maps():
        a_mat, c_vec = bloch_map(ch)
        thetas = rng.uniform(0.1, 3.0, size=4)
        for a in bloch_vectors(thetas, rng.uniform(0.0, 2 * np.pi, size=4)).tolist():
            b = list(optimize._sphere_max(optimize._Floats, a_mat.tolist(), c_vec.tolist(), a)[1])
            grad, (h_00, h_01, h_11) = optimize._envelope_terms(a_mat.tolist(), c_vec.tolist(), a, b)
            ref_grad, ref_hess, ref_definite = _envelope_reference(a_mat, c_vec, a, b)
            assert not ref_definite
            scale = 1.0 + np.max(np.abs(ref_hess))
            assert np.max(np.abs(np.array(grad) - ref_grad)) <= 1e-14
            assert np.max(np.abs(np.array([[h_00, h_01], [h_01, h_11]]) - ref_hess)) <= 1e-13 * scale
        res = maximize_mu(ch, OptimizerConfig(domain=DOMAIN_ALL_PAIRS))
        assert res.converged and res.mu >= brute_force_mu(ch, 24, DOMAIN_ALL_PAIRS) - 1e-12


@pytest.mark.parametrize("gamma", [1e-7, 1e-9])
def test_all_pairs_polish_on_near_identity_maps(gamma):
    # The envelope's curvature is of order gamma here; the polish still reaches the top of a dense polar scan.
    ch = ad(gamma)
    a_mat, c_vec = bloch_map(ch)
    theta = np.linspace(0.0, np.pi, 20001)
    scan = _batched_route(a_mat, c_vec, bloch_vectors(theta, np.zeros_like(theta)))[0]
    res = maximize_mu(ch, OptimizerConfig(domain=DOMAIN_ALL_PAIRS))
    assert res.converged and res.mu >= np.max(scan) - 1e-15


@pytest.mark.parametrize("label", sorted(channels.CHANNELS))
def test_all_pairs_results_carry_no_closed_form(label):
    # The closed forms are probe-domain maxima; an all-pairs result reports neither them nor a gap to them.
    from qchan.cli import VALIDATION_POINTS

    ch = channels.make_channel(label, dict(VALIDATION_POINTS)[label][1])
    res = maximize_mu(ch, OptimizerConfig(domain=DOMAIN_ALL_PAIRS))
    assert res.closed_form is None and res.abs_error is None
    assert (maximize_mu(ch).closed_form is None) == (channels.CHANNELS[label].closed_form is None)


def test_brute_force_grid_is_bounded():
    cap = optimize.MAX_GRID_POINTS
    for n in (1, cap + 1):
        with pytest.raises(ValueError, match=rf"^n must be between 2 and {cap}, got {n}$"):
            brute_force_mu(ad(0.25), n)


def test_grid_sizes_must_be_integers():
    # a float size used to pass the range check, then fail with a TypeError in np.linspace
    for n in (24.5, 8.0):
        with pytest.raises(ValueError, match=rf"^grid_points_per_angle must be an integer, got {n}$"):
            OptimizerConfig(grid_points_per_angle=n)
        with pytest.raises(ValueError, match=rf"^n must be an integer, got {n}$"):
            brute_force_mu(gad(0.3, 0.6), n)
    cfg = OptimizerConfig(grid_points_per_angle=np.int64(8))
    assert maximize_mu(gad(0.3, 0.6), cfg) == maximize_mu(gad(0.3, 0.6), OptimizerConfig(grid_points_per_angle=8))
    assert brute_force_mu(gad(0.3, 0.6), np.int64(8)) == brute_force_mu(gad(0.3, 0.6), 8)


def test_probe_domain_reports_the_states_probe_pair():
    # Every branch of the probe solve (unital, axial, grid and polish) reports y = x + pi/2 and xi = phi.
    chs = [gad(0.3, 0.6), rtn(0.3), IDENTITY] + [
        KrausChannel(random_kraus_ops(np.random.default_rng(seed), 1 + seed % 4), "random") for seed in range(40)
    ]
    for ch in chs:
        x, phi, y, xi = maximize_mu(ch).argmax_params
        assert y == x + np.pi / 2 and xi == phi, ch.label


def test_all_pairs_argmax_is_a_fixed_point_of_the_inner_solve():
    # The objective is symmetric in (a, b), so neither returned input can be improved by solving exactly for the
    # other. The inner value is clipped at 1 as mu is; it rounds above 1 on unitary (one-operator) maps.
    cfg = OptimizerConfig(domain=DOMAIN_ALL_PAIRS)
    for seed in range(240):
        ch = KrausChannel(random_kraus_ops(np.random.default_rng(seed), 1 + seed % 4), "random")
        res = maximize_mu(ch, cfg)
        rows, c = (v.tolist() for v in bloch_map(ch))
        theta_a, phi_a, theta_b, phi_b = res.argmax_params
        for theta, phi in ((theta_a, phi_a), (theta_b, phi_b)):
            value, _ = optimize._sphere_max(optimize._Floats, rows, c, bloch_vectors(theta, phi).tolist())
            assert min(value, 1.0) <= res.mu + 2e-15, seed


def test_tangent_basis_is_orthonormal_and_right_handed():
    # The one tangent basis of _sphere_block and the all-pairs polish: orthonormal, e1 x e2 = n, and the same bits
    # on floats and on arrays. Also at both poles, at components of -0.0 and +0.0, and at nz = -1 + 1e-16, where
    # sign + nz cancels.
    rng = np.random.default_rng(21)
    theta, phi = rng.uniform((1e-3, 0.0), (np.pi - 1e-3, 2 * np.pi), size=(200, 2)).T
    points = bloch_vectors(theta, phi)
    nz = -1.0 + 1e-16
    side = math.sqrt(1.0 - nz * nz)
    special = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (-0.0, -0.0, 1.0), (0.0, -0.0, -1.0), (-0.0, 0.0, -1.0),
               (1.0, -0.0, 0.0), (-1.0, 0.0, -0.0), (-0.0, 1.0, 0.0), (0.6, -0.0, -0.8), (-0.0, 0.8, 0.6),
               (side, 0.0, nz), (-side * math.sqrt(0.5), side * math.sqrt(0.5), nz)]
    points = np.vstack([points, special])
    arrays = optimize._tangents(np, tuple(points.T))
    for k, n in enumerate(points.tolist()):
        e1, e2 = optimize._tangents(optimize._Floats, n)
        assert np.array([e1, e2]).tobytes() == np.array([[e[k] for e in basis] for basis in arrays]).tobytes()
        e1, e2 = np.array(e1), np.array(e2)
        assert max(abs(e1 @ e2), abs(e1 @ n), abs(e2 @ n), abs(e1 @ e1 - 1.0), abs(e2 @ e2 - 1.0)) <= 1e-15, n
        assert np.max(np.abs(np.cross(e1, e2) - n)) <= 1e-15, n
    # _bloch_angles, which turns the polish's vectors into the reported angles, inverts bloch_vectors
    for theta, phi, point in zip(theta, phi, points):
        back_theta, back_phi = optimize._bloch_angles(point.tolist())
        assert abs(back_theta - theta) <= 1e-13
        assert abs(math.remainder(back_phi - phi, 2 * np.pi)) <= 1e-12
