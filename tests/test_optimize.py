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
    # n = 13 gives 169 states: the default block size covers them in two blocks, the second one partial.
    for n in (6, 13):
        reference = _explicit_oracle(ch, n, domain)
        for block in (1, 7, optimize.ORACLE_BLOCK):
            monkeypatch.setattr(optimize, "ORACLE_BLOCK", block)
            assert abs(brute_force_mu(ch, n, domain) - reference) <= 1e-13, (n, block)


def _complex_row_oracle(ch, n, domain):
    """The oracle as complex rows L(rho) = [vec(rho^2), vec(rho (x) rho)] and R(sigma), 40 reals wide.

    ``L(rho) . R(sigma)`` is the bracket ``Tr[rho^2 sigma^2] - Tr[(rho sigma)^2]``, summed over
    every index of both traces instead of through a basis of Hermitian matrices.
    """
    polars, phis = optimize._axes(optimize._domain(domain).polar_max, n)
    grid_x, grid_p = np.meshgrid(polars, phis, indexing="ij")
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

    if domain == DOMAIN_PROBE:
        a, b = optimize._pair_bloch_vectors(grid_x.ravel(), grid_p.ravel())
        return 4.0 * float(np.max(np.einsum("ni,ni->n", left(outputs(a)), right(outputs(b)))))
    rho = outputs(optimize._single_bloch(grid_x.ravel(), grid_p.ravel()))
    return 4.0 * float(np.max(left(rho) @ right(rho).T))


def _benchmark_random_maps(seed):
    """The five random 3-Kraus maps of the all-pairs benchmark workload for ``seed`` (the same recipe)."""
    rng = np.random.default_rng(seed)
    return [KrausChannel(random_kraus_ops(rng, 3), "random") for _ in range(5)]


@pytest.mark.parametrize("n", [24, 48])
@pytest.mark.parametrize("domain", [DOMAIN_PROBE, DOMAIN_ALL_PAIRS])
def test_brute_force_matches_complex_row_oracle(domain, n):
    # The 16-wide real quadratic form and the 40-wide complex rows differ by rounding only.
    for ch in _ORACLE_CHANNELS + _benchmark_random_maps(1):
        assert abs(brute_force_mu(ch, n, domain) - _complex_row_oracle(ch, n, domain)) <= 1e-14, ch.label


def test_brute_force_never_uses_the_bloch_map(monkeypatch):
    def forbidden(ch):
        raise AssertionError("brute_force_mu must not use the affine Bloch route")

    monkeypatch.setattr(optimize, "bloch_map", forbidden)
    monkeypatch.setattr(channels, "bloch_map", forbidden)
    for domain in (DOMAIN_PROBE, DOMAIN_ALL_PAIRS):
        assert brute_force_mu(ad(0.25), 8, domain) > 0.5


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
    """The cofactor and K columns that optimize._probe_terms takes."""
    return (*optimize._cofactor(a_mat)[:2], *np.cross(a_mat.T, c_vec).tolist())


def _direct_probe_objective(a_mat, c_vec, x, phi):
    a, b = optimize._pair_bloch_vectors(x, phi)
    return np.sum(np.cross(a @ a_mat.T + c_vec, b @ a_mat.T + c_vec) ** 2, axis=-1)


def test_probe_objective_constant_for_dephasing_channels():
    xs = np.linspace(0, np.pi / 2, 40)
    phis = np.linspace(0, 2 * np.pi, 40, endpoint=False)
    gx, gp = np.meshgrid(xs, phis, indexing="ij")
    for ch in (rtn(0.7), nmd(0.45), pd(0.2)):
        a, c = bloch_map(ch)
        vals = optimize._probe_terms(_probe_cols(a, c), gx, gp)[0]
        assert np.max(np.abs(vals - _direct_probe_objective(a, c, gx, gp))) <= 1e-14
        assert np.std(vals) <= 1e-10


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
    assert res.mu > res.closed_form + 0.1
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


def test_optimizer_rejects_non_qubit_channels():
    ch3 = KrausChannel((np.eye(3),), "identity3")
    with pytest.raises(ValueError, match="unsupported dimension"):
        maximize_mu(ch3)
    with pytest.raises(ValueError, match="unsupported dimension"):
        brute_force_mu(ch3, 8)


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
    a, b = optimize._pair_bloch_vectors(gx, gp)
    n = np.stack([np.sin(gp), np.cos(gp), np.zeros_like(gp)], axis=-1)
    cofactor_form = np.sum((n @ cof.T + np.cross((a - b) @ a_mat.T, c_vec)) ** 2, axis=-1)
    direct = _direct_probe_objective(a_mat, c_vec, gx, gp)
    assert np.max(np.abs(direct - cofactor_form)) <= 1e-14

    # The one probe objective on a grid, and pointwise with its gradient and
    # Hessian (central differences) as the Newton polish calls it.
    cols = _probe_cols(a_mat, c_vec)
    assert np.max(np.abs(optimize._probe_terms(cols, gx, gp)[0] - direct)) <= 1e-14
    h = 1e-5
    for x, phi, expected in zip(gx.ravel(), gp.ravel(), direct.ravel()):
        f, (f_x, f_p), (f_xx, f_xp, f_pp) = optimize._probe_terms(cols, x, phi)
        assert abs(f - expected) <= 1e-14
        terms = {d: optimize._probe_terms(cols, x + d[0], phi + d[1]) for d in ((h, 0), (-h, 0), (0, h), (0, -h))}
        assert abs(f_x - (terms[h, 0][0] - terms[-h, 0][0]) / (2 * h)) <= 1e-8
        assert abs(f_p - (terms[0, h][0] - terms[0, -h][0]) / (2 * h)) <= 1e-8
        assert abs(f_xx - (terms[h, 0][1][0] - terms[-h, 0][1][0]) / (2 * h)) <= 1e-8
        assert abs(f_pp - (terms[0, h][1][1] - terms[0, -h][1][1]) / (2 * h)) <= 1e-8
        assert abs(f_xp - (terms[0, h][1][0] - terms[0, -h][1][0]) / (2 * h)) <= 1e-8


def _numpy_cofactor(a_mat):
    """Reference cofactor from numpy rolls and cross products: column j is A e_{j+1} x A e_{j+2}."""
    return np.cross(np.roll(a_mat.T, -1, axis=0), np.roll(a_mat.T, -2, axis=0)).T


def test_cofactor_maps_input_cross_products_to_output_ones():
    rng = np.random.default_rng(3)
    singular = [np.outer(rng.normal(size=3), rng.normal(size=3)), np.zeros((3, 3)), bloch_map(rtn(0.0))[0]]
    u, v = rng.normal(size=(2, 20, 3))
    for a_mat in [rng.normal(size=(3, 3)) for _ in range(20)] + singular:
        cof = np.array(optimize._cofactor(a_mat)).T
        assert np.max(np.abs(np.cross(u @ a_mat.T, v @ a_mat.T) - np.cross(u, v) @ cof.T)) <= 1e-14
        assert np.max(np.abs(cof - _numpy_cofactor(a_mat))) <= 1e-15


def _pauli_mixture(seed):
    # Pauli weights between two random unitaries: a unital map with a generic Bloch matrix.
    rng = np.random.default_rng(seed)
    u, v = random_unitary(rng), random_unitary(rng)
    return KrausChannel(tuple(u @ k @ v for k in gdc(*rng.dirichlet(np.ones(4))).ops), "pauli-mixture")


def _eigh_probe_solve(a_mat):
    """mu and phi of the top eigenvector of the upper-left 2x2 block of cof(A)^T cof(A), by np.linalg.eigh."""
    cof = np.array(optimize._cofactor(a_mat)).T
    w, vecs = np.linalg.eigh((cof.T @ cof)[:2, :2])
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
    cof = np.array(optimize._cofactor(a_mat)).T
    block = (cof.T @ cof)[:2, :2]
    assert block[0, 0] > block[1, 1] and 1e-21 < abs(block[0, 1]) < 1e-19
    (x, phi), value, evaluations, converged = optimize._probe_solve(a_mat, np.zeros(3), 24)
    mu, phi_eigh = _eigh_probe_solve(a_mat)
    assert abs(value - mu) <= 1e-15 and abs(np.sin(phi - phi_eigh)) <= 1e-12
    assert abs(phi - np.pi / 2) <= 1e-12 and (x, evaluations, converged) == (0.0, 1, True)


@pytest.mark.parametrize("n_ops", [3, 4])
def test_probe_grid_values_match_probe_terms(n_ops):
    xs, phis = optimize._axes(np.pi / 2, 24)
    for seed in range(10):
        a_mat, c_vec = bloch_map(KrausChannel(random_kraus_ops(np.random.default_rng(seed), n_ops), "random"))
        cols = _probe_cols(a_mat, c_vec)
        values = optimize._probe_values(cols, xs, phis)
        assert values.shape == (24, 24)
        assert np.max(np.abs(values - optimize._probe_terms(cols, xs[:, None], phis)[0])) <= 1e-15


def test_probe_solve_avoids_small_array_numpy(monkeypatch):
    # Construction, bloch_map and the probe solve call none of these; the probe solve runs on
    # plain floats and only the non-unital grid is an array computation.
    expected = [maximize_mu(ch).mu for ch in (rtn(0.3), ad(0.25))]

    def forbidden(*args, **kwargs):
        raise AssertionError("the probe solve called a small-array numpy routine")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(np, "cross", forbidden)
    monkeypatch.setattr(np, "einsum", forbidden)
    assert [maximize_mu(ch).mu for ch in (rtn(0.3), ad(0.25))] == expected


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
    # numpy rounds products of strided operands differently; the solve must depend on the values of (A, c) only.
    for seed in range(20):
        a_mat, c_vec = bloch_map(KrausChannel(random_kraus_ops(np.random.default_rng(seed), 3), "random"))
        a_buf, c_buf = np.zeros((3, 6)), np.zeros(6)
        a_buf[:, ::2], c_buf[::2] = a_mat, c_vec
        contiguous = optimize._pairs_solve(np.ascontiguousarray(a_mat), np.ascontiguousarray(c_vec), 8)
        assert optimize._pairs_solve(a_buf[:, ::2], c_buf[::2], 8) == contiguous
        assert optimize._pairs_solve(np.asfortranarray(a_mat), c_vec, 8) == contiguous


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
    v = optimize._single_bloch(tb.ravel(), pb.ravel()) @ a_mat.T + c_vec
    vv = np.sum(v * v, axis=1)
    best = []
    for start in range(0, len(a_vecs), 32):
        u = a_vecs[start : start + 32] @ a_mat.T + c_vec
        best.append(np.max(np.sum(u * u, axis=1)[:, None] * vv - (u @ v.T) ** 2, axis=1))
    return np.concatenate(best)


def _check_attained(a_mat, c_vec, a_vecs, values, bs):
    assert np.all(np.isfinite(bs)) and np.max(np.abs(np.linalg.norm(bs, axis=1) - 1.0)) <= 1e-15
    direct = np.sum(np.cross(a_vecs @ a_mat.T + c_vec, bs @ a_mat.T + c_vec) ** 2, axis=1)
    assert np.max(np.abs(values - direct)) <= 1e-15


def test_sphere_max_on_the_gad_grid_against_references():
    # An eigh of the 3x3 H divides a rounding-level top component of g by a rounding-level gap on this grid
    # and falls up to 2.5e-3 short of the maximum (grid index 340: 0.104816 against 0.107361).
    a_mat, c_vec = bloch_map(gad(0.3, 0.2))
    grid_t, grid_p = np.meshgrid(*optimize._axes(np.pi, 24), indexing="ij")
    a_vecs = optimize._single_bloch(grid_t.ravel(), grid_p.ravel())
    values, bs = optimize._sphere_max(a_mat, c_vec, a_vecs)
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
    values, bs = optimize._sphere_max(a_mat, c_vec, a_vecs)
    _check_attained(a_mat, c_vec, a_vecs, values, bs)
    assert np.max(np.abs(values - _eigh_sphere_max(a_mat, c_vec, a_vecs))) <= 1e-14
    assert np.all(values >= _dense_sphere_max(a_mat, c_vec, a_vecs, 40) - 1e-15)


def _plain_float_route(a_mat, c_vec, a_vecs):
    """:func:`optimize._sphere_max`'s (values, bs), from one plain-float solve per first input."""
    solved = [optimize._sphere_max_one(a_mat.tolist(), c_vec.tolist(), a) for a in a_vecs.tolist()]
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
        assert np.max(np.abs(values - optimize._sphere_max(a_mat, c_vec, a_vecs)[0])) <= 1e-15


def test_sphere_max_on_degenerate_maps():
    # both routes: the batched solve of the grid and the plain-float solve of a polish trial
    rng = np.random.default_rng(5)
    a_vecs = sample_ball(rng, 50)
    a_vecs /= np.linalg.norm(a_vecs, axis=1, keepdims=True)
    x, y = rng.normal(size=(2, 3))
    x, y = x / np.linalg.norm(x), y / np.linalg.norm(y)
    orthogonal = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    for route in (optimize._sphere_max, _plain_float_route):
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


def test_all_pairs_solve_batches_only_the_grid(monkeypatch):
    # The grid is one batched _sphere_max call; every polish trial, axial or tangent-plane, is a plain-float solve.
    batched, sizes = optimize._sphere_max, []

    def counting(a_mat, c_vec, a_vecs):
        sizes.append(len(a_vecs))
        return batched(a_mat, c_vec, a_vecs)

    monkeypatch.setattr(optimize, "_sphere_max", counting)
    cfg = OptimizerConfig(domain=DOMAIN_ALL_PAIRS)
    for ch, grid in [(gad(0.3, 0.2), 24), (KrausChannel(random_kraus_ops(np.random.default_rng(4), 3), "random"), 576)]:
        sizes.clear()
        assert maximize_mu(ch, cfg).evaluations > grid and sizes == [grid]


def test_all_pairs_solve_avoids_eigh(monkeypatch):
    chs = [gad(0.3, 0.2), KrausChannel(random_kraus_ops(np.random.default_rng(4), 3), "random")]
    cfg = OptimizerConfig(domain=DOMAIN_ALL_PAIRS)
    expected = [maximize_mu(ch, cfg).mu for ch in chs]

    def forbidden(*args, **kwargs):
        raise AssertionError("the all-pairs solve called np.linalg.eigh")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    assert [maximize_mu(ch, cfg).mu for ch in chs] == expected


def _envelope(a_mat, c_vec, theta, phi, direction, h):
    """F at the point h along the great circle from (theta, phi) in the tangent direction (s_theta, s_phi)."""
    a, t_theta, t_phi = (np.array(v) for v in optimize._frame(theta, phi))
    t = direction[0] * t_theta + direction[1] * t_phi
    return optimize._sphere_max(a_mat, c_vec, (np.cos(h) * a + np.sin(h) * t)[None])[0][0]


@pytest.mark.parametrize("seed", range(4))
def test_envelope_terms_match_differences(seed):
    rng = np.random.default_rng(seed)
    a_mat, c_vec = bloch_map(KrausChannel(random_kraus_ops(rng, 3), "random"))
    for theta, phi in rng.uniform((0.3, 0.0), (2.8, 2 * np.pi), size=(3, 2)):
        b = optimize._sphere_max(a_mat, c_vec, optimize._single_bloch(theta, phi)[None])[1][0]
        grad, (h_00, h_01, h_11) = optimize._envelope_terms(a_mat.tolist(), c_vec.tolist(), theta, phi, b.tolist())
        hess = np.array([[h_00, h_01], [h_01, h_11]])
        h = 1e-4
        for direction in ((1.0, 0.0), (0.0, 1.0), (np.sqrt(0.5), np.sqrt(0.5))):
            f = [_envelope(a_mat, c_vec, theta, phi, direction, s * h) for s in (-1, 0, 1)]
            assert abs((f[2] - f[0]) / (2 * h) - np.dot(grad, direction)) <= 1e-7
            assert abs((f[2] - 2 * f[1] + f[0]) / h**2 - np.dot(direction, hess @ direction)) <= 1e-5


@pytest.mark.parametrize("gamma", [1e-7, 1e-9])
def test_all_pairs_polish_on_near_identity_maps(gamma):
    # The envelope's curvature is of order gamma here; the polish still reaches the top of a dense polar scan.
    ch = ad(gamma)
    a_mat, c_vec = bloch_map(ch)
    theta = np.linspace(0.0, np.pi, 20001)
    scan = optimize._sphere_max(a_mat, c_vec, optimize._single_bloch(theta, np.zeros_like(theta)))[0]
    res = maximize_mu(ch, OptimizerConfig(domain=DOMAIN_ALL_PAIRS))
    assert res.converged and res.mu >= np.max(scan) - 1e-15
