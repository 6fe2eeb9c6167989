import numpy as np
import pytest

from qchan import (
    apply,
    check_outer_inequality,
    closed_form_mu,
    coherence_l1,
    from_bloch,
    gad,
    gdc,
    incompatibility,
    incompatibility_bloch,
    incompatibility_trace_form,
    max_noncommuting_pair,
    maximize_mu,
    rtn,
    visibilities,
)
from qchan.channels import CHANNELS
from conftest import random_unitary, sample_ball


def test_commuting_pair_has_zero_incompatibility():
    assert incompatibility(np.diag([0.7, 0.3]), np.diag([0.1, 0.9])) == 0.0


def test_max_noncommuting_pair_reaches_one():
    for x, phi in [(0.0, 0.0), (1.2, 0.4), (2.9, 4.0)]:
        rho_a, rho_b = max_noncommuting_pair(x, phi)
        assert abs(incompatibility(rho_a, rho_b) - 1.0) < 1e-12


def test_incompatibility_from_cross_product():
    val = incompatibility(from_bloch((0.8, 0, 0)), from_bloch((0, 0.5, 0)))
    assert abs(val - 0.16) < 1e-14


def test_bloch_form_examples():
    assert incompatibility_bloch((1, 0, 0), (0, 1, 0)) == 1.0
    assert incompatibility_bloch((0.5, 0.5, 0), (0.5, 0.5, 0)) == 0.0
    for theta in np.linspace(0, np.pi, 7):
        v = incompatibility_bloch((1, 0, 0), (np.cos(theta), np.sin(theta), 0))
        assert abs(v - np.sin(theta) ** 2) < 1e-14


def test_bloch_form_rejects_long_vectors():
    with pytest.raises(ValueError, match="invalid Bloch vector"):
        incompatibility_bloch((1.2, 0, 0), (0, 1, 0))


def test_trace_form_on_rtn_outputs():
    for lam in (0.0, 0.35, 0.8, 1.0):
        ch = rtn(lam)
        rho_a, rho_b = max_noncommuting_pair(0.0, 0.0)
        val = incompatibility_trace_form(apply(ch, rho_a), apply(ch, rho_b))
        assert abs(val - lam**2) < 1e-13


def test_three_forms_agree_on_random_pairs(rng):
    vs = sample_ball(rng, 2000)
    for va, vb in zip(vs[::2], vs[1::2]):
        rho, sigma = from_bloch(va), from_bloch(vb)
        direct = incompatibility(rho, sigma)
        bloch = incompatibility_bloch(tuple(va), tuple(vb))
        trace = incompatibility_trace_form(rho, sigma)
        assert abs(direct - bloch) < 1e-12
        assert abs(direct - trace) < 1e-12
        assert -1e-15 <= direct <= 1.0 + 1e-12
        assert abs(incompatibility(sigma, rho) - direct) == 0.0


def test_unitary_invariance(rng):
    vs = sample_ball(rng, 40)
    for va, vb in zip(vs[::2], vs[1::2]):
        rho, sigma = from_bloch(va).mat, from_bloch(vb).mat
        u = random_unitary(rng)
        before = incompatibility(rho, sigma)
        after = incompatibility(u @ rho @ u.conj().T, u @ sigma @ u.conj().T)
        assert abs(before - after) < 1e-12


def test_visibilities_rtn_probe():
    for lam in (0.0, 0.5, 1.0):
        rho_a, rho_b = max_noncommuting_pair(0.0, 0.0)
        pair = visibilities(apply(rtn(lam), rho_a), apply(rtn(lam), rho_b))
        assert abs(pair.v1 - (1 + lam**2) / 4) < 1e-14
        assert abs(pair.v2 - 0.25) < 1e-14


def test_visibilities_identical_pure_states():
    rho = from_bloch((0, 0, 1))
    pair = visibilities(rho, rho)
    assert pair.v1 == pytest.approx(1.0, abs=1e-14)
    assert pair.v2 == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize(
    "weights",
    [
        (0.7, 0.1, 0.1, 0.1),
        (0.4, 0.3, 0.2, 0.1),
        (0.1, 0.2, 0.3, 0.4),
        (0.25, 0.25, 0.25, 0.25),
    ],
)
def test_visibilities_gdc_polynomials(weights):
    # At x = phi = 0 the two visibilities reduce to polynomials in the weights.
    p0, p1, p2, p3 = weights
    rho_a, rho_b = max_noncommuting_pair(0.0, 0.0)
    ch = gdc(*weights)
    pair = visibilities(apply(ch, rho_a), apply(ch, rho_b))
    v2_expected = 0.25 - 2 * (-1 + p1 + p2) * (p1 + p2) * (-1 + p2 + p3) * (p2 + p3)
    v1_expected = 0.5 * (1 + 2 * p1**2 + 2 * (-1 + p2) * p2 + p1 * (-2 + 4 * p2)) * (
        1 + 2 * p2**2 + 2 * (-1 + p3) * p3 + p2 * (-2 + 4 * p3)
    )
    assert abs(pair.v1 - v1_expected) < 1e-13
    assert abs(pair.v2 - v2_expected) < 1e-13


def test_visibility_identity_matches_direct_measure(rng):
    vs = sample_ball(rng, 400)
    for va, vb in zip(vs[::2], vs[1::2]):
        rho, sigma = from_bloch(va), from_bloch(vb)
        pair = visibilities(rho, sigma)
        assert abs(4 * (pair.v1 - pair.v2) - incompatibility(rho, sigma)) < 1e-12


def test_trace_residue_guard():
    bad = np.array([[0.5, 1.0], [0.0, 0.5]])  # not Hermitian
    with pytest.raises(RuntimeError, match="internal consistency"):
        incompatibility_trace_form(bad, np.array([[0.4, 0.5j], [0.1, 0.6]]))


def test_coherence_l1():
    assert coherence_l1(np.diag([0.4, 0.6])) == 0.0
    assert abs(coherence_l1(from_bloch((1, 0, 0))) - 1.0) < 1e-14
    for lam in (0.2, 0.9):
        out = apply(rtn(lam), from_bloch((1, 0, 0)))
        assert abs(coherence_l1(out) - lam) < 1e-14


def test_outer_inequality_examples():
    res = check_outer_inequality(np.diag([0.7, 0.3]), np.diag([0.2, 0.8]))
    assert res.holds and res.slack == 0.0

    rho_t = apply(rtn(0.8), from_bloch((1, 0, 0)))
    res = check_outer_inequality(np.diag([0.7, 0.3]), rho_t)
    assert res.holds and res.slack > 0.0


def test_outer_inequality_requires_diagonal_initial_state():
    with pytest.raises(ValueError, match="hypothesis violation"):
        check_outer_inequality(from_bloch((1, 0, 0)), np.diag([0.5, 0.5]))


def test_closed_form_values():
    assert closed_form_mu("rtn", {"lambda": 0.5}) == 0.25
    assert closed_form_mu("nmd", {"omega": 0.3}) == pytest.approx(0.09)
    assert closed_form_mu("pd", {"gamma": 0.25}) == 0.75
    assert closed_form_mu("ad", {"gamma": 0.25}) == 0.75
    assert closed_form_mu("unruh", {"r": np.pi / 6}) == pytest.approx(0.75, abs=1e-12)
    val = closed_form_mu("gdc", {"p0": 0.7, "p1": 0.1, "p2": 0.1, "p3": 0.1})
    assert val == pytest.approx(0.1296, abs=1e-12)


def test_closed_form_gad_is_none():
    assert CHANNELS["gad"].closed_form is None
    with pytest.raises(ValueError, match="no closed form"):
        closed_form_mu("gad", {"alpha": 0.5, "xi": 0.6})
    assert maximize_mu(gad(0.5, 0.6)).closed_form is None


@pytest.mark.parametrize("xi", [0.3, 0.6, 0.9])
def test_quoted_gad_expressions_are_fixed_pair_values(xi):
    # Two commonly quoted gad "closed forms" are the probe objective at one
    # fixed pair of gad(1, xi), not its probe maximum (which is xi there).
    ch = gad(1.0, xi)

    def objective(x, phi=0.0):
        rho_a, rho_b = max_noncommuting_pair(x, phi)
        return incompatibility(apply(ch, rho_a), apply(ch, rho_b))

    # xi (2 xi - 1)^2 is the objective on the x = pi/2 edge of the probe window
    assert objective(np.pi / 2) == pytest.approx(xi * (2 * xi - 1) ** 2, abs=1e-12)
    # xi (xi + sqrt(2)(1 - xi))^2 is the maximum over the full circle of x, at
    # x = 7 pi/4 outside the window; the objective does not depend on phi
    full_circle = xi * (xi + np.sqrt(2) * (1 - xi)) ** 2
    assert objective(7 * np.pi / 4, 2.3) == pytest.approx(full_circle, abs=1e-12)
    assert max(objective(x) for x in np.linspace(0.0, 2 * np.pi, 500)) <= full_circle + 1e-12
    assert maximize_mu(ch).mu == pytest.approx(xi, abs=1e-12)


def test_closed_form_errors():
    with pytest.raises(ValueError, match="unknown channel"):
        closed_form_mu("bitflip", {"p": 0.1})
    with pytest.raises(ValueError, match="missing parameter"):
        closed_form_mu("gdc", {"p0": 1.0})


@pytest.mark.parametrize("bad, message", [((1.0, 0.0), "must have three real components"), ((1.0, 1e-5, 0.0), "norm 1.0000000000")])
def test_bloch_inputs_share_one_check(bad, message):
    for check in (from_bloch, lambda v: incompatibility_bloch(v, (0, 0, 1)), lambda v: incompatibility_bloch((0, 0, 1), v)):
        with pytest.raises(ValueError, match=message):
            check(bad)
