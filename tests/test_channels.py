import decimal
import inspect
import math
import re
import warnings

import numpy as np
import pytest

from qchan import (
    DensityMatrix,
    KrausChannel,
    ad,
    apply,
    bloch_map,
    builtin_kernel,
    commutator,
    from_bloch,
    gad,
    gdc,
    hs_norm_sq,
    nmd,
    nmd_kernel,
    pd,
    rtn,
    rtn_kernel,
    unruh,
    unruh_r_from_acceleration,
)
from qchan import channels as channel_module
from qchan.channels import CHANNELS, KERNELS, _transfer_matrices, make_channels
from qchan.linalg import PAULIS
from conftest import not_qubit_matrix, random_kraus_ops, sample_ball

ALL_CONSTRUCTORS = {
    "rtn": lambda: rtn(0.5),
    "nmd": lambda: nmd(0.3),
    "pd": lambda: pd(0.25),
    "ad": lambda: ad(0.25),
    "gad": lambda: gad(0.3, 0.6),
    "unruh": lambda: unruh(np.pi / 6),
    "gdc": lambda: gdc(0.7, 0.1, 0.1, 0.1),
}


def completeness_deviation(ch):
    total = sum(k.conj().T @ k for k in ch.ops)
    return float(np.max(np.abs(total - np.eye(2))))


def test_rtn_scales_off_diagonals():
    lam = 0.37
    p, x = 0.3, 0.21 - 0.11j
    rho = np.array([[1 - p, x], [np.conj(x), p]])
    out = apply(rtn(lam), rho).mat
    expected = np.array([[1 - p, x * lam], [np.conj(x) * lam, p]])
    np.testing.assert_allclose(out, expected, atol=1e-14)


def test_ad_action_matches_matrix_form():
    g = 0.4
    p, q = 0.35, 0.2 + 0.15j
    rho = np.array([[1 - p, q], [np.conj(q), p]])
    out = apply(ad(g), rho).mat
    expected = np.array(
        [
            [1 - p * (1 - g), q * np.sqrt(1 - g)],
            [np.conj(q) * np.sqrt(1 - g), p * (1 - g)],
        ]
    )
    np.testing.assert_allclose(out, expected, atol=1e-14)


def test_identity_channel_is_identity(rng):
    ident = KrausChannel((np.eye(2),), "identity")
    for v in sample_ball(rng, 20):
        rho = from_bloch(v)
        np.testing.assert_allclose(apply(ident, rho).mat, rho.mat, atol=1e-15)


def test_rtn_limits():
    assert np.allclose(rtn(1.0).ops[1], 0)
    out = apply(rtn(0.0), from_bloch((1, 0, 0))).mat
    assert abs(out[0, 1]) < 1e-15


def test_pd_limits():
    rho = from_bloch((1, 0, 0))
    np.testing.assert_allclose(apply(pd(0.0), rho).mat, rho.mat, atol=1e-15)
    assert abs(apply(pd(1.0), rho).mat[0, 1]) < 1e-15


def test_ad_full_decay(rng):
    for v in sample_ball(rng, 20):
        out = apply(ad(1.0), from_bloch(v)).mat
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-14)


def test_gad_xi_one_is_identity(rng):
    for alpha in (0.0, 0.3, 1.0):
        ch = gad(alpha, 1.0)
        for v in sample_ball(rng, 5):
            rho = from_bloch(v)
            np.testing.assert_allclose(apply(ch, rho).mat, rho.mat, atol=1e-14)


def test_gad_alpha_one_reduces_to_ad():
    xi = 0.35
    g_ops = gad(1.0, xi).ops
    a_ops = ad(1.0 - xi).ops
    np.testing.assert_allclose(g_ops[0], a_ops[0], atol=1e-15)
    np.testing.assert_allclose(g_ops[1], a_ops[1], atol=1e-15)
    assert np.allclose(g_ops[2], 0) and np.allclose(g_ops[3], 0)


def test_unruh_operators():
    r = np.pi / 6
    ch = unruh(r)
    np.testing.assert_allclose(ch.ops[0], np.diag([np.cos(r), 1.0]), atol=1e-15)
    assert ch.ops[1][1, 0] == pytest.approx(np.sin(r))
    assert completeness_deviation(ch) < 1e-15


def test_unruh_acceleration_mapping():
    from qchan import unruh_r_from_acceleration

    for x in (0.0, 0.5, 2.0, 10.0):
        r = unruh_r_from_acceleration(x)
        assert 0.0 <= r <= np.pi / 4 + 1e-12
        assert np.cos(r) == pytest.approx((1 + np.exp(-x)) ** -0.5, abs=1e-15)
    # vanishing acceleration: the channel becomes noiseless
    assert unruh_r_from_acceleration(50.0) == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(ValueError):
        unruh_r_from_acceleration(-1.0)


def test_gdc_uniform_weights_depolarize():
    ch = gdc(0.25, 0.25, 0.25, 0.25)
    out = apply(ch, from_bloch((0.4, 0.3, -0.5))).mat
    np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-14)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: rtn(1.2), "kernel value"),
        (lambda: nmd(-1.1), "kernel value"),
        (lambda: pd(1.5), "gamma"),
        (lambda: ad(-0.1), "gamma"),
        (lambda: gad(1.2, 0.5), "alpha"),
        (lambda: gad(0.5, -0.2), "xi"),
        (lambda: unruh(1.0), "r must"),
        (lambda: gdc(0.5, 0.6, 0.0, -0.1), "negative weight"),
        (lambda: gdc(0.5, 0.2, 0.2, 0.2), "sum to 1"),
        # NaN fails every range check instead of being clamped or passed on
        (lambda: rtn(np.nan), "kernel value"),
        (lambda: nmd(np.nan), "kernel value"),
        (lambda: rtn(np.inf), "kernel value"),
        (lambda: pd(np.nan), "gamma"),
        (lambda: gad(np.nan, 0.5), "alpha must"),
        (lambda: gdc(np.nan, 0.0, 0.0, 0.0), "must sum to 1"),
        (lambda: unruh_r_from_acceleration(np.nan), "exponent"),
        (lambda: rtn_kernel(np.nan, 1.0, 2.0), "t must"),
        (lambda: rtn_kernel(np.inf, 1.0, 2.0), "t must"),
        (lambda: rtn_kernel(0.5, np.nan, 2.0), "gamma and b"),
        (lambda: rtn_kernel(0.5, 1.0, np.inf), "gamma and b"),
        # finite rates whose squares overflow: no clamped -1 or 1 in place of the kernel value
        (lambda: rtn_kernel(0.0, 1e200, 1.0), "too large"),
        (lambda: rtn_kernel(1.0, 1e200, 1.0), "too large"),
        (lambda: rtn_kernel(1.0, 1.0, 1e200), "too large"),
        (lambda: builtin_kernel("rtn-damped", {"gamma": 1.0, "b": 1e200}), "too large"),
        (lambda: builtin_kernel("rtn-damped", {"gamma": np.nan, "b": 2.0}), "gamma and b"),
    ],
)
def test_constructor_rejects_bad_parameters(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_kraus_channel_rejects_incomplete_sets():
    with pytest.raises(ValueError, match="completeness"):
        KrausChannel((np.diag([1.0, 1.0]), np.diag([1.0, 0.0])), "broken")
    with pytest.raises(ValueError, match="at least one"):
        KrausChannel((), "empty")


@pytest.mark.parametrize(
    "ops, message",
    [
        ((np.ones((2, 3)),), not_qubit_matrix((2, 3))),
        ((np.eye(2), np.eye(3)), not_qubit_matrix((3, 3))),
        ((np.eye(3),), not_qubit_matrix((3, 3))),
        ((np.ones((1, 1)),), not_qubit_matrix((1, 1))),
        ((np.diag([np.nan, 1.0]),), "must be finite"),
        ((np.diag([1.0, np.inf]),), "must be finite"),
    ],
    ids=["non-square", "mismatched", "qutrit", "1x1", "nan", "inf"],
)
def test_kraus_channel_rejects_malformed_operators(ops, message):
    with pytest.raises(ValueError, match=message):
        KrausChannel(ops, "malformed")


@pytest.mark.filterwarnings("error")
def test_kraus_channel_rejects_overflowing_entries_without_warnings():
    # Completeness bounds every |K_ab| by 1, so entries whose products overflow are rejected before any contraction.
    for scale in (1e200, 1e200j, 1.0 + 1e-6):
        with pytest.raises(ValueError, match="completeness violated"):
            KrausChannel((scale * np.eye(2),), "x")


def test_kraus_channel_ops_are_read_only_complex_copies():
    for op in (np.eye(2), np.eye(2, dtype=complex)):
        ch = KrausChannel((op,), "identity")
        op[0, 0] = 5.0
        assert ch.ops[0][0, 0] == 1.0 and ch.ops[0].dtype == np.complex128
        with pytest.raises(ValueError, match="read-only"):
            ch.ops[0][0, 0] = 1
    assert all(k.dtype == np.complex128 for k in gdc(0.4, 0.3, 0.2, 0.1).ops)


def _first_row_deviation(ops):
    """max |sum K^dag K - I| read off the reference transfer matrix's first row.

    sum K^dag K = T00 I + T01 X + T02 Y + T03 Z, so its diagonal deviates from I by T00 - 1 +- T03 and its
    off-diagonal entries have modulus hypot(T01, T02).
    """
    basis = np.stack((np.eye(2),) + PAULIS)
    t0 = 0.5 * np.einsum("kba,kbc,jca->j", np.conj(ops), np.stack(ops), basis).real
    return max(abs(t0[0] - 1.0 + t0[3]), abs(t0[0] - 1.0 - t0[3]), np.hypot(t0[1], t0[2]))


def test_completeness_is_read_off_the_transfer_matrix():
    rng = np.random.default_rng(11)
    decisions = set()
    for i in range(400):
        ops = list(random_kraus_ops(rng, 1 + i % 4))
        if i % 5:  # perturb one operator by about 1e-12 to 1e-8, on both sides of the 1e-10 tolerance
            eps = 10.0 ** rng.uniform(-12.0, -8.0)
            ops[0] = ops[0] + eps * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        total = sum(k.conj().T @ k for k in ops)
        reference = float(np.max(np.abs(total - np.eye(2))))
        assert abs(_first_row_deviation(ops) - reference) <= 1e-15
        try:
            ch = KrausChannel(tuple(ops), "random")
        except ValueError as exc:
            decisions.add("reject")
            assert reference > 1e-10, str(exc)
            reported = float(str(exc).rsplit("= ", 1)[1])
            assert reported == pytest.approx(reference, rel=2e-3)
        else:
            decisions.add("accept")
            assert reference <= 1e-10 and abs(completeness_deviation(ch) - reference) <= 1e-15
    assert decisions == {"accept", "reject"}


def test_channels_compare_and_hash_by_identity():
    first, second = rtn(0.3), rtn(0.3)
    assert (first == first) is True and (first == second) is False
    assert {first: "first", second: "second"}[first] == "first"


def test_completeness_across_parameter_grids():
    worst = 0.0
    grid = np.linspace(0, 1, 51)
    for v in np.linspace(-1, 1, 51):
        worst = max(worst, completeness_deviation(rtn(v)), completeness_deviation(nmd(v)))
    for g in grid:
        worst = max(worst, completeness_deviation(pd(g)), completeness_deviation(ad(g)))
    for r in np.linspace(0, np.pi / 4, 51):
        worst = max(worst, completeness_deviation(unruh(r)))
    for a in grid:
        for x in grid[::5]:
            worst = max(worst, completeness_deviation(gad(a, x)))
    rng = np.random.default_rng(7)
    for _ in range(60):
        w = rng.exponential(size=4)
        w /= w.sum()
        worst = max(worst, completeness_deviation(gdc(*w)))
    assert worst < 1e-10


def test_apply_outputs_are_valid_states(rng):
    # DensityMatrix construction re-validates Hermiticity, trace and positivity.
    vs = sample_ball(rng, 200)
    for name, build in ALL_CONSTRUCTORS.items():
        ch = build()
        for v in vs:
            out = apply(ch, from_bloch(v))
            assert out.mat.shape == (2, 2), name


def test_unital_and_nonunital_channels():
    mixed = np.eye(2) / 2
    for ch in (rtn(0.4), nmd(-0.2), pd(0.7), gdc(0.4, 0.3, 0.2, 0.1)):
        np.testing.assert_allclose(apply(ch, mixed).mat, mixed, atol=1e-12)
    for ch in (ad(0.5), gad(0.8, 0.4), unruh(np.pi / 5 / 2)):
        assert np.max(np.abs(apply(ch, mixed).mat - mixed)) > 1e-3


def test_dephasing_channels_preserve_diagonal_commutativity():
    rho = np.diag([0.7, 0.3])
    sigma = np.diag([0.2, 0.8])
    for ch in (rtn(0.6), nmd(0.1), pd(0.3), gdc(0.5, 0.2, 0.2, 0.1)):
        out_a = apply(ch, rho)
        out_b = apply(ch, sigma)
        assert hs_norm_sq(commutator(out_a, out_b)) <= 1e-20


def test_apply_dimension_mismatch():
    # a qutrit state is no DensityMatrix, so no channel meets one
    with pytest.raises(ValueError, match=not_qubit_matrix((3, 3))):
        apply(pd(0.2), np.eye(3) / 3)


def test_bloch_map_matches_apply(rng):
    from qchan import to_bloch

    for build in ALL_CONSTRUCTORS.values():
        ch = build()
        a, c = bloch_map(ch)
        for v in sample_ball(rng, 30):
            direct = np.array(tuple(to_bloch(apply(ch, from_bloch(v)))))
            np.testing.assert_allclose(a @ v + c, direct, atol=1e-12)


def _einsum_bloch_map(ch):
    """Reference Bloch map from one 4-operand einsum: m[i, j] = Tr(s_i Phi(s_j))/2 over s = (I, X, Y, Z)."""
    basis = np.stack((np.eye(2),) + PAULIS)
    m = 0.5 * np.einsum("iab,kbc,jcd,kad->ij", basis, np.stack(ch.ops), basis, np.conj(ch.ops)).real
    return m[1:, 1:], m[1:, 0]


def test_bloch_map_matches_einsum_reference():
    rng = np.random.default_rng(17)
    channels = [KrausChannel(random_kraus_ops(rng, 1 + i % 4), "random") for i in range(50)]
    channels += [build() for build in ALL_CONSTRUCTORS.values()]
    channels += [rtn(0.0), rtn(-1.0), nmd(0.0), pd(1.0), ad(1.0), gad(0.0, 0.0), unruh(np.pi / 4), gdc(0, 0, 0, 1)]
    for ch in channels:
        (a, c), (a_ref, c_ref) = bloch_map(ch), _einsum_bloch_map(ch)
        assert np.max(np.abs(a - a_ref)) <= 1e-15 and np.max(np.abs(c - c_ref)) <= 1e-15, ch.label


def test_bloch_map_is_a_read():
    channels = [build() for build in ALL_CONSTRUCTORS.values()]
    for ch in channels + [KrausChannel(random_kraus_ops(np.random.default_rng(2), 3), "random")]:
        a, c = bloch_map(ch)
        again = bloch_map(ch)
        assert again[0] is a and again[1] is c
        for arr in (a, c):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        a_ref, c_ref = _einsum_bloch_map(ch)
        assert np.max(np.abs(a - a_ref)) <= 1e-15 and np.max(np.abs(c - c_ref)) <= 1e-15, ch.label


def test_bloch_map_keeps_exact_zeros():
    # rtn(0) keeps only z: eight exact zeros; A_zz = 2 (sqrt(1/2))^2 is one ulp above 1.
    a_zero = bloch_map(rtn(0.0))[0]
    assert np.array_equal(a_zero[:, :2], np.zeros((3, 2))) and np.array_equal(a_zero[:2, 2], [0.0, 0.0])
    assert abs(a_zero[2, 2] - 1.0) <= np.spacing(1.0)
    rng = np.random.default_rng(5)
    values = np.linspace(-1.0, 1.0, 21)
    gdcs = [gdc(*rng.dirichlet(np.ones(4))) for _ in range(20)]
    for ch in [rtn(v) for v in values] + [nmd(v) for v in values] + gdcs:
        a, c = bloch_map(ch)
        assert np.all(c == 0.0) and np.all(a[~np.eye(3, dtype=bool)] == 0.0), (ch.label, ch.params)


# -- batches ----------------------------------------------------------------

BATCH_POINTS = {
    "rtn": lambda v: {"lambda": 2.0 * v - 1.0},
    "nmd": lambda v: {"omega": 1.0 - 2.0 * v},
    "pd": lambda v: {"gamma": v},
    "ad": lambda v: {"gamma": v},
    "gad": lambda v: {"alpha": 1.0 - v, "xi": v * v},
    "unruh": lambda v: {"r": v * np.pi / 4.0},
    "gdc": lambda v: {"p0": 1.0 - v, "p1": 0.5 * v, "p2": 0.3 * v, "p3": 0.2 * v},
}


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _plain_dephasing(name, v):
    v = min(1.0, max(-1.0, v))
    k_plus, k_minus = math.sqrt((1.0 + v) / 2.0), math.sqrt((1.0 - v) / 2.0)
    return k_plus, 0.0, 0.0, k_plus, k_minus, 0.0, 0.0, -k_minus


def _plain_gad(a, x):
    sa, sb, sx, sp = math.sqrt(a), math.sqrt(1.0 - a), math.sqrt(x), math.sqrt(1.0 - x)
    return sa, 0.0, 0.0, sa * sx, 0.0, sa * sp, 0.0, 0.0, sb * sx, 0.0, 0.0, sb, 0.0, 0.0, sb * sp, 0.0


def _plain_gdc(*weights):
    s0, s1, s2, s3 = map(math.sqrt, weights)
    return s0, 0.0, 0.0, s0, 0.0, s1, s1, 0.0, 0.0, complex(0.0, -s2), complex(0.0, s2), 0.0, s3, 0.0, 0.0, -s3


# One in-range point's row-major operator entries in plain float arithmetic, point by point: the reference for the
# array builders of CHANNELS.
PLAIN_ENTRIES = {
    "rtn": lambda v: _plain_dephasing("lambda", v),
    "nmd": lambda v: _plain_dephasing("omega", v),
    "pd": lambda g: (1.0, 0.0, 0.0, math.sqrt(1.0 - g), 0.0, 0.0, 0.0, math.sqrt(g)),
    "ad": lambda g: (1.0, 0.0, 0.0, math.sqrt(1.0 - g), 0.0, math.sqrt(g), 0.0, 0.0),
    "gad": _plain_gad,
    "unruh": lambda r: (np.cos(r), 0.0, 0.0, 1.0, 0.0, 0.0, np.sin(r), 0.0),
    "gdc": _plain_gdc,
}


@pytest.mark.parametrize("label", sorted(CHANNELS))
@pytest.mark.parametrize("size", [1, 2, 101])
def test_batch_is_bitwise_the_one_point_build(label, size):
    # Every point of a block, its one-point build and the plain float arithmetic agree bit for bit, signed zeros too
    # (gdc at p2 = 0 has the entry -0j).
    spec = CHANNELS[label]
    points = [BATCH_POINTS[label](v) for v in np.linspace(0.0, 1.0, size)]
    block = {k: [params[k] for params in points] for k in spec.params}
    for params, ch in zip(points, make_channels(label, block), strict=True):
        values = [float(params[k]) for k in spec.params]
        alone = getattr(channel_module, label)(*values)
        plain = np.array(PLAIN_ENTRIES[label](*values), dtype=complex).reshape(-1, 2, 2)
        assert ch.label == label and ch.params == alone.params == dict(zip(spec.params, values))
        assert all(type(v) is float for v in ch.params.values())
        assert len(ch.ops) == len(alone.ops) == len(plain)
        assert all(_same_bits(a, b) and _same_bits(a, c) for a, b, c in zip(ch.ops, alone.ops, plain))
        assert all(not k.flags.writeable for k in ch.ops)
        assert all(_same_bits(a, b) for a, b in zip(bloch_map(ch), bloch_map(alone)))


@pytest.mark.parametrize("n_ops", [1, 2, 3, 4])
@pytest.mark.parametrize("size", [1, 2, 101])
def test_batched_contraction_does_not_depend_on_the_batch(n_ops, size):
    rng = np.random.default_rng(100 * n_ops + size)
    maps = [random_kraus_ops(rng, n_ops) for _ in range(size)]
    t = _transfer_matrices(np.array(maps, dtype=complex))
    for ops, row in zip(maps, t, strict=True):
        a, c = bloch_map(KrausChannel(ops, "random"))
        assert _same_bits(row[1:, 1:].copy(), a.copy()) and _same_bits(row[1:, 0].copy(), c.copy())


def test_batch_raises_the_one_point_message_for_its_first_failing_channel():
    good = [random_kraus_ops(np.random.default_rng(seed), 2) for seed in range(5)]
    broken = (np.diag([1.0, 1.0]), np.diag([1.0, 0.0]))
    with pytest.raises(ValueError) as alone:
        KrausChannel(broken, "broken")
    later = (np.eye(2), 0.5 * np.eye(2))  # fails too, but after the first failing channel
    with pytest.raises(ValueError) as batch:
        _transfer_matrices(np.array(good[:2] + [broken] + good[2:] + [later], dtype=complex))
    assert str(batch.value) == str(alone.value) and str(alone.value).startswith("completeness violated")
    overflow = (1e200 * np.eye(2), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="a Kraus entry has modulus 1.000e[+]200"):
        _transfer_matrices(np.array(good + [overflow, broken], dtype=complex))
    with pytest.raises(ValueError, match="must be finite"):
        _transfer_matrices(np.array(good + [(np.diag([np.nan, 1.0]), np.zeros((2, 2)))], dtype=complex))


# Per family, a block whose points fail from its third on: the third fails first on the family's first check (and
# on a later one too where a family has two), so the block raises the one-point message of its third point.
BAD_BLOCKS = {
    "rtn": ([(0.5,), (1.0,), (1.5,), (np.nan,)], "invalid kernel value: lambda = 1.500000 is outside [-1, 1]"),
    "nmd": ([(0.5,), (-1.0,), (-2.0,), (3.0,)], "invalid kernel value: omega = -2.000000 is outside [-1, 1]"),
    "pd": ([(0.0,), (0.5,), (-0.5,), (2.0,)], "gamma must be in [0, 1], got -0.5"),
    "ad": ([(0.0,), (0.5,), (1.5,), (np.nan,)], "gamma must be in [0, 1], got 1.5"),
    "gad": ([(0.5, 0.5), (1.0, 0.0), (1.2, -0.1), (0.5, 2.0)], "alpha must be in [0, 1], got 1.2"),
    "unruh": ([(0.0,), (0.5,), (1.0,), (-1.0,)], "r must be in [0, pi/4], got 1.0"),
    "gdc": ([(1.0, 0.0, 0.0, 0.0), (0.25,) * 4, (0.5, 0.6, 0.2, -0.1), (0.5, 0.2, 0.2, 0.2)],
            "negative weight in [0.5, 0.6, 0.2, -0.1]"),
}


def test_batch_checks_every_point_with_the_scalar_message():
    for label, (values, message) in BAD_BLOCKS.items():
        block = dict(zip(CHANNELS[label].params, zip(*values)))
        with pytest.raises(ValueError) as alone:
            getattr(channel_module, label)(*values[2])
        with pytest.raises(ValueError) as raised:
            make_channels(label, block)
        assert str(raised.value) == str(alone.value) == message, label
        assert len(make_channels(label, {k: column[:2] for k, column in block.items()})) == 2
    weights = dict(zip(CHANNELS["gdc"].params, zip((1.0, 0.0, 0.0, 0.0), (0.5, 0.5, 0.5, 0.0))))
    with pytest.raises(ValueError, match=r"^weights must sum to 1, got 1.5$"):
        make_channels("gdc", weights)
    with pytest.raises(ValueError, match=r"^channel ad does not take parameter\(s\): xi$"):
        make_channels("ad", {"gamma": [0.5, 0.5], "xi": 0.1})
    with pytest.raises(ValueError, match="unknown channel"):
        make_channels("swap", {})
    assert make_channels("ad", {"gamma": []}) == []


def test_block_broadcasts_floats_against_its_sequences():
    # gad with a fixed alpha and a swept xi: every point is bitwise its one-point build
    xis = np.linspace(0.0, 1.0, 11)
    for xi, ch in zip(xis.tolist(), make_channels("gad", {"alpha": 0.3, "xi": xis}), strict=True):
        alone = gad(0.3, xi)
        assert ch.params == alone.params == {"alpha": 0.3, "xi": xi}
        assert all(_same_bits(a, b) for a, b in zip(ch.ops, alone.ops))
    assert make_channels("gad", {"alpha": 0.3, "xi": ()}) == []
    # all floats is a one-point block, as make_channel builds it
    (ch,) = make_channels("gdc", {"p0": 0.7, "p1": 0.1, "p2": 0.1, "p3": 0.1})
    assert all(_same_bits(a, b) for a, b in zip(ch.ops, gdc(0.7, 0.1, 0.1, 0.1).ops))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: make_channels("gad", {"alpha": [0.3, 0.4], "xi": [0.1, 0.2, 0.3]}),
         "channel gad takes floats and 1-D sequences of one length, got alpha of shape (2,), xi of shape (3,)"),
        (lambda: make_channels("ad", {"gamma": [[0.1, 0.2]]}),
         "channel ad takes floats and 1-D sequences of one length, got gamma of shape (1, 2)"),
        (lambda: channel_module.make_channel("ad", {"gamma": [0.1]}),
         "channel ad takes one float per parameter, got gamma of shape (1,)"),
        (lambda: channel_module.make_channel("gad", {"alpha": 0.5, "xi": np.array([0.1, 0.2])}),
         "channel gad takes one float per parameter, got alpha of shape (), xi of shape (2,)"),
    ],
    ids=["lengths", "2-D", "make_channel-sequence", "make_channel-array"],
)
def test_block_shapes_are_checked_naming_the_channel(build, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        build()


def test_block_checks_its_names_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args[1])
        return named_values(*args)

    named_values = channel_module.named_values
    monkeypatch.setattr(channel_module, "named_values", counting)
    assert len(make_channels("rtn", {"lambda": np.linspace(-1.0, 1.0, 101)})) == 101
    assert calls == ["rtn"]


# -- memory kernels ---------------------------------------------------------

def test_rtn_kernel_starts_at_one():
    assert rtn_kernel(0.0, 1.0, 2.0) == 1.0
    assert rtn_kernel(0.0, 4.0, 0.5) == 1.0


def test_rtn_kernel_markovian_regime_is_monotone():
    # 4 b^2 < gamma^2: no oscillation, |Lambda| decays
    ts = np.linspace(0, 6, 400)
    vals = [rtn_kernel(t, 4.0, 0.5) for t in ts]
    diffs = np.diff(vals)
    assert np.all(diffs <= 1e-12)
    assert all(0.0 <= v <= 1.0 for v in vals)


def test_rtn_kernel_nonmarkovian_regime_revives():
    # 4 b^2 > gamma^2: the kernel crosses zero and comes back
    ts = np.linspace(0, 5, 2001)
    vals = np.array([rtn_kernel(t, 1.0, 2.0) for t in ts])
    signs = np.sign(vals)
    crossings = np.nonzero(np.diff(signs) != 0)[0]
    assert crossings.size >= 1
    first = crossings[0]
    assert np.max(np.abs(vals[first + 1 :])) > 1e-3
    assert np.max(np.abs(vals)) <= 1.0


def test_rtn_kernel_critical_form():
    g = 2.0
    b = g / 2.0
    for t in (0.0, 0.3, 1.7):
        assert rtn_kernel(t, g, b) == pytest.approx((1 + g * t) * np.exp(-g * t), abs=1e-15)


@pytest.mark.parametrize("gamma, b", [(1.0, 2.0), (10.0, 1.0), (10.0, 5.0)])  # oscillatory, damped, critical
def test_rtn_kernel_reaches_its_limit_at_large_t(gamma, b):
    # gamma t and w t overflow at t = 1e308, where cos(inf) and inf * 0 were NaN; the kernel is its limit 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rtn_kernel(1e308, gamma, b) == 0.0


def test_rtn_kernel_rejects_an_overflowing_phase():
    # e^{-gamma t} is about 0.99 here but w t = 2e308 overflows, where cos(inf) was NaN after a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"w t overflows at t=1e\+308, gamma=1e-310, b=1\.0"):
            rtn_kernel(1e308, 1e-310, 1.0)
        assert -1.0 <= rtn_kernel(1e300, 1e-300, 1.0) <= 1.0  # w t = 2e300 is finite


def _plain_rtn_kernel(t, gamma, b):
    """Lambda(t) in plain float arithmetic, one t at a time: the reference for the block kernel's numbers."""
    disc, decay = 4.0 * b * b - gamma * gamma, np.exp(-gamma * t)
    if disc < 0.0:
        wh = math.sqrt(-disc)
        slow = 4.0 * b * b / (wh + gamma)
        val = 0.5 * ((1.0 + gamma / wh) * np.exp(-slow * t) - (slow / wh) * np.exp(-(wh + gamma) * t))
    elif decay == 0.0:
        val = 0.0
    elif disc > 0.0:
        w = math.sqrt(disc)
        val = decay * (np.cos(w * t) + (gamma / w) * np.sin(w * t))
    else:
        val = (1.0 + gamma * t) * decay
    return min(1.0, max(-1.0, float(val)))


# oscillatory, damped, damped with b << gamma, critical
@pytest.mark.parametrize("gamma, b", [(1.0, 2.0), (10.0, 1.0), (1e4, 1e-2), (10.0, 5.0)])
def test_block_kernel_is_bitwise_the_scalar_kernel(gamma, b):
    # The rtn-sweep workload's 101 values of t, then large ones: at t = 1e308 every regime underflows to its limit 0.
    ts = [i * 0.05 for i in range(101)] + [1e3, 1e308]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        block = rtn_kernel(np.array(ts), gamma, b)
        scalars = [rtn_kernel(t, gamma, b) for t in ts]
        evaluated = builtin_kernel("rtn-damped", {"gamma": gamma, "b": b}).evaluate(ts)
    assert all(type(v) is float for v in scalars) and block.shape == (len(ts),) and block[-1] == 0.0
    assert block.tobytes() == evaluated.tobytes() == np.array(scalars).tobytes()
    assert scalars == [_plain_rtn_kernel(t, gamma, b) for t in ts]
    ps = np.linspace(0.0, 1.0, 101)
    assert nmd_kernel(ps).tobytes() == np.array([nmd_kernel(p) for p in ps]).tobytes()


def test_block_kernel_raises_the_scalar_message_of_its_first_failing_point():
    with pytest.raises(ValueError) as alone:
        rtn_kernel(1e308, 1e-310, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as block:  # w t = 2e300 is finite, then it overflows from 1e308 on
            rtn_kernel(np.array([0.0, 1e300, 1e308, 1.5e308]), 1e-310, 1.0)
    assert str(block.value) == str(alone.value) and "t=1e+308" in str(alone.value)
    with pytest.raises(ValueError, match="^t must be finite and nonnegative, got nan$"):
        rtn_kernel(np.array([0.5, np.nan, -1.0]), 1.0, 2.0)
    # one point checks its t, then the rates: bad rates fail the first point unless its t fails first
    with pytest.raises(ValueError, match="^gamma and b must be positive"):
        rtn_kernel(np.array([0.5, np.nan]), 1.0, np.nan)
    with pytest.raises(ValueError, match="^t must be finite and nonnegative, got -1.0$"):
        rtn_kernel(np.array([-1.0, 0.5]), 1.0, np.nan)
    with pytest.raises(ValueError, match=r"^p must be in \[0, 1\], got 1.5$"):
        nmd_kernel(np.array([0.5, 1.5, -1.0]))


def _rtn_damped_reference(t, gamma, b):
    """The damped-regime kernel in 40-digit decimal arithmetic, where w_h - gamma does not lose digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        t, g, b = decimal.Decimal(t), decimal.Decimal(gamma), decimal.Decimal(b)
        wh = (g * g - 4 * b * b).sqrt()
        return float(((1 + g / wh) * ((wh - g) * t).exp() + (1 - g / wh) * (-(wh + g) * t).exp()) / 2)


@pytest.mark.parametrize(
    "t, gamma, b",
    [(1e7, 1e4, 1e-2), (1.0, 1e4, 1e-2), (3e5, 1e3, 0.1), (2.0, 1.0, 0.01), (0.3, 4.0, 0.5), (5.0, 4.0, 1.9)],
)
def test_rtn_kernel_damped_regime_against_decimal(t, gamma, b):
    # b << gamma: the direct form exp((w_h - gamma) t) gives 0.8187324847617822 for the first case.
    assert rtn_kernel(t, gamma, b) == pytest.approx(_rtn_damped_reference(t, gamma, b), rel=1e-14, abs=1e-300)


def test_rtn_kernel_rejects_bad_parameters():
    with pytest.raises(ValueError):
        rtn_kernel(-0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        rtn_kernel(0.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        rtn_kernel(0.1, 1.0, -2.0)


def test_nmd_kernel():
    assert nmd_kernel(0.0) == 1.0
    assert nmd_kernel(0.5) == 0.0
    assert nmd_kernel(1.0) == -1.0
    with pytest.raises(ValueError):
        nmd_kernel(1.2)


def test_builtin_kernel_registry():
    k = builtin_kernel("rtn-damped", {"gamma": 1.0, "b": 2.0})
    assert k.evaluate(0.0) == 1.0
    assert "gamma=1" in k.label
    assert builtin_kernel("nmd-linear", {}).evaluate(0.25) == 0.5
    with pytest.raises(ValueError, match=r"unknown kernel 'nope' \(available: rtn-damped, nmd-linear\)"):
        builtin_kernel("nope", {})
    with pytest.raises(ValueError, match=r"^kernel rtn-damped is missing parameter\(s\): b$"):
        builtin_kernel("rtn-damped", {"gamma": 1.0})
    with pytest.raises(ValueError, match="does not take parameter.*lambda"):
        builtin_kernel("rtn-damped", {"gamma": 1.0, "b": 2.0, "lambda": 0.3})
    with pytest.raises(ValueError, match="does not take parameter.*gamma"):
        builtin_kernel("nmd-linear", {"gamma": 1.0})
    # every entry of the one kernel table resolves to its factory called with its parameters in order
    for name, (factory, names) in KERNELS.items():
        kernel, direct = builtin_kernel(name, dict.fromkeys(names, 1.0)), factory(*[1.0] * len(names))
        assert kernel.label == direct.label and kernel.evaluate(0.5) == direct.evaluate(0.5)


@pytest.mark.parametrize("label", sorted(CHANNELS))
def test_registry_params_match_constructor_signature(label):
    # Each label's public constructor has the label's name; a keyword-named parameter (lambda) takes a trailing
    # underscore in Python.
    spec, make = CHANNELS[label], getattr(channel_module, label)
    names = tuple(p.rstrip("_") for p in inspect.signature(make).parameters)
    assert names == spec.params
    assert make(*([0.25] * len(names))).label == label
