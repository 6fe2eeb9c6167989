"""End-to-end acceptance checks.

Each test prints one pass/fail line for its criterion (run with ``-s`` to see
the lines on success; they also appear in failure reports).
"""

import time

import numpy as np

from qchan import (
    apply,
    brute_force_mu,
    check_outer_inequality,
    coherence_l1,
    from_bloch,
    incompatibility,
    incompatibility_bloch,
    incompatibility_trace_form,
    max_noncommuting_pair,
    maximize_mu,
    rtn,
    visibilities,
)
from qchan.channels import ad, gad, gdc, nmd, pd, unruh
from qchan.cli import (
    VALIDATION_POINTS,
    SweepSpec,
    make_channel,
    run_sweep,
    run_validation,
    write_sweep_csv,
)
from qchan.linalg import min_eigenvalue
from qchan.optimize import OptimizerConfig
from conftest import sample_ball


def report(num, name, ok, detail=""):
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def seeded_pairs(n):
    rng = np.random.default_rng(1234)
    vs = sample_ball(rng, 2 * n)
    return vs[:n], vs[n:]


def test_criterion_1_closed_form_reproduction():
    started = time.monotonic()
    validation = run_validation(tolerance=1e-4)
    elapsed = time.monotonic() - started
    asserted = [r for r in validation.rows if r.passed is not None]
    worst = max(r.abs_error for r in asserted)
    ok = validation.overall_pass and worst <= 1e-4 and elapsed < 120.0
    report(
        1,
        "closed-form reproduction",
        ok,
        f"{len(asserted)} rows, worst |err| = {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_2_measure_form_equivalence():
    va, vb = seeded_pairs(1000)
    worst = 0.0
    for a, b in zip(va, vb):
        rho, sigma = from_bloch(a), from_bloch(b)
        direct = incompatibility(rho, sigma)
        bloch = incompatibility_bloch(tuple(a), tuple(b))
        trace = incompatibility_trace_form(rho, sigma)
        worst = max(worst, abs(direct - bloch), abs(direct - trace), abs(bloch - trace))
    report(2, "measure-form equivalence", worst <= 1e-12, f"worst spread = {worst:.3e}")


def test_criterion_3_visibility_identity():
    va, vb = seeded_pairs(1000)
    worst = 0.0
    for a, b in zip(va, vb):
        rho, sigma = from_bloch(a), from_bloch(b)
        pair = visibilities(rho, sigma)
        worst = max(worst, abs(4 * (pair.v1 - pair.v2) - incompatibility(rho, sigma)))
    rtn_ok = True
    for lam in (0.0, 0.5, 1.0):
        rho_a, rho_b = max_noncommuting_pair(0.0, 0.0)
        pair = visibilities(apply(rtn(lam), rho_a), apply(rtn(lam), rho_b))
        rtn_ok &= abs(pair.v1 - (1 + lam**2) / 4) <= 1e-12
        rtn_ok &= abs(pair.v2 - 0.25) <= 1e-12
    ok = worst <= 1e-12 and rtn_ok
    report(3, "visibility identity", ok, f"worst |4(v1-v2) - M| = {worst:.3e}")


def test_criterion_4_cptp_validation():
    def completeness(ch):
        total = sum(k.conj().T @ k for k in ch.ops)
        return float(np.max(np.abs(total - np.eye(ch.dim))))

    worst_completeness = 0.0
    for v in np.linspace(-1, 1, 51):
        worst_completeness = max(worst_completeness, completeness(rtn(v)), completeness(nmd(v)))
    for g in np.linspace(0, 1, 51):
        worst_completeness = max(worst_completeness, completeness(pd(g)), completeness(ad(g)))
    for r in np.linspace(0, np.pi / 4, 51):
        worst_completeness = max(worst_completeness, completeness(unruh(r)))
    for a in np.linspace(0, 1, 51):
        for x in np.linspace(0, 1, 51)[::10]:
            worst_completeness = max(worst_completeness, completeness(gad(a, x)))
    rng = np.random.default_rng(5)
    for _ in range(60):
        w = rng.exponential(size=4)
        w /= w.sum()
        worst_completeness = max(worst_completeness, completeness(gdc(*w)))

    channels = [
        rtn(0.6), nmd(-0.3), pd(0.35), ad(0.45),
        gad(0.3, 0.6), unruh(np.pi / 5 / 2), gdc(0.4, 0.3, 0.2, 0.1),
    ]
    states = sample_ball(np.random.default_rng(17), 1000)
    worst_herm = worst_trace = 0.0
    worst_eig = 1.0
    for ch in channels:
        for v in states:
            out = apply(ch, from_bloch(v)).mat
            worst_herm = max(worst_herm, float(np.max(np.abs(out - out.conj().T))))
            worst_trace = max(worst_trace, abs(np.trace(out) - 1.0))
            worst_eig = min(worst_eig, min_eigenvalue(out))
    ok = (
        worst_completeness <= 1e-10
        and worst_herm <= 1e-12
        and worst_trace <= 1e-12
        and worst_eig >= -1e-10
    )
    report(
        4,
        "CPTP validation",
        ok,
        f"completeness {worst_completeness:.2e}, herm {worst_herm:.2e}, "
        f"trace {worst_trace:.2e}, min eig {worst_eig:.2e}",
    )


def test_criterion_5_maximal_probe_property():
    worst = 0.0
    for x in np.linspace(0, np.pi, 32):
        for phi in np.linspace(0, 2 * np.pi, 32, endpoint=False):
            rho_a, rho_b = max_noncommuting_pair(x, phi)
            worst = max(worst, abs(incompatibility(rho_a, rho_b) - 1.0))
    report(5, "maximal-probe property", worst <= 1e-10, f"worst |M - 1| = {worst:.3e}")


def test_criterion_6_non_markovian_signature():
    cfg = OptimizerConfig()
    oscillatory = SweepSpec("rtn", {"gamma": 1.0, "b": 2.0}, "t", 0.0, 5.0, 0.05)
    mus = [row.mu_numeric for row in run_sweep(oscillatory, cfg)]
    revival = any(
        mus[i] + 1e-6 < max(mus[i + 1 :], default=0.0) for i in range(len(mus) - 1)
    )

    damped = SweepSpec("rtn", {"gamma": 4.0, "b": 0.5}, "t", 0.0, 5.0, 0.05)
    mus_damped = [row.mu_numeric for row in run_sweep(damped, cfg)]
    monotone = all(b <= a + 1e-9 for a, b in zip(mus_damped, mus_damped[1:]))
    report(
        6,
        "non-Markovian signature",
        revival and monotone,
        f"revival={revival}, damped monotone={monotone}",
    )


def test_criterion_7_outer_inequality():
    rng = np.random.default_rng(99)
    channels = [
        lambda: rtn(rng.uniform(-1, 1)),
        lambda: nmd(rng.uniform(-1, 1)),
        lambda: pd(rng.uniform(0, 1)),
        lambda: ad(rng.uniform(0, 1)),
        lambda: gad(rng.uniform(0, 1), rng.uniform(0, 1)),
        lambda: unruh(rng.uniform(0, np.pi / 4)),
    ]
    violations = 0
    min_slack = np.inf
    for _ in range(1000):
        lam = rng.uniform(1e-3, 1.0 - 1e-3)
        rho0 = np.diag([lam, 1.0 - lam])
        ch = channels[rng.integers(len(channels))]()
        v = sample_ball(rng, 1)[0]
        rho_t = apply(ch, from_bloch(v))
        result = check_outer_inequality(rho0, rho_t)
        min_slack = min(min_slack, result.slack)
        if not result.holds:
            violations += 1
    report(
        7,
        "outer inequality",
        violations == 0,
        f"violations={violations}, min slack = {min_slack:.3e}",
    )


def test_criterion_8_oracle_dominance_and_determinism(tmp_path):
    cfg = OptimizerConfig()
    worst_gap = np.inf
    for label, points in VALIDATION_POINTS:
        for params in points:
            ch = make_channel(label, params)
            gap = maximize_mu(ch, cfg).mu - brute_force_mu(ch, cfg.grid_points_per_angle)
            worst_gap = min(worst_gap, gap)
    dominance = worst_gap >= -1e-12

    spec = SweepSpec("rtn", {"gamma": 1.0, "b": 2.0}, "t", 0.0, 2.0, 0.1)
    outputs = []
    for run in range(2):
        path = tmp_path / f"run{run}.csv"
        rows = run_sweep(spec, OptimizerConfig())
        with open(path, "w", newline="") as fh:
            write_sweep_csv(spec, rows, fh)
        outputs.append(path.read_bytes())
    deterministic = outputs[0] == outputs[1]
    report(
        8,
        "oracle dominance and determinism",
        dominance and deterministic,
        f"min(maximize - brute) = {worst_gap:.3e}, byte-identical={deterministic}",
    )
