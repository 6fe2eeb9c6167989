"""The three qchan benchmark workloads and the checks on their outputs.

Each workload builds its inputs from a seed, runs one pass through qchan's
public entry points with its calls timed by a :class:`calibrate.Timer`, and
checks a pass's outputs outside the timed segments. The workloads stress different layers:

``validate``
    ``qchan validate`` through ``cli.main``: 40 probe solves over all seven
    channel families. Refinement dominates, so an exact probe solver or a
    cheaper objective shows here. Never touches the all-pairs grid, the
    brute-force oracle or ``run_sweep``.
``rtn-sweep``
    A 101-point rtn time sweep through ``cli.main``. Every point runs the
    kernel, channel construction with its CPTP check, ``bloch_map``, a probe
    solve and a CSV row, so per-point overheads and batching show here and
    not in ``validate``.
``all-pairs``
    ``maximize_mu`` in the all-pairs domain plus the all-pairs brute-force
    oracle over three named channels and seeded random CPTP maps. The
    331,776-pair grid and the 4-angle refine dominate; a probe-only change
    should leave it unchanged.

Library calls go through module attributes (``cli.main``,
``optimize.maximize_mu``, ``optimize.brute_force_mu``) looked up at call time,
so the spans in :mod:`spans` see them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import qchan
from calibrate import Timer
from qchan import cli, optimize

MU_TOL = 1e-12
DEFINITION_TOL = 1e-9
SWEEP_TOL = 1e-4
VALIDATE_TOL = 1e-4
VALIDATE_ASSERTED_ROWS = 34
SWEEP_HEADER = ["t", "mu_numeric", "mu_closed_form", "abs_error", "kernel_value"]
SWEEP_POINTS = 101
RTN_GAMMA, RTN_B = 1.0, 2.0
ORACLE_GRID = 24
RANDOM_CHANNELS = 5
RANDOM_KRAUS_OPS = 3


class Checks:
    """Counts output checks; each failed check keeps a one-line message."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.max_abs_error = 0.0
        self.oracle_margin = math.inf

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def error(self, value: float) -> None:
        self.max_abs_error = max(self.max_abs_error, abs(value))

    def margin(self, mu: float, oracle: float, what: str) -> None:
        self.oracle_margin = min(self.oracle_margin, mu - oracle)
        self.expect(mu >= oracle - MU_TOL, f"{what}: mu {mu!r} below oracle {oracle!r}")


@dataclass
class PassOutput:
    """What one pass produced; its time is kept by the pass's Timer."""

    output_bytes: int
    data: object


def random_channel(rng: np.random.Generator) -> qchan.KrausChannel:
    """A random CPTP qubit map with three Kraus operators.

    The operators are the 2x2 blocks of a Haar-random Stinespring isometry
    C^2 -> C^2 (x) C^3, the Q factor of a complex Gaussian 6x2 matrix with
    the phases of R's diagonal moved into Q.
    """
    g = rng.normal(size=(2 * RANDOM_KRAUS_OPS, 2)) + 1j * rng.normal(size=(2 * RANDOM_KRAUS_OPS, 2))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    ops = tuple(q[2 * k : 2 * k + 2] for k in range(RANDOM_KRAUS_OPS))
    return qchan.KrausChannel(ops, "random")


def _run_cli(argv: list[str], out_path: Path, timer: Timer) -> PassOutput:
    """One ``cli.main`` call; data is (exit code, stdout bytes, output file bytes)."""
    out_path.unlink(missing_ok=True)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = timer.segment(lambda: cli.main(argv))
    text = stdout.getvalue().encode()
    written = out_path.read_bytes() if out_path.exists() else b""
    return PassOutput(len(text) + len(written), (code, text, written))


class _CliWorkload:
    """A workload whose pass is one ``cli.main`` call writing one file."""

    def run_pass(self, inputs, timer: Timer) -> PassOutput:
        return _run_cli(*inputs, timer)


def _report_rows(written: bytes):
    """Rows of a validate JSON report, or None when it does not parse."""
    try:
        return json.loads(written)["rows"]
    except (ValueError, KeyError, TypeError):
        return None


def _sweep_table(written: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(written.decode(errors="replace"))))


class Validate(_CliWorkload):
    name = "validate"

    def build(self, seed: int, workdir: Path):
        out = workdir / "validate.json"
        return ["validate", "--out", str(out)], out

    def check(self, inputs, output: PassOutput, reference: PassOutput, checks: Checks) -> None:
        code, text, written = output.data
        checks.expect(code == 0, f"validate exit code {code}")
        checks.expect(text == reference.data[1], "validate stdout differs from the first pass")
        checks.expect(written == reference.data[2], "validate JSON differs from the first pass")
        rows = _report_rows(written)
        checks.expect(rows is not None, "validate JSON does not parse")
        asserted = [r for r in rows or () if r.get("passed") is not None]
        checks.expect(len(asserted) == VALIDATE_ASSERTED_ROWS, f"{len(asserted)} asserted rows")
        for row in asserted:
            what = f"validate {row.get('channel')} {row.get('params')}"
            try:
                err = row["mu_numeric"] - float(qchan.closed_form_mu(row["channel"], row["params"]))
            except (KeyError, TypeError, ValueError) as exc:
                checks.expect(False, f"{what}: malformed row ({exc})")
                continue
            checks.error(err)
            checks.expect(row["passed"] is True, f"{what}: flagged failed")
            checks.expect(abs(err) <= VALIDATE_TOL, f"{what}: error {err:.3e}")

    def oracle_checks(self, output: PassOutput, checks: Checks) -> None:
        for row in _report_rows(output.data[2]) or ():
            try:
                ch = cli.make_channel(row["channel"], row["params"])
            except (KeyError, TypeError, ValueError):
                continue  # already counted by check()
            bf = optimize.brute_force_mu(ch, ORACLE_GRID, optimize.DOMAIN_PROBE)
            checks.margin(row["mu_numeric"], bf, f"validate {row['channel']} {row['params']}")


class RtnSweep(_CliWorkload):
    name = "rtn-sweep"

    def build(self, seed: int, workdir: Path):
        out = workdir / "rtn.csv"
        argv = ["sweep", "--channel", "rtn", "--sweep", "t=0:5:0.05",
                "--set", f"gamma={RTN_GAMMA:g},b={RTN_B:g}", "--out", str(out)]
        return argv, out

    def check(self, inputs, output: PassOutput, reference: PassOutput, checks: Checks) -> None:
        code, _, written = output.data
        checks.expect(code == 0, f"sweep exit code {code}")
        checks.expect(written == reference.data[2], "sweep CSV differs from the first pass")
        table = _sweep_table(written)
        checks.expect(bool(table) and table[0] == SWEEP_HEADER, f"sweep header {table[:1]}")
        rows = table[1:]
        checks.expect(len(rows) == SWEEP_POINTS, f"{len(rows)} sweep rows")
        for row in rows:
            try:
                t, mu, kernel_value = float(row[0]), float(row[1]), float(row[4])
            except (IndexError, ValueError):
                checks.expect(False, f"unparsable sweep row {row}")
                continue
            expected_kernel = qchan.rtn_kernel(t, RTN_GAMMA, RTN_B)
            checks.expect(abs(kernel_value - expected_kernel) <= MU_TOL, f"t={t}: kernel {kernel_value!r}")
            err = mu - kernel_value**2
            checks.error(err)
            checks.expect(abs(err) <= SWEEP_TOL, f"t={t}: |mu - kernel^2| = {abs(err):.3e}")

    def oracle_checks(self, output: PassOutput, checks: Checks) -> None:
        for row in _sweep_table(output.data[2])[1:]:
            try:
                mu, kernel_value = float(row[1]), float(row[4])
            except (IndexError, ValueError):
                continue  # already counted by check()
            bf = optimize.brute_force_mu(qchan.rtn(kernel_value), ORACLE_GRID, optimize.DOMAIN_PROBE)
            checks.margin(mu, bf, f"sweep t={row[0]}")


class AllPairs:
    name = "all-pairs"

    def build(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        named = [qchan.ad(0.25), qchan.gad(1.0, 0.6), qchan.unruh(math.pi / 6.0)]
        return named + [random_channel(rng) for _ in range(RANDOM_CHANNELS)]

    def run_pass(self, channels, timer: Timer) -> PassOutput:
        cfg = optimize.OptimizerConfig(domain=optimize.DOMAIN_ALL_PAIRS)

        def solve(ch):
            result = optimize.maximize_mu(ch, cfg)
            return result, optimize.brute_force_mu(ch, ORACLE_GRID, optimize.DOMAIN_ALL_PAIRS)

        # One timed segment per channel (about 0.4 s), see calibrate.Timer.
        return PassOutput(0, [timer.segment(solve, ch) for ch in channels])

    def check(self, channels, output: PassOutput, reference: PassOutput, checks: Checks) -> None:
        for i, (ch, (result, oracle), (first, _)) in enumerate(zip(channels, output.data, reference.data)):
            what = f"all-pairs channel {i} ({ch.label})"
            mu = result.mu
            checks.margin(mu, oracle, what)
            checks.expect(mu <= 1.0 + MU_TOL, f"{what}: mu {mu!r} above 1")
            checks.expect(mu == first.mu, f"{what}: mu differs from the first pass")
            rho_a, rho_b = qchan.state_pair(result.argmax_params)
            direct = qchan.incompatibility(qchan.apply(ch, rho_a), qchan.apply(ch, rho_b))
            checks.error(mu - direct)
            checks.expect(abs(mu - direct) <= DEFINITION_TOL, f"{what}: definition route gives {direct!r}, mu {mu!r}")
            if ch.label in ("ad", "unruh"):
                closed = float(qchan.closed_form_mu(ch.label, ch.params))
                checks.expect(mu >= closed - DEFINITION_TOL, f"{what}: mu {mu!r} below closed form {closed!r}")
        checks.expect(len(output.data) == len(channels), f"{len(output.data)} results for {len(channels)} channels")

    def oracle_checks(self, output: PassOutput, checks: Checks) -> None:
        """The all-pairs oracle already runs inside every pass."""


WORKLOADS = {w.name: w for w in (Validate(), RtnSweep(), AllPairs())}
