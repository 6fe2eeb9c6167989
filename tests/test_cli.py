import csv
import json

import numpy as np
import pytest

from qchan.cli import (
    GDC_VALIDATION_WEIGHTS,
    MAX_SWEEP_POINTS,
    SweepSpec,
    build_parser,
    main,
    make_channel,
    run_sweep,
    run_validation,
)
from qchan.optimize import MAX_GRID_POINTS, OptimizerConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_measure_pd(capsys):
    code, out, _ = run_cli(capsys, "measure", "--channel", "pd", "--set", "gamma=0.25")
    assert code == 0
    doc = json.loads(out)
    assert doc["channel"] == "pd"
    assert abs(doc["mu"] - 0.75) < 1e-6
    assert doc["closed_form"] == 0.75
    assert doc["converged"] is True
    assert set(doc["argmax_params"]) == {"x", "phi", "y", "xi"}


def test_measure_gdc_identity(capsys):
    code, out, _ = run_cli(
        capsys, "measure", "--channel", "gdc", "--set", "p0=1,p1=0,p2=0,p3=0"
    )
    assert code == 0
    assert abs(json.loads(out)["mu"] - 1.0) < 1e-8


def test_measure_unruh(capsys):
    code, out, _ = run_cli(capsys, "measure", "--channel", "unruh", "--set", "r=0.5236")
    assert code == 0
    assert abs(json.loads(out)["mu"] - 0.75) < 1e-4


def test_measure_gad_has_no_closed_form(capsys):
    code, out, _ = run_cli(
        capsys, "measure", "--channel", "gad", "--set", "alpha=0.5,xi=0.6"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["closed_form"] is None
    assert doc["abs_error"] is None
    assert "unverified_reference" not in doc


@pytest.mark.parametrize(
    "argv, message",
    [
        (["measure", "--channel", "rtn", "--set", "lambda=nan"], "kernel value"),
        (["sweep", "--channel", "rtn", "--sweep", "t=0:1:0.5", "--set", "gamma=nan,b=2"], "gamma and b"),
        (["sweep", "--channel", "rtn", "--sweep", "t=0:1:0.5", "--set", "gamma=1,b=1e200"], "too large"),
        (["sweep", "--channel", "rtn", "--sweep", "t=0:inf:1", "--set", "gamma=1,b=2"], "must be finite"),
        (["sweep", "--channel", "pd", "--sweep", "gamma=nan:1:0.5"], "must be finite"),
        (["sweep", "--channel", "pd", "--sweep", "gamma=0:1:1e-320"], "too many points"),
        (["validate", "--tol", "nan"], "positive and finite"),
        (["validate", "--tol", "inf"], "positive and finite"),
        (["sweep", "--channel", "pd", "--sweep", "gamma=0:1:1e-12"], "too many points"),
        (["measure", "--channel", "ad", "--set", "gamma=0.5", "--domain", "all-pairs", "--grid", "100000"], "between 2 and"),
        (["validate", "--grid", str(MAX_GRID_POINTS + 1)], "between 2 and"),
    ],
    ids=[
        "lambda-nan", "gamma-nan", "b-overflow", "stop-inf", "start-nan", "step-underflow", "tol-nan", "tol-inf",
        "sweep-points", "grid-flag", "validate-grid",
    ],
)
def test_non_finite_input_exits_2(tmp_path, capsys, argv, message):
    out_path = tmp_path / "out.csv"
    if argv[0] == "sweep":
        argv = argv + ["--out", str(out_path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err
    assert not out_path.exists()


def test_sweep_point_cap_is_checked_by_count():
    # Only the count is computed: building the points of the rejected sweeps would take terabytes.
    at_cap = SweepSpec("rtn", {}, "t", 0.0, MAX_SWEEP_POINTS - 1.0, 1.0)
    assert at_cap.count() == MAX_SWEEP_POINTS
    for stop, step in ((MAX_SWEEP_POINTS, 1.0), (1.0, 1e-12)):
        with pytest.raises(ValueError, match="too many points"):
            SweepSpec("rtn", {}, "t", 0.0, stop, step)


def test_measure_usage_errors(capsys):
    assert run_cli(capsys, "measure", "--channel", "bitflip", "--set", "p=0.1")[0] == 2
    assert run_cli(capsys, "measure", "--channel", "pd")[0] == 2
    assert run_cli(capsys, "measure", "--channel", "pd", "--set", "gamma=x")[0] == 2
    assert run_cli(capsys, "measure", "--channel", "pd", "--set", "gamma=0.1,junk=1")[0] == 2
    assert run_cli(capsys, "measure")[0] == 2


def test_sweep_pd_csv_schema_and_values(tmp_path, capsys):
    out_path = tmp_path / "pd.csv"
    code, _, _ = run_cli(
        capsys,
        "sweep",
        "--channel",
        "pd",
        "--sweep",
        "gamma=0:1:0.1",
        "--out",
        str(out_path),
    )
    assert code == 0
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["gamma", "mu_numeric", "mu_closed_form", "abs_error", "kernel_value"]
    body = rows[1:]
    assert len(body) == 11
    for i, row in enumerate(body):
        gamma = float(row[0])
        assert gamma == pytest.approx(0.1 * i, abs=1e-12)
        assert float(row[1]) == pytest.approx(1.0 - 0.1 * i, abs=1e-6)
        assert row[4] == ""  # kernel inapplicable for a direct parameter sweep
    mus = [float(r[1]) for r in body]
    assert all(a >= b - 1e-12 for a, b in zip(mus, mus[1:]))


def test_sweep_csv_reparse_is_bit_exact(tmp_path, capsys):
    out_path = tmp_path / "rtn.csv"
    code, _, _ = run_cli(
        capsys,
        "sweep",
        "--channel",
        "rtn",
        "--sweep",
        "lambda=0:1:0.25",
        "--out",
        str(out_path),
    )
    assert code == 0
    spec = SweepSpec("rtn", {}, "lambda", 0.0, 1.0, 0.25)
    rows = run_sweep(spec, OptimizerConfig())
    with open(out_path, newline="") as fh:
        parsed = list(csv.reader(fh))[1:]
    for row, ref in zip(parsed, rows):
        assert float(row[0]) == ref.value
        assert float(row[1]) == ref.mu_numeric
        assert float(row[2]) == ref.mu_closed_form
        assert float(row[3]) == ref.abs_error


def test_sweep_identical_runs_are_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        code, _, _ = run_cli(
            capsys,
            "sweep",
            "--channel",
            "ad",
            "--sweep",
            "gamma=0:1:0.2",
            "--seed",
            "7",
            "--out",
            str(p),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    with open(paths[0], newline="") as fh:
        mus = [float(r[1]) for r in list(csv.reader(fh))[1:]]
    assert all(b < a for a, b in zip(mus, mus[1:]))  # strictly decreasing
    assert mus[-1] == pytest.approx(0.0, abs=1e-10)


def test_sweep_jobs_do_not_change_output(tmp_path, capsys):
    serial = tmp_path / "serial.csv"
    threaded = tmp_path / "threaded.csv"
    args = ["sweep", "--channel", "pd", "--sweep", "gamma=0:1:0.25"]
    assert run_cli(capsys, *args, "--out", str(serial))[0] == 0
    assert run_cli(capsys, *args, "--out", str(threaded), "--jobs", "4")[0] == 0
    assert serial.read_bytes() == threaded.read_bytes()


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["measure", "--channel", "pd", "--set", "gamma=0.25"], ["--seed", "5"]),
        (["sweep", "--channel", "pd", "--sweep", "gamma=0:1:0.25"], ["--seed", "5"]),
        (["sweep", "--channel", "pd", "--sweep", "gamma=0:1:0.25"], ["--jobs", "4"]),
        (["validate"], ["--seed", "5"]),
    ],
    ids=["measure-seed", "sweep-seed", "sweep-jobs", "validate-seed"],
)
def test_compatibility_flags_change_no_output(tmp_path, capsys, argv, flags):
    # --seed and --jobs are accepted and have no effect on stdout, files or exit code.
    outputs = []
    for extra in ([], flags):
        out_path = tmp_path / f"out{len(outputs)}"
        out_args = ["--out", str(out_path)] if argv[0] != "measure" else []
        code, out, err = run_cli(capsys, *argv, *extra, *out_args)
        assert code == 0, err
        outputs.append((out.encode(), out_path.read_bytes() if out_args else None))
    assert outputs[0] == outputs[1]


def test_sweep_rtn_time_with_default_kernel(tmp_path, capsys):
    out_path = tmp_path / "rtn_t.csv"
    code, _, _ = run_cli(
        capsys,
        "sweep",
        "--channel",
        "rtn",
        "--sweep",
        "t=0:5:0.05",
        "--set",
        "gamma=1,b=2",
        "--out",
        str(out_path),
    )
    assert code == 0
    with open(out_path, newline="") as fh:
        body = list(csv.reader(fh))[1:]
    mus = [float(r[1]) for r in body]
    kernel_vals = [float(r[4]) for r in body]
    assert kernel_vals[0] == 1.0
    # non-Markovian regime: quantumness dies and revives
    revived = any(
        mus[i] + 1e-6 < max(mus[i + 1 :], default=0.0) for i in range(len(mus) - 1)
    )
    assert revived
    for r in body:  # closed form follows the kernel value
        assert float(r[2]) == pytest.approx(float(r[4]) ** 2, abs=1e-12)


def test_sweep_structured_format(tmp_path, capsys):
    out_path = tmp_path / "nmd.json"
    code, _, _ = run_cli(
        capsys,
        "sweep",
        "--channel",
        "nmd",
        "--sweep",
        "p=0:1:0.5",
        "--kernel",
        "nmd-linear",
        "--format",
        "structured",
        "--out",
        str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["sweep_param"] == "p"
    assert [r["kernel_value"] for r in doc["rows"]] == [1.0, 0.0, -1.0]
    assert doc["rows"][0]["mu_numeric"] == pytest.approx(1.0, abs=1e-8)


def test_sweep_usage_errors(tmp_path, capsys):
    bad = [
        ["sweep", "--channel", "pd", "--sweep", "gamma=1:0:0.1", "--out", "x.csv"],
        ["sweep", "--channel", "pd", "--sweep", "gamma=0:1:-0.1", "--out", "x.csv"],
        ["sweep", "--channel", "pd", "--sweep", "gamma=0:1:0.1", "--set", "gamma=0.5", "--out", "x.csv"],
        ["sweep", "--channel", "pd", "--sweep", "t=0:1:0.1", "--out", "x.csv"],
        ["sweep", "--channel", "pd", "--sweep", "gamma", "--out", "x.csv"],
    ]
    for argv in bad:
        argv[-1] = str(tmp_path / "unused.csv")
        assert run_cli(capsys, *argv)[0] == 2


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--channel", "rtn", "--sweep", "t=0:1:0.5", "--set", "gamma=1,b=2,lambda=0.3"], "lambda"),
        (["--channel", "rtn", "--sweep", "t=0:1:0.5", "--set", "gamma=1,b=2,foo=3"], "foo"),
        (["--channel", "nmd", "--sweep", "p=0:1:0.5", "--set", "gamma=1"], "gamma"),
        (["--channel", "ad", "--sweep", "gamma=0:1:0.5", "--kernel", "rtn-damped"], "--kernel"),
    ],
    ids=["kernel-sweep-sets-channel-param", "unknown-param", "nmd-kernel-takes-none", "kernel-flag-on-plain-sweep"],
)
def test_kernel_sweeps_reject_unused_inputs(tmp_path, capsys, argv, named):
    # A kernel sweep reads only its kernel's parameters; anything else is a usage error, not ignored input.
    out_path = tmp_path / "unused.csv"
    code, out, err = run_cli(capsys, "sweep", *argv, "--out", str(out_path))
    assert code == 2 and out == "" and named in err
    assert not out_path.exists()


def test_sweep_io_failure(tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
    code, _, err = run_cli(
        capsys,
        "sweep",
        "--channel",
        "pd",
        "--sweep",
        "gamma=0:1:0.5",
        "--out",
        str(missing_dir),
    )
    assert code == 3
    assert "io error" in err


def test_validate_passes_and_reports(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "validate", "--tol", "1e-4", "--out", str(out_path))
    assert code == 0
    assert "overall: PASS" in out
    assert "info" in out  # gad rows are informational
    assert "unverified" not in out
    payload = json.loads(out_path.read_text())
    assert payload["overall_pass"] is True
    gad_rows = [r for r in payload["rows"] if r["channel"] == "gad"]
    assert len(gad_rows) == 6
    assert all(r["passed"] is None and r["mu_closed_form"] is None and r["abs_error"] is None for r in gad_rows)
    asserted = [r for r in payload["rows"] if r["passed"] is not None]
    assert len(asserted) == 34 and all(r["passed"] for r in asserted)


def test_validate_bad_tolerance(capsys):
    assert run_cli(capsys, "validate", "--tol", "-1")[0] == 2


def test_validate_failure_exit_code(capsys):
    # an absurd tolerance cannot be met by floating point agreement
    code, out, _ = run_cli(capsys, "validate", "--tol", "1e-20", "--grid", "10")
    assert code == 1
    assert "overall: FAIL" in out


def test_visibility_rtn(capsys):
    code, out, _ = run_cli(
        capsys,
        "visibility",
        "--channel",
        "rtn",
        "--set",
        "lambda=0.5",
        "--x",
        "0",
        "--phi",
        "0",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["v1"] == pytest.approx(0.3125, abs=1e-12)
    assert doc["v2"] == pytest.approx(0.25, abs=1e-12)
    assert doc["measure"] == pytest.approx(0.25, abs=1e-12)


def test_visibility_identity_like_channel(capsys):
    code, out, _ = run_cli(capsys, "visibility", "--channel", "rtn", "--set", "lambda=1")
    assert code == 0
    doc = json.loads(out)
    assert doc["v1"] - doc["v2"] == pytest.approx(0.25, abs=1e-12)
    assert doc["measure"] == pytest.approx(1.0, abs=1e-12)


def test_grid_env_var(tmp_path, capsys, monkeypatch):
    # Every named channel takes a one-evaluation probe solve; ad's all-pairs solve scans
    # n polar angles (it is axially symmetric) and polishes the best one.
    monkeypatch.setenv("QCHAN_DEFAULT_GRID", "8")
    code, out, _ = run_cli(capsys, "measure", "--channel", "ad", "--set", "gamma=0.5", "--domain", "all-pairs")
    assert code == 0
    doc = json.loads(out)
    assert 8 < doc["evaluations"] < 24  # 8-point grid plus refinement

    # explicit flag wins over the environment
    code, out, _ = run_cli(
        capsys, "measure", "--channel", "ad", "--set", "gamma=0.5", "--domain", "all-pairs", "--grid", "30"
    )
    assert json.loads(out)["evaluations"] > 30

    monkeypatch.setenv("QCHAN_DEFAULT_GRID", "banana")
    assert run_cli(capsys, "measure", "--channel", "pd", "--set", "gamma=0.5")[0] == 2

    # above the cap: exit 2 before the n * n first inputs are allocated
    monkeypatch.setenv("QCHAN_DEFAULT_GRID", "100000")
    code, out, err = run_cli(capsys, "measure", "--channel", "ad", "--set", "gamma=0.5", "--domain", "all-pairs")
    assert code == 2 and out == "" and "between 2 and" in err


@pytest.mark.parametrize("value, ok", [("1", False), ("2", True), (str(MAX_GRID_POINTS), True), (str(MAX_GRID_POINTS + 1), False)])
@pytest.mark.parametrize("source", ["--grid", "QCHAN_DEFAULT_GRID"])
def test_grid_bounds_name_their_source(capsys, monkeypatch, source, value, ok):
    argv = ["measure", "--channel", "ad", "--set", "gamma=0.5"]
    if source == "--grid":
        argv += ["--grid", value]
    else:
        monkeypatch.setenv(source, value)
    code, out, err = run_cli(capsys, *argv)
    if ok:
        assert code == 0 and err == ""
    else:
        assert code == 2 and out == ""
        assert err == f"error: {source} must be between 2 and {MAX_GRID_POINTS}, got {value}\n"


def test_cached_parser_keeps_no_state_between_calls(capsys):
    assert build_parser() is build_parser()
    argv = ["measure", "--channel", "ad", "--set", "gamma=0.25", "--domain", "all-pairs"]
    code, out, _ = run_cli(capsys, *argv, "--grid", "8")
    assert code == 0
    coarse = json.loads(out)["evaluations"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["evaluations"] != coarse
    # a usage error leaves nothing behind for the next call
    assert run_cli(capsys, "measure", "--channel", "ad", "--bogus")[0] == 2
    code, out, _ = run_cli(capsys, *argv, "--grid", "8")
    assert code == 0 and json.loads(out)["evaluations"] == coarse
    assert run_cli(capsys, "measure", "--channel", "ad", "--set", "gamma=2")[0] == 2
    assert run_cli(capsys, "measure", "--channel", "pd", "--set", "gamma=0.25")[0] == 0


def test_measure_all_pairs_domain(capsys):
    code, out, _ = run_cli(
        capsys,
        "measure",
        "--channel",
        "ad",
        "--set",
        "gamma=0.25",
        "--domain",
        "all-pairs",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["domain"] == "all-pairs"
    assert doc["mu"] > 0.9  # exceeds the probe-protocol closed form 0.75


def test_make_channel_registry():
    ch = make_channel("gdc", {"p0": 0.7, "p1": 0.1, "p2": 0.1, "p3": 0.1})
    assert ch.label == "gdc"
    with pytest.raises(ValueError, match="unknown channel"):
        make_channel("swap", {})


def test_validation_weights_are_sorted():
    # Nonincreasing weights give |l1| >= |l2| in the gdc closed form
    # max(l1^2, l2^2) l3^2, so every row takes its l1^2 l3^2 branch.
    for weights in GDC_VALIDATION_WEIGHTS:
        assert list(weights) == sorted(weights, reverse=True)
        assert abs(sum(weights) - 1.0) < 1e-12


def test_validation_report_library_entry():
    report = run_validation(tolerance=1e-4, grid_points_per_angle=12)
    assert report.overall_pass
    asserted = [r for r in report.rows if r.passed is not None]
    assert len(asserted) == 34
    worst = max(r.abs_error for r in asserted)
    assert worst <= 1e-4
    info = [r for r in report.rows if r.passed is None]
    assert {r.channel for r in info} == {"gad"}
    # rtn and nmd at kernel value 0 erase all coherence: mu is exactly 0, not a rounding residue.
    zeros = [r.mu_numeric for r in report.rows if r.channel in ("rtn", "nmd") and list(r.params.values()) == [0.0]]
    assert zeros == [0.0, 0.0]
