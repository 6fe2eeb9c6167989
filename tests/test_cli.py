import argparse
import csv
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from qchan.cli import (
    MAX_SWEEP_POINTS,
    VALIDATION_POINTS,
    SweepRow,
    SweepSpec,
    build_parser,
    main,
    make_channel,
    run_sweep,
    run_validation,
    write_sweep_csv,
)
from qchan import cli
from qchan.optimize import MAX_GRID_POINTS, OptimizerConfig, check_grid, maximize_mu

README = Path(__file__).resolve().parents[1] / "README.md"


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
    ],
    ids=[
        "lambda-nan", "gamma-nan", "b-overflow", "stop-inf", "start-nan", "step-underflow", "tol-nan", "tol-inf",
        "sweep-points",
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
            "--out",
            str(p),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    with open(paths[0], newline="") as fh:
        mus = [float(r[1]) for r in list(csv.reader(fh))[1:]]
    assert all(b < a for a, b in zip(mus, mus[1:]))  # strictly decreasing
    assert mus[-1] == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["measure", "--channel", "pd", "--set", "gamma=0.25"], "--seed"),
        (["sweep", "--channel", "pd", "--sweep", "gamma=0:1:0.25"], "--seed"),
        (["sweep", "--channel", "pd", "--sweep", "gamma=0:1:0.25"], "--jobs"),
        (["validate"], "--seed"),
        (["validate"], "--grid"),
        (["measure", "--channel", "ad", "--set", "gamma=0.25", "--domain", "all-pairs"], "--grid"),
        (["sweep", "--channel", "ad", "--sweep", "gamma=0:1:0.25", "--domain", "all-pairs"], "--grid"),
    ],
    ids=["measure-seed", "sweep-seed", "sweep-jobs", "validate-seed", "validate-grid", "measure-grid", "sweep-grid"],
)
def test_removed_settings_are_usage_errors(tmp_path, capsys, argv, flag):
    # Nothing in qchan is random or parallel, and every channel the CLI builds is unital or axially symmetric, so
    # each solve is a closed form in both domains: these flags set nothing.
    out_path = tmp_path / "out"
    out_args = [] if argv[0] == "measure" else ["--out", str(out_path)]
    code, out, err = run_cli(capsys, *argv, flag, "5", *out_args)
    assert code == 2 and out == "" and f"unrecognized arguments: {flag} 5" in err
    assert not out_path.exists()


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


@pytest.mark.parametrize(
    "argv, entry",
    [
        (["measure", "--channel", "pd", "--set", "=0.5,gamma=0.2"], "'=0.5'"),
        (["measure", "--channel", "pd", "--set", "gamma=0.2, =0.5"], "'=0.5'"),
        (["sweep", "--channel", "pd", "--sweep", " =0:1:0.5", "--out", "OUT"], "' =0:1:0.5'"),
        (["sweep", "--channel", "pd", "--sweep", "=0:1:0.5", "--out", "OUT"], "'=0:1:0.5'"),
    ],
    ids=["set-leading", "set-blank", "sweep-blank", "sweep-empty"],
)
def test_empty_parameter_names_are_usage_errors(tmp_path, capsys, argv, entry):
    out_path = tmp_path / "unused.csv"
    code, out, err = run_cli(capsys, *[str(out_path) if a == "OUT" else a for a in argv])
    assert code == 2 and out == "" and entry in err and "must look like name=" in err
    assert not out_path.exists()


def test_kernel_help_lists_the_kernel_table(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # argparse wraps help at the terminal width, also inside a kernel name
    code, out, _ = run_cli(capsys, "sweep", "--help")
    assert code == 0 and "kernel for rtn/nmd time sweeps (rtn-damped, nmd-linear)" in out


def test_readme_flags_are_the_parser_options():
    # The CLI reference's "Flags:" sentence names each long option of every subcommand once, and no other.
    (subcommands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        option
        for parser in subcommands.choices.values()
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    sentence = README.read_text().split("\nFlags: ", 1)[1].split(".\n", 1)[0]
    assert sorted(re.findall(r"`(--[a-z-]+)", sentence)) == sorted(options)


def _per_cell_csv(spec, rows):
    """The sweep CSV with each cell formatted on its own, through the csv module."""
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow((spec.sweep_param,) + SweepRow._fields[1:])
    writer.writerows([["" if v is None else f"{v:.17g}" for v in row] for row in rows])
    return expected.getvalue().encode()


def test_sweep_blocks_do_not_change_the_csv(tmp_path, capsys, monkeypatch):
    # 101 points in blocks of 7 (the last one holds 3) give the bytes of one block and of a per-cell writer: an rtn
    # time sweep, whose rows have no empty cell, and a gad sweep, whose rows leave the closed-form and kernel cells
    # empty.
    sweeps = (
        (["sweep", "--channel", "rtn", "--sweep", "t=0:5:0.05", "--set", "gamma=1,b=2"],
         SweepSpec("rtn", {"gamma": 1.0, "b": 2.0}, "t", 0.0, 5.0, 0.05)),
        (["sweep", "--channel", "gad", "--sweep", "xi=0:1:0.01", "--set", "alpha=0.5"],
         SweepSpec("gad", {"alpha": 0.5}, "xi", 0.0, 1.0, 0.01)),
    )
    for args, spec in sweeps:
        whole, blocked = tmp_path / "whole.csv", tmp_path / "blocked.csv"
        assert run_cli(capsys, *args, "--out", str(whole))[0] == 0
        reference = _per_cell_csv(spec, run_sweep(spec, OptimizerConfig()))
        with monkeypatch.context() as patch:
            patch.setattr(cli, "SWEEP_BLOCK", 7)
            calls = []
            patch.setattr(cli, "maximize_mu", lambda ch, cfg: calls.append(ch) or maximize_mu(ch, cfg))
            assert run_cli(capsys, *args, "--out", str(blocked))[0] == 0
        assert blocked.read_bytes() == whole.read_bytes() == reference and len(reference.splitlines()) == 102
        assert len(calls) == 101 and len(set(map(id, calls))) == 101


def test_sweep_with_a_bad_point_exits_2_and_writes_nothing(tmp_path, capsys):
    out_path = tmp_path / "ad.csv"
    code, out, err = run_cli(capsys, "sweep", "--channel", "ad", "--sweep", "gamma=0:2:0.5", "--out", str(out_path))
    with pytest.raises(ValueError) as alone:
        make_channel("ad", {"gamma": 1.5})
    assert code == 2 and out == "" and err == f"error: {alone.value}\n" and "1.5" in err
    assert not out_path.exists()


def test_sweep_with_an_overflowing_rtn_phase_exits_2_and_writes_nothing(tmp_path, capsys):
    out_path = tmp_path / "rtn.csv"
    argv = ("sweep", "--channel", "rtn", "--sweep", "t=0:1e308:1e308", "--set", "gamma=1e-310,b=1", "--out", str(out_path))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: ") and "t=1e+308, gamma=1e-310, b=1.0" in err
    assert not out_path.exists()


def test_sweep_csv_writer_matches_csv_module():
    # gad has no closed form: its mu_closed_form, abs_error and kernel_value cells are None. A last row without them
    # takes the other format.
    spec = SweepSpec("gad", {"alpha": 0.5}, "xi", 0.0, 1.0, 0.125)
    rows = run_sweep(spec, OptimizerConfig())
    assert all(r.mu_closed_form is None and r.kernel_value is None for r in rows)
    rows.append(rows[0]._replace(mu_closed_form=-0.0, abs_error=float("nan"), kernel_value=1e-300))
    written = io.StringIO()
    write_sweep_csv(spec, rows, written)
    assert written.getvalue().encode() == _per_cell_csv(spec, rows)


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
    code, out, _ = run_cli(capsys, "validate", "--tol", "1e-20")
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


def test_grid_env_var(capsys, monkeypatch):
    # No command takes a grid size, and QCHAN_DEFAULT_GRID is not read, whatever it holds: every named channel
    # takes a one-evaluation closed form in both domains. --domain still acts: ad's all-pairs maximum exceeds
    # its probe one.
    argv = ["measure", "--channel", "ad", "--set", "gamma=0.5"]
    plain, pairs = run_cli(capsys, *argv), run_cli(capsys, *argv, "--domain", "all-pairs")
    monkeypatch.setenv("QCHAN_DEFAULT_GRID", "banana")
    assert run_cli(capsys, *argv) == plain and run_cli(capsys, *argv, "--domain", "all-pairs") == pairs
    assert plain[0] == pairs[0] == 0
    probe, all_pairs = json.loads(plain[1]), json.loads(pairs[1])
    assert probe["evaluations"] == all_pairs["evaluations"] == 1 and all_pairs["mu"] > probe["mu"]


@pytest.mark.parametrize("value, ok", [(1, False), (2, True), (MAX_GRID_POINTS, True), (MAX_GRID_POINTS + 1, False)])
@pytest.mark.parametrize("source", ["--grid"])
def test_grid_bounds_name_their_source(capsys, source, value, ok):
    # The CLI takes no grid size: the removed flag is a usage error at every value, in or out of bounds, and no
    # bound message names it. The bound lives in the library alone, and its message names the library's source.
    code, out, err = run_cli(capsys, "measure", "--channel", "ad", "--set", "gamma=0.5", source, str(value))
    assert code == 2 and out == "" and f"unrecognized arguments: {source} {value}" in err
    assert "must be between" not in err
    for library_source, check in [
        ("grid_points_per_angle", lambda: OptimizerConfig(grid_points_per_angle=value).grid_points_per_angle),
        ("n", lambda: check_grid(value, "n")),
    ]:
        if ok:
            assert check() == value
        else:
            message = rf"^{library_source} must be between 2 and {MAX_GRID_POINTS}, got {value}$"
            with pytest.raises(ValueError, match=message):
                check()


def test_cached_parser_keeps_no_state_between_calls(capsys):
    assert build_parser() is build_parser()
    argv = ["measure", "--channel", "ad", "--set", "gamma=0.25"]
    code, out, _ = run_cli(capsys, *argv, "--domain", "all-pairs")
    assert code == 0
    all_pairs = json.loads(out)["mu"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["mu"] != all_pairs  # the default domain, probe
    # a usage error leaves nothing behind for the next call
    assert run_cli(capsys, "measure", "--channel", "ad", "--bogus")[0] == 2
    code, out, _ = run_cli(capsys, *argv, "--domain", "all-pairs")
    assert code == 0 and json.loads(out)["mu"] == all_pairs
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
    for params in dict(VALIDATION_POINTS)["gdc"]:
        weights = list(params.values())
        assert list(params) == ["p0", "p1", "p2", "p3"]
        assert weights == sorted(weights, reverse=True)
        assert abs(sum(weights) - 1.0) < 1e-12


def test_validation_rows_do_not_depend_on_the_grid():
    # Every validate point is unital or axial, so each probe solve is exact in one evaluation.
    for label, points in VALIDATION_POINTS:
        for params in points:
            channel = make_channel(label, params)
            assert maximize_mu(channel, OptimizerConfig(2)) == maximize_mu(channel)
    report = run_validation()
    assert report.asserted == 34 and len(report.rows) == 40


def test_validation_report_library_entry():
    report = run_validation(tolerance=1e-4)
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


def test_all_pairs_outputs_leave_the_closed_form_empty(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "measure", "--channel", "ad", "--set", "gamma=0.25", "--domain", "all-pairs")
    doc = json.loads(out)
    assert code == 0 and doc["closed_form"] is None and doc["abs_error"] is None
    out_path = tmp_path / "ad.csv"
    argv = ["sweep", "--channel", "ad", "--sweep", "gamma=0:1:0.5", "--domain", "all-pairs", "--out", str(out_path)]
    assert run_cli(capsys, *argv)[0] == 0
    rows = list(csv.reader(io.StringIO(out_path.read_text())))[1:]
    assert len(rows) == 3 and all(row[2:] == ["", "", ""] for row in rows)


def test_kernel_sweep_without_parameters_names_both(tmp_path, capsys):
    out_path = tmp_path / "rtn.csv"
    code, out, err = run_cli(capsys, "sweep", "--channel", "rtn", "--sweep", "t=0:1:0.5", "--out", str(out_path))
    assert code == 2 and out == "" and err == "error: kernel rtn-damped is missing parameter(s): gamma, b\n"
    assert not out_path.exists()
