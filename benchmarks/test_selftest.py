"""Self-test of the benchmark: its checks fire on corrupted outputs, every
declared metric is emitted with its unit, and a directory without the program
is refused.

    python3 -m pytest benchmarks/test_selftest.py -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import qchan  # noqa: E402
from calibrate import Timer  # noqa: E402
from spans import LAYER_TARGETS, SOLVE_TARGETS, Tracer, layer_metrics  # noqa: E402
from workloads import RANDOM_CHANNELS, WORKLOADS, Checks, PassOutput  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _failures(workload, inputs, output, reference):
    checks = Checks()
    workload.check(inputs, output, reference, checks)
    return checks.failures


def _flip_byte(data: bytes, index: int) -> bytes:
    return data[:index] + bytes([data[index] ^ 1]) + data[index + 1 :]


def _with_written(output, written):
    code, text, _ = output.data
    return PassOutput(output.output_bytes, (code, text, written))


def test_validate_checks_fire(tmp_path):
    w = WORKLOADS["validate"]
    inputs = w.build(0, tmp_path)
    ref = w.run_pass(inputs, Timer())
    assert _failures(w, inputs, ref, ref) == []

    doc = json.loads(ref.data[2])
    row = next(r for r in doc["rows"] if r["passed"])
    row["mu_numeric"] += 1e-3
    bad = _with_written(ref, (json.dumps(doc, indent=2) + "\n").encode())
    # Judged against itself, so only the closed-form check can catch it.
    assert any("error" in f for f in _failures(w, inputs, bad, bad))

    code, text, written = ref.data
    flipped = PassOutput(ref.output_bytes, (code, _flip_byte(text, len(text) // 2), written))
    assert any("stdout" in f for f in _failures(w, inputs, flipped, ref))
    flipped = _with_written(ref, _flip_byte(written, len(written) // 2))
    assert any("JSON differs" in f for f in _failures(w, inputs, flipped, ref))


def test_sweep_checks_fire(tmp_path):
    w = WORKLOADS["rtn-sweep"]
    inputs = w.build(0, tmp_path)
    ref = w.run_pass(inputs, Timer())
    assert _failures(w, inputs, ref, ref) == []

    written = ref.data[2]
    flipped = _with_written(ref, _flip_byte(written, len(written) // 2))
    assert any("CSV differs" in f for f in _failures(w, inputs, flipped, ref))

    lines = written.decode().splitlines(keepends=True)
    fields = lines[5].split(",")
    fields[1] = repr(float(fields[1]) + 1e-3)
    lines[5] = ",".join(fields)
    bad = _with_written(ref, "".join(lines).encode())
    assert any("kernel^2" in f for f in _failures(w, inputs, bad, bad))


def test_all_pairs_checks_fire(tmp_path):
    w = WORKLOADS["all-pairs"]
    channels = w.build(7, tmp_path)
    assert sum(ch.label == "random" for ch in channels) >= 1
    ref = w.run_pass(channels, Timer())
    assert _failures(w, channels, ref, ref) == []

    results = list(ref.data)
    result, oracle = results[-1]
    results[-1] = (dataclasses.replace(result, mu=result.mu + 1e-3), oracle)
    bad = PassOutput(0, results)
    assert any("definition route" in f for f in _failures(w, channels, bad, bad))


def test_random_channels_follow_the_seed(tmp_path):
    w = WORKLOADS["all-pairs"]
    first, again, other = ([ch for ch in w.build(s, tmp_path) if ch.label == "random"] for s in (3, 3, 4))
    assert len(first) == RANDOM_CHANNELS and all(len(ch.ops) == 3 for ch in first)
    assert all(np.array_equal(a, b) for x, y in zip(first, again) for a, b in zip(x.ops, y.ops))
    assert not np.array_equal(first[0].ops[0], other[0].ops[0])


def test_tracer_restores_attributes_and_skips_missing_targets():
    owners = {"cli": qchan.cli, "optimize": qchan.optimize, "optimize._sciopt": qchan.optimize._sciopt}
    before = {(o, a): getattr(owners[o], a) for o, a, _ in LAYER_TARGETS}
    with Tracer(LAYER_TARGETS):
        qchan.cli.main(["measure", "--channel", "pd", "--set", "gamma=0.25"])
    assert all(getattr(owners[o], a) is fn for (o, a), fn in before.items())

    missing = SOLVE_TARGETS + (("optimize", "no_such_function", "optimize.refine"),)
    with Tracer(missing) as tracer:
        qchan.optimize.maximize_mu(qchan.pd(0.25))
    assert "optimize.refine" not in tracer.installed
    metrics = layer_metrics(tracer, 1.0)
    assert "optimize.solve_us" in metrics and "optimize.refine_us" not in metrics


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in declared
    }
    for m in declared:
        assert f"{m['name']} " in done.stdout


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__", ".run-*"))
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "validate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
