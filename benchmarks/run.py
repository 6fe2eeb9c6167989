"""Run one qchan benchmark workload and print its metrics.

From the repository root:

    python3 benchmarks/run.py --workload validate --seed 1 --seconds 20 --trace 0

The workload runs in this process against the package under ``src/``: one
untimed warm-up pass, which is also the reference for the byte-identity
checks, then timed passes until ``--seconds`` have passed. Every pass is
checked outside its timed region. ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics. The lines before the last describe
the run and its metrics in words; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# BLAS threads are pinned before numpy loads; the setup subprocesses inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 5
MIN_PASSES = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def tail(samples):
    """(percentile, value, samples beyond it) for the highest percentile in
    TAIL_PERCENTILES with at least ten samples beyond it, nearest rank."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= 10:
            return p, ordered[rank - 1], n - rank
    return None


def provenance(args):
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as stream:
            cpu = next((line.split(":", 1)[1].strip() for line in stream if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def measure_setup(workload, seed, workdir):
    """Median over SETUP_REPEATS of a fresh interpreter's ``import qchan`` plus
    building the workload's inputs, at reference speed; returns (seconds, inputs)."""
    from calibrate import Timer

    env = dict(os.environ, PYTHONPATH=str(SRC))

    def once():
        subprocess.run([sys.executable, "-c", "import qchan"], env=env, cwd=ROOT, check=True)
        return workload.build(seed, workdir)

    samples = []
    for _ in range(SETUP_REPEATS):
        timer = Timer()
        inputs = timer.segment(once)
        samples.append(timer.seconds)
    return statistics.median(samples), inputs


def run(args, workload, workdir):
    from calibrate import Timer
    from spans import LAYER_TARGETS, Tracer, layer_metrics, median_metrics
    from workloads import Checks

    checks = Checks()
    setup_s = None
    if args.trace:
        inputs = workload.build(args.seed, workdir)
    else:
        setup_s, inputs = measure_setup(workload, args.seed, workdir)

    reference = workload.run_pass(inputs, Timer())
    workload.check(inputs, reference, reference, checks)
    workload.oracle_checks(reference, checks)

    # (output, tracer, timer) per timed pass
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(plain) < MIN_PASSES:
        for layered in (False, True) if args.trace else (False,):
            tracer, timer = Tracer(LAYER_TARGETS) if layered else Tracer(), Timer()
            with tracer:
                out = workload.run_pass(inputs, timer)
            tracer.rescale(timer.scale_at)
            workload.check(inputs, out, reference, checks)
            (traced if layered else plain).append((out, tracer, timer))

    wall_s = statistics.median(timer.seconds for _, _, timer in plain)
    computed = {"wall_s": wall_s}
    extra = {
        "passes": len(plain),
        "raw_wall_s": statistics.median(timer.raw_seconds for _, _, timer in plain),
        "host_speed": statistics.median(timer.seconds / timer.raw_seconds for _, _, timer in plain),
    }
    if setup_s is not None:
        computed["setup_s"] = setup_s
        computed["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for name, span in (("solve", "optimize.maximize_mu"), ("oracle", "optimize.brute_force_mu")):
        samples = [d * 1e3 for _, tracer, _ in plain for d in tracer.durations(span)]
        if samples:
            computed[f"{name}_p50_ms"] = statistics.median(samples)
            extra[f"{name}_calls"] = len(samples)
            high = tail(samples)
            if high:
                extra[f"{name}_p{high[0]:g}_ms"] = high[1]
                extra[f"{name}_p{high[0]:g}_beyond"] = high[2]
    if traced:
        computed.update(median_metrics([layer_metrics(tracer, timer.seconds) for _, tracer, timer in traced]))
        computed["cli.output_bytes"] = statistics.median(out.output_bytes for out, _, _ in traced)
        computed["measures.max_abs_error"] = checks.max_abs_error
        computed["measures.oracle_margin"] = checks.oracle_margin
        computed["trace_overhead"] = statistics.median(timer.seconds for _, _, timer in traced) - wall_s
        extra["traced_passes"] = len(traced)
    extra["failed_frac"] = checks.failed / checks.attempted
    return checks, computed, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qchan" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: run from a qchan checkout; {SRC / 'qchan'} or {SPEC} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qchan

    if Path(qchan.__file__).resolve().parent != SRC / "qchan":
        print(f"error: imported qchan from {qchan.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (available: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    print("provenance " + json.dumps(provenance(args)))
    with tempfile.TemporaryDirectory(prefix=".run-", dir=BENCH_DIR) as workdir:
        checks, computed, extra = run(args, WORKLOADS[args.workload], Path(workdir))

    metrics = {}
    for m in declared:
        if m["name"] in computed:
            metrics[m["name"]] = {"value": computed[m["name"]], "unit": m["unit"]}
            print(f"{m['name']:<28} {computed[m['name']]:<14.6g} {m['unit']}")
        else:
            print(f"{m['name']:<28} absent")
    names = {m["name"] for m in declared}
    extra = {**{k: v for k, v in computed.items() if k not in names}, **extra}
    for name, value in extra.items():
        unit = "ms" if name.endswith("_ms") else "s" if name.endswith("_s") else ""
        print(f"{name:<28} {value:<14.6g} {unit}".rstrip())
    for failure in checks.failures[:20]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
