"""Command-line front end: measure, sweep, validate, visibility.

Exit codes: 0 success (validate: all rows pass), 1 validation failure,
2 usage error, 3 runtime or I/O failure.

Environment: QCHAN_DEFAULT_GRID overrides the default grid size (24); the
``--grid`` flag wins over the environment.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Optional

from .channels import CHANNELS, apply, builtin_kernel, make_channel
from .measures import visibilities
from .optimize import DOMAIN_PROBE, DOMAINS, MAX_GRID_POINTS, OptimizerConfig, maximize_mu
from .states import max_noncommuting_pair

DEFAULT_GRID = 24
GRID_ENV_VAR = "QCHAN_DEFAULT_GRID"
# Largest sweep; SweepSpec rejects a longer one before building its points.
MAX_SWEEP_POINTS = 10**6

@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep over a channel; kernel_choice applies to rtn/nmd time sweeps."""

    channel_label: str
    fixed_params: Mapping[str, float]
    sweep_param: str
    start: float
    stop: float
    step: float
    kernel_choice: Optional[str] = None

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.start, self.stop, self.step)):
            raise ValueError("sweep start, stop and step must be finite")
        if self.step <= 0.0:
            raise ValueError("sweep step must be positive")
        if self.start > self.stop:
            raise ValueError("sweep start must not exceed stop")
        if not math.isfinite((self.stop - self.start) / self.step) or self.count() > MAX_SWEEP_POINTS:
            raise ValueError(f"sweep has too many points: at most {MAX_SWEEP_POINTS} allowed")
        if self.sweep_param in self.fixed_params:
            raise ValueError(f"sweep parameter {self.sweep_param!r} also given via --set")
        object.__setattr__(self, "fixed_params", dict(self.fixed_params))

    def count(self) -> int:
        """Number of sweep points, computed without building them."""
        return int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1

    def values(self) -> list[float]:
        vals = [self.start + i * self.step for i in range(self.count())]
        if vals and vals[-1] > self.stop:
            # accumulated rounding may overshoot the endpoint
            vals[-1] = self.stop
        return vals


class SweepRow(NamedTuple):
    """One sweep point; the field order is the CSV column order."""

    value: float
    mu_numeric: float
    mu_closed_form: Optional[float]
    abs_error: Optional[float]
    kernel_value: Optional[float]


def run_sweep(spec: SweepSpec, cfg: OptimizerConfig) -> list[SweepRow]:
    """Evaluate every sweep point in turn; rows follow ascending sweep values."""
    entry = CHANNELS.get(spec.channel_label)
    if entry is None or spec.sweep_param not in entry.params + (entry.kernel_param,):
        raise ValueError(
            f"cannot sweep {spec.sweep_param!r} for channel {spec.channel_label!r}"
        )
    kernel = None
    if spec.sweep_param == entry.kernel_param:
        kernel = builtin_kernel(spec.kernel_choice or entry.default_kernel, spec.fixed_params)
    elif spec.kernel_choice is not None:
        raise ValueError(f"--kernel applies only to kernel sweeps (t for rtn, p for nmd), not to {spec.sweep_param!r}")
    rows = []
    for value in spec.values():
        if kernel is None:
            kernel_value = None
            params = {**spec.fixed_params, spec.sweep_param: value}
        else:
            kernel_value = kernel.evaluate(value)
            params = {entry.params[0]: kernel_value}
        result = maximize_mu(make_channel(spec.channel_label, params), cfg)
        rows.append(SweepRow(value, result.mu, result.closed_form, result.abs_error, kernel_value))
    return rows


def _fmt(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.17g}"


def write_sweep_csv(spec: SweepSpec, rows: list[SweepRow], stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow((spec.sweep_param,) + SweepRow._fields[1:])
    for row in rows:
        writer.writerow([_fmt(v) for v in row])


class ValidationRow(NamedTuple):
    """One channel/parameter point; the fields are the ``validate --out`` JSON keys.

    passed is None for informational rows.
    """

    channel: str
    params: dict[str, float]
    mu_numeric: float
    mu_closed_form: Optional[float]
    abs_error: Optional[float]
    passed: Optional[bool]


@dataclass(frozen=True)
class ValidationReport:
    rows: tuple
    tolerance: float
    overall_pass: bool = field(init=False)

    def __post_init__(self):
        asserted = [r.passed for r in self.rows if r.passed is not None]
        object.__setattr__(self, "overall_pass", all(asserted) if asserted else False)


_PI = math.pi

VALIDATION_GRID = (
    ("rtn", "lambda", (0.0, 0.25, 0.5, 0.75, 1.0)),
    ("nmd", "omega", (0.0, 0.25, 0.5, 0.75, 1.0)),
    ("pd", "gamma", (0.0, 0.25, 0.5, 0.75, 1.0)),
    ("ad", "gamma", (0.0, 0.25, 0.5, 0.75, 1.0)),
    ("unruh", "r", (0.0, _PI / 8.0, _PI / 6.0, _PI / 4.0)),
)

# Ten generalized-depolarizing weight vectors; the gdc closed form holds for
# every order of the weights.
GDC_VALIDATION_WEIGHTS = (
    (1.0, 0.0, 0.0, 0.0),
    (0.25, 0.25, 0.25, 0.25),
    (0.7, 0.1, 0.1, 0.1),
    (0.85, 0.05, 0.05, 0.05),
    (0.4, 0.2, 0.2, 0.2),
    (0.55, 0.15, 0.15, 0.15),
    (0.5, 0.3, 0.1, 0.1),
    (0.6, 0.2, 0.1, 0.1),
    (0.4, 0.3, 0.2, 0.1),
    (0.45, 0.25, 0.2, 0.1),
)

GAD_INFO_GRID = tuple(
    {"alpha": a, "xi": x} for a in (0.5, 1.0) for x in (0.3, 0.6, 0.9)
)


def run_validation(tolerance: float = 1e-4, grid_points_per_angle: int = DEFAULT_GRID) -> ValidationReport:
    """Maximize mu over the fixed reference parameter grid and compare closed forms.

    A row passes when its error against the closed form is within
    ``tolerance``. Rows of a channel with no closed form (gad) are
    informational: ``passed`` and the closed-form cells are None, and they
    are excluded from overall_pass.
    """
    if not 0.0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance!r}")
    cfg = OptimizerConfig(grid_points_per_angle=grid_points_per_angle)
    points = [(label, {name: value}) for label, name, values in VALIDATION_GRID for value in values]
    points += [("gdc", {f"p{i}": w for i, w in enumerate(weights)}) for weights in GDC_VALIDATION_WEIGHTS]
    points += [("gad", params) for params in GAD_INFO_GRID]
    rows = []
    for label, params in points:
        result = maximize_mu(make_channel(label, params), cfg)
        passed = None if result.closed_form is None else result.abs_error <= tolerance
        rows.append(ValidationRow(label, params, result.mu, result.closed_form, result.abs_error, passed))
    return ValidationReport(rows=tuple(rows), tolerance=tolerance)


def _parse_set(text: Optional[str]) -> dict[str, float]:
    if not text:
        return {}
    params: dict[str, float] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"--set entries must look like name=value, got {item!r}")
        name, _, raw = item.partition("=")
        name = name.strip()
        if name in params:
            raise ValueError(f"duplicate parameter {name!r} in --set")
        try:
            params[name] = float(raw)
        except ValueError:
            raise ValueError(f"parameter {name!r} has non-numeric value {raw!r}") from None
    return params


def _parse_sweep(text: str) -> tuple[str, float, float, float]:
    name, _, spec = text.partition("=")
    parts = spec.split(":")
    if not name or len(parts) != 3:
        raise ValueError("--sweep must look like name=start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"non-numeric sweep bounds in {text!r}") from None
    return name.strip(), start, stop, step


def _resolve_grid(flag_value: Optional[int]) -> int:
    value, source = flag_value, "--grid"
    if value is None:
        env = os.environ.get(GRID_ENV_VAR)
        if env is None:
            return DEFAULT_GRID
        try:
            value, source = int(env), GRID_ENV_VAR
        except ValueError:
            raise ValueError(f"{GRID_ENV_VAR} must be an integer, got {env!r}") from None
    if not 2 <= value <= MAX_GRID_POINTS:
        raise ValueError(f"{source} must be between 2 and {MAX_GRID_POINTS}, got {value}")
    return value


def _optimizer_config(args) -> OptimizerConfig:
    return OptimizerConfig(
        grid_points_per_angle=_resolve_grid(args.grid),
        domain=args.domain,
    )


def _result_document(args, channel, result) -> dict:
    return {
        "channel": channel.label,
        "params": dict(channel.params),
        "domain": args.domain,
        "mu": result.mu,
        "argmax_params": result.argmax_params._asdict(),
        "closed_form": result.closed_form,
        "abs_error": result.abs_error,
        "evaluations": result.evaluations,
        "converged": result.converged,
    }


def _cmd_measure(args) -> int:
    channel = make_channel(args.channel, _parse_set(args.set))
    result = maximize_mu(channel, _optimizer_config(args))
    print(json.dumps(_result_document(args, channel, result), indent=2))
    return 0


def _cmd_sweep(args) -> int:
    name, start, stop, step = _parse_sweep(args.sweep)
    spec = SweepSpec(
        channel_label=args.channel,
        fixed_params=_parse_set(args.set),
        sweep_param=name,
        start=start,
        stop=stop,
        step=step,
        kernel_choice=args.kernel,
    )
    rows = run_sweep(spec, _optimizer_config(args))
    if args.format == "csv":
        with open(args.out, "w", newline="") as stream:
            write_sweep_csv(spec, rows, stream)
    else:
        document = {
            "channel": spec.channel_label,
            "sweep_param": spec.sweep_param,
            "fixed_params": dict(spec.fixed_params),
            "kernel": spec.kernel_choice,
            "domain": args.domain,
            "rows": [row._asdict() for row in rows],
        }
        with open(args.out, "w") as stream:
            json.dump(document, stream, indent=2)
            stream.write("\n")
    return 0


def _params_text(params: Mapping[str, float]) -> str:
    return ", ".join(f"{k}={v:g}" for k, v in params.items())


def _cmd_validate(args) -> int:
    report = run_validation(tolerance=args.tol, grid_points_per_angle=_resolve_grid(args.grid))
    header = f"{'channel':<8} {'params':<40} {'mu_numeric':<22} {'closed_form':<22} {'abs_error':<12} status"
    print(header)
    print("-" * len(header))
    for row in report.rows:
        status = "info" if row.passed is None else ("pass" if row.passed else "FAIL")
        closed = "" if row.mu_closed_form is None else f"{row.mu_closed_form:.12g}"
        err = "" if row.abs_error is None else f"{row.abs_error:.3e}"
        print(
            f"{row.channel:<8} {_params_text(row.params):<40} "
            f"{row.mu_numeric:<22.12g} {closed:<22} {err:<12} {status}"
        )
    asserted = [r for r in report.rows if r.passed is not None]
    verdict = "PASS" if report.overall_pass else "FAIL"
    print(
        f"overall: {verdict} (tolerance={report.tolerance:g}, "
        f"asserted rows={len(asserted)}, informational rows={len(report.rows) - len(asserted)})"
    )
    if args.out:
        payload = {
            "tolerance": report.tolerance,
            "overall_pass": report.overall_pass,
            "rows": [row._asdict() for row in report.rows],
        }
        with open(args.out, "w") as stream:
            json.dump(payload, stream, indent=2)
            stream.write("\n")
    return 0 if report.overall_pass else 1


def _cmd_visibility(args) -> int:
    channel = make_channel(args.channel, _parse_set(args.set))
    if not (math.isfinite(args.x) and math.isfinite(args.phi)):
        raise ValueError("probe angles must be finite")
    rho_a, rho_b = max_noncommuting_pair(args.x, args.phi)
    pair = visibilities(apply(channel, rho_a), apply(channel, rho_b))
    document = {
        "channel": channel.label,
        "params": dict(channel.params),
        "x": args.x,
        "phi": args.phi,
        "v1": pair.v1,
        "v2": pair.v2,
        "measure": 4.0 * (pair.v1 - pair.v2),
    }
    print(json.dumps(document, indent=2))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qchan",
        description="Commutator-based quantumness of qubit channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, domain=True):
        p.add_argument("--channel", required=True, help=f"channel label ({', '.join(CHANNELS)})")
        p.add_argument("--set", default="", metavar="k=v[,k=v...]", help="channel/kernel parameters")
        if domain:
            p.add_argument("--grid", type=int, default=None, help=f"grid points per angle (default {DEFAULT_GRID}, env {GRID_ENV_VAR})")
            p.add_argument("--seed", type=int, default=0, help="accepted for compatibility; no effect")
            p.add_argument(
                "--domain",
                choices=tuple(DOMAINS),
                default=DOMAIN_PROBE,
                help="probe: maximally noncommuting inputs (matches the analytic closed forms); "
                "all-pairs: unrestricted pure-state maximization",
            )

    p_measure = sub.add_parser("measure", help="maximize mu for one channel")
    add_common(p_measure)
    p_measure.set_defaults(func=_cmd_measure)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter and write rows to a file")
    add_common(p_sweep)
    p_sweep.add_argument("--sweep", required=True, metavar="k=start:stop:step")
    p_sweep.add_argument("--kernel", default=None, help="kernel for rtn/nmd time sweeps (rtn-damped, nmd-linear)")
    p_sweep.add_argument("--out", required=True, help="output file path")
    p_sweep.add_argument("--format", choices=("csv", "structured"), default="csv")
    p_sweep.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; no effect, points run serially")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_validate = sub.add_parser("validate", help="compare numerical maxima against closed forms")
    p_validate.add_argument("--tol", type=float, default=1e-4)
    p_validate.add_argument("--grid", type=int, default=None)
    p_validate.add_argument("--seed", type=int, default=0, help="accepted for compatibility; no effect")
    p_validate.add_argument("--out", default=None, help="optional JSON report path")
    p_validate.set_defaults(func=_cmd_validate)

    p_vis = sub.add_parser("visibility", help="visibilities of the probe pair after the channel")
    add_common(p_vis, domain=False)
    p_vis.add_argument("--x", type=float, default=0.0, help="probe polar angle")
    p_vis.add_argument("--phi", type=float, default=0.0, help="probe azimuthal angle")
    p_vis.set_defaults(func=_cmd_visibility)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
