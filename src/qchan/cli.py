"""Command-line front end: measure, sweep, validate, visibility.

Exit codes: 0 success (validate: all rows pass), 1 validation failure,
2 usage error, 3 runtime or I/O failure. ``--grid`` is the one source of the grid size
(default :data:`qchan.optimize.DEFAULT_GRID`).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional

from .channels import CHANNELS, KERNELS, apply, builtin_kernel, make_channel, make_channels
from .measures import visibilities
from .optimize import DEFAULT_GRID, DOMAIN_PROBE, DOMAINS, OptimizerConfig, check_grid, maximize_mu
from .states import max_noncommuting_pair

# Largest sweep; SweepSpec rejects a longer one before building its points.
MAX_SWEEP_POINTS = 10**6
# Sweep points per make_channels batch: batched intermediates take O(SWEEP_BLOCK) memory.
SWEEP_BLOCK = 4096

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
    """Evaluate every sweep point; rows follow ascending sweep values.

    The points go in blocks of ``SWEEP_BLOCK``: a kernel sweep evaluates each block's kernel values in one kernel call,
    and :func:`make_channels` builds each block's channels from arrays of their parameters. Each channel then gets one
    :func:`maximize_mu`.
    """
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
    values, rows = spec.values(), []
    for start in range(0, len(values), SWEEP_BLOCK):
        block = values[start : start + SWEEP_BLOCK]
        if kernel is None:
            kernel_values = [None] * len(block)
            points = [{**spec.fixed_params, spec.sweep_param: value} for value in block]
        else:
            kernel_values = kernel.evaluate(block).tolist()
            points = [{entry.params[0]: kernel_value} for kernel_value in kernel_values]
        channels = make_channels(spec.channel_label, points)
        for value, kernel_value, channel in zip(block, kernel_values, channels):
            result = maximize_mu(channel, cfg)
            rows.append(SweepRow(value, result.mu, result.closed_form, result.abs_error, kernel_value))
    return rows


# A sweep row with no empty cell, in one format.
_ROW_FORMAT = ",".join(["%.17g"] * len(SweepRow._fields))


def write_sweep_csv(spec: SweepSpec, rows: list[SweepRow], stream) -> None:
    """The sweep CSV in one write: the header, then one %-format per row of 17-digit floats, empty cells for None."""
    lines = [",".join((spec.sweep_param,) + SweepRow._fields[1:])]
    for row in rows:
        fmt = _ROW_FORMAT
        if None in row:  # this row's format, with its empty cells, on its other values
            fmt = ",".join(["" if v is None else "%.17g" for v in row])
            row = tuple([v for v in row if v is not None])
        lines.append(fmt % row)
    stream.write("\n".join(lines) + "\n")


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
    """Validation rows; ``asserted`` counts the rows with a closed form, and overall_pass needs one and all to pass."""

    rows: tuple
    tolerance: float

    @property
    def asserted(self) -> int:
        return sum(r.passed is not None for r in self.rows)

    @property
    def overall_pass(self) -> bool:
        return self.asserted > 0 and all(r.passed for r in self.rows if r.passed is not None)


def _family(label: str, *points: tuple) -> tuple[str, tuple]:
    """(label, points) with each point's values named in the family's ``params`` order."""
    return label, tuple(dict(zip(CHANNELS[label].params, values)) for values in points)


_QUARTERS = ((0.0,), (0.25,), (0.5,), (0.75,), (1.0,))
# The validate points, one family per entry. gdc's ten weight vectors are nonincreasing, though its closed form
# holds for every order of the weights; gad has no closed form, so its rows are informational.
VALIDATION_POINTS = (
    _family("rtn", *_QUARTERS),
    _family("nmd", *_QUARTERS),
    _family("pd", *_QUARTERS),
    _family("ad", *_QUARTERS),
    _family("unruh", (0.0,), (math.pi / 8.0,), (math.pi / 6.0,), (math.pi / 4.0,)),
    _family(
        "gdc", (1.0, 0.0, 0.0, 0.0), (0.25, 0.25, 0.25, 0.25), (0.7, 0.1, 0.1, 0.1), (0.85, 0.05, 0.05, 0.05),
        (0.4, 0.2, 0.2, 0.2), (0.55, 0.15, 0.15, 0.15), (0.5, 0.3, 0.1, 0.1), (0.6, 0.2, 0.1, 0.1),
        (0.4, 0.3, 0.2, 0.1), (0.45, 0.25, 0.2, 0.1),
    ),
    _family("gad", *((alpha, xi) for alpha in (0.5, 1.0) for xi in (0.3, 0.6, 0.9))),
)


def run_validation(tolerance: float = 1e-4) -> ValidationReport:
    """Maximize mu over :data:`VALIDATION_POINTS` and compare closed forms.

    A row passes when its error against the closed form is within
    ``tolerance``. Rows of a channel with no closed form (gad) are
    informational: ``passed`` and the closed-form cells are None, and they
    are excluded from overall_pass. Every point takes an exact probe solve
    (unital or axial) in one evaluation, so no grid size enters.
    """
    if not 0.0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance!r}")
    rows = []
    for label, points in VALIDATION_POINTS:
        for params, channel in zip(points, make_channels(label, points)):
            result = maximize_mu(channel)
            passed = None if result.closed_form is None else result.abs_error <= tolerance
            rows.append(ValidationRow(label, dict(params), result.mu, result.closed_form, result.abs_error, passed))
    return ValidationReport(rows=tuple(rows), tolerance=tolerance)


def _parse_set(text: Optional[str]) -> dict[str, float]:
    if not text:
        return {}
    params: dict[str, float] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, raw = item.partition("=")
        name = name.strip()
        if not name or "=" not in item:
            raise ValueError(f"--set entries must look like name=value, got {item!r}")
        if name in params:
            raise ValueError(f"duplicate parameter {name!r} in --set")
        try:
            params[name] = float(raw)
        except ValueError:
            raise ValueError(f"parameter {name!r} has non-numeric value {raw!r}") from None
    return params


def _parse_sweep(text: str) -> tuple[str, float, float, float]:
    name, _, spec = text.partition("=")
    name, parts = name.strip(), spec.split(":")
    if not name or len(parts) != 3:
        raise ValueError(f"--sweep must look like name=start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"non-numeric sweep bounds in {text!r}") from None
    return name, start, stop, step


def _optimizer_config(args) -> OptimizerConfig:
    return OptimizerConfig(check_grid(args.grid, "--grid"), args.domain)


def _write_json(document: dict, path: Optional[str] = None) -> None:
    """``document`` as JSON indented by 2 and a newline, to the file at ``path`` or else to stdout."""
    text = json.dumps(document, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as stream:
            stream.write(text)


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
    _write_json(_result_document(args, channel, result))
    return 0


def _cmd_sweep(args) -> int:
    sweep = _parse_sweep(args.sweep)  # (sweep_param, start, stop, step), in SweepSpec's field order
    spec = SweepSpec(args.channel, _parse_set(args.set), *sweep, args.kernel)
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
        _write_json(document, args.out)
    return 0


def _params_text(params: Mapping[str, float]) -> str:
    return ", ".join(f"{k}={v:g}" for k, v in params.items())


def _cmd_validate(args) -> int:
    report = run_validation(tolerance=args.tol)
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
    verdict = "PASS" if report.overall_pass else "FAIL"
    print(
        f"overall: {verdict} (tolerance={report.tolerance:g}, "
        f"asserted rows={report.asserted}, informational rows={len(report.rows) - report.asserted})"
    )
    if args.out:
        rows = [row._asdict() for row in report.rows]
        _write_json({"tolerance": report.tolerance, "overall_pass": report.overall_pass, "rows": rows}, args.out)
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
    _write_json(document)
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
            p.add_argument("--grid", type=int, default=DEFAULT_GRID, help=f"grid points per angle (default {DEFAULT_GRID})")
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
    p_sweep.add_argument("--kernel", default=None, help=f"kernel for rtn/nmd time sweeps ({', '.join(KERNELS)})")
    p_sweep.add_argument("--out", required=True, help="output file path")
    p_sweep.add_argument("--format", choices=("csv", "structured"), default="csv")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_validate = sub.add_parser("validate", help="compare numerical maxima against closed forms")
    p_validate.add_argument("--tol", type=float, default=1e-4)
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
