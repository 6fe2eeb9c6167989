"""Spans recorded around qchan's layer boundaries, from outside the package.

A :class:`Tracer` replaces module attributes with wrappers for the duration of
a ``with`` block and puts the originals back on exit. Each wrapper records a
span (name, parent span, start, end) plus a few counts read off the call's
result. A span's self time is its duration minus the durations of its child
spans; calls are sequential, so children never overlap.

A target whose module attribute no longer exists is skipped, and the metrics
that depend on it are left out of :func:`layer_metrics` rather than raised.
"""

from __future__ import annotations

import dataclasses
import functools
import statistics
import time
from collections import defaultdict

import qchan

# (owner attribute path under qchan, attribute, span name). One span name may
# cover several attributes: cli imports maximize_mu by name, so the same
# function is reached through cli and through optimize.
SOLVE_TARGETS = (
    ("cli", "maximize_mu", "optimize.maximize_mu"),
    ("optimize", "maximize_mu", "optimize.maximize_mu"),
    ("optimize", "brute_force_mu", "optimize.brute_force_mu"),
)
LAYER_TARGETS = SOLVE_TARGETS + (
    ("cli", "main", "cli.main"),
    ("cli", "make_channel", "channels.construct"),
    ("cli", "builtin_kernel", "channels.kernel"),
    ("cli", "write_sweep_csv", "cli.write_csv"),
    ("optimize", "bloch_map", "channels.bloch_map"),
    ("optimize", "closed_form_mu", "measures.closed_form"),
    ("optimize._sciopt", "minimize", "optimize.refine"),
)


@dataclasses.dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    counts: dict = dataclasses.field(default_factory=dict)
    scale: float = 1.0  # to reference host speed, see calibrate.Timer

    @property
    def seconds(self) -> float:
        return (self.end - self.start) * self.scale


def _resolve(path: str):
    owner = qchan
    for part in path.split("."):
        owner = getattr(owner, part, None)
    return owner


class Tracer:
    """Records spans around ``targets`` while the ``with`` block runs."""

    def __init__(self, targets=SOLVE_TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.installed: set[str] = set()
        self._stack: list[int] = []
        self._saved: list = []

    def __enter__(self) -> "Tracer":
        for owner_path, attr, name in self.targets:
            owner = _resolve(owner_path)
            original = getattr(owner, attr, None)
            if not callable(original):
                continue
            setattr(owner, attr, self._wrap(original, name))
            self._saved.append((owner, attr, original))
            self.installed.add(name)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            return self._observe(span, result)

        return traced

    def _observe(self, span: Span, result):
        if span.name == "optimize.maximize_mu":
            span.counts["evaluations"] = getattr(result, "evaluations", None)
            span.counts["converged"] = getattr(result, "converged", None)
        elif span.name == "optimize.refine":
            span.counts["nfev"] = getattr(result, "nfev", None)
        elif span.name == "channels.kernel" and dataclasses.is_dataclass(result) and hasattr(result, "evaluate"):
            # The kernel is evaluated after builtin_kernel returns; time that too.
            return dataclasses.replace(result, evaluate=self._wrap(result.evaluate, span.name))
        return result

    def rescale(self, scale_at) -> None:
        """Express span times at reference speed; ``scale_at(t)`` gives the
        scale in force at perf_counter time ``t``."""
        for s in self.spans:
            s.scale = scale_at(s.start)

    def durations(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name]


def layer_metrics(tracer: Tracer, pass_seconds: float) -> dict[str, float]:
    """Per-layer totals for one traced pass, times in microseconds."""
    total = defaultdict(float)
    calls = defaultdict(int)
    self_time = defaultdict(float)
    for s in tracer.spans:
        total[s.name] += s.seconds
        calls[s.name] += 1
        self_time[s.name] += s.seconds
        if s.parent is not None:
            self_time[tracer.spans[s.parent].name] -= s.seconds

    def counted(name, key):
        values = [s.counts.get(key) for s in tracer.spans if s.name == name]
        return None if any(v is None for v in values) else values

    out = {}

    def put(metric, span_name, value):
        if span_name in tracer.installed and value is not None:
            out[metric] = value

    us = 1e6
    put("optimize.refine_us", "optimize.refine", total["optimize.refine"] * us)
    put("optimize.refine_share", "optimize.refine", total["optimize.refine"] / pass_seconds)
    nfev = counted("optimize.refine", "nfev")
    put("optimize.refine_nfev", "optimize.refine", None if nfev is None else sum(nfev))
    put("optimize.grid_self_us", "optimize.maximize_mu", self_time["optimize.maximize_mu"] * us)
    put("optimize.oracle_us", "optimize.brute_force_mu", total["optimize.brute_force_mu"] * us)
    put("optimize.solve_us", "optimize.maximize_mu", total["optimize.maximize_mu"] * us)
    evaluations = counted("optimize.maximize_mu", "evaluations")
    put("optimize.evaluations", "optimize.maximize_mu", None if evaluations is None else sum(evaluations))
    converged = counted("optimize.maximize_mu", "converged")
    if converged:
        put("optimize.converged_frac", "optimize.maximize_mu", sum(map(bool, converged)) / len(converged))
    put("channels.construct_us", "channels.construct", total["channels.construct"] * us)
    put("channels.construct_calls", "channels.construct", calls["channels.construct"])
    put("channels.bloch_map_us", "channels.bloch_map", total["channels.bloch_map"] * us)
    put("channels.bloch_map_calls", "channels.bloch_map", calls["channels.bloch_map"])
    put("channels.kernel_us", "channels.kernel", total["channels.kernel"] * us)
    put("cli.write_csv_us", "cli.write_csv", total["cli.write_csv"] * us)
    put("cli.self_us", "cli.main", self_time["cli.main"] * us)
    put("measures.closed_form_us", "measures.closed_form", total["measures.closed_form"] * us)
    return out


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over passes; a metric missing from any pass is dropped."""
    names = set.intersection(*(set(s) for s in samples)) if samples else set()
    return {n: statistics.median(s[n] for s in samples) for n in names}
