"""Call-site tracing for the benchmark's traced pass.

Timing wrappers are installed on the names through which spawncphd modules
call one another (for example ``spawncphd.filtering.reduce_mixture``, the
name `update` calls), so the program itself is not edited. Each wrapped call
becomes one span: name, start, end, parent span and paired-run id, plus a few
counts read from its arguments and result. Spans stay in memory until the
pass ends; `layer_metrics` then turns them into per-layer numbers.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module whose global name is replaced, that name, module defining the function)
CALL_SITES = (
    ("spawncphd.experiment", "run_one", "spawncphd.experiment"),
    ("spawncphd.experiment", "generate_truth", "spawncphd.sim"),
    ("spawncphd.experiment", "generate_measurements", "spawncphd.sim"),
    ("spawncphd.experiment", "predict_spawning", "spawncphd.filtering"),
    ("spawncphd.experiment", "predict_birth", "spawncphd.filtering"),
    ("spawncphd.experiment", "update", "spawncphd.filtering"),
    ("spawncphd.experiment", "extract_estimates", "spawncphd.filtering"),
    ("spawncphd.experiment", "ospa", "spawncphd.metrics"),
    ("spawncphd.experiment", "hellinger", "spawncphd.metrics"),
    ("spawncphd.filtering", "transform_mixture", "spawncphd.gaussian"),
    ("spawncphd.filtering", "spawn_intensity", "spawncphd.spawning"),
    ("spawncphd.filtering", "bell_coefficients", "spawncphd.spawning"),
    ("spawncphd.filtering", "predict_cardinality", "spawncphd.cardinality"),
    ("spawncphd.filtering", "binomial_thin", "spawncphd.cardinality"),
    ("spawncphd.filtering", "convolve_counts", "spawncphd.cardinality"),
    ("spawncphd.filtering", "poisson_pmf", "spawncphd.cardinality"),
    ("spawncphd.filtering", "reduce_mixture", "spawncphd.gaussian"),
)

RUN_SPAN = "experiment.run_one"
EXPERIMENT_SPAN = "experiment.run_experiment"


def span_name(owner: str, name: str) -> str:
    """`spawncphd.gaussian`, `reduce_mixture` -> `gaussian.reduce_mixture`."""
    return f"{owner.rsplit('.', 1)[-1]}.{name}"


def _scan_size(scan) -> int:
    return len(getattr(scan, "z", scan))


# Counts recorded per span; each takes the call's result followed by its arguments.
_ATTRS = {
    "gaussian.reduce_mixture": lambda out, mix, cfg: {
        "in": len(mix),
        "out": len(out),
        "capped": len(out) == cfg.max_components,
        "mass_dropped": mix.total_weight - out.total_weight,
    },
    "filtering.update": lambda out, state, scan, *a, **k: {
        "J": len(state.intensity),
        "M": _scan_size(scan),
    },
    "cardinality.predict_cardinality": lambda out, *a, **k: {
        "deficit": out.truncation_deficit
    },
    "spawning.bell_coefficients": lambda out, *a, **k: {"tail_mass": out.tail_mass},
    "sim.generate_measurements": lambda out, *a, **k: {
        "meas": [_scan_size(s) for s in out]
    },
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int | None
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _runs: int = 0

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as a span named `name`."""
        parent = self._stack[-1] if self._stack else None
        if name == RUN_SPAN:
            run = self._runs
            self._runs += 1
        else:
            run = self.spans[parent].run if parent is not None else None
        span = Span(name, 0.0, 0.0, parent, run)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        attrs = _ATTRS.get(name)
        if attrs is not None:
            span.attrs = attrs(out, *args, **kwargs)
        return out

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def dump(self, path) -> None:
        """Write every span as one JSON list: name, start, end, parent, run, attrs."""
        with open(path, "w") as fh:
            json.dump(
                [[s.name, s.start, s.end, s.parent, s.run, s.attrs] for s in self.spans],
                fh,
            )


class TraceSetupError(RuntimeError):
    """A listed call site is missing or no longer binds the expected function."""


def resolve_call_sites(sites=CALL_SITES) -> list:
    """(caller module, name, original function, span name) for every site.

    Refuses when a name is missing or is not the plain function its owner
    defines, so a rename or a stale wrapper cannot silently empty a layer.
    """
    resolved = []
    for caller, name, owner in sites:
        cmod = importlib.import_module(caller)
        omod = importlib.import_module(owner)
        current = getattr(cmod, name, None)
        expected = getattr(omod, name, None)
        if (
            current is None
            or current is not expected
            or not isinstance(current, types.FunctionType)
            or current.__module__ != owner
            or current.__name__ != name
        ):
            raise TraceSetupError(
                f"call site {caller}.{name} is missing or is not {owner}.{name}"
            )
        resolved.append((cmod, name, current, span_name(owner, name)))
    return resolved


@contextmanager
def installed(tracer: Tracer, sites=CALL_SITES):
    """Install span wrappers on every call site; restore all originals on exit."""
    resolved = resolve_call_sites(sites)
    try:
        for cmod, name, fn, span in resolved:
            setattr(cmod, name, tracer.wrap(span, fn))
        yield tracer
    finally:
        for cmod, name, fn, _ in resolved:
            setattr(cmod, name, fn)


def self_times(spans) -> list:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for a, b in sorted((spans[c].start, spans[c].end) for c in children[i]):
            a, b = max(a, cursor), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        out.append(s.duration - covered)
    return out


TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)


def tail(values) -> tuple:
    """(percentile, value) for the highest of TAIL_PERCENTILES that leaves at
    least ten samples above its nearest rank; (None, None) when none does."""
    v = sorted(values)
    n = len(v)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * n - 1e-9)  # nearest rank, 1-based
        if n - rank >= 10:
            return pct, v[rank - 1]
    return None, None


def step_times(spans) -> list:
    """Seconds per filter step: a predict span plus the update span after it
    under the same parent (one model at one scan)."""
    pending = {}
    steps = []
    for s in spans:
        if s.name in ("filtering.predict_spawning", "filtering.predict_birth"):
            pending[s.parent] = s.duration
        elif s.name == "filtering.update" and s.parent in pending:
            steps.append(pending.pop(s.parent) + s.duration)
    return steps


def layer_metrics(spans, model_scans: int, untraced_scan_rate: float) -> dict:
    """Per-layer numbers of one traced pass, as {name: (value, unit)}.

    Times and counts are per paired run (one `run_one` span); `model_scans`
    is the number of rows the traced pass wrote.
    """
    selfs = self_times(spans)
    total = defaultdict(float)
    total_self = defaultdict(float)
    by_name = defaultdict(list)
    for s, st in zip(spans, selfs):
        total[s.name] += s.duration
        total_self[s.name] += st
        by_name[s.name].append(s)
    runs = len(by_name[RUN_SPAN])
    if runs == 0:
        raise ValueError("traced pass recorded no paired run")

    red = [s.attrs for s in by_name["gaussian.reduce_mixture"]]
    upd = [s.attrs for s in by_name["filtering.update"]]
    red_in = sum(a["in"] for a in red)
    steps_ms = [1e3 * t for t in step_times(spans)]
    tail_pct, tail_ms = tail(steps_ms)
    meas = [m for s in by_name["sim.generate_measurements"] for m in s.attrs["meas"]]
    traced_rate = model_scans / total[RUN_SPAN]

    def per_run(x):
        return x / runs

    return {
        "gaussian.reduce_mixture.s": (per_run(total["gaussian.reduce_mixture"]), "s/run"),
        "gaussian.reduce_mixture.in": (red_in / max(len(red), 1), "count/call"),
        "gaussian.reduce_mixture.in_max": (max((a["in"] for a in red), default=0), "count"),
        "gaussian.reduce_mixture.keep_ratio": (
            sum(a["out"] for a in red) / max(red_in, 1), "ratio"),
        "gaussian.reduce_mixture.capped": (per_run(sum(a["capped"] for a in red)), "count/run"),
        "gaussian.reduce_mixture.mass_dropped": (
            per_run(sum(a["mass_dropped"] for a in red)), "mass/run"),
        "filtering.update.self_s": (per_run(total_self["filtering.update"]), "s/run"),
        "filtering.update.pairs": (per_run(sum(a["J"] * a["M"] for a in upd)), "count/run"),
        "filtering.update.keep_ratio": (
            red_in / max(sum(a["J"] * (a["M"] + 1) for a in upd), 1), "ratio"),
        "filtering.predict_spawning.self_s": (
            per_run(total_self["filtering.predict_spawning"]), "s/run"),
        "filtering.predict_birth.self_s": (
            per_run(total_self["filtering.predict_birth"]), "s/run"),
        "filtering.extract_estimates.s": (per_run(total["filtering.extract_estimates"]), "s/run"),
        "filtering.step_ms.p50": (statistics.median(steps_ms), "ms"),
        "filtering.step_ms.tail": (tail_ms, "ms"),
        "filtering.step_ms.tail_pct": (tail_pct, "%"),
        "filtering.step_ms.n": (len(steps_ms), "count"),
        "gaussian.transform_mixture.s": (per_run(total["gaussian.transform_mixture"]), "s/run"),
        "spawning.spawn_intensity.s": (per_run(total["spawning.spawn_intensity"]), "s/run"),
        "spawning.bell_coefficients.s": (per_run(total["spawning.bell_coefficients"]), "s/run"),
        "spawning.bell_coefficients.tail_mass": (
            max((s.attrs["tail_mass"] for s in by_name["spawning.bell_coefficients"]),
                default=0.0), "prob"),
        "cardinality.predict_cardinality.s": (
            per_run(total["cardinality.predict_cardinality"]), "s/run"),
        "cardinality.predict_cardinality.deficit": (
            max((s.attrs["deficit"] for s in by_name["cardinality.predict_cardinality"]),
                default=0.0), "prob"),
        "cardinality.binomial_thin.s": (per_run(total["cardinality.binomial_thin"]), "s/run"),
        "cardinality.convolve_counts.s": (per_run(total["cardinality.convolve_counts"]), "s/run"),
        "cardinality.poisson_pmf.s": (per_run(total["cardinality.poisson_pmf"]), "s/run"),
        "metrics.ospa.s": (per_run(total["metrics.ospa"]), "s/run"),
        "metrics.hellinger.s": (per_run(total["metrics.hellinger"]), "s/run"),
        "sim.generate_truth.s": (per_run(total["sim.generate_truth"]), "s/run"),
        "sim.generate_measurements.s": (per_run(total["sim.generate_measurements"]), "s/run"),
        "sim.meas_per_scan.p50": (statistics.median(meas), "count"),
        "experiment.run_one.self_s": (per_run(total_self[RUN_SPAN]), "s/run"),
        "experiment.run_experiment.self_s": (per_run(total_self[EXPERIMENT_SPAN]), "s/run"),
        "trace.overhead_frac": (untraced_scan_rate / traced_rate - 1.0, "ratio"),
    }
