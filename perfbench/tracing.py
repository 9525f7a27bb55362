"""Spans for the traced run, recorded from the benchmark's own files.

Timing wrappers are installed on the public functions of the package where
the calling module looks them up (``montecarlo.fit``, ``cli.simulate``, ...),
so the program itself is unchanged.  Spans stay in memory and are written
out when the run ends.  A span records its name, start, end, parent and the
replication or panel it belongs to; ``kind`` separates the benchmark's own
structural spans (``command``, ``unit``) from wrapped calls (``call``).
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    kind: str
    start: float
    end: float = 0.0
    parent: int | None = None
    unit: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """In-memory span recorder that owns the wrappers it installs."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._installed = []

    def open(self, name, kind, unit=None, **attrs):
        parent = self._stack[-1] if self._stack else None
        outer = self.spans[parent].unit if parent is not None else None
        if unit is None:
            unit = outer
        elif outer is not None:
            unit = f"{outer}/{unit}"
        self.spans.append(Span(name, kind, time.perf_counter(), parent=parent,
                               unit=unit, attrs=attrs))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx):
        self.spans[idx].end = time.perf_counter()
        self._stack.remove(idx)

    @contextmanager
    def span(self, name, kind, unit=None, **attrs):
        idx = self.open(name, kind, unit=unit, **attrs)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    def wrap(self, module, attr, annotate=None, kind="call", unit_of=None):
        """Replace ``module.attr`` by a timing wrapper.

        ``annotate(args, kwargs, result)`` returns attributes stored on the
        span; ``unit_of(args)`` names the replication a ``unit`` span opens.
        A missing attribute is recorded, so its metrics read ``unmeasured``.
        """
        name = f"{module.__name__.rsplit('.', 1)[-1]}:{attr}"
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(name)
            return

        def wrapper(*args, **kwargs):
            unit = unit_of(args) if unit_of else None
            idx = self.open(name, kind, unit=unit)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(idx)
            if annotate is not None:
                self.spans[idx].attrs.update(annotate(args, kwargs, result))
            return result

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, original))

    def uninstall(self):
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def children(self):
        out = {i: [] for i in range(len(self.spans))}
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                out[s.parent].append(i)
        return out

    def self_seconds(self, idx, children):
        # children of one span run sequentially inside it, so their
        # durations add up to the part of the interval they cover
        return self.spans[idx].seconds - sum(self.spans[c].seconds
                                             for c in children[idx])

    def top_calls(self, idx, children):
        """Outermost ``call`` spans below span ``idx``."""
        found, todo = [], list(children[idx])
        while todo:
            c = todo.pop()
            if self.spans[c].kind == "call":
                found.append(c)
            else:
                todo.extend(children[c])
        return found

    def to_json(self):
        return [asdict(s) for s in self.spans]


def install(tracer, gen_k):
    """Wrap the public functions each module calls, where it looks them up."""
    from diffusionfa import cli, estimator, hypothesis_test, montecarlo

    def steps(args, kwargs, result):
        config = args[0]
        return {"steps": config.spec.n * config.substeps}

    def fit_info(args, kwargs, result):
        spec = args[1]
        return {"k": spec.k, "p": spec.p, "alt": spec.k != gen_k,
                "iterations": result.iterations, "converged": result.converged}

    def tests(args, kwargs, result):
        return {"tests": len(result.trail)}

    for attr, annotate in (("simulate", steps), ("realised_cov", None),
                           ("fit", fit_info), ("chi2_quantile", None),
                           ("theoretical_sd_table", None), ("figure_data", None)):
        tracer.wrap(montecarlo, attr, annotate)
    # one replication per call; it has no public function of its own
    tracer.wrap(montecarlo, "_replicate", kind="unit",
                unit_of=lambda args: f"r{args[1]}")
    for attr in ("weight_matrix", "solve_weight", "sigma_of_theta",
                 "sigma_gradient_stack", "delta_jacobian"):
        tracer.wrap(estimator, attr)
    for attr, annotate in (("fit", fit_info), ("chi2_quantile", None),
                           ("chi2_sf", None)):
        tracer.wrap(hypothesis_test, attr, annotate)
    for attr, annotate in (("simulate", steps), ("realised_cov", None),
                           ("fit", fit_info), ("test_k", None),
                           ("select_k", tests), ("path_to_csv", None),
                           ("path_from_csv", None), ("load_json", None),
                           ("run", None), ("write_outputs", None)):
        tracer.wrap(cli, attr, annotate)


def _pct(values, q):
    if not values:
        return None
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _median(values):
    values = list(values)
    return statistics.median(values) if values else None


def _mean(values):
    values = list(values)
    return statistics.mean(values) if values else None


def layer_metrics(tracer, commands):
    """Per-layer metrics from the spans; None marks a metric whose wrapper
    saw no call (``unmeasured``), never 0."""
    spans = tracer.spans
    children = tracer.children()
    out = {}

    def named(*names):
        return [i for i, s in enumerate(spans) if s.name in names]

    def ms(idx):
        return [spans[i].seconds * 1e3 for i in idx]

    def timing(key, idx):
        out[f"{key}.p50"] = (_pct(ms(idx), 50), "ms")
        out[f"{key}.p90"] = (_pct(ms(idx), 90), "ms")

    sims = named("montecarlo:simulate", "cli:simulate")
    timing("sde.simulate_ms", sims)
    out["sde.steps_per_s"] = (
        sum(spans[i].attrs["steps"] for i in sims)
        / sum(spans[i].seconds for i in sims) if sims else None, "1/s")

    units = [i for i, s in enumerate(spans) if s.kind == "unit"]
    csv_calls = set(named("cli:path_to_csv", "cli:path_from_csv"))
    per_panel = [sum(spans[c].seconds * 1e3 for c in tracer.top_calls(u, children)
                     if c in csv_calls) for u in units]
    out["sde.path_csv_ms"] = (_median(v for v in per_panel if v > 0), "ms")

    fits = named("montecarlo:fit", "hypothesis_test:fit", "cli:fit")
    for label, alt in (("fit", None), ("fit_alt_k", True), ("fit_true_k", False)):
        chosen = [i for i in fits if alt is None or spans[i].attrs["alt"] == alt]
        timing(f"estimator.{label}_ms", chosen)
        out[f"estimator.{label}_iterations"] = (
            _mean(spans[i].attrs["iterations"] for i in chosen), "count")
        out[f"estimator.{label}_converged_ratio"] = (
            _mean(spans[i].attrs["converged"] for i in chosen), "ratio")
    for p in sorted({spans[i].attrs["p"] for i in fits}):
        at_p = [i for i in fits if spans[i].attrs["p"] == p]
        iters = sum(spans[i].attrs["iterations"] for i in at_p)
        out[f"estimator.ms_per_iteration.p{p}"] = (
            sum(ms(at_p)) / iters if iters else None, "ms")
    out["estimator.realised_cov_ms"] = (
        _median(ms(named("montecarlo:realised_cov", "cli:realised_cov"))), "ms")

    wm = named("estimator:weight_matrix")
    per_fit = len(fits) if fits and wm else None
    out["model.weight_matrix_calls"] = (per_fit and len(wm) / per_fit, "count")
    out["model.weight_matrix_self_ms"] = (
        per_fit and sum(tracer.self_seconds(i, children) for i in wm) * 1e3 / per_fit,
        "ms")

    selects = named("cli:select_k")
    timing("hypothesis_test.select_k_ms", selects)
    out["hypothesis_test.tests_per_select"] = (
        _mean(spans[i].attrs["tests"] for i in selects), "count")

    out["montecarlo.run_self_ms"] = (
        _median(tracer.self_seconds(i, children) * 1e3 for i in named("cli:run")),
        "ms")
    out["montecarlo.write_outputs_ms"] = (_median(ms(named("cli:write_outputs"))),
                                          "ms")
    out["montecarlo.theoretical_sd_table_ms"] = (
        _median(ms(named("montecarlo:theoretical_sd_table"))), "ms")

    for sub in ("experiment", "simulate", "test", "select"):
        timing(f"cli.{sub}_ms", named(f"command:{sub}"))
    out["cli.bytes_written"] = (_mean(c["bytes"] for c in commands), "bytes")
    out["config.load_ms"] = (_median(ms(named("cli:load_json"))), "ms")

    out["trace.uncovered_share"] = (_median(
        1.0 - sum(spans[c].seconds for c in tracer.top_calls(u, children))
        / spans[u].seconds for u in units), "ratio")
    return out
