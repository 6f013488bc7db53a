"""Outside-in tracing of fedva's layers, and the per-layer metrics it yields.

A `Tracer` replaces a public function of a fedva module with a wrapper that
records a span: name, start, end, parent span and an optional tag read from
the call's arguments or result. The wrapper is bound in every fedva module
namespace that binds the original (``fit_global`` lives in ``ensemble`` but
``lodo`` and ``calibration`` import it too), so no call site in ``src/`` is
edited. Sweep helpers (``logsumexp``, ``gumbel_argmax``, ``log_dirichlet``)
are wrapped in ``fedva.ensemble`` only and attributed by their parent span.

Spans stay in memory; `layer_metrics` turns one traced command's spans into
the per-layer metrics declared in `LAYER_METRICS`.
"""
from __future__ import annotations

import importlib
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (metric, unit, better, layer, what it should move). The per_layer list in
# BENCHMARK.json declares exactly these names; a self-test keeps them equal.
LAYER_METRICS = (
    ("lcm.train_lcm.s", "s", "lower", "lcm",
     "wall_s on site-train; setup_s on center-ensemble; part of wall_s on lodo-small"),
    ("lcm.train_lcm.calls", "count", "lower", "lcm", "zero in the center-ensemble timed phase"),
    ("lcm.iter_ms", "ms", "lower", "lcm", "wall_s on site-train"),
    ("lcm.cond_loglik_matrix.s", "s", "lower", "lcm", "wall_s on center-ensemble and lodo-small"),
    ("ensemble.fit_global.multi.s", "s", "lower", "ensemble", "wall_s on center-ensemble"),
    ("ensemble.fit_global.m1.s", "s", "lower", "ensemble", "wall_s on lodo-small"),
    ("ensemble.sweeps", "count", "lower", "ensemble", "none; the work fit_global is asked for"),
    ("ensemble.sweep_ms.multi", "ms", "lower", "ensemble", "wall_s on center-ensemble"),
    ("ensemble.sweep_ms.m1", "ms", "lower", "ensemble", "wall_s on lodo-small"),
    ("ensemble.fit_global.self_s", "s", "lower", "ensemble",
     "wall_s on center-ensemble and lodo-small"),
    ("ensemble.marginal_loglik.s", "s", "lower", "ensemble",
     "wall_s on center-ensemble and lodo-small"),
    ("ensemble.marginal_loglik.calls", "count", "lower", "ensemble",
     "wall_s on center-ensemble and lodo-small"),
    ("ensemble.marginal_loglik.calls_per_kept_draw", "ratio", "lower", "ensemble",
     "work nothing reads; wall_s on center-ensemble and lodo-small"),
    ("ensemble.latent_draw_s", "s", "lower", "ensemble",
     "wall_s on center-ensemble and lodo-small"),
    ("ensemble.dirichlet_draw_s", "s", "lower", "ensemble",
     "wall_s on center-ensemble and lodo-small"),
    ("ensemble.build_phi.s", "s", "lower", "ensemble", "wall_s and peak_rss_mb on center-ensemble"),
    ("ensemble.classify.s", "s", "lower", "ensemble", "wall_s and peak_rss_mb on center-ensemble"),
    ("ensemble.classify.ms_per_draw", "ms", "lower", "ensemble", "wall_s on center-ensemble"),
    ("ensemble.run_variant.self_s", "s", "lower", "ensemble", "wall_s on center-ensemble"),
    ("calibration.build_predictions.s", "s", "lower", "calibration", "wall_s on lodo-small only"),
    ("calibration.fit_calibration.s", "s", "lower", "calibration", "wall_s on lodo-small only"),
    ("calibration.iter_ms", "ms", "lower", "calibration", "wall_s on lodo-small only"),
    ("scenarios.make_scenario.s", "s", "lower", "scenarios", "wall_s on lodo-small (small)"),
    ("lodo.cells", "count", "higher", "lodo", "ops_attempted on lodo-small"),
    ("lodo.cells_skipped", "count", "lower", "lodo", "ops_failed on lodo-small"),
    ("lodo.run_lodo.self_s", "s", "lower", "lodo", "wall_s on lodo-small"),
    ("lodo.bfl-plain.s", "s", "lower", "lodo", "wall_s on lodo-small"),
    ("lodo.bfl-partial.s", "s", "lower", "lodo", "wall_s on lodo-small"),
    ("lodo.bfl-domain.s", "s", "lower", "lodo", "wall_s on lodo-small"),
    ("lodo.bfl-mix.s", "s", "lower", "lodo", "wall_s on lodo-small"),
    ("data.load_dataset.s", "s", "lower", "data",
     "wall_s on site-train and center-ensemble (small)"),
    ("data.load_dataset.rows", "count", "higher", "data", "none; rows parsed"),
    ("exchange.import_summary.s", "s", "lower", "exchange", "wall_s on center-ensemble (small)"),
    ("exchange.summary_bytes.s", "s", "lower", "exchange", "wall_s on site-train (small)"),
    ("cli.main.self_s", "s", "lower", "cli", "wall_s on all (small): output writing and hashing"),
    ("config.load_config.s", "s", "lower", "config", "wall_s on all (small)"),
    ("reports.format_s", "s", "lower", "reports", "wall_s on all (small)"),
    ("bench.tracing_overhead_s", "s", "lower", "benchmark", "none; traced minus untraced wall_s"),
    ("bench.wall_s", "s", "lower", "benchmark",
     "raw median wall time of the untraced repetitions, net of the speed probes; "
     "wall_per_ref is its gated form"),
    ("bench.ref_ms", "ms", "lower", "benchmark",
     "none; the speed probe's time, i.e. the host's speed during the run"),
)

REPORT_FUNCTIONS = ("pi_table_csv", "lambda_matrix_csv", "classification_csv",
                    "posterior_text", "calibration_text")


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _fit_global_tag(args, kwargs):
    phi, cfg = args[0], _arg(args, kwargs, 2, "cfg")
    kept = -(-(cfg.iterations - cfg.burn_in) // cfg.thin)
    return {"M": phi.M, "sweeps": cfg.chains * cfg.iterations, "kept": cfg.chains * kept}


# (module, function, span name, tag from (args, kwargs), tag from result)
PUBLIC = (
    ("lcm", "train_lcm", "lcm.train_lcm",
     lambda a, k: {"iterations": _arg(a, k, 2, "cfg").iterations}, None),
    ("lcm", "cond_loglik_matrix", "lcm.cond_loglik_matrix", None, None),
    ("ensemble", "fit_global", "ensemble.fit_global", _fit_global_tag, None),
    ("ensemble", "marginal_loglik", "ensemble.marginal_loglik", None, None),
    ("ensemble", "build_phi", "ensemble.build_phi", None, None),
    ("ensemble", "classify", "ensemble.classify",
     lambda a, k: {"draws": _arg(a, k, 1, "post").D}, None),
    ("ensemble", "run_variant", "ensemble.run_variant",
     lambda a, k: {"variant": _arg(a, k, 2, "cfg").variant}, None),
    ("calibration", "build_predictions", "calibration.build_predictions", None, None),
    ("calibration", "fit_calibration", "calibration.fit_calibration",
     lambda a, k: {"iterations": _arg(a, k, 2, "cfg").iterations}, None),
    ("scenarios", "make_scenario", "scenarios.make_scenario", None, None),
    ("lodo", "run_lodo", "lodo.run_lodo", None,
     lambda r: {"cells": len(r.rows) + len(r.skipped), "skipped": len(r.skipped)}),
    ("data", "load_dataset", "data.load_dataset", None, lambda r: {"rows": r.n}),
    ("exchange", "import_summary", "exchange.import_summary", None, None),
    ("exchange", "summary_bytes", "exchange.summary_bytes", None, None),
    ("config", "load_config", "config.load_config", None, None),
) + tuple(("reports", f, "reports." + f, None, None) for f in REPORT_FUNCTIONS)

# Wrapped only where the ensemble sweep binds them.
SWEEP_HELPERS = (
    ("ensemble", "logsumexp", "sweep.logsumexp"),
    ("ensemble", "gumbel_argmax", "sweep.gumbel_argmax"),
    ("ensemble", "log_dirichlet", "sweep.log_dirichlet"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    tag: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder for one thread; `install` patches fedva while active."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._clock = clock

    def call(self, name, fn, *args, tag_args=None, tag_result=None, **kwargs):
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1)
        if tag_args is not None:
            span.tag.update(tag_args(args, kwargs))
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = self._clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = self._clock()
            self._stack.pop()
        if tag_result is not None:
            span.tag.update(tag_result(result))
        return result

    def wrap(self, name, fn, tag_args=None, tag_result=None):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, tag_args=tag_args, tag_result=tag_result,
                             **kwargs)
        return wrapper

    @contextmanager
    def install(self):
        """Bind wrappers into every fedva module namespace; restore on exit."""
        modules = {m: importlib.import_module("fedva." + m)
                   for m in {spec[0] for spec in PUBLIC + SWEEP_HELPERS}}
        importlib.import_module("fedva.cli")
        loaded = [mod for key, mod in sys.modules.items()
                  if mod is not None and (key == "fedva" or key.startswith("fedva."))]
        undo = []
        for mod_name, fn_name, span_name, tag_args, tag_result in PUBLIC:
            orig = getattr(modules[mod_name], fn_name)
            wrapper = self.wrap(span_name, orig, tag_args, tag_result)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        undo.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        for mod_name, fn_name, span_name in SWEEP_HELPERS:
            mod = modules[mod_name]
            orig = getattr(mod, fn_name)
            undo.append((mod, fn_name, orig))
            setattr(mod, fn_name, self.wrap(span_name, orig))
        try:
            yield self
        finally:
            for mod, attr, orig in reversed(undo):
                setattr(mod, attr, orig)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(kids):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(s.duration - covered)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics of one traced command, keyed as in LAYER_METRICS.

    Totals add up outermost spans of a name only, so a function that reaches
    itself again through another wrapped layer is not counted twice.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def ancestors(i):
        p = spans[i].parent
        while p >= 0:
            yield spans[p].name
            p = spans[p].parent

    def total(idx):
        return math.fsum(spans[i].duration for i in idx
                         if spans[i].name not in ancestors(i))

    def self_total(name):
        return math.fsum(selfs[i] for i in by_name.get(name, ()))

    def tag_sum(idx, key):
        return sum(spans[i].tag.get(key, 0) for i in idx)

    def under_fit(name):
        return [i for i in by_name.get(name, ())
                if spans[i].parent >= 0 and spans[spans[i].parent].name == "ensemble.fit_global"]

    pick = lambda name: by_name.get(name, [])  # noqa: E731
    train = pick("lcm.train_lcm")
    fits = pick("ensemble.fit_global")
    multi = [i for i in fits if spans[i].tag["M"] > 1]
    m1 = [i for i in fits if spans[i].tag["M"] == 1]
    mll = pick("ensemble.marginal_loglik")
    classify = pick("ensemble.classify")
    calib = pick("calibration.fit_calibration")
    lodo = pick("lodo.run_lodo")
    loads = pick("data.load_dataset")

    m = {
        "lcm.train_lcm.s": total(train),
        "lcm.train_lcm.calls": len(train),
        "lcm.iter_ms": 1e3 * _ratio(total(train), tag_sum(train, "iterations")),
        "lcm.cond_loglik_matrix.s": total(pick("lcm.cond_loglik_matrix")),
        "ensemble.fit_global.multi.s": total(multi),
        "ensemble.fit_global.m1.s": total(m1),
        "ensemble.sweeps": tag_sum(fits, "sweeps"),
        "ensemble.sweep_ms.multi": 1e3 * _ratio(total(multi), tag_sum(multi, "sweeps")),
        "ensemble.sweep_ms.m1": 1e3 * _ratio(total(m1), tag_sum(m1, "sweeps")),
        "ensemble.fit_global.self_s": self_total("ensemble.fit_global"),
        "ensemble.marginal_loglik.s": total(mll),
        "ensemble.marginal_loglik.calls": len(mll),
        "ensemble.marginal_loglik.calls_per_kept_draw": _ratio(len(mll), tag_sum(fits, "kept")),
        "ensemble.latent_draw_s": total(under_fit("sweep.logsumexp")
                                        + under_fit("sweep.gumbel_argmax")),
        "ensemble.dirichlet_draw_s": total(under_fit("sweep.log_dirichlet")),
        "ensemble.build_phi.s": total(pick("ensemble.build_phi")),
        "ensemble.classify.s": total(classify),
        "ensemble.classify.ms_per_draw": 1e3 * _ratio(total(classify), tag_sum(classify, "draws")),
        "ensemble.run_variant.self_s": self_total("ensemble.run_variant"),
        "calibration.build_predictions.s": total(pick("calibration.build_predictions")),
        "calibration.fit_calibration.s": total(calib),
        "calibration.iter_ms": 1e3 * _ratio(total(calib), tag_sum(calib, "iterations")),
        "scenarios.make_scenario.s": total(pick("scenarios.make_scenario")),
        "lodo.cells": tag_sum(lodo, "cells"),
        "lodo.cells_skipped": tag_sum(lodo, "skipped"),
        "lodo.run_lodo.self_s": self_total("lodo.run_lodo"),
        "data.load_dataset.s": total(loads),
        "data.load_dataset.rows": tag_sum(loads, "rows"),
        "exchange.import_summary.s": total(pick("exchange.import_summary")),
        "exchange.summary_bytes.s": total(pick("exchange.summary_bytes")),
        "cli.main.self_s": self_total("cli.main"),
        "config.load_config.s": total(pick("config.load_config")),
        "reports.format_s": total([i for f in REPORT_FUNCTIONS for i in pick("reports." + f)]),
    }
    # Per-method LODO time from spans: lodo_results.csv's runtime_s counts
    # the shared build_predictions time twice (calib-0.5 and calib-50).
    for variant in ("plain", "partial", "domain", "mix"):
        m[f"lodo.bfl-{variant}.s"] = total([
            i for i in pick("ensemble.run_variant")
            if spans[i].tag["variant"] == variant and "lodo.run_lodo" in ancestors(i)])
    return m
