"""Leave-one-domain-out experiment driver.

Each domain takes a turn as the target; the others train base models. A
label-shift scenario masks part of the target's labels, every requested
method estimates the scenario's CSMF estimand and (where it can) classifies
the unlabeled deaths, and metrics go into a long-format report.

`run_lodo(domains, cfg)` takes its settings as the one `RunConfig` that
config.py builds, from the YAML file for `fedva lodo` or from a mapping in
the same layout (`config_from_dict`) for a library caller. It reads the
methods, seeds, scenario and workers, and the base_model, min_count, gibbs,
ensemble and calibration blocks; config.py alone holds their defaults and
checks them (an unknown or repeated method, a repeated seed).

A cell's labels are `masked.y`, one vector in death order with UNLABELED
where the scenario hides the cause; `run_variant` reads it from the masked
dataset and `fit_calibration` takes it as it is.

Estimand rule: under random_sample the labeled subset is representative, so
methods report the full-target CSMF (blending held-out known labels back in
via the finite-sample adjustment); under mild_shift / severe_shift the
estimand is the CSMF of the unlabeled subset and no blending happens.
Classification metrics always cover unlabeled deaths only.

Methods: bfl-plain, bfl-partial, bfl-domain, bfl-mix, local-self (the
target-local model applied alone), local-avg (every training model applied
singly; the report carries one local-one:<domain> row per model plus their
metric mean), calib-0.5 and calib-50 (the calibration baseline under weak
and strong shrinkage). Each cell runs the requested methods in this order,
so its rows and skipped cells follow it whatever order `methods` lists them
in.

The target-local model (`lcm.train_local`, trained as a site is) is trained
once per cell on every labeled death, and local-self and bfl-domain both
read it; bfl-mix trains its own on its seeded part (`ensemble.local_rows`).
The first of bfl-domain and local-self to run trains the shared model, so
its `runtime_s` includes that training.

A cell's sources are the other domains' summaries, a plain list. Repeated
domain ids are refused before anything trains, and a fold whose sources
leave a cause uncovered is skipped whole before any cell runs. A source
summary's likelihood of a death depends on the death's symptoms alone,
not on the method or the label mask. So each cell scores every source
summary once (`build_phi` on the masked dataset), and every method reads
that tensor, which names its columns by source: the BFL variants,
local-avg's single-model fits (one column each, at the unlabeled rows) and
the calibration predictions. Only models trained inside the cell are
scored again; a local-self-only cell scores no source summary. The shared
step runs before any method's clock starts, so `runtime_s` charges it to
no row. The `ensemble`, `classify` and `calibrate` commands follow the same
rule on their target.
"""
from __future__ import annotations

import csv
import time
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .calibration import build_predictions, fit_calibration
from .data import cause_counts, csv_line, csv_text, split_labels
from .ensemble import (LOCAL_VARIANTS, adjust_csmf, build_phi, distinct_ids, fit_single_model,
                       local_rows, run_variant)
# unused here; perfbench/test_perfbench.py checks that its tracer patches this binding
from .ensemble import fit_global  # noqa: F401
from .errors import (
    ConfigError,
    EmptyCauseForResample,
    FedvaError,
    FingerprintMismatch,
    InsufficientLocalLabels,
)
from .lcm import train_lcm, train_local
from .metrics import balanced_accuracy, csmf_accuracy, top_cause_accuracy
from .scenarios import make_scenario
from .utils import derive_seed, parallel_map

BFL_METHODS = ("bfl-plain", "bfl-partial", "bfl-domain", "bfl-mix")
KNOWN_METHODS = BFL_METHODS + ("local-self", "local-avg", "calib-0.5", "calib-50")
CALIB_RATES = {"calib-0.5": 0.5, "calib-50": 50.0}  # beta_rate: weak, strong shrinkage
RESULT_COLUMNS = ("target_domain", "method", "seed", "scenario",
                  "csmf_acc", "top_acc", "balanced_acc", "runtime_s")


@dataclass(frozen=True)
class MethodResult:
    target_domain: str
    method: str
    seed: int
    scenario: str
    csmf_acc: float
    top_acc: float | None
    balanced_acc: float | None
    runtime_s: float


@dataclass(frozen=True)
class SkippedCell:
    target_domain: str
    method: str
    seed: int
    reason: str


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[MethodResult, ...]
    skipped: tuple[SkippedCell, ...]
    scenario: str

    def to_csv_text(self) -> str:
        def fmt(v):
            return "" if v is None else repr(float(v))

        return csv_text(RESULT_COLUMNS, (
            csv_line([r.target_domain, r.method, str(r.seed), r.scenario, fmt(r.csmf_acc),
                      fmt(r.top_acc), fmt(r.balanced_acc), f"{r.runtime_s:.3f}"])
            for r in self.rows))

    @classmethod
    def from_csv(cls, path) -> "ExperimentReport":
        """Read back what `to_csv_text` wrote (without the skipped cells).

        A wrong header, a row of the wrong length or a cell that does not
        parse is a ConfigError naming the file and line.
        """
        try:
            with open(path, encoding="utf-8", newline="") as fh:
                reader = csv.reader(fh)
                header = next(reader, None)
                if header != list(RESULT_COLUMNS):
                    raise ConfigError(f"{path}: unexpected header {header}")
                rows = tuple(_result_row(cells, f"{path}:{reader.line_num}") for cells in reader)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ConfigError(f"{path}: {exc}") from None
        if not rows:
            raise ConfigError(f"{path}: no result rows")
        return cls(rows=rows, skipped=(), scenario=rows[0].scenario)

    def summary_text(self) -> str:
        estimand = (
            "full-target CSMF (held-out labels blended back in)"
            if self.scenario == "random_sample"
            else "unlabeled-subset CSMF"
        )
        out = [
            f"scenario: {self.scenario}",
            f"CSMF estimand: {estimand}",
            "classification metrics: unlabeled deaths only",
            "local-avg aggregates its local-one constituents by the mean",
            "",
        ]
        domains = sorted({r.target_domain for r in self.rows})
        methods = sorted({r.method for r in self.rows})

        def block(title, rows):
            out.append(title)
            for method in methods:
                vals = [r.csmf_acc for r in rows if r.method == method]
                tops = [r.top_acc for r in rows if r.method == method and r.top_acc is not None]
                if not vals:
                    continue
                q1, med, q3 = np.quantile(vals, [0.25, 0.5, 0.75])
                line = f"  {method:<24} csmf_acc median {med:.4f} IQR [{q1:.4f}, {q3:.4f}]"
                if tops:
                    t1, tm, t3 = np.quantile(tops, [0.25, 0.5, 0.75])
                    line += f"  top_acc median {tm:.4f} IQR [{t1:.4f}, {t3:.4f}]"
                out.append(line)
            out.append("")

        block("all folds pooled:", list(self.rows))
        for d in domains:
            block(f"target {d}:", [r for r in self.rows if r.target_domain == d])
        if self.skipped:
            out.append("skipped cells:")
            for s in self.skipped:
                out.append(f"  {s.target_domain} / {s.method} / seed {s.seed}: {s.reason}")
            out.append("")
        return "\n".join(out)


def _result_row(cells: list, where: str) -> MethodResult:
    if len(cells) != len(RESULT_COLUMNS):
        raise ConfigError(f"{where}: expected {len(RESULT_COLUMNS)} cells, got {len(cells)}")
    target_domain, method, seed, scenario, csmf_acc, top_acc, balanced_acc, runtime_s = cells
    try:
        return MethodResult(
            target_domain=target_domain,
            method=method,
            seed=int(seed),
            scenario=scenario,
            csmf_acc=float(csmf_acc),
            top_acc=float(top_acc) if top_acc else None,
            balanced_acc=float(balanced_acc) if balanced_acc else None,
            runtime_s=float(runtime_s),
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _run_cell(sources, target, seed, cfg):
    """The requested methods for one (target domain, seed) cell, in report order."""
    C = len(target.cause_list)
    scenario_kind = cfg.scenario.kind
    requested = [m for m in KNOWN_METHODS if m in cfg.methods]
    rows: list[MethodResult] = []
    skips: list[SkippedCell] = []

    def skip(method, reason):
        skips.append(SkippedCell(target.domain_id, method, seed, reason))

    try:
        real = make_scenario(target, scenario_kind, seed,
                             label_fraction=cfg.scenario.label_fraction)
    except EmptyCauseForResample as exc:
        for method in requested:
            skip(method, f"{type(exc).__name__}: {exc}")
        return rows, skips
    masked = real.dataset
    # Read by every method but local-self. run_lodo builds cells only for
    # sources with the target's fingerprints that cover every cause.
    phi = build_phi(sources, masked) if set(requested) - {"local-self"} else None
    truth = real.truth
    random_sample = scenario_kind == "random_sample"
    csmf_true = truth.full_csmf if random_sample else truth.unlabeled_csmf
    unlabeled_pos, labeled_pos, _ = split_labels(masked.y, masked.n, C)
    labeled_counts = cause_counts(masked)
    cell_cfg = replace(
        cfg.ensemble,
        tie_pi=random_sample,
        seed=derive_seed("lodo-cell", target.domain_id, seed),
    )

    def finish(method, csmf_est, pred_top, started):
        runtime = time.perf_counter() - started
        row = MethodResult(
            target_domain=target.domain_id,
            method=method,
            seed=seed,
            scenario=scenario_kind,
            csmf_acc=csmf_accuracy(csmf_est, csmf_true),
            top_acc=None if pred_top is None else top_cause_accuracy(pred_top, truth.unlabeled_y),
            balanced_acc=(None if pred_top is None
                          else balanced_accuracy(pred_top, truth.unlabeled_y, C)),
            runtime_s=runtime,
        )
        rows.append(row)
        return row

    def adjusted(pi_est):
        # blending applies only when the estimand covers the labeled deaths
        if random_sample:
            return adjust_csmf(pi_est, masked.n, labeled_counts)
        return pi_est

    local_models = {}

    def local_model(rows):
        # local-self and bfl-domain read the one model of every labeled death;
        # the first of them to run trains it, and its runtime_s pays for that
        key = rows.tobytes()
        if key not in local_models:
            local_models[key] = train_local(masked, rows, cfg.base_model, cfg.gibbs,
                                            cell_cfg.seed, cfg.min_count)
        return local_models[key]

    def single(unlabeled_phi, m, method, started):
        pi, probs = fit_single_model(unlabeled_phi, m, cell_cfg)
        return finish(method, adjusted(pi), np.argmax(probs, axis=1), started)

    n_calib = sum(m in CALIB_RATES for m in requested)
    preds = None
    for method in requested:
        started = time.perf_counter()
        try:
            if method in BFL_METHODS:
                fit_cfg = replace(cell_cfg, variant=method.split("-", 1)[1])
                local = (local_model(local_rows(masked, fit_cfg))
                         if fit_cfg.variant in LOCAL_VARIANTS else None)
                _, cls, csmf = run_variant(masked, phi, fit_cfg, local)
                finish(method, csmf, cls.top[unlabeled_pos], started)
            elif method == "local-self":
                if labeled_pos.size == 0:
                    raise InsufficientLocalLabels("no labeled deaths to train on")
                local = local_model(labeled_pos)
                single(build_phi([local], masked.subset(unlabeled_pos)), 0, method, started)
            elif method == "local-avg":
                # one local-one:<id> row per training model, then their mean
                unlabeled_phi = phi.rows(unlabeled_pos)
                parts = []
                for m, name in enumerate(phi.domain_ids):
                    one = f"local-one:{name}"
                    try:
                        parts.append(single(unlabeled_phi, m, one, time.perf_counter()))
                    except FedvaError as exc:
                        skip(one, f"{type(exc).__name__}: {exc}")
                if parts:
                    rows.append(MethodResult(
                        target_domain=target.domain_id,
                        method=method,
                        seed=seed,
                        scenario=scenario_kind,
                        csmf_acc=float(np.mean([r.csmf_acc for r in parts])),
                        top_acc=float(np.mean([r.top_acc for r in parts])),
                        balanced_acc=float(np.mean([r.balanced_acc for r in parts])),
                        runtime_s=float(np.sum([r.runtime_s for r in parts])),
                    ))
                else:
                    skip(method, "every single-model fit failed")
            else:
                if preds is None:
                    # built once, charged to the calib rows in equal parts
                    preds = build_predictions(phi, cell_cfg)
                    build_share = (time.perf_counter() - started) / n_calib
                    started = time.perf_counter()
                ccfg = replace(
                    cfg.calibration,
                    beta_rate=CALIB_RATES[method],
                    seed=derive_seed("lodo-calib", target.domain_id, seed),
                )
                result = fit_calibration(preds, masked.y, ccfg)
                finish(method, adjusted(result.pi_mean()), None, started - build_share)
        except FedvaError as exc:
            skip(method, f"{type(exc).__name__}: {exc}")
    return rows, skips


def run_lodo(domains, cfg) -> ExperimentReport:
    """Run every (fold, seed, method) cell of `cfg`; failures are recorded, not fatal."""
    domains = list(domains)
    if len(domains) < 2:
        raise FedvaError("leave-one-domain-out needs at least 2 domains")
    base = domains[0]
    for d in domains[1:]:
        if (d.cause_list.fingerprint != base.cause_list.fingerprint
                or d.symptom_dict.fingerprint != base.symptom_dict.fingerprint):
            raise FingerprintMismatch("all domains must share cause list and dictionary")
    distinct_ids([d.domain_id for d in domains], len(domains))

    # One summary per domain, reused across folds (training data never
    # depends on the fold); train_lcm already keys its stream by domain_id.
    summaries = parallel_map(
        partial(train_lcm, hyper=cfg.base_model, cfg=cfg.gibbs, min_count=cfg.min_count),
        domains, workers=cfg.workers,
    )

    cell_sources, targets, cell_seeds = [], [], []
    skipped: list[SkippedCell] = []
    for target in domains:
        sources = [s for d, s in zip(domains, summaries) if d.domain_id != target.domain_id]
        uncovered = np.flatnonzero(~np.any([s.present for s in sources], axis=0)).tolist()
        if uncovered:
            skipped.extend(SkippedCell(target.domain_id, "*", seed,
                                       f"registry incomplete: cause indices {uncovered} uncovered")
                           for seed in cfg.seeds)
            continue
        for seed in cfg.seeds:
            cell_sources.append(sources)
            targets.append(target)
            cell_seeds.append(seed)

    results = parallel_map(_run_cell, cell_sources, targets, cell_seeds, [cfg] * len(targets),
                           workers=cfg.workers)

    rows: list[MethodResult] = []
    for cell_rows, cell_skips in results:
        rows.extend(cell_rows)
        skipped.extend(cell_skips)
    return ExperimentReport(rows=tuple(rows), skipped=tuple(skipped), scenario=cfg.scenario.kind)
