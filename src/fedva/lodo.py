"""Leave-one-domain-out experiment driver.

Each domain takes a turn as the target; the others train base models. A
label-shift scenario masks part of the target's labels, every requested
method estimates the scenario's CSMF estimand and (where it can) classifies
the unlabeled deaths, and metrics go into a long-format report.

Estimand rule: under random_sample the labeled subset is representative, so
methods report the full-target CSMF (blending held-out known labels back in
via the finite-sample adjustment); under mild_shift / severe_shift the
estimand is the CSMF of the unlabeled subset and no blending happens.
Classification metrics always cover unlabeled deaths only.

Methods: bfl-plain, bfl-partial, bfl-domain, bfl-mix, local-self (a model
trained on the target's labeled subset alone), local-avg (every training
model applied singly; the report carries one local-one:<domain> row per
model plus their metric mean), calib-0.5 and calib-50 (the calibration
baseline under weak and strong shrinkage). Each cell runs the requested
methods in this order, so its rows and skipped cells follow it whatever
order `methods` lists them in; a method listed twice is an error.

A source summary's likelihood of a death depends on the death's symptoms
alone, not on the method or the label mask. So each cell scores every
source summary once (`build_phi` on the masked dataset), and every method
reads its rows from that array: the BFL variants, local-avg's single-model
fits and the calibration predictions. Only models trained inside the cell
are scored again; a local-self-only cell scores no source summary. The
shared step runs before any method's clock starts, so `runtime_s` charges
it to no row. The `ensemble`, `classify` and `calibrate` commands follow
the same rule on their target.
"""
from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .calibration import CalibConfig, build_predictions, fit_calibration
from .data import UNLABELED
from .ensemble import EnsembleConfig, adjust_csmf, build_phi, fit_single_model, run_variant
# unused here; perfbench/test_perfbench.py checks that its tracer patches this binding
from .ensemble import fit_global  # noqa: F401
from .errors import (
    ConfigError,
    EmptyCauseForResample,
    FedvaError,
    FingerprintMismatch,
    InsufficientLocalLabels,
)
from .exchange import make_registry
from .lcm import GibbsConfig, LcmHyper, cond_loglik_matrix, train_lcm
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
    methods: tuple[str, ...]
    seeds: tuple[int, ...]

    def to_csv_text(self) -> str:
        def fmt(v):
            return "" if v is None else repr(float(v))

        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(RESULT_COLUMNS)
        writer.writerows(
            (r.target_domain, r.method, r.seed, r.scenario, fmt(r.csmf_acc), fmt(r.top_acc),
             fmt(r.balanced_acc), f"{r.runtime_s:.3f}")
            for r in self.rows
        )
        return out.getvalue()

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
        return cls(
            rows=rows,
            skipped=(),
            scenario=rows[0].scenario,
            methods=tuple(sorted({r.method for r in rows})),
            seeds=tuple(sorted({r.seed for r in rows})),
        )

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


def _run_cell(reg, target, seed, *, methods, scenario_kind, label_fraction,
              ens_cfg, calib_cfg, lcm_hyper, lcm_cfg):
    """The requested methods for one (target domain, seed) cell, in report order."""
    C = len(target.cause_list)
    requested = [m for m in KNOWN_METHODS if m in methods]
    rows: list[MethodResult] = []
    skips: list[SkippedCell] = []

    def skip(method, reason):
        skips.append(SkippedCell(target.domain_id, method, seed, reason))

    try:
        real = make_scenario(target, scenario_kind, seed, label_fraction=label_fraction)
    except EmptyCauseForResample as exc:
        for method in requested:
            skip(method, f"{type(exc).__name__}: {exc}")
        return rows, skips
    masked = real.dataset
    # Read by every method but local-self. run_lodo builds cells only for
    # registries with the target's fingerprints, so this does not raise.
    phi = build_phi(reg, masked) if set(requested) - {"local-self"} else None
    truth = real.truth
    random_sample = scenario_kind == "random_sample"
    csmf_true = truth.full_csmf if random_sample else truth.unlabeled_csmf
    unlabeled_pos = np.flatnonzero(masked.y == UNLABELED)
    labeled_pos = np.flatnonzero(masked.y != UNLABELED)
    unlabeled = masked.subset(unlabeled_pos)  # what the single-model fits score
    labeled_counts = np.bincount(
        masked.y[labeled_pos], minlength=C
    ).astype(np.int64) if labeled_pos.size else np.zeros(C, dtype=np.int64)
    cell_cfg = replace(
        ens_cfg,
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

    def single(summary, method, started, log_lik):
        pi, probs = fit_single_model(summary, unlabeled, cell_cfg, log_lik)
        return finish(method, adjusted(pi), np.argmax(probs, axis=1), started)

    n_calib = sum(m in CALIB_RATES for m in requested)
    preds = None
    for method in requested:
        started = time.perf_counter()
        try:
            if method in BFL_METHODS:
                cfg = replace(cell_cfg, variant=method.split("-", 1)[1])
                _, cls, csmf = run_variant(reg, masked, cfg, phi, local_hyper=lcm_hyper)
                finish(method, csmf, cls.top[unlabeled_pos], started)
            elif method == "local-self":
                if labeled_pos.size == 0:
                    raise InsufficientLocalLabels("no labeled deaths to train on")
                local = train_lcm(
                    masked.subset(labeled_pos, domain_id=f"{target.domain_id}-self"),
                    lcm_hyper,
                    replace(lcm_cfg, seed=derive_seed("lodo-self", target.domain_id, seed)),
                )
                single(local, method, started, cond_loglik_matrix(local, unlabeled.x))
            elif method == "local-avg":
                # one local-one:<id> row per training model, then their mean
                parts = []
                for m, s in enumerate(reg.summaries):
                    one = f"local-one:{s.domain_id}"
                    try:
                        parts.append(single(s, one, time.perf_counter(),
                                            phi.log_phi[unlabeled_pos, :, m]))
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
                    preds = build_predictions(reg, masked, cell_cfg, phi)
                    build_share = (time.perf_counter() - started) / n_calib
                    started = time.perf_counter()
                ccfg = replace(
                    calib_cfg,
                    beta_rate=CALIB_RATES[method],
                    seed=derive_seed("lodo-calib", target.domain_id, seed),
                )
                result = fit_calibration(preds, masked.y[labeled_pos], ccfg,
                                         domain_ids=reg.domain_ids)
                finish(method, adjusted(result.pi_mean()), None, started - build_share)
        except FedvaError as exc:
            skip(method, f"{type(exc).__name__}: {exc}")
    return rows, skips


def run_lodo(domains, methods, scenario_kind: str, seeds,
             lcm_hyper: LcmHyper | None = None,
             lcm_cfg: GibbsConfig | None = None,
             ens_cfg: EnsembleConfig | None = None,
             calib_cfg: CalibConfig | None = None,
             label_fraction: float = 0.2,
             workers: int = 1,
             min_count: int = 1) -> ExperimentReport:
    """Run every (fold, seed, method) cell; failures are recorded, not fatal."""
    domains = list(domains)
    if len(domains) < 2:
        raise FedvaError("leave-one-domain-out needs at least 2 domains")
    methods = list(methods)
    for m in methods:
        if m not in KNOWN_METHODS:
            raise FedvaError(f"unknown method {m!r}; known: {KNOWN_METHODS}")
    if len(set(methods)) < len(methods):
        raise FedvaError(f"a method is listed more than once in {methods}")
    seeds = list(seeds)
    if len(set(seeds)) < len(seeds):
        raise FedvaError(f"a seed is listed more than once in {seeds}")
    base = domains[0]
    for d in domains[1:]:
        if (d.cause_list.fingerprint != base.cause_list.fingerprint
                or d.symptom_dict.fingerprint != base.symptom_dict.fingerprint):
            raise FingerprintMismatch("all domains must share cause list and dictionary")
    lcm_hyper = lcm_hyper or LcmHyper()
    lcm_cfg = lcm_cfg or GibbsConfig()
    ens_cfg = ens_cfg or EnsembleConfig()
    calib_cfg = calib_cfg or CalibConfig()

    # One summary per domain, reused across folds (training data never
    # depends on the fold); train_lcm already keys its stream by domain_id.
    summaries = parallel_map(
        partial(train_lcm, hyper=lcm_hyper, cfg=lcm_cfg, min_count=min_count), domains,
        workers=workers,
    )
    by_id = {d.domain_id: s for d, s in zip(domains, summaries)}

    regs, targets, cell_seeds = [], [], []
    skipped: list[SkippedCell] = []
    for target in domains:
        train = [by_id[d.domain_id] for d in domains if d.domain_id != target.domain_id]
        reg = make_registry(train, target.cause_list, target.symptom_dict)
        if not reg.complete:
            uncovered = np.flatnonzero(reg.coverage == 0).tolist()
            skipped.extend(SkippedCell(target.domain_id, "*", seed,
                                       f"registry incomplete: cause indices {uncovered} uncovered")
                           for seed in seeds)
            continue
        for seed in seeds:
            regs.append(reg)
            targets.append(target)
            cell_seeds.append(seed)

    cell = partial(_run_cell, methods=methods, scenario_kind=scenario_kind,
                   label_fraction=label_fraction, ens_cfg=ens_cfg, calib_cfg=calib_cfg,
                   lcm_hyper=lcm_hyper, lcm_cfg=lcm_cfg)
    results = parallel_map(cell, regs, targets, cell_seeds, workers=workers)

    rows: list[MethodResult] = []
    for cell_rows, cell_skips in results:
        rows.extend(cell_rows)
        skipped.extend(cell_skips)
    return ExperimentReport(
        rows=tuple(rows),
        skipped=tuple(skipped),
        scenario=scenario_kind,
        methods=tuple(methods),
        seeds=tuple(seeds),
    )
