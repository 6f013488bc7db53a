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
baseline under weak and strong shrinkage).
"""
from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .calibration import CalibConfig, build_predictions, fit_calibration
from .data import UNLABELED, Dataset
from .ensemble import (
    EnsembleConfig,
    PhiTensor,
    adjust_csmf,
    classify,
    fit_global,
    run_variant,
)
from .errors import (
    EmptyCauseForResample,
    FedvaError,
    FingerprintMismatch,
    InsufficientLocalLabels,
)
from .exchange import make_registry
from .lcm import BaseModelSummary, GibbsConfig, LcmHyper, cond_loglik_matrix, train_lcm
from .metrics import balanced_accuracy, csmf_accuracy, top_cause_accuracy
from .scenarios import ScenarioRealization, make_scenario
from .utils import derive_seed

BFL_METHODS = ("bfl-plain", "bfl-partial", "bfl-domain", "bfl-mix")
KNOWN_METHODS = BFL_METHODS + ("local-self", "local-avg", "calib-0.5", "calib-50")


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

        lines = ["target_domain,method,seed,scenario,csmf_acc,top_acc,balanced_acc,runtime_s"]
        for r in self.rows:
            lines.append(
                f"{r.target_domain},{r.method},{r.seed},{r.scenario},"
                f"{fmt(r.csmf_acc)},{fmt(r.top_acc)},{fmt(r.balanced_acc)},"
                f"{r.runtime_s:.3f}"
            )
        return "\n".join(lines) + "\n"

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


def _single_model_fit(summary: BaseModelSummary, data: Dataset, cfg: EnsembleConfig):
    """Single-model pipeline restricted to the causes the model covers."""
    C = len(data.cause_list)
    covered = np.flatnonzero(summary.present)
    log_phi = cond_loglik_matrix(summary, data.x)[:, covered]
    phi = PhiTensor(
        log_phi=log_phi[:, :, None],
        present=np.ones((covered.shape[0], 1), dtype=np.uint8),
        death_ids=data.death_ids,
    )
    post = fit_global(phi, None, cfg, domain_ids=(summary.domain_id,))
    cls = classify(phi, post)
    pi = np.zeros(C)
    pi[covered] = post.pi_mean()
    probs = np.zeros((data.n, C))
    probs[:, covered] = cls.probs
    return pi, probs


def _score(pred_top: np.ndarray, truth_y: np.ndarray, C: int):
    return (
        top_cause_accuracy(pred_top, truth_y),
        balanced_accuracy(pred_top, truth_y, C),
    )


def _run_cell(args):
    """All methods for one (target domain, seed) cell."""
    (target, summaries, methods, scenario_kind, seed, label_fraction,
     ens_cfg, calib_cfg, lcm_hyper, lcm_cfg) = args
    C = len(target.cause_list)
    rows: list[MethodResult] = []
    skips: list[SkippedCell] = []

    try:
        real: ScenarioRealization = make_scenario(
            target, scenario_kind, seed, label_fraction=label_fraction
        )
    except EmptyCauseForResample as exc:
        reason = f"{type(exc).__name__}: {exc}"
        return rows, [SkippedCell(target.domain_id, m, seed, reason) for m in methods]
    masked = real.dataset
    truth = real.truth
    random_sample = scenario_kind == "random_sample"
    csmf_true = truth.full_csmf if random_sample else truth.unlabeled_csmf
    unlabeled_pos = np.flatnonzero(masked.y == UNLABELED)
    labeled_pos = np.flatnonzero(masked.y != UNLABELED)
    labeled_counts = np.bincount(
        masked.y[labeled_pos], minlength=C
    ).astype(np.int64) if labeled_pos.size else np.zeros(C, dtype=np.int64)
    reg = make_registry(summaries, target.cause_list, target.symptom_dict)
    cell_cfg = replace(
        ens_cfg,
        tie_pi=random_sample,
        seed=derive_seed("lodo-cell", target.domain_id, seed),
    )

    def finish(method, csmf_est, pred_top, started):
        runtime = time.perf_counter() - started
        if pred_top is None:
            top = bal = None
        else:
            top, bal = _score(pred_top, truth.unlabeled_y, C)
        rows.append(MethodResult(
            target_domain=target.domain_id,
            method=method,
            seed=seed,
            scenario=scenario_kind,
            csmf_acc=csmf_accuracy(csmf_est, csmf_true),
            top_acc=top,
            balanced_acc=bal,
            runtime_s=runtime,
        ))

    def adjusted(pi_est):
        # blending applies only when the estimand covers the labeled deaths
        if random_sample:
            return adjust_csmf(pi_est, masked.n, labeled_counts)
        return pi_est

    for method in methods:
        if method == "local-avg":
            continue  # expanded into local-one rows below
        started = time.perf_counter()
        try:
            if method in BFL_METHODS:
                variant = method.split("-", 1)[1]
                cfg = replace(cell_cfg, variant=variant)
                _, cls, csmf = run_variant(reg, masked, cfg, local_hyper=lcm_hyper)
                finish(method, csmf, cls.top[unlabeled_pos], started)
            elif method == "local-self":
                if labeled_pos.size == 0:
                    raise InsufficientLocalLabels("no labeled deaths to train on")
                local = train_lcm(
                    masked.subset(labeled_pos, domain_id=f"{target.domain_id}-self"),
                    lcm_hyper,
                    replace(lcm_cfg, seed=derive_seed("lodo-self", target.domain_id, seed)),
                )
                unl = masked.subset(unlabeled_pos)
                pi, probs = _single_model_fit(local, unl, replace(cell_cfg, variant="plain"))
                finish(method, adjusted(pi), np.argmax(probs, axis=1), started)
            elif method in ("calib-0.5", "calib-50"):
                pass  # handled together below to share the prediction tensor
            else:
                raise FedvaError(f"unknown method {method!r}")
        except FedvaError as exc:
            skips.append(SkippedCell(target.domain_id, method, seed,
                                     f"{type(exc).__name__}: {exc}"))

    if "local-avg" in methods:
        parts = []
        for s in summaries:
            started = time.perf_counter()
            try:
                unl = masked.subset(unlabeled_pos)
                pi, probs = _single_model_fit(s, unl, replace(cell_cfg, variant="plain"))
                finish(f"local-one:{s.domain_id}", adjusted(pi), np.argmax(probs, axis=1), started)
                parts.append(rows[-1])
            except FedvaError as exc:
                skips.append(SkippedCell(target.domain_id, f"local-one:{s.domain_id}",
                                         seed, f"{type(exc).__name__}: {exc}"))
        if parts:
            rows.append(MethodResult(
                target_domain=target.domain_id,
                method="local-avg",
                seed=seed,
                scenario=scenario_kind,
                csmf_acc=float(np.mean([r.csmf_acc for r in parts])),
                top_acc=float(np.mean([r.top_acc for r in parts])),
                balanced_acc=float(np.mean([r.balanced_acc for r in parts])),
                runtime_s=float(np.sum([r.runtime_s for r in parts])),
            ))
        else:
            skips.append(SkippedCell(target.domain_id, "local-avg", seed,
                                     "every single-model fit failed"))

    calib_requested = [m for m in methods if m in ("calib-0.5", "calib-50")]
    if calib_requested:
        started = time.perf_counter()
        try:
            order = np.concatenate([labeled_pos, unlabeled_pos])
            reordered = masked.subset(order)
            preds = build_predictions(reg, reordered, cell_cfg)
            # the shared prediction tensor is charged to the calib rows in equal parts
            build_share = (time.perf_counter() - started) / len(calib_requested)
            lab_vec = masked.y[labeled_pos]
            for method in calib_requested:
                m_started = time.perf_counter()
                rate = 0.5 if method == "calib-0.5" else 50.0
                ccfg = replace(
                    calib_cfg,
                    beta_rate=rate,
                    seed=derive_seed("lodo-calib", target.domain_id, seed),
                )
                result = fit_calibration(preds, lab_vec, ccfg, domain_ids=reg.domain_ids)
                runtime = build_share + (time.perf_counter() - m_started)
                rows.append(MethodResult(
                    target_domain=target.domain_id,
                    method=method,
                    seed=seed,
                    scenario=scenario_kind,
                    csmf_acc=csmf_accuracy(adjusted(result.pi_mean()), csmf_true),
                    top_acc=None,
                    balanced_acc=None,
                    runtime_s=runtime,
                ))
        except FedvaError as exc:
            for method in calib_requested:
                skips.append(SkippedCell(target.domain_id, method, seed,
                                         f"{type(exc).__name__}: {exc}"))

    order_key = {m: i for i, m in enumerate(KNOWN_METHODS)}

    def sort_key(r):
        base = r.method.split(":")[0]
        if base == "local-one":  # constituents sit just before their mean
            return (order_key["local-avg"], 0, r.method)
        return (order_key.get(base, len(KNOWN_METHODS)), 1, r.method)

    rows.sort(key=sort_key)
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
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            summaries = list(pool.map(
                _train_task, [(d, lcm_hyper, lcm_cfg, min_count) for d in domains]
            ))
    else:
        summaries = [train_lcm(d, lcm_hyper, lcm_cfg, min_count=min_count) for d in domains]
    by_id = {d.domain_id: s for d, s in zip(domains, summaries)}

    tasks = []
    skipped: list[SkippedCell] = []
    for target in domains:
        train_sums = [by_id[d.domain_id] for d in domains if d.domain_id != target.domain_id]
        coverage = np.sum([s.present.astype(int) for s in train_sums], axis=0)
        if np.any(coverage == 0):
            uncovered = np.flatnonzero(coverage == 0).tolist()
            for seed in seeds:
                skipped.append(SkippedCell(
                    target.domain_id, "*", seed,
                    f"registry incomplete: cause indices {uncovered} uncovered",
                ))
            continue
        for seed in seeds:
            tasks.append((target, train_sums, methods, scenario_kind, seed,
                          label_fraction, ens_cfg, calib_cfg, lcm_hyper, lcm_cfg))

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_cell, tasks))
    else:
        results = [_run_cell(t) for t in tasks]

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


def _train_task(args):
    d, hyper, cfg, min_count = args
    return train_lcm(d, hyper, cfg, min_count=min_count)
