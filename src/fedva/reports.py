"""Report rendering: posterior tables, weight matrices, per-death CSVs.

The CSV tables follow data.py's one CSV rule, as datasets and
`lodo_results.csv` do: floats by `repr`, so identical runs emit identical
bytes, and a name cell (cause, death or domain id) quoted when it holds a
comma, a quote, a CR or an LF, so any id the loaders accept reads back.
"""
from __future__ import annotations

import numpy as np

from .calibration import CalibrationResult, gamma_prior_mean
from .data import CauseList, csv_line, csv_name, csv_text
from .ensemble import Classification, GlobalPosterior


def pi_summary(pi_draws: np.ndarray) -> np.ndarray:
    """(3, C): each cause's posterior mean, 2.5% and 97.5% quantile; every pi report's."""
    return np.vstack([pi_draws.mean(axis=0), np.quantile(pi_draws, [0.025, 0.975], axis=0)])


def pi_table_csv(pi_draws: np.ndarray, cause_list: CauseList) -> str:
    """Per-cause posterior mean with a central 95% interval."""
    rows = zip(cause_list.causes, pi_summary(pi_draws).T.tolist())
    return csv_text(["cause", "mean", "q2.5", "q97.5"], (csv_line([c], row) for c, row in rows))


def lambda_matrix_csv(post: GlobalPosterior, cause_list: CauseList) -> str:
    """Posterior-mean domain weight per (cause, domain)."""
    rows = zip(cause_list.causes, post.lambda_mean().tolist())
    return csv_text(["cause", *post.domain_ids], (csv_line([c], row) for c, row in rows))


def classification_csv(cls: Classification, cause_list: CauseList) -> str:
    causes = [csv_name(cause) for cause in cause_list.causes]
    tops = [causes[c] for c in cls.top.tolist()]
    return csv_text(["death_id", *cause_list.causes, "top_cause"],
                    (",".join([csv_name(death_id), *map(repr, row), top])
                     for death_id, row, top in zip(cls.death_ids, cls.probs.tolist(), tops)))


def csmf_csv(csmf: np.ndarray, cause_list: CauseList) -> str:
    """The CSMF point estimate: a header of causes over one csmf_estimate row."""
    return csv_text(["cause", *cause_list.causes],
                    [csv_line(["csmf_estimate"], np.asarray(csmf).tolist())])


def posterior_text(post: GlobalPosterior, cause_list: CauseList) -> str:
    """Human-readable fit summary with convergence diagnostics."""
    mean, lo, hi = pi_summary(post.pi_draws)
    out = [
        f"draws: {post.D} (chains: {post.config.chains})",
        f"variant: {post.config.variant}   lambda prior: {post.config.lambda_prior.kind}",
    ]
    if post.acceptance_rate is not None:
        out.append(f"Metropolis acceptance rate: {post.acceptance_rate:.3f}")
    out.append("")
    out.append(f"{'cause':<28}{'mean':>10}{'2.5%':>10}{'97.5%':>10}{'R-hat':>8}")
    for c, name in enumerate(cause_list.causes):
        rhat = post.rhat_pi[c]
        rhat_s = f"{rhat:.3f}" if np.isfinite(rhat) else "n/a"
        out.append(f"{name:<28}{mean[c]:>10.4f}{lo[c]:>10.4f}{hi[c]:>10.4f}{rhat_s:>8}")
    out.append("")
    return "\n".join(out)


def calibration_text(result: CalibrationResult, cause_list: CauseList) -> str:
    """Calibration report; leads with the method's scope and simplification."""
    out = [
        "confusion-matrix calibration (hard-classification variant)",
        "",
        "NOTE: this baseline calibrates each model's single top predicted",
        "cause, not its full probability vector, and estimates prevalence",
        "only; it does not assign causes to individual deaths.",
        "",
        f"shrinkage: gamma ~ Gamma(shape={result.config.alpha}, "
        f"rate={result.config.beta_rate}) (prior mean {gamma_prior_mean(result.config)})",
        "",
    ]
    mean, lo, hi = pi_summary(result.pi_draws)
    out.append(f"{'cause':<28}{'mean':>10}{'2.5%':>10}{'97.5%':>10}")
    for c, name in enumerate(cause_list.causes):
        out.append(f"{name:<28}{mean[c]:>10.4f}{lo[c]:>10.4f}{hi[c]:>10.4f}")
    out.append("")
    for m, dom in enumerate(result.domain_ids):
        out.append(f"posterior-mean confusion matrix, model {dom}")
        out.append("  rows: true cause; columns: predicted cause")
        for c in range(len(cause_list)):
            row = " ".join(f"{v:8.4f}" for v in result.confusion_mean[m, c])
            out.append(f"  {cause_list.causes[c]:<26} {row}")
        out.append("")
    return "\n".join(out)
