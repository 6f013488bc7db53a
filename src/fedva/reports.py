"""Report rendering: posterior tables, weight matrices, per-death CSVs.

All float cells use shortest round-trip decimal formatting so identical
runs emit identical bytes. Name cells (causes, death ids, domain ids) are
quoted as the csv module's default dialect quotes them, so any id the
loaders accept reads back as one cell; plain ids are written as they are.
"""
from __future__ import annotations

import re

import numpy as np

from .calibration import CalibrationResult, gamma_prior_mean
from .data import CauseList
from .ensemble import Classification, GlobalPosterior


_NEEDS_QUOTES = re.compile(r'[,"\r\n]').search


def _name(cell: str) -> str:
    """A name cell as csv.writer's default (excel) dialect writes it: quoted,
    with inner quotes doubled, only if it holds a comma, a quote or a line break."""
    return '"' + cell.replace('"', '""') + '"' if _NEEDS_QUOTES(cell) else cell


def _header(*names: str) -> str:
    return ",".join(map(_name, names))


def _rows(names, table: np.ndarray) -> list[str]:
    """One CSV line per name: the name, then its row of `table` as repr floats."""
    return [",".join([_name(name), *map(repr, row)]) for name, row in zip(names, table.tolist())]


def pi_summary(pi_draws: np.ndarray) -> np.ndarray:
    """(3, C): each cause's posterior mean, 2.5% and 97.5% quantile; every pi report's."""
    return np.vstack([pi_draws.mean(axis=0), np.quantile(pi_draws, [0.025, 0.975], axis=0)])


def pi_table_csv(pi_draws: np.ndarray, cause_list: CauseList) -> str:
    """Per-cause posterior mean with a central 95% interval."""
    lines = ["cause,mean,q2.5,q97.5", *_rows(cause_list.causes, pi_summary(pi_draws).T)]
    return "\n".join(lines) + "\n"


def lambda_matrix_csv(post: GlobalPosterior, cause_list: CauseList) -> str:
    """Posterior-mean domain weight per (cause, domain)."""
    lines = [_header("cause", *post.domain_ids), *_rows(cause_list.causes, post.lambda_mean())]
    return "\n".join(lines) + "\n"


def classification_csv(cls: Classification, cause_list: CauseList) -> str:
    header = _header("death_id", *cause_list.causes, "top_cause")
    causes = [_name(cause) for cause in cause_list.causes]
    tops = [causes[c] for c in cls.top.tolist()]
    lines = [header, *(",".join([_name(death_id), *map(repr, row), top])
                       for death_id, row, top in zip(cls.death_ids, cls.probs.tolist(), tops))]
    return "\n".join(lines) + "\n"


def csmf_csv(csmf: np.ndarray, cause_list: CauseList) -> str:
    """The CSMF point estimate: a header of causes over one csmf_estimate row."""
    lines = [_header("cause", *cause_list.causes), *_rows(["csmf_estimate"], np.atleast_2d(csmf))]
    return "\n".join(lines) + "\n"


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
