"""Reference implementations that tests compare the package against.

`run_chain_reference` is the log-space ensemble kernel: per sweep, a
logsumexp over domains gives each death's cause marginal, Gumbel draws pick
the cause and then the domain, and every cause's lambda row is its own
Dirichlet draw. `fedva.ensemble` samples the same posterior in probability
space, so the two agree in distribution, not draw for draw.

`train_lcm_reference` is the per-cause latent class kernel: each Gibbs
iteration loops over the causes with their own stick, theta and Gumbel
draws, then draws a within-domain CSMF that nothing reads. `fedva.lcm`
draws every cause at once, so the two agree in distribution only.
`cond_loglik_matrix_reference` is the per-cause form of the batched
likelihood, one scipy `logsumexp` per cause.

`fit_calibration_reference` is the per-(model, cause) calibration kernel:
each iteration makes one scalar Metropolis step on every gamma and one
Dirichlet draw per confusion row. `fedva.calibration` updates all pairs at
once, so the two agree in distribution only.

`draw_cells_reference` is the row-major form of the sweep's cell draw: a
row-wise cumsum, then an inverse-CDF count per row. `fedva.ensemble` builds
the same left-fold sums cell-major, so the two return identical cells from
identically seeded generators. `classify_reference` is the per-draw loop
of posterior-predictive classification, one einsum per pooled draw;
`fedva.ensemble.classify` computes the same average as blocked matrix
products, so the two agree to rounding.

`log_dirichlet_reference` is the log-space Dirichlet draw that
`fedva.utils.log_dirichlet` keeps for concentrations below 0.1; at or above
0.1 the package takes a linear path with the same generator calls, so the
two agree to rounding.

`summary_bytes_reference` is the two-dump exporter: it serializes the
document, hashes it, adds the checksum and serializes it again.
`fedva.exchange.summary_bytes` dumps once and splices the checksum member in,
so the two must return identical bytes.

`parse_dataset_reference` is the per-cell dataset parser: every symptom cell
is stripped and mapped through a dict. `fedva.data.load_dataset` maps all
well-formed rows at once, so the two must return identical arrays and raise
the same exception with the same message.

`simulate_reference` is the per-death record loop of the simulator, for a
spec with every parameter given: one `choice` for the latent class and one
`random(p)` for the symptoms per death, with the target's source domains and
records in loops of their own. `fedva.simulate` draws each site's and the
target's records from one block of uniforms, so the two must return
identical arrays.

`enumerate_mass` sums a summary's likelihood over every fully observed
symptom vector; it must equal 1 for each covered cause.
"""
from __future__ import annotations

import csv

import numpy as np
from scipy.special import expit, logsumexp

from fedva.calibration import CalibConfig, CalibrationResult, PredictionTensor
from fedva.data import UNLABELED, Dataset, SymptomValue, cause_counts
from fedva.ensemble import EnsembleConfig, GlobalPosterior, PhiTensor, marginal_loglik
from fedva.errors import (
    DuplicateDeathId,
    EmptyDataset,
    FedvaError,
    InvalidHyper,
    InvalidSummary,
    MalformedCell,
    NotFullyLabeled,
    UnknownCause,
    UnknownSymptomColumn,
)
from fedva.exchange import _canonical_bytes, _summary_document
from fedva.lcm import (
    _THETA_EPS,
    BaseModelSummary,
    GibbsConfig,
    LcmHyper,
    Provenance,
    _canonical_order,
    cond_loglik_matrix,
)
from fedva.simulate import GeneratorSpec
from fedva.utils import derive_rng, gumbel_argmax, log_dirichlet, log_dirichlet_pdf, sha256_hex

from fedva import TOOL_VERSION


class AbsentCause(FedvaError):
    """`enumerate_mass` was asked about a cause the summary does not cover."""


class TooManySymptoms(FedvaError):
    """`enumerate_mass` was asked to enumerate 2^p vectors for p above 20."""


def _sample_lambda_row(rng, counts_m: np.ndarray, allowed: np.ndarray, conc: float):
    """Dirichlet conditional on the allowed domains; zeros elsewhere."""
    M = allowed.shape[0]
    lam = np.zeros(M)
    log_lam = np.full(M, -np.inf)
    idx = np.flatnonzero(allowed)
    vals, logs = log_dirichlet(rng, conc + counts_m[idx])
    lam[idx] = vals
    log_lam[idx] = logs
    return lam, log_lam


def run_chain_reference(phi: PhiTensor, labels: np.ndarray | None, cfg: EnsembleConfig,
                        chain: int):
    """One chain of the log-space kernel: (pi, pi_tilde or None, lambda) draws.

    Untied and with labels, it also draws pi_tilde, the labeled deaths' own
    cause distribution, every sweep. No other block reads it, and
    `fedva.ensemble` leaves it out, so their (pi, lambda) draws agree in
    distribution only.
    """
    n, C, M = phi.n, phi.C, phi.M
    y = np.full(n, UNLABELED) if labels is None else np.asarray(labels, dtype=np.int64)
    lab_rows = np.flatnonzero(y != UNLABELED)
    y_lab = y[lab_rows]
    n_L = lab_rows.size
    allowed = phi.present.astype(bool)
    conc = cfg.lambda_prior.conc
    ln_prior = cfg.lambda_prior.kind == "logistic_normal"
    sigma = cfg.lambda_prior.sigma
    rng = derive_rng("ensemble-chain", cfg.seed, chain)

    log_phi_u = phi.log_phi[y == UNLABELED]
    n_u = n - n_L
    counts_lab = np.bincount(y_lab, minlength=C).astype(np.float64)

    pi, log_pi = log_dirichlet(rng, np.full(C, cfg.pi_prior_conc))
    if cfg.tie_pi or n_L == 0:
        pi_tilde = pi
    else:
        pi_tilde, _ = log_dirichlet(rng, np.full(C, cfg.pi_prior_conc))

    lam = np.zeros((C, M))
    log_lam = np.full((C, M), -np.inf)
    beta = np.zeros((C, M))
    if ln_prior:
        for c in range(C):
            idx = np.flatnonzero(allowed[c])
            beta[c, idx] = rng.normal(0.0, sigma, size=idx.shape[0])
            log_lam[c, idx] = beta[c, idx] - logsumexp(beta[c, idx])
            lam[c, idx] = np.exp(log_lam[c, idx])
    else:
        for c in range(C):
            lam[c], log_lam[c] = _sample_lambda_row(rng, np.zeros(M), allowed[c], conc)

    step = np.full(C, cfg.mh_step)
    accept_win = np.zeros(C)
    window = 0
    multi = allowed.sum(axis=1) > 1

    keep = (cfg.iterations - cfg.burn_in + cfg.thin - 1) // cfg.thin
    pi_out = np.empty((keep, C))
    pi_tilde_out = np.empty((keep, C)) if (n_L and not cfg.tie_pi) else None
    lam_out = np.empty((keep, C, M))
    kept = 0

    for it in range(cfg.iterations):
        # (Y, H) | pi, lambda: cause marginal, then domain given cause
        if n_u:
            with np.errstate(invalid="ignore"):
                by_cause = logsumexp(log_phi_u + log_lam[None, :, :], axis=2)
            y_u = gumbel_argmax(rng, by_cause + log_pi[None, :], axis=1)
            h_u = gumbel_argmax(
                rng, log_phi_u[np.arange(n_u), y_u, :] + log_lam[y_u, :], axis=1
            )
            counts_u = np.bincount(y_u, minlength=C).astype(np.float64)
            nm = np.bincount(y_u * M + h_u, minlength=C * M).astype(np.float64)
        else:
            counts_u = np.zeros(C)
            nm = np.zeros(C * M)
        if n_L:
            h_l = gumbel_argmax(
                rng, phi.log_phi[lab_rows, y_lab, :] + log_lam[y_lab, :], axis=1
            )
            nm += np.bincount(y_lab * M + h_l, minlength=C * M)
        nm = nm.reshape(C, M)

        if cfg.tie_pi:
            pi, log_pi = log_dirichlet(rng, cfg.pi_prior_conc + counts_u + counts_lab)
            pi_tilde = pi
        else:
            pi, log_pi = log_dirichlet(rng, cfg.pi_prior_conc + counts_u)
            if n_L:
                pi_tilde, _ = log_dirichlet(rng, cfg.pi_prior_conc + counts_lab)

        if ln_prior:
            adapting = it < cfg.burn_in
            for c in range(C):
                idx = np.flatnonzero(allowed[c])
                if not multi[c]:
                    lam[c, idx], log_lam[c, idx] = 1.0, 0.0
                    continue
                b = beta[c, idx]
                prop = b + step[c] * rng.normal(size=idx.shape[0])
                cur_ll = b - logsumexp(b)
                prop_ll = prop - logsumexp(prop)
                delta = (
                    float(nm[c, idx] @ (prop_ll - cur_ll))
                    + (b @ b - prop @ prop) / (2.0 * sigma**2)
                )
                if np.log(rng.random()) < delta:
                    beta[c, idx] = prop
                    cur_ll = prop_ll
                    accept_win[c] += 1
                log_lam[c, idx] = cur_ll
                lam[c, idx] = np.exp(cur_ll)
            window += 1
            if adapting and window == 50:
                rate = accept_win / 50.0
                step[rate < 0.20] *= 0.8
                step[rate > 0.40] *= 1.25
                accept_win[:] = 0.0
                window = 0
        else:
            for c in range(C):
                lam[c], log_lam[c] = _sample_lambda_row(rng, nm[c], allowed[c], conc)

        if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thin == 0:
            pi_out[kept] = pi
            if pi_tilde_out is not None:
                pi_tilde_out[kept] = pi_tilde
            lam_out[kept] = lam
            kept += 1
    return pi_out, pi_tilde_out, lam_out


def fit_reference(phi: PhiTensor, labels: np.ndarray | None, cfg: EnsembleConfig):
    """Pooled (pi, lambda) draws of `cfg.chains` reference chains."""
    runs = [run_chain_reference(phi, labels, cfg, chain) for chain in range(cfg.chains)]
    return np.concatenate([r[0] for r in runs]), np.concatenate([r[2] for r in runs])


def log_posterior(phi: PhiTensor, post: GlobalPosterior,
                  labels: np.ndarray | None = None) -> np.ndarray:
    """Unnormalized log-posterior of every kept draw, for a Dirichlet lambda prior.

    Mixture likelihood with latent assignments summed out, plus the
    Dirichlet log-densities of pi and of every lambda row over the domains
    that cover its cause (rows with one covering domain are fixed at 1 and
    contribute nothing). Untied, a labeled death's cause is not scored
    through pi: its own cause distribution integrates out to a constant.
    """
    cfg = post.config
    if cfg.lambda_prior.kind != "dirichlet":
        raise ValueError("log_posterior covers the Dirichlet lambda prior only")
    allowed = phi.present.astype(bool)
    multi = np.flatnonzero(allowed.sum(axis=1) > 1)
    pi_alpha = np.full(phi.C, cfg.pi_prior_conc)
    out = np.empty(post.D)
    with np.errstate(divide="ignore"):
        for d in range(post.D):
            pi, lam = post.pi_draws[d], post.lambda_draws[d]
            lp = marginal_loglik(phi, pi, lam, labels=labels)
            if labels is not None and not cfg.tie_pi:
                lp -= np.log(pi)[labels[labels != UNLABELED]].sum()
            lp += log_dirichlet_pdf(np.log(pi), pi_alpha)
            for c in multi:
                row = lam[c, allowed[c]]
                lp += log_dirichlet_pdf(np.log(row),
                                        np.full(row.shape[0], cfg.lambda_prior.conc))
            out[d] = lp
    return out


def log_dirichlet_reference(rng, alpha) -> tuple[np.ndarray, np.ndarray]:
    """(values, log-values) of a Dirichlet draw, normalized in log space."""
    alpha = np.asarray(alpha, dtype=np.float64)
    small = alpha < 0.1
    g = rng.gamma(shape=np.where(small, alpha + 1.0, alpha))
    log_g = np.log(np.maximum(g, np.finfo(np.float64).tiny))
    if np.any(small):
        u = 1.0 - rng.random(size=alpha.shape)
        log_g = np.where(small, log_g + np.log(u) / np.maximum(alpha, 1e-300), log_g)
    log_g = np.where(alpha > 0, log_g, -np.inf)
    log_x = log_g - logsumexp(log_g, axis=-1, keepdims=True)
    return np.exp(log_x), log_x


def draw_cells_reference(rng, phi_exp, w, log_phi, log_w) -> np.ndarray:
    """Row-major cell draw: phi_exp, log_phi are (rows, cells); w, log_w broadcast."""
    cum = np.cumsum(phi_exp * w, axis=1)
    total = cum[:, -1]
    u = np.minimum(rng.random(total.shape[0]) * total, np.nextafter(total, 0.0))
    cell = np.count_nonzero(cum <= u[:, None], axis=1)
    low = np.flatnonzero(total < np.finfo(np.float64).tiny)
    if low.size:
        cell[low] = gumbel_argmax(
            rng, log_phi[low] + np.broadcast_to(log_w, log_phi.shape)[low], axis=1
        )
    return cell


def classify_reference(phi: PhiTensor, post: GlobalPosterior) -> np.ndarray:
    """Posterior-predictive cause probabilities (n, C), one einsum per draw."""
    shift = phi.log_phi.max(axis=(1, 2), keepdims=True)
    phi_exp = np.exp(phi.log_phi - shift)
    probs = np.zeros((phi.n, phi.C))
    for d in range(post.D):
        num = np.einsum("icm,cm->ic", phi_exp, post.lambda_draws[d]) * post.pi_draws[d]
        probs += num / num.sum(axis=1, keepdims=True)
    return probs / post.D


def _stick_breaking(rng: np.random.Generator, counts: np.ndarray, alpha_sb: float) -> np.ndarray:
    """One draw of mixture weights from the truncated stick conditionals."""
    K = counts.shape[0]
    if K == 1:
        return np.ones(1)
    tail = counts[::-1].cumsum()[::-1] - counts  # tail[k] = sum_{l>k} counts[l]
    v = np.empty(K)
    v[: K - 1] = rng.beta(1.0 + counts[: K - 1], alpha_sb + tail[: K - 1])
    v[K - 1] = 1.0  # truncation: last stick takes the remainder
    nu = np.empty(K)
    rest = 1.0
    for k in range(K):
        nu[k] = v[k] * rest
        rest *= 1.0 - v[k]
    return nu


def train_lcm_reference(labeled: Dataset, hyper: LcmHyper, cfg: GibbsConfig,
                        min_count: int = 1) -> BaseModelSummary:
    """The per-cause Gibbs kernel, same stream key as `fedva.lcm.train_lcm`."""
    hyper.validate()
    cfg.validate()
    if min_count < 1:
        raise InvalidHyper(f"min_count must be >= 1, got {min_count!r}")
    if labeled.n == 0:
        raise EmptyDataset(f"domain {labeled.domain_id!r} has no records")
    if np.any(labeled.y == UNLABELED):
        raise NotFullyLabeled(f"domain {labeled.domain_id!r} has unlabeled records")

    order = _canonical_order(labeled)
    x = labeled.x[order]
    y = labeled.y[order]
    C = len(labeled.cause_list)
    K, p, n = hyper.K, labeled.p, labeled.n
    a_th, b_th = hyper.theta_prior
    n_by_cause = cause_counts(labeled)
    trained = [c for c in range(C) if n_by_cause[c] > 0]

    rng = derive_rng("lcm-train", labeled.domain_id, cfg.seed)

    rows = {c: np.flatnonzero(y == c) for c in trained}
    yes = {c: (x[rows[c]] == SymptomValue.YES).astype(np.float64) for c in trained}
    no = {c: (x[rows[c]] == SymptomValue.NO).astype(np.float64) for c in trained}

    nu = np.full((C, K), np.nan)
    theta = np.full((C, K, p), np.nan)
    z = np.zeros(n, dtype=np.int64)
    if hyper.sparse:
        mu = np.full((C, p), np.nan)
        omega = np.full(C, np.nan)
    slab = {c: np.full((K, p), 0.5) for c in trained} if hyper.sparse else None
    for c in trained:
        z[rows[c]] = rng.integers(0, K, size=rows[c].shape[0])
        if hyper.sparse:
            mu[c] = 0.5
            omega[c] = 0.5

    sum_nu = np.zeros((C, K))
    sum_theta = np.zeros((C, K, p))
    kept = 0

    oa, ob = hyper.spike_omega_prior
    for it in range(cfg.iterations):
        for c in trained:
            z_c = z[rows[c]]
            n_c = rows[c].shape[0]
            zoh = np.zeros((n_c, K))
            zoh[np.arange(n_c), z_c] = 1.0
            counts_k = zoh.sum(axis=0)
            yes_k = zoh.T @ yes[c]
            no_k = zoh.T @ no[c]

            nu[c] = _stick_breaking(rng, counts_k, hyper.alpha_sb)

            if hyper.sparse:
                th_slab = slab[c]
                mu_c = mu[c]
                om = omega[c]
                logit = (
                    np.log(om) - np.log1p(-om)
                    + yes_k * (np.log(th_slab) - np.log(mu_c))
                    + no_k * (np.log1p(-th_slab) - np.log1p(-mu_c))
                )
                delta = (rng.random((K, p)) < expit(logit)).astype(np.int8)
                th_slab = rng.beta(a_th + delta * yes_k, b_th + delta * no_k)
                slab[c] = np.clip(th_slab, _THETA_EPS, 1.0 - _THETA_EPS)
                off = 1.0 - delta
                mu_c = rng.beta(
                    a_th + (off * yes_k).sum(axis=0), b_th + (off * no_k).sum(axis=0)
                )
                mu[c] = np.clip(mu_c, _THETA_EPS, 1.0 - _THETA_EPS)
                d_sum = float(delta.sum())
                om = rng.beta(oa + d_sum, ob + K * p - d_sum)
                omega[c] = min(max(om, _THETA_EPS), 1.0 - _THETA_EPS)
                theta_c = delta * slab[c] + off * mu[c][None, :]
            else:
                theta_c = rng.beta(a_th + yes_k, b_th + no_k)
            theta[c] = np.clip(theta_c, _THETA_EPS, 1.0 - _THETA_EPS)

            with np.errstate(divide="ignore"):
                logw = (
                    yes[c] @ np.log(theta[c]).T
                    + no[c] @ np.log1p(-theta[c]).T
                    + np.log(nu[c])
                )
            z[rows[c]] = gumbel_argmax(rng, logw)

        rng.dirichlet(hyper.pi_prior + n_by_cause.astype(np.float64))  # pi_m, unread

        if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thin == 0:
            for c in trained:
                sum_nu[c] += nu[c]
                sum_theta[c] += theta[c]
            kept += 1

    nu_bar = np.full((C, K), np.nan)
    theta_bar = np.full((C, K, p), np.nan)
    present = np.zeros(C, dtype=np.uint8)
    for c in trained:
        if n_by_cause[c] < min_count:
            continue
        present[c] = 1
        nu_c = sum_nu[c] / kept
        nu_bar[c] = nu_c / nu_c.sum()
        theta_bar[c] = np.clip(sum_theta[c] / kept, _THETA_EPS, 1.0 - _THETA_EPS)

    summary = BaseModelSummary(
        domain_id=labeled.domain_id,
        nu_bar=nu_bar,
        theta_bar=theta_bar,
        present=present,
        n_by_cause=n_by_cause,
        cause_list_fingerprint=labeled.cause_list.fingerprint,
        dict_fingerprint=labeled.symptom_dict.fingerprint,
        hyper=hyper,
        provenance=Provenance(
            tool_version=TOOL_VERSION,
            seed=cfg.seed,
            iterations=cfg.iterations,
            burn_in=cfg.burn_in,
        ),
    )
    summary.validate()
    return summary


def cond_loglik_matrix_reference(s: BaseModelSummary, x: np.ndarray) -> np.ndarray:
    """(n, C) of log p(x_i | Y=c), one logsumexp per covered cause."""
    x = np.asarray(x)
    yes = (x == SymptomValue.YES).astype(np.float64)
    no = (x == SymptomValue.NO).astype(np.float64)
    all_missing = ~(yes.any(axis=1) | no.any(axis=1))
    out = np.full((x.shape[0], s.C), -np.inf)
    for c in range(s.C):
        if not s.present[c]:
            continue
        th = s.theta_bar[c]
        with np.errstate(divide="ignore"):
            log_nu = np.log(s.nu_bar[c])
        logw = yes @ np.log(th).T + no @ np.log1p(-th).T + log_nu
        out[:, c] = logsumexp(logw, axis=1)
        out[all_missing, c] = 0.0
    return out


def fit_calibration_reference(a: PredictionTensor, labels: np.ndarray | None,
                              cfg: CalibConfig):
    """The per-(model, cause) kernel, same stream keys as `fit_calibration`.

    Returns the result and the kept gamma (D, M, C) and confusion
    (D, M, C, C) draws. Takes valid inputs only.
    """
    n, C, M = a.n, a.C, a.M
    y = np.full(n, UNLABELED) if labels is None else np.asarray(labels, dtype=np.int64)
    top = a.top()
    rng = derive_rng("calibration", cfg.seed)
    rng_cut = derive_rng("calibration-cut", cfg.seed)

    counts = np.zeros((M, C, C))
    for i in np.flatnonzero(y != UNLABELED):
        for m in range(M):
            counts[m, y[i], top[i, m]] += 1.0

    def log_target(g, log_row, counts_row, eye_row):
        return (
            (cfg.alpha - 1.0) * np.log(g) - cfg.beta_rate * g
            + log_dirichlet_pdf(log_row, g * eye_row + counts_row)
            + np.log(g)  # Jacobian of the log-scale walk
        )

    eye_eps = np.eye(C) + cfg.epsilon
    gamma = np.full((M, C), cfg.alpha / cfg.beta_rate)
    log_conf = np.empty((M, C, C))
    conf = np.empty((M, C, C))
    for m in range(M):
        for c in range(C):
            conf[m, c], log_conf[m, c] = log_dirichlet(
                rng_cut, gamma[m, c] * eye_eps[c] + counts[m, c]
            )

    top_u = top[y == UNLABELED]
    n_u = top_u.shape[0]
    keep = cfg.iterations - cfg.burn_in
    pi_out = np.empty((keep, C))
    gamma_out = np.empty((keep, M, C))
    conf_out = np.empty((keep, M, C, C))
    pi, log_pi = log_dirichlet(rng, np.ones(C))
    kept = 0

    for it in range(cfg.iterations):
        for m in range(M):
            for c in range(C):
                g = gamma[m, c]
                g_new = float(np.exp(np.log(g) + 0.3 * rng_cut.normal()))
                cur = log_target(g, log_conf[m, c], counts[m, c], eye_eps[c])
                new = log_target(g_new, log_conf[m, c], counts[m, c], eye_eps[c])
                if np.log(rng_cut.random()) < new - cur:
                    gamma[m, c] = g_new

        for m in range(M):
            for c in range(C):
                conf[m, c], log_conf[m, c] = log_dirichlet(
                    rng_cut, gamma[m, c] * eye_eps[c] + counts[m, c]
                )

        if n_u:
            logw = log_pi[None, :].repeat(n_u, axis=0)
            for m in range(M):
                logw = logw + log_conf[m][:, top_u[:, m]].T
            t_u = gumbel_argmax(rng, logw, axis=1)
            latent_counts = np.bincount(t_u, minlength=C).astype(np.float64)
        else:
            latent_counts = np.zeros(C)

        pi, log_pi = log_dirichlet(rng, 1.0 + latent_counts)

        if it >= cfg.burn_in:
            pi_out[kept] = pi
            gamma_out[kept] = gamma
            conf_out[kept] = conf
            kept += 1

    result = CalibrationResult(
        pi_draws=pi_out,
        confusion_mean=conf_out.mean(axis=0),
        config=cfg,
        domain_ids=a.domain_ids,
    )
    return result, gamma_out, conf_out


def _draw_records_reference(rng, n: int, pi: np.ndarray, nu_m: np.ndarray,
                            theta_m: np.ndarray, missing_rate: float):
    """Sample (y, x) for one domain of the latent class model, death by death."""
    C, K, p = theta_m.shape
    y = rng.choice(C, size=n, p=pi)
    x = np.empty((n, p), dtype=np.uint8)
    for i in range(n):
        z = rng.choice(K, p=nu_m[y[i]])
        x[i] = (rng.random(p) < theta_m[y[i], z]).astype(np.uint8)
    if missing_rate:
        mask = rng.random((n, p)) < missing_rate
        x[mask] = int(SymptomValue.MISSING)
    return y.astype(np.int32), x


def simulate_reference(spec: GeneratorSpec):
    """([(y, x) of every site], (y, source, x) of the target), death by death.

    Every parameter must be given in spec, so that `simulate` draws none and
    its stream starts at the records, as this one does.
    """
    spec.validate()
    C, K, p, M = spec.C, spec.K, spec.p, spec.M
    rng = derive_rng("simulate", spec.seed)
    pi_domains, pi_target, lambda_mix = spec.pi_domains, spec.pi_target, spec.lambda_mix
    nu, theta = np.asarray(spec.nu), np.asarray(spec.theta)
    sites = [_draw_records_reference(rng, spec.n_domain, pi_domains[m], nu[m], theta[m],
                                     spec.missing_rate) for m in range(M)]
    y_t = rng.choice(C, size=spec.n_target, p=pi_target).astype(np.int32)
    source = np.empty(spec.n_target, dtype=np.int64)
    for i in range(spec.n_target):
        source[i] = rng.choice(M, p=lambda_mix[y_t[i]])
    x_t = np.empty((spec.n_target, p), dtype=np.uint8)
    for i in range(spec.n_target):
        z = rng.choice(K, p=nu[source[i], y_t[i]])
        x_t[i] = (rng.random(p) < theta[source[i], y_t[i], z]).astype(np.uint8)
    if spec.missing_rate:
        mask = rng.random((spec.n_target, p)) < spec.missing_rate
        x_t[mask] = int(SymptomValue.MISSING)
    return sites, (y_t, source, x_t)


def enumerate_mass(s: BaseModelSummary, c: int, chunk: int = 1 << 14) -> float:
    """Sum exp(log p(x | Y=c)) over all 2^p fully observed vectors."""
    if s.p > 20:
        raise TooManySymptoms(f"enumeration over 2^{s.p} vectors refused (p must be <= 20)")
    if not 0 <= c < s.C or not s.present[c]:
        raise AbsentCause(f"cause {c} is not covered by domain {s.domain_id!r}")
    p = s.p
    total = 0.0
    codes = np.arange(2**p, dtype=np.int64)
    for start in range(0, codes.shape[0], chunk):
        block = codes[start : start + chunk]
        bits = ((block[:, None] >> np.arange(p)) & 1).astype(np.uint8)
        total += float(np.exp(cond_loglik_matrix(s, bits)[:, c]).sum())
    return total


def summary_bytes_reference(s: BaseModelSummary) -> bytes:
    """Validate, dump the document, hash it, then dump it again with the checksum."""
    s.validate()
    for c in range(s.C):
        if s.present[c] and (np.any(np.isnan(s.nu_bar[c])) or np.any(np.isnan(s.theta_bar[c]))):
            raise InvalidSummary(f"present cause {c} has NaN parameters")
    document = _summary_document(s)
    document["checksum"] = sha256_hex(_canonical_bytes(document))
    return _canonical_bytes(document) + b"\n"


_CELL_TO_CODE = {"Y": SymptomValue.YES, "N": SymptomValue.NO, ".": SymptomValue.MISSING}


def parse_dataset_reference(path, cause_list, symptom_dict, domain_id=None) -> Dataset:
    """Per-cell form of `fedva.data.load_dataset`: same checks, same messages."""
    try:
        return _parse_dataset_reference(path, cause_list, symptom_dict, domain_id)
    except UnicodeDecodeError as exc:
        raise MalformedCell(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _parse_dataset_reference(path, cause_list, symptom_dict, domain_id) -> Dataset:
    p = len(symptom_dict)
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedCell(f"{path}: empty file") from None
        expected = ["death_id", "cause", *symptom_dict.symptoms]
        if header != expected:
            raise UnknownSymptomColumn(
                f"{path}: header does not match the symptom dictionary order"
            )
        death_ids: list[str] = []
        rows: list[list[int]] = []
        labels: list[int] = []
        seen: set[str] = set()
        blank = None
        for lineno, row in enumerate(reader, start=2):
            if not row:
                blank = blank or lineno
                continue
            if blank is not None:
                raise MalformedCell(f"{path}:{blank}: blank line before the last record")
            if len(row) != p + 2:
                raise MalformedCell(f"{path}:{lineno}: expected {p + 2} cells, got {len(row)}")
            death_id = row[0].strip()
            if not death_id:
                raise MalformedCell(f"{path}:{lineno}: empty death_id")
            if death_id in seen:
                raise DuplicateDeathId(f"{path}:{lineno}: duplicate death_id {death_id!r}")
            seen.add(death_id)
            cause_cell = row[1].strip()
            if cause_cell == "":
                labels.append(UNLABELED)
            else:
                try:
                    labels.append(cause_list.index(cause_cell))
                except UnknownCause:
                    raise UnknownCause(f"{path}:{lineno}: unknown cause {cause_cell!r}") from None
            cells = []
            for j, cell in enumerate(row[2:]):
                code = _CELL_TO_CODE.get(cell.strip())
                if code is None:
                    raise MalformedCell(
                        f"{path}:{lineno}: column {symptom_dict.symptoms[j]!r} has "
                        f"value {cell!r}, expected Y, N or ."
                    )
                cells.append(int(code))
            death_ids.append(death_id)
            rows.append(cells)
    x = np.asarray(rows, dtype=np.uint8).reshape(len(rows), p)
    y = np.asarray(labels, dtype=np.int32)
    return Dataset(
        domain_id=domain_id if domain_id is not None else str(path),
        death_ids=tuple(death_ids),
        x=x,
        y=y,
        cause_list=cause_list,
        symptom_dict=symptom_dict,
    )
