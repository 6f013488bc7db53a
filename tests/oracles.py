"""Reference implementations that tests compare the package against.

`run_chain_reference` is the log-space ensemble kernel: per sweep, a
logsumexp over domains gives each death's cause marginal, Gumbel draws pick
the cause and then the domain, and every cause's lambda row is its own
Dirichlet draw. `fedva.ensemble` samples the same posterior in probability
space, so the two agree in distribution, not draw for draw.
"""
from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

from fedva.calibration import _log_dir_pdf_unnorm as log_dirichlet_pdf
from fedva.ensemble import EnsembleConfig, GlobalPosterior, PhiTensor, marginal_loglik
from fedva.utils import derive_rng, gumbel_argmax, log_dirichlet


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
    """One chain of the log-space kernel: (pi, pi_tilde or None, lambda) draws."""
    n, C, M = phi.n, phi.C, phi.M
    n_L = 0 if labels is None else len(labels)
    y_lab = None if labels is None else np.asarray(labels, dtype=np.int64)
    allowed = phi.present.astype(bool)
    conc = cfg.lambda_prior.conc
    ln_prior = cfg.lambda_prior.kind == "logistic_normal"
    sigma = cfg.lambda_prior.sigma
    rng = derive_rng("ensemble-chain", cfg.seed, chain)

    log_phi_u = phi.log_phi[n_L:]
    n_u = n - n_L
    counts_lab = (
        np.bincount(y_lab, minlength=C).astype(np.float64) if n_L else np.zeros(C)
    )
    lab_rows = np.arange(n_L)

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
    Dirichlet log-densities of pi, of pi_tilde when it is sampled apart from
    pi, and of every lambda row over the domains that cover its cause (rows
    with one covering domain are fixed at 1 and contribute nothing).
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
            pi_tilde = None if post.pi_tilde_draws is None else post.pi_tilde_draws[d]
            lp = marginal_loglik(phi, pi, lam, labels=labels, pi_tilde=pi_tilde)
            lp += log_dirichlet_pdf(np.log(pi), pi_alpha)
            if pi_tilde is not None:
                lp += log_dirichlet_pdf(np.log(pi_tilde), pi_alpha)
            for c in multi:
                row = lam[c, allowed[c]]
                lp += log_dirichlet_pdf(np.log(row),
                                        np.full(row.shape[0], cfg.lambda_prior.conc))
            out[d] = lp
    return out
