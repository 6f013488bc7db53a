"""Global ensemble over federated base models.

Given M exported conditional likelihoods and a target dataset, estimate the
target cause distribution pi and cause-specific domain weights lambda from

    p(pi, lambda | X) propto p(pi) p(lambda) prod_i sum_c sum_m
        phi[i,c,m] * pi_c * lambda_cm

by data-augmented Gibbs sampling: each death gets a latent (cause, domain)
pair, then pi and lambda have Dirichlet conditionals; (pi, lambda) is the
whole sampler state. A death with a known label is an unlabeled one whose
likelihood is zero off that cause, so the same draw serves it, and it
always informs lambda. Its cause enters pi's conditional only when the
labeled subset is a random sample of the target (tie_pi); otherwise the
labeled deaths' own cause distribution is not sampled, as no other block
would read it.

`build_phi` assembles the federation: it scores each source summary on the
target's deaths into one `PhiTensor`, whose columns it names by source
(`domain_ids`). Every fit reads that tensor alone. Under the domain and
mix variants `run_variant` appends one more column, the target-local model,
which the caller trains (`lcm.train_local`) on the labeled deaths that
`local_rows` picks; this module trains no model.

Labels are None or one vector over the tensor's rows, in row order, with
UNLABELED where the cause is unknown (as in `Dataset.y`), so labeled and
unlabeled deaths may interleave. A fit lays its rows out once, the
unlabeled ones first and then the labeled ones (`data.split_labels`), each
part in row order.

The sweep works in probability space. A fit exponentiates the likelihoods
once, shifted by every death's maximum, and keeps them in one domain-major
(M, C, deaths) array. A sweep draws each death's (cause, domain) cell,
weighted phi[i,c,m] * pi_c * lambda_cm, in two levels from one uniform
point u (the composition method): the cause c by an inverse CDF over the C
cause masses, which one batched matrix product gives, then the domain by an
inverse CDF over cause c's M weights at the leftover point u minus the mass
of the causes below c. That takes C + M running sums and comparisons per
death instead of C * M, and it draws from the same distribution with the
same generator calls. A labeled death's masses off its known cause are
exact zeros, so its cause level lands on that cause. Running sums take one
vectorized add per row across all deaths. Where a death's weights sum to at
most the smallest normal (zero and every subnormal included), because exp()
underflowed at a likelihood spread beyond ~745 nats or under tiny Dirichlet
concentrations, that death is drawn instead by a Gumbel argmax over the
log-weights of all its C * M cells; both give the same distribution.

Classification averages each draw's cause posterior over the pooled draws.
With E the (n, C*M) exp-shifted likelihoods and W the (D, C*M) weights
pi_c * lambda_cm of every draw, the probability of cause c is
(1/D) sum_m E * ((1 / (E W^T)) W) at the cells (c, m): two matrix products,
run over blocks of deaths and draws. A (death, draw) pair whose denominator
underflows is computed in log space instead, as in the sweep.

lambda rows live on the subset of domains that cover the cause; weights of
non-covering domains are exactly zero, and a cause that one domain covers
keeps weight exactly 1 there. The default lambda prior is a symmetric
Dirichlet (fully conjugate, all rows drawn in one batched call); a
logistic-normal prior over row log-weights is available via random-walk
Metropolis-within-Gibbs, one batched step in which each row is accepted alone.

A chain is a `ChainState` (generator, pi and lambda, the logistic-normal
walk, sweep count, kept draws) that `_run_chain` advances by any number of
sweeps. Step adaptation, burn-in and thinning read its own sweep count, so
rounds of any lengths give the bytes of one; `fit_global` runs one round.

`marginal_loglik` scores (pi, lambda) exactly, latent cells summed out by
the numpy `utils.logsumexp`; no fit or output reads it. Like every fedva
module, this one needs numpy alone.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .data import UNLABELED, Dataset, split_labels
from .errors import (
    CountOverflow,
    DimensionMismatch,
    DuplicateDomainId,
    EmptyRegistry,
    FingerprintMismatch,
    IncompletePhi,
    InsufficientLocalLabels,
    InvalidHyper,
    LocalModelMismatch,
    NotASimplex,
)
from .lcm import BaseModelSummary, GibbsConfig, cond_loglik_matrix
from .utils import (
    TINY,
    derive_rng,
    gumbel_argmax,
    inverse_cdf,
    log_dirichlet,
    logsumexp,
    parallel_map,
    round_half_up,
    running_sums,
)

VARIANTS = ("plain", "partial", "domain", "mix")
LOCAL_VARIANTS = ("domain", "mix")  # the variants that add a target-local model


def distinct_ids(ids, M: int) -> tuple[str, ...]:
    """ids as a tuple, when it holds M distinct domain ids: one per model or column."""
    ids = tuple(ids)
    if len(ids) != M:
        raise DimensionMismatch(f"expected {M} domain ids, got {len(ids)}")
    if len(set(ids)) != M:
        raise DuplicateDomainId(f"duplicate domain_id among {list(ids)}")
    return ids


@dataclass(frozen=True)
class PhiTensor:
    """log_phi[i,c,m] = log p_m(x_i | Y=c) under source domain_ids[m]; -inf iff (c,m) absent."""

    log_phi: np.ndarray
    present: np.ndarray
    death_ids: tuple[str, ...]
    domain_ids: tuple[str, ...]

    def __post_init__(self):
        log_phi = np.asarray(self.log_phi, dtype=np.float64)
        present = np.asarray(self.present, dtype=np.uint8)
        if log_phi.ndim != 3:
            raise DimensionMismatch("log_phi must have shape (n, C, M)")
        n, C, M = log_phi.shape
        if present.shape != (C, M):
            raise DimensionMismatch("present flags must be C x M")
        if len(self.death_ids) != n:
            raise DimensionMismatch("death_ids length disagrees with log_phi")
        live = log_phi[:, present == 1]
        if np.any(live == -np.inf) or np.any(log_phi[:, present == 0] != -np.inf):
            raise IncompletePhi("-inf cells must coincide exactly with absent (c,m)")
        if not np.all(live <= 0):
            raise IncompletePhi("log-likelihood entries must be <= 0 and not NaN")
        log_phi.setflags(write=False)
        present.setflags(write=False)
        object.__setattr__(self, "log_phi", log_phi)
        object.__setattr__(self, "present", present)
        object.__setattr__(self, "death_ids", tuple(self.death_ids))
        object.__setattr__(self, "domain_ids", distinct_ids(self.domain_ids, M))

    def rows(self, idx: np.ndarray) -> "PhiTensor":
        """The tensor over the deaths at positions idx, in that order."""
        return PhiTensor(log_phi=self.log_phi[idx], present=self.present,
                         death_ids=tuple(self.death_ids[i] for i in idx),
                         domain_ids=self.domain_ids)

    @property
    def n(self) -> int:
        return self.log_phi.shape[0]

    @property
    def C(self) -> int:
        return self.log_phi.shape[1]

    @property
    def M(self) -> int:
        return self.log_phi.shape[2]


@dataclass(frozen=True)
class LambdaPrior:
    """Domain-weight prior: symmetric dirichlet(conc) or logistic_normal(sigma)."""

    kind: str = "dirichlet"
    conc: float = 1.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in ("dirichlet", "logistic_normal"):
            raise InvalidHyper(f"unknown lambda prior kind {self.kind!r}")
        if self.kind == "dirichlet" and not self.conc > 0:
            raise InvalidHyper(f"dirichlet concentration must be positive, got {self.conc!r}")
        if self.kind == "logistic_normal" and not self.sigma > 0:
            raise InvalidHyper(f"logistic-normal sigma must be positive, got {self.sigma!r}")


@dataclass(frozen=True)
class EnsembleConfig:
    variant: str = "plain"
    tie_pi: bool = True
    lambda_prior: LambdaPrior = LambdaPrior()
    pi_prior_conc: float = 1.0
    chains: int = 4
    iterations: int = 4000
    burn_in: int = 2000
    thin: int = 1
    seed: int = 0
    mix_split_fraction: float = 0.5
    mh_step: float = 0.25

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InvalidHyper(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not self.pi_prior_conc > 0:
            raise InvalidHyper("pi_prior_conc must be positive")
        if not isinstance(self.chains, int) or self.chains < 1:
            raise InvalidHyper("chains must be a positive integer")
        # the chain settings obey GibbsConfig's rules
        GibbsConfig(iterations=self.iterations, burn_in=self.burn_in, thin=self.thin,
                    seed=self.seed)
        if not 0.0 < self.mix_split_fraction < 1.0:
            raise InvalidHyper("mix_split_fraction must lie in (0,1)")
        if not self.mh_step > 0:
            raise InvalidHyper("mh_step must be positive")


@dataclass(frozen=True)
class GlobalPosterior:
    """Pooled post-burn-in draws, in (chain, iteration) order."""

    pi_draws: np.ndarray
    lambda_draws: np.ndarray
    acceptance_rate: float | None  # None when no Metropolis step ran
    config: EnsembleConfig
    domain_ids: tuple[str, ...]
    rhat_pi: np.ndarray

    @property
    def D(self) -> int:
        return self.pi_draws.shape[0]

    def pi_mean(self) -> np.ndarray:
        return self.pi_draws.mean(axis=0)

    def lambda_mean(self) -> np.ndarray:
        return self.lambda_draws.mean(axis=0)


@dataclass(frozen=True)
class Classification:
    probs: np.ndarray
    top: np.ndarray
    death_ids: tuple[str, ...]


def build_phi(summaries: list[BaseModelSummary], target: Dataset) -> PhiTensor:
    """The federation: every source summary scored on every target death.

    Column m is summaries[m], named by its domain id; the ids must be
    distinct, and every summary must share the target's cause list and
    symptom dictionary. A cause no summary covers stays -inf in every
    column: calibration reads such a tensor, `fit_global` refuses to fit one.
    """
    if not summaries:
        raise EmptyRegistry("a federation needs at least one source summary")
    for s in summaries:
        if (s.cause_list_fingerprint != target.cause_list.fingerprint
                or s.dict_fingerprint != target.symptom_dict.fingerprint):
            raise FingerprintMismatch(
                f"summary {s.domain_id!r} does not share the target's cause list and dictionary")
    log_phi = np.stack([cond_loglik_matrix(s, target.x) for s in summaries], axis=2)
    present = np.stack([s.present for s in summaries], axis=1)
    return PhiTensor(log_phi=log_phi, present=present, death_ids=target.death_ids,
                     domain_ids=[s.domain_id for s in summaries])


def marginal_loglik(phi: PhiTensor, pi: np.ndarray, lam: np.ndarray,
                    labels: np.ndarray | None = None) -> float:
    """Exact log-likelihood of the mixture, latent assignments summed out.

    `labels` is a label vector over phi's deaths (see the module docstring):
    each labeled death is scored at its known cause, through pi and that
    cause's lambda row.
    """
    pi = np.asarray(pi, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    if pi.shape != (phi.C,) or lam.shape != (phi.C, phi.M):
        raise DimensionMismatch("pi / lambda shapes disagree with phi")
    unlabeled, labeled, y = split_labels(labels, phi.n, phi.C)
    with np.errstate(divide="ignore"):
        log_pi = np.log(pi)
        log_lam = np.log(lam)
    total = 0.0
    if unlabeled.size:
        w = phi.log_phi[unlabeled] + log_pi[None, :, None] + log_lam[None, :, :]
        total += float(logsumexp(w.reshape(unlabeled.size, -1)).sum())
    if labeled.size:
        w = phi.log_phi[labeled, y, :] + log_lam[y, :]
        total += float((logsumexp(w) + log_pi[y]).sum())
    return total


def _draw_cells(rng, phi_exp, w, cum, log_w) -> np.ndarray:
    """One (cause, domain) draw per death, weighted phi_exp[m, c, i] * w[c, m].

    phi_exp holds domain-major (M, C, deaths) likelihoods, exact zeros off a
    labeled death's known cause, and cum is a (C + 1, deaths) work array
    whose first row is 0. Returns cell c * M + m. The draw takes two levels
    from each death's one uniform point u: the cause c is the inverse CDF
    over the C cause masses (one batched matrix product), and the domain the
    inverse CDF over cause c's M weights at the leftover point u - cum[c],
    the mass of the causes below c. A death whose weights sum to at most
    TINY lost its relative precision to underflow; it is redrawn by a Gumbel
    argmax over log_w(rows), the (rows, C*M) log-weights of those deaths,
    which is called only when a death needs the redraw.
    """
    M, C, n = phi_exp.shape
    mass = cum[1:]
    if M == 1:  # each mass is one product, and matmul takes 2-3x as long for it
        np.multiply(phi_exp[0], w, out=mass)
    else:
        np.matmul(w[:, None, :], phi_exp.transpose(1, 0, 2), out=mass[:, None, :])
    total = running_sums(mass)[-1]
    u = rng.random(n) * total
    cell = inverse_cdf(mass, u)
    if M > 1:
        at = cell * n
        at += np.arange(n)
        u -= cum.take(at)
        dom = phi_exp.reshape(M, C * n).take(at, axis=1)
        dom *= w.T.take(cell, axis=1)
        cell *= M
        cell += inverse_cdf(running_sums(dom), u)
    low = (total <= TINY).nonzero()[0]
    if low.size:
        cell[low] = gumbel_argmax(rng, log_w(low), axis=1)
    return cell


def _log_softmax(b: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of b over the cells in mask (some in each row), else -inf."""
    top = b.max(axis=1, initial=-np.inf, where=mask, keepdims=True)
    out = np.subtract(b, top, out=np.full_like(b, -np.inf), where=mask)
    return out - np.log(np.exp(out).sum(axis=1, keepdims=True))


def _off_cause(y: np.ndarray, C: int) -> np.ndarray:
    """(deaths, C) mask of the causes other than each labeled death's known cause y."""
    return (y[:, None] != UNLABELED) & (np.arange(C) != y[:, None])


def _split_deaths(phi: PhiTensor, labels: np.ndarray | None) -> tuple:
    """What every chain of a fit reads: its deaths in fit order, and their labels.

    Fit order puts the unlabeled deaths first, then the labeled ones, each
    block in row order. A labeled death is an unlabeled one whose likelihood
    is zero off its known cause: its cells there are set to -inf before the
    exp-shift, which makes each death's largest likelihood 1, so one
    domain-major (M, C, n) array serves every death. The caller's
    log-likelihoods, gathered by `order` only for the fallback, are not
    copied. Also read: the causes two or more domains cover (`multi`), their
    coverage rows, and the labeled deaths per cause.
    """
    unlabeled, labeled, y = split_labels(labels, phi.n, phi.C)
    order = np.concatenate([unlabeled, labeled])
    fit_y = np.concatenate([np.full(unlabeled.size, UNLABELED), y])
    phi_exp = np.empty((phi.M, phi.C, order.size))
    for m, rows in enumerate(phi_exp):  # a domain at a time: no second full-size array
        rows[...] = phi.log_phi[order, :, m].T
    phi_exp[:, _off_cause(fit_y, phi.C).T] = -np.inf
    phi_exp -= phi_exp.max(axis=(0, 1))
    multi = np.flatnonzero(phi.present.sum(axis=1) > 1)
    return (phi.present, multi, phi.present[multi] == 1, np.bincount(y, minlength=phi.C),
            phi.log_phi, order, fit_y, np.exp(phi_exp, out=phi_exp))


@dataclass
class ChainState:
    """One chain between rounds: what its next sweep reads, and its kept draws."""

    rng: np.random.Generator
    pi: np.ndarray
    log_pi: np.ndarray
    lam: np.ndarray
    log_lam: np.ndarray
    beta: np.ndarray | None  # logistic-normal with a weight choice: multi rows' log-weights,
    step: np.ndarray | None  # their step sizes, and accepts since the last adaptation
    accepted: np.ndarray | None  # or the end of burn-in; None otherwise
    sweeps: int
    pi_out: np.ndarray
    lam_out: np.ndarray
    kept: int = 0


def _start_chain(deaths: tuple, cfg: EnsembleConfig, chain: int) -> ChainState:
    """Chain `chain` at sweep 0: (pi, lambda) drawn from the prior."""
    present, multi, multi_allowed = deaths[:3]
    rng = derive_rng("ensemble-chain", cfg.seed, chain)
    pi, log_pi = log_dirichlet(rng, np.full(len(present), cfg.pi_prior_conc))
    log_lam = np.where(present == 1, 0.0, -np.inf)  # a single-domain row stays at weight 1
    lam = np.exp(log_lam)
    beta = step = accepted = None
    if cfg.lambda_prior.kind == "logistic_normal" and multi.size:
        beta = np.where(multi_allowed, rng.normal(0.0, cfg.lambda_prior.sigma,
                                                  size=multi_allowed.shape), 0.0)
        log_lam[multi] = _log_softmax(beta, multi_allowed)
        lam[multi] = np.exp(log_lam[multi])
        step, accepted = np.full(multi.size, cfg.mh_step), np.zeros(multi.size)
    elif multi.size:
        lam[multi], log_lam[multi] = log_dirichlet(
            rng, np.where(multi_allowed, cfg.lambda_prior.conc, 0.0))
    keep = (cfg.iterations - cfg.burn_in + cfg.thin - 1) // cfg.thin
    return ChainState(rng, pi, log_pi, lam, log_lam, beta, step, accepted, 0,
                      np.empty((keep, len(present))), np.empty((keep, *present.shape)))


def _run_chain(deaths: tuple, cfg: EnsembleConfig, state: ChainState, sweeps: int) -> ChainState:
    """Advance one chain by `sweeps` sweeps, keeping its post-burn-in draws."""
    present, multi, multi_allowed, n_lab, log_phi, order, fit_y, phi_exp = deaths
    C, M = present.shape
    rng, pi, log_pi, lam, log_lam = state.rng, state.pi, state.log_pi, state.lam, state.log_lam
    beta, step, accepted, kept = state.beta, state.step, state.accepted, state.kept
    cum = np.zeros((C + 1, order.size))
    # Labeled causes enter pi's conditional only when tied; the zeros added
    # when untied leave that concentration's floats as they are.
    counts_lab = n_lab.astype(np.float64) if cfg.tie_pi else np.zeros(C)
    two_var = 2.0 * cfg.lambda_prior.sigma**2

    def log_w(rows):  # the fallback's log-weights of the deaths at `rows` of fit order
        out = log_phi[order[rows]]
        out[_off_cause(fit_y[rows], C)] = -np.inf
        out += log_pi[:, None] + log_lam
        return out.reshape(rows.size, C * M)

    for it in range(state.sweeps, state.sweeps + sweeps):
        # (Y, H) | pi, lambda: each death draws its cause and then, on the
        # same uniform, its domain within that cause; a labeled death's cause
        # level lands on its known cause, its masses elsewhere being zero.
        nm = np.bincount(_draw_cells(rng, phi_exp, pi[:, None] * lam, cum, log_w),
                         minlength=C * M).reshape(C, M)
        counts_u = nm.sum(axis=1) - n_lab

        # pi | Y
        pi, log_pi = log_dirichlet(rng, cfg.pi_prior_conc + counts_u + counts_lab)

        # lambda | H; rows of single-domain causes stay at 1. Logistic-normal:
        # a random-walk step per row, its size adapted every 50 burn-in sweeps
        if beta is not None:
            prop = beta + (multi_allowed * step[:, None]) * rng.normal(size=beta.shape)
            prop_ll = _log_softmax(prop, multi_allowed)
            gain = np.subtract(prop_ll, log_lam[multi], out=np.zeros_like(prop_ll),
                               where=multi_allowed)
            delta = (nm[multi] * gain - (prop * prop - beta * beta) / two_var).sum(axis=1)
            took = np.log(rng.random(delta.shape[0])) < delta
            beta[took], new = prop[took], prop_ll[took]
            lam[multi[took]], log_lam[multi[took]] = np.exp(new), new
            accepted += took
            if it < cfg.burn_in and (it + 1) % 50 == 0:
                rate = accepted / 50.0
                step[rate < 0.20] *= 0.8
                step[rate > 0.40] *= 1.25
            if it < cfg.burn_in and ((it + 1) % 50 == 0 or it + 1 == cfg.burn_in):
                accepted[:] = 0.0  # a new window, or the post-burn-in count
        elif multi.size:
            lam[multi], log_lam[multi] = log_dirichlet(
                rng, np.where(multi_allowed, cfg.lambda_prior.conc + nm[multi], 0.0))

        if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thin == 0:
            state.pi_out[kept], state.lam_out[kept] = pi, lam
            kept += 1

    state.pi, state.log_pi, state.sweeps, state.kept = pi, log_pi, state.sweeps + sweeps, kept
    return state


def split_rhat(chain_draws: np.ndarray) -> np.ndarray:
    """Split-chain potential scale reduction per coordinate.

    chain_draws: (chains, T, C). Returns a length-C vector; NaN when T < 4.
    """
    chains, T, C = chain_draws.shape
    if T < 4:
        return np.full(C, np.nan)
    half = T // 2
    seqs = np.concatenate(
        [chain_draws[:, :half, :], chain_draws[:, half : 2 * half, :]], axis=0
    )
    m, L = seqs.shape[0], half
    means = seqs.mean(axis=1)
    w = seqs.var(axis=1, ddof=1).mean(axis=0)
    b = L * means.var(axis=0, ddof=1)
    out = np.full(C, 1.0)
    ok = w > 0
    var_plus = (L - 1) / L * w[ok] + b[ok] / L
    with np.errstate(over="ignore"):  # a subnormal w gives inf, as it should
        out[ok] = np.sqrt(var_plus / w[ok])
    return out


def fit_global(phi: PhiTensor, labels: np.ndarray | None, cfg: EnsembleConfig,
               workers: int = 1) -> GlobalPosterior:
    """Sample p(pi, lambda | phi, labels); `labels` is a label vector over phi's deaths."""
    if np.any(phi.present.sum(axis=1) < 1):
        uncovered = np.flatnonzero(phi.present.sum(axis=1) < 1).tolist()
        raise IncompletePhi(f"no domain covers cause indices {uncovered}")
    deaths = _split_deaths(phi, labels)
    states = parallel_map(partial(_run_chain, deaths, cfg, sweeps=cfg.iterations),
                          [_start_chain(deaths, cfg, c) for c in range(cfg.chains)],
                          workers=workers)

    pi_by_chain = np.stack([s.pi_out[:s.kept] for s in states])
    lambda_draws = np.concatenate([s.lam_out[:s.kept] for s in states])
    rates = [s.accepted / (cfg.iterations - cfg.burn_in) for s in states if s.accepted is not None]
    acceptance = float(np.mean([r.mean() for r in rates])) if rates else None

    rhat = split_rhat(pi_by_chain)
    bad = np.flatnonzero(np.nan_to_num(rhat, nan=1.0) > 1.1)
    if bad.size:
        warnings.warn(
            f"split-chain R-hat above 1.1 for pi coordinates {bad.tolist()} "
            f"(max {float(np.nanmax(rhat)):.3f}); consider more iterations",
            stacklevel=2,
        )
    return GlobalPosterior(
        pi_draws=pi_by_chain.reshape(-1, phi.C),
        lambda_draws=lambda_draws,
        acceptance_rate=acceptance,
        config=cfg,
        domain_ids=phi.domain_ids,
        rhat_pi=rhat,
    )


_BLOCK = 256  # deaths and draws per classify block
# Denominators below this (0 and every subnormal among them) take the log-space
# path; above it 1/den times a weight <= 1, summed over up to 2**100 draws,
# stays finite.
_DEN_FLOOR = 2.0 ** -900


def classify(phi: PhiTensor, post: GlobalPosterior) -> Classification:
    """Posterior-predictive cause probabilities, averaged over pooled draws.

    With E the (n, C*M) exp-shifted likelihoods and W_d = pi_d * lambda_d
    flattened, probs = (1/D) sum_m E * ((1 / (E W^T)) W), computed over
    blocks of deaths and, within each, blocks of draws. A (death, draw) pair
    whose denominator is below _DEN_FLOOR, 0 and subnormals included, is
    computed in log space instead.
    """
    if post.pi_draws.shape[1] != phi.C or post.lambda_draws.shape[2] != phi.M:
        raise DimensionMismatch("posterior draws disagree with phi dimensions")
    n, C, M = phi.n, phi.C, phi.M
    # One max-subtraction per death keeps exp() in range; exp(-inf) = 0 drops
    # absent (c,m) cells from the sums.
    log_phi = phi.log_phi.reshape(n, C * M)
    shift = log_phi.max(axis=1, keepdims=True)
    probs = np.zeros((n, C))
    for i0 in range(0, n, _BLOCK):
        e = np.exp(log_phi[i0:i0 + _BLOCK] - shift[i0:i0 + _BLOCK])
        acc = np.zeros_like(e)
        for d0 in range(0, post.D, _BLOCK):
            pi = post.pi_draws[d0:d0 + _BLOCK]
            lam = post.lambda_draws[d0:d0 + _BLOCK]
            w = (pi[:, :, None] * lam).reshape(pi.shape[0], C * M)
            den = e @ w.T
            low = den < _DEN_FLOOR
            acc += np.divide(1.0, den, out=np.zeros_like(den), where=~low) @ w
            for j in np.flatnonzero(low.any(axis=0)):
                rows = np.flatnonzero(low[:, j])
                probs[i0 + rows] += _classify_log_space(
                    log_phi[i0 + rows], pi[j], lam[j])
        probs[i0:i0 + _BLOCK] += (e * acc).reshape(-1, C, M).sum(axis=2)
    probs /= post.D
    top = np.argmax(probs, axis=1).astype(np.int64)  # argmax takes the lowest index on ties
    return Classification(probs=probs, top=top, death_ids=phi.death_ids)


def _classify_log_space(log_phi: np.ndarray, pi: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Cause probabilities of (rows, C*M) deaths under one draw, from log weights."""
    with np.errstate(divide="ignore"):
        log_w = log_phi + (np.log(pi)[:, None] + np.log(lam)).ravel()
    w = np.exp(log_w - log_w.max(axis=1, keepdims=True)).reshape(log_w.shape[0], *lam.shape)
    num = w.sum(axis=2)
    return num / num.sum(axis=1, keepdims=True)


def fit_single_model(phi: PhiTensor, m: int, cfg: EnsembleConfig) -> tuple[np.ndarray, np.ndarray]:
    """Column m of phi applied alone: the plain variant over the causes it covers.

    Returns the posterior-mean CSMF (C,) and the cause probabilities of every
    death of phi (n, C), both 0 at causes column m does not cover. No labels
    are read.
    """
    covered = np.flatnonzero(phi.present[:, m])
    one = PhiTensor(
        log_phi=phi.log_phi[:, covered, m, None],
        present=np.ones((covered.shape[0], 1), dtype=np.uint8),
        death_ids=phi.death_ids,
        domain_ids=phi.domain_ids[m:m + 1],
    )
    post = fit_global(one, None, replace(cfg, variant="plain"))
    pi = np.zeros(phi.C)
    pi[covered] = post.pi_mean()
    probs = np.zeros((phi.n, phi.C))
    probs[:, covered] = classify(one, post).probs
    return pi, probs


def adjust_csmf(pi_hat: np.ndarray, n0: int, heldout_counts: np.ndarray) -> np.ndarray:
    """Blend the fitted CSMF with exactly known held-out label counts."""
    pi_hat = np.asarray(pi_hat, dtype=np.float64)
    heldout = np.asarray(heldout_counts, dtype=np.int64)
    if pi_hat.shape != heldout.shape:
        raise DimensionMismatch("pi_hat and heldout_counts must share a length")
    if abs(float(pi_hat.sum()) - 1.0) > 1e-8 or np.any(pi_hat < 0):
        raise NotASimplex("pi_hat must be a probability vector")
    n_h = int(heldout.sum())
    if n_h > n0:
        raise CountOverflow(f"held-out count {n_h} exceeds total {n0}")
    return ((n0 - n_h) / n0) * pi_hat + heldout / n0


def local_rows(target: Dataset, cfg: EnsembleConfig) -> np.ndarray:
    """Target positions, in order, of the labeled deaths that train the local model.

    Every labeled death under domain, a seeded `mix_split_fraction` of them
    under mix (keyed by the target and cfg.seed), none under plain and
    partial. domain and mix need at least 2·C labeled deaths.
    """
    labeled_idx = np.flatnonzero(target.labeled_mask)
    n_L = labeled_idx.shape[0]
    if cfg.variant not in LOCAL_VARIANTS:
        return labeled_idx[:0]
    C = len(target.cause_list)
    if n_L < 2 * C:
        raise InsufficientLocalLabels(
            f"variant {cfg.variant!r} needs at least {2 * C} labeled deaths, got {n_L}"
        )
    if cfg.variant == "domain":
        return labeled_idx
    rng = derive_rng("mix-split", target.domain_id, cfg.seed)
    n_local = round_half_up(cfg.mix_split_fraction * n_L)
    if n_local == 0 or n_local == n_L:
        raise InsufficientLocalLabels("mix split left one part empty")
    return np.sort(labeled_idx[rng.permutation(n_L)[:n_local]])


def run_variant(target: Dataset, phi: PhiTensor, cfg: EnsembleConfig,
                local: BaseModelSummary | None = None,
                workers: int = 1) -> tuple[GlobalPosterior, Classification, np.ndarray]:
    """Fit one fine-tuning variant on a partially labeled target.

    `phi` holds the sources' likelihoods of the target's deaths in target
    order (`build_phi`), scored by the caller. Under domain and mix, `local`
    is the target-local model, which the caller trains on the deaths at
    `local_rows(target, cfg)` (`lcm.train_local`); only it is scored here,
    its column appended under its domain id `<target>-local`, and the fit
    reads the other rows. plain and partial fit `phi` itself and take no
    local model. The fit's labels are `target.y` at its rows (none under
    plain). Returns the posterior, a classification of every target death
    (known labels become one-hot rows except under plain, which ignores
    labels; only the other rows are classified), and the CSMF estimate.
    When tie_pi holds, the estimate refers to the full target and blends in
    the local rows' label counts; otherwise it is the CSMF of the unlabeled
    deaths the sampler saw.
    """
    if phi.death_ids != target.death_ids:
        raise DimensionMismatch("phi must hold the target's deaths in target order")
    C = len(target.cause_list)
    labeled_idx = np.flatnonzero(target.labeled_mask)

    heldout_idx = local_rows(target, cfg)
    heldout_counts = np.bincount(target.y[heldout_idx], minlength=C)
    if local is None and cfg.variant in LOCAL_VARIANTS:
        raise LocalModelMismatch(f"variant {cfg.variant!r} needs the target-local model")
    if local is not None and not np.array_equal(local.n_by_cause, heldout_counts):
        raise LocalModelMismatch(
            f"local model {local.domain_id!r} was not trained on the rows local_rows picks")
    fit_rows = np.delete(np.arange(target.n), heldout_idx)
    labels = None if cfg.variant == "plain" else target.y[fit_rows]
    if local is not None:
        own = build_phi([local], target.subset(fit_rows))
        phi = PhiTensor(
            log_phi=np.concatenate([phi.log_phi[fit_rows], own.log_phi], axis=2),
            present=np.concatenate([phi.present, own.present], axis=1),
            death_ids=own.death_ids,
            domain_ids=phi.domain_ids + own.domain_ids,
        )
    post = fit_global(phi, labels, cfg, workers=workers)

    probs = np.zeros((target.n, C))
    if labels is None:
        probs[fit_rows] = classify(phi, post).probs
    else:  # known causes become one-hot rows; only the others are classified
        unknown = np.flatnonzero(labels == UNLABELED)
        probs[fit_rows[unknown]] = classify(phi.rows(unknown), post).probs
        probs[labeled_idx, target.y[labeled_idx]] = 1.0
    top = np.argmax(probs, axis=1).astype(np.int64)
    classification = Classification(probs=probs, top=top, death_ids=target.death_ids)

    pi_mean = post.pi_mean()
    csmf = adjust_csmf(pi_mean, target.n, heldout_counts) if cfg.tie_pi else pi_mean
    return post, classification, csmf
