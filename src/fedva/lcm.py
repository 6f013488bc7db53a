"""Single-domain latent class base model, trained by Gibbs sampling.

Within each cause c, symptom vectors follow a K-component mixture of
independent Bernoulli profiles: Z | Y=c ~ Cat(nu_c) and
X_j | Y=c, Z=k ~ Bern(theta_ckj). Mixture weights get a truncated
stick-breaking prior, profiles get Beta priors (optionally spike-and-slab
with a per-cause shared base rate). Training is fully supervised: every
record must carry a cause label. Both paths need numpy alone: the
spike-and-slab inclusion probabilities use the numpy `utils.expit`.

Only posterior means of (nu, theta) plus cause presence flags leave this
module. The training-domain cause distribution pi_m is not sampled: the
deaths' causes are all observed, so nothing in the chain depends on it, and
`LcmHyper.pi_prior` is kept only as part of the configuration and the
summary format.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import UNLABELED, Dataset, SymptomValue, cause_counts
from .errors import (
    DimensionMismatch,
    EmptyDataset,
    InvalidHyper,
    InvalidSummary,
    NotFullyLabeled,
)
from .utils import derive_rng, derive_seed, expit, inverse_cdf, running_sums

from . import TOOL_VERSION

# Beta draws are clipped into the open interval so log/log1p stay finite.
_THETA_EPS = 1e-12

# Rows per block in cond_loglik_matrix; bounds its scratch memory at any n.
_ROW_BLOCK = 256


@dataclass(frozen=True)
class LcmHyper:
    """Priors for one domain's latent class model."""

    K: int = 5
    alpha_sb: float = 1.0
    theta_prior: tuple[float, float] = (1.0, 1.0)
    pi_prior: float = 1.0
    sparse: bool = False
    spike_omega_prior: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        if not isinstance(self.K, int) or self.K < 1:
            raise InvalidHyper(f"K must be a positive integer, got {self.K!r}")
        if not self.alpha_sb > 0:
            raise InvalidHyper(f"alpha_sb must be positive, got {self.alpha_sb!r}")
        a, b = self.theta_prior
        if not (a > 0 and b > 0):
            raise InvalidHyper(f"theta_prior shapes must be positive, got {self.theta_prior!r}")
        if not self.pi_prior > 0:
            raise InvalidHyper(f"pi_prior must be positive, got {self.pi_prior!r}")
        oa, ob = self.spike_omega_prior
        if not (oa > 0 and ob > 0):
            raise InvalidHyper(
                f"spike_omega_prior shapes must be positive, got {self.spike_omega_prior!r}"
            )


@dataclass(frozen=True)
class GibbsConfig:
    iterations: int = 4000
    burn_in: int = 2000
    thin: int = 1
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.iterations, int) or self.iterations < 1:
            raise InvalidHyper(f"iterations must be a positive integer, got {self.iterations!r}")
        if not isinstance(self.burn_in, int) or not 0 <= self.burn_in < self.iterations:
            raise InvalidHyper("burn_in must satisfy 0 <= burn_in < iterations")
        if not isinstance(self.thin, int) or self.thin < 1:
            raise InvalidHyper(f"thin must be a positive integer, got {self.thin!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise InvalidHyper(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")


@dataclass(frozen=True)
class Provenance:
    tool_version: str
    seed: int
    iterations: int
    burn_in: int


@dataclass(frozen=True)
class BaseModelSummary:
    """Posterior-mean conditional likelihood of one domain, per cause.

    Rows for absent causes (present[c] = 0) hold NaN and must never be read;
    cond_loglik_matrix scores those causes -inf without reading them.
    """

    domain_id: str
    nu_bar: np.ndarray
    theta_bar: np.ndarray
    present: np.ndarray
    n_by_cause: np.ndarray
    cause_list_fingerprint: str
    dict_fingerprint: str
    hyper: LcmHyper
    provenance: Provenance

    def __post_init__(self):
        nu_bar = np.asarray(self.nu_bar, dtype=np.float64)
        theta_bar = np.asarray(self.theta_bar, dtype=np.float64)
        present = np.asarray(self.present, dtype=np.uint8)
        n_by_cause = np.asarray(self.n_by_cause, dtype=np.int64)
        for arr in (nu_bar, theta_bar, present, n_by_cause):
            arr.setflags(write=False)
        object.__setattr__(self, "nu_bar", nu_bar)
        object.__setattr__(self, "theta_bar", theta_bar)
        object.__setattr__(self, "present", present)
        object.__setattr__(self, "n_by_cause", n_by_cause)

    @property
    def C(self) -> int:
        return self.nu_bar.shape[0]

    @property
    def K(self) -> int:
        return self.nu_bar.shape[1]

    @property
    def p(self) -> int:
        return self.theta_bar.shape[2]

    def validate(self) -> None:
        """Re-check every numeric invariant; raises InvalidSummary."""
        C, K = self.nu_bar.shape
        if self.theta_bar.shape != (C, K, self.theta_bar.shape[2]):
            raise InvalidSummary("theta_bar shape inconsistent with nu_bar")
        if self.present.shape != (C,) or self.n_by_cause.shape != (C,):
            raise InvalidSummary("present / n_by_cause must be length-C vectors")
        if not np.all((self.present == 0) | (self.present == 1)):
            raise InvalidSummary("present flags must be 0 or 1")
        if np.any(self.n_by_cause < 0):
            raise InvalidSummary("n_by_cause must be nonnegative")
        if not np.any(self.present):
            raise InvalidSummary("summary has no present cause")
        c = np.flatnonzero(self.present)
        nu, th = self.nu_bar[c], self.theta_bar[c]
        # a sum that meets inf - inf or overflows would warn; its row fails check 2 or 3
        with np.errstate(invalid="ignore", over="ignore"):
            failed = np.array([self.n_by_cause[c] < 1,
                               ~np.all(np.isfinite(nu) & (nu >= 0), axis=1),
                               np.abs(nu.sum(axis=1) - 1.0) > 1e-6,
                               ~np.all((th > 0) & (th < 1), axis=(1, 2))])  # NaN fails both
        if failed.any():  # name the first failing cause by the first check it fails
            j = failed.any(axis=0).argmax()
            raise InvalidSummary((
                "cause {} flagged present with zero training deaths",
                "nu_bar[{}] is not a valid weight vector",
                "nu_bar[{}] does not sum to 1 within 1e-6",
                "theta_bar[{}] has entries outside (0,1)",
            )[failed[:, j].argmax()].format(c[j]))


def _canonical_order(dataset: Dataset) -> np.ndarray:
    """Indices sorting records by death_id; fixes the sampling order."""
    return np.argsort(np.asarray(dataset.death_ids, dtype=object), kind="stable")


def _cause_layout(y: np.ndarray, trained: np.ndarray):
    """Records of the trained causes, grouped into contiguous row ranges.

    Returns the record indices in cause order (stable, so canonical order
    holds within each cause), each record's position in `trained`, and the
    T + 1 row offsets of the groups.
    """
    keep = np.flatnonzero(np.isin(y, trained))
    grouped = keep[np.argsort(y[keep], kind="stable")]
    rec_cause = np.searchsorted(trained, y[grouped])
    bounds = np.searchsorted(rec_cause, np.arange(trained.shape[0] + 1))
    return grouped, rec_cause, bounds


def _indicators(x: np.ndarray) -> np.ndarray:
    """(n, 2p) float indicators, Yes columns then No columns.

    Missing cells sit in neither half.
    """
    p = x.shape[1]
    obs = np.empty((x.shape[0], 2 * p))
    np.equal(x, SymptomValue.YES, out=obs[:, :p])
    np.equal(x, SymptomValue.NO, out=obs[:, p:])
    return obs


def _draw_classes(rng: np.random.Generator, logw: np.ndarray, w: np.ndarray) -> np.ndarray:
    """One class per row of logw (n, K), drawn proportional to exp(logw).

    The weights exp(logw - row max) go into the (K, n) work array w, so the
    largest weight of each row is exactly 1 and no row underflows; a class
    at -inf has weight 0 and is never drawn. Each row then takes the inverse
    CDF at one uniform point.
    """
    np.copyto(w, logw.T)  # a max down K rows is far cheaper than along each short row
    np.subtract(w, w.max(axis=0), out=w)
    np.exp(w, out=w)
    return inverse_cdf(running_sums(w), rng.random(logw.shape[0]) * w[-1])


def _gibbs_means(rng: np.random.Generator, obs: list[np.ndarray], rec_cause: np.ndarray,
                 bounds: np.ndarray, p: int, hyper: LcmHyper, cfg: GibbsConfig):
    """Posterior means (nu (T, K), theta (T, K, p)) of the T sampled causes.

    obs[t] holds the `_indicators` of the records of cause t, which are rows
    bounds[t]:bounds[t+1] of the `_cause_layout` order. One array per cause
    reuses freed heap memory the way small arrays do, where one (n, 2p)
    block would take fresh pages and raise the peak resident size.

    Every iteration draws all causes at once, in this order:

    - stick breaks (T, K-1) when K > 1;
    - theta (T, K, p). At K = 1 this is one Beta draw over all rows.
      Otherwise it is one Beta draw over the occupied (cause, class) rows in
      C order, then one draw from the prior for the empty rows (an empty
      class's full conditional), uniforms when theta_prior is (1, 1). When
      every row holds a record, that is the same one Beta draw over all
      rows, since a draw of size 0 takes nothing from rng. The sparse path
      draws instead the inclusion uniforms, slab (T, K, p), base rate
      (T, p) and inclusion rate (T,);
    - when K > 1, one uniform per record for its latent class
      (`_draw_classes`). With K = 1 every class is 0.

    Before the first iteration the classes start at one uniform integer
    draw per record, in the `_cause_layout` order.
    """
    n, T, K = rec_cause.shape[0], len(obs), hyper.K
    a_th, b_th = hyper.theta_prior
    uniform_prior = (a_th, b_th) == (1.0, 1.0)
    oa, ob = hyper.spike_omega_prior
    ranges = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))

    # cnt[t, k] holds the Yes then No counts of class k of cause t; on the
    # plain path plus the prior, so that its halves are theta's Beta shapes.
    # Once theta is drawn it holds [log theta, log(1 - theta)] until the
    # classes are redrawn and it is recounted.
    cnt = np.empty((T, K, 2 * p))
    shift = 0.0 if hyper.sparse else np.repeat([a_th, b_th], p)
    zoh = np.ones((n, K)) if K == 1 else np.zeros((n, K))
    rows = np.arange(n)

    def class_counts():
        for t, (s, e) in enumerate(ranges):
            np.matmul(zoh[s:e].T, obs[t], out=cnt[t])
        np.add(cnt, shift, out=cnt)

    if K > 1:
        z = rng.integers(0, K, size=n)
        zoh[rows, z] = 1.0
        logw = np.empty((n, K))
        w = np.empty((K, n))  # class weights, then their running sums
    class_counts()

    nu = np.ones((T, K))
    if hyper.sparse:
        yes_k, no_k = cnt[..., :p], cnt[..., p:]
        slab = np.full((T, K, p), 0.5)
        mu = np.full((T, p), 0.5)
        omega = np.full(T, 0.5)

    sum_nu = np.zeros((T, K))
    sum_theta = np.zeros((T, K, p))
    kept = 0

    for it in range(cfg.iterations):
        if K > 1:
            counts = np.bincount(rec_cause * K + z, minlength=T * K).reshape(T, K)
            tail = counts[:, ::-1].cumsum(axis=1)[:, ::-1] - counts  # sum over l > k
            v = rng.beta(1.0 + counts[:, :-1], hyper.alpha_sb + tail[:, :-1])
            rest = np.cumprod(1.0 - v, axis=1)
            nu[:, 0] = v[:, 0]
            nu[:, 1:-1] = v[:, 1:] * rest[:, :-1]
            nu[:, -1] = rest[:, -1]  # truncation: last stick takes the remainder

        if hyper.sparse:
            logit = (
                (np.log(omega) - np.log1p(-omega))[:, None, None]
                + yes_k * (np.log(slab) - np.log(mu)[:, None, :])
                + no_k * (np.log1p(-slab) - np.log1p(-mu)[:, None, :])
            )
            delta = rng.random((T, K, p)) < expit(logit)
            slab = np.clip(rng.beta(a_th + delta * yes_k, b_th + delta * no_k),
                           _THETA_EPS, 1.0 - _THETA_EPS)
            off = ~delta
            mu = np.clip(rng.beta(a_th + (off * yes_k).sum(axis=1),
                                  b_th + (off * no_k).sum(axis=1)),
                         _THETA_EPS, 1.0 - _THETA_EPS)
            d_sum = delta.sum(axis=(1, 2))
            omega = np.clip(rng.beta(oa + d_sum, ob + K * p - d_sum),
                            _THETA_EPS, 1.0 - _THETA_EPS)
            theta = np.where(delta, slab, mu[:, None, :])
        else:
            if K == 1:
                theta = rng.beta(cnt[..., :p], cnt[..., p:])
            else:
                held = counts > 0
                shapes = cnt[held]
                theta = np.empty((T, K, p))
                theta[held] = rng.beta(shapes[:, :p], shapes[:, p:])
                size = (T * K - shapes.shape[0], p)
                theta[~held] = (rng.random(size) if uniform_prior
                                else rng.beta(a_th, b_th, size=size))
            np.clip(theta, _THETA_EPS, 1.0 - _THETA_EPS, out=theta)

        if K > 1:
            np.log(theta, out=cnt[..., :p])
            np.log1p(-theta, out=cnt[..., p:])
            for t, (s, e) in enumerate(ranges):
                np.matmul(obs[t], cnt[t].T, out=logw[s:e])
            with np.errstate(divide="ignore"):
                logw += np.log(nu).take(rec_cause, axis=0)
            z = _draw_classes(rng, logw, w)
            zoh.fill(0.0)
            zoh[rows, z] = 1.0
            class_counts()

        if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thin == 0:
            sum_nu += nu
            sum_theta += theta
            kept += 1

    return sum_nu / kept, sum_theta / kept


def train_lcm(labeled: Dataset, hyper: LcmHyper, cfg: GibbsConfig,
              min_count: int = 1) -> BaseModelSummary:
    """Gibbs-sample the per-cause latent class posteriors and export means.

    Records are sorted by death_id before sampling, so input order cannot
    change the output. present[c] = 1 iff the domain holds at least
    min_count deaths of cause c; only those causes are sampled, and the
    parameters of all others are NaN.
    """
    if min_count < 1:
        raise InvalidHyper(f"min_count must be >= 1, got {min_count!r}")
    if labeled.n == 0:
        raise EmptyDataset(f"domain {labeled.domain_id!r} has no records")
    if np.any(labeled.y == UNLABELED):
        raise NotFullyLabeled(f"domain {labeled.domain_id!r} has unlabeled records")

    C = len(labeled.cause_list)
    K, p = hyper.K, labeled.p
    n_by_cause = cause_counts(labeled)
    trained = np.flatnonzero(n_by_cause >= min_count)
    if trained.size == 0:
        raise InvalidSummary("summary has no present cause")

    order = _canonical_order(labeled)
    grouped, rec_cause, bounds = _cause_layout(labeled.y[order], trained)
    x = labeled.x[order[grouped]]
    obs = [_indicators(x[s:e]) for s, e in zip(bounds[:-1], bounds[1:])]
    del x
    rng = derive_rng("lcm-train", labeled.domain_id, cfg.seed)
    mean_nu, mean_theta = _gibbs_means(rng, obs, rec_cause, bounds, p, hyper, cfg)

    nu_bar = np.full((C, K), np.nan)
    theta_bar = np.full((C, K, p), np.nan)
    present = np.zeros(C, dtype=np.uint8)
    present[trained] = 1
    nu_bar[trained] = mean_nu / mean_nu.sum(axis=1, keepdims=True)
    theta_bar[trained] = np.clip(mean_theta, _THETA_EPS, 1.0 - _THETA_EPS)

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


def train_local(target: Dataset, rows: np.ndarray, hyper: LcmHyper, cfg: GibbsConfig,
                ens_seed: int, min_count: int = 1) -> BaseModelSummary:
    """The target-local model: the target's deaths at `rows`, trained as a site is.

    It takes the site settings (`hyper`, the gibbs block `cfg`, `min_count`),
    domain id `<target>-local` and a seed keyed by the target and the
    ensemble seed `ens_seed`. `ensemble.local_rows` picks the rows.
    """
    return train_lcm(target.subset(rows, domain_id=f"{target.domain_id}-local"), hyper,
                     replace(cfg, seed=derive_seed("local-model", target.domain_id, ens_seed)),
                     min_count=min_count)


def cond_loglik_matrix(s: BaseModelSummary, x: np.ndarray) -> np.ndarray:
    """Batch form: (n, C) of log p(x_i | Y=c), -inf at absent causes.

    Rows go through in blocks of _ROW_BLOCK, each block with one product
    against the log-profiles of every covered (cause, class) pair. The max
    over classes runs down a class-major copy, far cheaper than along each
    short row; the sum stays on the class axis, which fixes its float order.
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != s.p:
        raise DimensionMismatch(f"expected (n, {s.p}) symptom matrix, got shape {x.shape}")
    n, p, K = x.shape[0], s.p, s.K
    covered = np.flatnonzero(s.present)
    th = s.theta_bar[covered]
    # (2p, covered * K): Yes rows then No rows, one column per (cause, class).
    weights = np.concatenate([np.log(th), np.log1p(-th)], axis=2).reshape(-1, 2 * p).T
    with np.errstate(divide="ignore"):  # nu components may be exactly 0
        log_nu = np.log(s.nu_bar[covered]).reshape(-1)
    out = np.full((n, s.C), -np.inf)
    for start in range(0, n, _ROW_BLOCK):
        obs = _indicators(x[start : start + _ROW_BLOCK])
        logw = (obs @ weights + log_nu).reshape(obs.shape[0], covered.shape[0], K)
        top = logw.transpose(2, 0, 1).copy().max(axis=0)
        logw -= top[..., None]
        block = top + np.log(np.exp(logw, out=logw).sum(axis=2))
        block[~obs.any(axis=1)] = 0.0  # all Missing: log 1, exactly
        out[start : start + obs.shape[0], covered] = block
    return out
