"""Confusion-matrix calibration baseline for CSMF estimation.

Each base model acts as a black-box classifier of target deaths. Local
labels estimate per-model confusion matrices (rows: distribution of the
model's predicted cause given the true cause), which then reweigh the
predictions on unlabeled deaths into a calibrated CSMF.

This is a hard-classification variant: only each model's top predicted
cause enters, which makes every confusion row conjugate. Confusion rows get
Dir(gamma (I + eps 1)) priors whose concentration gamma ~ Gamma(alpha,
beta_rate) controls shrinkage toward the identity matrix: large gamma means
"trust the classifier as-is". Confusion rows are estimated from labeled
deaths only; latent causes of unlabeled deaths never feed back into them.

Unlabeled deaths enter the model only through their pattern of M top
predicted causes, and pi reads their latent causes only as per-cause counts.
Deaths that share a pattern are therefore interchangeable (as in the
count-based calibration models of Datta et al. 2021 and Fiksel et al. 2022):
each iteration draws the counts of a pattern's deaths as one multinomial
over the pattern's cause weights. A sum of i.i.d. categorical draws is
multinomial, so this is exact in distribution, and an iteration costs one
weight row per distinct pattern rather than one draw per death.

Labels are None or one vector over the prediction rows, in row order, with
UNLABELED where the cause is unknown (as in `Dataset.y`). The fit reads
only their split (`data.split_labels`), so any row permutation of
(predictions, labels) gives the same result.

`build_predictions` fits each column of the ensemble's likelihood tensor
alone; the predictions and the result keep the tensor's domain ids.

The baseline estimates prevalence only. It cannot assign causes to
individual deaths.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import split_labels
from .errors import DimensionMismatch, EmptyPredictions, InvalidHyper
from .ensemble import EnsembleConfig, PhiTensor, distinct_ids, fit_single_model
from .lcm import GibbsConfig
# unused here; perfbench/test_perfbench.py checks that its tracer patches this binding
from .ensemble import fit_global  # noqa: F401
from .utils import derive_rng, log_dirichlet, log_dirichlet_pdf


@dataclass(frozen=True)
class PredictionTensor:
    """a[i,c,m] = p_m(Y_i=c | x_i) of source domain_ids[m]; each (i,m) slice sums to 1."""

    a: np.ndarray
    death_ids: tuple[str, ...]
    domain_ids: tuple[str, ...]

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64)
        if a.ndim != 3:
            raise DimensionMismatch("prediction tensor must be n x C x M")
        if len(self.death_ids) != a.shape[0]:
            raise DimensionMismatch("death_ids length disagrees with the tensor")
        if a.shape[0] and (
            np.any(a < 0) or np.any(np.abs(a.sum(axis=1) - 1.0) > 1e-8)
        ):
            raise DimensionMismatch("each per-model prediction row must be a simplex")
        a.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "death_ids", tuple(self.death_ids))
        object.__setattr__(self, "domain_ids", distinct_ids(self.domain_ids, a.shape[2]))

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def C(self) -> int:
        return self.a.shape[1]

    @property
    def M(self) -> int:
        return self.a.shape[2]

    def top(self) -> np.ndarray:
        """(n, M) top predicted cause per model, lowest index on ties."""
        return np.argmax(self.a, axis=1)


@dataclass(frozen=True)
class CalibConfig:
    alpha: float = 5.0
    beta_rate: float = 0.5
    epsilon: float = 0.01
    iterations: int = 2000
    burn_in: int = 1000
    seed: int = 0

    def validate(self) -> None:
        if not (self.alpha > 0 and self.beta_rate > 0 and self.epsilon > 0):
            raise InvalidHyper("alpha, beta_rate and epsilon must all be positive")
        GibbsConfig(iterations=self.iterations, burn_in=self.burn_in, thin=1,
                    seed=self.seed).validate()


def gamma_prior_mean(cfg: CalibConfig) -> float:
    """Prior mean of the shrinkage concentration (rate parameterization)."""
    return cfg.alpha / cfg.beta_rate


@dataclass(frozen=True)
class CalibrationResult:
    pi_draws: np.ndarray
    confusion_mean: np.ndarray
    config: CalibConfig
    domain_ids: tuple[str, ...]

    def pi_mean(self) -> np.ndarray:
        return self.pi_draws.mean(axis=0)


def build_predictions(phi: PhiTensor, cfg: EnsembleConfig) -> PredictionTensor:
    """Classify every death of phi with each of its models independently.

    Each model is one column of phi, fitted alone by `fit_single_model`;
    causes it does not cover get probability 0. Rows, columns and their
    names are phi's; no labels are read, as they belong to the calibration
    step.
    """
    if phi.n == 0:  # nothing to fit
        a = np.zeros((0, phi.C, phi.M))
    else:
        a = np.stack([fit_single_model(phi, m, cfg)[1] for m in range(phi.M)], axis=2)
    return PredictionTensor(a=a, death_ids=phi.death_ids, domain_ids=phi.domain_ids)


def fit_calibration(a: PredictionTensor, labels: np.ndarray | None,
                    cfg: CalibConfig) -> CalibrationResult:
    """Gibbs sampler for the calibrated CSMF.

    `labels` is a label vector over the rows of `a` (see the module
    docstring); the result's domain ids are those of `a`. The labeled
    deaths' (true cause, predicted cause) pairs are the only evidence the
    confusion matrices see. Unlabeled deaths carry latent true causes that
    inform pi alone.

    Given the confusion rows, each gamma[m, c] depends on its own row only,
    and given gamma the rows are independent, so every iteration updates all
    (model, cause) pairs at once: one Metropolis step and one Dirichlet draw.

    The U distinct patterns of top predictions among unlabeled deaths, and
    how many deaths share each, are found once. Each iteration then weighs
    cause c for pattern u by log pi_c + sum_m log conf[m, c, pattern_m] and
    draws all latent cause counts with one multinomial call over the (U, C)
    normalized weights, the sum over patterns being the counts pi needs.
    """
    cfg.validate()
    if a.n == 0:
        raise EmptyPredictions("no predictions to calibrate")
    C, M = a.C, a.M
    unlabeled, labeled, y_lab = split_labels(labels, a.n, C)

    top = a.top()
    # Two independent streams so the confusion side of the model is a pure
    # function of the labeled data: unlabeled deaths can never perturb it,
    # not even through shared draw order.
    rng = derive_rng("calibration", cfg.seed)
    rng_cut = derive_rng("calibration-cut", cfg.seed)

    # Labeled confusion counts are fixed for the whole run (no feedback).
    models = np.arange(M)
    counts = np.zeros((M, C, C))
    np.add.at(counts, (models, y_lab[:, None], top[labeled]), 1.0)

    eye_eps = np.eye(C) + cfg.epsilon  # row c of the prior is gamma * eye_eps[c]

    def log_target(log_g, log_conf):
        """log p(log gamma | confusion row) up to a constant, per (m, c)."""
        g = np.exp(log_g)
        return (
            (cfg.alpha - 1.0) * log_g - cfg.beta_rate * g  # Gamma prior
            + log_dirichlet_pdf(log_conf, g[..., None] * eye_eps + counts)
            + log_g  # Jacobian of the log-scale walk
        )

    log_g = np.full((M, C), np.log(cfg.alpha / cfg.beta_rate))
    _, log_conf = log_dirichlet(rng_cut, np.exp(log_g)[..., None] * eye_eps + counts)

    patterns, sizes = np.unique(top[unlabeled], axis=0, return_counts=True)
    keep = cfg.iterations - cfg.burn_in
    pi_out = np.empty((keep, C))
    conf_sum = np.zeros((M, C, C))
    pi, log_pi = log_dirichlet(rng, np.ones(C))
    kept = 0

    for it in range(cfg.iterations):
        # gamma | confusion rows: random-walk Metropolis on log gamma
        prop = log_g + 0.3 * rng_cut.normal(size=(M, C))
        cur, new = log_target(np.stack([log_g, prop]), log_conf)
        log_g = np.where(np.log(rng_cut.random(size=(M, C))) < new - cur, prop, log_g)

        # confusion rows | gamma (labeled counts only)
        conf, log_conf = log_dirichlet(rng_cut, np.exp(log_g)[..., None] * eye_eps + counts)

        # latent cause counts of unlabeled deaths | confusion, pi: pattern u
        # weighs cause c by log pi_c + sum_m log conf[m, c, patterns[u, m]],
        # and its deaths' causes sum to one multinomial over those weights
        logw = log_conf[models, :, patterns].sum(axis=1)
        logw += log_pi
        logw -= logw.max(axis=1, keepdims=True, initial=-np.inf)  # initial: U may be 0
        w = np.exp(logw, out=logw)
        w /= w.sum(axis=1, keepdims=True)
        latent_counts = rng.multinomial(sizes, w).sum(axis=0)

        pi, log_pi = log_dirichlet(rng, 1.0 + latent_counts)

        if it >= cfg.burn_in:
            pi_out[kept] = pi
            conf_sum += conf
            kept += 1

    return CalibrationResult(
        pi_draws=pi_out,
        confusion_mean=conf_sum / keep,
        config=cfg,
        domain_ids=a.domain_ids,
    )
