"""Synthetic multi-domain data generator.

Produces M fully labeled training domains plus one labeled target whose
symptom distributions are, per cause, a known convex combination of the
training domains' conditionals. Parameters (per-domain CSMFs, latent class
weights, Bernoulli profiles, the target mixture) may be given explicitly or
drawn from seeded priors; either way the generating truth is returned so
experiments can score against it.

Sites and target share one record sampler. It takes one (deaths, p + 1) block
of uniforms: the generator output of one `Generator.choice` of the latent
class and one p-vector of symptom uniforms per death, used the same way.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CauseList, Dataset, SymptomDictionary, SymptomValue
from .errors import InvalidGenerator
from .utils import derive_rng


def _as_simplex_rows(arr, shape, what: str) -> np.ndarray:
    out = np.asarray(arr, dtype=np.float64)
    if out.shape != shape:
        raise InvalidGenerator(f"{what} must have shape {shape}, got {out.shape}")
    if np.any(out < 0) or np.any(np.abs(out.sum(axis=-1) - 1.0) > 1e-8):
        raise InvalidGenerator(f"{what} rows must be probability vectors")
    return out


@dataclass(frozen=True)
class GeneratorSpec:
    """Generative settings; None fields are drawn from seeded priors."""

    C: int = 3
    K: int = 2
    p: int = 20
    M: int = 3
    n_domain: int = 2000
    n_target: int = 1000
    seed: int = 0
    missing_rate: float = 0.0
    pi_target: np.ndarray | None = None
    pi_domains: np.ndarray | None = None
    lambda_mix: np.ndarray | None = None
    nu: np.ndarray | None = None
    theta: np.ndarray | None = None
    # priors used for the fields left unspecified
    theta_beta: tuple[float, float] = (0.3, 0.3)
    nu_conc: float = 2.0

    def __post_init__(self):
        for name in ("C", "K", "p", "M", "n_domain", "n_target"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise InvalidGenerator(f"{name} must be a positive integer, got {v!r}")
        if self.C < 2:
            raise InvalidGenerator("C must be at least 2")
        if not 0.0 <= self.missing_rate < 1.0:
            raise InvalidGenerator("missing_rate must lie in [0, 1)")
        a, b = self.theta_beta
        if not (a > 0 and b > 0) or not self.nu_conc > 0:
            raise InvalidGenerator("prior shapes must be positive")


@dataclass(frozen=True)
class SimulationTruth:
    pi_target: np.ndarray
    pi_domains: np.ndarray
    lambda_mix: np.ndarray
    nu: np.ndarray
    theta: np.ndarray
    target_source: np.ndarray  # which domain generated each target death


@dataclass(frozen=True)
class Simulation:
    cause_list: CauseList
    symptom_dict: SymptomDictionary
    domains: tuple[Dataset, ...]
    target: Dataset
    truth: SimulationTruth


def _choose(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row, the index that Generator.choice(K, p=row) picks, by its rule, at u."""
    cdf = probs.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    return (cdf <= u[:, None]).sum(axis=1)


def _draw_records(rng, source, y: np.ndarray, nu: np.ndarray, theta: np.ndarray,
                  missing_rate: float) -> np.ndarray:
    """Symptoms of deaths of causes y from domain source (one, or one per death)."""
    n, p = y.shape[0], theta.shape[-1]
    u = rng.random((n, p + 1))  # per death: its latent class, then its symptoms
    z = _choose(nu[source, y], u[:, 0])
    x = (u[:, 1:] < theta[source, y, z]).astype(np.uint8)
    if missing_rate:
        x[rng.random((n, p)) < missing_rate] = int(SymptomValue.MISSING)
    return x


def simulate(spec: GeneratorSpec) -> Simulation:
    """Deterministic in spec (including seed)."""
    C, K, p, M = spec.C, spec.K, spec.p, spec.M
    rng = derive_rng("simulate", spec.seed)

    pi_domains = (
        _as_simplex_rows(spec.pi_domains, (M, C), "pi_domains")
        if spec.pi_domains is not None
        else rng.dirichlet(np.ones(C), size=M)
    )
    pi_target = (
        _as_simplex_rows(spec.pi_target, (C,), "pi_target")
        if spec.pi_target is not None
        else rng.dirichlet(np.ones(C))
    )
    lambda_mix = (
        _as_simplex_rows(spec.lambda_mix, (C, M), "lambda_mix")
        if spec.lambda_mix is not None
        else rng.dirichlet(np.ones(M), size=C)
    )
    nu = (
        _as_simplex_rows(spec.nu, (M, C, K), "nu")
        if spec.nu is not None
        else rng.dirichlet(np.full(K, spec.nu_conc), size=(M, C))
    )
    if spec.theta is not None:
        theta = np.asarray(spec.theta, dtype=np.float64)
        if theta.shape != (M, C, K, p):
            raise InvalidGenerator(f"theta must have shape {(M, C, K, p)}, got {theta.shape}")
        if np.any(theta <= 0) or np.any(theta >= 1):
            raise InvalidGenerator("theta entries must lie strictly in (0,1)")
    else:
        a, b = spec.theta_beta
        theta = np.clip(rng.beta(a, b, size=(M, C, K, p)), 1e-6, 1.0 - 1e-6)

    cause_list = CauseList(tuple(f"cause_{c + 1}" for c in range(C)))
    width = len(str(p))
    symptom_dict = SymptomDictionary(tuple(f"s_{j + 1:0{width}d}" for j in range(p)))

    domains = []
    for m in range(M):
        y = rng.choice(C, size=spec.n_domain, p=pi_domains[m]).astype(np.int32)
        x = _draw_records(rng, m, y, nu, theta, spec.missing_rate)
        ids = tuple(f"d{m + 1}_{i + 1:06d}" for i in range(spec.n_domain))
        domains.append(Dataset(f"domain_{m + 1}", ids, x, y, cause_list, symptom_dict))

    y_t = rng.choice(C, size=spec.n_target, p=pi_target).astype(np.int32)
    source = _choose(lambda_mix[y_t], rng.random(spec.n_target))
    x_t = _draw_records(rng, source, y_t, nu, theta, spec.missing_rate)
    ids_t = tuple(f"t_{i + 1:06d}" for i in range(spec.n_target))
    target = Dataset("target", ids_t, x_t, y_t, cause_list, symptom_dict)

    truth = SimulationTruth(
        pi_target=pi_target,
        pi_domains=pi_domains,
        lambda_mix=lambda_mix,
        nu=nu,
        theta=theta,
        target_source=source,
    )
    return Simulation(
        cause_list=cause_list,
        symptom_dict=symptom_dict,
        domains=tuple(domains),
        target=target,
        truth=truth,
    )
