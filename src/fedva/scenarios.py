"""Within-target label-shift scenario generators.

Each generator takes a fully labeled target dataset and produces a masked
copy (labels hidden on the unlabeled part) plus a ground-truth ledger. The
ledger is the only place a masked label survives; methods under evaluation
see the masked Dataset, metrics see the ledger.

Kinds:
  random_sample  -- the labeled part is a uniform without-replacement sample,
                    so labeled and unlabeled share the same expected CSMF.
  mild_shift     -- labeled and unlabeled parts, label_fraction of the n
                    deaths (rounded half up) and the rest, are rebuilt by
                    per-cause with-replacement resampling to match two
                    independently drawn Dirichlet(1) prevalence vectors.
  severe_shift   -- each cause's labeling fraction q_c ~ Beta(0.2, 0.2),
                    pushing the two parts toward opposite extremes;
                    label_fraction is not read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import UNLABELED, Dataset
from .errors import EmptyCauseForResample, InvalidGenerator, NotFullyLabeled
from .utils import derive_rng, largest_remainder_counts, round_half_up

KINDS = ("random_sample", "mild_shift", "severe_shift")


@dataclass(frozen=True)
class ShiftScenario:
    kind: str
    label_fraction: float
    seed: int
    realized_q: np.ndarray | None = None
    realized_pi_pair: tuple[np.ndarray, np.ndarray] | None = None


@dataclass(frozen=True)
class ScenarioTruth:
    """Ground-truth ledger; metrics read this, methods never do."""

    full_csmf: np.ndarray
    labeled_csmf: np.ndarray
    unlabeled_csmf: np.ndarray
    unlabeled_y: np.ndarray
    unlabeled_ids: tuple[str, ...]


@dataclass(frozen=True)
class ScenarioRealization:
    scenario: ShiftScenario
    dataset: Dataset
    truth: ScenarioTruth


def _empirical_csmf(y: np.ndarray, C: int) -> np.ndarray:
    counts = np.bincount(y, minlength=C).astype(np.float64)
    total = counts.sum()
    return counts / total if total else counts


def _finalize(target: Dataset, kind: str, label_fraction: float, seed: int,
              dataset: Dataset, labeled_pos: np.ndarray, unlabeled_pos: np.ndarray,
              true_y: np.ndarray, realized_q=None,
              realized_pi_pair=None) -> ScenarioRealization:
    C = len(target.cause_list)
    scenario = ShiftScenario(
        kind=kind,
        label_fraction=label_fraction,
        seed=seed,
        realized_q=realized_q,
        realized_pi_pair=realized_pi_pair,
    )
    truth = ScenarioTruth(
        full_csmf=_empirical_csmf(true_y, C),
        labeled_csmf=_empirical_csmf(true_y[labeled_pos], C),
        unlabeled_csmf=_empirical_csmf(true_y[unlabeled_pos], C),
        unlabeled_y=true_y[unlabeled_pos].copy(),
        unlabeled_ids=tuple(dataset.death_ids[i] for i in unlabeled_pos),
    )
    return ScenarioRealization(scenario=scenario, dataset=dataset, truth=truth)


def _mask(target: Dataset, labeled_pos: np.ndarray) -> Dataset:
    y = np.full(target.n, UNLABELED, dtype=np.int32)
    y[labeled_pos] = target.y[labeled_pos]
    return Dataset(
        domain_id=target.domain_id,
        death_ids=target.death_ids,
        x=target.x,
        y=y,
        cause_list=target.cause_list,
        symptom_dict=target.symptom_dict,
    )


def make_scenario(target: Dataset, kind: str, seed: int,
                  label_fraction: float = 0.2) -> ScenarioRealization:
    """Realize one labeled/unlabeled split; deterministic in (inputs, seed)."""
    if kind not in KINDS:
        raise InvalidGenerator(f"scenario kind must be one of {KINDS}, got {kind!r}")
    if not 0.0 < label_fraction < 1.0:
        raise InvalidGenerator(f"label_fraction must lie in (0,1), got {label_fraction!r}")
    if np.any(target.y == UNLABELED):
        raise NotFullyLabeled("scenario generation needs a fully labeled target")
    n = target.n
    C = len(target.cause_list)
    rng = derive_rng("scenario", kind, target.domain_id, seed)

    if kind == "random_sample":
        n_lab = math.ceil(label_fraction * n)
        labeled_pos = np.sort(rng.choice(n, size=n_lab, replace=False))
        unlabeled_pos = np.setdiff1d(np.arange(n), labeled_pos)
        dataset = _mask(target, labeled_pos)
        return _finalize(
            target, kind, label_fraction, seed, dataset, labeled_pos, unlabeled_pos,
            target.y,
        )

    if kind == "severe_shift":
        q = rng.beta(0.2, 0.2, size=C)
        labeled_parts = []
        for c in range(C):
            pool = np.flatnonzero(target.y == c)
            n_lab_c = round_half_up(float(q[c]) * pool.shape[0])
            if n_lab_c:
                labeled_parts.append(np.sort(rng.choice(pool, size=n_lab_c, replace=False)))
        labeled_pos = (
            np.sort(np.concatenate(labeled_parts)) if labeled_parts else np.array([], dtype=np.int64)
        )
        unlabeled_pos = np.setdiff1d(np.arange(n), labeled_pos)
        dataset = _mask(target, labeled_pos)
        return _finalize(
            target, kind, label_fraction, seed, dataset, labeled_pos, unlabeled_pos,
            target.y, realized_q=q,
        )

    # mild_shift: both parts are resampled multisets of the original deaths.
    pi_lab = rng.dirichlet(np.ones(C))
    pi_gen = rng.dirichlet(np.ones(C))
    n_lab = round_half_up(label_fraction * n)
    n_unl = n - n_lab
    lab_counts = largest_remainder_counts(pi_lab, n_lab)
    unl_counts = largest_remainder_counts(pi_gen, n_unl)
    pools = {c: np.flatnonzero(target.y == c) for c in range(C)}
    for c in range(C):
        if (lab_counts[c] or unl_counts[c]) and pools[c].shape[0] == 0:
            raise EmptyCauseForResample(
                f"cause {target.cause_list.causes[c]!r} has no exemplar to resample"
            )
    lab_src = np.concatenate(
        [rng.choice(pools[c], size=int(lab_counts[c]), replace=True) for c in range(C)]
    ) if n_lab else np.array([], dtype=np.int64)
    unl_src = np.concatenate(
        [rng.choice(pools[c], size=int(unl_counts[c]), replace=True) for c in range(C)]
    ) if n_unl else np.array([], dtype=np.int64)

    src = np.concatenate([lab_src, unl_src])
    true_y = target.y[src].copy()
    masked_y = true_y.copy()
    masked_y[n_lab:] = UNLABELED
    seen: dict[str, int] = {}
    new_ids = []
    for i in src:
        orig = target.death_ids[i]
        k = seen.get(orig, 0)
        seen[orig] = k + 1
        new_ids.append(f"{orig}~r{k}")
    dataset = Dataset(
        domain_id=target.domain_id,
        death_ids=tuple(new_ids),
        x=target.x[src].copy(),
        y=masked_y,
        cause_list=target.cause_list,
        symptom_dict=target.symptom_dict,
    )
    labeled_pos = np.arange(n_lab)
    unlabeled_pos = np.arange(n_lab, n_lab + n_unl)
    return _finalize(
        target, "mild_shift", label_fraction, seed, dataset, labeled_pos, unlabeled_pos,
        true_y, realized_pi_pair=(pi_lab, pi_gen),
    )
