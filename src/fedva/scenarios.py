"""Within-target label-shift scenario generators.

Each generator takes a fully labeled target dataset and produces a masked
copy (labels hidden on the unlabeled part) plus a ground-truth ledger. The
ledger is the only place a masked label survives; methods under evaluation
see the masked Dataset, metrics see the ledger.

The ledger is read off the masked labels (`data.split_labels`): the rows
left UNLABELED, in row order, give unlabeled_ids, unlabeled_y (their true
causes) and unlabeled_csmf; the labeled rows give labeled_csmf; full_csmf
counts the true cause of every row of the masked Dataset, which for
mild_shift is the resampled multiset rather than the original target.

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
from dataclasses import dataclass, replace

import numpy as np

from .data import UNLABELED, Dataset, split_labels
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


def _realize(scenario: ShiftScenario, dataset: Dataset,
             true_y: np.ndarray) -> ScenarioRealization:
    """The scenario with its ledger, read off the masked labels of `dataset`;
    true_y holds the true cause of each of its rows."""
    C = len(dataset.cause_list)
    unlabeled, _, labeled_y = split_labels(dataset.y, dataset.n, C)
    truth = ScenarioTruth(
        full_csmf=_empirical_csmf(true_y, C),
        labeled_csmf=_empirical_csmf(labeled_y, C),
        unlabeled_csmf=_empirical_csmf(true_y[unlabeled], C),
        unlabeled_y=true_y[unlabeled],
        unlabeled_ids=tuple(dataset.death_ids[i] for i in unlabeled),
    )
    return ScenarioRealization(scenario=scenario, dataset=dataset, truth=truth)


def check_scenario(kind: str, label_fraction: float) -> None:
    """InvalidGenerator unless `kind` is one of KINDS and 0 < label_fraction < 1."""
    if kind not in KINDS:
        raise InvalidGenerator(f"scenario kind must be one of {KINDS}, got {kind!r}")
    if not 0.0 < label_fraction < 1.0:
        raise InvalidGenerator(f"label_fraction must lie in (0,1), got {label_fraction!r}")


def make_scenario(target: Dataset, kind: str, seed: int,
                  label_fraction: float = 0.2) -> ScenarioRealization:
    """Realize one labeled/unlabeled split; deterministic in (inputs, seed)."""
    check_scenario(kind, label_fraction)
    if np.any(target.y == UNLABELED):
        raise NotFullyLabeled("scenario generation needs a fully labeled target")
    n = target.n
    C = len(target.cause_list)
    rng = derive_rng("scenario", kind, target.domain_id, seed)

    if kind == "mild_shift":
        # both parts are resampled multisets of the original deaths, labeled part first
        pi_lab = rng.dirichlet(np.ones(C))
        pi_gen = rng.dirichlet(np.ones(C))
        n_lab = round_half_up(label_fraction * n)
        lab_counts = largest_remainder_counts(pi_lab, n_lab)
        unl_counts = largest_remainder_counts(pi_gen, n - n_lab)
        pools = [np.flatnonzero(target.y == c) for c in range(C)]
        for c in range(C):
            if (lab_counts[c] or unl_counts[c]) and pools[c].shape[0] == 0:
                raise EmptyCauseForResample(
                    f"cause {target.cause_list.causes[c]!r} has no exemplar to resample"
                )
        parts = [np.zeros(0, dtype=np.int64)]
        for counts, size in ((lab_counts, n_lab), (unl_counts, n - n_lab)):
            if size:
                parts += [rng.choice(pools[c], size=int(counts[c]), replace=True)
                          for c in range(C)]
        src = np.concatenate(parts)

        true_y = target.y[src]
        masked_y = true_y.copy()
        masked_y[n_lab:] = UNLABELED
        seen: dict[str, int] = {}
        new_ids = []
        for i in src:
            orig = target.death_ids[i]
            k = seen.get(orig, 0)
            seen[orig] = k + 1
            new_ids.append(f"{orig}~r{k}")
        dataset = replace(target, death_ids=tuple(new_ids), x=target.x[src], y=masked_y)
        scenario = ShiftScenario(kind, label_fraction, seed, realized_pi_pair=(pi_lab, pi_gen))
        return _realize(scenario, dataset, true_y)

    # random_sample and severe_shift keep the target's rows and hide the
    # labels of all but the picked ones
    realized_q = None
    if kind == "random_sample":
        picks = [rng.choice(n, size=math.ceil(label_fraction * n), replace=False)]
    else:
        realized_q = rng.beta(0.2, 0.2, size=C)
        picks = []
        for c in range(C):
            pool = np.flatnonzero(target.y == c)
            n_lab_c = round_half_up(float(realized_q[c]) * pool.shape[0])
            if n_lab_c:
                picks.append(rng.choice(pool, size=n_lab_c, replace=False))
    y = np.full(n, UNLABELED, dtype=np.int32)
    for rows in picks:
        y[rows] = target.y[rows]
    scenario = ShiftScenario(kind, label_fraction, seed, realized_q=realized_q)
    return _realize(scenario, replace(target, y=y), target.y)
