import math

import numpy as np
import pytest

from conftest import CL3, make_dataset
from fedva.data import UNLABELED
from fedva.errors import EmptyCauseForResample, InvalidGenerator, NotFullyLabeled
from fedva.scenarios import KINDS, make_scenario
from fedva.utils import largest_remainder_counts, round_half_up


def full_target(n=60, seed=0, causes=(0, 1, 2)):
    rng = np.random.default_rng(seed)
    y = np.asarray([causes[i % len(causes)] for i in range(n)], dtype=np.int32)
    x = rng.integers(0, 2, size=(n, 4)).astype(np.uint8)
    x[rng.random((n, 4)) < 0.05] = 2  # sprinkle missingness
    return make_dataset("tgt", x, y)


def test_guards():
    t = full_target()
    with pytest.raises(InvalidGenerator):
        make_scenario(t, "bad_kind", seed=0)
    with pytest.raises(InvalidGenerator):
        make_scenario(t, "random_sample", seed=0, label_fraction=0.0)
    with pytest.raises(InvalidGenerator):
        make_scenario(t, "random_sample", seed=0, label_fraction=1.0)
    y = t.y.copy()
    y[0] = UNLABELED
    partial = make_dataset("tgt", t.x, y)
    with pytest.raises(NotFullyLabeled):
        make_scenario(partial, "random_sample", seed=0)


@pytest.mark.parametrize("n", [20, 23, 37, 100])
@pytest.mark.parametrize("f", [0.2, 0.5])
def test_random_sample_sizes_and_partition(n, f):
    t = full_target(n=n)
    real = make_scenario(t, "random_sample", seed=7, label_fraction=f)
    ds = real.dataset
    lab = np.flatnonzero(ds.y != UNLABELED)
    assert len(lab) == math.ceil(f * n)
    assert ds.n == n and ds.death_ids == t.death_ids
    assert np.array_equal(ds.x, t.x)
    assert np.array_equal(ds.y[lab], t.y[lab])
    unl = np.flatnonzero(ds.y == UNLABELED)
    assert set(lab) | set(unl) == set(range(n)) and not set(lab) & set(unl)
    assert real.truth.unlabeled_ids == tuple(t.death_ids[i] for i in unl)
    assert np.array_equal(real.truth.unlabeled_y, t.y[unl])


def test_truth_ledger_csmfs_are_empirical():
    t = full_target(n=50)
    real = make_scenario(t, "random_sample", seed=3)
    counts = np.bincount(t.y, minlength=3)
    assert np.allclose(real.truth.full_csmf, counts / counts.sum(), atol=1e-15)
    lab_y = t.y[np.flatnonzero(real.dataset.y != UNLABELED)]
    lab_counts = np.bincount(lab_y, minlength=3)
    assert np.allclose(real.truth.labeled_csmf, lab_counts / lab_counts.sum(), atol=1e-15)
    assert real.truth.full_csmf.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_determinism_per_kind(kind):
    t = full_target(n=45)
    a = make_scenario(t, kind, seed=11)
    b = make_scenario(t, kind, seed=11)
    c = make_scenario(t, kind, seed=12)
    assert a.dataset.death_ids == b.dataset.death_ids
    assert np.array_equal(a.dataset.y, b.dataset.y)
    assert np.array_equal(a.dataset.x, b.dataset.x)
    assert np.array_equal(a.truth.unlabeled_y, b.truth.unlabeled_y)
    assert not np.array_equal(a.dataset.y, c.dataset.y) or a.dataset.death_ids != c.dataset.death_ids


def test_mild_shift_resamples_to_drawn_prevalences():
    n = 60
    t = full_target(n=n)
    real = make_scenario(t, "mild_shift", seed=2)
    ds = real.dataset
    n_lab = round_half_up(0.2 * n)
    n_unl = round_half_up(0.8 * n)
    assert ds.n == n_lab + n_unl
    assert np.all(ds.y[:n_lab] != UNLABELED)
    assert np.all(ds.y[n_lab:] == UNLABELED)
    pi_tilde, pi_gen = real.scenario.realized_pi_pair
    lab_counts = np.bincount(ds.y[:n_lab], minlength=3)
    assert np.array_equal(lab_counts, largest_remainder_counts(pi_tilde, n_lab))
    unl_counts = np.bincount(real.truth.unlabeled_y, minlength=3)
    assert np.array_equal(unl_counts, largest_remainder_counts(pi_gen, n_unl))
    assert np.max(np.abs(lab_counts - pi_tilde * n_lab)) < 1.0
    assert np.max(np.abs(unl_counts - pi_gen * n_unl)) < 1.0

    by_id = {d: i for i, d in enumerate(t.death_ids)}
    true_y = np.concatenate([ds.y[:n_lab], real.truth.unlabeled_y])
    for row, new_id, yv in zip(ds.x, ds.death_ids, true_y):
        orig, _, rep = new_id.rpartition("~r")
        assert orig in by_id and rep.isdigit()
        src = by_id[orig]
        assert np.array_equal(row, t.x[src])
        assert yv == t.y[src]


@pytest.mark.parametrize("n, f, n_lab", [(60, 0.4, 24), (61, 0.5, 31)])
def test_mild_shift_splits_at_the_configured_label_fraction(n, f, n_lab):
    """The labeled part is f * n rounded half up and the rest stay unlabeled,
    so the resampled target keeps n deaths even where (1 - f) * n is a tie."""
    ds = make_scenario(full_target(n=n), "mild_shift", seed=2, label_fraction=f).dataset
    assert ds.n == n
    assert np.all(ds.y[:n_lab] != UNLABELED)
    assert np.all(ds.y[n_lab:] == UNLABELED)


def test_mild_shift_replica_ids_are_unique():
    t = full_target(n=40)
    ds = make_scenario(t, "mild_shift", seed=9).dataset
    assert len(set(ds.death_ids)) == ds.n


def test_mild_shift_missing_cause_exemplar():
    t = full_target(n=30, causes=(0, 1))  # cause 2 never observed
    with pytest.raises(EmptyCauseForResample):
        make_scenario(t, "mild_shift", seed=0)


def test_severe_shift_counts_follow_beta_draws():
    t = full_target(n=90)
    real = make_scenario(t, "severe_shift", seed=4)
    q = real.scenario.realized_q
    assert q.shape == (3,) and np.all((q >= 0) & (q <= 1))
    ds = real.dataset
    assert ds.n == t.n and np.array_equal(ds.x, t.x)
    for c in range(3):
        pool = np.flatnonzero(t.y == c)
        want = round_half_up(float(q[c]) * pool.shape[0])
        got = int(np.sum(ds.y[pool] == c))
        assert got == want
    unl = np.flatnonzero(ds.y == UNLABELED)
    assert np.array_equal(real.truth.unlabeled_y, t.y[unl])


def test_shift_kinds_separate_labeled_from_unlabeled():
    t = full_target(n=120)
    gaps = {}
    for kind in KINDS:
        ds = []
        for seed in range(100):
            tr = make_scenario(t, kind, seed=seed).truth
            if tr.labeled_csmf.sum() == 0 or tr.unlabeled_csmf.sum() == 0:
                continue
            ds.append(np.abs(tr.labeled_csmf - tr.unlabeled_csmf).sum())
        gaps[kind] = float(np.mean(ds))
    assert gaps["random_sample"] < gaps["mild_shift"]
    assert gaps["random_sample"] < gaps["severe_shift"]
    assert gaps["severe_shift"] > 0.5  # Beta(0.2,0.2) pushes parts to extremes
