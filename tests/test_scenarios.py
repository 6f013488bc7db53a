import hashlib
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


@pytest.mark.parametrize("kind", KINDS)
def test_truth_ledger_csmfs_are_empirical(kind):
    t = full_target(n=50)
    real = make_scenario(t, kind, seed=3)
    ds, truth = real.dataset, real.truth
    # the true cause of each row of the masked dataset: mild_shift's rows are
    # replicas named <source id>~r<k>, the other kinds keep the target's rows
    by_id = {d: i for i, d in enumerate(t.death_ids)}
    true_y = t.y[[by_id[d.rpartition("~r")[0] if kind == "mild_shift" else d]
                  for d in ds.death_ids]]
    lab = np.flatnonzero(ds.y != UNLABELED)
    unl = np.flatnonzero(ds.y == UNLABELED)
    assert lab.size and unl.size
    assert np.array_equal(ds.y[lab], true_y[lab])
    assert truth.unlabeled_ids == tuple(ds.death_ids[i] for i in unl)
    assert np.array_equal(truth.unlabeled_y, true_y[unl])

    def csmf(y):
        counts = np.bincount(y, minlength=3)
        return counts / counts.sum()

    assert np.allclose(truth.full_csmf, csmf(true_y), atol=1e-15)
    assert np.allclose(truth.labeled_csmf, csmf(true_y[lab]), atol=1e-15)
    assert np.allclose(truth.unlabeled_csmf, csmf(true_y[unl]), atol=1e-15)
    for part in (truth.full_csmf, truth.labeled_csmf, truth.unlabeled_csmf):
        assert part.sum() == pytest.approx(1.0, abs=1e-12)


def _stream_digest(real) -> str:
    """sha256 of the ids, symptoms and labels of the masked dataset, the ledger's
    true unlabeled causes and the scenario's realized draws, dtypes included."""
    h = hashlib.sha256("\n".join(real.dataset.death_ids).encode())
    sc = real.scenario
    arrays = [real.dataset.x, real.dataset.y, real.truth.unlabeled_y]
    if sc.realized_q is not None:
        arrays.append(sc.realized_q)
    if sc.realized_pi_pair is not None:
        arrays.extend(sc.realized_pi_pair)
    for a in arrays:
        h.update(f"|{a.dtype.str}{a.shape}|".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# each digest fixes which deaths one kind labels and resamples at one seed
STREAM_DIGESTS = {
    ("random_sample", 0): "552b4d716a33191cf79e5179eae633586c9747b489a99bd460c73f2e9f65d6f9",
    ("random_sample", 1): "5e73c8452c8d1abd1c5bd6bead5bdc144bc2798ddd3b94f502e992b844dde69c",
    ("mild_shift", 0): "a350321b05501550f18e0afa9e6241895394f21ae421ead3b23cd55e2ec6bbf1",
    ("mild_shift", 1): "30b83754f8d464b871a6ddd736622808606c5a20a9445a930d8864528f475099",
    ("severe_shift", 0): "67a9c4a8244a2a2bbfaa75d17776251017975735a00d3873ac298297c18a8351",
    ("severe_shift", 1): "3d2b447c8d53fca24e26118c4a0e013e5b43d218d80b791c9b2f0765a99e9ba2",
}


@pytest.mark.parametrize("kind, seed", sorted(STREAM_DIGESTS))
def test_scenario_stream_is_pinned(kind, seed):
    """Which deaths each kind labels, resamples and draws is fixed, not only
    reproducible: a rewrite that labels other deaths fails here."""
    real = make_scenario(full_target(n=47), kind, seed)
    assert (real.scenario.realized_q is not None) == (kind == "severe_shift")
    assert (real.scenario.realized_pi_pair is not None) == (kind == "mild_shift")
    assert _stream_digest(real) == STREAM_DIGESTS[kind, seed]


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
