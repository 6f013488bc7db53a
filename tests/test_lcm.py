import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import softmax

from conftest import make_dataset
from fedva import lcm
from fedva.data import CauseList, Dataset, SymptomDictionary, SymptomValue
from fedva.exchange import summary_bytes
from fedva.errors import (
    DimensionMismatch,
    EmptyDataset,
    InvalidHyper,
    InvalidSummary,
    NotFullyLabeled,
)
from fedva.lcm import (
    BaseModelSummary,
    GibbsConfig,
    LcmHyper,
    Provenance,
    cond_loglik_matrix,
    train_lcm,
)
from oracles import (
    AbsentCause,
    TooManySymptoms,
    cond_loglik_matrix_reference,
    enumerate_mass,
    train_lcm_reference,
)

MISSING = int(SymptomValue.MISSING)


def small_summary():
    """Hand-built two-cause, two-class summary for exact likelihood checks."""
    nu = np.array([[0.6, 0.4], [1.0, 0.0], [np.nan, np.nan]])
    theta = np.array([
        [[0.9, 0.2, 0.5, 0.5], [0.1, 0.8, 0.5, 0.5]],
        [[0.3, 0.3, 0.3, 0.3], [0.5, 0.5, 0.5, 0.5]],
        [[np.nan] * 4, [np.nan] * 4],
    ])
    from conftest import CL3, SD4

    return BaseModelSummary(
        domain_id="hand",
        cause_list_fingerprint=CL3.fingerprint,
        dict_fingerprint=SD4.fingerprint,
        present=np.array([1, 1, 0], dtype=np.int8),
        n_by_cause=np.array([10, 5, 0], dtype=np.int64),
        nu_bar=nu,
        theta_bar=theta,
        hyper=LcmHyper(K=2),
        provenance=Provenance(tool_version="t", seed=0, iterations=10, burn_in=5),
    )


def test_cond_loglik_matches_hand_computation():
    s = small_summary()
    x = np.array([1, 0, MISSING, MISSING], dtype=np.uint8)
    # cause 0: 0.6 * (0.9 * 0.8) + 0.4 * (0.1 * 0.2)
    want = np.log(0.6 * 0.9 * 0.8 + 0.4 * 0.1 * 0.2)
    m = cond_loglik_matrix(s, x[None])
    assert m[0, 0] == pytest.approx(want, abs=1e-12)
    # cause 1: single class, independent Bernoulli 0.3 each
    want1 = np.log(0.3 * 0.7)
    assert m[0, 1] == pytest.approx(want1, abs=1e-12)


def test_cond_loglik_all_missing_is_exact_zero():
    s = small_summary()
    x = np.full(4, MISSING, dtype=np.uint8)
    m = cond_loglik_matrix(s, x[None, :])
    assert m[0, 0] == 0.0 and m[0, 1] == 0.0


def test_cond_loglik_absent_cause_is_minus_inf():
    s = small_summary()
    x = np.zeros(4, dtype=np.uint8)
    m = cond_loglik_matrix(s, x[None, :])
    assert m[0, 2] == -np.inf


def test_cond_loglik_rejects_wrong_width():
    s = small_summary()
    with pytest.raises(DimensionMismatch):
        cond_loglik_matrix(s, np.zeros(3, dtype=np.uint8)[None])


def test_enumerate_mass_is_one_for_hand_summary():
    s = small_summary()
    assert enumerate_mass(s, 0) == pytest.approx(1.0, abs=1e-10)
    assert enumerate_mass(s, 1) == pytest.approx(1.0, abs=1e-10)


def test_enumerate_mass_guards():
    s = small_summary()
    with pytest.raises(AbsentCause):
        enumerate_mass(s, 2)
    big = np.random.default_rng(0).uniform(0.1, 0.9, size=(3, 2, 21))
    wide = BaseModelSummary(
        domain_id="wide",
        cause_list_fingerprint=s.cause_list_fingerprint,
        dict_fingerprint="x",
        present=np.array([1, 1, 1], dtype=np.int8),
        n_by_cause=np.array([1, 1, 1], dtype=np.int64),
        nu_bar=np.full((3, 2), 0.5),
        theta_bar=big,
        hyper=LcmHyper(K=2),
        provenance=s.provenance,
    )
    with pytest.raises(TooManySymptoms):
        enumerate_mass(wide, 0)


def conjugate_dataset():
    # cause 0: 6 deaths; symptom 0 observed Y,Y,Y,N,N,missing
    x = np.array([
        [1, 1, 0, 0],
        [1, 0, 0, 0],
        [1, 1, 0, 0],
        [0, 0, 0, 0],
        [0, 1, 0, 0],
        [MISSING, 0, 0, 0],
        [0, 0, 1, 1],
        [0, 0, 1, 0],
    ], dtype=np.uint8)
    y = np.array([0, 0, 0, 0, 0, 0, 1, 1], dtype=np.int32)
    return make_dataset("conj", x, y)


def test_k1_training_matches_beta_posterior_mean():
    """With one latent class the sampler draws iid from the exact posterior."""
    ds = conjugate_dataset()
    hyper = LcmHyper(K=1, theta_prior=(1.0, 1.0))
    cfg = GibbsConfig(iterations=6000, burn_in=1000, thin=1, seed=3)
    s = train_lcm(ds, hyper, cfg)
    # cause 0, symptom 0: 3 yes, 2 no, 1 missing -> Beta(4, 3) mean 4/7
    kept = cfg.iterations - cfg.burn_in
    se = np.sqrt(4 * 3 / ((7.0**2) * 8.0)) / np.sqrt(kept)
    assert abs(s.theta_bar[0, 0, 0] - 4.0 / 7.0) < 3 * se + 1e-9
    # cause 1, symptom 2: 2 yes, 0 no -> Beta(3, 1) mean 3/4
    assert abs(s.theta_bar[1, 0, 2] - 0.75) < 0.03
    assert s.nu_bar[0].tolist() == [1.0]


def test_training_is_deterministic_and_order_insensitive():
    ds = conjugate_dataset()
    hyper = LcmHyper(K=2)
    cfg = GibbsConfig(iterations=60, burn_in=30, thin=1, seed=9)
    s1 = train_lcm(ds, hyper, cfg)
    s2 = train_lcm(ds, hyper, cfg)
    shuffled = ds.subset(np.array([5, 2, 7, 0, 1, 4, 6, 3]))
    s3 = train_lcm(shuffled, hyper, cfg)
    assert np.array_equal(s1.theta_bar, s2.theta_bar, equal_nan=True)
    assert np.array_equal(s1.theta_bar, s3.theta_bar, equal_nan=True)
    s4 = train_lcm(ds, hyper, GibbsConfig(iterations=60, burn_in=30, thin=1, seed=10))
    assert not np.array_equal(s1.theta_bar, s4.theta_bar, equal_nan=True)


def test_trained_summary_shapes_and_absent_causes(labeled_ds):
    sub = labeled_ds.subset(np.flatnonzero(labeled_ds.y != 2))  # drop trauma
    s = train_lcm(sub, LcmHyper(K=3), GibbsConfig(iterations=80, burn_in=40, thin=1, seed=0))
    assert s.present.tolist() == [1, 1, 0]
    assert np.all(np.isnan(s.nu_bar[2])) and np.all(np.isnan(s.theta_bar[2]))
    for c in (0, 1):
        assert abs(s.nu_bar[c].sum() - 1.0) < 1e-9
        assert np.all((s.theta_bar[c] > 0) & (s.theta_bar[c] < 1))
    assert s.n_by_cause.tolist() == [10, 10, 0]
    assert s.provenance.seed == 0 and s.provenance.iterations == 80


def test_min_count_marks_thin_causes_absent(labeled_ds):
    keep = np.flatnonzero((labeled_ds.y != 2) | (np.arange(30) == 20))
    sub = labeled_ds.subset(keep)  # exactly one trauma death
    s = train_lcm(sub, LcmHyper(K=2),
                  GibbsConfig(iterations=40, burn_in=20, thin=1, seed=0), min_count=2)
    assert s.present.tolist() == [1, 1, 0]


def test_sparse_variant_produces_normalized_model(labeled_ds):
    hyper = LcmHyper(K=2, sparse=True)
    s = train_lcm(labeled_ds, hyper, GibbsConfig(iterations=200, burn_in=100, thin=1, seed=1))
    for c in range(3):
        assert enumerate_mass(s, c) == pytest.approx(1.0, abs=1e-8)


def test_training_input_guards(labeled_ds):
    cfg = GibbsConfig(iterations=10, burn_in=5, thin=1, seed=0)
    with pytest.raises(NotFullyLabeled):
        train_lcm(labeled_ds.without_labels(), LcmHyper(), cfg)
    empty = labeled_ds.subset(np.array([], dtype=int))
    with pytest.raises(EmptyDataset):
        train_lcm(empty, LcmHyper(), cfg)
    with pytest.raises(InvalidHyper):
        train_lcm(labeled_ds, LcmHyper(), cfg, min_count=0)


@pytest.mark.parametrize("bad", [
    dict(K=0),
    dict(alpha_sb=0.0),
    dict(theta_prior=(0.0, 1.0)),
    dict(pi_prior=-1.0),
    dict(spike_omega_prior=(1.0, 0.0)),
])
def test_hyper_validation(bad):
    with pytest.raises(InvalidHyper):
        LcmHyper(**bad)


def test_gibbs_config_validation():
    with pytest.raises(InvalidHyper):
        GibbsConfig(iterations=10, burn_in=10, thin=1, seed=0)
    with pytest.raises(InvalidHyper):
        GibbsConfig(iterations=10, burn_in=2, thin=0, seed=0)


def grouped_dataset(sizes, p, seed, missing=0.1):
    """Deaths of len(sizes) causes, each cause a mix of two symptom profiles."""
    rng = np.random.default_rng(seed)
    C = len(sizes)
    profiles = rng.uniform(0.05, 0.95, size=(C, 2, p))
    y = np.repeat(np.arange(C), sizes).astype(np.int32)
    cls = rng.integers(0, 2, size=y.shape[0])
    x = (rng.random((y.shape[0], p)) < profiles[y, cls]).astype(np.uint8)
    x[rng.random(x.shape) < missing] = MISSING
    return Dataset("grp", tuple(f"d{i:05d}" for i in range(y.shape[0])), x, y,
                   CauseList(tuple(f"c{i}" for i in range(C))),
                   SymptomDictionary(tuple(f"s{j}" for j in range(p))))


def beta_posterior(ds, a=1.0, b=1.0):
    """Exact K=1 posterior mean and sd of every (cause, symptom) cell."""
    C = len(ds.cause_list)
    yes = np.stack([np.sum(ds.x[ds.y == c] == SymptomValue.YES, axis=0) for c in range(C)])
    no = np.stack([np.sum(ds.x[ds.y == c] == SymptomValue.NO, axis=0) for c in range(C)])
    a, b = a + yes, b + no
    return a / (a + b), np.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))


def test_kernel_matches_reference_at_k1():
    """theta_bar of both kernels: each a mean of iid conjugate draws.

    The kernels key the same stream, so each gets its own seed.
    """
    ds = grouped_dataset((40, 25, 12), p=6, seed=11)
    cfg = GibbsConfig(iterations=3000, burn_in=500, thin=1, seed=4)
    new = train_lcm(ds, LcmHyper(K=1), cfg).theta_bar[:, 0]
    ref = train_lcm_reference(ds, LcmHyper(K=1), replace(cfg, seed=5)).theta_bar[:, 0]
    _, sd = beta_posterior(ds)
    se = sd * np.sqrt(2.0 / (cfg.iterations - cfg.burn_in))
    assert np.max(np.abs(new - ref) / se) < 4.0


def invariants(s):
    """Per-cause summaries that relabelling the latent classes leaves alone.

    Symptom rates sum_k nu_k theta_kj, pairwise rates
    sum_k nu_k theta_kj theta_kl (j < l), and sum_k nu_k^2.
    """
    nu, th = s.nu_bar, s.theta_bar
    j, l = np.triu_indices(th.shape[2], k=1)
    return np.concatenate([
        np.einsum("ck,ckj->cj", nu, th),
        np.einsum("ck,ckj->cj", nu, th[:, :, j] * th[:, :, l]),
        (nu**2).sum(axis=1, keepdims=True),
    ], axis=1)


@pytest.mark.parametrize("sparse", [False, True])
def test_kernel_matches_reference_relabel_invariants(sparse):
    """Symptom rates and the other `invariants` agree in distribution.

    Both kernels run the same Markov chain from the same initial law, so the
    state after a fixed number of iterations has one distribution. Each run
    keeps only its last draw; 200 runs per kernel, on seeds of their own,
    give independent samples. Cause sizes differ by 50x.
    """
    ds = grouped_dataset((100, 30, 2), p=5, seed=5)
    hyper = LcmHyper(K=3, sparse=sparse)
    runs = 200

    def draws(train, first_seed):
        return np.array([
            invariants(train(ds, hyper, GibbsConfig(iterations=30, burn_in=29, thin=1, seed=seed)))
            for seed in range(first_seed, first_seed + runs)
        ])

    new, ref = draws(train_lcm, 0), draws(train_lcm_reference, runs)
    se = np.sqrt((new.var(axis=0, ddof=1) + ref.var(axis=0, ddof=1)) / runs)
    z = np.abs(new.mean(axis=0) - ref.mean(axis=0)) / se
    assert np.max(z) < 4.0, f"worst z {np.max(z):.2f}"


def test_one_death_cause_and_50x_sizes_match_conjugate_posterior():
    """Row ranges line up with causes however unequal their sizes are."""
    ds = grouped_dataset((150, 3, 1), p=4, seed=2, missing=0.2)
    cfg = GibbsConfig(iterations=2500, burn_in=500, thin=1, seed=0)
    s = train_lcm(ds, LcmHyper(K=1), cfg)
    mean, sd = beta_posterior(ds)
    z = np.abs(s.theta_bar[:, 0] - mean) / (sd / np.sqrt(cfg.iterations - cfg.burn_in))
    assert np.max(z) < 4.0
    assert s.present.tolist() == [1, 1, 1] and s.n_by_cause.tolist() == [150, 3, 1]
    for sparse in (False, True):
        s3 = train_lcm(ds, LcmHyper(K=3, sparse=sparse), GibbsConfig(iterations=40, burn_in=20))
        assert s3.present.tolist() == [1, 1, 1]
        assert np.allclose(s3.nu_bar.sum(axis=1), 1.0)


def test_all_missing_record_adds_no_evidence():
    ds = grouped_dataset((12, 8), p=5, seed=3)
    x = np.vstack([ds.x, np.full((1, 5), MISSING, dtype=np.uint8)])
    y = np.append(ds.y, 1).astype(np.int32)
    padded = Dataset(ds.domain_id, ds.death_ids + ("d99999",), x, y,
                     ds.cause_list, ds.symptom_dict)
    cfg = GibbsConfig(iterations=50, burn_in=20, thin=1, seed=1)
    # K=1 draws depend on the data only through the counts: bit-identical.
    base = train_lcm(ds, LcmHyper(K=1), cfg)
    more = train_lcm(padded, LcmHyper(K=1), cfg)
    assert np.array_equal(base.theta_bar, more.theta_bar)
    assert more.n_by_cause.tolist() == [12, 9]
    s = train_lcm(padded, LcmHyper(K=2), cfg)
    assert np.all(np.isfinite(s.theta_bar)) and np.allclose(s.nu_bar.sum(axis=1), 1.0)


def test_min_count_leaves_the_thin_cause_unsampled():
    """A cause below min_count is absent and draws nothing from the stream."""
    ds = grouped_dataset((15, 1, 10), p=4, seed=8)
    cfg = GibbsConfig(iterations=40, burn_in=20, thin=1, seed=2)
    thin = train_lcm(ds, LcmHyper(K=2), cfg, min_count=2)
    dropped = train_lcm(ds.subset(np.flatnonzero(ds.y != 1)), LcmHyper(K=2), cfg)
    assert thin.present.tolist() == [1, 0, 1]
    assert thin.n_by_cause.tolist() == [15, 1, 10]
    assert np.array_equal(thin.nu_bar, dropped.nu_bar, equal_nan=True)
    assert np.array_equal(thin.theta_bar, dropped.theta_bar, equal_nan=True)


def test_no_cause_at_min_count_fails_before_sampling(monkeypatch):
    """With every cause below min_count, training raises before any iteration."""
    def boom(*args, **kwargs):
        raise AssertionError("sampled a summary with no present cause")

    monkeypatch.setattr(lcm, "_gibbs_means", boom)
    ds = grouped_dataset((1, 1), p=4, seed=3)
    cfg = GibbsConfig(iterations=4000, burn_in=2000, thin=1, seed=0)
    with pytest.raises(InvalidSummary, match="^summary has no present cause$"):
        train_lcm(ds, LcmHyper(K=5), cfg, min_count=2)


@pytest.mark.parametrize("sparse", [False, True])
def test_k1_never_draws_a_latent_class(monkeypatch, labeled_ds, sparse):
    def boom(*args, **kwargs):
        raise AssertionError("K=1 drew a latent class")

    monkeypatch.setattr(lcm, "_draw_classes", boom)
    s = train_lcm(labeled_ds, LcmHyper(K=1, sparse=sparse),
                  GibbsConfig(iterations=20, burn_in=10, thin=1, seed=0))
    assert np.array_equal(s.nu_bar, np.ones((3, 1)))


@pytest.mark.parametrize("hyper, digest", [
    (LcmHyper(K=1), "68f3cebf5d80c65bf09ddc6288c99b6580173de8ba2666d3ff5c2115a34de952"),
    (LcmHyper(K=1, theta_prior=(2.0, 0.5)),
     "dec8a703b43ae2fab38e21f54b0caabb7c8137dca82297a8a5e3a8680cdf9f42"),
    (LcmHyper(K=1, sparse=True),
     "12773cd27d2a97a16ffe31651292cc4a85c948e43213cf24add94744ba530e47"),
])
def test_k1_stream_is_pinned(hyper, digest):
    """K=1 summaries keep their exact bytes: every K=1 theta draw is one Beta
    call over all cells, and no class is drawn. The digests also cover the
    summary format and TOOL_VERSION, so a change to either re-pins them."""
    ds = grouped_dataset((40, 25, 3), p=12, seed=11)
    s = train_lcm(ds, hyper, GibbsConfig(iterations=60, burn_in=20, thin=2, seed=5))
    assert hashlib.sha256(summary_bytes(s)).hexdigest() == digest


def test_k3_sparse_stream_is_pinned():
    """The spike-and-slab path at K>1 keeps its exact bytes, its inclusion
    probabilities (`utils.expit`) and class draws included."""
    ds = grouped_dataset((40, 25, 3), p=12, seed=11)
    s = train_lcm(ds, LcmHyper(K=3, sparse=True),
                  GibbsConfig(iterations=60, burn_in=20, thin=2, seed=5))
    assert (hashlib.sha256(summary_bytes(s)).hexdigest()
            == "a53aa8cc7332dcbb1c193465ee13f8f5074d53c9a1a6bae680cd1b49065f2992")


def first_sweep(sizes, p, hyper, seed):
    """theta of one `_gibbs_means` iteration and the class counts it drew from.

    The Yes/No counts (T, K, p) and record counts (T, K) are those of the
    initial classes, one uniform integer per record from the same seed.
    """
    rng = np.random.default_rng(100 + seed)
    rec_cause = np.repeat(np.arange(len(sizes)), sizes)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    obs = lcm._indicators(rng.integers(0, 3, size=(rec_cause.size, p)).astype(np.uint8))
    spans = list(zip(bounds[:-1], bounds[1:]))
    onehot = np.eye(hyper.K)[np.random.default_rng(seed).integers(0, hyper.K, rec_cause.size)]
    per_cause = np.stack([onehot[s:e].T @ obs[s:e] for s, e in spans])
    counts = np.stack([onehot[s:e].sum(axis=0) for s, e in spans]).astype(np.int64)
    _, theta = lcm._gibbs_means(np.random.default_rng(seed), [obs[s:e] for s, e in spans],
                                rec_cause, bounds, p, hyper,
                                GibbsConfig(iterations=1, burn_in=0, thin=1, seed=0))
    return theta, per_cause[..., :p], per_cause[..., p:], counts


@pytest.mark.parametrize("prior", [(1.0, 1.0), (2.0, 0.5)])
def test_empty_class_rows_draw_theta_from_the_prior(prior):
    """Probability integral transforms of theta under its full conditional,
    Beta(a + Yes, b + No), are uniform: the prior itself on the rows of empty
    classes, the count-updated Beta on occupied rows."""
    a, b = prior
    theta, yes, no, counts = first_sweep((3,) * 40, p=25, hyper=LcmHyper(K=5, theta_prior=prior),
                                         seed=4)
    empty = counts == 0
    assert empty.sum() >= 80
    pit = stats.beta.cdf(theta, a + yes, b + no)
    assert stats.kstest(pit[empty].ravel(), "uniform").pvalue > 1e-3
    assert stats.kstest(pit[~empty].ravel(), "uniform").pvalue > 1e-3


def test_theta_draw_without_empty_rows_is_one_beta_over_all_cells():
    """With every class occupied, theta is one rng.beta over all (T, K, p)
    cells, right after the stick breaks, as at K = 1."""
    hyper = LcmHyper(K=3, alpha_sb=0.7, theta_prior=(2.0, 0.5))
    theta, yes, no, counts = first_sweep((30, 30, 30), p=6, hyper=hyper, seed=2)
    assert counts.min() > 0
    rng = np.random.default_rng(2)
    rng.integers(0, 3, size=90)
    tail = counts[:, ::-1].cumsum(axis=1)[:, ::-1] - counts
    rng.beta(1.0 + counts[:, :-1], hyper.alpha_sb + tail[:, :-1])
    want = np.clip(rng.beta(2.0 + yes, 0.5 + no), 1e-12, 1.0 - 1e-12)
    assert np.array_equal(theta, want)


def test_class_draw_frequencies_match_softmax():
    """Rows with classes of weight exactly 0 (nu = 0, the last class too), with
    every log-weight below exp's range and with spreads above 745 nats."""
    rows = np.array([
        [0.0, np.log(2.0), -np.inf, np.log(3.0), -np.inf],
        [-1000.0, -1000.0 + np.log(2.0), -1000.0 + np.log(0.5), -1000.0, -1001.0],
        [0.0, -800.0, -0.5, -760.0, np.log(0.25)],
        [-np.inf, -np.inf, -900.0, -np.inf, -np.inf],
        [-np.inf, -np.inf, -np.inf, -np.inf, 5.0],
    ])
    reps = 20000
    logw = np.repeat(rows, reps, axis=0)
    z = lcm._draw_classes(np.random.default_rng(8), logw, np.empty(logw.shape[::-1]))
    for r, row in enumerate(rows):
        got = np.bincount(z[r * reps : (r + 1) * reps], minlength=row.size)
        want = softmax(row)  # exp(-760) and below round to weight 0
        assert np.all(got[want == 0] == 0)
        live = want > 0
        if live.sum() > 1:
            assert stats.chisquare(got[live], reps * want[live]).pvalue > 1e-3
        else:
            assert got[live].tolist() == [reps]


def test_cond_loglik_matrix_matches_per_cause_form():
    rng = np.random.default_rng(21)
    C, K, p = 5, 3, 9
    nu = rng.dirichlet(np.ones(K), size=C)
    nu[2] = [0.5, 0.0, 0.5]  # a component of exactly 0
    nu[3] = [0.2, 0.3, 0.4999999]  # sums to 1 within the summary's 1e-6 only
    theta = rng.uniform(0.02, 0.98, size=(C, K, p))
    present = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    nu[present == 0] = np.nan
    theta[present == 0] = np.nan
    s = BaseModelSummary(
        domain_id="mix", nu_bar=nu, theta_bar=theta, present=present,
        n_by_cause=np.array([4, 0, 3, 2, 0]),
        cause_list_fingerprint="c", dict_fingerprint="d", hyper=LcmHyper(K=K),
        provenance=Provenance(tool_version="t", seed=0, iterations=2, burn_in=1),
    )
    for n in (0, 1, 255, 256, 600):  # 600 is no multiple of the row block
        x = rng.integers(0, 3, size=(n, p)).astype(np.uint8)
        x[::7] = MISSING
        got = cond_loglik_matrix(s, x)
        want = cond_loglik_matrix_reference(s, x)
        assert got.shape == (n, C)
        assert np.array_equal(np.isneginf(got), np.isneginf(want))
        assert np.all(got[:, present == 0] == -np.inf)
        assert np.all(got[::7][:, present == 1] == 0.0)
        finite = np.isfinite(want)
        assert np.allclose(got[finite], want[finite], rtol=0.0, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_cond_loglik_matrix_at_the_theta_clip(data):
    """theta on the 1e-12 clip, nu with exact zeros, all-Missing records: every
    present cause scores finite and each record matches the reference. At
    p = 40 one record's log-likelihood reaches about -1,105, beyond exp's
    range."""
    C, K, p = (data.draw(st.integers(1, hi)) for hi in (4, 4, 40))
    n = data.draw(st.integers(0, 12))
    present = np.array(data.draw(st.lists(st.booleans(), min_size=C, max_size=C)
                                 .filter(any)), dtype=np.uint8)
    clip = st.sampled_from([1e-12, 1.0 - 1e-12])
    # each (cause, class) row all on one side of the clip, or mixed cell by cell
    theta = np.array([data.draw(st.one_of(clip.map(lambda v: [v] * p),
                                          st.lists(st.one_of(clip, st.just(0.3)),
                                                   min_size=p, max_size=p)))
                      for _ in range(C * K)]).reshape(C, K, p)
    weights = np.array(data.draw(st.lists(
        st.lists(st.sampled_from([0.0, 0.0, 1.0, 3.0]), min_size=K, max_size=K)
        .filter(any), min_size=C, max_size=C)))
    nu = weights / weights.sum(axis=1, keepdims=True)
    nu[present == 0] = np.nan
    theta[present == 0] = np.nan
    # each record all Yes, all No, all Missing, or mixed cell by cell
    cell = st.sampled_from([0, 1, 2])
    x = np.array([data.draw(st.one_of(cell.map(lambda v: [v] * p),
                                      st.lists(cell, min_size=p, max_size=p)))
                  for _ in range(n)], dtype=np.uint8).reshape(n, p)
    s = BaseModelSummary(
        domain_id="clip", nu_bar=nu, theta_bar=theta, present=present,
        n_by_cause=present.astype(np.int64), cause_list_fingerprint="c",
        dict_fingerprint="d", hyper=LcmHyper(K=K),
        provenance=Provenance(tool_version="t", seed=0, iterations=2, burn_in=1),
    )
    s.validate()
    got = cond_loglik_matrix(s, x)
    want = cond_loglik_matrix_reference(s, x)
    assert got.shape == (n, C)
    assert np.all(np.isfinite(got[:, present == 1]))
    assert np.all(got[:, present == 0] == -np.inf)
    assert np.all(got[(x == MISSING).all(axis=1)][:, present == 1] == 0.0)
    for i in range(n):
        assert np.allclose(got[i], want[i], rtol=1e-13, atol=1e-12), (i, got[i], want[i])


def traced_peak(fn, *args, **kwargs):
    """Bytes allocated at the peak of fn(*args), above what was live before."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def test_memory_stays_within_the_indicator_budget():
    """Peaks are bounded by the two (n, p) float64 indicator matrices.

    Training may hold those indicators plus small per-cause state: at most
    1.5x their size. Padding each cause to the largest one (the causes here
    differ by 50x) would take about 7x. Scoring goes through fixed row
    blocks, so it stays under half their size; converting all rows at once
    would take the full size.
    """
    n, p = 3000, 40
    sizes = (2650,) + (50,) * 7
    ds = grouped_dataset(sizes, p=p, seed=6)
    indicators = 2 * n * p * 8
    s = train_lcm(ds, LcmHyper(K=3), GibbsConfig(iterations=3, burn_in=1, thin=1, seed=0))
    train_peak = traced_peak(
        train_lcm, ds, LcmHyper(K=3), GibbsConfig(iterations=3, burn_in=1, thin=1, seed=0)
    )
    assert train_peak < 1.5 * indicators, f"train_lcm peak {train_peak / indicators:.2f}x"
    score_peak = traced_peak(cond_loglik_matrix, s, ds.x)
    assert score_peak < 0.5 * indicators, f"cond_loglik_matrix peak {score_peak / indicators:.2f}x"
