from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import batch_se, labels_first, make_dataset
from fedva import calibration
from fedva.calibration import (
    CalibConfig,
    PredictionTensor,
    build_predictions,
    fit_calibration,
    gamma_prior_mean,
)
from fedva.data import UNLABELED
from fedva.ensemble import EnsembleConfig, PhiTensor, build_phi, classify, fit_global
from fedva.errors import DimensionMismatch, EmptyPredictions, InvalidHyper
from fedva.lcm import GibbsConfig, LcmHyper, cond_loglik_matrix, train_lcm
from fedva.reports import pi_summary
from fedva.utils import log_dirichlet, log_dirichlet_pdf
from oracles import fit_calibration_reference


def hard_tensor(tops, C, M=1):
    """Predictions with probability 0.7 on the requested top cause."""
    tops = np.asarray(tops)
    if tops.ndim == 1:
        tops = tops[:, None]
    n = tops.shape[0]
    a = np.full((n, C, M), 0.3 / (C - 1))
    for m in range(M):
        a[np.arange(n), tops[:, m], m] = 0.7
    return PredictionTensor(a=a, death_ids=tuple(f"d{i}" for i in range(n)),
                            domain_ids=tuple(f"m{j}" for j in range(M)))


CFG = CalibConfig(iterations=1500, burn_in=750, seed=0)


def test_prediction_tensor_validation():
    with pytest.raises(DimensionMismatch):
        PredictionTensor(a=np.ones((2, 2)), death_ids=("a", "b"), domain_ids=("m0",))
    with pytest.raises(DimensionMismatch):
        PredictionTensor(a=np.full((1, 2, 1), 0.5), death_ids=(), domain_ids=("m0",))
    with pytest.raises(DimensionMismatch):  # not a simplex
        PredictionTensor(a=np.full((1, 2, 1), 0.6), death_ids=("a",), domain_ids=("m0",))
    with pytest.raises(DimensionMismatch):
        PredictionTensor(a=np.array([[[1.5], [-0.5]]]), death_ids=("a",), domain_ids=("m0",))
    t = hard_tensor([0, 1, 1], C=3)
    assert t.n == 3 and t.C == 3 and t.M == 1
    assert not t.a.flags.writeable


def test_top_breaks_ties_toward_lowest_index():
    a = np.full((1, 4, 2), 0.25)
    t = PredictionTensor(a=a, death_ids=("only",), domain_ids=("u", "v"))
    assert t.top().tolist() == [[0, 0]]


@pytest.mark.parametrize("bad", [
    dict(alpha=0.0), dict(beta_rate=-1.0), dict(epsilon=0.0),
    dict(iterations=0), dict(burn_in=2000), dict(seed=-1),
])
def test_config_validation(bad):
    with pytest.raises(InvalidHyper):
        CalibConfig(**bad).validate()


def test_shrinkage_prior_mean_is_exact():
    assert gamma_prior_mean(CalibConfig(beta_rate=0.5)) == 10.0
    assert gamma_prior_mean(CalibConfig(beta_rate=50.0)) == 0.1
    assert gamma_prior_mean(CalibConfig(beta_rate=50.0)) < gamma_prior_mean(CalibConfig(beta_rate=0.5))


def test_no_labels_strong_shrinkage_returns_top_frequencies():
    rng = np.random.default_rng(0)
    tops = rng.choice(3, size=400, p=[0.5, 0.3, 0.2])
    res = fit_calibration(hard_tensor(tops, C=3), None, CFG)
    freq = np.bincount(tops, minlength=3) / 400
    assert np.abs(res.pi_mean() - freq).max() < 0.05


def test_identity_confusion_returns_unlabeled_top_frequencies():
    rng = np.random.default_rng(1)
    y_lab = np.repeat([0, 1, 2], 20)
    tops_unl = rng.choice(3, size=240, p=[0.25, 0.5, 0.25])
    tops = np.concatenate([y_lab, tops_unl])  # perfect on the labeled part
    res = fit_calibration(hard_tensor(tops, C=3), labels_first(y_lab, 300), CFG)
    freq = np.bincount(tops_unl, minlength=3) / 240
    assert np.abs(res.pi_mean() - freq).max() < 0.05


def test_uninformative_classifier_reverts_to_prior():
    # Enough labels that the confusion rows escape the identity shrinkage and
    # both converge to "predicts the first cause no matter what" -- at which
    # point the unlabeled tops carry no information about pi.
    tops = np.zeros(230, dtype=np.int64)  # always predicts the first cause
    y_lab = np.tile([0, 1], 100)
    res = fit_calibration(hard_tensor(tops, C=2), labels_first(y_lab, 230),
                          CalibConfig(iterations=20000, burn_in=5000, seed=0))
    assert res.confusion_mean[0, :, 0].min() > 0.85
    lo, hi = pi_summary(res.pi_draws)[1:, 0]
    assert hi - lo > 0.5


def test_confusion_side_never_sees_unlabeled_deaths():
    y_lab = np.tile([0, 1, 2], 15)
    tops_lab = (y_lab + (np.arange(45) % 5 == 0)) % 3  # mostly right, some noise
    rng = np.random.default_rng(2)
    variants = []
    for block_seed in (10, 11):
        tops_unl = np.random.default_rng(block_seed).choice(3, size=150)
        tops = np.concatenate([tops_lab, tops_unl])
        variants.append(fit_calibration(hard_tensor(tops, C=3), labels_first(y_lab, 195), CFG))
    a, b = variants
    assert np.array_equal(a.confusion_mean, b.confusion_mean)
    assert not np.array_equal(a.pi_draws, b.pi_draws)


def test_recovery_with_known_miscalibrated_classifier():
    rng = np.random.default_rng(3)
    Q = np.array([
        [0.55, 0.35, 0.10],
        [0.10, 0.55, 0.35],
        [0.25, 0.10, 0.65],
    ])
    y_lab = rng.choice(3, size=2000)
    tops_lab = np.array([rng.choice(3, p=Q[c]) for c in y_lab])
    pi_true = np.array([0.5, 0.3, 0.2])
    y_unl = rng.choice(3, size=2000, p=pi_true)
    tops_unl = np.array([rng.choice(3, p=Q[c]) for c in y_unl])
    tensor = hard_tensor(np.concatenate([tops_lab, tops_unl]), C=3)
    res = fit_calibration(tensor, labels_first(y_lab, 4000), CFG)
    assert np.abs(res.pi_mean() - pi_true).max() < 0.05
    naive = np.bincount(tops_unl, minlength=3) / 2000
    assert np.abs(naive - pi_true).max() > 0.05  # calibration had work to do


def test_draws_are_simplices_and_result_shapes():
    rng = np.random.default_rng(4)
    tops = rng.choice(3, size=(60, 2))
    tensor = hard_tensor(tops, C=3, M=2)
    res = fit_calibration(tensor, labels_first(np.repeat([0, 1, 2], 8), 60),
                          CalibConfig(iterations=200, burn_in=100, seed=1))
    assert res.pi_draws.shape == (100, 3)
    assert np.all(res.pi_draws >= 0)
    assert np.allclose(res.pi_draws.sum(axis=1), 1.0, atol=1e-9)
    assert res.confusion_mean.shape == (2, 3, 3)
    assert np.allclose(res.confusion_mean.sum(axis=2), 1.0, atol=1e-9)
    assert res.domain_ids == tensor.domain_ids == ("m0", "m1")


def test_determinism_and_guards():
    tops = np.random.default_rng(5).choice(3, size=50)
    t = hard_tensor(tops, C=3)
    small = CalibConfig(iterations=100, burn_in=50, seed=9)
    labels = labels_first([0, 1, 2], 50)
    a = fit_calibration(t, labels, small)
    b = fit_calibration(t, labels, small)
    assert np.array_equal(a.pi_draws, b.pi_draws)
    c = fit_calibration(t, labels, CalibConfig(iterations=100, burn_in=50, seed=10))
    assert not np.array_equal(a.pi_draws, c.pi_draws)
    with pytest.raises(EmptyPredictions):
        fit_calibration(PredictionTensor(a=np.zeros((0, 3, 1)), death_ids=(), domain_ids=("m0",)),
                        None, small)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["none", "some", "all"]),
       st.permutations(range(40)))
def test_fit_calibration_is_invariant_to_row_order(seed, labeled, order):
    """Any row permutation of (predictions, labels) gives a byte-identical result."""
    rng = np.random.default_rng(seed)
    n, C, M = 40, 4, 2
    tops = rng.integers(0, C, size=(n, M))
    y = rng.integers(0, C, size=n)
    if labeled == "none":
        y[:] = UNLABELED
    elif labeled == "some":
        y[rng.random(n) < 0.4] = UNLABELED
    cfg = CalibConfig(iterations=40, burn_in=20, seed=seed % 1000)
    a = fit_calibration(hard_tensor(tops, C=C, M=M), y, cfg)
    b = fit_calibration(hard_tensor(tops[order], C=C, M=M), y[order], cfg)
    for got, want in ((b.pi_draws, a.pi_draws), (b.confusion_mean, a.confusion_mean)):
        assert got.tobytes() == want.tobytes()


def record_confusion_draws(monkeypatch):
    """(alpha, values) of every confusion draw `fit_calibration` makes."""
    calls = []

    def spy(rng, alpha):
        out = log_dirichlet(rng, alpha)
        if np.ndim(alpha) == 3:  # all (model, cause) rows at once; pi draws are 1-d
            calls.append((alpha, out[0]))
        return out

    monkeypatch.setattr(calibration, "log_dirichlet", spy)
    return calls


def record_walk_starts(monkeypatch):
    """Confusion-row concentration at the current gamma of every Metropolis step."""
    starts = []

    def spy(logx, alpha):
        starts.append(alpha[0])  # alpha stacks the current gamma's rows and the proposal's
        return log_dirichlet_pdf(logx, alpha)

    monkeypatch.setattr(calibration, "log_dirichlet_pdf", spy)
    return starts


@pytest.mark.parametrize("C, M, n, n_L, one_pattern", [
    (10, 1, 120, 40, False),
    (4, 2, 60, 60, False),     # n_L = n: no unlabeled deaths
    (4, 2, 60, None, False),   # no labels at all
    (2, 1, 40, 10, False),
    (2, 1, 40, 10, True),      # U = 1: every unlabeled death predicted alike
    (5, 3, 80, 20, False),
])
def test_tiny_prior_concentrations_keep_draws_finite_simplices(monkeypatch, C, M, n, n_L,
                                                               one_pattern):
    """epsilon 1e-6 and beta_rate 50 put gamma * epsilon near 1e-7."""
    rng = np.random.default_rng([C, M, n])
    y = rng.choice(C, size=n)
    tops = np.where(rng.random((n, M)) < 0.7, y[:, None], rng.choice(C, size=(n, M)))
    labels = None if n_L is None else labels_first(y[:n_L], n)
    if one_pattern:
        tops[n_L:] = tops[n_L]
    calls = record_confusion_draws(monkeypatch)
    cfg = CalibConfig(epsilon=1e-6, beta_rate=50.0, iterations=300, burn_in=150, seed=0)
    res = fit_calibration(hard_tensor(tops, C=C, M=M), labels, cfg)
    assert len(calls) == cfg.iterations + 1
    assert all(alpha.min() < 0.1 for alpha, _ in calls)  # log-space Gamma path
    assert res.pi_draws.shape == (cfg.iterations - cfg.burn_in, C)
    for rows in (res.pi_draws, res.confusion_mean):
        assert np.all(np.isfinite(rows)) and np.all(rows >= 0)
        assert np.allclose(rows.sum(axis=-1), 1.0, atol=1e-9)
    assert all(np.all(np.isfinite(alpha)) and np.all(alpha > 0) for alpha, _ in calls)


def record_pi_concentrations(monkeypatch):
    """Concentration of every pi draw `fit_calibration` makes (the 1-d ones)."""
    calls = []

    def spy(rng, alpha):
        if np.ndim(alpha) == 1:
            calls.append(np.array(alpha))
        return log_dirichlet(rng, alpha)

    monkeypatch.setattr(calibration, "log_dirichlet", spy)
    return calls


def all_pairs(C):
    """(C * C, 2) top predictions of two models, every pattern once."""
    return np.stack(np.meshgrid(np.arange(C), np.arange(C), indexing="ij"), axis=-1).reshape(-1, 2)


@pytest.mark.parametrize("tops, n_L, U", [
    (np.ones((50, 2), dtype=np.int64), 10, 1),                      # U = 1
    (np.concatenate([all_pairs(4)[::-1], all_pairs(4)]), 16, 16),  # U = n_u
    (np.random.default_rng(6).choice(4, size=(30, 2)), 30, 0),     # n_L = n
])
def test_latent_counts_sum_to_the_unlabeled_deaths(monkeypatch, tops, n_L, U):
    """Each iteration's pi concentration is 1 plus whole latent counts summing to n_u."""
    C, n_u = 4, len(tops) - n_L
    assert len(np.unique(tops[n_L:], axis=0)) == U
    calls = record_pi_concentrations(monkeypatch)
    cfg = CalibConfig(iterations=60, burn_in=30, seed=0)
    fit_calibration(hard_tensor(tops, C=C, M=2), labels_first(np.arange(n_L) % C, len(tops)), cfg)
    assert len(calls) == cfg.iterations + 1
    assert np.array_equal(calls[0], np.ones(C))  # the starting draw
    for alpha in calls[1:]:
        counts = alpha - 1.0
        assert np.all(counts >= 0) and np.array_equal(counts, np.round(counts))
        assert alpha.sum() == C + n_u


def misrouting(C):
    """Acceptance test 10's classifier: even causes mostly land on the next one."""
    R = np.full((C, C), 0.15 / (C - 2))
    for c in range(C):
        if c % 2 == 0:
            R[c, c] = 0.05
            R[c, (c + 1) % C] = 0.80
        else:
            R[c, c] = 0.55
            R[c, (c + 2) % C] = 0.30
        R[c] /= R[c].sum()
    return R


def routed_tensor(R, pi, n_L, n_U, seed):
    """Top predictions of models with confusion matrices R (M, C, C).

    The first n_L deaths are labeled with uniform causes, the rest follow pi.
    """
    rng = np.random.default_rng(seed)
    C = R.shape[1]
    y = np.concatenate([rng.choice(C, size=n_L), rng.choice(C, size=n_U, p=pi)])
    u = rng.random((y.shape[0], R.shape[0], 1))
    tops = np.minimum((u > np.cumsum(R[:, y], axis=2).transpose(1, 0, 2)).sum(axis=2), C - 1)
    return hard_tensor(tops, C=C, M=R.shape[0]), labels_first(y[:n_L], y.shape[0])


def calibration_cases():
    """Test 10's classifier at both rates (fewer deaths, so pi mixes within the
    run), three models at the lodo-small shape (C=10, 600 deaths, 120 labeled),
    and four noisy models whose unlabeled deaths nearly all have a prediction
    pattern of their own (153 patterns among 160 deaths)."""
    rng = np.random.default_rng(1000)
    mis = routed_tensor(misrouting(10)[None], rng.dirichlet(np.ones(10)), 100, 200, seed=0)
    R3 = 0.6 * np.eye(10) + 0.4 * rng.dirichlet(np.ones(10), size=(3, 10))
    three = routed_tensor(R3, rng.dirichlet(np.ones(10)), 120, 480, seed=1)
    rng = np.random.default_rng(1001)
    R4 = 0.3 * np.eye(8) + 0.7 * rng.dirichlet(np.ones(8), size=(4, 8))
    distinct = routed_tensor(R4, rng.dirichlet(np.ones(8)), 80, 160, seed=2)
    assert len(np.unique(distinct[0].top()[80:], axis=0)) == 153
    return [
        pytest.param(*mis, CalibConfig(beta_rate=0.5, iterations=4000, burn_in=400),
                     id="misrouting-rate-0.5"),
        pytest.param(*mis, CalibConfig(beta_rate=50.0, iterations=4000, burn_in=400),
                     id="misrouting-rate-50"),
        pytest.param(*three, CalibConfig(iterations=4000, burn_in=400), id="three-models"),
        pytest.param(*distinct, CalibConfig(iterations=4000, burn_in=400),
                     id="distinct-patterns"),
    ]


@pytest.mark.parametrize("tensor, labels, cfg", calibration_cases())
def test_kernel_matches_per_pair_reference_within_monte_carlo_error(
        monkeypatch, tensor, labels, cfg):
    """pi, gamma and confusion means agree with the per-(model, cause) kernel.

    |z| < 4 with batch-means standard errors; each kernel on its own seed.
    The kept gamma and confusion draws of `fit_calibration` come from the
    arguments of its confusion draws: row sums of alpha are gamma (1 + C eps)
    plus the labeled count of the row's cause. Each confusion draw must be
    made exactly at the gamma the next Metropolis step starts from, the
    gamma its iteration keeps; drawing at the gamma before the Metropolis
    step moves the posterior too little for the z-scores to see.
    """
    calls = record_confusion_draws(monkeypatch)
    starts = record_walk_starts(monkeypatch)
    res = fit_calibration(tensor, labels, replace(cfg, seed=0))
    ref, ref_gamma, ref_conf = fit_calibration_reference(tensor, labels, replace(cfg, seed=1))

    kept = calls[1 + cfg.burn_in:]  # the first draw precedes the first iteration
    n_c = np.bincount(labels[labels != UNLABELED], minlength=tensor.C)
    gamma = np.array([(alpha.sum(axis=-1) - n_c) / (1.0 + tensor.C * cfg.epsilon)
                      for alpha, _ in kept])
    conf = np.array([values for _, values in kept])
    assert np.allclose(conf.mean(axis=0), res.confusion_mean, rtol=0, atol=1e-12)
    assert len(starts) == cfg.iterations
    assert all(np.array_equal(alpha, start) for (alpha, _), start in zip(calls, starts))

    worst = {}
    for what, got, want, got_draws, want_draws in (
        ("pi", res.pi_mean(), ref.pi_mean(), res.pi_draws, ref.pi_draws),
        ("gamma", gamma.mean(axis=0), ref_gamma.mean(axis=0), gamma, ref_gamma),
        ("confusion", res.confusion_mean, ref.confusion_mean, conf, ref_conf),
    ):
        se = np.sqrt(batch_se(got_draws) ** 2 + batch_se(want_draws) ** 2)
        worst[what] = float(np.max(np.abs(got - want) / se))
    assert max(worst.values()) < 4.0, f"worst z {worst}"


def single_model_source(seed=0, causes=(0, 1, 2)):
    rng = np.random.default_rng(seed)
    theta = np.array([
        [0.9, 0.8, 0.1, 0.2],
        [0.1, 0.2, 0.8, 0.7],
        [0.5, 0.1, 0.1, 0.9],
    ])
    y = np.asarray([causes[i % len(causes)] for i in range(60)], dtype=np.int32)
    x = (rng.random((60, 4)) < theta[y]).astype(np.uint8)
    s = train_lcm(make_dataset("solo", x, y), LcmHyper(K=2),
                  GibbsConfig(iterations=150, burn_in=75, thin=1, seed=seed))
    y_t = np.tile([0, 1, 2], 8).astype(np.int32)
    x_t = (rng.random((24, 4)) < theta[y_t]).astype(np.uint8)
    return s, make_dataset("target", x_t, y_t)


def test_build_predictions_single_model_delegates_to_classifier():
    source, target = single_model_source()
    cfg = EnsembleConfig(variant="plain", chains=2, iterations=600, burn_in=300, seed=3)
    tensor = build_predictions(build_phi([source], target), cfg)
    assert tensor.death_ids == target.death_ids and tensor.domain_ids == ("solo",)
    phi = PhiTensor(
        log_phi=cond_loglik_matrix(source, target.x)[:, :, None],
        present=np.ones((3, 1), dtype=np.uint8),
        death_ids=target.death_ids,
        domain_ids=("solo",),
    )
    probs = classify(phi, fit_global(phi, None, cfg)).probs
    assert np.array_equal(tensor.a[:, :, 0], probs)


def test_build_predictions_absent_cause_gets_zero():
    source, target = single_model_source(seed=1, causes=(0, 1))
    cfg = EnsembleConfig(variant="plain", chains=2, iterations=150, burn_in=75, seed=0)
    tensor = build_predictions(build_phi([source], target), cfg)
    assert np.all(tensor.a[:, 2, 0] == 0.0)
    assert np.allclose(tensor.a.sum(axis=1), 1.0, atol=1e-9)


def test_build_predictions_keeps_target_order():
    source, target = single_model_source()
    labeled = [1, 4, 5, 9, 17]
    y = np.full(target.n, UNLABELED, dtype=np.int32)
    y[labeled] = target.y[labeled]
    mixed = make_dataset("target", target.x, y, ids=target.death_ids)
    cfg = EnsembleConfig(variant="plain", chains=2, iterations=300, burn_in=150, seed=0)
    tensor = build_predictions(build_phi([source], mixed), cfg)
    assert tensor.death_ids == mixed.death_ids
    # labels are not read: the same fit as on the target without them
    bare = mixed.without_labels()
    again = build_predictions(build_phi([source], bare), cfg)
    assert again.death_ids == tensor.death_ids and np.array_equal(again.a, tensor.a)


def test_build_predictions_empty_target():
    source, target = single_model_source()
    empty = target.subset(np.array([], dtype=np.int64))
    cfg = EnsembleConfig(variant="plain", chains=2, iterations=100, burn_in=50, seed=0)
    tensor = build_predictions(build_phi([source], empty), cfg)
    assert tensor.n == 0 and tensor.C == 3 and tensor.M == 1
    assert tensor.domain_ids == ("solo",)
