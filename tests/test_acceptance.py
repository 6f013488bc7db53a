"""End-to-end acceptance checks, one test per shipped guarantee.

Each test states its tolerance and runtime budget inline. Seeds are pinned,
so every statistical bound below was verified to hold with margin for the
committed inputs and will reproduce bit-identically.
"""
import json
import os
import time

import numpy as np
import pytest
import yaml

from fedva.calibration import CalibConfig, PredictionTensor, fit_calibration
from fedva.config import config_from_dict
from fedva.data import (
    UNLABELED,
    CauseList,
    Dataset,
    SymptomDictionary,
    load_cause_list,
    load_dataset,
    load_symptom_dictionary,
    write_dataset,
)
from fedva.ensemble import (
    EnsembleConfig,
    PhiTensor,
    adjust_csmf,
    build_phi,
    fit_global,
    marginal_loglik,
    run_variant,
)
from fedva.lcm import GibbsConfig, LcmHyper, train_lcm
from fedva.lodo import run_lodo
from fedva.metrics import balanced_accuracy, csmf_accuracy, top_cause_accuracy
from fedva.scenarios import make_scenario
from fedva.simulate import GeneratorSpec, simulate
from fedva.utils import largest_remainder_counts, round_half_up

from conftest import make_dataset
from oracles import enumerate_mass

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def random_training_set(rng, C, p, n, missing=0.1, domain_id="dom"):
    causes = tuple(f"c{i}" for i in range(C))
    symptoms = tuple(f"s{j}" for j in range(p))
    theta = rng.uniform(0.1, 0.9, size=(C, p))
    y = (np.arange(n) % C).astype(np.int32)
    x = (rng.random((n, p)) < theta[y]).astype(np.uint8)
    if missing:
        x[rng.random((n, p)) < missing] = 2
    return Dataset(domain_id, tuple(f"d{i}" for i in range(n)), x, y,
                   CauseList(causes), SymptomDictionary(symptoms))


def test_01_summary_likelihood_sums_to_one_over_all_symptom_vectors():
    """50 randomized trained summaries, p <= 10: total mass 1 within 1e-8."""
    started = time.monotonic()
    worst = 0.0
    for i in range(50):
        rng = np.random.default_rng(1000 + i)
        C = 2 + i % 2
        K = 1 + i % 3
        p = 1 + i % 10
        n = 24 + 3 * (i % 4)
        ds = random_training_set(rng, C, p, n)
        hyper = LcmHyper(K=K, sparse=(i % 5 == 0))
        s = train_lcm(ds, hyper, GibbsConfig(iterations=60, burn_in=30, thin=1, seed=i))
        for c in range(C):
            worst = max(worst, abs(enumerate_mass(s, c) - 1.0))
    elapsed = time.monotonic() - started
    assert worst < 1e-8, f"worst |mass - 1| = {worst:.3e}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_02_single_class_training_matches_conjugate_beta_posterior():
    """K=1: every theta cell within 3 exact MC standard errors, 20 instances."""
    started = time.monotonic()
    worst_z = 0.0
    for i in range(20):
        rng = np.random.default_rng(3000 + i)
        C = 2 + i % 2
        p = 3 + i % 3
        n = 21 + i % 10
        ds = random_training_set(rng, C, p, n, missing=0.15)
        cfg = GibbsConfig(iterations=700, burn_in=200, thin=1, seed=i)
        s = train_lcm(ds, LcmHyper(K=1), cfg)
        draws = cfg.iterations - cfg.burn_in
        assert np.array_equal(s.nu_bar, np.ones((C, 1)))
        for c in range(C):
            rows = ds.x[ds.y == c]
            for j in range(p):
                col = rows[:, j]
                yes = int(np.sum(col == 1))
                no = int(np.sum(col == 0))
                a, b = 1.0 + yes, 1.0 + no
                mean = a / (a + b)
                sd = np.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))
                z = abs(s.theta_bar[c, 0, j] - mean) / (sd / np.sqrt(draws))
                worst_z = max(worst_z, z)
    elapsed = time.monotonic() - started
    assert worst_z < 3.0, f"worst standardized error {worst_z:.2f}"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"


def _simplex_grid(C, g):
    if C == 2:
        i = np.arange(g + 1)
        return np.stack([i, g - i], axis=1) / g
    pts = [(i, j, g - i - j) for i in range(g + 1) for j in range(g + 1 - i)]
    return np.asarray(pts, dtype=float) / g


def _quad_pi_mean(phi, g_pi, g_lam):
    """Posterior mean of pi by lattice quadrature over (pi, lambda)."""
    n, C, M = phi.log_phi.shape
    Phi = np.exp(phi.log_phi)
    pis = _simplex_grid(C, g_pi)
    if M == 1:
        ll = np.log(Phi[:, :, 0] @ pis.T).sum(axis=0)
        w = np.exp(ll - ll.max())
        return (w @ pis) / w.sum()
    v = np.arange(g_lam + 1) / g_lam
    B = [Phi[:, c, 0][:, None] * v + Phi[:, c, 1][:, None] * (1 - v) for c in range(C)]
    combos = np.stack(
        np.meshgrid(*[np.arange(g_lam + 1)] * C, indexing="ij"), -1
    ).reshape(-1, C)
    best = -np.inf
    total_w = 0.0
    total_mean = np.zeros(C)
    for row in combos:
        Bmat = np.stack([B[c][:, row[c]] for c in range(C)], axis=1)
        ll = np.log(Bmat @ pis.T).sum(axis=0)
        m = float(ll.max())
        if m > best:
            scale = np.exp(best - m) if np.isfinite(best) else 0.0
            total_w *= scale
            total_mean *= scale
            best = m
        w = np.exp(ll - best)
        total_w += w.sum()
        total_mean += w @ pis
    return total_mean / total_w


def _check_quad_grid_matches_marginal_loglik(phi, g_lam, rng):
    """The fast lattice evaluation must agree with marginal_loglik pointwise."""
    n, C, M = phi.log_phi.shape
    Phi = np.exp(phi.log_phi)
    v = np.arange(g_lam + 1) / g_lam
    for _ in range(8):
        pi = rng.dirichlet(np.ones(C))
        if M == 1:
            lam = np.ones((C, 1))
            fast = float(np.log(Phi[:, :, 0] @ pi).sum())
        else:
            iv = rng.integers(0, g_lam + 1, size=C)
            lam = np.stack([np.array([v[k], 1 - v[k]]) for k in iv])
            Bmat = np.stack([Phi[:, c, 0] * lam[c, 0] + Phi[:, c, 1] * lam[c, 1]
                             for c in range(C)], axis=1)
            fast = float(np.log(Bmat @ pi).sum())
        direct = marginal_loglik(phi, pi, lam)
        assert abs(fast - direct) < 1e-8


def test_03_global_sampler_matches_grid_quadrature():
    """10 instances (n<=50, C<=3, M<=2): |E[pi] - quadrature| <= 0.02/coord."""
    started = time.monotonic()
    instances = []
    rng = np.random.default_rng(12345)
    for inst in range(6):
        C = int(rng.integers(2, 4))
        M = 1 if inst < 3 else 2
        n = int(rng.integers(20, 51))
        log_phi = np.log(rng.uniform(0.02, 1.0, size=(n, C, M)))
        instances.append((inst, log_phi))
    for seed in (101, 102, 103, 104):
        r = np.random.default_rng(seed)
        instances.append((seed, np.log(r.uniform(0.02, 1.0, size=(30, 3, 2)))))
    assert len(instances) == 10

    checked = {1: False, 2: False}
    worst = 0.0
    for seed, log_phi in instances:
        n, C, M = log_phi.shape
        phi = PhiTensor(log_phi=log_phi, present=np.ones((C, M), dtype=np.uint8),
                        death_ids=tuple(f"d{i}" for i in range(n)),
                        domain_ids=tuple(f"m{j}" for j in range(M)))
        cfg = EnsembleConfig(variant="plain", chains=4, iterations=16000,
                             burn_in=8000, seed=seed)
        post = fit_global(phi, None, cfg, workers=4)
        if not checked[M]:
            _check_quad_grid_matches_marginal_loglik(
                phi, 24, np.random.default_rng(seed + 7)
            )
            checked[M] = True
        g_pi = 200 if M == 1 else (80 if C == 2 else 60)
        g_lam = 40 if C == 2 else 24
        quad = _quad_pi_mean(phi, g_pi, g_lam)
        err = float(np.abs(post.pi_mean() - quad).max())
        worst = max(worst, err)
        assert err <= 0.02, f"instance seed={seed} C={C} M={M}: error {err:.4f}"
    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"took {elapsed:.1f}s (worst error {worst:.4f})"


def _batch_se(draws, n_batches=40):
    """Batch-means standard error, tolerant of autocorrelation."""
    draws = np.asarray(draws, dtype=np.float64)
    usable = (len(draws) // n_batches) * n_batches
    batches = draws[:usable].reshape(n_batches, -1, *draws.shape[1:]).mean(axis=1)
    return batches.std(axis=0, ddof=1) / np.sqrt(n_batches)


def test_04_single_summary_ensemble_reduces_to_semi_supervised_model():
    """M=1 partial fit equals an independently coded reference sampler."""
    started = time.monotonic()
    theta = np.array([
        [0.9, 0.8, 0.1, 0.2],
        [0.1, 0.2, 0.8, 0.7],
        [0.5, 0.1, 0.1, 0.9],
    ])
    rng = np.random.default_rng(77)
    y_tr = (np.arange(90) % 3).astype(np.int32)
    x_tr = (rng.random((90, 4)) < theta[y_tr]).astype(np.uint8)
    summary = train_lcm(make_dataset("solo", x_tr, y_tr), LcmHyper(K=2),
                        GibbsConfig(iterations=600, burn_in=300, thin=1, seed=7))

    y_t = (np.arange(40) % 3).astype(np.int32)
    x_t = (rng.random((40, 4)) < theta[y_t]).astype(np.uint8)
    n_L = 12
    masked_y = y_t.copy()
    masked_y[n_L:] = UNLABELED
    target = make_dataset("target", x_t, masked_y)

    cfg = EnsembleConfig(variant="partial", tie_pi=True, chains=4,
                         iterations=8000, burn_in=4000, seed=11)
    post, cls, _ = run_variant(target, build_phi([summary], target), cfg, workers=4)
    pkg_pi = post.pi_mean()
    pkg_pred = cls.probs[n_L:].mean(axis=0)
    pkg_pi_se = _batch_se(post.pi_draws)

    # Reference: direct data augmentation on the same likelihood matrix,
    # written against the generative story rather than the package sampler.
    g = np.exp(build_phi([summary], target).log_phi[:, :, 0])
    lab_counts = np.bincount(y_t[:n_L], minlength=3).astype(np.float64)
    ref = np.random.default_rng(99)
    pi = np.full(3, 1 / 3)
    T, burn = 40000, 4000
    pi_draws = np.empty((T - burn, 3))
    pred_draws = np.empty((T - burn, 3))
    g_u = g[n_L:]
    for it in range(T):
        w = g_u * pi
        w /= w.sum(axis=1, keepdims=True)
        u = ref.random(w.shape[0])
        draws_y = (w.cumsum(axis=1) > u[:, None]).argmax(axis=1)
        counts = lab_counts + np.bincount(draws_y, minlength=3)
        pi = ref.dirichlet(1.0 + counts)
        if it >= burn:
            pi_draws[it - burn] = pi
            pred_draws[it - burn] = w.mean(axis=0)
    ref_pi = pi_draws.mean(axis=0)
    ref_pred = pred_draws.mean(axis=0)

    se_pi = np.sqrt(pkg_pi_se**2 + _batch_se(pi_draws) ** 2)
    per_draw_pred = post.pi_draws[:, None, :] * g_u[None, :, :]
    per_draw_pred /= per_draw_pred.sum(axis=2, keepdims=True)
    pkg_pred_se = _batch_se(per_draw_pred.mean(axis=1))
    se_pred = np.sqrt(pkg_pred_se**2 + _batch_se(pred_draws) ** 2)

    z_pi = np.abs(pkg_pi - ref_pi) / se_pi
    z_pred = np.abs(pkg_pred - ref_pred) / se_pred
    elapsed = time.monotonic() - started
    assert z_pi.max() < 3.0, f"pi z-scores {np.round(z_pi, 2)}"
    assert z_pred.max() < 3.0, f"predictive z-scores {np.round(z_pred, 2)}"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"


PI_T = (0.5, 0.3, 0.2)
LAM = ((0.7, 0.2, 0.1), (0.2, 0.6, 0.2), (0.1, 0.3, 0.6))
PI_D = ((0.4, 0.35, 0.25), (0.3, 0.4, 0.3), (0.25, 0.3, 0.45))


def test_05_recovers_known_prevalence_and_domain_weights_from_synthetic_data():
    """Median CSMF accuracy >= 0.90 over 10 seeds; every lambda entry within 0.15."""
    started = time.monotonic()
    accs = []
    lam_errs = []
    for seed in range(10):
        spec = GeneratorSpec(C=3, K=2, p=20, M=3, n_domain=2000, n_target=1000,
                             seed=seed, pi_target=np.asarray(PI_T),
                             pi_domains=np.asarray(PI_D), lambda_mix=np.asarray(LAM))
        sim = simulate(spec)
        gc = GibbsConfig(iterations=1500, burn_in=750, thin=1, seed=seed)
        summaries = [train_lcm(d, LcmHyper(K=4), gc) for d in sim.domains]
        cfg = EnsembleConfig(variant="plain", chains=4, iterations=800,
                             burn_in=400, seed=seed)
        target = sim.target.without_labels()
        post, _, csmf = run_variant(target, build_phi(summaries, target), cfg, workers=4)
        accs.append(csmf_accuracy(csmf, np.asarray(PI_T)))
        lam_errs.append(float(np.abs(post.lambda_mean() - np.asarray(LAM)).max()))
    elapsed = time.monotonic() - started
    assert float(np.median(accs)) >= 0.90, f"median csmf accuracy {np.median(accs):.4f}"
    assert max(lam_errs) <= 0.15, f"worst lambda error {max(lam_errs):.4f}"
    assert elapsed < 900.0, f"took {elapsed:.1f}s"


def test_06_ensemble_beats_best_single_local_model_in_most_seeds():
    """bfl-domain >= best local constituent on both metrics in >= 8/10 seeds."""
    started = time.monotonic()
    sim = simulate(GeneratorSpec(C=3, K=2, p=16, M=3, n_domain=1500, n_target=10,
                                 seed=42))
    report = run_lodo(sim.domains, config_from_dict({
        "base_model": {"K": 3},
        "gibbs": {"iterations": 800, "burn_in": 400, "thin": 1, "seed": 0},
        "ensemble": {"chains": 2, "iterations": 600, "burn_in": 300},
        "scenario": {"kind": "random_sample", "label_fraction": 0.2},
        "methods": ["bfl-domain", "local-avg"],
        "seeds": list(range(10)),
        "workers": 8,
    }))
    assert not report.skipped
    rows = report.rows

    def fold_median(method, seed, field):
        vals = [getattr(r, field) for r in rows if r.method == method and r.seed == seed]
        return float(np.median(vals))

    singles = sorted({r.method for r in rows if r.method.startswith("local-one:")})
    wins = 0
    for seed in range(10):
        bd_c = fold_median("bfl-domain", seed, "csmf_acc")
        bd_t = fold_median("bfl-domain", seed, "top_acc")
        best_c = max(fold_median(m, seed, "csmf_acc") for m in singles)
        best_t = max(fold_median(m, seed, "top_acc") for m in singles)
        wins += (bd_c >= best_c) and (bd_t >= best_t)
    elapsed = time.monotonic() - started
    assert wins >= 8, f"ensemble won {wins}/10 seeds"
    assert elapsed < 1200.0, f"took {elapsed:.1f}s"


def test_07_metrics_reproduce_hand_computed_values_and_uniform_equivalence():
    tol = 1e-12
    t = np.array([0.6, 0.3, 0.1])
    assert abs(csmf_accuracy(t, t) - 1.0) <= tol
    assert abs(csmf_accuracy(np.array([0.3, 0.6, 0.1]), t) - (1 - 0.6 / 1.8)) <= tol
    assert abs(csmf_accuracy(np.array([0.0, 1.0]), np.array([1.0, 0.0]))) <= tol
    v = np.array([0, 1, 2, 0])
    assert top_cause_accuracy(v, v) == 1.0
    assert top_cause_accuracy(v, (v + 1) % 3) == 0.0
    assert abs(top_cause_accuracy(np.array([0, 1, 2, 0]), np.array([0, 1, 2, 1])) - 0.75) <= tol
    pred = np.array([0, 0, 1, 0])
    truth = np.array([0, 0, 1, 1])
    assert abs(balanced_accuracy(pred, truth, 2) - 0.75) <= tol
    assert balanced_accuracy(v, v, 4) == 1.0

    rng = np.random.default_rng(777)
    truth_uniform = np.repeat([0, 1, 2], 20)
    for _ in range(100):
        pred = rng.integers(0, 3, size=60)
        assert balanced_accuracy(pred, truth_uniform, 3) == top_cause_accuracy(pred, truth_uniform)


def test_08_heldout_label_adjustment_is_exact_and_stays_on_the_simplex():
    out = adjust_csmf(np.array([0.5, 0.5]), 100, np.array([10, 10]))
    assert out.tolist() == [0.5, 0.5]
    out = adjust_csmf(np.array([1.0, 0.0]), 100, np.array([0, 20]))
    assert out.tolist() == [0.8, 0.2]
    rng = np.random.default_rng(5)
    for _ in range(50):
        C = int(rng.integers(2, 6))
        pi = rng.dirichlet(np.ones(C))
        n0 = int(rng.integers(10, 500))
        counts = rng.multinomial(int(rng.integers(0, n0 + 1)), rng.dirichlet(np.ones(C)))
        adj = adjust_csmf(pi, n0, counts)
        assert abs(adj.sum() - 1.0) < 1e-12
        assert np.all(adj >= 0)


def test_09_scenario_generators_hit_exact_sizes_counts_and_are_deterministic():
    rng = np.random.default_rng(31)
    for n, f in ((25, 0.2), (40, 0.37), (73, 0.5)):
        y = (np.arange(n) % 3).astype(np.int32)
        x = rng.integers(0, 2, size=(n, 4)).astype(np.uint8)
        t = make_dataset("tgt", x, y)

        r = make_scenario(t, "random_sample", seed=1, label_fraction=f)
        n_lab = int(np.sum(r.dataset.y != UNLABELED))
        assert n_lab == int(np.ceil(f * n))
        again = make_scenario(t, "random_sample", seed=1, label_fraction=f)
        assert np.array_equal(r.dataset.y, again.dataset.y)

        m = make_scenario(t, "mild_shift", seed=2)
        pi_tilde, pi_gen = m.scenario.realized_pi_pair
        n_l = round_half_up(0.2 * n)
        n_u = round_half_up(0.8 * n)
        lab_counts = np.bincount(m.dataset.y[:n_l], minlength=3)
        assert np.array_equal(lab_counts, largest_remainder_counts(pi_tilde, n_l))
        assert np.max(np.abs(lab_counts - pi_tilde * n_l)) < 1.0
        unl_counts = np.bincount(m.truth.unlabeled_y, minlength=3)
        assert np.max(np.abs(unl_counts - pi_gen * n_u)) < 1.0

        s = make_scenario(t, "severe_shift", seed=3)
        for c in range(3):
            pool = np.flatnonzero(t.y == c)
            want = round_half_up(float(s.scenario.realized_q[c]) * pool.shape[0])
            assert int(np.sum(s.dataset.y[pool] == c)) == want
        again = make_scenario(t, "severe_shift", seed=3)
        assert np.array_equal(s.dataset.y, again.dataset.y)


def _calibration_arm(C, R, pi, n_L, n_U, seed, iters=3000):
    rng = np.random.default_rng([seed, C])
    y_l = rng.choice(C, size=n_L, p=np.full(C, 1.0 / C))
    y_u = rng.choice(C, size=n_U, p=pi)
    y = np.concatenate([y_l, y_u])
    preds = np.zeros((n_L + n_U, C, 1))
    tops = np.array([rng.choice(C, p=R[c]) for c in y])
    preds[np.arange(n_L + n_U), tops, 0] = 1.0
    a = PredictionTensor(a=preds, death_ids=tuple(f"d{i}" for i in range(n_L + n_U)),
                         domain_ids=("m0",))
    labels = np.where(np.arange(n_L + n_U) < n_L, y, UNLABELED)  # the first n_L deaths
    errs = {}
    for rate in (0.5, 50.0):
        cfg = CalibConfig(beta_rate=rate, iterations=iters, burn_in=iters // 2, seed=seed)
        errs[rate] = float(np.abs(fit_calibration(a, labels, cfg).pi_mean() - pi).sum())
    return errs


def test_10_shrinkage_helps_many_causes_and_hurts_well_calibrated_few():
    """Identity shrinkage wins at C=10 with a misrouting classifier and
    loses (or ties) at C=3 with a near-identity classifier; medians, 10 seeds."""
    started = time.monotonic()

    def misrouting(C):
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

    strong = []
    for seed in range(10):
        pi = np.random.default_rng(seed + 1000).dirichlet(np.full(10, 1.0))
        e = _calibration_arm(10, misrouting(10), pi, n_L=500, n_U=2000, seed=seed)
        strong.append((e[50.0], e[0.5]))
    strong = np.array(strong)
    assert np.median(strong[:, 0]) < np.median(strong[:, 1]), (
        f"C=10: rate-50 median {np.median(strong[:, 0]):.4f} "
        f"vs rate-0.5 median {np.median(strong[:, 1]):.4f}"
    )

    near_identity = np.full((3, 3), 0.05)
    np.fill_diagonal(near_identity, 0.9)
    weak = []
    for seed in range(10):
        pi = np.random.default_rng(seed + 2000).dirichlet(np.full(3, 1.0))
        e = _calibration_arm(3, near_identity, pi, n_L=100, n_U=2000, seed=seed)
        weak.append((e[0.5], e[50.0]))
    weak = np.array(weak)
    assert np.median(weak[:, 0]) <= np.median(weak[:, 1]) + 1e-12, (
        f"C=3: rate-0.5 median {np.median(weak[:, 0]):.4f} "
        f"vs rate-50 median {np.median(weak[:, 1]):.4f}"
    )
    elapsed = time.monotonic() - started
    assert elapsed < 900.0, f"took {elapsed:.1f}s"


def _cli(*argv):
    from fedva.cli import main

    assert main([str(a) for a in argv]) == 0


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _walk_files(root):
    out = []
    for base, _, files in os.walk(root):
        for f in files:
            out.append(os.path.relpath(os.path.join(base, f), root))
    return sorted(out)


def _assert_same_dir(a, b, mask_runtime=False):
    names_a = _walk_files(a)
    assert names_a == _walk_files(b)
    for name in names_a:
        da, db = _read(os.path.join(a, name)), _read(os.path.join(b, name))
        if mask_runtime and name == "lodo_results.csv":
            da, db = (_mask_runtime_column(d) for d in (da, db))
        elif mask_runtime and name == "lodo_manifest.json":
            da, db = (_drop_results_checksum(d) for d in (da, db))
        assert da == db, f"{name} differs between {a} and {b}"


def _mask_runtime_column(blob: bytes) -> bytes:
    lines = blob.decode("utf-8").strip().split("\n")
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[-1] = "X"
        out.append(",".join(cells))
    return "\n".join(out).encode("utf-8")


def _drop_results_checksum(blob: bytes) -> bytes:
    doc = json.loads(blob)
    doc["outputs"].pop("lodo_results.csv", None)
    return json.dumps(doc, sort_keys=True).encode("utf-8")


def test_11_every_command_is_byte_identical_across_reruns_and_worker_counts(tmp_path):
    """Wall-clock runtimes in experiment CSVs are the single sanctioned
    exception; everything else must match to the byte, workers 1 vs 8."""
    sim_dir = tmp_path / "sim"
    sim_cfg = tmp_path / "sim.yaml"
    sim_cfg.write_text(yaml.safe_dump({
        "paths": {"out": str(sim_dir)},
        "generator": {"C": 3, "K": 1, "p": 5, "M": 2,
                      "n_domain": 50, "n_target": 24, "seed": 2},
    }))
    _cli("simulate", "--config", sim_cfg)
    _cli("simulate", "--config", sim_cfg, "--out", tmp_path / "sim2")
    _assert_same_dir(sim_dir, tmp_path / "sim2")

    cl = load_cause_list(sim_dir / "cause_list.txt")
    sd = load_symptom_dictionary(sim_dir / "symptom_dict.txt")
    target = load_dataset(sim_dir / "target.csv", cl, sd, domain_id="target")
    y = target.y.copy()
    y[10:] = UNLABELED
    write_dataset(Dataset("target", target.death_ids, target.x, y, cl, sd),
                  tmp_path / "target_partial.csv")

    cfg = {
        "paths": {
            "cause_list": str(sim_dir / "cause_list.txt"),
            "symptom_dict": str(sim_dir / "symptom_dict.txt"),
            "datasets": {
                "domain_1": str(sim_dir / "domain_1.csv"),
                "domain_2": str(sim_dir / "domain_2.csv"),
                "target": str(tmp_path / "target_partial.csv"),
            },
            "summaries": str(tmp_path / "summaries"),
            "out": str(tmp_path / "out"),
        },
        "target": "target",
        "base_model": {"K": 1},
        "gibbs": {"iterations": 100, "burn_in": 50, "seed": 3},
        "ensemble": {"chains": 2, "iterations": 160, "burn_in": 80, "seed": 4},
        "calibration": {"iterations": 120, "burn_in": 60, "seed": 5},
        "scenario": {"kind": "random_sample", "label_fraction": 0.4},
        "seeds": [0],
        "methods": ["bfl-plain", "calib-50"],
        "workers": 1,
    }
    run_yaml = tmp_path / "run.yaml"
    run_yaml.write_text(yaml.safe_dump(cfg))
    lodo_cfg = dict(cfg, paths=dict(cfg["paths"]))
    lodo_cfg["paths"]["datasets"] = {
        k: v for k, v in cfg["paths"]["datasets"].items() if k != "target"
    }
    lodo_yaml = tmp_path / "lodo.yaml"
    lodo_yaml.write_text(yaml.safe_dump(lodo_cfg))

    _cli("train", "--config", run_yaml, "--domain", "domain_2", "--out", tmp_path)
    _cli("train", "--config", run_yaml, "--domain", "domain_1", "--out", tmp_path / "t1")
    _cli("train", "--config", run_yaml, "--domain", "domain_1", "--out", tmp_path / "t2")
    _assert_same_dir(tmp_path / "t1", tmp_path / "t2")
    os.replace(tmp_path / "t1" / "summaries" / "domain_1.summary.json",
               tmp_path / "summaries" / "domain_1.summary.json")

    for cmd, extra in (("ensemble", ()), ("classify", ("--variant", "domain")),
                       ("calibrate", ())):
        a, b, w8 = (tmp_path / f"{cmd}_{tag}" for tag in ("a", "b", "w8"))
        _cli(cmd, "--config", run_yaml, "--out", a, *extra)
        _cli(cmd, "--config", run_yaml, "--out", b, *extra)
        _cli(cmd, "--config", run_yaml, "--out", w8, "--workers", 8, *extra)
        _assert_same_dir(a, b)
        _assert_same_dir(a, w8)

    la, lb, lw8 = (tmp_path / f"lodo_{tag}" for tag in ("a", "b", "w8"))
    _cli("lodo", "--config", lodo_yaml, "--out", la)
    _cli("lodo", "--config", lodo_yaml, "--out", lb)
    _cli("lodo", "--config", lodo_yaml, "--out", lw8, "--workers", 8)
    _assert_same_dir(la, lb, mask_runtime=True)
    _assert_same_dir(la, lw8, mask_runtime=True)

    ra, rb = tmp_path / "rep_a", tmp_path / "rep_b"
    _cli("report", la / "lodo_results.csv", "--out", ra)
    _cli("report", la / "lodo_results.csv", "--out", rb)
    _assert_same_dir(ra, rb)
    assert _read(ra / "lodo_summary.txt") == _read(la / "lodo_summary.txt")

    ea, eb = tmp_path / "exp_a", tmp_path / "exp_b"
    src = tmp_path / "summaries" / "domain_1.summary.json"
    _cli("export", "--config", run_yaml, "--summary", src, "--out", ea)
    _cli("export", "--config", run_yaml, "--summary", src, "--out", eb)
    _assert_same_dir(ea, eb)
    assert _read(ea / "domain_1.summary.json") == _read(src)
