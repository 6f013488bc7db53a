import dataclasses
import hashlib
import math
import pickle
import warnings
from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import batch_se, labels_first, make_dataset
from fedva.calibration import CalibConfig, PredictionTensor, fit_calibration
from fedva.data import UNLABELED, CauseList
from fedva.ensemble import (
    Classification,
    EnsembleConfig,
    GlobalPosterior,
    LambdaPrior,
    PhiTensor,
    adjust_csmf,
    build_phi,
    classify,
    fit_global,
    fit_single_model,
    local_rows,
    marginal_loglik,
    _draw_cells,
    _run_chain,
    _split_deaths,
    _start_chain,
    run_variant,
    split_rhat,
)
from fedva.errors import (
    CountOverflow,
    DimensionMismatch,
    DuplicateDomainId,
    FedvaError,
    IncompletePhi,
    InsufficientLocalLabels,
    InvalidHyper,
    InvalidLabels,
    LocalModelMismatch,
    NotASimplex,
)
from fedva.lcm import GibbsConfig, LcmHyper, cond_loglik_matrix, train_lcm, train_local
from fedva.reports import posterior_text
from fedva.utils import derive_rng, gumbel_argmax, log_dirichlet, parallel_map
from oracles import classify_reference, draw_cells_reference, fit_reference, log_posterior


def phi_of(log_phi, present=None):
    log_phi = np.asarray(log_phi, dtype=np.float64)
    n, C, M = log_phi.shape
    if present is None:
        present = np.ones((C, M), dtype=np.int8)
    return PhiTensor(log_phi=log_phi, present=present,
                     death_ids=tuple(f"d{i}" for i in range(n)),
                     domain_ids=tuple(f"m{j}" for j in range(M)))


def bernoulli_phi(n_yes, n_no, p_yes=(0.9, 0.1)):
    """C=2, M=1 tensor for a single Yes/No symptom."""
    rows = [[[math.log(p_yes[0])], [math.log(p_yes[1])]]] * n_yes
    rows += [[[math.log(1 - p_yes[0])], [math.log(1 - p_yes[1])]]] * n_no
    return phi_of(rows)


FAST = EnsembleConfig(variant="plain", chains=2, iterations=400, burn_in=200, seed=0)


def test_adjust_csmf_examples():
    out = adjust_csmf(np.array([0.5, 0.5]), 100, np.array([10, 10]))
    assert np.allclose(out, [0.5, 0.5], atol=1e-15)
    same = adjust_csmf(np.array([0.3, 0.7]), 50, np.array([0, 0]))
    assert np.allclose(same, [0.3, 0.7], atol=1e-15)
    out2 = adjust_csmf(np.array([1.0, 0.0]), 100, np.array([0, 20]))
    assert np.allclose(out2, [0.8, 0.2], atol=1e-15)
    assert out2.sum() == pytest.approx(1.0, abs=1e-12)


def test_adjust_csmf_guards():
    with pytest.raises(CountOverflow):
        adjust_csmf(np.array([0.5, 0.5]), 10, np.array([6, 6]))
    with pytest.raises(NotASimplex):
        adjust_csmf(np.array([0.5, 0.6]), 10, np.array([1, 1]))
    with pytest.raises(DimensionMismatch):
        adjust_csmf(np.array([0.5, 0.5]), 10, np.array([1, 1, 1]))


def test_marginal_loglik_matches_direct_sum():
    log_phi = np.log(np.array([
        [[0.9, 0.4], [0.2, 0.1]],
        [[0.3, 0.6], [0.8, 0.5]],
        [[0.5, 0.5], [0.5, 0.5]],
    ]))
    phi = phi_of(log_phi)
    pi = np.array([0.3, 0.7])
    lam = np.array([[0.6, 0.4], [0.2, 0.8]])
    want = 0.0
    for i in (1, 2):  # unlabeled part (one label below)
        want += math.log(sum(
            math.exp(log_phi[i, c, m]) * pi[c] * lam[c, m]
            for c in range(2) for m in range(2)
        ))
    want += math.log(sum(math.exp(log_phi[0, 1, m]) * lam[1, m] for m in range(2))
                     * pi[1])
    got = marginal_loglik(phi, pi, lam, labels=np.array([1, UNLABELED, UNLABELED]))
    assert got == pytest.approx(want, abs=1e-12)


def test_phi_tensor_validation():
    with pytest.raises(IncompletePhi):
        present = np.array([[1], [0]], dtype=np.int8)
        phi_of(np.log([[[0.5], [0.5]]]), present)  # finite where absent
    with pytest.raises(DimensionMismatch):
        PhiTensor(log_phi=np.zeros((2, 2)), present=np.ones((2, 1), dtype=np.int8),
                  death_ids=("a", "b"), domain_ids=("m0",))
    with pytest.raises(DimensionMismatch):
        PhiTensor(log_phi=np.zeros((2, 2, 1)), present=np.ones((2, 2), dtype=np.int8),
                  death_ids=("a", "b"), domain_ids=("m0",))
    with pytest.raises(IncompletePhi):
        phi_of(np.full((1, 2, 1), 0.5))  # positive log-likelihood
    for row in (0, 1):  # NaN at a present cell of the labeled death, then the unlabeled one
        log_phi = np.full((2, 2, 1), -0.5)
        log_phi[row, 0, 0] = np.nan
        with pytest.raises(IncompletePhi):
            fit_global(phi_of(log_phi), np.array([0, UNLABELED]), FAST)


def test_single_model_lambda_degenerates():
    phi = bernoulli_phi(7, 3)
    post = fit_global(phi, None, FAST)
    assert np.all(post.lambda_draws == 1.0)
    assert post.lambda_draws.shape == (post.D, 2, 1)


def test_prior_recovery_with_no_data():
    phi = phi_of(np.zeros((0, 3, 1)))
    cfg = EnsembleConfig(variant="plain", chains=4, iterations=2000, burn_in=500, seed=1)
    post = fit_global(phi, None, cfg)
    se = np.sqrt((1 / 3) * (2 / 3) / 4) / np.sqrt(post.D)
    assert np.abs(post.pi_mean() - 1 / 3).max() < 3 * se


def test_bernoulli_mixture_matches_grid_oracle():
    phi = bernoulli_phi(70, 30)
    cfg = EnsembleConfig(variant="plain", chains=4, iterations=2000, burn_in=1000, seed=2)
    post = fit_global(phi, None, cfg)
    grid = np.linspace(1e-6, 1 - 1e-6, 2001)
    loglik = 70 * np.log(grid * 0.9 + (1 - grid) * 0.1) + 30 * np.log(
        grid * 0.1 + (1 - grid) * 0.9
    )
    w = np.exp(loglik - loglik.max())
    oracle = float((w * grid).sum() / w.sum())
    assert 0.70 <= post.pi_mean()[0] <= 0.80
    assert post.pi_mean()[0] == pytest.approx(oracle, abs=0.02)


def test_fit_global_is_deterministic_and_worker_invariant():
    phi = bernoulli_phi(12, 8)
    p1 = fit_global(phi, None, FAST, workers=1)
    p2 = fit_global(phi, None, FAST, workers=2)
    assert np.array_equal(p1.pi_draws, p2.pi_draws)
    assert np.array_equal(p1.lambda_draws, p2.lambda_draws)
    assert np.array_equal(log_posterior(phi, p1), log_posterior(phi, p2))
    p3 = fit_global(phi, None, EnsembleConfig(variant="plain", chains=2,
                                              iterations=400, burn_in=200, seed=3))
    assert not np.array_equal(p1.pi_draws, p3.pi_draws)


def _stream_fit(seed, n, present, n_L=0, **cfg):
    """(phi, labels, cfg): random likelihoods of n deaths, -inf off `present`,
    and n_L labeled deaths interleaved with the unlabeled ones."""
    rng = np.random.default_rng(seed)
    present = np.asarray(present, dtype=np.uint8)
    log_phi = np.log(rng.uniform(0.05, 1.0, size=(n, *present.shape)))
    log_phi[:, present == 0] = -np.inf
    labels = np.full(n, UNLABELED)
    at = rng.choice(n, size=n_L, replace=False)
    labels[at] = rng.integers(0, present.shape[0], size=n_L)
    cfg = EnsembleConfig(**{"variant": "partial", "chains": 2, "iterations": 160,
                            "burn_in": 80, "seed": 11, **cfg})
    return phi_of(log_phi, present), labels, cfg


_LN = LambdaPrior(kind="logistic_normal", sigma=1.0)
# sha256 of pi_draws, lambda_draws and repr(acceptance_rate) of small fits at
# both lambda priors: they pin the "ensemble-chain" stream, which a refactor of
# the sampler must leave as it is.
STREAM_CASES = {
    "dirichlet-tied": (
        _stream_fit(1, 30, np.ones((3, 2)), n_L=9, tie_pi=True),
        "e895674d4e7e8d8db5f28e672ce0dfce3433cdcdd03379177c82bb3cc4554493"),
    "dirichlet-untied": (
        _stream_fit(1, 30, np.ones((3, 2)), n_L=9, tie_pi=False),
        "95b7d0a7dfce0e1b6256b79df0c0af659c4bdc88d0ecf6d766e08c6031033d2a"),
    "one-domain-cause": (  # cause 0 in one domain; cause 1 lacks the third
        _stream_fit(2, 25, [[1, 0, 0], [1, 1, 0], [1, 1, 1]], n_L=4),
        "c7be2a47b9c9514638abc0346ac02c2db8da11cc98528ff87e889bb744c73bb8"),
    "all-labeled": (
        _stream_fit(3, 20, np.ones((3, 3)), n_L=20),
        "203bf024ae09a4caa77feaeb86677f9b8c7194e0e6266d313fe36f75e5a8eb30"),
    "single-model": (
        _stream_fit(4, 30, np.ones((4, 1)), n_L=6),
        "95259280dac456146420d783b1fe0bfff7eaaa5b42e56a57c426b342d58a3895"),
    "thin-3": (
        _stream_fit(5, 30, np.ones((3, 2)), n_L=5, thin=3),
        "f594a519bb0306b806ecc5105fc632d5ac14c1578680e2a40eef5bd00463b4c3"),
    "logistic-normal-300": (
        _stream_fit(6, 30, [[1, 1], [1, 0], [1, 1]], n_L=5, iterations=400, burn_in=300,
                    lambda_prior=_LN),
        "c299519d1c23ce093547a3881f6ae1da1b005bcdc7ab6b2948827557412bda01"),
    "logistic-normal-120": (  # burn-in ends mid adaptation window
        _stream_fit(7, 30, np.ones((3, 3)), n_L=5, iterations=260, burn_in=120,
                    lambda_prior=_LN),
        "b8f4076eeea6fc0a067f1ddc28c6b00a477dfd588c982c954f9af2d76d3cfdd3"),
}


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", list(STREAM_CASES))
def test_ensemble_chain_stream_is_pinned(case, workers):
    (phi, labels, cfg), digest = STREAM_CASES[case]
    post = fit_global(phi, labels, cfg, workers=workers)
    got = hashlib.sha256(post.pi_draws.tobytes() + post.lambda_draws.tobytes()
                         + repr(post.acceptance_rate).encode()).hexdigest()
    assert got == digest


def _snapshot(state):
    """Every field of a chain state, as the bytes it pickles to."""
    return {f.name: pickle.dumps(getattr(state, f.name)) for f in dataclasses.fields(state)}


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("prior", [LambdaPrior(), _LN], ids=["dirichlet", "logistic-normal"])
def test_chains_advanced_in_two_rounds_equal_one_round(prior, workers):
    """A split anywhere, across adaptation windows and the end of burn-in (mid
    window at 120), with the state pickled between the rounds, changes no byte."""
    phi, labels, cfg = _stream_fit(9, 30, [[1, 1, 1], [1, 0, 1], [0, 1, 0]], n_L=6,
                                   iterations=260, burn_in=120, thin=2, lambda_prior=prior)
    deaths = _split_deaths(phi, labels)

    def run(*ends):
        states, done = [_start_chain(deaths, cfg, c) for c in range(cfg.chains)], 0
        for end in (*ends, cfg.iterations):
            states = [pickle.loads(pickle.dumps(s)) for s in states]
            states = parallel_map(partial(_run_chain, deaths, cfg, sweeps=end - done), states,
                                  workers=workers)
            done = end
        return [_snapshot(s) for s in states]

    one = run()
    for k in (1, 49, 50, cfg.burn_in - 1, cfg.burn_in, cfg.burn_in + 1, cfg.iterations - 1):
        assert run(k) == one, k
    post = fit_global(phi, labels, cfg)
    kept = [pickle.loads(s["pi_out"]) for s in one]
    assert np.stack(kept).reshape(-1, phi.C).tobytes() == post.pi_draws.tobytes()


def test_labels_shift_posterior_and_draw_shapes():
    phi = bernoulli_phi(10, 10)
    labels = labels_first(np.zeros(6), 20)  # first 6 deaths known cause 0
    tied = fit_global(phi, labels, EnsembleConfig(variant="partial", tie_pi=True,
                                                  chains=2, iterations=400,
                                                  burn_in=200, seed=0))
    untied = fit_global(phi, labels, EnsembleConfig(variant="partial", tie_pi=False,
                                                    chains=2, iterations=400,
                                                    burn_in=200, seed=0))
    assert untied.pi_draws.shape == tied.pi_draws.shape == (400, 2)
    assert untied.lambda_draws.shape == tied.lambda_draws.shape == (400, 2, 1)
    plain = fit_global(phi, None, FAST)
    assert tied.pi_mean()[0] > plain.pi_mean()[0] - 0.02


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("tie_pi", [True, False])
@pytest.mark.parametrize("n_L", [0, 5, 12])
def test_one_pi_conditional_per_sweep(monkeypatch, tie_pi, n_L):
    """Each sweep draws pi once; labeled counts enter it only when tied."""
    from fedva import ensemble

    pi_conc = []

    def recording(rng, alpha):
        if np.ndim(alpha) == 1:
            pi_conc.append(np.array(alpha))
        return log_dirichlet(rng, alpha)

    monkeypatch.setattr(ensemble, "log_dirichlet", recording)
    rng = np.random.default_rng(5)
    phi = phi_of(np.log(rng.uniform(0.05, 1.0, size=(12, 3, 2))))
    labels = labels_first(rng.integers(0, 3, size=n_L), 12) if n_L else None
    cfg = EnsembleConfig(variant="partial", chains=2, iterations=50, burn_in=25, seed=0,
                         tie_pi=tie_pi, pi_prior_conc=0.5)
    fit_global(phi, labels, cfg)
    # every chain's initial draw, then each chain's one draw per sweep
    assert len(pi_conc) == cfg.chains * (1 + cfg.iterations)
    first, sweeps = pi_conc[:cfg.chains], pi_conc[cfg.chains:]
    assert all(alpha.tolist() == [0.5] * 3 for alpha in first)
    seen = 12 if tie_pi else 12 - n_L
    for alpha in sweeps:
        counts = alpha - 0.5
        assert np.array_equal(counts, np.round(counts)) and counts.sum() == seen
        if tie_pi and n_L:
            assert np.all(counts >= np.bincount(labels[:n_L], minlength=3))


BAD_LABELS = {
    "float": np.array([0.7, 1.2]),
    "bool": np.array([True, False]),
    "2-d": np.array([[0, 1]]),
    "short": np.array([0]),
    "long": np.array([0, 1, 0]),
    "below UNLABELED": np.array([-2, 0]),
    "cause out of range": np.array([0, 2]),
}


def _named_tensor(kind, ids):
    """A PhiTensor or a PredictionTensor of one death, two causes and two columns."""
    if kind == "phi":
        return PhiTensor(log_phi=np.full((1, 2, 2), -0.5), present=np.ones((2, 2), dtype=np.uint8),
                         death_ids=("a",), domain_ids=ids)
    return PredictionTensor(a=np.full((1, 2, 2), 0.5), death_ids=("a",), domain_ids=ids)


@pytest.mark.parametrize("kind", ["phi", "predictions"])
def test_tensors_name_each_column_once(kind):
    assert _named_tensor(kind, ["u", "v"]).domain_ids == ("u", "v")
    for ids in ((), ("u",), ("u", "v", "w")):
        with pytest.raises(DimensionMismatch):
            _named_tensor(kind, ids)
    with pytest.raises(DuplicateDomainId):
        _named_tensor(kind, ("u", "u"))


def _label_takers():
    """Each function that takes a label vector, on two deaths and two causes."""
    phi = bernoulli_phi(1, 1)
    preds = PredictionTensor(a=np.full((2, 2, 1), 0.5), death_ids=("a", "b"), domain_ids=("m0",))
    return {
        "fit_global": lambda labels: fit_global(phi, labels, FAST),
        "marginal_loglik": lambda labels: marginal_loglik(
            phi, np.array([0.5, 0.5]), np.ones((2, 1)), labels),
        "fit_calibration": lambda labels: fit_calibration(
            preds, labels, CalibConfig(iterations=4, burn_in=2)),
    }


@pytest.mark.parametrize("bad", list(BAD_LABELS), ids=list(BAD_LABELS))
@pytest.mark.parametrize("taker", ["fit_global", "marginal_loglik", "fit_calibration"])
def test_every_label_taker_refuses_a_malformed_vector(taker, bad):
    with pytest.raises(InvalidLabels):
        _label_takers()[taker](BAD_LABELS[bad])


@pytest.mark.parametrize("taker", ["fit_global", "marginal_loglik", "fit_calibration"])
def test_every_label_taker_accepts_any_integer_label_vector(taker):
    for good in (None, [UNLABELED, 1], np.array([0, UNLABELED], dtype=np.int32),
                 np.array([1, 0], dtype=np.uint8)):
        _label_takers()[taker](good)


def test_fit_global_needs_every_cause_covered():
    with pytest.raises(IncompletePhi):
        present = np.array([[1], [0]], dtype=np.int8)
        log_phi = np.full((2, 2, 1), -np.inf)
        log_phi[:, 0, 0] = -1.0
        fit_global(PhiTensor(log_phi=log_phi, present=present, death_ids=("a", "b"),
                             domain_ids=("m0",)),
                   None, FAST)  # a cause no domain covers


@st.composite
def interleaved_fits(draw):
    """(phi, labels, cfg, where): labels on the first n_L rows of phi, and
    `where`, an interleaving that keeps the labeled and the unlabeled rows
    each in their order."""
    C, M = draw(st.integers(2, 4)), draw(st.sampled_from([1, 3]))
    n = draw(st.integers(1, 14))
    n_L = draw(st.sampled_from([0, n, draw(st.integers(0, n))]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    spread = draw(st.sampled_from([1.0, 800.0]))  # 800: the log-space fallback runs
    log_phi = -spread * rng.random((n, C, M))
    cfg = EnsembleConfig(variant="partial", chains=2, iterations=8, burn_in=4,
                         seed=draw(st.integers(0, 2**32)), tie_pi=draw(st.booleans()))
    labeled_at = np.sort(rng.choice(n, size=n_L, replace=False))
    where = np.concatenate([labeled_at, np.setdiff1d(np.arange(n), labeled_at)])
    labels = labels_first(rng.integers(0, C, size=n_L), n)
    return phi_of(log_phi), labels, cfg, where


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=60, deadline=None)
@given(interleaved_fits())
def test_interleaved_labels_give_the_draws_of_the_labeled_first_layout(case):
    phi, labels, cfg, where = case
    first = fit_global(phi, labels, cfg)
    moved_log_phi = np.empty_like(phi.log_phi)
    moved_log_phi[where] = phi.log_phi
    moved_labels = np.empty_like(labels)
    moved_labels[where] = labels
    moved = fit_global(phi_of(moved_log_phi), moved_labels, cfg)
    assert moved.pi_draws.tobytes() == first.pi_draws.tobytes()
    assert moved.lambda_draws.tobytes() == first.lambda_draws.tobytes()


@pytest.mark.parametrize("burn_in", [300, 120])  # 120 ends burn-in mid adaptation window
def test_logistic_normal_route_runs_and_reports_acceptance(burn_in):
    rng = np.random.default_rng(0)
    phi = phi_of(np.log(rng.uniform(0.05, 1.0, size=(40, 2, 2))))
    cfg = EnsembleConfig(variant="plain", chains=2, iterations=600, burn_in=burn_in,
                         seed=0, lambda_prior=LambdaPrior(kind="logistic_normal", sigma=1.0))
    post = fit_global(phi, None, cfg)
    assert post.acceptance_rate is not None
    assert 0.0 < post.acceptance_rate < 1.0
    assert np.allclose(post.lambda_draws.sum(axis=2), 1.0, atol=1e-9)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("present", [[[1, 0], [0, 1], [1, 0]], [[1], [1], [1]]],
                         ids=["each-cause-once", "single-model"])
def test_logistic_normal_fit_without_a_weight_choice_reports_no_acceptance(present):
    """No cause has two covering domains, so no Metropolis step runs and no rate is shown."""
    phi, labels, cfg = _stream_fit(8, 20, present, n_L=3, lambda_prior=_LN)
    post = fit_global(phi, labels, cfg)
    assert post.acceptance_rate is None
    causes = CauseList(causes=tuple(f"c{c}" for c in range(phi.C)))
    assert "acceptance" not in posterior_text(post, causes)


def test_classify_examples():
    log_phi = np.array([[[math.log(0.9)], [math.log(0.1)]],
                        [[math.log(0.2)], [math.log(0.2)]]])
    phi = phi_of(log_phi)
    post = GlobalPosterior(
        pi_draws=np.array([[0.5, 0.5], [0.25, 0.75]]),
        lambda_draws=np.ones((2, 2, 1)),
        acceptance_rate=None,
        config=FAST,
        domain_ids=("only",),
        rhat_pi=np.array([1.0, 1.0]),
    )
    cls = classify(phi, post)
    # death 0, first draw: (0.9, 0.1); second draw: 0.25*0.9 vs 0.75*0.1 -> 0.75, 0.25
    assert cls.probs[0, 0] == pytest.approx((0.9 + 0.75) / 2, abs=1e-12)
    # death 1: likelihood cancels, probs = mean pi
    assert cls.probs[1].tolist() == pytest.approx([0.375, 0.625], abs=1e-12)
    assert np.allclose(cls.probs.sum(axis=1), 1.0, atol=1e-12)
    assert cls.top[1] == 1


def test_classify_tie_breaks_to_lowest_index():
    phi = phi_of(np.zeros((1, 3, 1)))
    post = GlobalPosterior(
        pi_draws=np.full((1, 3), 1 / 3),
        lambda_draws=np.ones((1, 3, 1)),
        acceptance_rate=None,
        config=FAST,
        domain_ids=("only",),
        rhat_pi=np.ones(3),
    )
    assert classify(phi, post).top[0] == 0


def test_split_rhat_behavior():
    rng = np.random.default_rng(0)
    same = rng.normal(size=(1, 400, 2))
    chains = np.concatenate([same, same], axis=0)
    r = split_rhat(chains)
    assert np.all(np.isfinite(r)) and np.all(np.abs(r - 1.0) < 0.05)
    assert np.all(np.isnan(split_rhat(np.zeros((2, 3, 1)))))
    shifted = np.concatenate([same, same + 5.0], axis=0)
    assert np.all(split_rhat(shifted) > 1.5)
    # Chains stuck at opposite vertices: the within-chain variance is
    # subnormal, and the ratio is inf without an overflow warning.
    stuck = np.zeros((2, 400, 1))
    stuck[1] = 1.0
    stuck += 1e-160 * rng.normal(size=stuck.shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert split_rhat(stuck).tolist() == [np.inf]


def federation(seed=0, n_per=120):
    rng = np.random.default_rng(seed)
    theta = np.array([
        [0.9, 0.8, 0.1, 0.2],
        [0.1, 0.2, 0.8, 0.7],
        [0.5, 0.1, 0.1, 0.9],
    ])
    summaries = []
    for name in ("alpha", "beta"):
        y = np.repeat([0, 1, 2], n_per // 3).astype(np.int32)
        x = (rng.random((len(y), 4)) < theta[y]).astype(np.uint8)
        ds = make_dataset(name, x, y)
        summaries.append(train_lcm(ds, LcmHyper(K=2),
                                   GibbsConfig(iterations=200, burn_in=100, thin=1, seed=seed)))
    y_t = np.repeat([0, 1, 2], 20).astype(np.int32)
    x_t = (rng.random((60, 4)) < theta[y_t]).astype(np.uint8)
    target = make_dataset("target", x_t, y_t)
    return summaries, target


def local_of(target, cfg, hyper=LcmHyper(K=1)):
    """The local model at the chain settings of cfg, as run_variant once trained it itself."""
    chain = GibbsConfig(iterations=cfg.iterations, burn_in=cfg.burn_in, thin=cfg.thin)
    return train_local(target, local_rows(target, cfg), hyper, chain, cfg.seed)


def test_run_variant_requires_coverage():
    sources, target = federation()
    phi = build_phi(sources[:1], target)
    assert phi.log_phi.shape == (60, 3, 1)
    rng = np.random.default_rng(1)
    y = np.repeat([0, 1], 10).astype(np.int32)  # cause 2 never trained
    ds = make_dataset("partial_dom", rng.integers(0, 2, (20, 4)).astype(np.uint8), y)
    s = train_lcm(ds, LcmHyper(K=1), GibbsConfig(iterations=40, burn_in=20, thin=1, seed=0))
    # scoring sources that leave a cause uncovered is fine (calibration reads it) ...
    phi2 = build_phi([s], target)
    assert np.all(phi2.log_phi[:, 2, 0] == -np.inf) and phi2.present[2, 0] == 0
    # ... but an ensemble fit needs every cause covered
    cfg = EnsembleConfig(variant="partial", chains=2, iterations=100, burn_in=50, seed=0)
    with pytest.raises(IncompletePhi) as ei:
        run_variant(target, phi2, cfg)
    assert "trauma" in str(ei.value) or "2" in str(ei.value)
    # a local model trained on the target's labels can complete the tensor
    domain = replace(cfg, variant="domain")
    post, _, _ = run_variant(target, phi2, domain, local=local_of(target, domain))
    assert post.domain_ids == ("partial_dom", "target-local")


def test_fit_single_model_covers_only_the_summary_causes():
    _, target = federation()  # fully labeled: the fit must not read the labels
    rng = np.random.default_rng(1)
    y = np.repeat([0, 1], 10).astype(np.int32)  # cause 2 never trained
    ds = make_dataset("partial_dom", rng.integers(0, 2, (20, 4)).astype(np.uint8), y)
    s = train_lcm(ds, LcmHyper(K=2), GibbsConfig(iterations=40, burn_in=20, thin=1, seed=0))
    cfg = EnsembleConfig(variant="partial", chains=2, iterations=600, burn_in=300, seed=4)
    pi, probs = fit_single_model(build_phi([s], target), 0, cfg)
    assert pi.shape == (3,) and probs.shape == (60, 3)
    assert pi[2] == 0.0 and np.all(probs[:, 2] == 0.0)
    assert abs(pi.sum() - 1.0) < 1e-12
    assert np.all(probs >= 0.0) and np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    phi = PhiTensor(
        log_phi=cond_loglik_matrix(s, target.x)[:, :2, None],
        present=np.ones((2, 1), dtype=np.uint8),
        death_ids=target.death_ids,
        domain_ids=("partial_dom",),
    )
    post = fit_global(phi, None, replace(cfg, variant="plain"))
    assert np.array_equal(pi[:2], post.pi_mean())
    assert np.array_equal(probs[:, :2], classify(phi, post).probs)


def test_run_variant_plain_equals_fit_global():
    sources, target = federation()
    cfg = EnsembleConfig(variant="plain", chains=2, iterations=300, burn_in=150, seed=5)
    post, cls, csmf = run_variant(target, build_phi(sources, target), cfg)
    direct = fit_global(build_phi(sources, target), None, cfg)
    assert np.array_equal(post.pi_draws, direct.pi_draws)
    assert cls.death_ids == target.death_ids
    assert np.allclose(csmf, post.pi_mean())  # nothing held out


def test_run_variant_partial_uses_labels_in_original_order():
    sources, target = federation()
    y = target.y.copy()
    y[::2] = UNLABELED  # label every other death
    mixed = make_dataset("target", target.x, y, ids=target.death_ids)
    cfg = EnsembleConfig(variant="partial", chains=2, iterations=300, burn_in=150, seed=5)
    post, cls, csmf = run_variant(mixed, build_phi(sources, mixed), cfg)
    assert cls.death_ids == mixed.death_ids
    lab = np.flatnonzero(mixed.y != UNLABELED)
    assert np.allclose(cls.probs[lab, mixed.y[lab]], 1.0)
    assert np.allclose(cls.probs.sum(axis=1), 1.0)


def test_run_variant_domain_adds_model_and_holds_out():
    sources, target = federation()
    cfg = EnsembleConfig(variant="domain", chains=2, iterations=300, burn_in=150, seed=5)
    post, cls, csmf = run_variant(target, build_phi(sources, target), cfg,
                                  local=local_of(target, cfg))
    assert post.lambda_draws.shape[2] == len(sources) + 1
    assert post.domain_ids[-1] == "target-local"
    assert cls.death_ids == target.death_ids
    assert np.allclose(cls.probs[target.labeled_mask, target.y[target.labeled_mask]], 1.0)
    assert abs(csmf.sum() - 1.0) < 1e-9


@pytest.mark.parametrize("variant", ["domain", "mix"])
def test_local_model_column_takes_the_local_name_and_refuses_a_clash(variant):
    sources, target = federation()
    cfg = EnsembleConfig(variant=variant, chains=2, iterations=100, burn_in=50, seed=0)
    phi = build_phi(sources, target)
    post, _, _ = run_variant(target, phi, cfg, local=local_of(target, cfg))
    assert post.domain_ids == phi.domain_ids + ("target-local",)
    # a source already named <target>-local leaves the local column no distinct name
    clash = replace(sources[1], domain_id="target-local")
    named = build_phi([sources[0], clash], target)
    with pytest.raises(DuplicateDomainId):
        run_variant(target, named, cfg, local=local_of(target, cfg))


def test_run_variant_mix_split_is_seeded_partition():
    sources, target = federation()
    cfg = EnsembleConfig(variant="mix", chains=2, iterations=300, burn_in=150,
                         seed=5, mix_split_fraction=0.5)
    phi = build_phi(sources, target)
    post1, _, _ = run_variant(target, phi, cfg, local=local_of(target, cfg))
    post2, _, _ = run_variant(target, phi, cfg, local=local_of(target, cfg))
    assert np.array_equal(post1.pi_draws, post2.pi_draws)
    assert post1.lambda_draws.shape[2] == len(sources) + 1


def test_run_variant_guards_small_label_sets():
    sources, target = federation()
    few = target.subset(np.arange(5))  # 5 < 2 * C
    cfg = EnsembleConfig(variant="domain", chains=2, iterations=100, burn_in=50, seed=0)
    with pytest.raises(InsufficientLocalLabels):
        run_variant(few, build_phi(sources, few), cfg)
    with pytest.raises(InvalidHyper):
        EnsembleConfig(variant="nope")


@pytest.mark.parametrize("variant, other", [("domain", "mix"), ("mix", "domain")])
def test_run_variant_refuses_a_missing_or_foreign_local_model(variant, other):
    sources, target = federation()
    cfg = EnsembleConfig(variant=variant, chains=2, iterations=100, burn_in=50, seed=0)
    phi = build_phi(sources, target)
    with pytest.raises(LocalModelMismatch, match="needs the target-local model"):
        run_variant(target, phi, cfg)
    assert issubclass(LocalModelMismatch, FedvaError)
    # the other variant's rows, or a source's, give other cause counts
    for foreign in (local_of(target, replace(cfg, variant=other)), sources[0]):
        with pytest.raises(LocalModelMismatch, match="not trained on the rows local_rows picks"):
            run_variant(target, phi, cfg, local=foreign)
    for unread in ("plain", "partial"):
        with pytest.raises(LocalModelMismatch, match="not trained on the rows local_rows picks"):
            run_variant(target, phi, replace(cfg, variant=unread), local=local_of(target, cfg))


def test_local_rows_pick_every_label_under_domain_and_a_seeded_part_under_mix():
    _, target = federation()
    y = target.y.copy()
    y[::3] = UNLABELED  # 40 of 60 labeled, interleaved
    target = make_dataset("target", target.x, y)
    labeled = np.flatnonzero(y != UNLABELED)
    cfg = EnsembleConfig(seed=3, mix_split_fraction=0.3)
    for variant in ("plain", "partial"):
        assert local_rows(target, replace(cfg, variant=variant)).size == 0
    assert np.array_equal(local_rows(target, replace(cfg, variant="domain")), labeled)
    mix = local_rows(target, replace(cfg, variant="mix"))
    assert mix.size == 12 and np.all(np.diff(mix) > 0) and np.isin(mix, labeled).all()
    assert np.array_equal(mix, local_rows(target, replace(cfg, variant="mix")))
    assert not np.array_equal(mix, local_rows(target, replace(cfg, variant="mix", seed=4)))
    few = target.subset(labeled[:5])  # 5 < 2 * C
    for variant in ("domain", "mix"):
        with pytest.raises(InsufficientLocalLabels):
            local_rows(few, replace(cfg, variant=variant))


def quadrature_instances():
    """The ten (n<=50, C<=3, M<=2) tensors of acceptance test 03."""
    out = []
    rng = np.random.default_rng(12345)
    for inst in range(6):
        C = int(rng.integers(2, 4))
        M = 1 if inst < 3 else 2
        n = int(rng.integers(20, 51))
        out.append((inst, phi_of(np.log(rng.uniform(0.02, 1.0, size=(n, C, M))))))
    for seed in (101, 102, 103, 104):
        r = np.random.default_rng(seed)
        out.append((seed, phi_of(np.log(r.uniform(0.02, 1.0, size=(30, 3, 2))))))
    return out


def untied_instances():
    """Labels on the first n_L deaths, tie_pi false: (seed, phi, labels).

    The reference kernel also draws the labeled deaths' own CSMF every
    sweep, which fedva.ensemble leaves out; (pi, lambda) must not change.
    """
    out = []
    for seed, (n, C, M, n_L) in zip((201, 202, 203), ((40, 3, 2, 10), (30, 4, 3, 15),
                                                      (24, 2, 2, 24))):
        r = np.random.default_rng(seed)
        phi = phi_of(np.log(r.uniform(0.02, 1.0, size=(n, C, M))))
        out.append((seed, phi, labels_first(r.integers(0, C, size=n_L), n)))
    return out


def logistic_normal_instances():
    """(seed, phi, labels) for the logistic-normal lambda prior: a plain M=2 fit
    and an untied labeled M=3 fit under partial coverage, where the batched
    step masks absent cells and one cause keeps a single domain."""
    r = np.random.default_rng(301)
    present = np.array([[1, 1, 1], [1, 0, 1], [0, 1, 0]], dtype=np.uint8)
    log_phi = np.log(r.uniform(0.02, 1.0, size=(36, 3, 3)))
    log_phi[:, present == 0] = -np.inf
    return [(101, dict(quadrature_instances())[101], None),
            (301, phi_of(log_phi, present), labels_first(r.integers(0, 3, size=12), 36))]


def test_kernel_matches_log_space_reference_within_monte_carlo_error():
    """Posterior means of pi and lambda agree with the reference kernel, |z| < 4."""
    worst = 0.0
    ln = LambdaPrior(kind="logistic_normal")
    cases = ([(seed, phi, None, LambdaPrior()) for seed, phi in quadrature_instances()]
             + [(*case, LambdaPrior()) for case in untied_instances()]
             + [(*case, ln) for case in logistic_normal_instances()])
    for seed, phi, labels, prior in cases:
        cfg = EnsembleConfig(variant="plain" if labels is None else "partial", chains=2,
                             iterations=2000, burn_in=400, seed=seed,
                             tie_pi=labels is None, lambda_prior=prior)
        post = fit_global(phi, labels, cfg)
        ref_pi, ref_lam = fit_reference(phi, labels, cfg)
        for got, want in ((post.pi_draws, ref_pi), (post.lambda_draws, ref_lam)):
            se = np.sqrt(batch_se(got) ** 2 + batch_se(want) ** 2)
            diff = np.abs(got.mean(axis=0) - want.mean(axis=0))
            fixed = se == 0  # M=1 weights are exactly 1 in both kernels
            assert np.all(diff[fixed] == 0)
            z = diff[~fixed] / se[~fixed]
            worst = max(worst, float(z.max(initial=0.0)))
    assert worst < 4.0, f"worst z-score {worst:.2f}"


def assert_finite_simplex_draws(post, present):
    allowed = np.asarray(present, dtype=bool)
    assert np.all(np.isfinite(post.pi_draws)) and np.all(post.pi_draws >= 0)
    assert np.allclose(post.pi_draws.sum(axis=1), 1.0, atol=1e-12)
    lam = post.lambda_draws
    assert np.all(np.isfinite(lam)) and np.all(lam >= 0)
    assert np.all(lam[:, ~allowed] == 0.0)
    assert np.allclose(lam.sum(axis=2), 1.0, atol=1e-12)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_extreme_spread_and_tiny_concentration_fall_back_to_log_space(monkeypatch):
    """Spreads above 745 nats underflow exp(); those rows take the Gumbel path."""
    from fedva import ensemble

    calls = []

    def counting(rng, logw, axis=-1):
        calls.append(logw.shape[0])
        return gumbel_argmax(rng, logw, axis=axis)

    monkeypatch.setattr(ensemble, "gumbel_argmax", counting)
    log_phi = np.zeros((40, 3, 2))
    log_phi[:20, 1:, :] = -800.0
    log_phi[20:, :2, :] = -1600.0
    log_phi[:, :, 1] -= 760.0
    cfg = EnsembleConfig(variant="partial", chains=2, iterations=300, burn_in=100, seed=0,
                         tie_pi=False, pi_prior_conc=1e-3,
                         lambda_prior=LambdaPrior(conc=1e-3))
    labels = labels_first([0, 0, 0, 2, 2], 40)
    post = fit_global(phi_of(log_phi), labels, cfg)
    assert calls, "the log-space fallback never ran"
    assert_finite_simplex_draws(post, np.ones((3, 2)))


@pytest.mark.parametrize("tie_pi", [True, False])
def test_every_death_labeled(tie_pi):
    rng = np.random.default_rng(3)
    phi = phi_of(np.log(rng.uniform(0.05, 1.0, size=(12, 3, 2))))
    labels = np.array([0, 1, 2, 0, 1, 2, 0, 0, 1, 2, 2, 2])
    cfg = EnsembleConfig(variant="partial", chains=2, iterations=200, burn_in=100,
                         seed=0, tie_pi=tie_pi)
    post = fit_global(phi, labels, cfg)
    assert_finite_simplex_draws(post, np.ones((3, 2)))


def test_single_model_draws_no_lambda(monkeypatch):
    """M=1: lambda is exactly 1 and every Dirichlet draw is a pi draw."""
    from fedva import ensemble

    shapes = []

    def recording(rng, alpha):
        shapes.append(np.shape(alpha))
        return log_dirichlet(rng, alpha)

    monkeypatch.setattr(ensemble, "log_dirichlet", recording)
    phi = bernoulli_phi(7, 3)
    post = fit_global(phi, labels_first([0, 1], 10), FAST)
    assert shapes and all(s == (2,) for s in shapes)
    assert np.all(post.lambda_draws == 1.0)
    assert_finite_simplex_draws(post, np.ones((2, 1)))


@st.composite
def extreme_fits(draw):
    """(phi, labels, cfg) at small shapes: cause 0 has one covering domain,
    spreads up to 2000 nats, concentrations down to 1e-3, any n_L in [0, n],
    under either lambda prior."""
    C, M = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    n = draw(st.integers(0, 12))
    n_L = draw(st.integers(0, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    present = rng.random((C, M)) < 0.6
    present[np.arange(C), rng.integers(0, M, size=C)] = True
    present[0] = np.arange(M) == rng.integers(0, M)
    spread = draw(st.sampled_from([1.0, 50.0, 800.0, 2000.0]))
    log_phi = -spread * rng.random((n, C, M))
    log_phi[:, ~present] = -np.inf
    conc = st.sampled_from([1e-3, 0.05, 0.1, 1.0])
    kind = draw(st.sampled_from(["dirichlet", "logistic_normal"]))
    cfg = EnsembleConfig(variant="partial", chains=2, iterations=6, burn_in=2,
                         seed=draw(st.integers(0, 2**32)), tie_pi=draw(st.booleans()),
                         pi_prior_conc=draw(conc),
                         lambda_prior=LambdaPrior(kind=kind, conc=draw(conc)))
    labels = labels_first(rng.integers(0, C, size=n_L), n) if n_L else None
    return phi_of(log_phi, present.astype(np.uint8)), labels, cfg


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=60, deadline=None)
@given(extreme_fits())
def test_fit_global_draws_stay_finite_and_respect_coverage(case):
    phi, labels, cfg = case
    post = fit_global(phi, labels, cfg)
    assert post.pi_draws.shape == (8, phi.C)
    assert_finite_simplex_draws(post, phi.present)
    single = phi.present.sum(axis=1) == 1
    assert np.all(post.lambda_draws[:, single] == phi.present[single])


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_cause_covered_by_one_domain_keeps_weight_one():
    rng = np.random.default_rng(4)
    present = np.array([[1, 1], [1, 0], [0, 1]], dtype=np.uint8)
    log_phi = np.log(rng.uniform(0.05, 1.0, size=(30, 3, 2)))
    log_phi[:, present == 0] = -np.inf
    phi = phi_of(log_phi, present)
    for prior in (LambdaPrior(), LambdaPrior(kind="logistic_normal")):
        cfg = EnsembleConfig(variant="partial", chains=2, iterations=200, burn_in=100,
                             seed=0, lambda_prior=prior)
        post = fit_global(phi, labels_first([1, 2, 1], 30), cfg)
        assert_finite_simplex_draws(post, present)
        assert np.all(post.lambda_draws[:, 1] == [1.0, 0.0])
        assert np.all(post.lambda_draws[:, 2] == [0.0, 1.0])
        assert np.unique(post.lambda_draws[:, 0, 0]).size > 1


def _two_level_args(log_phi, log_w):
    """_draw_cells's arguments for (n, C, M) log-likelihoods and (C, M) log
    weights, and the shifted (n, C*M) log-likelihoods of the reference draw."""
    n, C, M = log_phi.shape
    shifted = log_phi - log_phi.max(axis=(1, 2), keepdims=True)
    phi_exp = np.ascontiguousarray(np.exp(shifted).T)  # domain-major (M, C, n)
    shifted = shifted.reshape(n, C * M)
    return (phi_exp, np.exp(log_w), np.zeros((C + 1, n)),
            lambda rows: shifted[rows] + log_w.ravel()), shifted


def _labeled_last(log_phi, y):
    """log_phi with its last y.size deaths labeled y: -inf off their causes."""
    log_phi = log_phi.copy()
    labeled = log_phi[log_phi.shape[0] - y.size:]
    labeled[np.arange(log_phi.shape[1]) != y[:, None]] = -np.inf
    return log_phi


def test_cell_draw_frequencies_match_weights_on_both_paths():
    """Linear weights and underflowed (log-space fallback) weights give the same law.

    Covers the two-level draw over (cause, domain) cells, a zero-weight cell
    included, and labeled deaths, whose rows are -inf off their known cause 0.
    """
    n = 20000
    lik = np.array([[0.5, 1.0], [0.25, 0.5], [1.0, 0.125]])
    log_phi = _labeled_last(np.log(np.broadcast_to(lik, (2 * n, 3, 2))), np.zeros(n, int))
    log_w = np.log([[1.0, 3.0], [1.0, 1.0], [2.0, 1.0]])
    log_w[1, 1] = -np.inf
    want = (lik * np.exp(log_w)).ravel()
    want /= want.sum()
    want_l = np.zeros(6)
    want_l[:2] = lik[0] * np.exp(log_w[0])
    want_l /= want_l.sum()
    for shift in (0.0, -800.0):
        (phi_exp, w, cum, lw), _ = _two_level_args(log_phi, log_w + shift)
        assert (np.count_nonzero(w) == 0) == (shift < 0)
        cells = _draw_cells(derive_rng("cell-draw"), phi_exp, w, cum, lw)
        for got, p in ((cells[:n], want), (cells[n:], want_l)):
            freq = np.bincount(got, minlength=6) / n
            assert np.all(np.abs(freq - p) <= 4 * np.sqrt(p * (1 - p) / n)), freq


def _cell_draw_cases():
    """(log_phi (n, C, M), log_w (C, M)) pairs for the two-level draw.

    In the fallback cases every second death holds all its likelihood in
    cell (0, 0), the others sitting 900 nats lower, and that cell's weight
    is exp(-800): the death's total is exactly 0, so it must stay inside the
    index range until the log-space redraw replaces it. In the labeled cases
    the last 150 deaths are labeled, those starved so at cause 0.
    """
    rng = np.random.default_rng(7)

    def likelihoods(C, M, absent=()):
        log_phi = np.log(rng.uniform(0.01, 1.0, size=(300, C, M)))
        for c, m in absent:
            log_phi[:, c, m] = -np.inf
        return log_phi

    def weights(C, M):
        return np.log(rng.dirichlet(np.ones(C * M))).reshape(C, M)

    linear = likelihoods(5, 3, absent=[(1, 2)])
    masked_w = weights(5, 3)
    masked_w[0, 2] = masked_w[3, 0] = -np.inf  # zero-weight cells
    masked_w[4, 1:] = -np.inf  # a cause's trailing domains
    masked_w[2] = -np.inf  # a whole cause
    starved_phi = likelihoods(4, 3)
    starved_phi[::2] -= 900.0
    starved_phi[::2, 0, 0] += 900.0
    starved_w = weights(4, 3)
    starved_w[0, 0] = -800.0
    cases = {
        "linear": (linear, weights(5, 3)),
        "masked": (likelihoods(5, 3), masked_w),
        "M=1": (likelihoods(6, 1), weights(6, 1)),
        "C=1": (likelihoods(1, 4), weights(1, 4)),
        "fallback": (starved_phi, starved_w),
    }
    y = rng.integers(0, 4, size=150)
    starved_y = y.copy()
    starved_y[::2] = 0  # deaths 150, 152, ... are starved
    cases["labeled"] = (_labeled_last(likelihoods(4, 3), y), weights(4, 3))
    cases["labeled-fallback"] = (_labeled_last(starved_phi, starved_y), starved_w)
    return cases


@pytest.mark.parametrize("case", ["linear", "masked", "M=1", "C=1", "fallback",
                                  "labeled", "labeled-fallback"])
def test_two_level_draw_is_identical_to_one_level_reference(case):
    """Cause then domain on one uniform gives the one-level draw's cells and stream."""
    log_phi, log_w = _cell_draw_cases()[case]
    n, C, M = log_phi.shape
    (phi_exp, w, cum, lw), shifted = _two_level_args(log_phi, log_w)
    want_rng, got_rng = derive_rng("two-level", case), derive_rng("two-level", case)
    want = draw_cells_reference(want_rng, np.exp(shifted), w.ravel(), shifted, log_w.ravel())
    got = _draw_cells(got_rng, phi_exp, w, cum, lw)
    assert np.array_equal(got, want)
    assert want_rng.bit_generator.state == got_rng.bit_generator.state
    assert np.all(log_w.ravel()[got] > -np.inf)  # no zero-weight cell is ever drawn
    assert np.all(shifted[np.arange(n), got] > -np.inf)  # nor a zero-likelihood one
    assert np.all(cum[0] == 0)
    totals = (np.exp(shifted) * w.ravel()).sum(axis=1)
    assert np.any(totals == 0) == case.endswith("fallback")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_masked_labeled_rows_draw_as_the_separate_domain_draw_did(seed):
    """A fit's masked rows draw as unlabeled deaths over all cells, then
    labeled ones over their cause's M cells at weights lam[y] on uniforms of
    their own: the same cells, and the same generator state after."""
    rng = np.random.default_rng(seed)
    n, C, M = 200, 5, 3
    log_phi = np.log(rng.uniform(0.01, 1.0, size=(n, C, M)))
    labels = np.where(rng.random(n) < 0.4, rng.integers(0, C, size=n), UNLABELED)
    pi = rng.dirichlet(np.ones(C))
    lam = rng.dirichlet(np.ones(M), size=C)
    *_, order, fit_y, phi_exp = _split_deaths(phi_of(log_phi), labels)

    def no_fallback(rows):
        raise AssertionError("no death underflows here")

    got_rng, want_rng = derive_rng("labeled", seed), derive_rng("labeled", seed)
    got = _draw_cells(got_rng, phi_exp, pi[:, None] * lam, np.zeros((C + 1, n)), no_fallback)
    unlabeled, labeled = order[fit_y == UNLABELED], order[fit_y != UNLABELED]
    y = labels[labeled]
    log_u = log_phi[unlabeled].reshape(unlabeled.size, C * M)
    log_l = log_phi[labeled, y]
    want_u = draw_cells_reference(want_rng, np.exp(log_u - log_u.max(axis=1, keepdims=True)),
                                  (pi[:, None] * lam).ravel(), log_u, None)
    h = draw_cells_reference(want_rng, np.exp(log_l - log_l.max(axis=1, keepdims=True)),
                             lam[y], log_l, None)
    assert np.array_equal(got, np.concatenate([want_u, y * M + h]))
    assert want_rng.bit_generator.state == got_rng.bit_generator.state


def test_cell_draw_builds_log_weights_only_for_underflowed_rows():
    def fail(rows):
        raise AssertionError("log weights built without an underflowed row")

    _draw_cells(derive_rng("lazy"), np.ones((2, 3, 5)), np.full((3, 2), 1 / 6),
                np.zeros((4, 5)), fail)

    asked = []

    def log_w(rows):
        asked.append(rows.tolist())
        return np.zeros((rows.size, 6))

    phi_exp = np.ones((2, 3, 5))
    phi_exp[:, :, [1, 3]] = 0.0  # deaths 1 and 3 sum to exactly 0
    _draw_cells(derive_rng("lazy"), phi_exp, np.full((3, 2), 1 / 6), np.zeros((4, 5)), log_w)
    assert asked == [[1, 3]]

    # Weights summing to exactly TINY take the fallback: moving the point
    # below such a total by a multiply can leave it at the total itself.
    tiny = np.finfo(np.float64).tiny
    asked.clear()
    cell = _draw_cells(derive_rng("tiny"), np.ones((1, 2, 1)), np.array([[tiny], [0.0]]),
                       np.zeros((3, 1)), lambda rows: asked.append(rows.tolist())
                       or np.array([[0.0, -np.inf]]))
    assert asked == [[0]] and cell.tolist() == [0]


def _posterior(pi, lam):
    pi = np.asarray(pi, dtype=np.float64)
    return GlobalPosterior(pi_draws=pi, lambda_draws=np.asarray(lam),
                           acceptance_rate=None, config=FAST,
                           domain_ids=tuple(f"m{j}" for j in range(np.shape(lam)[2])),
                           rhat_pi=np.ones(pi.shape[1]))


def test_classify_matches_per_draw_reference():
    rng = np.random.default_rng(11)
    # Several death and draw blocks, absent (c, m) cells and one-domain causes.
    present = np.ones((5, 3), dtype=np.uint8)
    present[1, 2] = present[3, 0] = 0
    present[4, :2] = 0
    log_phi = np.log(rng.uniform(1e-4, 1.0, size=(600, 5, 3)))
    log_phi[:, present == 0] = -np.inf
    lam = rng.dirichlet(np.ones(3), size=(700, 5)) * present
    lam /= lam.sum(axis=2, keepdims=True)
    post = _posterior(rng.dirichlet(np.ones(5), size=700), lam)
    phi = phi_of(log_phi, present)
    got = classify(phi, post)
    assert np.abs(got.probs - classify_reference(phi, post)).max() < 1e-12
    assert np.array_equal(got.top, np.argmax(got.probs, axis=1))
    # A fit with labeled deaths (n_L > 0) classifies every death, labeled ones too.
    sources, target = federation()
    phi = build_phi(sources, target)
    cfg = EnsembleConfig(variant="partial", chains=2, iterations=300, burn_in=100, seed=5)
    post = fit_global(phi, labels_first(target.y[:20], 60), cfg)
    assert np.abs(classify(phi, post).probs - classify_reference(phi, post)).max() < 1e-12


def test_classify_underflowed_draw_is_computed_in_log_space():
    """A zero pi at a death's best cell, every other cell > 745 nats lower."""
    log_phi = np.array([[[0.0], [-800.0], [-900.0]],
                        [[-1.0], [-2.0], [-3.0]]])
    pi = [[0.0, 0.5, 0.5], [0.0, 0.5, 0.5], [0.6, 0.2, 0.2]]
    post = _posterior(pi, np.ones((3, 3, 1)))
    phi = phi_of(log_phi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cls = classify(phi, post)
    assert np.all(np.isfinite(cls.probs)) and np.all(cls.probs >= 0)
    assert np.allclose(cls.probs.sum(axis=1), 1.0, atol=1e-12)
    # Draws 1 and 2 put (all but e^-100 of) death 0 on cause 1, draw 3 on cause 0.
    assert cls.probs[0] == pytest.approx([1 / 3, 2 / 3, 0.0], abs=1e-12)
    assert cls.top[0] == 1
    assert np.abs(cls.probs[1] - classify_reference(phi_of(log_phi[1:]), post)[0]).max() < 1e-12


@st.composite
def extreme_classify_cases(draw):
    """(phi, posterior) at small shapes: cause 0 has one covering domain, spreads
    beyond 745 nats, and pi and lambda draws with concentrations down to 1e-3."""
    C, M = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    n, D = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    present = rng.random((C, M)) < 0.6
    present[np.arange(C), rng.integers(0, M, size=C)] = True
    present[0] = np.arange(M) == rng.integers(0, M)
    spread = draw(st.sampled_from([800.0, 2000.0, 1e5]))
    log_phi = -spread * rng.random((n, C, M))
    log_phi[:, ~present] = -np.inf
    conc = st.sampled_from([1e-3, 0.01, 0.1, 1.0])
    pi, _ = log_dirichlet(rng, np.full((D, C), draw(conc)))
    lam, _ = log_dirichlet(rng, np.broadcast_to(draw(conc) * present, (D, C, M)))
    return phi_of(log_phi, present.astype(np.uint8)), _posterior(pi, lam)


def _folded_reference(phi, post):
    """classify_reference, one draw at a time, with that draw's log pi_c + log
    lambda_cm folded into the likelihoods and unit weights in their place. The
    cause probabilities are the same, but the reference's per-death shift then
    lands on the heaviest weighted cell, so its sums cannot underflow."""
    unit = _posterior(np.ones((1, phi.C)), np.ones((1, phi.C, phi.M)))
    total = np.zeros((phi.n, phi.C))
    for pi, lam in zip(post.pi_draws, post.lambda_draws):
        with np.errstate(divide="ignore"):
            log_w = phi.log_phi + (np.log(pi)[:, None] + np.log(lam))
        folded = SimpleNamespace(log_phi=log_w - log_w.max(axis=(1, 2), keepdims=True),
                                 n=phi.n, C=phi.C)
        total += classify_reference(folded, unit)
    return total / post.D


@settings(max_examples=80, deadline=None)
@given(extreme_classify_cases())
def test_classify_rows_stay_finite_simplices_at_numeric_extremes(case):
    phi, post = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cls = classify(phi, post)
    assert np.all(np.isfinite(cls.probs)) and np.all(cls.probs >= 0)
    assert np.abs(cls.probs.sum(axis=1) - 1.0).max() < 1e-9
    assert np.abs(cls.probs - _folded_reference(phi, post)).max() < 1e-9
    assert np.array_equal(cls.top, np.argmax(cls.probs, axis=1))
