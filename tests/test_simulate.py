from dataclasses import replace

import numpy as np
import pytest

from fedva.data import UNLABELED, SymptomValue
from fedva.errors import InvalidGenerator
from fedva.simulate import GeneratorSpec, simulate
from oracles import simulate_reference

SMALL = GeneratorSpec(C=3, K=2, p=5, M=2, n_domain=40, n_target=25, seed=7)


def test_shapes_names_and_full_labels():
    sim = simulate(SMALL)
    assert len(sim.domains) == 2
    assert sim.cause_list.causes == ("cause_1", "cause_2", "cause_3")
    assert sim.symptom_dict.symptoms == ("s_1", "s_2", "s_3", "s_4", "s_5")
    for m, ds in enumerate(sim.domains):
        assert ds.domain_id == f"domain_{m + 1}"
        assert ds.n == 40 and ds.x.shape == (40, 5)
        assert np.all(ds.y != UNLABELED)
        assert len(set(ds.death_ids)) == 40
    assert sim.target.domain_id == "target"
    assert sim.target.n == 25
    assert np.all(sim.target.y != UNLABELED)
    assert sim.truth.pi_target.shape == (3,)
    assert sim.truth.pi_domains.shape == (2, 3)
    assert sim.truth.lambda_mix.shape == (3, 2)
    assert sim.truth.nu.shape == (2, 3, 2)
    assert sim.truth.theta.shape == (2, 3, 2, 5)
    assert sim.truth.target_source.shape == (25,)
    assert np.all((sim.truth.target_source >= 0) & (sim.truth.target_source < 2))


def test_determinism_in_spec():
    a = simulate(SMALL)
    b = simulate(SMALL)
    assert np.array_equal(a.target.x, b.target.x)
    assert np.array_equal(a.target.y, b.target.y)
    assert all(np.array_equal(d1.x, d2.x) for d1, d2 in zip(a.domains, b.domains))
    assert np.array_equal(a.truth.theta, b.truth.theta)
    c = simulate(GeneratorSpec(C=3, K=2, p=5, M=2, n_domain=40, n_target=25, seed=8))
    assert not np.array_equal(a.target.x, c.target.x)


def _explicit_spec():
    r = np.random.default_rng(11)
    return GeneratorSpec(C=3, K=3, p=6, M=2, n_domain=50, n_target=60, seed=5,
                         nu=r.dirichlet(np.ones(3), size=(2, 3)),
                         theta=r.uniform(0.05, 0.95, size=(2, 3, 3, 6)),
                         lambda_mix=r.dirichlet(np.ones(2), size=3))


@pytest.mark.parametrize("spec", [
    GeneratorSpec(C=4, K=2, p=7, M=3, n_domain=60, n_target=80, seed=3, missing_rate=0.2),
    GeneratorSpec(C=3, K=1, p=5, M=2, n_domain=40, n_target=30, seed=4),
    GeneratorSpec(C=3, K=3, p=5, M=1, n_domain=40, n_target=30, seed=6),
    _explicit_spec(),
], ids=["missing", "K1", "M1", "explicit"])
def test_records_match_the_per_death_reference(spec):
    """The batched record sampler returns the per-death loop's arrays, byte for byte.

    The drawn parameters are passed back in, so that no parameter draw comes
    before the records in either stream.
    """
    t = simulate(spec).truth
    spec = replace(spec, pi_domains=t.pi_domains, pi_target=t.pi_target,
                   lambda_mix=t.lambda_mix, nu=t.nu, theta=t.theta)
    sim = simulate(spec)
    sites, (y_t, source, x_t) = simulate_reference(spec)
    for ds, (y, x) in zip(sim.domains, sites, strict=True):
        assert ds.y.dtype == y.dtype and ds.y.tobytes() == y.tobytes()
        assert ds.x.dtype == x.dtype and ds.x.tobytes() == x.tobytes()
    assert sim.target.y.tobytes() == y_t.tobytes()
    assert sim.truth.target_source.dtype == source.dtype
    assert sim.truth.target_source.tobytes() == source.tobytes()
    assert sim.target.x.tobytes() == x_t.tobytes()


def test_provided_parameters_are_echoed_and_used():
    pi_t = np.array([0.2, 0.5, 0.3])
    pi_d = np.array([[0.4, 0.3, 0.3], [0.1, 0.6, 0.3]])
    lam = np.array([[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]])
    spec = GeneratorSpec(C=3, K=1, p=4, M=2, n_domain=3000, n_target=3000, seed=1,
                         pi_target=pi_t, pi_domains=pi_d, lambda_mix=lam)
    sim = simulate(spec)
    assert np.array_equal(sim.truth.pi_target, pi_t)
    assert np.array_equal(sim.truth.pi_domains, pi_d)
    assert np.array_equal(sim.truth.lambda_mix, lam)
    emp_t = np.bincount(sim.target.y, minlength=3) / 3000
    assert np.abs(emp_t - pi_t).max() < 0.03
    emp_d0 = np.bincount(sim.domains[0].y, minlength=3) / 3000
    assert np.abs(emp_d0 - pi_d[0]).max() < 0.03
    src_c0 = sim.truth.target_source[sim.target.y == 0]
    assert np.abs(np.mean(src_c0 == 0) - 0.9) < 0.03


def test_theta_governs_symptom_rates():
    theta = np.full((1, 2, 1, 3), 0.5)
    theta[0, 0, 0] = [0.9, 0.1, 0.5]
    theta[0, 1, 0] = [0.2, 0.8, 0.5]
    spec = GeneratorSpec(C=2, K=1, p=3, M=1, n_domain=4000, n_target=10, seed=2,
                         pi_domains=np.array([[0.5, 0.5]]), theta=theta,
                         lambda_mix=np.array([[1.0], [1.0]]))
    sim = simulate(spec)
    d = sim.domains[0]
    rate_c0 = d.x[d.y == 0].mean(axis=0)
    assert np.abs(rate_c0 - [0.9, 0.1, 0.5]).max() < 0.03


def test_missingness_rate():
    spec = GeneratorSpec(C=2, K=1, p=10, M=1, n_domain=2000, n_target=2000,
                         seed=3, missing_rate=0.3)
    sim = simulate(spec)
    frac = np.mean(sim.target.x == int(SymptomValue.MISSING))
    assert abs(frac - 0.3) < 0.02
    assert np.all(np.isin(sim.target.x, (0, 1, int(SymptomValue.MISSING))))


@pytest.mark.parametrize("bad", [
    dict(C=1), dict(K=0), dict(p=0), dict(M=0), dict(n_domain=0), dict(n_target=0),
    dict(missing_rate=1.0), dict(missing_rate=-0.1),
    dict(theta_beta=(0.0, 0.3)), dict(nu_conc=0.0),
])
def test_spec_validation(bad):
    base = dict(C=2, K=1, p=2, M=1, n_domain=5, n_target=5)
    with pytest.raises(InvalidGenerator):
        simulate(GeneratorSpec(**{**base, **bad}))


def test_bad_provided_parameters():
    with pytest.raises(InvalidGenerator):
        simulate(GeneratorSpec(C=2, K=1, p=2, M=1, n_domain=5, n_target=5,
                               pi_target=np.array([0.5, 0.6])))
    with pytest.raises(InvalidGenerator):
        simulate(GeneratorSpec(C=2, K=1, p=2, M=1, n_domain=5, n_target=5,
                               pi_domains=np.array([0.5, 0.5])))  # must be M x C
    with pytest.raises(InvalidGenerator):
        simulate(GeneratorSpec(C=2, K=1, p=2, M=2, n_domain=5, n_target=5,
                               lambda_mix=np.array([[0.5, 0.5]])))  # wrong shape
    with pytest.raises(InvalidGenerator):
        simulate(GeneratorSpec(C=2, K=1, p=2, M=1, n_domain=5, n_target=5,
                               theta=np.zeros((1, 2, 1, 2))))  # theta must be in (0,1)
