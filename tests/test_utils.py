import hashlib
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedva.utils import (
    atomic_write_bytes,
    atomic_write_text,
    derive_rng,
    derive_seed,
    fingerprint_ids,
    gumbel_argmax,
    inverse_cdf,
    is_simplex,
    largest_remainder_counts,
    log_dirichlet,
    log_dirichlet_pdf,
    logsumexp,
    round_half_up,
    sha256_hex,
)
from oracles import log_dirichlet_reference


def test_sha256_hex_matches_hashlib():
    assert sha256_hex(b"abc") == hashlib.sha256(b"abc").hexdigest()


def test_fingerprint_is_order_sensitive():
    assert fingerprint_ids(["a", "b"]) != fingerprint_ids(["b", "a"])
    assert fingerprint_ids(["a", "b"]) == fingerprint_ids(("a", "b"))


def test_derive_rng_reproducible_and_distinct():
    a1 = derive_rng("x", 1).random(5)
    a2 = derive_rng("x", 1).random(5)
    b = derive_rng("x", 2).random(5)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_derive_rng_separator_prevents_concatenation_collisions():
    assert not np.array_equal(
        derive_rng("ab", "c").random(3), derive_rng("a", "bc").random(3)
    )


def test_derive_seed_stable():
    assert derive_seed("a", 1) == derive_seed("a", 1)
    assert derive_seed("a", 1) != derive_seed("a", 2)
    assert 0 <= derive_seed("a", 1) < 2**64


def test_gumbel_argmax_recovers_weights():
    rng = derive_rng("gumbel-test")
    logw = np.log(np.array([0.2, 0.5, 0.3]))
    draws = gumbel_argmax(rng, np.tile(logw, (20000, 1)), axis=1)
    freq = np.bincount(draws, minlength=3) / 20000
    assert np.abs(freq - [0.2, 0.5, 0.3]).max() < 0.02


def test_gumbel_argmax_ignores_minus_inf():
    rng = derive_rng("gumbel-test-inf")
    logw = np.array([[-np.inf, 0.0, -np.inf]] * 50)
    assert np.all(gumbel_argmax(rng, logw, axis=1) == 1)


def test_inverse_cdf_never_picks_a_zero_weight_cell():
    w = np.array([
        [0.5, 0.5, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 3.0],
        [0.1, 0.0, 0.2, 0.0],
    ])
    cum = np.cumsum(w, axis=1).T  # (cells, deaths)
    total = cum[-1]
    assert inverse_cdf(cum, total).tolist() == [1, 1, 3, 2]  # u rounded up to the total
    assert inverse_cdf(cum, np.zeros(4)).tolist() == [0, 1, 3, 0]
    u = np.nextafter(total, 0.0)
    assert inverse_cdf(cum, u).tolist() == [1, 1, 3, 2]
    # A point past the total (a leftover that rounding carried beyond its
    # cause's domain sums) still lands on the last cell of positive weight.
    assert inverse_cdf(cum, total * 1.5).tolist() == [1, 1, 3, 2]


def test_inverse_cdf_of_a_zero_total_stays_in_range():
    """A death whose weights all underflowed gets the last index, never K."""
    cum = np.zeros((4, 3))
    assert inverse_cdf(cum, np.zeros(3)).tolist() == [3, 3, 3]
    assert inverse_cdf(np.zeros((1, 2)), np.zeros(2)).tolist() == [0, 0]


def test_log_dirichlet_moderate_shapes_match_moments():
    rng = derive_rng("ld-mod")
    alpha = np.array([2.0, 3.0, 5.0])
    draws = np.stack([log_dirichlet(rng, alpha)[0] for _ in range(4000)])
    assert np.abs(draws.mean(axis=0) - alpha / alpha.sum()).max() < 0.01


def test_log_dirichlet_tiny_shapes_stay_finite():
    rng = derive_rng("ld-tiny")
    alpha = np.array([1e-3, 1e-3, 5.0])
    for _ in range(200):
        x, logx = log_dirichlet(rng, alpha)
        assert np.all(np.isfinite(logx))
        assert np.all(x >= 0)
        assert abs(x.sum() - 1.0) < 1e-12


def test_log_dirichlet_zero_concentration_is_an_absent_component():
    rng = derive_rng("ld-zero")
    alpha = np.array([[0.0, 2.0, 1e-3], [1.0, 0.0, 0.0]])
    x, logx = log_dirichlet(rng, alpha)
    assert np.all(x[alpha == 0] == 0.0) and np.all(logx[alpha == 0] == -np.inf)
    assert np.all(np.isfinite(logx[alpha > 0]))
    assert np.allclose(x.sum(axis=1), 1.0, atol=1e-12)
    assert x[1].tolist() == [1.0, 0.0, 0.0]


def test_log_dirichlet_log_is_consistent_with_value():
    rng = derive_rng("ld-consist")
    x, logx = log_dirichlet(rng, np.array([0.5, 1.5, 2.0]))
    assert np.allclose(np.exp(logx), x, rtol=1e-10)


@pytest.mark.parametrize("alpha", [
    [0.1, 0.1, 0.1],                 # at the boundary: the linear path
    [0.1, 2.5, 40.0, 1e4],
    [[1.0, 3.0], [0.2, 0.1]],        # batched rows, all at or above 0.1
    [0.0999999, 1.0, 2.0],           # just below: the log-space path
    [1e-3, 0.5, 7.0],
    [[0.0, 2.0, 3.0], [1.0, 1.0, 1.0]],  # a masked component keeps the old path
])
def test_log_dirichlet_matches_log_space_draw_across_the_boundary(alpha):
    for seed in range(20):
        rng, ref_rng = derive_rng("ld-boundary", seed), derive_rng("ld-boundary", seed)
        x, logx = log_dirichlet(rng, np.array(alpha))
        want_x, want_logx = log_dirichlet_reference(ref_rng, np.array(alpha))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert np.abs(x - want_x).max() < 1e-15
        finite = np.isfinite(want_logx)
        assert np.array_equal(np.isfinite(logx), finite)
        assert np.allclose(logx[finite], want_logx[finite], rtol=1e-14, atol=1e-14)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=2, max_size=8),
       st.integers(min_value=0, max_value=2**32))
def test_log_dirichlet_log_values_are_finite_for_positive_concentrations(alpha, seed):
    x, logx = log_dirichlet(derive_rng("ld-finite", seed), np.array(alpha))
    assert np.all(np.isfinite(logx))
    assert np.all(x >= 0) and abs(x.sum() - 1.0) < 1e-12


def test_log_dirichlet_pdf_matches_scipy_and_broadcasts():
    from scipy.stats import dirichlet

    x = np.array([[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]])
    alphas = np.array([[[0.5, 1.5, 2.0]], [[3.0, 1.0, 1e-3]]])  # (2, 1, 3) against (2, 3)
    got = log_dirichlet_pdf(np.log(x), alphas)
    assert got.shape == (2, 2)
    want = [[dirichlet.logpdf(row, a[0]) for row in x] for a in alphas]
    assert np.allclose(got, want, rtol=1e-12)
    # finite where the linear value underflows to 0
    assert np.isfinite(log_dirichlet_pdf(np.array([-1e8, 0.0]), np.array([1e-7, 1.0])))


def test_logsumexp_matches_scipy_on_finite_and_partly_infinite_rows():
    from scipy.special import logsumexp as scipy_logsumexp

    rng = np.random.default_rng(3)
    a = rng.normal(scale=300.0, size=(50, 7))
    np.testing.assert_allclose(logsumexp(a), scipy_logsumexp(a, axis=-1), rtol=1e-12, atol=1e-12)
    a[rng.random(a.shape) < 0.5] = -np.inf
    a[np.arange(50), rng.integers(0, 7, 50)] = rng.normal(size=50)  # one finite cell per row
    np.testing.assert_allclose(logsumexp(a), scipy_logsumexp(a, axis=-1), rtol=1e-12, atol=1e-12)
    row = a[0]
    assert logsumexp(row) == pytest.approx(scipy_logsumexp(row), rel=1e-12, abs=1e-12)


def test_logsumexp_of_an_all_minus_inf_row_is_minus_inf_without_a_warning():
    """The suite turns every RuntimeWarning into an error, so none may fire."""
    a = np.array([[-np.inf, -np.inf, -np.inf], [0.0, -np.inf, np.log(3.0)]])
    got = logsumexp(a)
    assert got[0] == -np.inf
    assert got[1] == pytest.approx(np.log(4.0), rel=1e-15)
    assert logsumexp(a[0]) == -np.inf


def test_is_simplex():
    assert is_simplex(np.array([0.25, 0.75]))
    assert not is_simplex(np.array([0.5, 0.6]))
    assert not is_simplex(np.array([-0.1, 1.1]))


def test_round_half_up():
    assert round_half_up(0.5) == 1
    assert round_half_up(1.5) == 2
    assert round_half_up(2.4999) == 2
    assert round_half_up(2.5) == 3
    assert round_half_up(0.0) == 0


def test_largest_remainder_example():
    counts = largest_remainder_counts(np.array([0.4, 0.4, 0.2]), 7)
    assert counts.sum() == 7
    assert np.array_equal(counts, [3, 3, 1])


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=500),
    st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=8),
)
def test_largest_remainder_properties(total, weights):
    probs = np.array(weights) / np.sum(weights)
    counts = largest_remainder_counts(probs, total)
    assert counts.sum() == total
    assert np.all(counts >= 0)
    assert np.all(np.abs(counts - probs * total) < 1.0)


def test_atomic_write_replaces_content(tmp_path):
    p = tmp_path / "f.txt"
    atomic_write_text(p, "one\n")
    atomic_write_text(p, "two\n")
    assert p.read_text() == "two\n"
    assert os.listdir(tmp_path) == ["f.txt"]


def test_atomic_write_bytes_roundtrip(tmp_path):
    p = tmp_path / "b.bin"
    atomic_write_bytes(p, b"\x00\xffpayload")
    assert p.read_bytes() == b"\x00\xffpayload"
