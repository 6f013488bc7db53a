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
    is_simplex,
    largest_remainder_counts,
    log_dirichlet,
    round_half_up,
    sha256_hex,
)


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
