"""Shared numeric and I/O helpers.

All randomness in the package flows through `derive_rng`, which maps a tuple of
labels/integers to an independent, reproducible generator. Nothing reads the
wall clock or OS entropy.
"""
from __future__ import annotations

import hashlib
import json
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor

import numpy as np
from scipy.special import gammaln

__all__ = [
    "sha256_hex",
    "canonical_json",
    "fingerprint_ids",
    "derive_rng",
    "derive_seed",
    "gumbel_argmax",
    "running_sums",
    "inverse_cdf",
    "log_dirichlet",
    "log_dirichlet_pdf",
    "is_simplex",
    "largest_remainder_counts",
    "round_half_up",
    "atomic_write_bytes",
    "atomic_write_text",
    "parallel_map",
]


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical_json(obj) -> bytes:
    """Sorted keys, no spaces, no NaN or infinity: equal objects give equal bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False).encode("utf-8")


def fingerprint_ids(ids) -> str:
    """Content hash of an ordered identifier list (order-sensitive)."""
    return sha256_hex("\n".join(ids).encode("utf-8"))


def _entropy(parts) -> list[int]:
    digest = hashlib.sha256("\x1f".join(str(p) for p in parts).encode("utf-8")).digest()
    return [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)]


def derive_rng(*parts) -> np.random.Generator:
    """Independent generator keyed by an arbitrary tuple of labels and ints.

    The mapping is a stable hash, so the same parts give the same stream on
    every run and process, and distinct parts give unrelated streams.
    """
    return np.random.default_rng(_entropy(parts))


def derive_seed(*parts) -> int:
    """64-bit seed with the same keying scheme as `derive_rng` (for echoing)."""
    return _entropy(parts)[0]


def gumbel_argmax(rng: np.random.Generator, logw: np.ndarray, axis: int = -1) -> np.ndarray:
    """Exact categorical draws proportional to exp(logw) along `axis`.

    Cells at -inf are never selected. Rows that are entirely -inf are the
    caller's responsibility (argmax would silently return index 0).
    """
    g = rng.gumbel(size=logw.shape)
    return np.argmax(logw + g, axis=axis)


def running_sums(a: np.ndarray) -> np.ndarray:
    """Running sums down the rows of a (K, draws) array, in place.

    One vectorized add per row: the same left fold as a cumsum over each
    draw's K entries, without cumsum's strided walk down the columns.
    """
    rows = list(a)
    for prev, row in zip(rows, rows[1:]):
        np.add(prev, row, out=row)
    return a


def inverse_cdf(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per draw, the index of the first row whose cumulative weight exceeds u.

    cum holds (K, draws) running sums of non-negative weights, the total in
    its last row, and u lies in [0, total] up to rounding. A point that
    reaches the total is moved just below it, so a row of zero weight, whose
    cumulative value equals its predecessor's, is never returned. The move
    is one multiply by 1 - 2**-53, which lands on the next float down for
    every total above the smallest normal float; at or below it the total
    itself may be kept, so callers redraw such draws or keep totals above
    it. The last row is never compared, so the index is at most K - 1 even
    where the total is 0.
    """
    u = np.minimum(u, cum[-1] * (1.0 - 2.0 ** -53))
    return (cum[:-1] <= u).sum(axis=0)


def log_dirichlet(rng: np.random.Generator, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dirichlet draw returned as (values, log-values) along the last axis.

    When every concentration is at least 0.1, the gamma draws are normalized
    and then logged. Otherwise the draw works for arbitrarily small
    concentrations: shapes below 0.1 are sampled in log space
    (Gamma(a) = Gamma(a+1) * U^{1/a}), so log-values stay finite even when
    the linear values underflow to zero. A concentration of exactly 0 marks a
    structurally absent component: its value is 0 and its log-value -inf.
    Every row needs at least one positive concentration. Both paths make the
    same generator calls, so they differ only in rounding.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.min() >= 0.1:
        g = np.maximum(rng.standard_gamma(alpha), np.finfo(np.float64).tiny)
        x = g / g.sum(axis=-1, keepdims=True)
        return x, np.log(x)
    small = alpha < 0.1
    boosted = np.where(small, alpha + 1.0, alpha)
    g = rng.gamma(shape=boosted)
    log_g = np.log(np.maximum(g, np.finfo(np.float64).tiny))
    if np.any(small):
        u = 1.0 - rng.random(size=alpha.shape)  # strictly in (0, 1]
        log_g = np.where(small, log_g + np.log(u) / np.maximum(alpha, 1e-300), log_g)
    log_g = np.where(alpha > 0, log_g, -np.inf)
    norm = _logsumexp_last(log_g)
    log_x = log_g - norm[..., None]
    return np.exp(log_x), log_x


def log_dirichlet_pdf(logx: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Normalized log density of Dirichlet(alpha) at exp(logx), along the last axis.

    Taking log-values keeps the density finite where linear values underflow
    to 0 (see `log_dirichlet`). The two arguments broadcast against each
    other; every concentration must be positive.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    return (
        ((alpha - 1.0) * logx).sum(axis=-1)
        + gammaln(alpha.sum(axis=-1))
        - gammaln(alpha).sum(axis=-1)
    )


def _logsumexp_last(a: np.ndarray) -> np.ndarray:
    m = np.max(a, axis=-1)
    return m + np.log(np.sum(np.exp(a - m[..., None]), axis=-1))


def is_simplex(v: np.ndarray, tol: float = 1e-8) -> bool:
    v = np.asarray(v, dtype=np.float64)
    return bool(v.ndim == 1 and v.size >= 1 and np.all(v >= -tol) and abs(v.sum() - 1.0) <= tol)


def largest_remainder_counts(probs: np.ndarray, total: int) -> np.ndarray:
    """Apportion `total` into integer counts proportional to `probs`.

    Floors the quotas, then hands the leftover units to the largest
    remainders (ties broken toward the lower index, deterministically).
    """
    probs = np.asarray(probs, dtype=np.float64)
    quotas = probs / probs.sum() * total
    base = np.floor(quotas).astype(np.int64)
    leftover = total - int(base.sum())
    if leftover > 0:
        remainders = quotas - base
        order = np.lexsort((np.arange(len(probs)), -remainders))
        base[order[:leftover]] += 1
    return base


def round_half_up(x: float) -> int:
    """round() with deterministic half-up ties (3.5 -> 4), not banker's."""
    return int(np.floor(x + 0.5))


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via a temp file in the same directory plus atomic rename."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def parallel_map(fn, *iterables, workers: int = 1) -> list:
    """list(map(fn, *iterables)) over at most `workers` processes.

    Results come back in input order, so they do not depend on the worker
    count. With more than one process, fn and its arguments must pickle.
    """
    columns = [list(it) for it in iterables]
    processes = min(workers, *map(len, columns))
    if processes > 1:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            return list(pool.map(fn, *columns))
    return list(map(fn, *columns))
