"""Shared numeric and I/O helpers.

All randomness in the package flows through `derive_rng`, which maps a tuple of
labels/integers to an independent, reproducible generator. Nothing reads the
wall clock or OS entropy.

Importing this module loads numpy and the standard library only, and
`parallel_map` loads the process pool only when it starts one. The special
functions the samplers need (`gammaln`, `expit`) are numpy code here, so no
fedva command loads scipy.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile

import numpy as np

__all__ = [
    "TINY",
    "sha256_hex",
    "canonical_json",
    "fingerprint_ids",
    "derive_rng",
    "derive_seed",
    "gumbel_argmax",
    "running_sums",
    "inverse_cdf",
    "log_dirichlet",
    "gammaln",
    "expit",
    "log_dirichlet_norm",
    "log_dirichlet_pdf",
    "logsumexp",
    "is_simplex",
    "largest_remainder_counts",
    "round_half_up",
    "atomic_write_bytes",
    "atomic_write_text",
    "parallel_map",
]


TINY = np.finfo(np.float64).tiny  # the smallest normal float


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
    Every row needs at least one positive concentration. Both paths draw one
    gamma variate per cell; the log-space path then draws one uniform per
    cell as well, whether or not that cell's shape is below 0.1.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.min() >= 0.1:
        g = np.maximum(rng.standard_gamma(alpha), TINY)
        x = g / g.sum(axis=-1, keepdims=True)
        return x, np.log(x)
    small = alpha < 0.1
    boosted = np.where(small, alpha + 1.0, alpha)
    g = rng.standard_gamma(boosted)
    log_g = np.log(np.maximum(g, TINY))
    u = 1.0 - rng.random(size=alpha.shape)  # strictly in (0, 1]
    log_g = np.where(small, log_g + np.log(u) / np.maximum(alpha, 1e-300), log_g)
    log_g = np.where(alpha > 0, log_g, -np.inf)
    norm = logsumexp(log_g)
    log_x = log_g - norm[..., None]
    return np.exp(log_x), log_x


# The Lanczos (1964, SIAM J. Numer. Anal. B 1:86) series with g = 7 and the
# widely published nine coefficients: a(x) = c0 + sum_k c_k / (x + k), k = 1..8
_LANCZOS_G = 7.0
_LANCZOS_C0 = 0.99999999999980993
_LANCZOS_CK = np.array([
    676.5203681218851, -1259.1392167224028, 771.32342877765313, -176.61502916214059,
    12.507343278686905, -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7,
])[:, None]
_LANCZOS_K = np.arange(1.0, 9.0)[:, None]
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def gammaln(x) -> np.ndarray:
    """log Gamma(x), elementwise, for positive x.

    The Lanczos series gives Gamma(x + 1) = sqrt(2 pi) t^(x + 1/2) e^-t a(x)
    with t = x + g + 1/2, and Gamma(x) = Gamma(x + 1) / x is taken as
    log a - log x, so x down to 1e-300 stays finite. Agrees with
    `math.lgamma` to 1e-13 * max(1, |lgamma(x)|) on [1e-300, 1e100]. The
    eight series terms of every element are one (8, size) array, so the
    cost is a dozen ufunc calls whatever the size.
    """
    x = np.asarray(x, dtype=np.float64)
    terms = _LANCZOS_K + x.reshape(-1)
    np.divide(_LANCZOS_CK, terms, out=terms)
    a = terms.sum(axis=0).reshape(x.shape) + _LANCZOS_C0
    t = x + (_LANCZOS_G + 0.5)
    return _HALF_LOG_2PI + (x + 0.5) * np.log(t) - t + np.log(a) - np.log(x)


def expit(x) -> np.ndarray:
    """The logistic function 1 / (1 + exp(-x)), elementwise.

    Below x = -709 exp(-x) overflows to inf and the value is 0, without the
    overflow warning.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def log_dirichlet_norm(alpha: np.ndarray) -> np.ndarray:
    """log Gamma(sum alpha) - sum log Gamma(alpha) along the last axis.

    The Dirichlet log normalizer, from one `gammaln` call over the row
    totals and the cells together.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    lg = gammaln(np.concatenate([alpha, alpha.sum(axis=-1, keepdims=True)], axis=-1))
    return lg[..., -1] - lg[..., :-1].sum(axis=-1)


def log_dirichlet_pdf(logx: np.ndarray, alpha: np.ndarray,
                      log_norm: np.ndarray | None = None) -> np.ndarray:
    """Normalized log density of Dirichlet(alpha) at exp(logx), along the last axis.

    Taking log-values keeps the density finite where linear values underflow
    to 0 (see `log_dirichlet`). The two arguments broadcast against each
    other; every concentration must be positive. `log_norm` is alpha's
    `log_dirichlet_norm`, computed here unless the caller has it already.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if log_norm is None:
        log_norm = log_dirichlet_norm(alpha)
    return ((alpha - 1.0) * logx).sum(axis=-1) + log_norm


def logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) along the last axis, shifted by each row's maximum.

    A row whose maximum is not finite is shifted by 0 instead, so an all -inf
    row gives -inf without a warning, as scipy's `logsumexp` does.
    """
    m = np.max(a, axis=-1)
    if np.isfinite(m).all():
        return m + np.log(np.sum(np.exp(a - m[..., None]), axis=-1))
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
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
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=processes) as pool:
            return list(pool.map(fn, *columns))
    return list(map(fn, *columns))
