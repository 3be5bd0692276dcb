"""First-order additive Gaussian process regression.

The kernel is a plain sum of one-dimensional squared-exponential kernels,
one per feature, all sharing a single length scale.  Because the kernel is
additive, the posterior mean is an additive function of the features: each
feature j owns a one-dimensional component function

    f_j(u) = sum_m alpha[m] * exp(-(u - Ytrain[m, j])^2 / (2 l^2))

and the full mean is f0 + sum_j f_j(y_j).  Those component functions are
the per-neuron activation functions of the network assembled in
:mod:`hdmrnet.model`.

Training is one Cholesky solve of (K + sigma * I) alpha = t - mean(t) in
`_solve`, where sigma is the requested noise unless that solve has to
escalate it; no hyperparameter is optimized.  All arithmetic is float64.

The Gram matrix, predictions and components share one kernel routine, run
over fixed row blocks on every core of the affinity mask (no setting); fixed
block edges and feature order make results independent of the thread count.

`compile_components` tabulates every component function as a Chebyshev
interpolant on the padded interval `TABLE_INTERVAL`, checked against the
exact components, so that a forward pass costs O(nodes) per feature instead
of O(M).  `activation_sums` evaluates the activations of predictions and
coupling terms alike: through the table where it applies, else exactly.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import (DatasetError, IllConditionedGramError, InvalidHyperparameterError,
                     ShapeError)

# Jitter escalation ceiling; fits needing more than this are refused.
MAX_JITTER = 1e-2

# Rows per block of the kernel routine, and threads that blocks run on.
_BLOCK = 128
_THREADS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)

# Scaled-feature interval that an activation table covers, the most nodes a
# table may have, and its accepted deviation per unit of sum |alpha|.
TABLE_INTERVAL = (-0.25, 1.25)
_MAX_NODES = 256
_TABLE_TOLERANCE = 1e-12
_CENTER = 0.5 * (TABLE_INTERVAL[0] + TABLE_INTERVAL[1])
_HALF_WIDTH = 0.5 * (TABLE_INTERVAL[1] - TABLE_INTERVAL[0])

_log = logging.getLogger("hdmrnet")


@dataclass
class AdditiveGprModel:
    """Fitted additive-kernel GPR in dual (kernel-expansion) form.

    `alpha` solves (K + effective_noise * I) alpha = t - target_offset,
    where K is the additive Gram matrix over `Ytrain`.  `effective_noise`
    equals `noise` unless jitter escalation was required.
    """

    Ytrain: np.ndarray  # (M, F) training features
    alpha: np.ndarray  # (M,) dual coefficients
    length_scale: float
    noise: float  # requested diagonal noise
    effective_noise: float  # noise actually used after escalation
    target_offset: float  # training-target mean, added back at prediction

    @property
    def n_train(self) -> int:
        return self.Ytrain.shape[0]

    @property
    def n_features(self) -> int:
        return self.Ytrain.shape[1]

    @property
    def jitter_escalated(self) -> bool:
        return self.effective_noise != self.noise

    @functools.cached_property
    def activation_table(self) -> ActivationTable | None:
        """`compile_components` of this model, built on first use and never stored."""
        return compile_components(self)


def _check_length_scale(length_scale: float) -> float:
    """The length scale as a float; the kernel's 1/(2 l^2) must be finite and > 0."""
    length_scale = float(length_scale)
    try:
        inv = 1.0 / (2.0 * length_scale**2)
    except (OverflowError, ZeroDivisionError):
        inv = math.nan
    if not (length_scale > 0.0 and 0.0 < inv < math.inf):
        raise InvalidHyperparameterError(
            f"length scale must be > 0 with 1/(2 l^2) a finite positive number, "
            f"got {length_scale}"
        )
    return length_scale


def _check_noise(noise: float) -> float:
    noise = float(noise)
    if not 0.0 < noise < math.inf:
        raise InvalidHyperparameterError(f"noise must be finite and > 0, got {noise}")
    return noise


def _check_features(Y) -> np.ndarray:
    """Y as a non-empty 2-D float64 matrix of finite values, checked in O(M F)
    before any Gram matrix is built."""
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2 or Y.shape[0] < 1:
        raise ShapeError(f"Y must be a non-empty 2-D matrix, got shape {Y.shape}")
    if not np.isfinite(Y).all():
        raise DatasetError("training features contain non-finite values")
    return Y


def kernel_1d(a, b, length_scale: float):
    """One-dimensional squared-exponential kernel exp(-(a-b)^2 / (2 l^2)).

    Accepts scalars or broadcastable arrays; symmetric, values in (0, 1].
    """
    length_scale = _check_length_scale(length_scale)
    d = np.subtract(a, b)
    return np.exp(-(d * d) / (2.0 * length_scale**2))


def kernel_additive(ya: np.ndarray, yb: np.ndarray, length_scale: float) -> float:
    """Additive kernel: sum over features of the one-dimensional kernels."""
    ya = np.asarray(ya, dtype=np.float64)
    yb = np.asarray(yb, dtype=np.float64)
    if ya.shape != yb.shape or ya.ndim != 1:
        raise ShapeError(f"feature vectors must be equal-length 1-D, got {ya.shape} and {yb.shape}")
    return float(np.sum(kernel_1d(ya, yb, length_scale)))


def _kernel(a: np.ndarray, b: np.ndarray, inv: float, out: np.ndarray) -> np.ndarray:
    """Fill `out` in place with exp(-(a[i] - b[j])^2 * inv) and return it."""
    np.subtract.outer(a, b, out=out)
    np.multiply(out, out, out=out)
    np.multiply(out, -inv, out=out)
    return np.exp(out, out=out)


def _map_blocks(n_rows: int, work) -> None:
    """Call work(r0, r1) on each fixed block of `_BLOCK` rows, on `_THREADS`
    threads that each take the next block until none is left, so the
    bookkeeping is one task per thread, not one per block."""
    threads = min(_THREADS, -(-n_rows // _BLOCK))
    starts = itertools.count(0, _BLOCK)
    lock = threading.Lock()
    def drain():
        while True:
            with lock:
                r0 = next(starts)
            if r0 >= n_rows:
                return
            work(r0, min(r0 + _BLOCK, n_rows))
    if threads < 2:
        drain()
    else:
        with ThreadPoolExecutor(threads) as pool:
            for task in [pool.submit(drain) for _ in range(threads)]:
                task.result()


def _kernel_scratch_bytes(n_train: int) -> int:
    """Bytes that one kernel pass against `n_train` training rows holds
    besides its output: per thread, a (_BLOCK, n_train) block buffer and
    numpy's two 8192-double ufunc buffers."""
    return _THREADS * 8 * (_BLOCK * n_train + 2 * 8192)


def _dual_sums(model: AdditiveGprModel, U: np.ndarray, Vt: np.ndarray,
               start: float) -> np.ndarray:
    """start + sum_j sum_m alpha[m] * k(U[r, j], Vt[j, m]) for each row r of U."""
    inv = 1.0 / (2.0 * model.length_scale**2)
    out = np.full(U.shape[0], start)
    def work(r0, r1):
        buf = np.empty((r1 - r0, Vt.shape[1]))
        for j in range(U.shape[1]):
            out[r0:r1] += _kernel(U[r0:r1, j], Vt[j], inv, buf) @ model.alpha
    _map_blocks(U.shape[0], work)
    return out


def gram_matrix(Y: np.ndarray, length_scale: float) -> np.ndarray:
    """Symmetric (M, M) Gram matrix of the additive kernel.

    Diagonal entries equal the feature count.  Only the upper triangle is
    computed; the lower is its mirror, so symmetry holds to the bit.
    """
    length_scale = _check_length_scale(length_scale)
    Y = _check_features(Y)
    inv = 1.0 / (2.0 * length_scale**2)
    M = Y.shape[0]
    Yt = np.ascontiguousarray(Y.T)
    K = np.zeros((M, M))
    def work(r0, r1):
        buf = np.empty((r1 - r0, M - r0))
        for y in Yt:
            K[r0:r1, r0:] += _kernel(y[r0:r1], y[r0:], inv, buf)
        K[r1:, r0:r1] = K[r0:r1, r1:].T
    _map_blocks(M, work)
    return K


def _solve(K: np.ndarray, b: np.ndarray, noise: float) -> tuple[np.ndarray, float]:
    """(alpha, sigma) with (K + sigma * I) alpha = b, by Cholesky.

    sigma starts at `noise` and rises by factors of 10 up to `MAX_JITTER`
    while factorization fails or, after up to two rounds of iterative
    refinement, the residual exceeds 1e-8 * ||b||; beyond that an error
    reports the final jitter.  Each try rewrites the diagonal of K in place
    and factors a copy of K in one Fortran-ordered (M, M) buffer that every
    try overwrites, so a fit holds K and that buffer, 16 M^2 bytes, and no
    more.  The copy is a plain memcpy of K's transpose, which is K itself
    because `gram_matrix` makes K symmetric to the bit.  Residuals use the
    intact K.  K and b must be finite: no LAPACK call checks them.
    """
    M = K.shape[0]
    diagonal = K.diagonal().copy()
    work = np.empty((M, M), order="F")
    b_norm = float(np.linalg.norm(b))
    sigma = noise
    while True:
        K.flat[:: M + 1] = diagonal + sigma
        work.T[...] = K
        try:
            factor = cho_factor(work, lower=True, overwrite_a=True, check_finite=False)
        except LinAlgError:
            pass
        else:
            alpha = cho_solve(factor, b, check_finite=False)
            resid = b - K @ alpha
            for _ in range(2):
                if np.linalg.norm(resid) <= 1e-9 * b_norm:
                    break
                alpha = alpha + cho_solve(factor, resid, check_finite=False)
                resid = b - K @ alpha
            if np.linalg.norm(resid) <= 1e-8 * b_norm:
                return alpha, sigma
        if sigma * 10.0 > MAX_JITTER * (1.0 + 1e-12):
            raise IllConditionedGramError(
                f"Gram matrix not positive definite even at jitter {sigma:g} "
                f"(requested noise {noise:g})",
                final_jitter=sigma,
            )
        sigma *= 10.0


def gpr_fit(
    Y: np.ndarray,
    t: np.ndarray,
    length_scale: float,
    noise: float = 1e-6,
) -> AdditiveGprModel:
    """Fit the additive GPR: `_solve` for the targets minus their mean,
    which is stored as the offset.  Zero-variance targets get alpha = 0
    and build no Gram matrix.  Non-finite features, or targets whose
    deviations from their mean are not all finite (a mean that overflows
    included), are refused with `DatasetError` before any Gram is built."""
    length_scale = _check_length_scale(length_scale)
    noise = _check_noise(noise)
    Y = _check_features(Y)
    t = np.asarray(t, dtype=np.float64).ravel()
    if t.shape[0] != Y.shape[0]:
        raise ShapeError(f"{t.shape[0]} targets for {Y.shape[0]} feature rows")

    with np.errstate(over="ignore", invalid="ignore"):
        offset = float(np.mean(t))
        b = t - offset
    if not np.isfinite(b).all():
        raise DatasetError("targets minus their mean are not all finite")
    if np.linalg.norm(b) == 0.0:
        alpha, sigma = np.zeros(Y.shape[0]), noise
    else:
        alpha, sigma = _solve(gram_matrix(Y, length_scale), b, noise)
    return AdditiveGprModel(
        Ytrain=Y.copy(),
        alpha=alpha,
        length_scale=length_scale,
        noise=noise,
        effective_noise=sigma,
        target_offset=offset,
    )


def gpr_predict(model: AdditiveGprModel, Ystar: np.ndarray) -> np.ndarray:
    """Posterior mean at each row of Ystar.

    Computed literally as the network forward pass: the offset plus the
    per-feature component functions summed in feature order.  Keeping the
    same accumulation structure as `gpr_component` makes the decomposition
    identity hold to rounding of the component values themselves, even for
    ill-conditioned fits with huge dual coefficients.
    """
    Ystar = np.asarray(Ystar, dtype=np.float64)
    if Ystar.ndim != 2 or Ystar.shape[1] != model.n_features:
        raise ShapeError(
            f"Ystar must be (n, {model.n_features}), got shape {Ystar.shape}"
        )
    return _dual_sums(model, Ystar, np.ascontiguousarray(model.Ytrain.T), model.target_offset)


def gpr_component(model: AdditiveGprModel, feature_index: int, u) -> np.ndarray:
    """Component function f_j evaluated on the grid `u`.

    f_j(u) = sum_m alpha[m] * k1(u, Ytrain[m, j]); summing components over
    all features and adding the offset reproduces `gpr_predict` exactly up
    to summation order.
    """
    if not 0 <= feature_index < model.n_features:
        raise IndexError(
            f"feature index {feature_index} out of range [0, {model.n_features})"
        )
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    return _dual_sums(model, u[:, None], model.Ytrain[None, :, feature_index], 0.0)


@dataclass(frozen=True)
class ActivationTable:
    """Chebyshev interpolants of every component function on `TABLE_INTERVAL`.

    Column j of `coefficients` holds the coefficients of f_j in the
    Chebyshev polynomials T_k(x), x = (u - 0.5) / 0.75.  `max_deviation`
    is sum_j max |table_j - f_j| over the points halfway (in angle) between
    the nodes; `compile_components` accepts a table only while it is at
    most `tolerance` = 1e-12 * sum_m |alpha_m|.
    """

    coefficients: np.ndarray  # (nodes, F)
    max_deviation: float
    tolerance: float

    @property
    def nodes(self) -> int:
        return self.coefficients.shape[0]


def _clenshaw(coefficients: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k coefficients[k, j] * T_k(x[r, j]) for each entry of x, by
    Clenshaw's recurrence; elementwise, so a row's values do not depend on
    the other rows."""
    x2 = x + x
    b1, b2, tmp = np.zeros_like(x), np.zeros_like(x), np.empty_like(x)
    for c in coefficients[:0:-1]:
        np.multiply(x2, b1, out=tmp)
        tmp -= b2
        tmp += c
        b1, b2, tmp = tmp, b1, b2
    np.multiply(x, b1, out=tmp)
    tmp -= b2
    tmp += coefficients[0]
    return tmp


def compile_components(model: AdditiveGprModel) -> ActivationTable | None:
    """One checked Chebyshev table per component function, or None.

    The table of f_j interpolates the exact `gpr_component` values at the
    n + 1 Chebyshev points of the second kind on `TABLE_INTERVAL`, with
    n = max(16, 8 * ceil(1.25 / l)): the kernel's width sets how many
    nodes resolve it.  The coefficients are a type-I DCT of the node
    values, summed node by node without BLAS, so the table's bytes do not
    depend on the thread count.  The deviation from the exact components,
    measured at the n points between the nodes and summed over the
    features, must be at most tau = 1e-12 * sum_m |alpha_m| (about 100
    times the exact path's own rounding); a table that fails the check, or
    one that would need more than `_MAX_NODES` nodes, is not built.
    """
    n = max(16, 8 * math.ceil(1.25 / model.length_scale))
    tolerance = _TABLE_TOLERANCE * float(np.abs(model.alpha).sum())
    if n + 1 > _MAX_NODES:
        _log.debug("activation table refused: l = %g needs %d nodes, more than %d",
                   model.length_scale, n + 1, _MAX_NODES)
        return None
    # Points cos(pi i / 2n): the even ones are the nodes, the odd ones lie
    # halfway between them and check the interpolant.
    x = np.cos(np.pi * np.arange(2 * n + 1) / (2 * n))
    u = _CENTER + _HALF_WIDTH * x
    values = np.empty((2 * n + 1, model.n_features))
    def work(j0, j1):
        for j in range(j0, j1):
            values[:, j] = gpr_component(model, j, u)
    _map_blocks(model.n_features, work)  # blocks of features, not rows
    # a_k = (2 / n) sum_i w_i v_i cos(pi i k / n), with w_i = 1/2 at the
    # two end nodes and 1 elsewhere, and a_0, a_n halved as well.
    k = np.arange(n + 1)
    cosines = np.cos(np.pi * (np.outer(k, k) % (2 * n)) / n) * (2.0 / n)
    cosines[:, [0, -1]] *= 0.5
    coefficients = np.zeros((n + 1, model.n_features))
    for i in k:
        coefficients += cosines[:, i, None] * values[2 * i]
    coefficients[[0, -1]] *= 0.5
    between = np.broadcast_to(x[1::2, None], (n, model.n_features))
    deviation = float(np.abs(_clenshaw(coefficients, between) - values[1::2])
                      .max(axis=0).sum())
    if not deviation <= tolerance:
        _log.debug("activation table refused: %d nodes deviate by %.3g, above %.3g",
                   n + 1, deviation, tolerance)
        return None
    _log.debug("activation table built: %d nodes, deviation %.3g, tolerance %.3g",
               n + 1, deviation, tolerance)
    return ActivationTable(coefficients, deviation, tolerance)


def activation_sums(model: AdditiveGprModel, Y: np.ndarray, groups, start: float) -> np.ndarray:
    """(len(groups), n) array of start + sum_{j in group} f_j(Y[r, j]), each
    group a list or slice of feature indices added in order over the fixed
    row blocks.  Rows whose features all lie in `TABLE_INTERVAL` read the
    activation table; every other row, and every row of a model without a
    table, takes one exact `_dual_sums` pass per group.
    """
    out = np.full((len(groups), Y.shape[0]), start)
    table = model.activation_table
    if table is not None:
        inside = np.empty(Y.shape[0], dtype=bool)
        def work(r0, r1):
            x = Y[r0:r1] - _CENTER
            x /= _HALF_WIDTH
            inside[r0:r1] = ((x >= -1.0) & (x <= 1.0)).all(axis=1)
            np.clip(x, -1.0, 1.0, out=x)  # keeps the fallback rows finite
            values = _clenshaw(table.coefficients, x)
            for acc, js in zip(out[:, r0:r1], groups):
                for column in values[:, js].T:
                    acc += column
        _map_blocks(Y.shape[0], work)
    rows = slice(None) if table is None else np.flatnonzero(~inside)
    U = Y[rows]  # a view of Y, or a copy of the fallback rows only
    if U.shape[0]:
        Vt = np.ascontiguousarray(model.Ytrain.T)
        for g, js in enumerate(groups):
            out[g, rows] = _dual_sums(model, U[:, js], Vt[js], start)
    return out
