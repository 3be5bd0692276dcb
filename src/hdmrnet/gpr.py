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
`_solve`, factored in K's own memory and accepted when its backward error
is at most 8 eps; sigma, the requested noise, rises tenfold while the
factorization or that check fails.  No hyperparameter is optimized.  All
arithmetic is float64.

The Gram matrix and `_dual_sums`, the one exact evaluator of predictions,
components, table nodes and coupling terms, share one kernel routine, run
over fixed row blocks on every core of the affinity mask (no setting); fixed
block edges and feature order make results independent of the thread count.
Both read each training column in place (see :mod:`hdmrnet.coupling`).

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
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import (DatasetError, IllConditionedGramError, InvalidHyperparameterError,
                     ShapeError)

# Jitter escalation ceiling (fits needing more are refused), and the c of
# `_solve`'s acceptance rule: backward error at most c * eps.
MAX_JITTER = 1e-2
_BACKWARD_ERROR = 8.0
# M-vectors that `_solve` holds at most: the diagonal, the shifted diagonal,
# alpha, the residual, a vector of ones, and a product and its temporary.
_SOLVE_VECTORS = 7

# Rows per block of the kernel routine and of `_solve`'s products, the
# strict upper triangle of such a block, and threads that kernel blocks
# run on.
_BLOCK = 128
_UPPER = np.triu(np.ones((_BLOCK, _BLOCK), dtype=bool), 1)
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

    Ytrain: np.ndarray  # (M, F) training features, Fortran-ordered
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


def _map_blocks(n_items: int, work, step: int = _BLOCK) -> None:
    """Call work(spans) on up to `_THREADS` threads, where `spans` yields
    the fixed spans (i0, i1) of `step` items of range(n_items); the threads
    share one queue, each taking the next span until none is left, so the
    bookkeeping is one task per thread and `work` can set up per-thread
    scratch before its loop."""
    threads = min(_THREADS, -(-n_items // step))
    starts = itertools.count(0, step)
    lock = threading.Lock()
    def spans():
        while True:
            with lock:
                i0 = next(starts)
            if i0 >= n_items:
                return
            yield i0, min(i0 + step, n_items)
    if threads < 2:
        work(spans())
    else:
        with ThreadPoolExecutor(threads) as pool:
            for task in [pool.submit(work, spans()) for _ in range(threads)]:
                task.result()


# Ufunc buffering scratch, on contiguous operands too: two 8192-double buffers, 16 KiB objects.
_UFUNC_BYTES = 8 * (2 * 8192 + 2048)


def _kernel_scratch_bytes(n_train: int, tasks: float = math.inf) -> int:
    """Bytes that a kernel pass of `tasks` blocks against `n_train` rows holds
    besides its output: per thread, a (_BLOCK, n_train) buffer and `_UFUNC_BYTES`."""
    return min(_THREADS, tasks) * (8 * _BLOCK * n_train + _UFUNC_BYTES)


def _dual_sums(model: AdditiveGprModel, Y: np.ndarray, groups, start: float) -> np.ndarray:
    """(len(groups), n) array of start + sum_{j in group} sum_m alpha[m] *
    k(Y[r, j], Ytrain[m, j]), each group a sequence of feature indices.
    The threads share one queue of (group, row block) tasks, each thread
    with one block buffer, and add a group's features in order, so a
    value does not depend on the thread count or the other groups and rows.
    """
    inv = 1.0 / (2.0 * model.length_scale**2)
    blocks = -(-len(Y) // _BLOCK)
    out = np.full((len(groups), len(Y)), start)
    def work(tasks):
        buf = np.empty((min(_BLOCK, len(Y)), model.n_train))
        for task, _ in tasks:
            g, b = divmod(task, blocks)
            r0, r1 = b * _BLOCK, min(b * _BLOCK + _BLOCK, len(Y))
            for j in groups[g]:
                out[g, r0:r1] += _kernel(Y[r0:r1, j], model.Ytrain[:, j], inv,
                                         buf[:r1 - r0]) @ model.alpha
    _map_blocks(len(groups) * blocks, work, step=1)
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
    Yt = np.ascontiguousarray(Y.T)  # a view of Fortran-ordered features
    K = np.zeros((M, M))
    def work(blocks):
        scratch = np.empty(min(_BLOCK, M) * M)
        for r0, r1 in blocks:
            buf = scratch[:(r1 - r0) * (M - r0)].reshape(r1 - r0, M - r0)
            for y in Yt:
                K[r0:r1, r0:] += _kernel(y[r0:r1], y[r0:], inv, buf)
            K[r1:, r0:r1] = K[r0:r1, r1:].T
    _map_blocks(M, work)
    return K


def _diagonal_block(K: np.ndarray, r0: int, r1: int, block: np.ndarray) -> np.ndarray:
    """K[r0:r1, r0:r1] with its upper triangle mirrored from its strict
    lower one, in the scratch `block`; the diagonal is left as K has it."""
    n = r1 - r0
    square = block[:n * n].reshape(n, n)
    np.copyto(square, K[r0:r1, r0:r1])
    np.copyto(square, K[r0:r1, r0:r1].T, where=_UPPER[:n, :n])
    return square


def _symmetric_product(K: np.ndarray, diagonal: np.ndarray, v: np.ndarray,
                       block: np.ndarray) -> np.ndarray:
    """S @ v for the symmetric S with K's strict lower triangle and the
    given diagonal, read without K's upper triangle or diagonal.  The row
    blocks run in order, each as dgemv on its part left of the diagonal,
    on that part's transpose and on its mirrored diagonal block; unlike
    dsymv's, those bits do not depend on the BLAS thread count."""
    M = K.shape[0]
    out = np.zeros(M)
    for r0 in range(0, M, _BLOCK):
        r1 = min(r0 + _BLOCK, M)
        left = K[r0:r1, :r0]
        out[r0:r1] += left @ v[:r0]
        out[:r0] += left.T @ v[r0:r1]
        square = _diagonal_block(K, r0, r1, block)
        square.reshape(-1)[:: r1 - r0 + 1] = diagonal[r0:r1]
        out[r0:r1] += square @ v[r0:r1]
    return out


def _refill(K: np.ndarray, block: np.ndarray) -> None:
    """Copy K's strict lower triangle onto its upper one, where a factor was."""
    M = K.shape[0]
    for r0 in range(0, M, _BLOCK):
        r1 = min(r0 + _BLOCK, M)
        K[r0:r1, r1:] = K[r1:, r0:r1].T
        K[r0:r1, r0:r1] = _diagonal_block(K, r0, r1, block)


def _solve_scratch_bytes(n_train: int) -> int:
    """Bytes that `_solve` holds besides K and b: `_SOLVE_VECTORS` M-vectors
    and one diagonal block."""
    return 8 * (_SOLVE_VECTORS * n_train + min(_BLOCK, n_train) ** 2)


def _fit_bytes(n_train: int, n_features: int) -> int:
    """Bytes that a fit holds besides its features and targets: the Gram
    matrix, the centred targets and the kernel scratch that build it, more
    than `_solve_scratch_bytes`, then, once the Gram is freed, `Ytrain`'s copy."""
    M = n_train
    return 8 * M * (M + 1 + n_features) + _kernel_scratch_bytes(M, -(-M // _BLOCK))


def _solve(K: np.ndarray, b: np.ndarray, noise: float) -> tuple[np.ndarray, float]:
    """(alpha, sigma) with (K + sigma * I) alpha = b, by a Cholesky
    factorization in K's own memory; K is consumed.

    sigma starts at `noise` and rises by factors of 10 up to `MAX_JITTER`
    while factorization fails or the backward error eta = ||r|| / (||K||
    ||alpha|| + ||b||) of r = b - (K + sigma I) alpha, in the infinity norm
    (Higham, Accuracy and Stability of Numerical Algorithms, 7.1), exceeds
    c * eps; beyond that an error reports the final jitter.  A stable solve
    has eta = O(eps) however ill-conditioned K is: fits of M = 1 to 3000
    rows measured at most 0.41 eps, so c = 8 keeps a margin of 20.  K's
    entries are positive, so ||K|| is its largest column sum.

    `gram_matrix` makes K symmetric to the bit, so K.T, the Fortran-order
    view of K's buffer, is K.  Each try sets K's diagonal to the original
    one, kept in an M-vector, plus sigma, and dpotrf puts the factor L in
    that view's lower triangle, which is K's upper one; K's strict lower
    triangle stays intact, and `_symmetric_product` reads r and the column
    sums from it.  A failed try copies that triangle back over the factor.
    So a fit holds K and `_solve_scratch_bytes`, no second M x M buffer,
    and on return K's upper triangle holds the factor.  K and b must be
    finite: no LAPACK call checks them.
    """
    M = K.shape[0]
    diagonal = K.diagonal().copy()
    block = np.empty(min(_BLOCK, M) ** 2)
    sigma = noise
    while True:
        shifted = diagonal + sigma
        K.flat[:: M + 1] = shifted
        factor, info = dpotrf(K.T, lower=1, clean=0, overwrite_a=1)
        if info == 0:
            alpha = dpotrs(factor, b, lower=1)[0]
            residual = _symmetric_product(K, shifted, alpha, block)
            residual -= b
            norm_K = _symmetric_product(K, shifted, np.ones(M), block).max()
            eta = np.abs(residual).max() / (norm_K * np.abs(alpha).max() + np.abs(b).max())
            if eta <= _BACKWARD_ERROR * np.finfo(np.float64).eps:
                return alpha, sigma
        if sigma * 10.0 > MAX_JITTER * (1.0 + 1e-12):
            raise IllConditionedGramError(
                f"Gram matrix has no backward-stable Cholesky solve even at jitter {sigma:g} "
                f"(requested noise {noise:g})",
                final_jitter=sigma,
            )
        _refill(K, block)
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
        Ytrain=Y.copy(order="F"),
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
    return _dual_sums(model, Ystar, [range(model.n_features)], model.target_offset)[0]


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
    if u.ndim != 1:
        raise ShapeError(f"u must be a scalar or 1-D, got shape {u.shape}")
    return _dual_sums(model, np.broadcast_to(u[:, None], (u.size, model.n_features)),
                      [[feature_index]], 0.0)[0]


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
    values = _dual_sums(model, np.broadcast_to(u[:, None], (u.size, model.n_features)),
                        np.arange(model.n_features)[:, None], 0.0).T
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
    group a sequence of feature indices added in order over the fixed
    row blocks.  Rows whose features all lie in `TABLE_INTERVAL` read the
    activation table; every other row, and every row of a model without a
    table, takes one exact `_dual_sums` call for all groups.
    """
    table = model.activation_table
    if table is None:
        return _dual_sums(model, Y, groups, start)
    out = np.full((len(groups), Y.shape[0]), start)
    inside = np.empty(Y.shape[0], dtype=bool)
    def work(blocks):
        for r0, r1 in blocks:
            x = Y[r0:r1] - _CENTER
            x /= _HALF_WIDTH
            inside[r0:r1] = ((x >= -1.0) & (x <= 1.0)).all(axis=1)
            np.clip(x, -1.0, 1.0, out=x)  # keeps the fallback rows finite
            values = _clenshaw(table.coefficients, x)
            for acc, js in zip(out[:, r0:r1], groups):
                for j in js:
                    acc += values[:, j]
    _map_blocks(Y.shape[0], work)
    rows = np.flatnonzero(~inside)
    if rows.size:
        out[:, rows] = _dual_sums(model, Y[rows], groups, start)
    return out
