"""First-order additive Gaussian process regression.

The kernel is a plain sum of one-dimensional squared-exponential kernels,
one per feature, all sharing a single length scale.  Because the kernel is
additive, the posterior mean is an additive function of the features: each
feature j owns a one-dimensional component function

    f_j(u) = sum_m alpha[m] * exp(-(u - Ytrain[m, j])^2 / (2 l^2))

and the full mean is f0 + sum_j f_j(y_j).  Those component functions are
the per-neuron activation functions of the network assembled in
:mod:`hdmrnet.model`.

`gpr_fit` solves (K + sigma * I) alpha = t - mean(t) for the dual
coefficients alpha once; no hyperparameter is optimized, and all
arithmetic is float64.  Where each decision lives: `_route` picks how K is
built and solved; `_kernel_factor` builds the low-rank factor of the 1-D
kernel on [0, 1], and `_factor_matrix` fills its G_j; `gram_matrix` builds
K; `_solve` and `_low_rank_solve` are the two solve routes, and
`_escalate` their one Cholesky loop, which accepts a try or raises sigma.
`compile_components` tabulates the component functions, as A mu_j: A the
2-D interpolant of the kernel (`_table_matrix`) at degrees that a bound
proves (`_table_degrees`), mu_j the Chebyshev moments of alpha over
feature j (`_moments`), with no kernel evaluated at a table node.
`activation_sums` evaluates the tables for predictions and coupling terms
alike, taking the features of each block of rows from a callback: a
prediction holds its points, its output and a fixed block per thread,
never n x F features.  README.md tells the same story with its
measurements.

The three blocked kernels, the exact loop of `gram_matrix`, `_dual_sums`
and the forward blocks of `activation_sums`, run on one thread pool per
process (`_kernel_pool`), started on first use and shared by every later
call and by concurrent callers, such as a sweep's cells.  A call starts no
thread of its own, so a long-lived process does not leave each call's
freed memory in heaps of threads that have since exited.  A forked child
forgets its parent's pool, whose workers it does not have, and starts its
own.  Work run on the pool never dispatches to it.

The four BLAS and LAPACK routines of a fit, `dsyrk`, `dgemv`, `dpotrf` and
`dpotrs`, come from scipy's two f2py extension modules that define them,
`scipy.linalg._fblas` and `scipy.linalg._flapack`, which `_wrapper` loads
at a fit's first solve (in `gram_matrix`'s factor branch, `_escalate`,
`_solve` or `_low_rank_solve`), never at import: so importing the package
loads numpy only.  They are the very objects that `scipy.linalg.blas` and
`scipy.linalg.lapack` export, but `_wrapper` loads them without running
`scipy.linalg`'s package import, which on a 2-core x86_64 machine (numpy
2.4.6, scipy 1.17.1) took 0.23-0.24 s and 28 MB of peak RSS after numpy's
own import, most of it in scipy's array-API shim, against 11-15 ms and
4.4 MB for `import scipy` and the two modules.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import itertools
import logging
import math
import operator
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .errors import (DatasetError, IllConditionedGramError, InvalidHyperparameterError,
                     ShapeError, _real)

# Jitter escalation ceiling (fits needing more are refused), and the c of
# `_escalate`'s acceptance rule: backward error at most c * eps.
MAX_JITTER = 1e-2
_BACKWARD_ERROR = 8.0
_EPS = float(np.finfo(np.float64).eps)
# Refinement steps of a `_low_rank_solve` try.
_REFINE_STEPS = 5

# Rows per block of the kernel routine and of `_solve`'s products, the
# strict upper triangle of such a block, and threads that kernel blocks
# run on.
_BLOCK = 128
_UPPER = np.triu(np.ones((_BLOCK, _BLOCK), dtype=bool), 1)
_THREADS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)

# The factor route of `gram_matrix`: the largest accepted eps_1 (at l >= 1/6,
# where both bounds hold, eps_1 is below 4e-15, the product's own rounding),
# the highest Chebyshev degree (a block's product, at most 41^2 * 128
# multiply-adds, is under the 4 * 65536 from which OpenBLAS threads a
# dgemm), the rows of one G panel, the points per side of the grid that
# measures eps_1, and the grid rows per block of that measurement.
_FACTOR_BOUND = 1e-14
_MAX_DEGREE = 40
_PANEL = 128
_GRID = 256
_GRID_BLOCK = 8

# Scaled-feature interval that an activation table covers, the most nodes a
# table may have, its accepted deviation per unit of sum |alpha|, the share
# of that which its degrees' proved bound may take, the points of its
# variable x = (u - 0.5) / 0.75 at which it is probed, the log rho of the
# Bernstein ellipses that its bound tries, the entries (rows x F) that a
# forward block of `activation_sums` spans, and those of a block of
# `_moments`.
TABLE_INTERVAL = (-0.25, 1.25)
_MAX_NODES = 256
_TABLE_TOLERANCE = 1e-12
_BOUND_SHARE = 0.1
_PROBES = np.cos(np.pi * np.arange(1, 8, 2) / 8)
_LOG_RHO = np.geomspace(2.0**-12, 16.0, 2048)
_FORWARD_ENTRIES = 2**15
_MOMENT_ENTRIES = 2**14
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

    @functools.cached_property
    def activation_table(self) -> ActivationTable | None:
        """`compile_components` of this model, built on first use and never stored."""
        return compile_components(self)


def _check_length_scale(length_scale, name: str = "length scale",
                        error=InvalidHyperparameterError) -> float:
    """The length scale as a float, by `errors._real`, in [2^-511, 2^511]:
    there 2 l^2 is a normal float and the kernel's 1/(2 l^2) is finite and
    nonzero.  `name` and `error` name the setting and its refusal."""
    return _real(name, length_scale, 2.0**-511, 2.0**511, error)


def _check_noise(noise, name: str = "noise", error=InvalidHyperparameterError) -> float:
    """The noise level as a float, by `errors._real`: finite and at least the
    least positive float."""
    return _real(name, noise, math.ulp(0.0), error=error)


def _check_features(Y) -> np.ndarray:
    """Y as a non-empty 2-D float64 matrix of finite values, checked in O(M F)
    before any Gram matrix is built."""
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2 or Y.shape[0] < 1:
        raise ShapeError(f"Y must be a non-empty 2-D matrix, got shape {Y.shape}")
    if not np.isfinite(Y).all():
        raise DatasetError("training features contain non-finite values")
    return Y


def _check_points(P, width: int, name: str) -> np.ndarray:
    """P as float64 (n, width) points, all finite, or the refusal of the
    points called `name`: the one check of `gpr_predict`'s and
    `hdmr_predict`'s points."""
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2 or P.shape[1] != width:
        raise ShapeError(f"{name} must be (n, {width}), got shape {P.shape}")
    if not np.isfinite(P).all():
        raise DatasetError(f"{name} contains non-finite values")
    return P


def _kernel(a: np.ndarray, b: np.ndarray, length_scale: float, out: np.ndarray) -> np.ndarray:
    """Fill `out` in place with exp(-(a[i] - b[j])^2 / (2 l^2)) and return it."""
    np.subtract.outer(a, b, out=out)
    np.multiply(out, out, out=out)
    np.multiply(out, -1.0 / (2.0 * length_scale**2), out=out)
    return np.exp(out, out=out)


# The process's kernel pool as (executor, workers), the lock that guards
# it, and the lock under which `_wrapper` loads a module; `_after_fork`
# resets all three in a forked child, which a lock held by another thread
# at the fork would otherwise block for good.
_pool: tuple[ThreadPoolExecutor, int] | None = None
_pool_lock = threading.Lock()
_wrapper_lock = threading.Lock()


def _after_fork() -> None:
    global _pool, _pool_lock, _wrapper_lock
    _pool, _pool_lock, _wrapper_lock = None, threading.Lock(), threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork)


def _wrapper(name: str):
    """scipy's f2py extension module `scipy.linalg.<name>`, `_fblas` or
    `_flapack`, loaded from its file in scipy's `linalg` directory without
    running `scipy/linalg/__init__.py`.

    The top-level `scipy` package is imported first, for the wheel's own
    start-up code.  A module already in `sys.modules`, scipy's own or one
    loaded here, is returned as it is; one loaded here is put there under
    its own name, so a later `import scipy.linalg` reuses it and exports
    the same routine objects (the package then has no attribute for it,
    which scipy reads only by import).  The lock makes concurrent first fits, such
    as a cold sweep's cells, load each module once.  A missing file is an
    `ImportError` that names it.
    """
    qualified = f"scipy.linalg.{name}"
    with _wrapper_lock:
        if (module := sys.modules.get(qualified)) is not None:
            return module
        import scipy
        directory = os.path.join(scipy.__path__[0], "linalg")
        files = [os.path.join(directory, name + suffix)
                 for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        path = next(filter(os.path.isfile, files), None)
        if path is None:
            raise ImportError(f"scipy's {qualified} is missing: none of "
                              f"{', '.join(files)} exists", name=qualified)
        loader = importlib.machinery.ExtensionFileLoader(qualified, path)
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_file_location(qualified, path, loader=loader))
        loader.exec_module(module)
        sys.modules[qualified] = module
        return module


def _kernel_pool() -> ThreadPoolExecutor:
    """The process's one executor of kernel work, with `_THREADS` workers
    as `_THREADS` reads at the call: built on first use, and again if
    `_THREADS` has changed since (the old executor's idle workers exit
    once it is dropped).  A forked child holds its parent's executor but
    none of its workers, so a task submitted there would never run;
    `_after_fork`, run in every forked child, has it build its own."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[1] != _THREADS:
            _pool = ThreadPoolExecutor(_THREADS, thread_name_prefix="hdmrnet-kernel"), _THREADS
        return _pool[0]


def _map_blocks(n_items: int, work, step: int = _BLOCK) -> None:
    """Call work(spans) on up to `_THREADS` threads, where `spans` yields
    the fixed spans (i0, i1) of `step` items of range(n_items); the threads
    share one queue, each taking the next span until none is left, so the
    bookkeeping is one task per thread and `work` can set up per-thread
    scratch before its loop.

    A call that needs k >= 2 threads submits k tasks to `_kernel_pool`, the
    process's one executor (a forked child's own, never its parent's), and
    waits for them; with one, it runs `work` itself.  `work` must never
    call `_map_blocks`: its tasks would queue behind the workers that wait
    for them, and a shared pool could deadlock.  Concurrent calls share
    the workers, their tasks queueing in submission order."""
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
        pool = _kernel_pool()
        tasks = [pool.submit(work, spans()) for _ in range(threads)]
        wait(tasks)  # all of them, before a failed one raises
        for task in tasks:
            task.result()


# Ufunc buffering scratch, on contiguous operands too: two 8192-double buffers, 16 KiB objects.
_UFUNC_BYTES = 8 * (2 * 8192 + 2048)


def _kernel_scratch_bytes(n_train: int) -> int:
    """Bytes that a kernel pass against `n_train` rows holds besides its
    output: per thread, a (_BLOCK, n_train) buffer and `_UFUNC_BYTES`."""
    return _THREADS * (8 * _BLOCK * n_train + _UFUNC_BYTES)


def _dual_sums(model: AdditiveGprModel, Y: np.ndarray, groups, start: float) -> np.ndarray:
    """(len(groups), n) array of start + sum_{j in group} sum_m alpha[m] *
    k(Y[r, j], Ytrain[m, j]), each group a sequence of feature indices.
    The threads share one queue of (group, row block) tasks, each thread
    with one block buffer, and add a group's features in order, so a
    value does not depend on the thread count, the other groups or the rows
    outside its `_BLOCK`-row block; within a block, the product's BLAS call
    may give a row other bits at another place or block size.
    """
    blocks = -(-len(Y) // _BLOCK)
    out = np.full((len(groups), len(Y)), start)
    def work(tasks):
        buf = np.empty((min(_BLOCK, len(Y)), model.n_train))
        with np.errstate(over="ignore"):  # per thread; a huge y: (y - Y)^2 = inf, k = 0
            for task, _ in tasks:
                g, b = divmod(task, blocks)
                r0, r1 = b * _BLOCK, min(b * _BLOCK + _BLOCK, len(Y))
                for j in groups[g]:
                    out[g, r0:r1] += _kernel(Y[r0:r1, j], model.Ytrain[:, j],
                                             model.length_scale, buf[:r1 - r0]) @ model.alpha
    _map_blocks(len(groups) * blocks, work, step=1)
    return out


def _factor_degree(length_scale: float) -> int:
    """Chebyshev degree n of `_kernel_factor` at this length scale."""
    return 10 + math.ceil(5.0 / length_scale)


@dataclass(frozen=True)
class _KernelFactor:
    """k(u, v) ~= g(u) . g(v) for u, v in [0, 1], with g(u) = Rt @ T(2u - 1)
    and T(x) the Chebyshev polynomials of degree 0..n at x; `error` is
    eps_1, the largest |k - g . g| on a grid of `_GRID` points per side, a
    measurement and not a bound."""

    Rt: np.ndarray  # (r, n + 1), R transposed
    error: float

    @property
    def degree(self) -> int:
        return self.Rt.shape[1] - 1

    @property
    def rank(self) -> int:
        return self.Rt.shape[0]

    @property
    def panel(self) -> int:
        """Features per G panel: fixed for a length scale, since K's bits
        depend on the panel width."""
        return _PANEL // self.rank


@functools.lru_cache(maxsize=32)
def _kernel_factor(length_scale: float) -> _KernelFactor:
    """The 1-D kernel's factor on [0, 1], built once per length scale.

    The kernel at the n + 1 Chebyshev points u_i = (1 + cos(pi i / n)) / 2
    gives its 2-D Chebyshev coefficients A = C K C^T, C the `_dct` with
    its first and last rows halved, as in `_table_matrix`.  Of A = V
    diag(w) V^T, the pairs with w > 1e-16 max w make R = V_r
    diag(w_r)^(1/2), so k(u, v) ~= T(u)^T R R^T T(v).
    Every product here is too small for OpenBLAS to thread, so R does not
    depend on the thread count.  The error is measured `_GRID_BLOCK` grid
    rows at a time, within `_fit_bytes`'s headroom.
    """
    n = _factor_degree(length_scale)
    nodes = 0.5 + 0.5 * np.cos(np.pi * np.arange(n + 1) / n)
    dct = _dct(n)
    dct[[0, -1]] *= 0.5
    w, V = np.linalg.eigh(dct @ _kernel(nodes, nodes, length_scale, np.empty((n + 1,) * 2)) @ dct.T)
    keep = w > 1e-16 * w[-1]
    Rt = np.ascontiguousarray((V[:, keep] * np.sqrt(w[keep])).T)
    Rt.flags.writeable = False  # shared by every caller of the cache
    grid = np.linspace(0.0, 1.0, _GRID)
    g = _factor_rows(Rt, grid, np.empty((n + 1, _GRID)), np.empty((Rt.shape[0], _GRID)))
    k, gg = np.empty((_GRID_BLOCK, _GRID)), np.empty((_GRID_BLOCK, _GRID))
    error = 0.0
    for i0 in range(0, _GRID, _GRID_BLOCK):
        _kernel(grid[i0:i0 + _GRID_BLOCK], grid, length_scale, k)
        k -= np.matmul(g[:, i0:i0 + _GRID_BLOCK].T, g, out=gg)
        error = max(error, float(np.abs(k, out=k).max()))
    return _KernelFactor(Rt, error)


def _factor_rows(Rt: np.ndarray, y: np.ndarray, T: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill `out` (r, len(y)) with g(y_i) = Rt @ T(2 y_i - 1) for each entry
    of y, and return it; T (n + 1, len(y)) is the buffer that the Chebyshev
    recurrence fills.  The product runs once per fixed block of `_BLOCK`
    entries, each too small for OpenBLAS to thread, so the bits do not
    depend on the BLAS thread count."""
    T[0] = 1.0
    np.multiply(y, 2.0, out=T[1])
    T[1] -= 1.0
    x2 = T[1] + T[1]
    for k in range(1, T.shape[0] - 1):
        np.multiply(x2, T[k], out=T[k + 1])
        T[k + 1] -= T[k - 1]
    for i0 in range(0, len(y), _BLOCK):
        np.matmul(Rt, T[:, i0:i0 + _BLOCK], out=out[:, i0:i0 + _BLOCK])
    return out


def _in_unit_interval(Y: np.ndarray) -> bool:
    """Whether Y has entries and all of them lie in [0, 1], where the factor holds."""
    return Y.size > 0 and 0.0 <= Y.min() <= Y.max() <= 1.0


def _route(n_train: int, n_features: int, length_scale: float,
           unit: bool = True) -> tuple[_KernelFactor | None, bool, str]:
    """How a fit of `n_train` rows of `n_features` features is built and
    solved at this length scale, `unit` telling whether every feature lies
    in [0, 1], as `hdmr_fit`'s scaled ones do: (factor, low_rank, why).

    `factor` is the kernel factor that the fit is built from, or None for
    the exact loop, whose reason `why` gives.  `low_rank` is F r < M, where
    `_low_rank_solve` builds no M x M Gram.  The one owner of the route:
    `gpr_fit` takes it, `gram_matrix` its Gram part, and `_fit_bytes`
    counts it.
    """
    n = _factor_degree(length_scale)
    if n > _MAX_DEGREE:
        return None, False, (f"l = {length_scale:g} is too small for the factor "
                             f"(degree {n} > {_MAX_DEGREE})")
    if not unit:
        return None, False, "features not all in [0, 1]"
    factor = _kernel_factor(length_scale)
    if factor.error > _FACTOR_BOUND:
        return None, False, (f"l = {length_scale:g} is too small for the factor "
                             f"(eps_1 = {factor.error:.3g} > {_FACTOR_BOUND:g})")
    return factor, n_features * factor.rank < n_train, ""


def gram_matrix(Y: np.ndarray, length_scale: float) -> np.ndarray:
    """Symmetric (M, M) Gram matrix of the additive kernel, built on the
    route that `_route` picks, which is logged.

    Diagonal entries equal the feature count.  Only one triangle is
    computed; the other is its mirror, so symmetry holds to the bit.  On
    the factor route K = sum_j G_j^T G_j accumulates by `dsyrk` into one
    Fortran-ordered buffer, one panel of G_j from `_factor_matrix` at a
    time, and the C-ordered view of that buffer is returned; each entry
    differs from the exact one by about F eps_1 at most, plus `dsyrk`'s
    rounding.  Otherwise the exact loop fills K, one row block of the upper
    triangle at a time.
    """
    length_scale = _check_length_scale(length_scale)
    Y = _check_features(Y)
    M, F = Y.shape
    factor, _, why = _route(M, F, length_scale, _in_unit_interval(Y))
    if factor is not None:
        dsyrk = _wrapper("_fblas").dsyrk
        _log.debug("Gram: factor route, n = %d, r = %d, eps_1 = %.3g, %d panels",
                   factor.degree, factor.rank, factor.error, -(-F // factor.panel))
        G = np.empty((min(factor.panel, F), factor.rank, M))
        K = np.zeros((M, M), order="F")
        for j0 in range(0, F, factor.panel):
            panel = _factor_matrix(Y[:, j0:j0 + factor.panel], factor, G)
            K = dsyrk(1.0, panel.T, beta=1.0, c=K, lower=0, overwrite_c=1)
        K = K.T
        _refill(K)
        K.flat[:: M + 1] = F
        return K
    _log.debug("Gram: exact route, %s", why)
    Yt = np.ascontiguousarray(Y.T)  # a view of Fortran-ordered features
    K = np.zeros((M, M))
    def work(blocks):
        scratch = np.empty(min(_BLOCK, M) * M)
        for r0, r1 in blocks:
            buf = scratch[:(r1 - r0) * (M - r0)].reshape(r1 - r0, M - r0)
            for y in Yt:
                K[r0:r1, r0:] += _kernel(y[r0:r1], y[r0:], length_scale, buf)
            K[r1:, r0:r1] = K[r0:r1, r1:].T
    _map_blocks(M, work)
    return K


def _factor_matrix(Y: np.ndarray, factor: _KernelFactor, out: np.ndarray) -> np.ndarray:
    """Fill out[:k], for Y's k columns, with G_j = [g(Y[m, j])]_m (r, M)
    of each column j, through one (n + 1, M) Chebyshev buffer, and return
    the (k r, M) view of out[:k]: B^T for all F features, or one panel of
    it.  The one fill of G_j, for the Gram and the low-rank route alike."""
    M, k = Y.shape
    T = np.empty((factor.degree + 1, M))
    for j in range(k):
        _factor_rows(factor.Rt, Y[:, j], T, out[j])
    return out[:k].reshape(-1, M)


def _symmetric_product(K: np.ndarray, diagonal: np.ndarray, v: np.ndarray) -> np.ndarray:
    """S @ v for the symmetric S with K's strict lower triangle and the
    given diagonal, read without K's upper triangle or diagonal, and
    writing nothing into K.  The row blocks run in order, each as dgemv on
    its part left of the diagonal, on that part's transpose and on a copy
    of its diagonal block, mirrored there; unlike dsymv's, those bits do
    not depend on the BLAS thread count."""
    M = K.shape[0]
    out = np.zeros(M)
    for r0 in range(0, M, _BLOCK):
        r1 = min(r0 + _BLOCK, M)
        left = K[r0:r1, :r0]
        out[r0:r1] += left @ v[:r0]
        out[:r0] += left.T @ v[r0:r1]
        square = K[r0:r1, r0:r1].copy()
        _mirror(K[r0:r1, r0:r1], square)
        square.flat[:: r1 - r0 + 1] = diagonal[r0:r1]
        out[r0:r1] += square @ v[r0:r1]
    return out


def _refill(K: np.ndarray) -> None:
    """Copy K's strict lower triangle onto its upper one: where a failed
    Cholesky factor was, or what `dsyrk` left unset."""
    M = K.shape[0]
    for r0 in range(0, M, _BLOCK):
        r1 = min(r0 + _BLOCK, M)
        K[r0:r1, r1:] = K[r1:, r0:r1].T
        _mirror(K[r0:r1, r0:r1], K[r0:r1, r0:r1])


def _mirror(square: np.ndarray, out: np.ndarray) -> None:
    """Set the strict upper triangle of `out`, a block of `square`'s shape
    or `square` itself, to the mirror of `square`'s strict lower one."""
    np.copyto(out, square.T, where=_UPPER[:len(square), :len(square)])


# `_fit_bytes`'s headroom: the factor's one-time check (at most 419,496 bytes,
# at n = 40), the two 128 x 128 blocks that `_symmetric_product` may hold
# as it copies a diagonal block, or the one that numpy buffers for `_refill`
# to mirror one in place, the cached factor and numpy's scratch.
_HEADROOM = 2**20


def _fit_bytes(n_train: int, n_features: int, length_scale: float) -> int:
    """Bytes that `gpr_fit` holds besides its features and targets, for
    features in [0, 1] as `hdmr_fit`'s are, by the dominant terms of the
    route that `_route` picks: B^T and C; or the Gram with a G panel or the
    exact loop's blocks.  Then M-vectors, the centred targets plus the
    solve's seven or the factor's n + 2 that fill G_j (more, and freed
    first), and `_HEADROOM`."""
    M = n_train
    factor, low_rank, _ = _route(M, n_features, length_scale)
    vectors = 8 * M * (8 if factor is None else factor.degree + 3)
    if factor is None:
        matrices = 8 * M * M + _kernel_scratch_bytes(M)
    elif low_rank:
        FR = n_features * factor.rank
        matrices = 8 * FR * (M + FR)
    else:
        matrices = 8 * M * (M + _PANEL)
    return matrices + vectors + _HEADROOM


def _escalate(A: np.ndarray, noise: float, solve, route: str,
              bound) -> tuple[np.ndarray, float]:
    """(alpha, sigma) of the first accepted Cholesky solve with A + sigma I,
    sigma starting at `noise` and rising by factors of 10 up to
    `MAX_JITTER`; beyond that an error reports the final jitter.  The one
    factorization of both routes: A is K on the Gram route and C = B^T B
    on the low-rank one, and A is consumed.

    A is C-ordered and symmetric to the bit, so A.T, the Fortran-order view
    of its buffer, is A.  Each try sets A's diagonal to the original one,
    kept in a vector, plus sigma, and dpotrf puts the factor L in that
    view's lower triangle, which is A's upper one; A's strict lower
    triangle stays intact, and a failed try copies it back over the factor.
    So a fit holds no second copy of A.  A must be finite: no LAPACK call
    checks it.  dpotrf's bits depend on the BLAS thread count from 128 rows
    on, so only a low-rank fit with F r < 128 does not; its other BLAS
    calls, `dsyrk`, `dgemv` and `dpotrs`, never do.

    `solve(factor, sigma, shifted)`, given the factor and the shifted
    diagonal, returns (alpha, refinement steps, eta), with eta = ||r|| /
    (||K + sigma I|| ||alpha|| + ||b||) the backward error of r = b - (K +
    sigma I) alpha for the route's Gram K (B B^T on the low-rank route), in
    the infinity norm (Higham, Accuracy and Stability of Numerical
    Algorithms, 7.1).  A try is accepted when eta <= c eps.  A stable solve
    has eta = O(eps) however ill-conditioned K is: fits of M = 1 to 3000
    rows measured at most 0.41 eps, so c = 8 keeps a margin of 20.  A try
    runs with overflow ignored, and also fails unless `bound(alpha)`, the
    model's `_prediction_bound`, is finite.  The accepted try is logged
    with the route's name.
    """
    dpotrf = _wrapper("_flapack").dpotrf
    n = A.shape[0]
    diagonal = A.diagonal().copy()
    sigma = noise
    while True:
        shifted = diagonal + sigma
        A.flat[:: n + 1] = shifted
        factor, info = dpotrf(A.T, lower=1, clean=0, overwrite_a=1)
        if info == 0:
            with np.errstate(over="ignore", invalid="ignore"):
                alpha, steps, eta = solve(factor, sigma, shifted)
            if eta <= _BACKWARD_ERROR * _EPS and math.isfinite(bound(alpha)):
                break
        _refill(A)
        if sigma * 10.0 > MAX_JITTER * (1.0 + 1e-12):
            raise IllConditionedGramError(
                f"Gram matrix has no backward-stable Cholesky solve even at jitter {sigma:g} "
                f"(requested noise {noise:g})",
                final_jitter=sigma,
            )
        sigma *= 10.0
    _log.debug("solve: %s, %d refinement steps, eta = %.3g eps at sigma = %g",
               route, steps, eta / _EPS, sigma)
    return alpha, sigma


def _backward_error(residual: np.ndarray, norm: float, alpha: np.ndarray,
                    b: np.ndarray) -> float:
    """eta = ||r|| / (||A|| ||alpha|| + ||b||) in the infinity norm, or inf
    if that denominator overflows, where r would read a false 0."""
    scale = norm * np.abs(alpha).max() + np.abs(b).max()
    return np.abs(residual).max() / scale if scale < math.inf else math.inf


def _prediction_bound(offset: float, n_features: int, alpha: np.ndarray) -> float:
    """|offset| + F sum |alpha|, or inf if it overflows: kernel values are at
    most 1, so it bounds every prediction; a fit and `load_model` need it finite."""
    with np.errstate(over="ignore"):
        return float(abs(offset) + n_features * np.abs(alpha).sum())


def _solve(K: np.ndarray, b: np.ndarray, noise: float, route: str = "Gram route",
           bound=lambda alpha: 0.0) -> tuple[np.ndarray, float]:
    """(alpha, sigma) with (K + sigma * I) alpha = b, by `_escalate` in K's
    own memory, with `bound` its check of alpha; K is consumed.

    `gram_matrix` makes K symmetric to the bit.  `_symmetric_product` reads
    the residual and the column sums from K's intact strict lower triangle
    and writes nothing into K.  K's entries are positive, so ||K|| is its
    largest column sum, taken once before the first try, and ||K + sigma
    I|| = ||K|| + sigma, the rule of `_low_rank_solve` too.  So a fit holds
    K, seven M-vectors and at most two copies of a diagonal block, no
    second M x M buffer, and
    an accepted try leaves K with K in its strict lower triangle and the
    accepted factor L^T in its upper one.
    """
    dpotrs = _wrapper("_flapack").dpotrs
    norm_K = _symmetric_product(K, K.diagonal(), np.ones(K.shape[0])).max()
    def solve(factor, sigma, shifted):
        alpha = dpotrs(factor, b, lower=1)[0]
        residual = _symmetric_product(K, shifted, alpha)
        residual -= b
        return alpha, 0, _backward_error(residual, norm_K + sigma, alpha, b)
    return _escalate(K, noise, solve, route, bound)


def _low_rank_solve(Bt: np.ndarray, b: np.ndarray, noise: float, route: str,
                    bound) -> tuple[np.ndarray, float]:
    """(alpha, sigma) with (B B^T + sigma * I) alpha = b, for Bt = B^T
    with F r < M rows, through the (F r, F r) matrix C = B^T B: the dual
    solution of `_solve` on K = B B^T, by `_escalate` on C, with ||K|| =
    max B (B^T 1).

    Each try takes, by Woodbury, alpha = (b - B (C + sigma I)^-1 B^T b) /
    sigma.  The division by sigma magnifies the rounding of that
    difference, so alpha is refined, alpha += the same formula on r = b - B
    (B^T alpha) - sigma alpha, at most `_REFINE_STEPS` times; a try still
    above c eps then fails.  A step gains while sigma is well above eps
    ||K||, so at a small noise this route escalates one or two decades
    further than `_solve`.  `dsyrk` fills the upper triangle of a
    Fortran-ordered C, the lower one of the C-ordered view that `_escalate`
    takes, which is mirrored once before the first try.  Every product is a
    `dgemv`, `dsyrk` or LAPACK call of scipy's wrappers, from `_wrapper`,
    never a numpy product: numpy's own OpenBLAS pool would spin against the
    one that scipy's wrappers link.
    """
    blas = _wrapper("_fblas")
    dgemv, dsyrk, dpotrs = blas.dgemv, blas.dsyrk, _wrapper("_flapack").dpotrs
    FR, M = Bt.shape
    B = Bt.T  # Fortran-ordered (M, F r)
    C = dsyrk(1.0, B, trans=1, lower=0).T
    _refill(C)
    Btb = dgemv(1.0, B, b, trans=1)
    norm_K = dgemv(1.0, B, dgemv(1.0, B, np.ones(M), trans=1)).max()
    def solve(factor, sigma, shifted):
        def woodbury(v, Btv):  # (B B^T + sigma I)^-1 v, given B^T v
            w = dgemv(-1.0, B, dpotrs(factor, Btv, lower=1)[0], beta=1.0, y=v)
            w /= sigma
            return w
        alpha = woodbury(b, Btb)
        for step in range(_REFINE_STEPS + 1):
            residual = dgemv(-1.0, B, dgemv(1.0, B, alpha, trans=1), beta=1.0,
                             y=b - sigma * alpha, overwrite_y=1)
            eta = _backward_error(residual, norm_K + sigma, alpha, b)
            if eta <= _BACKWARD_ERROR * _EPS or step == _REFINE_STEPS:
                return alpha, step, eta
            alpha += woodbury(residual, dgemv(1.0, B, residual, trans=1))
    return _escalate(C, noise, solve, route, bound)


def gpr_fit(Y: np.ndarray, t: np.ndarray, length_scale: float,
            noise: float = 1e-6) -> AdditiveGprModel:
    """Fit the additive GPR: alpha of (K + sigma I) alpha = t - mean(t),
    whose mean is stored as the offset.  The route is decided once by
    `_route`: with F r < M, `_low_rank_solve` on B^T; else `_solve` on the
    Gram.  Zero-variance targets get alpha = 0 and build nothing.
    Non-finite features, or targets whose deviations from their mean are
    not all finite (a mean that overflows included), are refused with
    `DatasetError` before anything is built.

    The model's `Ytrain` is Y itself when Y is a Fortran-ordered float64
    array, as `hdmr_fit`'s features are; any other Y is copied into
    Fortran order once the solve's buffers are freed.
    """
    length_scale = _check_length_scale(length_scale)
    noise = _check_noise(noise)
    Y = _check_features(Y)
    t = np.asarray(t, dtype=np.float64).ravel()
    M, F = Y.shape
    if t.shape[0] != M:
        raise ShapeError(f"{t.shape[0]} targets for {M} feature rows")

    with np.errstate(over="ignore", invalid="ignore"):
        offset = float(np.mean(t))
        b = t - offset
    if not np.isfinite(b).all():
        raise DatasetError("targets minus their mean are not all finite")
    if not b.any():
        alpha, sigma = np.zeros(M), noise
    else:
        factor, low_rank, _ = _route(M, F, length_scale, _in_unit_interval(Y))
        bound = functools.partial(_prediction_bound, offset, F)
        if low_rank:  # B^T, like K below, is freed before Y's copy
            alpha, sigma = _low_rank_solve(
                _factor_matrix(Y, factor, np.empty((F, factor.rank, M))), b, noise,
                f"low-rank route, F r = {F * factor.rank} < M = {M}", bound)
        else:
            sides = f"F r = {F * factor.rank} >= M = {M}" if factor else f"exact loop, M = {M}"
            alpha, sigma = _solve(gram_matrix(Y, length_scale), b, noise,
                                  f"Gram route, {sides}", bound)
    return AdditiveGprModel(Ytrain=np.asfortranarray(Y), alpha=alpha, length_scale=length_scale,
                            noise=noise, effective_noise=sigma, target_offset=offset)


def gpr_predict(model: AdditiveGprModel, Ystar: np.ndarray) -> np.ndarray:
    """Posterior mean at each row of Ystar.

    Computed literally as the network forward pass: the offset plus the
    per-feature component functions summed in feature order.  Keeping the
    same accumulation structure as `gpr_component` makes the decomposition
    identity hold to rounding of the component values themselves, even for
    ill-conditioned fits with huge dual coefficients.
    """
    Ystar = _check_points(Ystar, model.n_features, "Ystar")
    return _dual_sums(model, Ystar, [range(model.n_features)], model.target_offset)[0]


def gpr_component(model: AdditiveGprModel, feature_index: int, u) -> np.ndarray:
    """Component function f_j (see the module doc) evaluated on the grid `u`.

    Summing components over all features and adding the offset reproduces
    `gpr_predict` exactly up to summation order.
    """
    index = operator.index(feature_index)  # TypeError for a non-integer, as in indexing
    if isinstance(feature_index, bool) or not 0 <= index < model.n_features:
        raise IndexError(
            f"feature index {feature_index} out of range [0, {model.n_features})"
        )
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    if u.ndim != 1:
        raise ShapeError(f"u must be a scalar or 1-D, got shape {u.shape}")
    if not np.isfinite(u).all():
        raise DatasetError("u contains non-finite values")
    return _dual_sums(model, np.broadcast_to(u[:, None], (u.size, model.n_features)),
                      [[index]], 0.0)[0]


@dataclass(frozen=True)
class ActivationTable:
    """Chebyshev series of every component function on `TABLE_INTERVAL`,
    built and checked by `compile_components`.

    Column j of `coefficients` holds the coefficients of f_j in the
    Chebyshev polynomials T_k(x), x = (u - 0.5) / 0.75: the first `terms`
    of A mu_j, where A is the 2-D interpolant of the kernel at degrees
    (`degree`, `moment_degree`) and mu_j are the moments of alpha.  On the
    whole interval, the summed deviation of the tables from the exact
    components is at most `max_deviation` = `bound` + `chopped_tail` +
    `probed_deviation`, which is at most `tolerance`.
    """

    coefficients: np.ndarray  # (terms, F)
    bound: float  # proved interpolation error of the unchopped tables
    chopped_tail: float  # sum of |c_kj| over the dropped k
    probed_deviation: float  # measured at `_PROBES`: the rounding, which no bound covers
    tolerance: float
    degree: int  # of the table's variable, before the chop
    moment_degree: int  # of the training side, the moments' count less 1

    @property
    def terms(self) -> int:
        return self.coefficients.shape[0]

    @property
    def max_deviation(self) -> float:
        return self.bound + self.chopped_tail + self.probed_deviation


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


def _dct(n: int) -> np.ndarray:
    """(n + 1, n + 1) matrix of (2 / n) cos(pi i k / n) with its first and
    last columns halved: applied to values at the points cos(pi i / n), it
    gives their interpolant's Chebyshev coefficients, once the first and
    last of those are halved too."""
    k = np.arange(n + 1)
    cosines = np.cos(np.pi * (np.outer(k, k) % (2 * n)) / n) * (2.0 / n)
    cosines[:, [0, -1]] *= 0.5
    return cosines


def _bernstein_degree(half_width: float, length_scale: float,
                      target: float) -> tuple[int, float]:
    """(n, e): the least degree n at which the Chebyshev interpolant of
    k(u, v) in u, on an interval of this half-width and for any real v,
    provably deviates from it by e <= target, or n = `_MAX_NODES` (and e
    above target) if no degree below that is proved.

    k is entire, and on the Bernstein ellipse of parameter rho of the
    interval, where |Im u| <= b = half_width (rho - 1 / rho) / 2, it is at
    most exp(b^2 / (2 l^2)); so the interpolant through n + 1 Chebyshev
    points deviates by at most 4 exp(b^2 / (2 l^2)) rho^-n / (rho - 1)
    (Trefethen, Approximation Theory and Approximation Practice, SIAM
    2013, Thm 8.2).  Any rho > 1 gives a proof: this takes the best of the
    2048 of `_LOG_RHO`, in logarithms.
    """
    t = _LOG_RHO
    with np.errstate(over="ignore"):  # at a small l: that rho, or no rho, proves it
        log_scale = (math.log(4.0) + (half_width * np.sinh(t)) ** 2 / (2.0 * length_scale**2)
                     - np.log(np.expm1(t)))
        n = max(1, math.ceil(min(float(((log_scale - math.log(target)) / t).min()), _MAX_NODES)))
        return n, float(np.exp((log_scale - n * t).min()))


def _table_degrees(length_scale: float, n_features: int) -> tuple[int, int, float]:
    """(n_x, n_y, e) of the tables of `n_features` components: the least
    degrees in the table's variable and on the training side whose 2-D
    interpolant of the kernel deviates from it by at most e = E_x +
    Lambda(n_x) E_y <= `_BOUND_SHARE` * `_TABLE_TOLERANCE` / F, half of it
    each side.  E_x and E_y are `_bernstein_degree`'s bounds in each
    variable, and Lambda(n) <= 1 + (2 / pi) log(n + 1) the Lebesgue
    constant of n + 1 Chebyshev points (ATAP, Thm 15.2): interpolating in
    u the error left by y multiplies it by at most that.  So F e sum |alpha|
    bounds the tables' summed deviation from the exact components.
    """
    target = 0.5 * _BOUND_SHARE * _TABLE_TOLERANCE / n_features
    n_x, e_x = _bernstein_degree(_HALF_WIDTH, length_scale, target)
    lebesgue = 1.0 + 2.0 / math.pi * math.log(n_x + 1)
    n_y, e_y = _bernstein_degree(0.5, length_scale, target / lebesgue)
    return n_x, n_y, e_x + lebesgue * e_y


@functools.lru_cache(maxsize=32)
def _table_matrix(length_scale: float, degree: int, moment_degree: int) -> np.ndarray:
    """A, (degree + 1, moment_degree + 1): the 2-D Chebyshev coefficients
    of the interpolant of k(u, y) through the Chebyshev points of
    `TABLE_INTERVAL` x [0, 1], in the variables x = (u - 0.5) / 0.75 and
    s = 2 y - 1: k ~= sum_ab A[a, b] T_a(x) T_b(s).  Built once per
    (l, degrees) as two `_dct`s of `_kernel` values, summed by `np.einsum`
    without BLAS, so its bits do not depend on the thread count.
    """
    u = _CENTER + _HALF_WIDTH * np.cos(np.pi * np.arange(degree + 1) / degree)
    y = 0.5 + 0.5 * np.cos(np.pi * np.arange(moment_degree + 1) / moment_degree)
    dct_u, dct_y = _dct(degree), _dct(moment_degree)
    dct_u[[0, -1]] *= 0.5
    dct_y[[0, -1]] *= 0.5
    values = _kernel(u, y, length_scale, np.empty((degree + 1, moment_degree + 1)))
    A = np.einsum("ai,ib->ab", dct_u, np.einsum("ik,bk->ib", values, dct_y))
    A.flags.writeable = False  # shared by every caller of the cache
    return A


def _moments(model: AdditiveGprModel, degree: int,
             points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mu, exact): the (degree + 1, F) Chebyshev moments of alpha, mu[b, j]
    = sum_m alpha_m T_b(s_mj) with s = 2 Ytrain - 1, and the (len(points),
    F) exact component values f_j(u) at the `points` u.

    One pass over the training rows, in blocks of all F features and
    about `_MOMENT_ENTRIES` entries, on the calling thread.  Per
    block: each point's `_kernel` values, weighted by alpha; then the even
    W_b = alpha T_b(s) by the Chebyshev recurrence two degrees at a time,
    W_b+2 = 2 T_2(s) W_b - W_b-2, with their column sums, and between them
    the odd moments from 2 T_1 T_b = T_b+1 + T_b-1: mu_b+1 = sum 2 T_1(s)
    W_b - mu_b-1, one `np.einsum` each.  So two degrees cost four passes
    over the block, not six.  Blocks add in row order, and each sum runs
    in one numpy call, so the bits depend on F and the rows alone.  A call
    holds five block buffers, never an (M, F) array: 634 KiB at F = 306, where
    128-row blocks, the forward blocks at F = 306, took 1.5 MiB and were
    slower (10.5 against 9.3 ms for a `fit_coupled` table on a 2-core
    x86_64 machine).
    """
    M, F = model.Ytrain.shape
    step = max(1, _MOMENT_ENTRIES // F)
    mu, part = np.zeros((degree + 1, F)), np.empty((degree + 1, F))
    exact = np.zeros((len(points), F))
    buffers = np.empty((5, min(step, M), F))
    for r0 in range(0, M, step):
        a = model.alpha[r0:r0 + step]
        x2, y2, low, high, scratch = (buf[:len(a)] for buf in buffers)
        np.copyto(x2, model.Ytrain[r0:r0 + step])  # C order: one strided pass over Ytrain
        for row, u in zip(exact, points):
            row += np.einsum("mj,m->j", _kernel(x2, u, model.length_scale, scratch), a)
        x2 *= 4.0
        x2 -= 2.0  # 2 T_1(s)
        np.multiply(x2, x2, out=y2)
        y2 -= 2.0  # 2 T_2(s)
        np.copyto(low, a[:, None])  # W_0
        np.multiply(y2, 0.5 * a[:, None], out=high)  # W_2
        part[0] = np.add.reduce(low, axis=0)
        part[1] = 0.5 * np.einsum("mj,mj->j", x2, low)
        for b in range(2, degree + 1, 2):
            if b > 2:
                np.multiply(y2, high, out=scratch)
                np.subtract(scratch, low, out=low)
                low, high = high, low
            part[b] = np.add.reduce(high, axis=0)
            if b < degree:
                np.subtract(np.einsum("mj,mj->j", x2, high), part[b - 1], out=part[b + 1])
        mu += part
    return mu, exact


def compile_components(model: AdditiveGprModel) -> ActivationTable | None:
    """One checked Chebyshev table per component function, or None.

    f_j(u) = sum_m alpha_m k(u, Ytrain[m, j]), and on `TABLE_INTERVAL` x
    [0, 1] the kernel is close to its 2-D interpolant sum_ab A[a, b]
    T_a(x) T_b(2 y - 1) (`_table_matrix`), so f_j's coefficients are A mu_j,
    with mu_j the Chebyshev moments of alpha over feature j (`_moments`):
    no kernel is evaluated at a table node.  The degrees come from a bound
    that is proved for the whole interval (`_table_degrees`): the tables'
    summed deviation from the exact components is at most `bound` = F e
    sum |alpha|, at most a tenth of tau = 1e-12 * sum |alpha| (about 100
    times the exact path's own rounding).  The bound does not cover
    rounding, so the tables are probed against the exact values at the 4
    points `_PROBES`, and their summed deviation there is added.  Then the
    longest tail of coefficients k >= K >= 1 whose sum_k sum_j |c_kj| is at
    most (tau - bound - probed) / 2 is dropped (Aurentz and Trefethen,
    "Chopping a Chebyshev series", ACM TOMS 43, 2017): as |T_k| <= 1, that
    sum bounds the change everywhere on the interval.  So the reported
    `max_deviation`, bound + tail + probed, is at most tau.

    The moments hold only for training features in [0, 1], as
    `hdmr_fit`'s are; other models get no table, as do models whose
    degrees would need more than `_MAX_NODES` nodes, whose sum |alpha| or
    series overflows, or whose bound and probe exceed tau.  Each refusal
    is logged, and such a model predicts on the exact path.
    """
    F = model.n_features
    if not _in_unit_interval(model.Ytrain):
        return _refuse("features not all in [0, 1]")
    with np.errstate(over="ignore"):
        scale = float(np.abs(model.alpha).sum())
    if not math.isfinite(scale):
        return _refuse("sum |alpha| overflows")
    tolerance = _TABLE_TOLERANCE * scale
    degree, moment_degree, error = _table_degrees(model.length_scale, F)
    if degree >= _MAX_NODES:
        return _refuse(f"l = {model.length_scale:g} needs more than {_MAX_NODES} nodes "
                       f"for {F} features")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        mu, exact = _moments(model, moment_degree, _CENTER + _HALF_WIDTH * _PROBES)
        coefficients = np.einsum("ab,bj->aj", _table_matrix(model.length_scale, degree,
                                                           moment_degree), mu)
        x = np.broadcast_to(_PROBES[:, None], exact.shape)
        probed = float(np.abs(_clenshaw(coefficients, x) - exact).max(axis=0).sum())
        bound = F * error * scale
        sums = np.abs(coefficients).sum(axis=1)
        tails = np.cumsum(sums[:0:-1])[::-1]  # k >= 1 .. k >= degree
        # bounds every intermediate of `_clenshaw`, since |U_k| <= k + 1 on [-1, 1]
        series = 2.0 * (degree + 1) * float(sums[0] + tails[0])
    if not (math.isfinite(series) and math.isfinite(probed)):
        return _refuse("the series overflows")
    if not bound + probed <= tolerance:
        return _refuse(f"bound {bound:.3g} and probed deviation {probed:.3g} "
                       f"deviate by more than {tolerance:.3g}")
    terms = 1 + int(np.count_nonzero(tails > 0.5 * (tolerance - bound - probed)))
    table = ActivationTable(coefficients[:terms], bound,
                            float(tails[terms - 1]) if terms <= degree else 0.0, probed,
                            tolerance, degree, moment_degree)
    _log.debug("activation table built: degrees %d x %d, %d terms, bound %.3g + chopped "
               "tail %.3g + probed deviation %.3g = max deviation %.3g, tolerance %.3g",
               degree, moment_degree, terms, table.bound, table.chopped_tail,
               table.probed_deviation, table.max_deviation, tolerance)
    return table


def _refuse(why: str) -> None:
    _log.debug("activation table refused: %s", why)
    return None


def activation_sums(model: AdditiveGprModel, features, n: int, groups,
                    start: float) -> np.ndarray:
    """(len(groups), n) array of start + sum_{j in group} f_j(y_rj), each
    group a contiguous ascending range of feature indices added in order,
    as `FeatureMap` orders its rows by subset, where features(rows)
    gives the (k, F) scaled features y of the k rows that `rows` (a slice or
    an index array) selects.  Rows whose features all lie in
    `TABLE_INTERVAL` read the activation table; every other row, and every
    row of a model without a table, takes the exact `_dual_sums`.  Table
    blocks are `_BLOCK`-row multiples of about `_FORWARD_ENTRIES` entries,
    enough work per numpy call to amortize its overhead and the GIL; each
    thread maps its own block's rows, and the values are elementwise, so
    block edges, thread count and the other rows cannot reach them.  A
    block adds each group in one call: its sum so far goes into the group's
    first column, and one `np.add.accumulate`, sequential by definition,
    runs along the group's columns, so the bits are those of adding the
    features one at a time (`np.add.reduce` would sum a 1-row block
    pairwise).  The exact rows go in chunks of one such block per thread,
    each chunk starting on a multiple of `_BLOCK` of those rows: `_dual_sums` forms the
    same blocks, and bits, as one call over all of them, so an exact row's
    bits depend on its place among the exact rows of the call.  Besides its
    output a call holds the features of one block per thread, never of all
    n rows.  A feature that overflows to +-inf adds 0, the kernel's limit,
    without a warning.  A call on 0 rows builds no table.
    """
    out = np.full((len(groups), n), start)
    if n == 0:
        return out
    table = model.activation_table
    step = max(_BLOCK, _FORWARD_ENTRIES // model.n_features // _BLOCK * _BLOCK)
    if table is None:
        rows = range(n)
    else:
        outside = np.zeros(n, dtype=bool)
        def work(blocks):
            for r0, r1 in blocks:
                x = features(slice(r0, r1))
                x -= _CENTER
                with np.errstate(over="ignore"):  # in this thread; an overflow falls back
                    x /= _HALF_WIDTH
                outside[r0:r1] = ~((x >= -1.0) & (x <= 1.0)).all(axis=1)
                np.clip(x, -1.0, 1.0, out=x)  # keeps the fallback rows finite
                values = _clenshaw(table.coefficients, x)
                for acc, js in zip(out[:, r0:r1], groups):
                    part = values[:, js[0]:js[-1] + 1]
                    part[:, 0] += acc
                    np.add.accumulate(part, axis=1, out=part)
                    acc[:] = part[:, -1]
        _map_blocks(n, work, step)
        rows = np.flatnonzero(outside)
    chunk = _THREADS * step
    for c0 in range(0, len(rows), chunk):
        part = rows[c0:c0 + chunk]
        out[:, part] = _dual_sums(model, features(part), groups, start)
    return out
