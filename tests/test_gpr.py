"""Additive-kernel GPR tests.

The 2x2 closed-form solution and the hand-computed kernel values act as
independent oracles for the linear-algebra path.
"""

import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import LinAlgError, cho_factor, cho_solve, lapack
from scipy.linalg.lapack import dpotrs

from hdmrnet import (
    gpr,
    gpr_component,
    gpr_fit,
    gpr_predict,
    gram_matrix,
    hdmr_fit,
    hdmr_predict,
    save_model,
    synth,
    term_values,
)
from hdmrnet.errors import (
    DatasetError,
    IllConditionedGramError,
    InvalidHyperparameterError,
    ShapeError,
)


def _kernel_1d(a, b, length_scale: float):
    """One-dimensional squared-exponential kernel exp(-(a-b)^2 / (2 l^2)),
    the Gram tests' oracle.

    Accepts scalars or broadcastable arrays; symmetric, values in (0, 1].
    """
    length_scale = gpr._check_length_scale(length_scale)
    d = np.subtract(a, b)
    return np.exp(-(d * d) / (2.0 * length_scale**2))


def _kernel_additive(ya, yb, length_scale: float) -> float:
    """Additive kernel: sum over features of the one-dimensional kernels."""
    ya = np.asarray(ya, dtype=np.float64)
    yb = np.asarray(yb, dtype=np.float64)
    if ya.shape != yb.shape or ya.ndim != 1:
        raise ShapeError(f"feature vectors must be equal-length 1-D, got {ya.shape} and {yb.shape}")
    return float(np.sum(_kernel_1d(ya, yb, length_scale)))


def test_kernel_1d_known_values():
    assert _kernel_1d(0.3, 0.3, 0.7) == 1.0
    # distance 1, length scale 1: exp(-1/2)
    assert _kernel_1d(0.0, 1.0, 1.0) == pytest.approx(0.6065306597126334, rel=1e-15)
    assert _kernel_1d(2.0, 0.0, 1.0) == pytest.approx(math.exp(-2.0), rel=1e-15)
    assert _kernel_1d(0.25, 0.75, 0.5) == _kernel_1d(0.75, 0.25, 0.5)


def test_kernel_additive_matches_feature_sum():
    rng = np.random.default_rng(0)
    ya, yb = rng.uniform(size=7), rng.uniform(size=7)
    expected = sum(_kernel_1d(a, b, 0.4) for a, b in zip(ya, yb))
    assert _kernel_additive(ya, yb, 0.4) == pytest.approx(expected, rel=1e-15)
    with pytest.raises(ShapeError):
        _kernel_additive(ya, yb[:3], 0.4)


def test_gram_matrix_properties():
    rng = np.random.default_rng(1)
    Y = rng.uniform(size=(40, 9))
    K = gram_matrix(Y, 0.6)
    assert np.array_equal(K, K.T)  # exact, not approximate
    assert np.array_equal(np.diag(K), np.full(40, 9.0))
    assert (K > 0).all() and (K <= 9.0).all()
    # entry oracle: plain python double loop on a few entries
    for i, j in [(0, 1), (3, 30), (17, 2)]:
        expected = sum(
            math.exp(-((Y[i, f] - Y[j, f]) ** 2) / (2 * 0.6**2)) for f in range(9)
        )
        assert K[i, j] == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("M", [1, gpr._BLOCK, gpr._BLOCK + 1])
def test_gram_matrix_ragged_block_sizes(M):
    rng = np.random.default_rng(M)
    Y = rng.uniform(size=(M, 5))
    K = gram_matrix(Y, 0.45)
    assert np.array_equal(K, K.T)
    assert np.array_equal(np.diag(K), np.full(M, 5.0))
    for i in range(M):
        for j in range(i, M):
            assert K[i, j] == pytest.approx(_kernel_additive(Y[i], Y[j], 0.45), rel=1e-14)


def test_results_do_not_depend_on_thread_count(monkeypatch, tmp_path, dispatches):
    rng = np.random.default_rng(7)
    M = 2 * gpr._BLOCK + 5  # three row blocks, the last one ragged
    Y = rng.uniform(size=(M, 6))
    t = np.sin(3.0 * Y).sum(axis=1)
    Ystar = rng.uniform(size=(M + 40, 6))
    train = synth("pairwise", 3, M, seed=2)
    outputs, tasks = {}, {}
    for threads in (1, 2):
        monkeypatch.setattr(gpr, "_THREADS", threads)
        dispatches.clear()
        model = gpr_fit(Y, t, 0.4)
        path = tmp_path / f"threads{threads}.model"
        surrogate = hdmr_fit(train, 2, 3, 0.3)
        save_model(surrogate, str(path))
        outputs[threads] = (
            gram_matrix(Y, 0.4).tobytes(),
            gpr_predict(model, Ystar).tobytes(),
            gpr_component(model, 2, Ystar[:, 2]).tobytes(),
            path.read_bytes(),
            # the compiled path: its table is built under this thread count
            hdmr_predict(surrogate, Ystar[:, :3]).tobytes(),
            surrogate.gpr.activation_table.coefficients.tobytes(),
            b"".join(v.tobytes() for v in term_values(surrogate, Ystar[:, :3]).values()),
        )
        tasks[threads] = list(dispatches)
    # the one-thread run dispatches nothing; the other two tasks each time
    assert tasks[1] == [] and tasks[2] and set(tasks[2]) == {2}
    assert outputs[1] == outputs[2]


def test_two_point_fit_matches_closed_form():
    # one feature, two points: alpha has the closed form
    # (-a, a) with a = (t2 - t1) / (2 * (1 + noise - k12))
    noise = 1e-6
    Y = np.array([[0.2], [0.8]])
    t = np.array([1.0, 2.0])
    k12 = math.exp(-(0.6**2) / (2 * 0.5**2))
    a = 0.5 / (1.0 + noise - k12)
    model = gpr_fit(Y, t, 0.5, noise)
    assert model.target_offset == pytest.approx(1.5, rel=1e-15)
    assert model.alpha == pytest.approx([-a, a], rel=1e-10)
    assert model.effective_noise == noise
    assert model.effective_noise == model.noise


def test_predict_matches_naive_kernel_expansion():
    rng = np.random.default_rng(2)
    Y = rng.uniform(size=(25, 4))
    t = np.sin(Y.sum(axis=1))
    model = gpr_fit(Y, t, 0.8)
    Ystar = rng.uniform(size=(300, 4))  # crosses the row-chunk boundary
    mean = gpr_predict(model, Ystar)
    # the dual expansion cancels heavily, so order-of-summation noise
    # scales with sum|alpha| * eps, not with the mean itself
    tol = float(np.abs(model.alpha).sum()) * 1e-14
    for r in (0, 123, 255, 256, 299):
        expected = model.target_offset + sum(
            model.alpha[m] * _kernel_additive(Ystar[r], Y[m], 0.8) for m in range(25)
        )
        assert mean[r] == pytest.approx(expected, abs=tol)


def test_component_sum_reproduces_posterior_mean():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        M = int(rng.integers(2, 40))
        F = int(rng.integers(1, 30))
        Y = rng.uniform(size=(M, F))
        t = rng.normal(size=M)
        l = float(rng.uniform(0.2, 1.5))
        model = gpr_fit(Y, t, l)
        Ystar = rng.uniform(size=(50, F))
        total = np.full(50, model.target_offset)
        for j in range(F):
            total += gpr_component(model, j, Ystar[:, j])
        mean = gpr_predict(model, Ystar)
        scale = max(1.0, float(np.abs(mean).max()))
        assert np.abs(total - mean).max() <= 1e-10 * scale


def test_near_interpolation_at_small_noise():
    rng = np.random.default_rng(3)
    Y = rng.uniform(size=(60, 3))
    t = (Y * Y).sum(axis=1)
    model = gpr_fit(Y, t, 0.5, 1e-6)
    on_train = gpr_predict(model, Y)
    assert np.abs(on_train - t).max() <= 1e-3 * t.std()


def test_constant_target_short_circuits(monkeypatch):
    calls = []
    for name in ("_route", "gram_matrix", "_factor_matrix", "_solve", "_low_rank_solve"):
        monkeypatch.setattr(gpr, name, lambda *args, name=name: calls.append(name))
    for M in (10, 300):  # the Gram route's size and the low-rank route's
        Y = np.random.default_rng(4).uniform(size=(M, 2))
        model = gpr_fit(Y, np.full(M, 3.25), 0.5, 1e-7)
        assert calls == []  # nothing is built or solved for a zero-variance target
        assert np.array_equal(model.alpha, np.zeros(M))
        assert model.effective_noise == model.noise == 1e-7
        assert model.target_offset == 3.25
        assert np.array_equal(gpr_predict(model, Y), np.full(M, 3.25))
        assert np.array_equal(gpr_component(model, 0, [0.1, 0.9]), np.zeros(2))


def test_singular_gram_still_fits():
    # duplicated rows make the Gram singular; the solve must either pass
    # the backward-error check directly or escalate the diagonal, never crash
    Y = np.tile(np.array([[0.3, 0.7]]), (6, 1))
    Y[3:] = [0.6, 0.1]
    t = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
    model = gpr_fit(Y, t, 0.5, 1e-12)
    assert model.effective_noise >= model.noise
    mean = gpr_predict(model, Y)
    assert np.abs(mean - t).max() < 0.05


def test_hyperparameter_validation():
    Y = np.zeros((3, 2))
    t = np.zeros(3)
    with pytest.raises(InvalidHyperparameterError):
        gpr_fit(Y, t, 0.0)
    with pytest.raises(InvalidHyperparameterError):
        gpr_fit(Y, t, -1.0)
    with pytest.raises(InvalidHyperparameterError):
        gpr_fit(Y, t, 0.5, 0.0)
    with pytest.raises(InvalidHyperparameterError):
        gpr_fit(Y, t, 0.5, -1e-6)


@pytest.mark.parametrize("length_scale", [math.inf, math.nan, 1e200, 1e-200, 1e-160])
def test_length_scale_without_a_finite_kernel_exponent_is_refused(length_scale):
    # 1/(2 l^2) is 0, NaN, 0 (l^2 overflows), inf (l^2 underflows to 0) and
    # inf (l^2 is subnormal).
    Y = np.random.default_rng(5).uniform(size=(5, 2))
    for call in (lambda: gpr_fit(Y, np.arange(5.0), length_scale),
                 lambda: gram_matrix(Y, length_scale)):
        with pytest.raises(InvalidHyperparameterError, match="length scale"):
            call()


@pytest.mark.parametrize("noise", [math.inf, math.nan])
def test_non_finite_noise_is_refused(noise):
    Y = np.random.default_rng(5).uniform(size=(5, 2))
    with pytest.raises(InvalidHyperparameterError, match="noise"):
        gpr_fit(Y, np.arange(5.0), 0.5, noise)


def test_shape_validation():
    with pytest.raises(ShapeError):
        gpr_fit(np.zeros((3, 2)), np.zeros(4), 0.5)
    with pytest.raises(ShapeError):
        gpr_fit(np.zeros(3), np.zeros(3), 0.5)
    model = gpr_fit(np.random.default_rng(5).uniform(size=(5, 2)), np.arange(5.0), 0.5)
    with pytest.raises(ShapeError):
        gpr_predict(model, np.zeros((4, 3)))
    assert gpr_predict(model, np.zeros((0, 2))).shape == (0,)
    with pytest.raises(IndexError):
        gpr_component(model, 2, [0.5])
    for u in (np.zeros((3, 2)), np.zeros((1, 1)), [[0.5]]):
        with pytest.raises(ShapeError, match="scalar or 1-D"):
            gpr_component(model, 0, u)
    assert gpr_component(model, 0, 0.5).shape == (1,)
    assert gpr_component(model, 0, np.zeros(0)).shape == (0,)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_points_are_refused(bad):
    # An infinite point would read as the target offset, a NaN as NaN.
    model = gpr_fit(np.random.default_rng(5).uniform(size=(5, 2)), np.arange(5.0), 0.5)
    Ystar = np.full((2, 2), 0.5)
    Ystar[1, 0] = bad
    with pytest.raises(DatasetError, match="non-finite"):
        gpr_predict(model, Ystar)
    with pytest.raises(DatasetError, match="non-finite"):
        gpr_component(model, 0, [0.5, bad])


def test_feature_index_must_be_an_integer():
    model = gpr_fit(np.random.default_rng(5).uniform(size=(5, 2)), np.arange(5.0), 0.5)
    for index in (True, False):  # an int subclass, but numpy would read it as a mask
        with pytest.raises(IndexError, match="out of range"):
            gpr_component(model, index, [0.5])
    for index in (1.5, 1.0, "1", np.True_):  # refused as Python's own indexing refuses them
        with pytest.raises(TypeError):
            gpr_component(model, index, [0.5])
    assert np.array_equal(gpr_component(model, np.int64(1), [0.2, 0.7]),
                          gpr_component(model, 1, [0.2, 0.7]))


def test_ill_conditioned_error_carries_final_jitter():
    err = IllConditionedGramError("no luck", final_jitter=1e-2)
    assert err.final_jitter == 1e-2
    assert "no luck" in str(err)


def test_indefinite_gram_is_refused_at_the_jitter_ceiling():
    # [[0, 1], [1, 0]] has eigenvalues -1 and 1: no jitter up to 1e-2 makes
    # it positive definite, so every try's factorization fails.
    K = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(IllConditionedGramError,
                       match=r"jitter 0\.01 \(requested noise 1e-06\)") as caught:
        gpr._solve(K, np.array([1.0, -1.0]), 1e-6)
    assert caught.value.final_jitter == gpr.MAX_JITTER


def test_fit_is_deterministic():
    rng = np.random.default_rng(6)
    Y = rng.uniform(size=(30, 5))
    t = rng.normal(size=30)
    a = gpr_fit(Y, t, 0.7)
    b = gpr_fit(Y, t, 0.7)
    assert np.array_equal(a.alpha, b.alpha)
    assert a.target_offset == b.target_offset


def test_escalated_fit_solves_with_the_reported_noise_alone():
    # Each jitter try must see the Gram diagonal plus that try's jitter
    # only, so refitting at the reported noise reproduces alpha bit for bit.
    # At noise 1e-14 the factorization fails and 1e-13 is accepted.
    rng = np.random.default_rng(0)
    Y = rng.uniform(size=(300, 2))
    t = np.sin(6.0 * Y).sum(axis=1)
    model = gpr_fit(Y, t, 1.0, 1e-14)
    assert model.effective_noise != model.noise
    again = gpr_fit(Y, t, 1.0, model.effective_noise)
    assert again.effective_noise == again.noise
    assert np.array_equal(again.alpha, model.alpha)


def test_solve_above_the_backward_error_bound_escalates(monkeypatch):
    # A first solution off by a relative 1e-6 leaves a residual far above
    # 8 eps of ||K|| ||alpha||, so the jitter rises once; the factor is
    # copied back to K before the exact solve at 10x the noise is accepted,
    # which therefore equals a fit at that noise bit for bit.
    solves = []

    def perturbed(factor, b, **kwargs):
        alpha, info = dpotrs(factor, b, **kwargs)
        solves.append(alpha)
        return (alpha * (1.0 + 1e-6) if len(solves) == 1 else alpha), info

    rng = np.random.default_rng(2)
    Y = rng.uniform(size=(25, 4))
    t = np.sin(Y.sum(axis=1))
    expected = gpr_fit(Y, t, 0.8, 1e-5)
    monkeypatch.setattr(gpr._wrapper("_flapack"), "dpotrs", perturbed)
    model = gpr_fit(Y, t, 0.8, 1e-6)
    assert len(solves) == 2
    assert model.effective_noise == 1e-6 * 10.0
    assert model.alpha.tobytes() == expected.alpha.tobytes()


@pytest.mark.parametrize("M, F, length_scale", [(25, 4, 0.8), (300, 2, 1.0)])
def test_try_whose_prediction_bound_overflows_escalates(monkeypatch, M, F, length_scale):
    # A try whose |offset| + F sum |alpha| is not finite fails like one
    # above the backward-error bound, on the Gram route (F r >= M) and the
    # low-rank one: here the first try, so the fit equals one at 10x the
    # noise bit for bit.
    rng = np.random.default_rng(2)
    Y = rng.uniform(size=(M, F))
    t = np.sin(Y.sum(axis=1))
    expected = gpr_fit(Y, t, length_scale, 1e-6 * 10.0)
    bounds = []
    def bound(offset, n_features, alpha):
        bounds.append(n_features)
        return math.inf if len(bounds) == 1 else 0.0
    monkeypatch.setattr(gpr, "_prediction_bound", bound)
    model = gpr_fit(Y, t, length_scale, 1e-6)
    assert bounds == [F, F]
    assert model.effective_noise == 1e-6 * 10.0
    assert model.alpha.tobytes() == expected.alpha.tobytes()


def _reference_solve(K, b, noise):
    """`gpr._solve` written with scipy's defaults: a fresh K + sigma * I per
    try, factored with the finiteness checks on, and accepted when the
    normwise backward error in the infinity norm is at most 8 eps."""
    sigma = noise
    while True:
        A = K + sigma * np.eye(K.shape[0])
        try:
            factor = cho_factor(A, lower=True)
        except LinAlgError:
            pass
        else:
            alpha = cho_solve(factor, b)
            eta = np.linalg.norm(b - A @ alpha, np.inf) / (
                np.linalg.norm(A, np.inf) * np.linalg.norm(alpha, np.inf)
                + np.linalg.norm(b, np.inf))
            if eta <= 8.0 * np.finfo(np.float64).eps:
                return alpha, sigma
        sigma *= 10.0


@pytest.mark.parametrize("M, F, length_scale, noise, escalates", [
    (1, 3, 0.5, 1e-6, False), (gpr._BLOCK, 3, 0.5, 1e-6, False),
    (gpr._BLOCK + 1, 4, 0.5, 1e-8, False), (300, 5, 0.5, 1e-6, False),
    (300, 2, 1.0, 1e-14, True),  # the escalating case of the test above
    (300, 2, 1.0, 1e-12, False),  # relative residual 1.3e-6, but eta 0.16 eps
    (300, 2, 1.0, 1e-16, True),  # 3 failed factors refilled, the last block partial
])
def test_solve_in_the_factor_buffer_matches_scipy_defaults_bit_for_bit(
        M, F, length_scale, noise, escalates):
    Y = np.random.default_rng(0).uniform(size=(M, F))
    b = np.sin(6.0 * Y).sum(axis=1)
    K = gram_matrix(Y, length_scale)
    lower = np.tril(K, -1)
    expected, expected_sigma = _reference_solve(K.copy(), b, noise)
    alpha, sigma = gpr._solve(K, b, noise)
    assert (sigma, sigma > noise) == (expected_sigma, escalates)
    assert alpha.tobytes() == expected.tobytes()
    # K is consumed, but only its upper triangle and diagonal.
    assert np.tril(K, -1).tobytes() == lower.tobytes()


@pytest.mark.parametrize("M, F, length_scale, noise", [
    (gpr._BLOCK + 1, 4, 0.5, 1e-8),
    (300, 2, 1.0, 1e-16),  # 3 failed factors refilled, the last block partial
    (300, 20, 0.3, 1e-6),  # the factor route's Gram
    (300, 3, 0.1, 1e-6),  # the exact loop's Gram
])
def test_accepted_factor_survives_the_solve(M, F, length_scale, noise):
    # The residual and column sums write nothing into K: after an accepted
    # try K holds K in its strict lower triangle and the accepted factor
    # L^T in its upper one, the bits of a fresh dpotrf of K + sigma I.
    Y = np.random.default_rng(0).uniform(size=(M, F))
    K = gram_matrix(Y, length_scale)
    original = K.copy()
    _, sigma = gpr._solve(K, np.sin(6.0 * Y).sum(axis=1), noise)
    fresh, info = lapack.dpotrf(np.asfortranarray(original + sigma * np.eye(M)), lower=1)
    assert info == 0
    assert np.triu(K).tobytes() == np.triu(fresh.T).tobytes()
    assert np.tril(K, -1).tobytes() == np.tril(original, -1).tobytes()


@pytest.mark.parametrize("M, F, length_scale, noise, escalates", [
    (600, 2, 1.0, 1e-14, True), (600, 3, 1.0, 1e-6, False), (600, 60, 1.0, 1e-6, False),
    (600, 60, 1.0, 1e-14, True), (600, 2, 0.17, 1e-6, False), (600, 60, 0.17, 1e-6, False),
    (600, 3, 0.1, 1e-6, False)], ids=[
    "600-2-1e-14-True", "600-3-1e-06-False", "600-60-1e-06-False", "600-60-1e-14-True",
    "600-2-0.17-low-rank", "600-60-0.17-factor-gram", "600-3-0.1-exact-loop"])
def test_fit_peak_memory_is_the_counted_gram_and_factor_buffer(monkeypatch, M, F, length_scale,
                                                               noise, escalates):
    # The Gram guard of `model._training_features` counts `gpr._fit_bytes`
    # for a fit.  At l = 1, r = 10: with F = 60, F r >= M, and it counts the
    # Gram matrix, which `_solve` factors in place, and a G panel; with F =
    # 2 or 3, F r < M, and it counts B^T and C = B^T B; on both, M-vectors
    # and one headroom.  Just above l = 1/6, at l = 0.17, the factor has
    # its highest degree, n = 40: the most M-vectors fill G_j, and its
    # one-time check is the largest.  At l = 0.1 the exact loop runs on two
    # threads, each with its block buffer.  Besides that a fit holds 64 KiB
    # of the interpreter's own objects; a second (M, M) array would not fit.
    monkeypatch.setattr(gpr, "_THREADS", 2)
    rng = np.random.default_rng(0)
    Y = rng.uniform(size=(M, F))
    t = np.sin(6.0 * Y).sum(axis=1)
    gpr_fit(Y, t, length_scale, noise)  # first LAPACK call outside the trace
    gpr._kernel_factor.cache_clear()  # the traced fit checks the factor's bound
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model = gpr_fit(Y, t, length_scale, noise)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert (model.effective_noise != model.noise) == escalates
    assert peak <= gpr._fit_bytes(M, F, length_scale) + 2**16


# K, with NaN where a factor would be, and the products that `_solve`
# checks a try with, printed as hex.
_PRODUCTS = """
import numpy as np
from hdmrnet import gpr
M = 500
K = gpr.gram_matrix(np.random.default_rng(0).uniform(size=(M, 3)), 0.5)
shifted = K.diagonal() + 1e-6
K[np.triu_indices(M)] = np.nan
for v in (np.sin(0.37 * np.arange(M)), np.ones(M)):
    print(gpr._symmetric_product(K, shifted, v).tobytes().hex())
"""


def test_solve_products_do_not_depend_on_the_blas_thread_count():
    # The residual and column sums of `_solve` read K's strict lower
    # triangle and the shifted diagonal alone, with dgemv in a fixed order:
    # the same bytes on 1 and 2 BLAS threads, which dsymv does not give.
    path = os.pathsep.join(filter(None, [os.path.dirname(os.path.dirname(gpr.__file__)),
                                         os.environ.get("PYTHONPATH")]))
    outputs = [subprocess.run([sys.executable, "-c", _PRODUCTS], check=True, capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": path,
                                              "OPENBLAS_NUM_THREADS": str(threads)}).stdout
               for threads in (1, 2)]
    assert outputs[0] == outputs[1]
    M = 500
    K = gram_matrix(np.random.default_rng(0).uniform(size=(M, 3)), 0.5)
    K.flat[:: M + 1] += 1e-6
    for line, v in zip(outputs[0].split(), (np.sin(0.37 * np.arange(M)), np.ones(M))):
        np.testing.assert_allclose(np.frombuffer(bytes.fromhex(line)), K @ v, rtol=1e-13)


@pytest.mark.parametrize("M, noise", [(600, 1e-14), (600, 1e-6), (300, 1e-16), (gpr._BLOCK + 1, 1e-8)])
def test_solve_peak_memory_is_its_counted_scratch(M, noise):
    # Besides K and b, `_solve` holds its M-vectors and one diagonal block,
    # plus 8 KiB for the interpreter's own objects, on every try: within
    # what `_fit_bytes` counts for an exact-loop fit besides its Gram and
    # the Gram's build, its M-vectors and headroom, 1.09 MB at M = 600.  A
    # second 600 x 600 array, 2.88 MB, would not fit.
    bound = gpr._fit_bytes(M, 2, 0.05) - 8 * M * M - gpr._kernel_scratch_bytes(M)
    Y = np.random.default_rng(0).uniform(size=(M, 2))
    b = np.sin(6.0 * Y).sum(axis=1)
    K = gram_matrix(Y, 1.0)
    gpr._solve(K.copy(), b, noise)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gpr._solve(K, b, noise)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= bound + 2**13


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_fit_inputs_are_refused_before_any_gram(monkeypatch, bad):
    Y = np.random.default_rng(7).uniform(size=(20, 3))
    t = np.arange(20.0)
    with pytest.raises(DatasetError, match="features"):
        gram_matrix(np.where(Y > 0.9, bad, Y), 0.5)
    calls = []
    monkeypatch.setattr(gpr, "gram_matrix", lambda *args: calls.append(args))
    with pytest.raises(DatasetError, match="features"):
        gpr_fit(np.where(Y > 0.9, bad, Y), t, 0.5)
    with pytest.raises(DatasetError, match="targets"):
        gpr_fit(Y, np.where(t > 15, bad, t), 0.5)
    with pytest.raises(DatasetError, match="targets"):  # the mean overflows
        gpr_fit(Y, np.full(20, 1e308) * np.where(t > 10, 1.0, 0.9), 0.5)
    assert calls == []


def _exact_gram(Y, length_scale):
    """The exact loop's Gram, vectorized: each entry adds its features'
    kernel values in order, with the kernel routine's operations."""
    K = np.zeros((Y.shape[0], Y.shape[0]))
    for y in Y.T:
        d = np.subtract.outer(y, y)
        K += np.exp(d * d * -(1.0 / (2.0 * length_scale**2)))
    return K


@pytest.mark.parametrize("M", [1, gpr._BLOCK, gpr._BLOCK + 1])
@pytest.mark.parametrize("length_scale", [0.2, 0.3, 0.6, 1.0, 3.0])
def test_factor_gram_is_within_its_bound(length_scale, M, caplog):
    # F is not a multiple of the panel width, so the last of the two panels
    # is ragged; the features span [0, 1], both ends included.
    factor = gpr._kernel_factor(length_scale)
    assert factor.error <= gpr._FACTOR_BOUND
    F = factor.panel + 3
    Y = np.random.default_rng(M).uniform(size=(M, F))
    Y[0, :2] = [0.0, 1.0]
    with caplog.at_level("DEBUG", logger="hdmrnet"):
        K = gram_matrix(Y, length_scale)
    assert (f"factor route, n = {factor.degree}, r = {factor.rank}, "
            f"eps_1 = {factor.error:.3g}, 2 panels") in caplog.text
    assert K.flags.c_contiguous and np.array_equal(K, K.T)
    assert np.array_equal(np.diag(K), np.full(M, float(F)))
    bound = F * factor.error + 64 * F * np.finfo(np.float64).eps
    assert np.abs(K - _exact_gram(Y, length_scale)).max() <= bound
    for i, j in [(0, M - 1), (M // 2, M // 3)]:
        assert abs(K[i, j] - _kernel_additive(Y[i], Y[j], length_scale)) <= bound


@pytest.mark.parametrize("length_scale, entry, reason", [
    (0.05, 0.5, "l = 0.05 is too small for the factor (degree 110 > 40)"),
    (0.15, 0.5, "l = 0.15 is too small for the factor (degree 44 > 40)"),
    (0.3, 1.0 + 1e-9, "features not all in [0, 1]"),
    (0.3, -1e-300, "features not all in [0, 1]"),
])
def test_gram_falls_back_to_the_exact_loop(length_scale, entry, reason, caplog):
    Y = np.random.default_rng(3).uniform(size=(gpr._BLOCK + 7, 20))
    Y[5, 3] = entry
    with caplog.at_level("DEBUG", logger="hdmrnet"):
        K = gram_matrix(Y, length_scale)
    assert f"Gram: exact route, {reason}" in caplog.text
    assert K.tobytes() == _exact_gram(Y, length_scale).tobytes()


def test_gram_falls_back_when_the_factor_misses_its_bound(monkeypatch, caplog):
    Y = np.random.default_rng(4).uniform(size=(50, 6))
    monkeypatch.setattr(gpr, "_FACTOR_BOUND", 1e-16)
    with caplog.at_level("DEBUG", logger="hdmrnet"):
        K = gram_matrix(Y, 0.3)
    assert "Gram: exact route, l = 0.3 is too small for the factor (eps_1 = " in caplog.text
    assert K.tobytes() == _exact_gram(Y, 0.3).tobytes()


@pytest.mark.parametrize("M, F, length_scale", [(200, 1, 0.3), (80, 15, 0.3), (300, 40, 1.0),
                                                (300, 40, 0.05)])
def test_first_gram_at_a_length_scale_is_within_the_counted_scratch(M, F, length_scale):
    # The first Gram at a length scale builds its factor and checks its
    # bound; K and either route's scratch fit in what `_fit_bytes` counts
    # for a fit of that size, plus 8 KiB of the interpreter's objects.  At
    # 200 rows of one feature such a fit takes the low-rank route, whose
    # count still covers the Gram.  The features are Fortran-ordered, as a
    # fit's are: the exact loop reads C-ordered ones through one transposed
    # copy.
    Y = np.asfortranarray(np.random.default_rng(0).uniform(size=(M, F)))
    gram_matrix(Y[:2], 0.5)  # first BLAS calls outside the trace
    gpr._kernel_factor.cache_clear()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gram_matrix(Y, length_scale)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= gpr._fit_bytes(M, F, length_scale) + 2**13


def test_fit_bytes_count_the_route_taken(monkeypatch):
    # At l = 0.3, n = 27 and r = 17: one feature of 20 rows is low-rank
    # (F r = 17 < 20) and counts B^T and C; two features are a factor-route
    # Gram (F r = 34 >= 20) and count K and a G panel of 128 M-vectors; on
    # both, the n + 2 M-vectors of the Chebyshev fill and the centred
    # targets.  Smaller l takes the exact loop: K, the per-thread block
    # buffers on two threads, and the targets and the solve's seven
    # M-vectors.  Every route adds the one headroom.  A tall fit counts no
    # M x M Gram at all.
    monkeypatch.setattr(gpr, "_THREADS", 2)
    factor, headroom = gpr._kernel_factor(0.3), gpr._HEADROOM
    assert (factor.degree, factor.rank) == (27, 17)
    assert gpr._route(20, 1, 0.3) == (factor, True, "")
    assert gpr._fit_bytes(20, 1, 0.3) == 8 * 17 * (20 + 17) + 8 * 20 * 30 + headroom
    assert gpr._route(20, 2, 0.3) == (factor, False, "")
    assert gpr._fit_bytes(20, 2, 0.3) == 8 * 20 * (20 + 128) + 8 * 20 * 30 + headroom
    for length_scale in (0.15, 0.05):
        assert gpr._route(20, 1, length_scale)[:2] == (None, False)
        assert gpr._fit_bytes(20, 1, length_scale) == (8 * 20 * (20 + 8) + headroom
                                                       + 2 * (8 * 128 * 20 + gpr._UFUNC_BYTES))
    M = 3000
    assert gpr._fit_bytes(M, 4, 0.3) == 8 * 68 * (M + 68) + 8 * M * 30 + headroom
    assert gpr._fit_bytes(M, 4, 0.3) < 8 * M * M / 10


# A factor-route Gram of three panels at a row count where one dgemm over
# all rows gives different bits on 1 and 2 BLAS threads; the model file of a
# Gram-route fit below 128 rows, where dpotrf does not vary either; and that
# of a low-rank fit of 2000 rows with F r = 51 < 128, whose dpotrf is on C;
# as SHA-256.
_FACTOR_BITS = """
import hashlib, os, sys, tempfile
import numpy as np
from hdmrnet import gpr, hdmr_fit, save_model, synth
F = 2 * gpr._kernel_factor(0.3).panel + 3
K = gpr.gram_matrix(np.random.default_rng(0).uniform(size=(2300, F)), 0.3)
digests = [hashlib.sha256(K.tobytes()).hexdigest()]
for n, order, neurons in [(100, 2, 5), (2000, 1, 0)]:
    path = os.path.join(tempfile.mkdtemp(dir=sys.argv[1]), "model")
    save_model(hdmr_fit(synth("pairwise", 3, n, seed=1), order, neurons, 0.3), path)
    digests.append(hashlib.sha256(open(path, "rb").read()).hexdigest())
print(*digests)
"""


def test_factor_gram_and_small_fit_do_not_depend_on_the_blas_thread_count(tmp_path):
    # The first fit (F = 18) takes the Gram route, the second (F = 3) the
    # low-rank one.
    r = gpr._kernel_factor(0.3).rank
    assert (gpr._route(100, 18, 0.3)[1], gpr._route(2000, 3, 0.3)[1]) == (False, True)
    assert 3 * r < gpr._BLOCK
    path = os.pathsep.join(filter(None, [os.path.dirname(os.path.dirname(gpr.__file__)),
                                         os.environ.get("PYTHONPATH")]))
    outputs = [subprocess.run([sys.executable, "-c", _FACTOR_BITS, str(tmp_path)], check=True,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path,
                                   "OPENBLAS_NUM_THREADS": str(threads)}).stdout
               for threads in (1, 2)]
    assert len(outputs[0].split()) == 3
    assert outputs[0] == outputs[1]


def _gram_route_model(Y, t, length_scale, noise):
    """The model that the Gram route fits, whatever route `gpr_fit` takes."""
    b = t - np.mean(t)
    alpha, sigma = gpr._solve(gram_matrix(Y, length_scale), b, noise)
    return gpr.AdditiveGprModel(np.asfortranarray(Y), alpha, length_scale, noise, sigma,
                                float(np.mean(t)))


def test_low_rank_and_gram_routes_agree(caplog):
    # F r = 340 < M = 1000 at l = 0.3.  Both routes accept at the noise
    # asked for; their predictions differed by at most 1.2e-11 (targets up to
    # 11), under a tolerance of 1e-10.  They solve for B B^T and for the
    # Gram, which differ by about F eps_1, each to a backward error of 8 eps.
    rng = np.random.default_rng(1020)
    Y = rng.uniform(size=(1000, 20))
    t = np.sin(6.0 * Y).sum(axis=1)
    with caplog.at_level("DEBUG", logger="hdmrnet"):
        low = gpr_fit(Y, t, 0.3)
    assert "solve: low-rank route, F r = 340 < M = 1000, " in caplog.text
    assert "Gram:" not in caplog.text
    gram = _gram_route_model(Y, t, 0.3, 1e-6)
    assert low.effective_noise == gram.effective_noise == 1e-6
    Ystar = rng.uniform(size=(500, 20))
    assert np.abs(gpr_predict(low, Ystar) - gpr_predict(gram, Ystar)).max() <= 1e-10
    assert np.abs(gpr_predict(low, Y) - gpr_predict(gram, Y)).max() <= 1e-10


def test_panel_fill_has_the_bits_of_the_full_width_fill():
    # `_factor_matrix` is the one fill of G_j: a ragged panel of features
    # P to P + 3, filled into a reused (P, r, M) buffer as the Gram route
    # does, and a full one have the bits of the matching rows of the
    # low-rank route's B^T, so both routes see the same B.
    factor = gpr._kernel_factor(0.3)
    P, r, M = factor.panel, factor.rank, gpr._BLOCK + 5
    Y = np.asfortranarray(np.random.default_rng(11).uniform(size=(M, 2 * P + 1)))
    Bt = gpr._factor_matrix(Y, factor, np.empty((Y.shape[1], r, M)))
    assert Bt.shape == (Y.shape[1] * r, M)
    G = np.full((P, r, M), np.nan)
    for j0, k in [(P, 3), (0, P)]:
        panel = gpr._factor_matrix(Y[:, j0:j0 + k], factor, G)
        assert panel.shape == (k * r, M) and np.shares_memory(panel, G)
        assert panel.tobytes() == Bt[j0 * r:(j0 + k) * r].tobytes()


def test_gram_route_fit_builds_through_gram_matrix_once(monkeypatch):
    # A Gram-route fit, factor or exact, calls the public `gram_matrix` once,
    # so a wrapper of that name sees it; a low-rank fit calls it never.
    calls = []
    build = gpr.gram_matrix
    monkeypatch.setattr(gpr, "gram_matrix",
                        lambda Y, length_scale: calls.append(Y.shape) or build(Y, length_scale))
    Y = np.random.default_rng(12).uniform(size=(200, 15))
    t = np.sin(6.0 * Y).sum(axis=1)
    for F, length_scale, expected in [(15, 0.3, [(200, 15)]),  # F r = 255 >= M
                                      (3, 0.05, [(200, 3)]),  # exact loop
                                      (3, 0.3, [])]:  # F r = 51 < M
        calls.clear()
        gpr_fit(Y[:, :F], t, length_scale)
        assert calls == expected


@pytest.mark.parametrize("F, length_scale", [(3, 0.3), (15, 0.3), (3, 0.05)],
                         ids=["low-rank", "factor Gram", "exact Gram"])
def test_fit_keeps_fortran_float64_features_and_copies_others(F, length_scale):
    # A Fortran-ordered float64 Y is the model's Ytrain itself; any other Y
    # gives an equal Fortran-ordered copy, with the same alpha.
    rng = np.random.default_rng(13)
    Y = rng.uniform(size=(200, F))
    t = np.sin(6.0 * Y).sum(axis=1)
    kept = np.asfortranarray(Y)
    model = gpr_fit(kept, t, length_scale)
    assert model.Ytrain is kept
    for other in (Y, Y.tolist(), np.asfortranarray(np.repeat(Y, 2, axis=0))[::2]):
        copied = gpr_fit(other, t, length_scale)
        assert copied.Ytrain is not other and copied.Ytrain.flags.f_contiguous
        assert np.array_equal(copied.Ytrain, Y)
        assert copied.alpha.tobytes() == model.alpha.tobytes()


def test_hdmr_fit_calls_the_public_gpr_fit_once_on_every_route(monkeypatch):
    # `hdmr_fit` reaches the solve through `hdmrnet.model.gpr_fit` alone, so
    # a wrapper of that name sees every fit, and its features are kept.
    calls = []
    fit = gpr.gpr_fit
    monkeypatch.setattr("hdmrnet.model.gpr_fit",
                        lambda Y, *args: calls.append(Y) or fit(Y, *args))
    train = synth("pairwise", 3, 200, seed=3)
    for neurons, length_scale, route in [(2, 0.3, True),  # F r = 153 < M
                                         (20, 0.3, False),  # F r = 1071 >= M
                                         (2, 0.05, False)]:  # exact loop
        calls.clear()
        model = hdmr_fit(train, 2, neurons, length_scale)
        assert gpr._route(200, model.n_features, length_scale)[1] == route
        assert len(calls) == 1 and model.gpr.Ytrain is calls[0]


def test_low_rank_fit_escalates_a_tiny_noise_as_the_gram_route_does(monkeypatch, caplog):
    # At noise 1e-14 no try is accepted on either route (F r = 68 < M = 3000);
    # each try starts from C and the noise alone, so a refit at the
    # reported noise gives the same alpha bit for bit.
    rng = np.random.default_rng(5)
    Y = rng.uniform(size=(3000, 4))
    t = np.sin(6.0 * Y).sum(axis=1)
    with caplog.at_level("DEBUG", logger="hdmrnet"):
        model = gpr_fit(Y, t, 0.3, 1e-14)
    assert "solve: low-rank route, F r = 68 < M = 3000, " in caplog.text
    assert model.effective_noise != model.noise
    gram_route = _gram_route_model(Y, t, 0.3, 1e-14)
    assert gram_route.effective_noise != gram_route.noise
    again = gpr_fit(Y, t, 0.3, model.effective_noise)
    assert again.effective_noise == again.noise
    assert again.alpha.tobytes() == model.alpha.tobytes()
    # No factorization of C succeeds: the error reports the final jitter.
    monkeypatch.setattr(gpr._wrapper("_flapack"), "dpotrf", lambda a, **kwargs: (a, 1))
    with pytest.raises(IllConditionedGramError,
                       match=r"jitter 0\.01 \(requested noise 1e-06\)") as caught:
        gpr_fit(Y, t, 0.3)
    assert caught.value.final_jitter == gpr.MAX_JITTER


def test_low_rank_refinement_that_hits_its_cap_fails_the_try(monkeypatch, caplog):
    # The Woodbury solution at noise 1e-6 needs one refinement step here;
    # with no step allowed, that try and those at 1e-5 to 1e-2, which also
    # need one, fail, and the fit is refused at the jitter ceiling.
    rng = np.random.default_rng(6)
    Y = rng.uniform(size=(3000, 4))
    t = np.sin(6.0 * Y).sum(axis=1)
    with caplog.at_level("DEBUG", logger="hdmrnet"):
        model = gpr_fit(Y, t, 0.3)
    assert model.effective_noise == model.noise
    assert "low-rank route, F r = 68 < M = 3000, 1 refinement steps" in caplog.text
    tries, dpotrf = [], lapack.dpotrf
    monkeypatch.setattr(gpr._wrapper("_flapack"), "dpotrf",
                        lambda a, **kwargs: tries.append(1) or dpotrf(a, **kwargs))
    monkeypatch.setattr(gpr, "_REFINE_STEPS", 0)
    with pytest.raises(IllConditionedGramError) as caught:
        gpr_fit(Y, t, 0.3)
    assert caught.value.final_jitter == gpr.MAX_JITTER
    assert len(tries) == 5


def test_fit_without_scipys_lapack_module_is_an_import_error(monkeypatch):
    # No fallback: a scipy whose _flapack file cannot be found refuses the
    # fit, naming every file name that was tried.
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr("importlib.machinery.EXTENSION_SUFFIXES", [".missing.so"])
    Y = np.random.default_rng(8).uniform(size=(20, 2))
    with pytest.raises(ImportError, match=r"scipy\.linalg\._flapack is missing: none of "
                                          r"\S+_flapack\.missing\.so exists"):
        gpr_fit(Y, Y.sum(axis=1), 0.5)


def test_solve_route_is_logged(caplog):
    # One line per fit names the route, F r against M, the refinement steps,
    # eta and sigma; at l = 0.05 there is no factor.
    Y = np.random.default_rng(8).uniform(size=(200, 3))
    t = np.sin(6.0 * Y).sum(axis=1)
    expected = [(0.3, r"low-rank route, F r = 51 < M = 200, \d refinement steps"),
                (0.3, r"Gram route, F r = 255 >= M = 200, 0 refinement steps"),
                (0.05, r"Gram route, exact loop, M = 200, 0 refinement steps")]
    for (length_scale, route), F in zip(expected, (3, 15, 3)):
        caplog.clear()
        with caplog.at_level("DEBUG", logger="hdmrnet"):
            gpr_fit(np.resize(Y, (200, F)), t, length_scale)
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("solve:")]
        assert len(lines) == 1
        assert re.fullmatch(rf"solve: {route}, eta = [0-9.e+-]+ eps at sigma = 1e-06", lines[0])
