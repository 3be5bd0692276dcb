"""Additive-kernel GPR tests.

The 2x2 closed-form solution and the hand-computed kernel values act as
independent oracles for the linear-algebra path.
"""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.linalg.lapack import dpotrs

from hdmrnet import (
    gpr,
    gpr_component,
    gpr_fit,
    gpr_predict,
    gram_matrix,
    hdmr_fit,
    hdmr_predict,
    kernel_1d,
    kernel_additive,
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


def test_kernel_1d_known_values():
    assert kernel_1d(0.3, 0.3, 0.7) == 1.0
    # distance 1, length scale 1: exp(-1/2)
    assert kernel_1d(0.0, 1.0, 1.0) == pytest.approx(0.6065306597126334, rel=1e-15)
    assert kernel_1d(2.0, 0.0, 1.0) == pytest.approx(math.exp(-2.0), rel=1e-15)
    assert kernel_1d(0.25, 0.75, 0.5) == kernel_1d(0.75, 0.25, 0.5)


def test_kernel_additive_matches_feature_sum():
    rng = np.random.default_rng(0)
    ya, yb = rng.uniform(size=7), rng.uniform(size=7)
    expected = sum(kernel_1d(a, b, 0.4) for a, b in zip(ya, yb))
    assert kernel_additive(ya, yb, 0.4) == pytest.approx(expected, rel=1e-15)
    with pytest.raises(ShapeError):
        kernel_additive(ya, yb[:3], 0.4)


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
            assert K[i, j] == pytest.approx(kernel_additive(Y[i], Y[j], 0.45), rel=1e-14)


def test_results_do_not_depend_on_thread_count(monkeypatch, tmp_path):
    pools = []

    class SpyExecutor(gpr.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(gpr, "ThreadPoolExecutor", SpyExecutor)
    rng = np.random.default_rng(7)
    M = 2 * gpr._BLOCK + 5  # three row blocks, the last one ragged
    Y = rng.uniform(size=(M, 6))
    t = np.sin(3.0 * Y).sum(axis=1)
    Ystar = rng.uniform(size=(M + 40, 6))
    train = synth("pairwise", 3, M, seed=2)
    outputs = {}
    for threads in (1, 2):
        monkeypatch.setattr(gpr, "_THREADS", threads)
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
    assert pools and set(pools) == {2}  # the one-thread run starts no pool
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
    assert not model.jitter_escalated


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
            model.alpha[m] * kernel_additive(Ystar[r], Y[m], 0.8) for m in range(25)
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
    monkeypatch.setattr(gpr, "gram_matrix", lambda *args: calls.append(args))
    Y = np.random.default_rng(4).uniform(size=(10, 2))
    model = gpr_fit(Y, np.full(10, 3.25), 0.5, 1e-7)
    assert calls == []  # no Gram is built for a zero-variance target
    assert np.array_equal(model.alpha, np.zeros(10))
    assert model.effective_noise == model.noise == 1e-7
    assert model.target_offset == 3.25
    assert np.array_equal(gpr_predict(model, Y), np.full(10, 3.25))
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
                 lambda: gram_matrix(Y, length_scale),
                 lambda: kernel_1d(0.0, 1.0, length_scale)):
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
    assert model.jitter_escalated
    again = gpr_fit(Y, t, 1.0, model.effective_noise)
    assert not again.jitter_escalated
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
    monkeypatch.setattr(gpr, "dpotrs", perturbed)
    model = gpr_fit(Y, t, 0.8, 1e-6)
    assert len(solves) == 2
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


@pytest.mark.parametrize("M, F, noise, escalates", [(600, 2, 1e-14, True), (600, 3, 1e-6, False)])
def test_fit_peak_memory_is_the_counted_gram_and_factor_buffer(M, F, noise, escalates):
    # The Gram guard of `model._training_features` counts `gpr._fit_bytes`
    # for a fit: the Gram matrix, which `_solve` factors in place, the
    # centred targets, and the larger of what builds the Gram and what
    # solves it.  Besides that a fit holds 64 KiB of the interpreter's own
    # objects; a second (M, M) array would not fit.
    rng = np.random.default_rng(0)
    Y = rng.uniform(size=(M, F))
    t = np.sin(6.0 * Y).sum(axis=1)
    gpr_fit(Y, t, 1.0, noise)  # first LAPACK call outside the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model = gpr_fit(Y, t, 1.0, noise)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert model.jitter_escalated == escalates
    assert peak <= gpr._fit_bytes(M, F) + 2**16


# K, with NaN where a factor would be, and the products that `_solve`
# checks a try with, printed as hex.
_PRODUCTS = """
import numpy as np
from hdmrnet import gpr
M = 500
K = gpr.gram_matrix(np.random.default_rng(0).uniform(size=(M, 3)), 0.5)
shifted = K.diagonal() + 1e-6
K[np.triu_indices(M)] = np.nan
block = np.empty(gpr._BLOCK ** 2)
for v in (np.sin(0.37 * np.arange(M)), np.ones(M)):
    print(gpr._symmetric_product(K, shifted, v, block).tobytes().hex())
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
    # plus 8 KiB for the interpreter's own objects, on every try.
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
    assert peak <= gpr._solve_scratch_bytes(M) + 2**13


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
