"""Acceptance suite: one test per capability claim, each printing a
[ACCEPTANCE] pass/fail line.

The suite is self-contained on synthetic data.  The two molecular-surface
tests run only when the environment points at locally supplied datasets:

    HDMRNET_H2O_CSV   3 coordinate columns + energy (cm^-1) target
    HDMRNET_H2CO_CSV  6 coordinate columns + energy (cm^-1) target
"""

import math
import os
import time
from contextlib import contextmanager
from math import comb

import numpy as np
import pytest

import hdmrnet as hn

# fits performed by the suite that have enough features to interpolate
# their training data; the near-interpolation test sweeps this registry
FIT_REGISTRY: list[tuple[str, float, float, bool]] = []


def _register(label: str, model, train_X, train_t) -> float:
    train_rmse = hn.rmse(hn.hdmr_predict(model, train_X), train_t)
    FIT_REGISTRY.append(
        (label, train_rmse, float(np.std(train_t)),
         model.gpr.effective_noise != model.gpr.noise)
    )
    return train_rmse


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {name}: FAIL")
        raise
    print(f"[ACCEPTANCE] {name}: PASS")


# ---------------------------------------------------------------------------
# Shared fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pairwise_dataset():
    return hn.synth("pairwise", 3, 7000, seed=101)


@pytest.fixture(scope="module")
def separation(pairwise_dataset):
    """Best-of-3-splits test rmse for order 1 and order 2 on the pairwise
    target, M = 1000 training rows."""
    best = {1: math.inf, 2: math.inf}
    for seed in (0, 1, 2):
        train, test = hn.split(pairwise_dataset, 1000, seed=seed, test_size=5000)
        m1 = hn.hdmr_fit(train, 1, 0, 0.3)
        best[1] = min(best[1], hn.rmse(hn.hdmr_predict(m1, test.X), test.t))
        m2 = hn.hdmr_fit(train, 2, 20, 0.3)
        best[2] = min(best[2], hn.rmse(hn.hdmr_predict(m2, test.X), test.t))
        # order-1 fits are deliberately under-capacity here (3 features for
        # a coupled target) and are judged by the floor test instead
        _register(f"separation d=2 seed={seed}", m2, train.X, train.t)
    return best


@pytest.fixture(scope="module")
def overfit_rmse(pairwise_dataset):
    """Mean test rmse over 3 splits at 10 and at 200 neurons per term."""
    means = {}
    for N in (10, 200):
        values = []
        for seed in (0, 1, 2):
            train, test = hn.split(pairwise_dataset, 1000, seed=seed, test_size=2000)
            model = hn.hdmr_fit(train, 2, N, 0.3)
            values.append(hn.rmse(hn.hdmr_predict(model, test.X), test.t))
            _register(f"overfit N={N} seed={seed}", model, train.X, train.t)
        means[N] = float(np.mean(values))
    return means


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_component_sum_identity():
    """The offset plus per-feature component functions reproduce the
    posterior mean, including on badly conditioned fits."""
    with criterion("component-sum identity"):
        started = time.perf_counter()
        worst = 0.0
        for case in range(200):
            rng = np.random.default_rng(1000 + case)
            M = int(rng.integers(2, 51))
            F = int(rng.integers(1, 41))
            Y = rng.uniform(size=(M, F))
            t = rng.normal(size=M)  # rough targets stress the conditioning
            model = hn.gpr_fit(Y, t, float(rng.uniform(0.2, 1.5)))
            Ystar = rng.uniform(size=(1000, F))
            total = np.full(1000, model.target_offset)
            for j in range(F):
                total += hn.gpr_component(model, j, Ystar[:, j])
            mean = hn.gpr_predict(model, Ystar)
            scale = max(1.0, float(np.abs(mean).max()))
            worst = max(worst, float(np.abs(total - mean).max()) / scale)
        assert worst <= 1e-10, f"worst relative deviation {worst:.3e}"
        assert time.perf_counter() - started < 60.0


def test_low_discrepancy_reference_fidelity():
    """First 64 points in dimensions 1..6 match the frozen independent
    reference bit-exactly."""
    with criterion("low-discrepancy reference fidelity"):
        import json

        path = os.path.join(os.path.dirname(__file__), "data", "sobol_reference.json")
        with open(path) as fh:
            reference = {int(k): np.array(v) for k, v in json.load(fh).items()}
        for dim in range(1, 7):
            assert np.array_equal(hn.sobol_points(dim, 64), reference[dim])


def test_additive_recovery():
    """A purely additive target is recovered by the order-1 model with a
    grid-searched length scale: test rmse within 1% of the target spread."""
    with criterion("additive recovery"):
        started = time.perf_counter()
        ds = hn.synth("additive", 3, 5500, seed=202)
        train, test = hn.split(ds, 500, seed=0, test_size=5000)
        best_l, _ = hn.grid_search_l(
            train, 1, 0, [0.05, 0.1, 0.2, 0.4, 0.8], 1e-6, seed=0
        )
        model = hn.hdmr_fit(train, 1, 0, best_l)
        _register("additive recovery d=1", model, train.X, train.t)
        test_rmse = hn.rmse(hn.hdmr_predict(model, test.X), test.t)
        assert test_rmse <= 0.01 * test.t.std(), (
            f"test rmse {test_rmse:.3e} vs budget {0.01 * test.t.std():.3e}"
        )
        assert time.perf_counter() - started < 10.0


def _mc_anova_floor(n=1_000_000, bins=64, seed=321):
    """Monte Carlo estimate of the best additive approximation error for
    the pairwise target on the unit cube."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, 3))
    s = X.sum(axis=1)
    t = 0.5 * (s * s - (X * X).sum(axis=1))
    f0 = t.mean()
    resid = t - f0
    for i in range(3):
        idx = np.minimum((X[:, i] * bins).astype(np.int64), bins - 1)
        means = np.bincount(idx, weights=t, minlength=bins) / np.bincount(
            idx, minlength=bins
        )
        resid -= means[idx] - f0
    return float(resid.std()), float(t.std())


def test_coupling_order_separation(separation):
    """Order 1 cannot beat the additive floor on a pairwise target, while
    order 2 with 20 neurons per term collapses the error."""
    with criterion("coupling-order separation"):
        started = time.perf_counter()
        floor, t_std = _mc_anova_floor()
        # closed-form cross-checks of the Monte Carlo oracle
        assert abs(floor - 1 / math.sqrt(48)) <= 0.02 * floor
        assert abs(t_std - math.sqrt(13 / 48)) <= 0.02 * t_std
        assert separation[1] >= 0.8 * floor, (
            f"order-1 rmse {separation[1]:.4f} beat the additive floor {floor:.4f}"
        )
        assert separation[2] <= 0.01 * t_std, (
            f"order-2 rmse {separation[2]:.3e} vs budget {0.01 * t_std:.3e}"
        )
        assert time.perf_counter() - started < 60.0


def test_overfitting_resistance(overfit_rmse):
    """Raising the neurons per term from 10 to 200 must not blow up the
    test error (mean over 3 splits)."""
    with criterion("overfitting resistance"):
        ratio = overfit_rmse[200] / overfit_rmse[10]
        assert ratio < 2.0, (
            f"test rmse grew {ratio:.2f}x from N=10 ({overfit_rmse[10]:.3e}) "
            f"to N=200 ({overfit_rmse[200]:.3e})"
        )


def test_near_interpolation(separation, overfit_rmse):
    """Every capacity-adequate fit in this suite sits within 1e-3 of the
    target spread on its own training data, unless jitter escalated."""
    with criterion("near-interpolation"):
        assert FIT_REGISTRY, "no fits registered"
        escalated = [label for label, _, _, esc in FIT_REGISTRY if esc]
        for label, train_rmse, t_std, esc in FIT_REGISTRY:
            if esc:
                continue  # reported below instead
            assert train_rmse <= 1e-3 * t_std, (
                f"{label}: train rmse {train_rmse:.3e} vs budget {1e-3 * t_std:.3e}"
            )
        if escalated:
            print(f"jitter escalation occurred in: {', '.join(escalated)}")


def test_determinism(tmp_path, pairwise_dataset):
    """Identical configurations give bit-identical model files, and sweep
    records independent of the worker count."""
    with criterion("determinism"):
        train, _ = hn.split(pairwise_dataset, 300, seed=5, test_size=100)
        paths = []
        for run in (0, 1):
            model = hn.hdmr_fit(train, 2, 6, 0.3, split_seed=5)
            path = str(tmp_path / f"run{run}.model.json")
            hn.save_model(model, path)
            paths.append(path)
        assert open(paths[0], "rb").read() == open(paths[1], "rb").read()

        results = [
            hn.sweep(pairwise_dataset, [1, 2], [4], 2, 300, 200, 0.3, 1e-6, 11, jobs=jobs)
            for jobs in (1, 2)
        ]
        for a, b in zip(results[0].records, results[1].records):
            assert (a.d, a.N, a.repeat, a.seed, a.status) == (
                b.d, b.N, b.repeat, b.seed, b.status,
            )
            # every column except the timing one is bit-identical
            assert (a.train_rmse, a.test_rmse) == (b.train_rmse, b.test_rmse)
            assert (a.train_corr, a.test_corr) == (b.train_corr, b.test_corr)


# ---------------------------------------------------------------------------
# Conditional: locally supplied molecular datasets
# ---------------------------------------------------------------------------


def _best_of_splits(dataset, train_size, order, neurons, l, seeds=(0, 1, 2)):
    best = math.inf
    for seed in seeds:
        train, test = hn.split(dataset, train_size, seed=seed)
        model = hn.hdmr_fit(train, order, neurons, l)
        best = min(best, hn.rmse(hn.hdmr_predict(model, test.X), test.t))
    return best


def test_water_surface_error():
    """3-coordinate molecular energies: order 2 reaches spectroscopic-scale
    test error at 1000 and at 500 training points."""
    path = os.environ.get("HDMRNET_H2O_CSV")
    if not path:
        pytest.skip("set HDMRNET_H2O_CSV to run the water-surface check")
    with criterion("water surface error"):
        ds = hn.load_csv(path)
        assert ds.dimension == 3, f"expected 3 coordinate columns, got {ds.dimension}"
        assert _best_of_splits(ds, 1000, 2, 40, 0.45) <= 2.0
        assert _best_of_splits(ds, 500, 2, 40, 0.45) <= 4.0


def test_formaldehyde_order_sweep_shape():
    """6-coordinate molecular energies: error vs coupling order follows the
    expected shape, with the minimum at order 4."""
    path = os.environ.get("HDMRNET_H2CO_CSV")
    if not path:
        pytest.skip("set HDMRNET_H2CO_CSV to run the order-sweep check")
    with criterion("formaldehyde order-sweep shape"):
        ds = hn.load_csv(path)
        assert ds.dimension == 6, f"expected 6 coordinate columns, got {ds.dimension}"
        budgets = {1: 1302.7, 2: 385.5, 3: 20.4, 4: 14.6, 5: 16.5, 6: 19.6}
        achieved = {}
        for order in range(1, 7):
            neurons = 0 if order == 1 else min(200, max(20, 600 // comb(6, order)))
            achieved[order] = _best_of_splits(ds, 1000, order, neurons, 0.9)
            assert achieved[order] <= 2.0 * budgets[order], (
                f"order {order}: rmse {achieved[order]:.1f} vs budget "
                f"{2.0 * budgets[order]:.1f}"
            )
        assert min(achieved, key=achieved.get) == 4
        assert achieved[5] <= 2.0 * achieved[4]
        assert achieved[6] > achieved[4]
