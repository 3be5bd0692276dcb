"""Metric, sweep, importance, curve, and length-scale search tests."""

import json
import math
import os
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import hdmrnet.data
from hdmrnet import (
    AdditiveGprModel,
    Dataset,
    HdmrModel,
    build_feature_map,
    component_curves,
    grid_search_l,
    hdmr_fit,
    importance,
    pearson_corr,
    rmse,
    sweep,
    synth,
    write_sweep_csv,
)
from hdmrnet import analysis
from hdmrnet.analysis import SWEEP_COLUMNS
from hdmrnet.errors import DatasetError, InvalidHyperparameterError, InvalidOrderError, ShapeError


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def test_rmse_known_values():
    assert rmse(np.array([1.0, 2.0]), np.array([0.0, 2.0])) == pytest.approx(
        math.sqrt(0.5), rel=1e-15
    )
    assert rmse(np.array([3.0, 3.0, 3.0]), np.array([3.0, 3.0, 3.0])) == 0.0
    with pytest.raises(ShapeError):
        rmse(np.zeros(3), np.zeros(4))
    with pytest.raises(ShapeError):
        rmse(np.zeros(0), np.zeros(0))


def test_pearson_corr_known_values():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    assert pearson_corr(a, 2 * a + 7) == pytest.approx(1.0, abs=1e-15)
    assert pearson_corr(a, -a) == pytest.approx(-1.0, abs=1e-15)
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=200), rng.normal(size=200)
    assert pearson_corr(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1], rel=1e-12)
    with pytest.raises(DatasetError):
        pearson_corr(np.array([1.0, 1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ShapeError):
        pearson_corr(np.array([1.0]), np.array([1.0]))


def _plain_scores(p, a):
    """RMSE and Pearson correlation by their textbook formulas, for
    magnitudes where no square or sum overflows or underflows; the
    correlation clipped to [-1, 1], which rounding can leave by an ulp."""
    d = p - a
    vp, va = p - p.mean(), a - a.mean()
    r = (vp @ va) / (float(np.sqrt(vp @ vp)) * float(np.sqrt(va @ va)))
    return float(np.sqrt(np.mean(d * d))), float(np.clip(r, -1.0, 1.0))


@pytest.mark.parametrize("exponent", range(-100, 101, 20))
def test_scores_equal_the_plain_formulas_bit_for_bit(exponent):
    # Each score divides by powers of two only, which is exact: where the
    # textbook formula neither overflows nor underflows, it gives its bits.
    # The targets a lie at 10^second, their deviation from p at 10^(second + gap).
    rng = np.random.default_rng(exponent + 100)
    for n, second, gap in [(2, exponent, 0), (7, exponent, -3), (40, -exponent, 0),
                           (200, exponent, -12), (33, exponent // 2, -1)]:
        p = rng.normal(size=n) * 10.0**exponent
        a = p * 10.0**(second - exponent) + rng.normal(size=n) * 10.0**(second + gap)
        assert (rmse(p, a), pearson_corr(p, a)) == _plain_scores(p, a)


@pytest.mark.parametrize("p, a", [
    ([1.7e308, -1.7e308, 1e308], [1.6e308, -1.6e308, 0.9e308]),
    ([1.7e308, 0.0, 1.0, 0.0], [-1e308, 1.0, 2.0, 3.0]),
    (1.7e308 * np.sin(np.arange(50.0)), 1.7e308 * np.cos(np.arange(50.0))),
], ids=["close", "opposite", "spread"])
def test_scores_near_the_float_limit_are_finite(p, a):
    # The squares and sums of these overflow, but the scores do not: they
    # equal the plain formulas on the inputs scaled by 2^-600, scaled back.
    p, a = np.array(p), np.array(a)
    k = 2.0**-600
    plain_rmse, plain_corr = _plain_scores(p * k, a * k)
    assert rmse(p, a) == plain_rmse / k and math.isfinite(rmse(p, a))
    assert pearson_corr(p, a) == plain_corr


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_sweep():
    ds = synth("pairwise", 3, 200, seed=2)
    result = sweep(
        ds,
        d_list=[1, 2],
        N_list=[3, 5],
        repeats=2,
        train_size=100,
        test_size=50,
        length_scale=0.3,
        noise=1e-6,
        base_seed=40,
    )
    return ds, result


def test_sweep_grid_coverage_and_order(tiny_sweep):
    _, result = tiny_sweep
    keys = [(r.d, r.N, r.repeat) for r in result.records]
    assert keys == [
        (d, N, rep) for d in (1, 2) for N in (3, 5) for rep in (0, 1)
    ]
    assert all(r.seed == 40 + r.repeat for r in result.records)
    assert all(r.status == "ok" for r in result.records)
    assert all(r.wall_s >= 0 for r in result.records)


def test_sweep_summary_takes_min_over_repeats(tiny_sweep):
    _, result = tiny_sweep
    summary = dict(((d, N), v) for d, N, v in result.summary())
    for (d, N), v in summary.items():
        cell = [r.test_rmse for r in result.records if (r.d, r.N) == (d, N)]
        assert v == min(cell)
    # coupling order 2 beats order 1 on a pairwise target
    assert summary[(2, 5)] < summary[(1, 5)]


def test_sweep_is_deterministic_and_jobs_independent(tiny_sweep):
    ds, result = tiny_sweep
    again = sweep(
        ds, [1, 2], [3, 5], 2, 100, 50, 0.3, 1e-6, 40, jobs=2
    )
    for a, b in zip(result.records, again.records):
        assert (a.d, a.N, a.repeat, a.seed) == (b.d, b.N, b.repeat, b.seed)
        # bit-equal metrics; only the timing column may differ
        assert (a.train_rmse, a.test_rmse) == (b.train_rmse, b.test_rmse)
        assert (a.train_corr, a.test_corr) == (b.train_corr, b.test_corr)
        assert a.status == b.status


def test_sweep_records_failed_cells_without_aborting(monkeypatch):
    # Against 100 MB of memory the N = 10^6 cell's 3 * 10^6 features of 30
    # rows are refused, while the N = 2 cell fits.
    monkeypatch.setattr(hdmrnet.data, "_MEMORY_BYTES", 10**8)
    ds = synth("pairwise", 3, 60, seed=3)
    result = sweep(ds, [2], [2, 10**6], 1, 30, 20, 0.3, 1e-6, 7)
    by_N = {r.N: r for r in result.records}
    assert by_N[2].status == "ok"
    assert by_N[10**6].status == "error:InvalidHyperparameterError"
    assert math.isnan(by_N[10**6].test_rmse)
    assert [(d, N) for d, N, _ in result.summary()] == [(2, 2)]


def test_bugs_in_a_fit_propagate(monkeypatch):
    def broken_fit(*args, **kwargs):
        raise TypeError("bug inside the fit")

    monkeypatch.setattr(analysis, "hdmr_fit", broken_fit)
    ds = synth("pairwise", 3, 60, seed=3)
    with pytest.raises(TypeError, match="bug inside the fit"):
        sweep(ds, [2], [2], 1, 30, 20, 0.3, 1e-6, 7)
    with pytest.raises(TypeError, match="bug inside the fit"):
        grid_search_l(ds, 1, 0, [0.3], 1e-6, seed=5)


def test_sweep_cells_run_in_this_process(monkeypatch):
    calls = []
    real_fit = analysis.hdmr_fit

    def recording_fit(*args, **kwargs):
        calls.append(os.getpid())
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(analysis, "hdmr_fit", recording_fit)
    ds = synth("pairwise", 3, 60, seed=3)
    result = sweep(ds, [1, 2], [2], 2, 30, 20, 0.3, 1e-6, 7, jobs=2)
    assert len(calls) == len(result.records) == 4
    assert calls == [os.getpid()] * 4


def test_sweep_cells_on_more_threads_than_cores_match_one_thread(tiny_sweep):
    # Cells share the dataset and the configuration; frequent thread
    # switches with four threads would expose any state a cell writes.
    ds, result = tiny_sweep
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        again = sweep(ds, [1, 2], [3, 5], 2, 100, 50, 0.3, 1e-6, 40, jobs=4)
    finally:
        sys.setswitchinterval(interval)
    untimed = [[replace(r, wall_s=0.0) for r in res.records] for res in (result, again)]
    assert untimed[0] == untimed[1]


def test_sweep_csv_layout(tiny_sweep, tmp_path):
    _, result = tiny_sweep
    path = str(tmp_path / "sweep.csv")
    write_sweep_csv(result, path)
    lines = open(path).read().splitlines()
    assert lines[0].startswith("# config: ")
    config = json.loads(lines[0][len("# config: ") :])
    assert config["train_size"] == 100 and config["base_seed"] == 40
    assert lines[1] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 2 + len(result.records)
    first = lines[2].split(",")
    assert first[0] == "1" and first[-1] == "ok"
    # metric cells round-trip exactly through repr
    assert float(first[5]) == result.records[0].test_rmse


def test_sweep_validation(monkeypatch):
    ds = synth("pairwise", 3, 60, seed=3)
    with pytest.raises(ValueError):
        sweep(ds, [1], [2], 0, 30, 20, 0.3, 1e-6, 7)
    with pytest.raises(ValueError):
        sweep(ds, [1], [2], 1, 30, 20, 0.3, 1e-6, 7, jobs=0)
    # settings that every cell would refuse are refused before any cell runs
    monkeypatch.setattr(analysis, "_run_cell", lambda *args: pytest.fail("a cell ran"))
    for l, noise in [(math.inf, 1e-6), (-0.3, 1e-6), (1e-200, 1e-6), (0.3, math.nan),
                     (0.3, 0.0)]:
        with pytest.raises(InvalidHyperparameterError):
            sweep(ds, [1], [2], 1, 30, 20, l, noise, 7)
    for train_size, test_size in [(60, None), (0, None), (30, 31), (30, 0)]:
        with pytest.raises(DatasetError, match="_size must be in"):
            sweep(ds, [1], [2], 1, train_size, test_size, 0.3, 1e-6, 7)
    # as are a coupling order or neuron count that any one cell would refuse
    for d_list in ([1, 4], [0, 2]):
        with pytest.raises(InvalidOrderError, match=r"must be in \[1, 3\]"):
            sweep(ds, d_list, [2], 1, 30, 20, 0.3, 1e-6, 7)
    for N_list in ([-1], [2, -1]):
        with pytest.raises(ValueError, match="neurons_per_term must be >= 0"):
            sweep(ds, [1, 2], N_list, 1, 30, 20, 0.3, 1e-6, 7)
    # and a negative seed, a one-row training split and the Sobol limit
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        sweep(ds, [1], [2], 1, 30, 20, 0.3, 1e-6, -1)
    with pytest.raises(DatasetError, match="at least 2 rows, got 1"):
        sweep(ds, [1], [2], 1, 1, 20, 0.3, 1e-6, 7)
    with pytest.raises(ValueError, match="sequence exhausted"):
        sweep(ds, [1, 2], [2**32 // 3 + 1], 1, 30, 20, 0.3, 1e-6, 7)  # 1 + 3 N > 2^32


# ---------------------------------------------------------------------------
# Importance and component curves
# ---------------------------------------------------------------------------


def test_importance_finds_additive_structure():
    # the minimum-norm solution can still park a little additive mass in
    # coupled features; at these settings the ratio sits near 7x
    ds = synth("additive", 3, 600, seed=8)
    model = hdmr_fit(ds, 2, 4, 0.3)
    ranked = importance(model, ds.X)
    assert all(len(s) == 1 for s, _ in ranked[:3])
    singleton_floor = min(v for s, v in ranked if len(s) == 1)
    coupled_ceiling = max(v for s, v in ranked if len(s) == 2)
    assert singleton_floor >= 5 * coupled_ceiling
    stds = [v for _, v in ranked]
    assert stds == sorted(stds, reverse=True)


def test_importance_ignores_target_offset():
    ds = synth("pairwise", 3, 200, seed=9)
    shifted = synth("pairwise", 3, 200, seed=9)
    shifted.t = shifted.t + 100.0
    a = importance(hdmr_fit(ds, 2, 4, 0.3), ds.X)
    b = importance(hdmr_fit(shifted, 2, 4, 0.3), shifted.X)
    assert [s for s, _ in a] == [s for s, _ in b]
    assert np.allclose([v for _, v in a], [v for _, v in b], rtol=0, atol=1e-9)


def test_importance_on_zero_rows_is_refused():
    ds = synth("pairwise", 3, 60, seed=9)
    with pytest.raises(DatasetError, match="at least one row"):
        importance(hdmr_fit(ds, 2, 3, 0.3), ds.X[:0])


def test_component_curves_shapes_and_consistency():
    ds = synth("pairwise", 3, 120, seed=10)
    model = hdmr_fit(ds, 2, 4, 0.3)
    curves = component_curves(model, grid_size=41)
    assert len(curves) == model.n_features
    for j, curve in enumerate(curves):
        assert curve.feature_index == j
        assert curve.grid[0] == 0.0 and curve.grid[-1] == 1.0
        assert curve.grid.shape == curve.values.shape == (41,)
    # curve values are exactly the neuron function sampled on the grid
    from hdmrnet import gpr_component

    for j in (0, model.n_features - 1):
        direct = gpr_component(model.gpr, j, curves[j].grid)
        assert np.array_equal(curves[j].values, direct)
    with pytest.raises(ValueError):
        component_curves(model, grid_size=1)


def test_component_curves_zero_for_constant_target():
    ds = synth("pairwise", 3, 50, seed=11)
    ds.t = np.full(50, 2.0)
    model = hdmr_fit(ds, 2, 3, 0.3)
    for curve in component_curves(model, grid_size=11):
        assert np.array_equal(curve.values, np.zeros(11))


def test_component_curves_past_physical_memory_are_refused(monkeypatch):
    # F = 3 + 3 * 3 = 12 curves of 41 points, their grid, a spare column
    # and the 12 one-feature groups, 8 * (14 * 41 + 12) = 4688 bytes, plus
    # one kernel thread's scratch against M = 60 rows, a block buffer, two
    # ufunc buffers and the thread's own objects,
    # 8 * (128 * 60 + 2 * 8192 + 2048) = 208,896 bytes
    model = hdmr_fit(synth("pairwise", 3, 60, seed=10), 2, 3, 0.3)
    monkeypatch.setattr("hdmrnet.gpr._THREADS", 1)
    monkeypatch.setattr("hdmrnet.data._MEMORY_BYTES", 213_583)
    with pytest.raises(InvalidHyperparameterError, match="12 curves of 41 points"):
        component_curves(model, grid_size=41)
    monkeypatch.setattr("hdmrnet.data._MEMORY_BYTES", 213_584)
    assert len(component_curves(model, grid_size=41)) == 12


def _curve_model(dimension, neurons, M, length_scale=0.3):
    """An order-2 surrogate of F = D + C(D, 2) * neurons features against M
    random training rows, built without a fit: curves need only the map and
    the GPR's training features and dual coefficients."""
    fmap = build_feature_map(dimension, 2, neurons)
    rng = np.random.default_rng(0)
    gp = AdditiveGprModel(rng.uniform(size=(M, fmap.n_features)), rng.normal(size=M),
                          length_scale, 1e-6, 1e-6, 0.0)
    return HdmrModel(fmap, None, gp, {}, None)


@pytest.mark.parametrize("threads", [1, 2])
def test_component_curves_peak_memory_is_within_the_counted_bytes(monkeypatch, threads):
    # The fit_coupled shape: F = 306 curves against M = 1000 rows.  Each
    # kernel thread holds one block buffer, not one per block.
    model = _curve_model(6, 20, 1000)
    assert model.n_features == 306
    monkeypatch.setattr("hdmrnet.gpr._THREADS", threads)
    counted = []
    check = analysis._check_memory
    monkeypatch.setattr(analysis, "_check_memory",
                        lambda needed, what: (counted.append(needed), check(needed, what)))
    component_curves(model)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        curves = component_curves(model)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(curves) == 306
    assert peak <= counted[-1]


def test_component_curves_open_one_pool(monkeypatch):
    from hdmrnet import gpr

    pools = []

    class SpyExecutor(gpr.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    model = _curve_model(3, 3, 60)
    monkeypatch.setattr(gpr, "ThreadPoolExecutor", SpyExecutor)
    monkeypatch.setattr(gpr, "_THREADS", 2)
    curves = component_curves(model, grid_size=41)
    assert pools == [2]  # one pool for all 12 curves
    for j in (0, 11):
        assert np.array_equal(curves[j].values, gpr.gpr_component(model.gpr, j, curves[j].grid))


def test_component_curves_smoothness_bound():
    ds = synth("pairwise", 3, 100, seed=12)
    model = hdmr_fit(ds, 2, 4, 0.3)
    curves = component_curves(model, grid_size=201)
    h = 1.0 / 200.0
    # |f_j''| <= sum|alpha| / l^2 for the squared-exponential kernel, so
    # second differences are bounded by that curvature times h^2
    bound = float(np.abs(model.gpr.alpha).sum()) / model.gpr.length_scale**2 * h * h
    for curve in curves:
        second = np.diff(curve.values, n=2)
        assert np.abs(second).max() <= 2.0 * bound


# ---------------------------------------------------------------------------
# Length-scale search
# ---------------------------------------------------------------------------


def test_grid_search_picks_a_sensible_scale():
    ds = synth("additive", 3, 400, seed=13)
    best, results = grid_search_l(ds, 1, 0, [0.05, 0.2, 0.5, 1.0], 1e-6, seed=3)
    scores = dict(results)
    assert best in scores
    finite = {l: s for l, s in scores.items() if math.isfinite(s)}
    assert scores[best] == min(finite.values())
    # the picked scale actually fits the data well
    model = hdmr_fit(ds, 1, 0, best)
    from hdmrnet import hdmr_predict

    assert rmse(hdmr_predict(model, ds.X), ds.t) <= 0.01 * ds.t.std()


def test_grid_search_is_deterministic_and_skips_bad_candidates():
    ds = synth("additive", 3, 200, seed=14)
    a = grid_search_l(ds, 1, 0, [0.1, 0.3], 1e-6, seed=5)
    b = grid_search_l(ds, 1, 0, [0.3, 0.1], 1e-6, seed=5)
    assert a == b  # candidate order does not matter
    best, results = grid_search_l(ds, 1, 0, [-1.0, 0.3], 1e-6, seed=5)
    assert best == 0.3
    assert dict(results)[-1.0] == float("inf")


def test_grid_search_refuses_bad_settings_before_any_fit(monkeypatch):
    ds = synth("additive", 3, 50, seed=15)
    calls = []
    real_fit = analysis.hdmr_fit

    def recording_fit(train, order, neurons, length_scale, noise):
        calls.append(length_scale)
        return real_fit(train, order, neurons, length_scale, noise)

    monkeypatch.setattr(analysis, "hdmr_fit", recording_fit)
    for train, order, neurons, noise, error, message in [
            (ds, 4, 0, 1e-6, InvalidOrderError, r"must be in \[1, 3\], got 4"),
            (ds, 1, -1, 1e-6, ValueError, "neurons_per_term must be >= 0"),
            (ds, 1, 0, math.nan, InvalidHyperparameterError, "noise"),
            (Dataset(X=ds.X[:2], t=ds.t[:2]), 1, 0, 1e-6, DatasetError,
             "at least 2 rows, got 1"),
            (Dataset(X=ds.X[:1], t=ds.t[:1]), 1, 0, 1e-6, DatasetError,
             r"train_size must be in \[1, 0\] for 1 rows")]:
        with pytest.raises(error, match=message):
            grid_search_l(train, order, neurons, [0.3], noise, seed=1)
    for seed in (-5, -1):  # the caller's own seed, not the inner split's seed + 1
        with pytest.raises(ValueError, match=f"seed must be >= 0, got {seed}$"):
            grid_search_l(ds, 1, 0, [0.3], 1e-6, seed=seed)
    assert calls == []
    # a bad length scale is still a candidate scored as infinity
    best, results = grid_search_l(ds, 1, 0, [-1.0, 0.3], 1e-6, seed=1)
    assert calls == [-1.0, 0.3]
    assert best == 0.3 and dict(results)[-1.0] == math.inf


def test_grid_search_validation():
    ds = synth("additive", 3, 50, seed=15)
    with pytest.raises(InvalidHyperparameterError):
        grid_search_l(ds, 1, 0, [], 1e-6, seed=1)
    with pytest.raises(InvalidHyperparameterError, match="stable"):
        grid_search_l(ds, 1, 0, [-1.0, -2.0], 1e-6, seed=1)
