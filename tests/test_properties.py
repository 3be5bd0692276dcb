"""Properties that hold for every input, checked on seeded grids."""

import math
import pickle
from dataclasses import replace
from functools import cache

import numpy as np
import pytest

import hdmrnet.model
from hdmrnet import (Dataset, HdmrnetError, InvalidHyperparameterError, SweepResult,
                     build_feature_map, component_curves, enumerate_subsets, gpr, gpr_fit,
                     gram_matrix, grid_search_l, hdmr_fit, hdmr_predict, pearson_corr, rmse,
                     split, sweep, synth)
from hdmrnet.sobol import sobol_points

# (rows, order, neurons per term, length scale) of a D = 4 fit on each solve
# route: the exact loop's Gram below l = 1/6, else the factor's Gram where
# F r >= M and the low-rank route where F r < M (r = 17 at l = 0.3).
_ROUTES = {
    "exact-d1": (300, 1, 0, 0.1), "exact-d2": (300, 2, 2, 0.1),
    "factor-gram-d1": (60, 1, 0, 0.3), "factor-gram-d2": (300, 2, 4, 0.3),
    "low-rank-d1": (300, 1, 0, 0.3), "low-rank-d2": (300, 2, 1, 0.3),
}


@pytest.mark.parametrize("case", _ROUTES)
def test_power_of_two_scaling_is_bit_exact(case):
    # The scaler's ranges, every solve and its backward-error test, and the
    # scores are exact under power-of-two scaling: fitting 2^a X and 2^b t
    # gives alpha 2^b and the same sigma, and the model predicts 2^b times
    # the original's values at 2^a P, bit for bit, on table and exact rows.
    rows, order, neurons, length_scale = _ROUTES[case]
    ds = synth("morse_like", 4, rows, seed=3)
    model = hdmr_fit(ds, order, neurons, length_scale)
    factor, low_rank, _ = gpr._route(rows, model.n_features, length_scale)
    assert case.startswith({(True, False): "exact", (False, True): "low-rank",
                            (False, False): "factor-gram"}[factor is None, low_rank])
    points = np.random.default_rng(4).uniform(-0.3, 1.3, size=(200, 4))
    predicted = hdmr_predict(model, points)
    for a, b in [(40, -30), (-50, 60)]:
        scaled = hdmr_fit(Dataset(ds.X * 2.0**a, ds.t * 2.0**b), order, neurons, length_scale)
        assert scaled.gpr.alpha.tobytes() == (model.gpr.alpha * 2.0**b).tobytes()
        assert scaled.gpr.effective_noise == model.gpr.effective_noise
        assert hdmr_predict(scaled, points * 2.0**a).tobytes() == (predicted * 2.0**b).tobytes()
    fitted = hdmr_predict(model, ds.X)
    for k in (900, -900):
        assert rmse(fitted * 2.0**k, ds.t * 2.0**k) == rmse(fitted, ds.t) * 2.0**k
        assert pearson_corr(fitted * 2.0**k, ds.t * 2.0**k) == pearson_corr(fitted, ds.t)


def _score_pairs():
    """Seeded (p, a) pairs of every length 1-29 at magnitudes from 1e-320,
    where inputs are subnormal, to 1e300: independent draws, and exactly
    linear pairs a = +-2^k p, whose correlation is +-1."""
    rng = np.random.default_rng(8)
    for n in range(1, 30):
        for magnitude in (1e-320, 1e-310, 1e-300, 1e-150, 1.0, 1e150, 1e300):
            for _ in range(4):
                p = rng.uniform(-1.0, 1.0, n) * magnitude
                yield p, rng.uniform(-1.0, 1.0, n) * magnitude
                yield p, p * 2.0 ** int(rng.integers(-3, 4)) * rng.choice([-1.0, 1.0])


def test_rmse_bounds_the_largest_gap():
    # sum (p - a)^2 / n >= max (p - a)^2 / n, so rmse >= max |p - a| / sqrt(n)
    # at every magnitude, subnormal gaps included.
    for p, a in _score_pairs():
        gap = np.abs(p - a).max()
        if np.isfinite(gap):
            assert rmse(p, a) >= gap / np.sqrt(len(p)), (p, a)


def test_correlation_stays_in_range():
    # Cauchy-Schwarz bounds |r| by 1, also where rounding would pass it.
    checked = 0
    for p, a in _score_pairs():
        if len(p) >= 2 and np.ptp(p) > 0 and np.ptp(a) > 0:
            r = pearson_corr(p, a)
            assert np.isnan(r) or abs(r) <= 1.0, (p, a, r)
            checked += 1
    assert checked > 1000


@cache
def _small():
    """A 40-row D = 3 dataset and a d = 2 model fitted on it."""
    data = synth("pairwise", 3, 40, seed=1)
    return data, hdmr_fit(data, 2, 1, 0.3)


# Every public function with integer settings: its valid keyword arguments,
# and the least valid value of each integer setting; "d_list[1]" is an entry.
_INTEGER_SETTINGS = {
    sobol_points: (lambda: dict(dimension=2, count=5), {"dimension": 1, "count": 0}),
    enumerate_subsets: (lambda: dict(dimension=3, order=2), {"dimension": 1, "order": 1}),
    build_feature_map: (lambda: dict(dimension=3, order=2, neurons_per_term=2),
                        {"dimension": 1, "order": 1, "neurons_per_term": 0}),
    split: (lambda: dict(dataset=_small()[0], train_size=30, seed=7, test_size=5),
            {"train_size": 1, "seed": 0, "test_size": 1}),
    synth: (lambda: dict(kind="additive", dimension=2, n=10, seed=1),
            {"dimension": 1, "n": 1, "seed": 0}),
    hdmr_fit: (lambda: dict(train=_small()[0], order=2, neurons_per_term=1, length_scale=0.3,
                            split_seed=5),
               {"order": 1, "neurons_per_term": 0, "split_seed": 0}),
    sweep: (lambda: dict(dataset=_small()[0], d_list=[1, 2], N_list=[1], repeats=1,
                         train_size=30, test_size=5, length_scale=0.3, noise=1e-6, base_seed=7,
                         jobs=1),
            {"d_list[1]": 1, "N_list[0]": 0, "repeats": 1, "train_size": 1, "test_size": 1,
             "base_seed": 0, "jobs": 1}),
    grid_search_l: (lambda: dict(train=_small()[0], order=2, neurons_per_term=1,
                                 candidates=[0.3, 0.6], noise=1e-6, seed=7),
                    {"order": 1, "neurons_per_term": 0, "seed": 0}),
    component_curves: (lambda: dict(model=_small()[1], grid_size=5), {"grid_size": 2}),
}
_SETTINGS = [(function, name) for function, (_, lows) in _INTEGER_SETTINGS.items()
             for name in lows]


def _with(arguments: dict, name: str, change) -> dict:
    """`arguments` with the setting `name`, or the list entry "key[i]",
    replaced by `change` of its value."""
    key, _, index = name.partition("[")
    if not index:
        return {**arguments, key: change(arguments[key])}
    entries = list(arguments[key])
    entries[int(index[:-1])] = change(entries[int(index[:-1])])
    return {**arguments, key: entries}


def _bits(result) -> bytes:
    """The pickled bytes of a result, a sweep's without its wall_s timings."""
    if isinstance(result, SweepResult):
        result = [replace(record, wall_s=0.0) for record in result.records], result.config
    return pickle.dumps(result)


@pytest.mark.parametrize("function, name", _SETTINGS,
                         ids=[f"{function.__name__}-{name}" for function, name in _SETTINGS])
def test_integer_settings_take_ints_and_numpy_integers_only(function, name):
    # An integer setting is an int or a numpy integer, never a bool or a
    # float: 2.5, True and a value below its bound each raise ValueError or
    # an HdmrnetError, never a stray TypeError, and np.int64(v) gives the
    # same result as v, bit for bit.
    make_arguments, lows = _INTEGER_SETTINGS[function]
    arguments = make_arguments()
    for bad in (2.5, True, lows[name] - 1):
        with pytest.raises((ValueError, HdmrnetError)):
            function(**_with(arguments, name, lambda value: bad))
    assert _bits(function(**_with(arguments, name, np.int64))) == _bits(function(**arguments))


def _features():
    """20 rows of 2 features on [0, 1], and targets that are not constant."""
    Y = np.random.default_rng(5).uniform(size=(20, 2))
    return Y, np.sin(6.0 * Y).sum(axis=1)


# Every public function with real settings: its valid keyword arguments,
# and the least valid value of each real setting.  "candidates[0]" is an
# entry, whose least value is -inf: a real candidate that its fit refuses,
# such as -1.0, scores infinity, so only a non-real or non-finite one is
# refused.
_REAL_SETTINGS = {
    gpr_fit: (lambda: dict(zip(("Y", "t"), _features()), length_scale=0.3, noise=1e-6),
              {"length_scale": 2.0**-511, "noise": 5e-324}),
    gram_matrix: (lambda: dict(Y=_features()[0], length_scale=0.3), {"length_scale": 2.0**-511}),
    hdmr_fit: (lambda: dict(train=_small()[0], order=2, neurons_per_term=1, length_scale=0.3,
                            noise=1e-6),
               {"length_scale": 2.0**-511, "noise": 5e-324}),
    sweep: (lambda: dict(dataset=_small()[0], d_list=[1, 2], N_list=[1], repeats=1,
                         train_size=30, test_size=5, length_scale=0.3, noise=1e-6, base_seed=7),
            {"length_scale": 2.0**-511, "noise": 5e-324}),
    grid_search_l: (lambda: dict(train=_small()[0], order=2, neurons_per_term=1,
                                 candidates=[0.3, 0.6], noise=1e-6, seed=7),
                    {"noise": 5e-324, "candidates[0]": -math.inf}),
    synth: (lambda: dict(kind="additive", dimension=2, n=10, seed=1, noise_std=0.1),
            {"noise_std": 0.0}),
}
_REALS = [(function, name) for function, (_, lows) in _REAL_SETTINGS.items() for name in lows]


@pytest.mark.parametrize("function, name", _REALS,
                         ids=[f"{function.__name__}-{name}" for function, name in _REALS])
def test_real_settings_take_finite_real_numbers_only(monkeypatch, function, name):
    # A real setting is an int, a float or a numpy scalar of either, never a
    # bool, a string or None, and finite: each of those, NaN, infinity and
    # the float below its least value raise ValueError or an HdmrnetError,
    # never a stray TypeError, and neither a Gram route nor a feature map is
    # started.  np.float64(v) gives the same result as v, bit for bit.
    make_arguments, lows = _REAL_SETTINGS[function]
    arguments = make_arguments()
    started = []
    for module, helper in [(gpr, "_route"), (hdmrnet.model, "map_features")]:
        monkeypatch.setattr(module, helper, lambda *args, real=getattr(module, helper):
                            started.append(args) or real(*args))
    for bad in (True, "0.3", None, math.nan, math.inf, math.nextafter(lows[name], -math.inf)):
        with pytest.raises((ValueError, HdmrnetError)):
            function(**_with(arguments, name, lambda value: bad))
    assert started == []
    assert _bits(function(**_with(arguments, name, np.float64))) == _bits(function(**arguments))


def test_gram_matrix_runs_at_both_ends_of_the_length_scale_range():
    # In [2^-511, 2^511], 2 l^2 is a normal float and 1/(2 l^2) finite and
    # nonzero: the kernel is 0 between distinct features at the low end, 1
    # (up to the factor route's rounding) at the high end, and the next
    # float outside either end is refused.
    Y = _features()[0]
    distinct = ~np.eye(len(Y), dtype=bool)
    for length_scale, off_diagonal in [(2.0**-511, 0.0), (2.0**511, 2.0)]:
        K = gram_matrix(Y, length_scale)
        assert (K.diagonal() == 2.0).all()
        assert np.allclose(K[distinct], off_diagonal, rtol=1e-14, atol=0.0)
    for outside in (math.nextafter(2.0**-511, 0.0), math.nextafter(2.0**511, math.inf)):
        with pytest.raises(InvalidHyperparameterError, match="length scale must be finite and in"):
            gram_matrix(Y, outside)
