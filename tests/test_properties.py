"""Properties that hold for every input, checked on seeded grids."""

import numpy as np
import pytest

from hdmrnet import Dataset, gpr, hdmr_fit, hdmr_predict, pearson_corr, rmse, synth

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
