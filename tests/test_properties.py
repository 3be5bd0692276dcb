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
