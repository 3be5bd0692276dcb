"""Pipeline and serialization tests for the fitted surrogate."""

import base64
import hashlib
import json
import logging
import os
import tracemalloc
import warnings

import numpy as np
import pytest

import hdmrnet.data
import hdmrnet.gpr
import hdmrnet.model
from hdmrnet import (
    Dataset,
    apply_scaler,
    fit_scaler,
    gpr,
    gpr_component,
    gpr_predict,
    hdmr_fit,
    hdmr_predict,
    load_model,
    map_features,
    save_model,
    sweep,
    synth,
    term_values,
    write_sweep_csv,
)
from hdmrnet.errors import (DatasetError, InvalidHyperparameterError, InvalidOrderError,
                            ModelFormatError, ShapeError)
from hdmrnet.model import FORMAT_VERSION


def _small_model(order=2, neurons=4, seed=0, n=80, length_scale=0.3):
    ds = synth("pairwise", 3, n, seed=seed)
    return hdmr_fit(ds, order, neurons, length_scale), ds


# ---------------------------------------------------------------------------
# Scaler
# ---------------------------------------------------------------------------


def test_scaler_maps_training_range_to_unit_interval():
    rng = np.random.default_rng(0)
    Y = rng.normal(size=(50, 4)) * [1.0, 10.0, 0.1, 5.0] + [0, 3, -2, 7]
    scaler = fit_scaler(Y)
    S = apply_scaler(scaler, Y)
    assert np.array_equal(S.min(axis=0), np.zeros(4))
    assert np.array_equal(S.max(axis=0), np.ones(4))


def test_scaler_constant_feature_pins_to_half():
    Y = np.column_stack([np.linspace(0, 1, 10), np.full(10, 2.5)])
    S = apply_scaler(fit_scaler(Y), Y)
    assert np.array_equal(S[:, 1], np.full(10, 0.5))


def test_scaler_extrapolates_instead_of_clipping():
    Y = np.array([[0.0], [2.0]])
    scaler = fit_scaler(Y)
    S = apply_scaler(scaler, np.array([[-1.0], [3.0], [1.0]]))
    assert S[0, 0] == -0.5
    assert S[1, 0] == 1.5
    assert S[2, 0] == 0.5


def test_scaler_shape_validation():
    with pytest.raises(ShapeError):
        fit_scaler(np.zeros((0, 3)))
    scaler = fit_scaler(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        apply_scaler(scaler, np.zeros((2, 4)))


# ---------------------------------------------------------------------------
# Fit / predict / term decomposition
# ---------------------------------------------------------------------------


def test_fit_records_provenance():
    ds = synth("pairwise", 3, 60, seed=1)
    model = hdmr_fit(ds, 2, 3, 0.4, 1e-6, split_seed=77)
    md = model.metadata
    assert set(md) == set(hdmrnet.model._METADATA_FIELDS)
    assert md["dimension"] == 3
    assert md["order"] == 2
    assert md["neurons_per_term"] == 3
    assert md["length_scale"] == 0.4
    assert md["noise"] == 1e-6
    assert md["split_seed"] == 77
    assert md["dataset_fingerprint"] == ds.fingerprint()
    assert model.n_features == 3 + 3 * 3


def test_fit_needs_two_rows():
    ds = Dataset(X=np.array([[0.1, 0.2]]), t=np.array([1.0]))
    with pytest.raises(DatasetError, match="at least 2 rows, got 1"):
        hdmr_fit(ds, 1, 0, 0.5)


def test_predict_shape_validation():
    model, _ = _small_model()
    with pytest.raises(ShapeError):
        hdmr_predict(model, np.zeros((5, 4)))
    with pytest.raises(ShapeError):
        term_values(model, np.zeros((5, 4)))


def test_term_keys_cover_singletons_and_subsets():
    model, ds = _small_model()
    terms = term_values(model, ds.X[:7])
    assert set(terms) == {(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)}
    for values in terms.values():
        assert values.shape == (7,)


def test_terms_sum_to_prediction():
    # l = 0.3 reads the activation table, l = 0.02 builds none
    for seed in range(5):
        for length_scale in (0.3, 0.02):
            model, ds = _small_model(seed=seed, length_scale=length_scale)
            assert (model.gpr.activation_table is None) == (length_scale == 0.02)
            X = np.random.default_rng(seed).uniform(size=(40, 3))
            total = np.full(40, model.gpr.target_offset)
            for values in term_values(model, X).values():
                total += values
            mean = hdmr_predict(model, X)
            scale = max(1.0, float(np.abs(mean).max()))
            assert np.abs(total - mean).max() <= 1e-10 * scale


def test_term_values_make_one_pass_per_term(monkeypatch):
    # Without a table: one exact call with D + C(D, d) = 3 + 3 groups whose
    # sizes sum to F = 15.  With one, rows inside its interval make none.
    tabled, _ = _small_model(neurons=4)
    assert tabled.gpr.activation_table is not None
    model, ds = _small_model(neurons=4, length_scale=0.02)
    assert model.gpr.activation_table is None
    calls = []
    real = gpr._dual_sums

    def spy(*args):
        calls.append([len(js) for js in args[2]])
        return real(*args)

    monkeypatch.setattr(gpr, "_dual_sums", spy)
    term_values(tabled, ds.X[:9])
    assert calls == []
    terms = term_values(model, ds.X[:9])
    assert len(calls) == 1 and len(calls[0]) == 6 and sum(calls[0]) == model.n_features
    # each term adds the component values of its features in feature order
    Y = hdmrnet.model._features(model, ds.X[:9])
    for subset, values in terms.items():
        expected = 0.0
        for j in range(model.n_features):
            if model.feature_map.subset(j) == subset:
                expected = expected + gpr_component(model.gpr, j, Y[:, j])
        assert np.array_equal(values, expected)


def test_term_values_without_a_table_open_one_pool(monkeypatch):
    pools = []

    class SpyExecutor(gpr.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    model, ds = _small_model(neurons=4, length_scale=0.02)
    assert model.gpr.activation_table is None
    monkeypatch.setattr(gpr, "ThreadPoolExecutor", SpyExecutor)
    monkeypatch.setattr(gpr, "_THREADS", 2)
    assert len(term_values(model, ds.X[:9])) == 6
    assert pools == [2]  # one pool for all D + C(D, d) terms


def test_order_one_has_no_coupled_terms():
    ds = synth("additive", 4, 60, seed=2)
    model = hdmr_fit(ds, 1, 0, 0.3)
    assert set(term_values(model, ds.X[:3])) == {(0,), (1,), (2,), (3,)}


# ---------------------------------------------------------------------------
# Compiled activations: one checked Chebyshev table per neuron
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("length_scale", [0.1, 0.3, 1.0])
def test_compiled_predict_is_within_tolerance_of_exact(length_scale):
    ds = synth("morse_like", 4, 300, seed=3)
    model = hdmr_fit(ds, 2, 5, length_scale)
    table = model.gpr.activation_table
    assert table is not None
    assert table.nodes == 1 + max(16, 8 * int(np.ceil(1.25 / length_scale)))
    assert table.tolerance == 1e-12 * np.abs(model.gpr.alpha).sum()
    assert table.max_deviation <= table.tolerance
    X = np.random.default_rng(4).uniform(size=(500, 4))
    Y = hdmrnet.model._features(model, X)
    assert ((Y >= -0.25) & (Y <= 1.25)).all()
    compiled, exact = hdmr_predict(model, X), gpr_predict(model.gpr, Y)
    assert np.abs(compiled - exact).max() <= table.tolerance
    assert not np.array_equal(compiled, exact)  # the table, not the exact path
    for subset, values in term_values(model, X).items():
        js = [j for j in range(model.n_features) if model.feature_map.subset(j) == subset]
        grouped = gpr._dual_sums(model.gpr, Y, [js], 0.0)[0]
        assert np.abs(values - grouped).max() <= table.tolerance


def _full_table(model):
    """The unchopped DCT coefficients of `gpr_component`'s values at the n + 1
    nodes, and their summed deviation from those values between the nodes."""
    n = max(16, 8 * int(np.ceil(1.25 / model.length_scale)))
    x = np.cos(np.pi * np.arange(2 * n + 1) / (2 * n))
    values = np.column_stack([gpr_component(model, j, gpr._CENTER + gpr._HALF_WIDTH * x)
                              for j in range(model.n_features)])
    k = np.arange(n + 1)
    cosines = np.cos(np.pi * (np.outer(k, k) % (2 * n)) / n) * (2.0 / n)
    cosines[:, [0, -1]] *= 0.5
    reference = np.zeros((n + 1, model.n_features))
    for i in k:
        reference += cosines[:, i, None] * values[2 * i]
    reference[[0, -1]] *= 0.5
    between = np.broadcast_to(x[1::2, None], (n, model.n_features))
    deviation = np.abs(gpr._clenshaw(reference, between) - values[1::2]).max(axis=0).sum()
    return reference, deviation


@pytest.mark.parametrize("threads", [1, 2, 5])  # 5: more threads than cores share the queue
@pytest.mark.parametrize("length_scale", [0.3, 0.1])  # 81 points in one block; 209 in two
def test_table_coefficients_are_the_dct_of_gpr_component_values(monkeypatch, length_scale,
                                                                threads):
    model = hdmr_fit(synth("morse_like", 4, 300, seed=3), 2, 3, length_scale).gpr
    monkeypatch.setattr(gpr, "_THREADS", 1)
    reference, _ = _full_table(model)
    monkeypatch.setattr(gpr, "_THREADS", threads)
    table = gpr.compile_components(model)
    assert table.coefficients.tobytes() == reference[:table.terms].tobytes()


@pytest.mark.parametrize("length_scale", [0.1, 0.3, 1.0])
def test_table_drops_the_longest_tail_within_half_the_slack(length_scale):
    ds = synth("morse_like", 4, 300, seed=3)
    model = hdmr_fit(ds, 2, 5, length_scale)
    reference, deviation = _full_table(model.gpr)
    table = model.gpr.activation_table
    assert table.nodes == len(reference) and 1 <= table.terms < table.nodes
    slack = 0.5 * (table.tolerance - deviation)
    # sums taken in another order than the table's, hence the 1e-12 margins
    assert np.abs(reference[table.terms:]).sum() <= slack * (1 + 1e-12)
    assert np.abs(reference[table.terms - 1:]).sum() > slack * (1 - 1e-12)
    assert table.max_deviation <= table.tolerance
    X = np.random.default_rng(4).uniform(size=(500, 4))
    Y = hdmrnet.model._features(model, X)
    assert np.abs(hdmr_predict(model, X) - gpr_predict(model.gpr, Y)).max() <= table.tolerance


@pytest.mark.parametrize("length_scale", [0.3, 0.1])
def test_table_build_runs_one_neuron_queue_on_every_core(monkeypatch, length_scale):
    pools = []

    class SpyExecutor(gpr.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    model = hdmr_fit(synth("additive", 4, 60, seed=1), 1, 1, length_scale).gpr
    assert model.n_features == 4  # fewer neurons than a block of rows
    monkeypatch.setattr(gpr, "ThreadPoolExecutor", SpyExecutor)
    monkeypatch.setattr(gpr, "_THREADS", 2)
    assert gpr.compile_components(model) is not None
    assert pools == [2]  # one pool of two threads, and none per neuron


def test_rows_outside_the_table_interval_take_the_exact_path():
    model, ds = _small_model()
    X = np.random.default_rng(5).uniform(size=(200, 3))
    X[[3, 150, 151], 0] = [2.0, -1.5, 1.6]  # scaled x1 far outside [-0.25, 1.25]
    Y = hdmrnet.model._features(model, X)
    outside = ((Y < -0.25) | (Y > 1.25)).any(axis=1)
    assert np.flatnonzero(outside).tolist() == [3, 150, 151]
    predicted = hdmr_predict(model, X)
    assert np.array_equal(predicted[outside], gpr_predict(model.gpr, Y[outside]))
    assert np.array_equal(predicted[~outside], hdmr_predict(model, X[~outside]))


def test_small_length_scale_builds_no_table(caplog):
    model, ds = _small_model()
    model = hdmr_fit(ds, 2, 4, 0.02)  # 8 * ceil(1.25 / 0.02) + 1 = 505 nodes
    with caplog.at_level(logging.DEBUG, logger="hdmrnet"):
        assert model.gpr.activation_table is None
    assert "refused" in caplog.text and "505 nodes" in caplog.text
    X = np.random.default_rng(6).uniform(size=(150, 3))
    Y = hdmrnet.model._features(model, X)
    assert np.array_equal(hdmr_predict(model, X), gpr_predict(model.gpr, Y))


def test_table_failing_its_check_is_not_built(monkeypatch, caplog):
    model, _ = _small_model()
    monkeypatch.setattr(gpr, "_TABLE_TOLERANCE", 1e-30)
    with caplog.at_level(logging.DEBUG, logger="hdmrnet"):
        assert model.gpr.activation_table is None
    assert "refused" in caplog.text and "deviate" in caplog.text
    X = np.random.default_rng(7).uniform(size=(20, 3))
    Y = hdmrnet.model._features(model, X)
    assert np.array_equal(hdmr_predict(model, X), gpr_predict(model.gpr, Y))


def test_table_is_built_once_and_logged(monkeypatch, caplog):
    model, ds = _small_model()
    builds = []
    real = gpr.compile_components

    def spy(gp):
        builds.append(gp)
        return real(gp)

    monkeypatch.setattr(gpr, "compile_components", spy)
    with caplog.at_level(logging.DEBUG, logger="hdmrnet"):
        hdmr_predict(model, ds.X[:5])
        hdmr_predict(model, ds.X[5:9])
    assert builds == [model.gpr]
    assert [r.getMessage().split(":")[0] for r in caplog.records] == [
        "activation table built"]


def test_zero_rows_build_no_table(caplog):
    model, _ = _small_model()
    with caplog.at_level(logging.DEBUG, logger="hdmrnet"):
        assert hdmr_predict(model, np.zeros((0, 3))).shape == (0,)
        terms = term_values(model, np.zeros((0, 3)))
    assert len(terms) == 6 and all(values.shape == (0,) for values in terms.values())
    assert caplog.records == []
    assert "activation_table" not in vars(model.gpr)  # the cached property is unset


def test_constant_target_predicts_its_offset_exactly():
    X = np.random.default_rng(8).uniform(size=(40, 3))
    model = hdmr_fit(Dataset(X=X, t=np.full(40, 2.5)), 2, 3, 0.3)
    assert not model.gpr.alpha.any()
    assert model.gpr.activation_table.max_deviation == 0.0
    predicted = hdmr_predict(model, np.random.default_rng(9).uniform(size=(30, 3)))
    assert np.array_equal(predicted, np.full(30, 2.5))


def test_row_alone_equals_row_in_batch():
    model, _ = _small_model()
    X = np.random.default_rng(10).uniform(size=(300, 3))  # three row blocks
    batch = hdmr_predict(model, X)
    for r in (0, 127, 128, 255, 299):
        assert hdmr_predict(model, X[r:r + 1])[0] == batch[r]


def _terms_bytes(terms):
    return b"".join(terms[key].tobytes() for key in sorted(terms))


def test_forward_bits_do_not_depend_on_block_size_or_threads(monkeypatch):
    # At l = 0.02 the model has no table and every row takes the exact path,
    # in chunks of one forward block per thread.
    X = np.random.default_rng(11).uniform(size=(4000, 3))  # two blocks, the last ragged
    X[[5, 2200, 3999], 1] = [1.8, -0.9, 2.5]  # scaled x2 outside [-0.25, 1.25]
    for length_scale in (0.3, 0.02):
        model, _ = _small_model(n=200, length_scale=length_scale)
        F = model.n_features
        assert F == 15 and gpr._FORWARD_ENTRIES // F // gpr._BLOCK == 17  # 2176-row blocks
        assert (model.gpr.activation_table is None) == (length_scale == 0.02)
        outputs = set()
        for entries in (gpr._FORWARD_ENTRIES, 1):  # 1: blocks of _BLOCK rows, 32 of them
            monkeypatch.setattr(gpr, "_FORWARD_ENTRIES", entries)
            for threads in (1, 2, 5):
                monkeypatch.setattr(gpr, "_THREADS", threads)
                outputs.add(hdmr_predict(model, X).tobytes() + _terms_bytes(term_values(model, X)))
        monkeypatch.undo()
        assert len(outputs) == 1


def test_table_rows_of_a_batch_equal_its_pieces():
    model, _ = _small_model(n=200)
    X = np.random.default_rng(12).uniform(size=(4000, 3))
    Y = hdmrnet.model._features(model, X)
    assert ((Y >= -0.25) & (Y <= 1.25)).all()  # every row reads the table
    pieces = np.split(np.arange(4000), [1, 127, 129, 2177])  # 2176-row forward blocks
    assert hdmr_predict(model, X).tobytes() == b"".join(
        hdmr_predict(model, X[rows]).tobytes() for rows in pieces)
    batch = term_values(model, X)
    parts = [term_values(model, X[rows]) for rows in pieces]
    assert _terms_bytes(batch) == _terms_bytes(
        {key: np.concatenate([part[key] for part in parts]) for key in batch})


@pytest.mark.parametrize("length_scale", [0.3, 0.02])  # 0.02: no table, every row exact
@pytest.mark.parametrize("threads, entries", [(1, 1), (3, 1), (2, 2**15)])
def test_exact_rows_are_one_dual_sums_call_over_all_of_them(monkeypatch, length_scale,
                                                            threads, entries):
    # The exact rows go in chunks of `_THREADS` forward blocks (128-row
    # blocks at entries = 1, so 128 and 384 rows): each row has the bits of
    # one `_dual_sums` call on the stacked features of all of them.
    model, _ = _small_model(n=200, length_scale=length_scale)
    monkeypatch.setattr(gpr, "_THREADS", threads)
    monkeypatch.setattr(gpr, "_FORWARD_ENTRIES", entries)
    X = np.random.default_rng(13).uniform(-0.6, 1.6, size=(1500, 3))
    Y = hdmrnet.model._features(model, X)
    if model.gpr.activation_table is None:
        rows = np.arange(len(X))
    else:
        rows = np.flatnonzero(((Y < -0.25) | (Y > 1.25)).any(axis=1))
    assert 900 < len(rows) <= 1500
    groups = {}
    for j in range(model.n_features):
        groups.setdefault(model.feature_map.subset(j), []).append(j)
    predicted = gpr._dual_sums(model.gpr, Y[rows], [range(model.n_features)],
                               model.gpr.target_offset)[0]
    assert hdmr_predict(model, X)[rows].tobytes() == predicted.tobytes()
    terms = gpr._dual_sums(model.gpr, Y[rows], list(groups.values()), 0.0)
    assert _terms_bytes({key: values[rows] for key, values in term_values(model, X).items()}) \
        == _terms_bytes(dict(zip(groups, terms)))


def test_huge_finite_points_give_the_kernel_limit_without_a_warning():
    # Features of these rows overflow in the map, the scaler or the square
    # of the kernel; each such feature adds exp(-inf) = 0, and no
    # RuntimeWarning is raised (tier-1 turns every one into an error).
    # Each row alone has the bits of its components added in feature order.
    model = hdmr_fit(synth("pairwise", 3, 150, seed=1), 2, 2, 0.3)
    X = np.array([[1.7e308] * 3, [1.7e308, -1.7e308, 0.5], [1e300, 0.5, 0.5]])
    predicted = hdmr_predict(model, X)
    with np.errstate(over="ignore"):
        Y = hdmrnet.model._features(model, X)
    for r, y in enumerate(Y):
        expected = model.gpr.target_offset
        for j, u in enumerate(y):
            expected += gpr_component(model.gpr, j, u)[0] if np.isfinite(u) else 0.0
        assert hdmr_predict(model, X[r:r + 1])[0] == expected
    assert np.allclose(predicted, [0.70765, 1.02706, 1.15146], rtol=1e-5, atol=0)
    total = sum(term_values(model, X).values()) + model.gpr.target_offset
    assert np.abs(total - predicted).max() <= 1e-12


def _peak_growth(evaluate, model, rows, low=0.0, high=1.0):
    """Growth per row of the tracemalloc peak of evaluate(model, X) between
    the two counts of rows, X allocated and the table built before tracing."""
    model.gpr.activation_table
    peaks = []
    for n in rows:
        X = np.random.default_rng(14).uniform(low, high, size=(n, model.dimension))
        tracemalloc.start()
        try:
            evaluate(model, X)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return (peaks[1] - peaks[0]) / (rows[1] - rows[0])


def test_prediction_holds_no_feature_array_of_all_rows():
    # F = 306 features are 2448 bytes a row; a prediction adds 8 bytes a row
    # of output and 1 of the rows' table flags, term_values 8 a group.
    model = hdmr_fit(synth("morse_like", 6, 100, seed=1), 2, 20, 0.3)
    assert model.n_features == 306 and model.gpr.activation_table is not None
    groups = 6 + 15
    assert _peak_growth(hdmr_predict, model, (5000, 50000)) <= 16
    assert _peak_growth(term_values, model, (5000, 50000)) <= 8 * (groups + 2)


@pytest.mark.parametrize("length_scale", [0.3, 0.02])  # 0.02: no table, every row exact
def test_exact_rows_hold_no_feature_array_of_all_rows(monkeypatch, length_scale):
    # Fallback-heavy points, or a model without a table: the exact rows'
    # indices add at most 8 bytes a row; F = 15 features would add 120.
    # 128-row forward blocks on one thread: the peak then holds one block's
    # scratch at either size.  On two threads it held one or two, as the
    # threads happened to be scheduled, which moved the growth by up to 10
    # bytes a row.
    monkeypatch.setattr(gpr, "_FORWARD_ENTRIES", 1)
    monkeypatch.setattr(gpr, "_THREADS", 1)
    model, _ = _small_model(length_scale=length_scale)
    assert (model.gpr.activation_table is None) == (length_scale == 0.02)
    groups = 3 + 3
    for evaluate, count in ((hdmr_predict, 1), (term_values, groups)):
        growth = _peak_growth(evaluate, model, (2000, 20000), -0.6, 1.6)
        assert growth <= 8 * (count + 2)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_save_load_round_trip_is_bit_exact(tmp_path):
    model, ds = _small_model()
    path = str(tmp_path / "m.json")
    save_model(model, path)
    loaded = load_model(path)
    X = np.random.default_rng(9).uniform(size=(30, 3))
    assert np.array_equal(hdmr_predict(model, X), hdmr_predict(loaded, X))
    tables = loaded.gpr.activation_table, model.gpr.activation_table
    assert tables[0].coefficients.tobytes() == tables[1].coefficients.tobytes()
    assert tables[0].max_deviation == tables[1].max_deviation
    assert loaded.metadata == model.metadata
    assert loaded.X.tobytes() == ds.X.tobytes()
    assert loaded.gpr.alpha.tobytes() == model.gpr.alpha.tobytes()
    assert loaded.gpr.Ytrain.tobytes() == model.gpr.Ytrain.tobytes()
    assert loaded.X.flags.writeable and loaded.gpr.alpha.flags.writeable
    assert loaded.gpr.length_scale == model.gpr.length_scale
    assert loaded.gpr.noise == model.gpr.noise
    assert loaded.gpr.effective_noise == model.gpr.effective_noise
    assert loaded.gpr.target_offset == model.gpr.target_offset
    assert np.array_equal(loaded.feature_map.indices, model.feature_map.indices)
    assert np.array_equal(loaded.feature_map.weights, model.feature_map.weights)


def test_features_are_stored_neuron_major(tmp_path):
    # Every kernel pass reads a neuron's training values as one column, so
    # the features are Fortran-ordered wherever they are made or rebuilt.
    model, ds = _small_model()
    path = str(tmp_path / "m.json")
    save_model(model, path)
    mapped = map_features(model.feature_map, ds.X)
    for Y in (mapped, model.gpr.Ytrain, load_model(path).gpr.Ytrain):
        assert Y.flags.f_contiguous and not Y.flags.c_contiguous


def _round_trip_model(rows, D, order, scale):
    ds = synth("pairwise" if D > 1 else "additive", D, rows, seed=rows + D)
    return hdmr_fit(Dataset(ds.X * scale, ds.t), order, 2, 0.3)


def _assert_round_trip(tmp_path, model, points):
    """load(save(model)) predicts the same bits at `points`, and saving it
    again rewrites the same bytes."""
    first, second = str(tmp_path / "first.model"), str(tmp_path / "second.model")
    save_model(model, first)
    loaded = load_model(first)
    save_model(loaded, second)
    assert open(first, "rb").read() == open(second, "rb").read()
    assert loaded.X.tobytes() == model.X.tobytes()
    assert loaded.gpr.alpha.tobytes() == model.gpr.alpha.tobytes()
    assert loaded.gpr.Ytrain.tobytes() == model.gpr.Ytrain.tobytes()
    assert hdmr_predict(loaded, points).tobytes() == hdmr_predict(model, points).tobytes()


@pytest.mark.parametrize("scale", [1.0, 2.0**900, 2.0**-900], ids=["1", "2^900", "2^-900"])
@pytest.mark.parametrize("D, order", [(1, 1), (3, 1), (3, 2), (6, 1), (6, 2)])
@pytest.mark.parametrize("rows", [2, 200])
def test_round_trip_keeps_every_bit(tmp_path, rows, D, order, scale):
    model = _round_trip_model(rows, D, order, scale)
    points = np.random.default_rng(rows * D).uniform(-0.2, 1.2, size=(50, D)) * scale
    _assert_round_trip(tmp_path, model, points)


@pytest.mark.parametrize("value", [-0.0, 5e-324], ids=["-0.0", "subnormal"])
def test_round_trip_keeps_signed_zeros_and_subnormals(tmp_path, resign, value):
    # X's first column and alpha's first values are set to the value in a
    # re-signed file; its model then saves to the same bytes and predicts alike.
    path = str(tmp_path / "edited.model")
    save_model(_round_trip_model(200, 3, 2, 1.0), path)
    resign(path, lambda doc: (_recode("X", _setting(*((i, value) for i in range(0, 600, 3))))(doc),
                              _recode("alpha", _setting((0, value), (1, value)))(doc)))
    model = load_model(path)
    assert model.X[:, 0].tobytes() == np.full(200, value).tobytes()
    assert model.gpr.alpha[:2].tobytes() == np.full(2, value).tobytes()
    _assert_round_trip(tmp_path, model, np.random.default_rng(15).uniform(size=(50, 3)))
    assert open(path, "rb").read() == open(tmp_path / "first.model", "rb").read()


def test_save_is_deterministic(tmp_path):
    model, _ = _small_model()
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_model(model, a)
    save_model(model, b)
    assert open(a, "rb").read() == open(b, "rb").read()


def test_save_serialises_the_body_once_and_load_not_at_all(tmp_path, monkeypatch):
    model, _ = _small_model()
    path = str(tmp_path / "m.json")
    dumped = []
    dumps = json.dumps
    monkeypatch.setattr(json, "dumps", lambda obj, **kw: (dumped.append(sorted(obj)),
                                                          dumps(obj, **kw))[1])
    save_model(model, path)
    assert dumped == [["X", "gpr", "metadata"], ["checksum", "format_version"]]
    dumped.clear()
    load_model(path)
    assert dumped == []


@pytest.mark.parametrize("order, neurons, error", [
    (np.int64(2), np.int64(3), None), (np.int32(2), np.uint8(3), None),
    (2.0, 3, InvalidOrderError), (2, 2.5, ValueError)])
def test_integer_like_settings_are_stored_as_plain_ints(tmp_path, order, neurons, error):
    ds = synth("pairwise", 3, 60, seed=2)
    records = str(tmp_path / "sweep.csv")
    if error is not None:
        with pytest.raises(error, match="must be an integer, got 2.[05]"):
            hdmr_fit(ds, order, neurons, 0.4)
        with pytest.raises(error, match="must be an integer, got 2.[05]"):
            sweep(ds, [order], [neurons], 1, 40, None, 0.4, 1e-6, 0)
        return
    model = hdmr_fit(ds, order, neurons, 0.4, split_seed=np.int64(5))
    save_model(model, str(tmp_path / "m.json"))
    loaded = load_model(str(tmp_path / "m.json"))
    settings = ["order", "neurons_per_term", "split_seed"]
    assert [loaded.metadata[key] for key in settings] == [2, 3, 5]
    assert {type(model.metadata[key]) for key in settings} == {int}
    result = sweep(ds, np.array([1, order]), np.array([neurons]), np.int64(1), np.int64(40),
                   None, 0.4, 1e-6, np.int64(0))
    write_sweep_csv(result, records)
    lines = open(records).read().splitlines()
    config = json.loads(lines[0][len("# config: "):])
    assert (config["d_list"], config["N_list"], config["base_seed"]) == ([1, 2], [3], 0)
    assert [line.split(",")[:4] for line in lines[2:]] == [["1", "3", "0", "0"],
                                                           ["2", "3", "0", "0"]]
    assert [line.split(",")[-1] for line in lines[2:]] == ["ok", "ok"]


def test_checksum_detects_tampering(tmp_path):
    model, _ = _small_model()
    path = str(tmp_path / "m.json")
    save_model(model, path)
    raw = open(path, "r").read()
    # change one character of the base64 text of X
    at = raw.index('"X":"') + 5
    broken = raw[:at] + ("B" if raw[at] == "A" else "A") + raw[at + 1:]
    open(path, "w").write(broken)
    with pytest.raises(ModelFormatError, match="checksum"):
        load_model(path)


def test_missing_field_names_its_section(tmp_path, resign):
    model, _ = _small_model()
    path = str(tmp_path / "m.json")
    save_model(model, path)
    resign(path, lambda doc: doc["gpr"].pop("alpha"))
    with pytest.raises(ModelFormatError, match="gpr"):
        load_model(path)


def test_newer_format_version_is_refused(tmp_path, resign):
    model, _ = _small_model()
    path = str(tmp_path / "m.json")
    save_model(model, path)
    resign(path, lambda doc: doc.update(format_version=FORMAT_VERSION + 1))
    with pytest.raises(ModelFormatError, match="version"):
        load_model(path)


def test_unreadable_or_corrupt_files(tmp_path):
    with pytest.raises(ModelFormatError):
        load_model(str(tmp_path / "absent.json"))
    garbled = str(tmp_path / "garbled.json")
    open(garbled, "w").write("{not json")
    with pytest.raises(ModelFormatError, match="JSON"):
        load_model(garbled)
    listfile = str(tmp_path / "list.json")
    open(listfile, "w").write("[1, 2]")
    with pytest.raises(ModelFormatError, match="top level"):
        load_model(listfile)
    latin = str(tmp_path / "latin.json")
    open(latin, "wb").write(b'{"a":"caf\xe9"}')
    with pytest.raises(ModelFormatError, match="JSON .*can't decode byte 0xe9 in position 9"):
        load_model(latin)


def test_failed_save_leaves_no_partial_file(tmp_path):
    model, _ = _small_model()
    target = str(tmp_path / "missing_dir" / "m.json")
    with pytest.raises(OSError):
        save_model(model, target)
    assert not os.path.exists(target)
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# Model file validation: hand-edited files with a recomputed checksum
# ---------------------------------------------------------------------------


def _saved_file(tmp_path):
    model, _ = _small_model()
    path = str(tmp_path / "m.json")
    save_model(model, path)
    return path


def test_model_file_holds_only_config_inputs_and_alpha(tmp_path):
    # A header line signs the body's bytes as written; the body is one
    # canonical JSON object.  X and alpha are the padded standard base64 of
    # their little-endian float64 bytes, X row-major: the bytes that the
    # dataset fingerprint hashes before the targets'.
    model, ds = _small_model()
    path = str(tmp_path / "m.json")
    save_model(model, path)
    head, body = open(path, "rb").read().split(b"\n", 1)
    assert json.loads(head) == {"checksum": hashlib.sha256(body).hexdigest(),
                                "format_version": FORMAT_VERSION}
    doc = json.loads(body)
    assert body.decode() == json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert set(doc) == {"metadata", "X", "gpr"}
    assert set(doc["gpr"]) == {"alpha", "effective_noise", "target_offset"}
    X = base64.b64decode(doc["X"], validate=True)
    alpha = base64.b64decode(doc["gpr"]["alpha"], validate=True)
    assert (len(X), len(alpha)) == (8 * 80 * 3, 8 * 80)
    assert doc["X"] == base64.b64encode(X).decode() and "\n" not in doc["X"]
    assert X == np.ascontiguousarray(ds.X, "<f8").tobytes()
    assert alpha == model.gpr.alpha.astype("<f8").tobytes()
    digest = hashlib.sha256(X + np.ascontiguousarray(ds.t, "<f8").tobytes()).hexdigest()
    assert doc["metadata"]["dataset_fingerprint"]["sha256"] == digest


def test_version_one_file_is_refused(tmp_path, resign):
    path = _saved_file(tmp_path)
    resign(path, lambda doc: doc.update(format_version=1))
    with pytest.raises(ModelFormatError, match="version 1.*refit"):
        load_model(path)


def _as_version_four(doc):
    """The version 4 layout: this one's, plus a `metadata.sobol_skip`."""
    doc["metadata"]["sobol_skip"] = 0
    doc["format_version"] = 4


def test_version_four_file_is_refused(tmp_path, resign):
    path = _saved_file(tmp_path)
    resign(path, _as_version_four)
    with pytest.raises(ModelFormatError, match="file has version 4, this build reads only "
                                               "version 5; refit the model to write a "
                                               "version 5 file"):
        load_model(path)


def _edit(section, key, value):
    def edit(doc):
        doc[section][key] = value
    return edit


def _values(text):
    return np.frombuffer(base64.b64decode(text), "<f8").copy()


def _text(key, change):
    """Edit of the base64 text of the payload `key`, "X" or "alpha"."""
    def edit(doc):
        holder = doc if key == "X" else doc["gpr"]
        holder[key] = change(holder[key])
    return edit


def _recode(key, change):
    """Edit of the payload `key`, "X" or "alpha": `change` takes its decoded
    values, a flat float64 array, and returns the bytes written instead."""
    return _text(key, lambda text: base64.b64encode(change(_values(text))).decode())


def _setting(*pairs):
    """A `_recode` change that sets the values at the given flat indices."""
    def change(values):
        for index, value in pairs:
            values[index] = value
        return values.tobytes()
    return change


def _short_x(doc):
    _recode("X", lambda values: values[:3].tobytes())(doc)
    _recode("alpha", lambda values: values[:1].tobytes())(doc)


BAD_FIELDS = {
    "version string": (lambda doc: doc.update(format_version="2"), "format_version: must be"),
    "dimension float": (_edit("metadata", "dimension", 3.0), "dimension"),
    "dimension bool": (_edit("metadata", "dimension", True), "dimension"),
    "dimension zero": (_edit("metadata", "dimension", 0), "dimension"),
    # dimension 4 reads X's 240 values as 60 rows, which alpha's 80 contradict
    "dimension not X width": (_edit("metadata", "dimension", 4),
                              r"gpr\.alpha: must be 60 float64 values, got 640 bytes"),
    "order string": (_edit("metadata", "order", "2"), "order"),
    "order bool": (_edit("metadata", "order", True), "order"),
    "order zero": (_edit("metadata", "order", 0), "order"),
    "order above dimension": (_edit("metadata", "order", 4), "metadata.*coupling order"),
    "neurons negative": (_edit("metadata", "neurons_per_term", -1), "neurons_per_term"),
    "neurons float": (_edit("metadata", "neurons_per_term", 4.5), "neurons_per_term"),
    "neurons past the sequence": (_edit("metadata", "neurons_per_term", 10**400), "exhausted"),
    # a version 4 body relabelled as version 5, and a field no build wrote
    "version 4 skip": (_edit("metadata", "sobol_skip", 3), "metadata: unknown field 'sobol_skip'"),
    "unknown field": (_edit("metadata", "jobs", 1), "metadata: unknown field 'jobs'"),
    "length scale negative": (_edit("metadata", "length_scale", -0.3), "length_scale"),
    "length scale zero": (_edit("metadata", "length_scale", 0), "length_scale"),
    "length scale string": (_edit("metadata", "length_scale", "0.3"), "length_scale"),
    "length scale 1e200": (_edit("metadata", "length_scale", 1e200), "length_scale"),
    "noise zero": (_edit("metadata", "noise", 0.0), "noise"),
    "noise null": (_edit("metadata", "noise", None), "noise"),
    "effective noise below noise": (_edit("gpr", "effective_noise", 1e-7), "effective_noise"),
    "effective noise bool": (_edit("gpr", "effective_noise", True), "effective_noise"),
    "target offset string": (_edit("gpr", "target_offset", "0.5"), "target_offset"),
    # X is 80 rows of 3 values, 1920 bytes and 2560 base64 characters; alpha
    # 80 values, 640 bytes, and its text ends in "==".
    "X ragged": (_recode("X", lambda values: values[:-1].tobytes()),
                 r"document\.X: must be M x 3 float64 values, got 1912 bytes"),
    "X not M x D": (_recode("X", lambda values: np.column_stack([values.reshape(-1, 3),
                                                                 values[:80]]).tobytes()),
                    r"document\.X: must be M x 3 .* 2560 bytes"),
    "X not whole values": (_recode("X", lambda values: values.tobytes()[:-3]),
                           r"document\.X: must be M x 3 .* 1917 bytes"),
    "X holds a string": (_text("X", lambda text: text[:8] + "0.5," + text[12:]),
                         r"document\.X: must be base64 text"),
    "X url-safe alphabet": (_text("X", lambda text: text.replace("+", "-").replace("/", "_")),
                            r"document\.X: must be base64 text"),
    "X with line breaks": (_text("X", lambda text: "\n".join(text[i:i + 76]
                                                             for i in range(0, len(text), 76))),
                           r"document\.X: must be base64 text"),
    "X bad padding": (_text("X", lambda text: text[:-1]), r"document\.X: must be base64 text"),
    "X holds a bool": (lambda doc: doc.update(X=True), r"document\.X: must be base64 text"),
    "X a number": (lambda doc: doc.update(X=7), r"document\.X: must be base64 text"),
    "X version 3 rows": (lambda doc: doc.update(X=_values(doc["X"]).reshape(-1, 3).tolist()),
                         r"document\.X: must be base64 text"),
    "X holds NaN": (_recode("X", _setting((4, np.nan))), r"document\.X: holds a non-finite"),
    "X holds inf": (_recode("X", _setting((239, np.inf))), r"document\.X: holds a non-finite"),
    "X empty": (lambda doc: doc.update(X=""), "X: needs at least 2 training rows, got 0"),
    "X one row": (_short_x, "X: needs at least 2"),
    "alpha short": (_recode("alpha", lambda values: values[:-1].tobytes()),
                    r"gpr\.alpha: must be 80 float64 values, got 632 bytes"),
    "alpha long": (_recode("alpha", lambda values: np.append(values, 0.5).tobytes()),
                   r"gpr\.alpha: must be 80 float64 values, got 648 bytes"),
    "alpha not whole values": (_recode("alpha", lambda values: values.tobytes() + b"\0"),
                               r"gpr\.alpha: must be 80 float64 values, got 641 bytes"),
    "alpha bad padding": (_text("alpha", lambda text: text[:-1]),
                          r"gpr\.alpha: must be base64 text"),
    "alpha non-ASCII": (_text("alpha", lambda text: "\u00e9" + text[1:]),
                        r"gpr\.alpha: must be base64 text .*ASCII"),
    "alpha holds null": (_edit("gpr", "alpha", None), r"gpr\.alpha: must be base64 text"),
    "alpha huge integer": (_edit("gpr", "alpha", 10**400), r"gpr\.alpha: must be base64 text"),
    "alpha holds -inf": (_recode("alpha", _setting((3, -np.inf))),
                         r"gpr\.alpha: holds a non-finite"),
    "X range overflows the scaler": (_recode("X", _setting((0, 1.7e308), (3, -1.7e308))),
                                     "training features are not all finite"),
    "alpha bound overflows": (_recode("alpha", lambda values: np.full_like(values, 1e308)
                                      .tobytes()),
                              "prediction bound .* is not finite"),
}


@pytest.mark.parametrize("case", sorted(BAD_FIELDS))
def test_bad_field_is_refused(tmp_path, resign, case):
    edit, message = BAD_FIELDS[case]
    path = _saved_file(tmp_path)
    resign(path, edit)
    with pytest.raises(ModelFormatError, match=message):
        load_model(path)


def test_tiny_noise_fit_escalates_to_a_model_that_loads(tmp_path, monkeypatch):
    # At noise 1e-300 the low-rank route (F r = 10 < M = 1500) fails its
    # tries up to about sigma = 1e-12, with no RuntimeWarning, which tier-1
    # makes an error: alpha overflows, or a max |alpha| near 1e306 swamps
    # the backward error's residual while F sum |alpha|, the prediction
    # bound that the loader checks, overflows.  The saved model loads and
    # predicts as the fit does.
    ds = synth("additive", 1, 1500, seed=1)
    model = hdmr_fit(ds, 1, 0, 1.0, 1e-300)
    assert 1e-300 < model.gpr.effective_noise <= 1e-10
    predicted = hdmr_predict(model, ds.X)
    assert np.sqrt(np.mean((predicted - ds.t) ** 2)) < 1e-2
    path = str(tmp_path / "tiny.json")
    save_model(model, path)
    assert hdmr_predict(load_model(path), ds.X).tobytes() == predicted.tobytes()
    # The bound refuses none of the tries that fits at larger noise accept:
    # sigma and alpha keep their bits.
    for noise, escalates in [(1e-6, False), (1e-14, True)]:
        fit = hdmr_fit(ds, 1, 0, 1.0, noise)
        with monkeypatch.context() as patch:
            patch.setattr(hdmrnet.gpr, "_prediction_bound", lambda *args: 0.0)
            unchecked = hdmr_fit(ds, 1, 0, 1.0, noise)
        assert (fit.gpr.effective_noise != fit.gpr.noise) == escalates
        assert fit.gpr.effective_noise == unchecked.gpr.effective_noise
        assert fit.gpr.alpha.tobytes() == unchecked.gpr.alpha.tobytes()


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
@pytest.mark.parametrize("field", ["alpha", "target_offset", "X", "dataset_fingerprint"])
def test_non_finite_number_is_a_format_error(tmp_path, resign, literal, field):
    # Refused wherever it stands, in a field that the loader never reads too.
    def hole(doc):
        if field == "X":
            doc["X"] = "HOLE"
        elif field == "alpha":
            doc["gpr"]["alpha"] = "HOLE"
        elif field == "target_offset":
            doc["gpr"]["target_offset"] = "HOLE"
        else:
            doc["metadata"]["dataset_fingerprint"]["rows"] = "HOLE"
    path = _saved_file(tmp_path)
    resign(path, hole, lambda body: body.replace('"HOLE"', literal))
    with pytest.raises(ModelFormatError, match=f"non-finite number literal '{literal}'"):
        load_model(path)


# ---------------------------------------------------------------------------
# Guarded inputs: non-finite points and sizes past physical memory
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [np.s_[3], np.s_[0, 2]], ids=["row", "cell"])
def test_non_finite_points_are_refused(bad, where):
    model, ds = _small_model()
    X = ds.X[:5].copy()
    X[where] = bad
    for evaluate in (hdmr_predict, term_values):
        with pytest.raises(DatasetError, match="non-finite"):
            evaluate(model, X)


@pytest.mark.parametrize("order", [1, 2])
def test_fit_whose_feature_range_overflows_is_refused(order):
    # max - min of the first coordinate is past the float range: a
    # DatasetError, with no RuntimeWarning from the scaler first.
    ds = synth("pairwise", 3, 40, seed=1)
    X = ds.X.copy()
    X[0, 0], X[1, 0] = 1.7e308, -1.7e308
    with pytest.raises(DatasetError, match="training features are not all finite"):
        hdmr_fit(Dataset(X, ds.t), order, 2, 0.3)


@pytest.mark.parametrize("order", [2, 3])
def test_fit_whose_coupled_sum_overflows_is_refused_without_a_warning(order):
    # Every coordinate is finite, but w0 x0 + w1 x1 (+ w2 x2) of one row
    # overflows to inf in the feature map; the scaler check refuses that.
    ds = synth("pairwise", 3, 40, seed=1)
    X = ds.X.copy()
    X[0] = 1.79e308
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DatasetError, match="training features are not all finite"):
            hdmr_fit(Dataset(X, ds.t), order, 2, 0.3)
    assert caught == []


def test_fit_past_physical_memory_is_refused(monkeypatch):
    # 80 rows of F = 3 + 4 * C(3, 2) = 15 features: 8 * 80 * 15 bytes of
    # features, which the model keeps, 8 * 80 * 12 for the one gather of
    # the 12 coupled features and 16 * 2 * 12 bytes of map arrays = 17,664
    # bytes.  At l = 0.3 (n = 27, r = 17) the fit takes the factor Gram
    # route (F r = 255 >= 80), and also needs 8 * 80^2 bytes for its Gram
    # matrix, factored in place, 8 * 80 * 128 for a G panel, 8 * 80 * 30
    # for the n + 2 M-vectors of the Chebyshev fill and the centred
    # targets, and the 1 MiB headroom: 1,200,896 bytes.
    monkeypatch.setattr(hdmrnet.data, "_MEMORY_BYTES", 17_663)
    with pytest.raises(InvalidHyperparameterError, match="15 features of 80 rows"):
        _small_model()
    needed = 17_664 + 8 * 80 * (80 + 128 + 30) + 2**20
    assert needed == 1_218_560
    monkeypatch.setattr(hdmrnet.data, "_MEMORY_BYTES", needed - 1)
    with pytest.raises(InvalidHyperparameterError, match="15 features of 80 rows and their Gram"):
        _small_model()
    monkeypatch.setattr(hdmrnet.data, "_MEMORY_BYTES", needed)
    model, _ = _small_model()
    assert model.n_features == 15


def test_fit_guard_counts_the_gram_and_its_factor_copy(monkeypatch):
    # 200 rows of D = d = 1 at l = 0.15, below the factor's range, so the
    # fit builds its Gram by the exact loop: 8 * 200 bytes of features,
    # which the model keeps, no map arrays, and on one thread 8 * 200^2
    # bytes for the Gram matrix, which `_solve` factors in place, the
    # exact loop's block buffer and ufunc scratch, 8 * (128 * 200 + 18432)
    # = 352,256 bytes, 8 * 200 * 8 for the centred targets and the solve's
    # seven M-vectors, and the 1 MiB headroom.
    ds = synth("additive", 1, 200, seed=4)
    monkeypatch.setattr(hdmrnet.gpr, "_THREADS", 1)
    needed = 8 * 200 + 8 * 200 * (200 + 8) + 352_256 + 2**20
    assert needed == 1_735_232
    monkeypatch.setattr(hdmrnet.data, "_MEMORY_BYTES", needed - 1)
    with pytest.raises(InvalidHyperparameterError, match="1 features of 200 rows and their Gram"):
        hdmr_fit(ds, 1, 0, 0.15)
    monkeypatch.setattr(hdmrnet.data, "_MEMORY_BYTES", needed)
    assert hdmr_fit(ds, 1, 0, 0.15).gpr.n_train == 200


def test_tall_fit_guard_counts_no_gram(monkeypatch):
    # The same 200 rows at l = 0.3 (n = 27, r = 17) take the low-rank
    # route: F r = 17 < M, so the guard counts B^T and C = B^T B, 8 * 17 *
    # (200 + 17) bytes, not a 200 x 200 Gram and its G panel, and accepts
    # the fit under a limit that the Gram alone, with the headroom, would
    # exceed.  Besides, it counts 8 * 200 of features, 8 * 200 * 30 for
    # the n + 2 M-vectors of the Chebyshev fill and the centred targets,
    # and the 1 MiB headroom.
    ds = synth("additive", 1, 200, seed=4)
    counted = []
    check = hdmrnet.model._check_memory
    monkeypatch.setattr(hdmrnet.model, "_check_memory",
                        lambda needed, what: (counted.append(needed), check(needed, what)))
    needed = 8 * 200 + 8 * 17 * (200 + 17) + 8 * 200 * 30 + 2**20
    assert needed == 1_127_688 < 8 * 200**2 + 2**20
    monkeypatch.setattr(hdmrnet.data, "_MEMORY_BYTES", needed - 1)
    with pytest.raises(InvalidHyperparameterError, match="1 features of 200 rows"):
        hdmr_fit(ds, 1, 0, 0.3)
    monkeypatch.setattr(hdmrnet.data, "_MEMORY_BYTES", needed)
    assert hdmr_fit(ds, 1, 0, 0.3).gpr.n_train == 200
    assert counted == [needed, needed]
    hdmrnet.gpr._kernel_factor.cache_clear()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        hdmr_fit(ds, 1, 0, 0.3)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= counted[-1]


@pytest.mark.parametrize("n, order, neurons, noise", [
    (600, 2, 4, 1e-6), (300, 2, 4, 1e-16), (1000, 1, 0, 1e-6), (50, 2, 1000, 1e-6)])
def test_fit_peak_memory_is_within_the_guard(monkeypatch, n, order, neurons, noise):
    # The guard counts every array of a fit: the features, which the model
    # keeps, the map arrays and one gather, the one Gram matrix and the
    # scratch that builds and solves it, on every jitter try (noise 1e-16
    # escalates three times), and the one-time bound check of the kernel
    # factor at l = 1, whose cache is cleared.  With F = 3003 >> M = 50 the
    # features set the peak, and the model keeps them without a copy.
    counted, built = [], []
    check = hdmrnet.model._check_memory
    monkeypatch.setattr(hdmrnet.model, "_check_memory",
                        lambda needed, what: (counted.append(needed), check(needed, what)))
    features = hdmrnet.model._training_features
    monkeypatch.setattr(hdmrnet.model, "_training_features",
                        lambda *args: built.append(features(*args)) or built[-1])
    ds = synth("pairwise", 3, n, seed=0)
    hdmr_fit(ds, order, neurons, 1.0, noise)
    hdmrnet.gpr._kernel_factor.cache_clear()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model = hdmr_fit(ds, order, neurons, 1.0, noise)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= counted[-1]
    assert model.gpr.Ytrain is built[-1][2]


def test_load_guard_counts_no_gram(tmp_path, monkeypatch):
    # The loader builds no Gram.  It holds the features, scaled in place,
    # 8 * 80 * 15 bytes for the 80-row model above, one gather of its 12
    # coupled features, 8 * 80 * 12 bytes, its 16 * 2 * 12 bytes of map
    # arrays, the ufuncs' scratch, and twice the file's bytes: the body and
    # its text while the body is decoded, then the text and the parsed
    # document while it is parsed.
    model, _ = _small_model()
    path = str(tmp_path / "small.json")
    save_model(model, path)
    needed = (9600 + 7680 + 384 + hdmrnet.gpr._UFUNC_BYTES + 2 * os.path.getsize(path))
    monkeypatch.setattr(hdmrnet.data, "_MEMORY_BYTES", needed - 1)
    with pytest.raises(ModelFormatError, match="15 features of 80 rows need"):
        load_model(path)
    monkeypatch.setattr(hdmrnet.data, "_MEMORY_BYTES", needed)
    assert load_model(path).n_features == 15


@pytest.mark.parametrize("n, D, order, neurons",
                         [(1000, 6, 2, 20), (500, 3, 2, 4), (1000, 3, 1, 0), (20000, 6, 1, 0)])
def test_load_peak_memory_is_within_the_guard(tmp_path, monkeypatch, n, D, order, neurons):
    # The guard counts what a load holds while it builds the features, two
    # feature arrays, the map arrays and the ufuncs' scratch, and what it
    # held while it decoded and parsed the body: two of the body's bytes,
    # text and parsed document.  With F = 306 and 15 features the features
    # set the peak; with 3 and 6, the parse does (at 20000 rows of 6, of a
    # 1.5 MB file, against 0.96 MB of features).
    counted = []
    check = hdmrnet.model._check_memory
    monkeypatch.setattr(hdmrnet.model, "_check_memory",
                        lambda needed, what: (counted.append(needed), check(needed, what)))
    path = str(tmp_path / "model.json")
    save_model(hdmr_fit(synth("pairwise", D, n, seed=0), order, neurons, 1.0), path)
    load_model(path)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        load_model(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= counted[-1]


def _huge_map_file(tmp_path, resign):
    """A valid D = 6, d = 3 model file edited to 10^7 neurons per term, with
    a recomputed checksum: 2 * 10^8 coupled features."""
    ds = synth("morse_like", 6, 30, seed=3)
    path = str(tmp_path / "huge.json")
    save_model(hdmr_fit(ds, 3, 1, 0.3), path)
    resign(path, lambda doc: doc["metadata"].update(neurons_per_term=10_000_000))
    return path


def test_load_past_physical_memory_is_refused_before_building(tmp_path, monkeypatch, resign):
    path = _huge_map_file(tmp_path, resign)
    monkeypatch.setattr(hdmrnet.data, "_MEMORY_BYTES", 8 * 2**30)
    with pytest.raises(ModelFormatError, match="200000006 features of 30 rows.*physical memory"):
        load_model(path)
