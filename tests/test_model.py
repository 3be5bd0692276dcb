"""Pipeline and serialization tests for the fitted surrogate."""

import hashlib
import json
import logging
import os
import tracemalloc

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
    synth,
    term_values,
)
from hdmrnet.errors import (DatasetError, InvalidHyperparameterError, ModelFormatError,
                            ShapeError)
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
    model = hdmr_fit(ds, 2, 3, 0.4, 1e-6, sobol_skip=2, split_seed=77)
    md = model.metadata
    assert md["dimension"] == 3
    assert md["order"] == 2
    assert md["neurons_per_term"] == 3
    assert md["length_scale"] == 0.4
    assert md["noise"] == 1e-6
    assert md["sobol_skip"] == 2
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


@pytest.mark.parametrize("threads", [1, 2, 5])  # 5: more threads than cores share the queue
@pytest.mark.parametrize("length_scale", [0.3, 0.1])  # 81 points in one block; 209 in two
def test_table_coefficients_are_the_dct_of_gpr_component_values(monkeypatch, length_scale,
                                                                threads):
    model = hdmr_fit(synth("morse_like", 4, 300, seed=3), 2, 3, length_scale).gpr
    monkeypatch.setattr(gpr, "_THREADS", 1)
    n = max(16, 8 * int(np.ceil(1.25 / length_scale)))
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
    monkeypatch.setattr(gpr, "_THREADS", threads)
    table = gpr.compile_components(model)
    assert table.coefficients.tobytes() == reference.tobytes()


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
    assert np.array_equal(loaded.X, ds.X)
    assert np.array_equal(loaded.gpr.alpha, model.gpr.alpha)
    assert np.array_equal(loaded.gpr.Ytrain, model.gpr.Ytrain)
    assert loaded.gpr.length_scale == model.gpr.length_scale
    assert loaded.gpr.noise == model.gpr.noise
    assert loaded.gpr.effective_noise == model.gpr.effective_noise
    assert loaded.gpr.target_offset == model.gpr.target_offset
    assert np.array_equal(
        loaded.feature_map.weight_matrix(), model.feature_map.weight_matrix()
    )


def test_features_are_stored_neuron_major(tmp_path):
    # Every kernel pass reads a neuron's training values as one column, so
    # the features are Fortran-ordered wherever they are made or rebuilt.
    model, ds = _small_model()
    path = str(tmp_path / "m.json")
    save_model(model, path)
    mapped = map_features(model.feature_map, ds.X)
    for Y in (mapped, model.gpr.Ytrain, load_model(path).gpr.Ytrain):
        assert Y.flags.f_contiguous and not Y.flags.c_contiguous


def test_save_is_deterministic(tmp_path):
    model, _ = _small_model()
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_model(model, a)
    save_model(model, b)
    assert open(a, "rb").read() == open(b, "rb").read()


def test_checksum_detects_tampering(tmp_path):
    model, _ = _small_model()
    path = str(tmp_path / "m.json")
    save_model(model, path)
    raw = open(path, "r").read()
    # flip one digit inside the alpha array
    broken = raw.replace("0.", "1.", 1)
    assert broken != raw
    open(path, "w").write(broken)
    with pytest.raises(ModelFormatError, match="checksum"):
        load_model(path)


def test_missing_field_names_its_section(tmp_path):
    model, _ = _small_model()
    path = str(tmp_path / "m.json")
    save_model(model, path)
    doc = json.load(open(path))
    del doc["gpr"]["alpha"]
    del doc["checksum"]
    import hashlib

    payload = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    doc["checksum"] = hashlib.sha256(payload).hexdigest()
    json.dump(doc, open(path, "w"), sort_keys=True, separators=(",", ":"))
    with pytest.raises(ModelFormatError, match="gpr"):
        load_model(path)


def test_newer_format_version_is_refused(tmp_path):
    model, _ = _small_model()
    path = str(tmp_path / "m.json")
    save_model(model, path)
    doc = json.load(open(path))
    doc["format_version"] = FORMAT_VERSION + 1
    del doc["checksum"]
    import hashlib

    payload = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    doc["checksum"] = hashlib.sha256(payload).hexdigest()
    json.dump(doc, open(path, "w"), sort_keys=True, separators=(",", ":"))
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


def _saved_document(tmp_path):
    model, _ = _small_model()
    path = str(tmp_path / "m.json")
    save_model(model, path)
    doc = json.load(open(path))
    del doc["checksum"]
    return path, doc


def _write_signed(path, doc, text=lambda raw: raw):
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    doc = dict(doc, checksum=hashlib.sha256(payload.encode()).hexdigest())
    open(path, "w").write(text(json.dumps(doc, sort_keys=True, separators=(",", ":"))))


def test_model_file_holds_only_config_inputs_and_alpha(tmp_path):
    path, doc = _saved_document(tmp_path)
    assert set(doc) == {"format_version", "metadata", "X", "gpr"}
    assert set(doc["gpr"]) == {"alpha", "effective_noise", "target_offset"}
    assert len(doc["X"]) == len(doc["gpr"]["alpha"]) == 80
    assert all(len(row) == 3 for row in doc["X"])


def test_version_one_file_is_refused(tmp_path):
    path, doc = _saved_document(tmp_path)
    doc["format_version"] = 1
    _write_signed(path, doc)
    with pytest.raises(ModelFormatError, match="version 1.*refit"):
        load_model(path)


def _edit(section, key, value):
    def edit(doc):
        doc[section][key] = value
    return edit


def _short_x(doc):
    doc["X"] = doc["X"][:1]
    doc["gpr"]["alpha"] = doc["gpr"]["alpha"][:1]


BAD_FIELDS = {
    "version string": (lambda doc: doc.update(format_version="2"), "format_version: must be"),
    "dimension float": (_edit("metadata", "dimension", 3.0), "dimension"),
    "dimension bool": (_edit("metadata", "dimension", True), "dimension"),
    "dimension zero": (_edit("metadata", "dimension", 0), "dimension"),
    "dimension not X width": (_edit("metadata", "dimension", 4), "X"),
    "order string": (_edit("metadata", "order", "2"), "order"),
    "order bool": (_edit("metadata", "order", True), "order"),
    "order zero": (_edit("metadata", "order", 0), "order"),
    "order above dimension": (_edit("metadata", "order", 4), "metadata.*coupling order"),
    "neurons negative": (_edit("metadata", "neurons_per_term", -1), "neurons_per_term"),
    "neurons float": (_edit("metadata", "neurons_per_term", 4.5), "neurons_per_term"),
    "neurons past the sequence": (_edit("metadata", "neurons_per_term", 10**400), "exhausted"),
    "skip negative": (_edit("metadata", "sobol_skip", -3), "sobol_skip"),
    "skip bool": (_edit("metadata", "sobol_skip", False), "sobol_skip"),
    "skip past the sequence": (_edit("metadata", "sobol_skip", 2**32), "metadata.*exhausted"),
    "length scale negative": (_edit("metadata", "length_scale", -0.3), "length_scale"),
    "length scale zero": (_edit("metadata", "length_scale", 0), "length_scale"),
    "length scale string": (_edit("metadata", "length_scale", "0.3"), "length_scale"),
    "length scale 1e200": (_edit("metadata", "length_scale", 1e200), "length_scale"),
    "noise zero": (_edit("metadata", "noise", 0.0), "noise"),
    "noise null": (_edit("metadata", "noise", None), "noise"),
    "effective noise below noise": (_edit("gpr", "effective_noise", 1e-7), "effective_noise"),
    "effective noise bool": (_edit("gpr", "effective_noise", True), "effective_noise"),
    "target offset string": (_edit("gpr", "target_offset", "0.5"), "target_offset"),
    "X ragged": (lambda doc: doc["X"][5].pop(), "X"),
    "X not M x D": (lambda doc: [row.append(0.5) for row in doc["X"]], "X"),
    "X holds a string": (lambda doc: doc["X"][0].__setitem__(0, "0.5"), "X"),
    "X holds a bool": (lambda doc: doc["X"][2].__setitem__(1, True), "X"),
    "X not a list": (lambda doc: doc.update(X=7), "X"),
    "X one row": (_short_x, "X: needs at least 2"),
    "alpha short": (lambda doc: doc["gpr"]["alpha"].pop(), "alpha"),
    "alpha holds null": (lambda doc: doc["gpr"]["alpha"].__setitem__(3, None), "alpha"),
    "alpha huge integer": (lambda doc: doc["gpr"]["alpha"].__setitem__(3, 10**400), "alpha"),
}


@pytest.mark.parametrize("case", sorted(BAD_FIELDS))
def test_bad_field_is_refused(tmp_path, case):
    edit, message = BAD_FIELDS[case]
    path, doc = _saved_document(tmp_path)
    edit(doc)
    _write_signed(path, doc)
    with pytest.raises(ModelFormatError, match=message):
        load_model(path)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
@pytest.mark.parametrize("field", ["alpha", "target_offset", "X"])
def test_non_finite_number_is_a_format_error(tmp_path, literal, field):
    path, doc = _saved_document(tmp_path)
    if field == "X":
        doc["X"][4][1] = "HOLE"
    elif field == "alpha":
        doc["gpr"]["alpha"][4] = "HOLE"
    else:
        doc["gpr"]["target_offset"] = "HOLE"
    _write_signed(path, doc, lambda raw: raw.replace('"HOLE"', literal))
    with pytest.raises(ModelFormatError):
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


def test_fit_past_physical_memory_is_refused(monkeypatch):
    # 80 rows of F = 3 + 4 * C(3, 2) = 15 features: 8 * 80 * 15 bytes of
    # features plus 16 * 2 * 12 bytes of map arrays = 9984 bytes; a fit
    # also needs 8 * 80^2 bytes for its Gram matrix, factored in place,
    # 8 * 80 for the centred targets, on its one 80-row block
    # 8 * (128 * 80 + 18432) bytes of kernel scratch to build the Gram, and
    # 8 * 80 * 15 for the copy of the features that the model keeps.
    monkeypatch.setattr(hdmrnet.data, "_MEMORY_BYTES", 9983)
    with pytest.raises(InvalidHyperparameterError, match="15 features of 80 rows"):
        _small_model()
    needed = 9984 + 8 * 80 * (80 + 1) + 8 * (128 * 80 + 18432) + 8 * 80 * 15
    monkeypatch.setattr(hdmrnet.data, "_MEMORY_BYTES", needed - 1)
    with pytest.raises(InvalidHyperparameterError, match="15 features of 80 rows and their Gram"):
        _small_model()
    monkeypatch.setattr(hdmrnet.data, "_MEMORY_BYTES", needed)
    model, _ = _small_model()
    assert model.n_features == 15


def test_fit_guard_counts_the_gram_and_its_factor_copy(monkeypatch):
    # 200 rows of D = d = 1: 8 * 200 bytes of features, no map arrays, and
    # on one thread 8 * 200^2 bytes for the Gram matrix, which `_solve`
    # factors in place, 8 * 200 for the centred targets, 8 * (128 * 200 +
    # 18432) of kernel scratch to build the Gram, more than the solve's
    # 8 * (7 * 200 + 128^2) bytes, and 8 * 200 for the model's copy of the
    # features.
    ds = synth("additive", 1, 200, seed=4)
    monkeypatch.setattr(hdmrnet.gpr, "_THREADS", 1)
    monkeypatch.setattr(hdmrnet.data, "_MEMORY_BYTES", 677_055)
    with pytest.raises(InvalidHyperparameterError, match="1 features of 200 rows and their Gram"):
        hdmr_fit(ds, 1, 0, 0.3)
    monkeypatch.setattr(hdmrnet.data, "_MEMORY_BYTES", 677_056)
    assert hdmr_fit(ds, 1, 0, 0.3).gpr.n_train == 200


@pytest.mark.parametrize("n, order, neurons, noise", [
    (600, 2, 4, 1e-6), (300, 2, 4, 1e-16), (1000, 1, 0, 1e-6), (50, 2, 1000, 1e-6)])
def test_fit_peak_memory_is_within_the_guard(monkeypatch, n, order, neurons, noise):
    # The guard counts every array of a fit: the features, the map arrays,
    # the one Gram matrix and the scratch that builds and solves it, on
    # every jitter try (noise 1e-16 escalates three times), and the model's
    # copy of the features: with F = 3003 >> M = 50 the guard holds only
    # because it counts that copy.
    counted = []
    check = hdmrnet.model._check_memory
    monkeypatch.setattr(hdmrnet.model, "_check_memory",
                        lambda needed, what: (counted.append(needed), check(needed, what)))
    ds = synth("pairwise", 3, n, seed=0)
    hdmr_fit(ds, order, neurons, 1.0, noise)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        hdmr_fit(ds, order, neurons, 1.0, noise)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= counted[-1]


def test_load_guard_counts_no_gram(tmp_path, monkeypatch):
    # The loader builds no Gram.  It holds the mapped features and their
    # scaled copy, 2 * 8 * 80 * 15 bytes for the 80-row model above, its
    # 16 * 2 * 12 bytes of map arrays, the ufuncs' scratch, and the parsed
    # document: the file's bytes plus 8 * (5 * 3 + 19) bytes per row.
    model, _ = _small_model()
    path = str(tmp_path / "small.json")
    save_model(model, path)
    needed = (2 * 9600 + 384 + hdmrnet.gpr._UFUNC_BYTES
              + os.path.getsize(path) + 8 * 80 * (5 * 3 + 19))
    monkeypatch.setattr(hdmrnet.data, "_MEMORY_BYTES", needed - 1)
    with pytest.raises(ModelFormatError, match="15 features of 80 rows need"):
        load_model(path)
    monkeypatch.setattr(hdmrnet.data, "_MEMORY_BYTES", needed)
    assert load_model(path).n_features == 15


@pytest.mark.parametrize("n, D, order, neurons", [(1000, 6, 2, 20), (500, 3, 2, 4)])
def test_load_peak_memory_is_within_the_guard(tmp_path, monkeypatch, n, D, order, neurons):
    # The guard counts what a load holds while it builds the features: the
    # parsed document, two feature arrays, the map arrays and the ufuncs'
    # scratch.  With F = 306 and 15 features these set the peak; with
    # fewer, reading and checking the file's text, which the guard follows,
    # would.
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


def _huge_map_file(tmp_path):
    """A valid D = 6, d = 3 model file edited to 10^7 neurons per term, with
    a recomputed checksum: 2 * 10^8 coupled features."""
    ds = synth("morse_like", 6, 30, seed=3)
    path = str(tmp_path / "huge.json")
    save_model(hdmr_fit(ds, 3, 1, 0.3), path)
    doc = json.load(open(path))
    del doc["checksum"]
    doc["metadata"]["neurons_per_term"] = 10_000_000
    _write_signed(path, doc)
    return path


def test_load_past_physical_memory_is_refused_before_building(tmp_path, monkeypatch):
    path = _huge_map_file(tmp_path)
    monkeypatch.setattr(hdmrnet.data, "_MEMORY_BYTES", 8 * 2**30)
    with pytest.raises(ModelFormatError, match="200000006 features of 30 rows.*physical memory"):
        load_model(path)
