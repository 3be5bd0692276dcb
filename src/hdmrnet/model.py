"""End-to-end surrogate pipeline: feature map -> unit-cube scaling -> additive GPR.

A fitted model evaluates as a single-hidden-layer network whose hidden
weights are the rule-based sparse rows of the feature map and whose
neuron activation functions are the per-feature component functions of
the additive GPR.  The prediction therefore decomposes exactly into
per-coupling-term contributions plus a constant offset; `hdmr_predict`
and `term_values` both evaluate the activations with
`gpr.activation_sums`.

`save_model` writes the model file that README.md's "File formats"
describes: only what the data and the fit settings determine, with the
training inputs and the dual coefficients as base64 float64 bytes.
`load_model` rebuilds the rest with the code that fitted it.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .coupling import (_CHUNK, FeatureMap, _check_count, _check_order, build_feature_map,
                       map_features)
from .data import Dataset, _atomic_open, _check_memory
from .errors import (DatasetError, HdmrnetError, InvalidHyperparameterError,
                     ModelFormatError, ShapeError)
from .gpr import (_UFUNC_BYTES, AdditiveGprModel, _check_length_scale, _check_noise,
                  _check_points, _fit_bytes, _prediction_bound, activation_sums, gpr_fit)
from .sobol import _check_request

FORMAT_VERSION = 5

# The metadata fields that `hdmr_fit` writes; `load_model` refuses any other.
_METADATA_FIELDS = ("dimension", "order", "neurons_per_term", "length_scale", "noise",
                    "split_seed", "dataset_fingerprint")


@dataclass
class Scaler:
    """Per-feature affine map of the training range onto [0, 1].

    Constant features (max == min) map to 0.5.  Test-time values outside
    the training range are extrapolated, never clipped.
    """

    mins: np.ndarray
    maxs: np.ndarray


def fit_scaler(Y: np.ndarray) -> Scaler:
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2 or Y.shape[0] < 1:
        raise ShapeError(f"Y must be a non-empty 2-D matrix, got shape {Y.shape}")
    return Scaler(mins=Y.min(axis=0), maxs=Y.max(axis=0))


def apply_scaler(scaler: Scaler, Y: np.ndarray) -> np.ndarray:
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2 or Y.shape[1] != scaler.mins.shape[0]:
        raise ShapeError(
            f"Y must have {scaler.mins.shape[0]} columns, got shape {Y.shape}"
        )
    return _scale(scaler, Y.copy(order="K"))


def _scale(scaler: Scaler, Y: np.ndarray) -> np.ndarray:
    """Y, float64 with the scaler's columns, mapped by the scaler in place
    and returned; a range or value that overflows gives inf or NaN, silently."""
    with np.errstate(over="ignore", invalid="ignore"):
        span = scaler.maxs - scaler.mins
        constant = span == 0.0
        Y -= scaler.mins
        Y /= np.where(constant, 1.0, span)
    Y[:, constant] = 0.5
    return Y


@dataclass
class HdmrModel:
    """Fitted surrogate: feature map + scaler + additive GPR + provenance.

    `X` is the raw (M, D) training input; the feature map, the scaler and
    `gpr.Ytrain` are regenerated from it and the configuration.
    """

    feature_map: FeatureMap
    scaler: Scaler
    gpr: AdditiveGprModel
    metadata: dict
    X: np.ndarray

    @property
    def dimension(self) -> int:
        return self.feature_map.dimension

    @property
    def n_features(self) -> int:
        return self.feature_map.n_features


def _check_fit_settings(M: int, D: int, order: int, neurons_per_term: int,
                        length_scale: float | None = None) -> tuple[int, int]:
    """The one owner of the refusals that a fit of M rows of D coordinates
    makes from its settings alone, before anything is allocated: fewer than
    2 rows, an order not an integer in [1, D], a neuron count not an
    integer >= 0, more coupled rows than the Sobol sequence has points
    (1 + N C(D, d) > 2^32), and a length scale that `gpr` refuses.
    Returns F and the bytes of building the features: the map arrays, the
    features, which are scaled in place, one gather of `map_features` and
    the ufuncs' scratch, or, given the length scale of a fit, instead of
    that scratch what `gpr._fit_bytes` counts at it.  A fit keeps the
    features as `Ytrain`.
    """
    if M < 2:
        raise DatasetError(f"training set needs at least 2 rows, got {M}")
    order = _check_order(D, order)
    neurons_per_term = _check_count("neurons_per_term", neurons_per_term)
    coupled = neurons_per_term * math.comb(D, order) if order >= 2 else 0
    _check_request(order, coupled)
    F = D + coupled
    scratch = (_UFUNC_BYTES if length_scale is None
               else _fit_bytes(M, F, _check_length_scale(length_scale)))
    return F, 8 * M * (F + min(_CHUNK, coupled)) + 16 * order * coupled + scratch


def _training_features(X: np.ndarray, order: int, neurons_per_term: int,
                       length_scale: float | None = None,
                       held: int = 0) -> tuple[FeatureMap, Scaler, np.ndarray]:
    """Feature map, scaler and scaled training features of X.

    The one path by which `hdmr_fit` builds a model and `load_model`
    rebuilds it, so a loaded model's features are the fitted ones bit for
    bit.  Settings are refused by `_check_fit_settings`, and sizes past
    physical memory, with the caller's `held` bytes, before any allocation;
    features whose range overflows the scaler, with `DatasetError`.
    """
    M, D = X.shape
    F, needed = _check_fit_settings(M, D, order, neurons_per_term, length_scale)
    gram = "" if length_scale is None else " and their Gram matrix"
    _check_memory(needed + held, f"{F} features of {M} rows{gram}")
    fmap = build_feature_map(D, order, neurons_per_term)
    Y = map_features(fmap, X)
    scaler = fit_scaler(Y)
    # Scaled values are NaN, inf or >= 0, so a column's max is finite only if all of it is.
    if not np.isfinite(_scale(scaler, Y).max(axis=0)).all():
        raise DatasetError("scaled training features are not all finite: an input range overflows")
    return fmap, scaler, Y


def hdmr_fit(
    train: Dataset,
    order: int,
    neurons_per_term: int,
    length_scale: float,
    noise: float = 1e-6,
    *,
    split_seed: int | None = None,
) -> HdmrModel:
    """Fit the full pipeline on a training dataset.

    Deterministic given (dataset contents, order, neurons_per_term,
    length_scale, noise); the hidden weights are Sobol points 1 ..
    N * C(D, d), so nothing else chooses them.  `split_seed`, keyword-only,
    is provenance only and recorded in the model metadata.
    """
    fmap, scaler, Y = _training_features(train.X, order, neurons_per_term, length_scale)
    gpr = gpr_fit(Y, train.t, length_scale, noise)
    metadata = {
        "dimension": train.dimension,
        "order": fmap.order,
        "neurons_per_term": fmap.neurons_per_term,
        "length_scale": float(length_scale),
        "noise": float(noise),
        "split_seed": int(split_seed) if isinstance(split_seed, np.integer) else split_seed,
        "dataset_fingerprint": train.fingerprint(),
    }
    return HdmrModel(feature_map=fmap, scaler=scaler, gpr=gpr, metadata=metadata,
                     X=train.X.copy())


def _features(model: HdmrModel, X: np.ndarray) -> np.ndarray:
    """Scaled features of the rows of X, float64 (n, D) points."""
    return _scale(model.scaler, map_features(model.feature_map, X))


def _activation_sums(model: HdmrModel, X: np.ndarray, groups, start: float) -> np.ndarray:
    """`activation_sums` at the rows of X, which must be finite (n, D)
    points; each block maps its own rows, so no (n, F) features are built."""
    X = _check_points(X, model.dimension, "X")
    return activation_sums(model.gpr, lambda rows: _features(model, X[rows]), len(X), groups,
                           start)


def hdmr_predict(model: HdmrModel, X: np.ndarray) -> np.ndarray:
    """Evaluate the surrogate at each row of X.

    Through `activation_sums`: within tau = 1e-12 * sum |alpha| of the exact
    `gpr_predict` on the rows that read the activation table, and bit-equal
    to `gpr_predict` of the stacked rows that take the exact path (all of
    them on a model without a table).  Besides X and the output, it holds a
    fixed block of features per thread, never n x F.
    """
    return _activation_sums(model, X, [range(model.n_features)], model.gpr.target_offset)[0]


def term_values(model: HdmrModel, X: np.ndarray) -> dict[tuple[int, ...], np.ndarray]:
    """Per-coupling-term contributions at each row of X.

    Keys are coordinate subsets: the D singletons of the original rows
    plus, for order >= 2, the C(D, d) coupled subsets.  Values sum (with
    the GPR offset) to `hdmr_predict` up to summation order.  Like
    `hdmr_predict`, it holds X, the output and a fixed block per thread.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for j in range(model.n_features):
        groups.setdefault(model.feature_map.subset(j), []).append(j)
    return dict(zip(groups, _activation_sums(model, X, list(groups.values()), 0.0)))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _canonical(document: dict) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _encode(values: np.ndarray) -> str:
    """Standard padded base64 of the little-endian float64 bytes of `values`, row-major."""
    return base64.b64encode(np.ascontiguousarray(values, "<f8")).decode("ascii")


def save_model(model: HdmrModel, path: str) -> None:
    """Write the model file atomically; no partial file is ever left at `path`.

    `X` and `gpr.alpha` are written as the base64 of their float64 bytes,
    every other field as JSON, so nothing is rounded.
    """
    body = _canonical({
        "metadata": model.metadata,
        "X": _encode(model.X),
        "gpr": {
            "alpha": _encode(model.gpr.alpha),
            "effective_noise": model.gpr.effective_noise,
            "target_offset": model.gpr.target_offset,
        },
    })
    checksum = hashlib.sha256(body.encode()).hexdigest()
    with _atomic_open(path) as fh:
        fh.write(_canonical({"checksum": checksum, "format_version": FORMAT_VERSION}) + "\n")
        fh.write(body)


def _require(mapping, key, section):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ModelFormatError(f"{section}: missing field '{key}'")
    return mapping[key]


def _integer(metadata: dict, key: str, low: int) -> int:
    value = _require(metadata, key, "metadata")
    if type(value) is not int or value < low:
        raise ModelFormatError(f"metadata: '{key}' must be an integer >= {low}, got {value!r}")
    return value


def _number(mapping, key: str, section: str) -> float:
    """Field `key` as a float; it must be a finite JSON number (not a string,
    bool or null).  Floats are parsed finite, so only an integer past the
    float range overflows."""
    value = _require(mapping, key, section)
    if type(value) in (int, float):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ModelFormatError(f"{section}.{key}: must be a finite number, got {value!r:.80}")


def _floats(mapping, key: str, section: str, shape: tuple) -> np.ndarray:
    """Field `key`, the base64 text of finite little-endian float64 values,
    as a float64 array of `shape` (a leading None matches any row count).

    The text must be standard padded base64 and its bytes whole rows.  The
    field is removed from `mapping`, and `raw` holds its text, then that
    text's ASCII bytes, then their decoding: each step frees the one before.
    """
    raw = _require(mapping, key, section)
    del mapping[key]
    if isinstance(raw, str) and raw.isascii():
        raw = raw.encode("ascii")
    try:
        raw = base64.b64decode(raw, validate=True)
    except (TypeError, ValueError) as exc:  # not a str, not ASCII, or a binascii.Error
        raise ModelFormatError(f"{section}.{key}: must be base64 text ({exc})") from exc
    row = 8 * math.prod(shape[1:])
    if len(raw) % row or shape[0] not in (None, len(raw) // row):
        layout = " x ".join("M" if n is None else str(n) for n in shape)
        raise ModelFormatError(f"{section}.{key}: must be {layout} float64 values, "
                               f"got {len(raw)} bytes")
    values = np.frombuffer(raw, "<f8").astype(np.float64).reshape((-1,) + shape[1:])
    if not np.isfinite(values).all():
        raise ModelFormatError(f"{section}.{key}: holds a non-finite value")
    return values


def _finite(text: str) -> float:
    """The JSON number or constant `text` as a float, refused unless finite."""
    if math.isfinite(value := float(text)):
        return value
    raise ModelFormatError(f"document: non-finite number literal '{text}'")


def _parse(text: bytes | str, section: str) -> dict:
    try:
        value = json.loads(text, parse_constant=_finite, parse_float=_finite)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"{section}: not valid JSON ({exc})") from exc
    if not isinstance(value, dict):
        raise ModelFormatError(f"{section}: top level must be an object")
    return value


def load_model(path: str) -> HdmrModel:
    """Read a model file, verifying structure, version, checksum and every field.

    `X` must decode to at least 2 rows of `metadata.dimension` finite
    float64 values and `gpr.alpha` to one per row; any other payload, a
    `metadata` field that `hdmr_fit` does not write, and a file of another
    format version are a `ModelFormatError`.
    """
    try:
        with open(path, "rb") as fh:
            head, body = fh.readline(), fh.read()
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file: {exc}") from exc
    header = _parse(head, "header")
    version = _require(header, "format_version", "header")
    if type(version) is not int:
        raise ModelFormatError("format_version: must be an integer")
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"format_version: file has version {version}, this build reads only "
            f"version {FORMAT_VERSION}; refit the model to write a version {FORMAT_VERSION} file"
        )
    if hashlib.sha256(body).hexdigest() != _require(header, "checksum", "header"):
        raise ModelFormatError("checksum: stored checksum does not match file contents")
    size = len(head) + len(body)
    try:  # the text that json.loads would decode, held in place of the bytes
        body = body.decode(json.detect_encoding(body), "surrogatepass")
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"document: not valid JSON ({exc})") from exc
    document = _parse(body, "document")
    del body  # before the features are built

    metadata = _require(document, "metadata", "document")
    dimension = _integer(metadata, "dimension", 1)
    order = _integer(metadata, "order", 1)
    neurons_per_term = _integer(metadata, "neurons_per_term", 0)
    for key in metadata:
        if key not in _METADATA_FIELDS:
            raise ModelFormatError(f"metadata: unknown field '{key:.80}'")
    length_scale = _number(metadata, "length_scale", "metadata")
    noise = _number(metadata, "noise", "metadata")
    try:
        length_scale, noise = _check_length_scale(length_scale), _check_noise(noise)
    except InvalidHyperparameterError as exc:
        raise ModelFormatError(f"metadata: bad length_scale or noise: {exc}") from exc

    X = _floats(document, "X", "document", (None, dimension))
    if X.shape[0] < 2:
        raise ModelFormatError(f"document.X: needs at least 2 training rows, got {X.shape[0]}")

    gp = _require(document, "gpr", "document")
    alpha = _floats(gp, "alpha", "gpr", (X.shape[0],))
    effective_noise = _number(gp, "effective_noise", "gpr")
    target_offset = _number(gp, "target_offset", "gpr")
    if not effective_noise >= noise:
        raise ModelFormatError(
            f"gpr: effective_noise {effective_noise} is below the requested noise {noise}"
        )

    # Held while the body was decoded and parsed: its bytes and their text,
    # then that text and the document's copy of it.  A payload's decoding
    # holds less: its text and that text's bytes, then those bytes and its
    # decoded bytes, then those and its array.
    try:
        fmap, scaler, Y = _training_features(X, order, neurons_per_term, held=2 * size)
    except (HdmrnetError, ValueError) as exc:
        raise ModelFormatError(f"metadata: {exc}") from exc
    if not math.isfinite(_prediction_bound(target_offset, Y.shape[1], alpha)):
        raise ModelFormatError("gpr: the prediction bound |target_offset| + F sum |alpha| "
                               "is not finite")
    gpr = AdditiveGprModel(Ytrain=Y, alpha=alpha, length_scale=length_scale, noise=noise,
                           effective_noise=effective_noise, target_offset=target_offset)
    return HdmrModel(feature_map=fmap, scaler=scaler, gpr=gpr, metadata=metadata, X=X)
