"""End-to-end surrogate pipeline: feature map -> unit-cube scaling -> additive GPR.

A fitted model evaluates as a single-hidden-layer network whose hidden
weights are the rule-based sparse rows of the feature map and whose
neuron activation functions are the per-feature component functions of
the additive GPR.  The prediction therefore decomposes exactly into
per-coupling-term contributions plus a constant offset.  `hdmr_predict`
and `term_values` both evaluate the activations with
`gpr.activation_sums`, which decides between the GPR's checked Chebyshev
tables and the exact kernel expansion; the exact rows of all the groups
(the whole prediction, or every coupling term) are one call of the one
exact evaluator, `gpr._dual_sums`, over a queue of (group, row block) tasks.

Model files (format version 2) are JSON documents with a fixed top-level
layout (format_version, metadata, X, gpr, checksum).  They store only what
cannot be regenerated: the configuration in `metadata`, the raw training
inputs `X`, and the dual coefficients with the noise actually used and the
target offset in `gpr`.  Loading rebuilds the feature map, the scaler and
the training features with the same code that fitted them, and every
field is validated.  Floats are serialized as shortest round-trip
decimals, so a save/load round trip reproduces predictions bit-exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .coupling import FeatureMap, _check_count, _check_order, build_feature_map, map_features
from .data import Dataset, _atomic_open, _check_memory
from .errors import (DatasetError, HdmrnetError, InvalidHyperparameterError,
                     ModelFormatError, ShapeError)
from .gpr import (_UFUNC_BYTES, AdditiveGprModel, _check_length_scale, _check_noise,
                  _fit_bytes, activation_sums, gpr_fit)
from .sobol import _check_request

FORMAT_VERSION = 2


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
    span = scaler.maxs - scaler.mins
    constant = span == 0.0
    safe_span = np.where(constant, 1.0, span)
    scaled = Y - scaler.mins
    scaled /= safe_span
    scaled[:, constant] = 0.5
    return scaled


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


def _check_fit_settings(M: int, D: int, order: int, neurons_per_term: int, sobol_skip: int,
                        gram: bool = False) -> tuple[int, int]:
    """The one owner of the refusals that a fit of M rows of D coordinates
    makes from its settings alone, before anything is allocated: fewer than
    2 rows, an order outside [1, D], a negative neuron count or Sobol skip,
    a request past the Sobol sequence.  Returns F and the bytes of building
    the features: the map arrays, the features, their scaled copy and its
    ufunc scratch, or with `gram` instead of the last two what `gpr._fit_bytes`
    counts: the Gram matrix, its build and solve scratch and `Ytrain`'s copy.
    """
    if M < 2:
        raise DatasetError(f"training set needs at least 2 rows, got {M}")
    _check_order(D, order)
    _check_count("neurons_per_term", neurons_per_term)
    _check_count("sobol_skip", sobol_skip)
    coupled = neurons_per_term * math.comb(D, order) if order >= 2 else 0
    _check_request(order, coupled, sobol_skip)
    F = D + coupled
    return F, 8 * M * F + 16 * order * coupled + (
        _fit_bytes(M, F) if gram else 8 * M * F + _UFUNC_BYTES)


def _training_features(X: np.ndarray, order: int, neurons_per_term: int, sobol_skip: int,
                       gram: bool = False, held: int = 0) -> tuple[FeatureMap, Scaler, np.ndarray]:
    """Feature map, scaler and scaled training features of X.

    The one path by which `hdmr_fit` builds a model and `load_model`
    rebuilds it, so a loaded model's features are the fitted ones bit for
    bit.  Settings are refused by `_check_fit_settings`, and sizes past
    physical memory, with the caller's `held` bytes, before any allocation.
    """
    M, D = X.shape
    F, needed = _check_fit_settings(M, D, order, neurons_per_term, sobol_skip, gram)
    _check_memory(needed + held, f"{F} features of {M} rows"
                                 f"{' and their Gram matrix' if gram else ''}")
    fmap = build_feature_map(D, order, neurons_per_term, sobol_skip)
    Y = map_features(fmap, X)
    scaler = fit_scaler(Y)
    return fmap, scaler, apply_scaler(scaler, Y)


def hdmr_fit(
    train: Dataset,
    order: int,
    neurons_per_term: int,
    length_scale: float,
    noise: float = 1e-6,
    sobol_skip: int = 0,
    split_seed: int | None = None,
) -> HdmrModel:
    """Fit the full pipeline on a training dataset.

    Deterministic given (dataset contents, order, neurons_per_term,
    length_scale, noise, sobol_skip).  `split_seed` is provenance only and
    recorded in the model metadata.
    """
    fmap, scaler, Y = _training_features(train.X, order, neurons_per_term, sobol_skip,
                                         gram=True)
    gpr = gpr_fit(Y, train.t, length_scale, noise)
    metadata = {
        "dimension": train.dimension,
        "order": order,
        "neurons_per_term": neurons_per_term,
        "length_scale": float(length_scale),
        "noise": float(noise),
        "sobol_skip": sobol_skip,
        "split_seed": split_seed,
        "dataset_fingerprint": train.fingerprint(),
    }
    return HdmrModel(feature_map=fmap, scaler=scaler, gpr=gpr, metadata=metadata,
                     X=train.X.copy())


def _features(model: HdmrModel, X: np.ndarray) -> np.ndarray:
    """Scaled features of the rows of X, which must be finite (n, D) points."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.dimension:
        raise ShapeError(f"X must be (n, {model.dimension}), got shape {X.shape}")
    if not np.isfinite(X).all():
        raise DatasetError("X contains non-finite values")
    return apply_scaler(model.scaler, map_features(model.feature_map, X))


def hdmr_predict(model: HdmrModel, X: np.ndarray) -> np.ndarray:
    """Evaluate the surrogate at each row of X.

    Through `activation_sums`: within tau = 1e-12 * sum |alpha| of the exact
    `gpr_predict` on the rows that read the activation table, and bit-equal
    to it on the rows and models that take the exact path.
    """
    Y = _features(model, X)
    return activation_sums(model.gpr, Y, [range(Y.shape[1])], model.gpr.target_offset)[0]


def term_values(model: HdmrModel, X: np.ndarray) -> dict[tuple[int, ...], np.ndarray]:
    """Per-coupling-term contributions at each row of X.

    Keys are coordinate subsets: the D singletons of the original rows
    plus, for order >= 2, the C(D, d) coupled subsets.  Values sum (with
    the GPR offset) to `hdmr_predict` up to summation order.
    """
    Y = _features(model, X)
    groups: dict[tuple[int, ...], list[int]] = {}
    for j in range(model.n_features):
        groups.setdefault(model.feature_map.subset(j), []).append(j)
    return dict(zip(groups, activation_sums(model.gpr, Y, list(groups.values()), 0.0)))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _canonical(document: dict) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"), allow_nan=False)


def save_model(model: HdmrModel, path: str) -> None:
    """Write the model file atomically; no partial file is ever left at `path`."""
    document = {
        "format_version": FORMAT_VERSION,
        "metadata": model.metadata,
        "X": model.X.tolist(),
        "gpr": {
            "alpha": model.gpr.alpha.tolist(),
            "effective_noise": model.gpr.effective_noise,
            "target_offset": model.gpr.target_offset,
        },
    }
    document["checksum"] = hashlib.sha256(_canonical(document).encode()).hexdigest()
    with _atomic_open(path) as fh:
        fh.write(_canonical(document))


def _require(mapping, key, section):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ModelFormatError(f"{section}: missing field '{key}'")
    return mapping[key]


def _integer(metadata: dict, key: str, low: int) -> int:
    value = _require(metadata, key, "metadata")
    if type(value) is not int or value < low:
        raise ModelFormatError(f"metadata: '{key}' must be an integer >= {low}, got {value!r}")
    return value


def _numbers(mapping, key: str, section: str, shape: tuple = ()) -> np.ndarray:
    """Field `key` as a float64 array of `shape` (None matches any length).

    Every leaf must be a finite JSON number (not a string, bool or null)
    and the nesting must be exactly `shape`, so ragged lists are refused.
    """
    value = _require(mapping, key, section)

    def fits(v, dims) -> bool:
        if not dims:
            return type(v) in (int, float)
        return (isinstance(v, list) and dims[0] in (None, len(v))
                and all(fits(item, dims[1:]) for item in v))

    if fits(value, shape):
        try:
            array = np.array(value, dtype=np.float64)
        except OverflowError:
            array = None
        if array is not None and np.isfinite(array).all():
            return array
    layout = " x ".join("M" if n is None else str(n) for n in shape)
    expected = f"a list of {layout} finite numbers" if shape else "a finite number"
    raise ModelFormatError(f"{section}.{key}: must be {expected}, got {value!r:.80}")


def _reject_literal(name: str):
    raise ModelFormatError(f"document: non-finite number literal '{name}'")


def load_model(path: str) -> HdmrModel:
    """Read a model file, verifying structure, version, checksum and every field."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file: {exc}") from exc
    try:
        document = json.loads(raw, parse_constant=_reject_literal)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"document: not valid JSON ({exc})") from exc
    if not isinstance(document, dict):
        raise ModelFormatError("document: top level must be an object")

    version = _require(document, "format_version", "document")
    if type(version) is not int:
        raise ModelFormatError("format_version: must be an integer")
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"format_version: file has version {version}, this build reads only "
            f"version {FORMAT_VERSION}; refit the model to write a version {FORMAT_VERSION} file"
        )

    stored_checksum = _require(document, "checksum", "document")
    unsigned = {k: v for k, v in document.items() if k != "checksum"}
    try:
        actual = hashlib.sha256(_canonical(unsigned).encode()).hexdigest()
    except ValueError as exc:  # a number such as 1e999 overflows to inf
        raise ModelFormatError(f"document: {exc}") from exc
    if actual != stored_checksum:
        raise ModelFormatError("checksum: stored checksum does not match file contents")

    metadata = _require(document, "metadata", "document")
    dimension = _integer(metadata, "dimension", 1)
    order = _integer(metadata, "order", 1)
    neurons_per_term = _integer(metadata, "neurons_per_term", 0)
    sobol_skip = _integer(metadata, "sobol_skip", 0)
    length_scale = _numbers(metadata, "length_scale", "metadata")
    noise = _numbers(metadata, "noise", "metadata")
    try:
        length_scale, noise = _check_length_scale(length_scale), _check_noise(noise)
    except InvalidHyperparameterError as exc:
        raise ModelFormatError(f"metadata: bad length_scale or noise: {exc}") from exc

    X = _numbers(document, "X", "document", (None, dimension))
    if X.shape[0] < 2:
        raise ModelFormatError(f"document.X: needs at least 2 training rows, got {X.shape[0]}")

    gp = _require(document, "gpr", "document")
    alpha = _numbers(gp, "alpha", "gpr", (X.shape[0],))
    effective_noise = float(_numbers(gp, "effective_noise", "gpr"))
    target_offset = float(_numbers(gp, "target_offset", "gpr"))
    if not effective_noise >= noise:
        raise ModelFormatError(
            f"gpr: effective_noise {effective_noise} is below the requested noise {noise}"
        )

    # Held while the features are built: the file's bytes and per row its
    # D + 1 numbers (24-byte floats, list slots, array entries) and list.
    held = len(raw) + 8 * X.shape[0] * (5 * dimension + 19)
    try:
        fmap, scaler, Y = _training_features(X, order, neurons_per_term, sobol_skip,
                                             held=held)
    except (HdmrnetError, ValueError) as exc:
        raise ModelFormatError(f"metadata: {exc}") from exc
    gpr = AdditiveGprModel(
        Ytrain=Y,
        alpha=alpha,
        length_scale=length_scale,
        noise=noise,
        effective_noise=effective_noise,
        target_offset=target_offset,
    )
    return HdmrModel(feature_map=fmap, scaler=scaler, gpr=gpr, metadata=metadata, X=X)
