"""Model quality tools: metrics, coupling-order sweeps, term importance,
activation curves, and a validation grid search for the length scale.

Sweep results are deterministic functions of (dataset, grid, seeds).  The
cells run on `jobs` threads of the calling process, and concurrent cells
share the kernel workers of `gpr._kernel_pool`, one per core, rather than
each starting its own; the thread count only changes scheduling, so CSV
outputs are bit-identical across runs and across `jobs` settings except
for the wall_s column.
"""

from __future__ import annotations

import math
import operator
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .data import Dataset, _check_memory, _config_line, _split_sizes, _write_columns, split
from .errors import (DatasetError, HdmrnetError, InvalidHyperparameterError, ShapeError,
                     _integer, _real)
from .gpr import _check_length_scale, _check_noise, _dual_sums, _kernel_scratch_bytes
from .model import HdmrModel, _check_fit_settings, hdmr_fit, hdmr_predict, term_values

# Failures a sweep cell or a grid-search candidate records and moves past;
# anything else is a bug and propagates.
_FIT_ERRORS = (HdmrnetError, ValueError)

_VAL_FRACTION = 0.2  # share of the rows `grid_search_l` holds out


def rmse(predicted: np.ndarray, actual: np.ndarray) -> float:
    """sqrt(mean((predicted - actual)^2)), on one path at every magnitude:
    the difference is formed as p/h - a/h, which cannot overflow, where h
    is 2 if p - a overflows somewhere and 1 otherwise, and divided by
    `_power_of_two` of its largest magnitude before it is squared, so no
    square overflows and none that matters underflows.  Dividing by h and
    by a power of two is exact, except that h = 2 drops the last bit of an
    input below 2^-1021; that moves only differences that the scaling
    by at least 2^1023 then flushes to 0 either way.  So wherever the plain
    formula neither overflows nor underflows the score equals it bit for
    bit."""
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if predicted.shape != actual.shape or predicted.ndim != 1 or predicted.size == 0:
        raise ShapeError(
            f"need equal non-empty 1-D arrays, got {predicted.shape} and {actual.shape}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        half = 2.0 if np.isinf(predicted - actual).any() else 1.0
    diff = predicted / half - actual / half
    scale = _power_of_two(np.abs(diff).max())
    diff /= scale
    return float(np.sqrt(np.mean(diff * diff))) * scale * half


def pearson_corr(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Pearson correlation of the inputs, each divided first by
    `_power_of_two` of its largest magnitude: the correlation does not
    change, no sum overflows and none that matters underflows, and
    wherever the plain formula neither overflows nor underflows the result
    equals it clipped to [-1, 1], which rounding can leave by an ulp on
    exactly linear inputs.  A constant input, whose deviations are all 0,
    is refused; deviations whose norms' product underflows to 0 give NaN."""
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if predicted.shape != actual.shape or predicted.ndim != 1 or predicted.size < 2:
        raise ShapeError(
            f"need equal 1-D arrays with >= 2 entries, got {predicted.shape} and {actual.shape}"
        )
    a, b = (v / _power_of_two(np.abs(v).max()) for v in (predicted, actual))
    va = a - a.mean()
    vb = b - b.mean()
    if not (va.any() and vb.any()):
        raise DatasetError("correlation undefined: an input has zero variance")
    na = float(np.sqrt(va @ va))
    nb = float(np.sqrt(vb @ vb))
    return float(np.clip((va @ vb) / (na * nb), -1.0, 1.0)) if na * nb > 0.0 else math.nan


def _power_of_two(x: float) -> float:
    """The least power of two at or above x >= 0 (1 for 0), at most 2^1023,
    since 2^1024 overflows; dividing by it is exact."""
    mantissa, exponent = math.frexp(x)
    return math.ldexp(1.0, min(exponent - (mantissa == 0.5), 1023))


@dataclass
class SweepRecord:
    d: int
    N: int
    repeat: int
    seed: int
    train_rmse: float
    test_rmse: float
    train_corr: float
    test_corr: float
    wall_s: float
    status: str


# One sweep.csv column per SweepRecord field, in field order.
SWEEP_COLUMNS = tuple(f.name for f in fields(SweepRecord))


@dataclass
class SweepResult:
    records: list[SweepRecord]
    config: dict = field(default_factory=dict)

    def summary(self) -> list[tuple[int, int, float]]:
        """Best (lowest) test RMSE per (d, N) cell over repeats."""
        best: dict[tuple[int, int], float] = {}
        for rec in self.records:
            if rec.status != "ok":
                continue
            key = (rec.d, rec.N)
            if key not in best or rec.test_rmse < best[key]:
                best[key] = rec.test_rmse
        return [(d, N, best[(d, N)]) for d, N in sorted(best)]


def _scores(model: HdmrModel, dataset: Dataset) -> tuple[float, float | None]:
    """RMSE and Pearson correlation of the model's predictions on `dataset`,
    for sweep cells and the `fit` and `eval` commands alike; the correlation
    is None where it is undefined, as for a constant target."""
    predicted = hdmr_predict(model, dataset.X)
    try:
        corr = pearson_corr(predicted, dataset.t)
    except DatasetError:  # zero variance
        corr = None
    return rmse(predicted, dataset.t), corr


def _run_cell(dataset: Dataset, config: dict, d: int, N: int, repeat: int) -> SweepRecord:
    seed = config["base_seed"] + repeat
    started = time.perf_counter()
    nan = float("nan")
    record = SweepRecord(d, N, repeat, seed, nan, nan, nan, nan, nan, "ok")
    try:
        train, test = split(dataset, config["train_size"], seed, config["test_size"])
        model = hdmr_fit(train, d, N, config["length_scale"], config["noise"], split_seed=seed)
        # Score both sides before setting a field: a failed cell keeps NaN,
        # and so does an undefined correlation.
        scores = [_scores(model, train), _scores(model, test)]
        record.train_rmse, record.train_corr, record.test_rmse, record.test_corr = (
            nan if value is None else value for pair in scores for value in pair)
    except _FIT_ERRORS as exc:
        record.status = f"error:{type(exc).__name__}"
    record.wall_s = time.perf_counter() - started
    return record


def sweep(
    dataset: Dataset,
    d_list: list[int],
    N_list: list[int],
    repeats: int,
    train_size: int,
    test_size: int | None,
    length_scale: float,
    noise: float,
    base_seed: int,
    jobs: int = 1,
) -> SweepResult:
    """Fit every (d, N, repeat) cell and collect train/test metrics.

    Repeat r uses split seed base_seed + r, shared across cells so that
    different (d, N) settings are compared on identical splits.  Failed
    cells are kept with status "error:<type>" and NaN metrics.  Up to
    `jobs` cells run at once, on threads of this process.  Before any cell
    runs, `split`, `gpr` and, for every (d, N), `model._check_fit_settings`
    raise each refusal of a split or fit setting; memory is checked per cell.
    """
    repeats, jobs = _integer("repeats", repeats, 1), _integer("jobs", jobs, 1)
    _split_sizes(dataset.n, train_size, test_size, base_seed)
    for d in d_list:
        for N in N_list:
            _check_fit_settings(train_size, dataset.dimension, d, N)
    length_scale, noise = _check_length_scale(length_scale), _check_noise(noise)
    config = {  # integer-like settings stored as plain ints
        "d_list": [operator.index(d) for d in d_list],
        "N_list": [operator.index(N) for N in N_list],
        "repeats": repeats,
        "train_size": operator.index(train_size),
        "test_size": test_size if test_size is None else operator.index(test_size),
        "length_scale": length_scale,
        "noise": noise,
        "base_seed": operator.index(base_seed),
        "dataset": dataset.fingerprint(),
    }
    cells = [(d, N, r) for d in config["d_list"] for N in config["N_list"] for r in range(repeats)]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        records = list(pool.map(lambda cell: _run_cell(dataset, config, *cell), cells))
    return SweepResult(records=records, config=config)


def write_sweep_csv(result: SweepResult, path: str) -> None:
    """One row per cell, with the sweep configuration echoed as a comment;
    written atomically."""
    _write_columns(
        path,
        SWEEP_COLUMNS,
        [list(zip(*map(astuple, result.records)))],
        [_config_line(result.config)],
    )


def importance(model: HdmrModel, X: np.ndarray) -> list[tuple[tuple[int, ...], float]]:
    """Rank coupling terms by the standard deviation of their contribution
    over the rows of X (at least one); descending, ties broken by subset order."""
    contributions = term_values(model, X)
    if np.shape(X)[0] == 0:
        raise DatasetError("importance needs at least one row of X")
    ranked = [
        (subset, float(np.std(values))) for subset, values in contributions.items()
    ]
    ranked.sort(key=lambda item: (-item[1], item[0]))
    return ranked


@dataclass
class ComponentCurve:
    """One neuron's activation sampled on the scaled feature interval [0, 1]."""

    feature_index: int
    subset: tuple[int, ...]
    grid: np.ndarray
    values: np.ndarray


def component_curves(model: HdmrModel, grid_size: int = 201) -> list[ComponentCurve]:
    grid_size = _integer("grid_size", grid_size, 2)
    F = model.n_features
    # The curves, their grid and one spare column for the interpreter's own
    # objects, the F one-feature groups, plus the kernel's scratch.
    _check_memory(8 * ((F + 2) * grid_size + F) + _kernel_scratch_bytes(model.gpr.n_train),
                  f"{F} curves of {grid_size} points")
    grid = np.linspace(0.0, 1.0, grid_size)
    values = _dual_sums(model.gpr, np.broadcast_to(grid[:, None], (grid_size, F)),
                        np.arange(F)[:, None], 0.0)
    return [ComponentCurve(j, model.feature_map.subset(j), grid, values[j]) for j in range(F)]


def grid_search_l(
    train: Dataset,
    order: int,
    neurons_per_term: int,
    candidates: list[float],
    noise: float,
    seed: int,
) -> tuple[float, list[tuple[float, float]]]:
    """Pick a length scale by RMSE on an inner validation split of
    `_VAL_FRACTION` of the rows.

    The inner split uses seed + 1 so it never coincides with the outer
    train/test split of the same seed.  Ties go to the larger (smoother)
    candidate.  `data._split_sizes`, given the caller's seed,
    `model._check_fit_settings` and `gpr`'s noise check raise before the
    first fit, and so does `errors._real` for a candidate that is not a
    finite real number (a bool, a string, None, NaN or infinity), with
    `InvalidHyperparameterError`; a real candidate whose fit fails, such
    as -1.0, scores infinity.
    """
    if not candidates:
        raise InvalidHyperparameterError("no length scale candidates given")
    candidates = [_real(f"candidates[{i}]", l, -math.inf, error=InvalidHyperparameterError)
                  for i, l in enumerate(candidates)]
    val_size = max(1, int(round(_VAL_FRACTION * train.n)))
    _split_sizes(train.n, train.n - val_size, val_size, seed)
    _check_fit_settings(train.n - val_size, train.dimension, order, neurons_per_term)
    _check_noise(noise)
    inner, val = split(train, train.n - val_size, seed + 1, val_size)
    results = []
    for l in sorted(candidates):
        try:
            model = hdmr_fit(inner, order, neurons_per_term, l, noise)
            score = rmse(hdmr_predict(model, val.X), val.t)
        except _FIT_ERRORS:
            score = float("inf")
        results.append((l, score))
    best_l, best_score = results[0]
    for l, score in results[1:]:
        if score <= best_score:
            best_l, best_score = l, score
    if not np.isfinite(best_score):
        raise InvalidHyperparameterError("no candidate length scale produced a stable fit")
    return best_l, results
