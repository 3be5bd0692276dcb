"""Datasets: CSV I/O, deterministic splits, and synthetic test functions.

CSV conventions
---------------
Lines starting with '#' and blank lines are skipped.  A header row is
detected by attempting to parse the first remaining row as floats; if any
cell fails, the row is treated as column names.  Headerless files get
synthesized names x1..x{K-1} plus "target" for the last column (x1..xK in
a points-only file).  Error messages cite physical (1-based) line numbers
of the file, counting comments and blanks.

One reader, `_read_matrix`, serves both `load_csv` and `load_matrix`, and
one writer, `_write_rows`, serves both `save_csv` and the sweep records of
:mod:`hdmrnet.analysis`; every file is written atomically.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import DatasetError, InvalidHyperparameterError

SYNTH_KINDS = ("additive", "pairwise", "product", "morse_like")

# Physical memory in bytes; work whose arrays would not fit is refused.
_MEMORY_BYTES = (os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
                 if hasattr(os, "sysconf") else math.inf)


def _check_memory(needed: int, what: str) -> None:
    """Refuse `what`, before it is allocated, if it needs more bytes than physical memory."""
    if needed > _MEMORY_BYTES:
        raise InvalidHyperparameterError(f"{what} need about {needed / 2**30:.3g} GiB, more "
                                         f"than the {_MEMORY_BYTES / 2**30:.3g} GiB of physical memory")


@dataclass
class Dataset:
    """Scattered multivariate data: points X (n, D) and targets t (n,)."""

    X: np.ndarray
    t: np.ndarray
    column_names: list[str] = field(default_factory=list)
    target_name: str = "target"

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.t = np.asarray(self.t, dtype=np.float64)
        if self.X.ndim != 2:
            raise DatasetError(f"X must be 2-D, got shape {self.X.shape}")
        if self.t.shape != (self.X.shape[0],):
            raise DatasetError(
                f"t must have shape ({self.X.shape[0]},), got {self.t.shape}"
            )
        if not self.column_names:
            self.column_names = [f"x{i + 1}" for i in range(self.X.shape[1])]
        if len(self.column_names) != self.X.shape[1]:
            raise DatasetError(
                f"{len(self.column_names)} column names for {self.X.shape[1]} columns"
            )
        if self.X.size and not np.isfinite(self.X).all():
            raise DatasetError("X contains non-finite values")
        if self.t.size and not np.isfinite(self.t).all():
            raise DatasetError("t contains non-finite values")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dimension(self) -> int:
        return self.X.shape[1]

    def fingerprint(self) -> dict:
        """Content hash plus shape info, for model provenance records."""
        payload = json.dumps(
            {"X": [[float(v) for v in row] for row in self.X],
             "t": [float(v) for v in self.t]},
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        return {
            "rows": self.n,
            "columns": list(self.column_names),
            "target": self.target_name,
            "sha256": hashlib.sha256(payload).hexdigest(),
        }


def _read_matrix(path: str, with_target: bool) -> tuple[np.ndarray, list[str]]:
    """The one CSV reader: (values, column names) of the file's data rows.

    The first non-comment row is a header when any of its cells is not a
    number.  Every row must have as many cells as the first; cells must be
    finite numbers.  With `with_target`, the file needs a data row and at
    least 2 columns, and a headerless file's last column is "target".
    """
    header, rows = None, []
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    with fh:
        for line_number, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            cells = [c.strip() for c in stripped.split(",")]
            if header is None and not rows:
                try:
                    for c in cells:
                        float(c)
                except ValueError:
                    header = cells
                    continue
            rows.append((line_number, cells))
    if with_target and not rows:
        raise DatasetError(f"{path}: no data rows")
    width = len(rows[0][1]) if rows else len(header or [])
    if with_target and width < 2:
        raise DatasetError(
            f"{path}: need at least 2 columns (features plus target), got {width}"
        )
    if header is not None and len(header) != width:
        raise DatasetError(f"{path}: header has {len(header)} names for {width} columns")
    names = header or [f"x{i + 1}" for i in range(width)]
    if with_target and header is None:
        names[-1] = "target"
    values = np.empty((len(rows), width))
    for r, (line_number, cells) in enumerate(rows):
        if len(cells) != width:
            raise DatasetError(
                f"{path}: line {line_number}: expected {width} cells, got {len(cells)}"
            )
        for c, cell in enumerate(cells):
            values[r, c] = _parse_cell(path, line_number, names[c], cell)
    return values, names


def _parse_cell(path: str, line_number: int, name: str, cell: str) -> float:
    try:
        value = float(cell)
    except ValueError as exc:
        raise DatasetError(
            f"{path}: line {line_number}: cannot parse '{cell}' in column '{name}'"
        ) from exc
    if not math.isfinite(value):
        raise DatasetError(
            f"{path}: line {line_number}: non-finite value '{cell}' in column '{name}'"
        )
    return value


def load_csv(path: str, target: str | None = None) -> Dataset:
    """Load a dataset; the target column is `target` by name, else the last."""
    values, names = _read_matrix(path, with_target=True)
    if len(set(names)) != len(names):
        raise DatasetError(f"{path}: duplicate column names in header")
    if target is None:
        target_index = len(names) - 1
    elif target in names:
        target_index = names.index(target)
    else:
        raise DatasetError(f"{path}: no column named '{target}' (have: {', '.join(names)})")
    keep = [i for i in range(len(names)) if i != target_index]
    return Dataset(
        X=values[:, keep],
        t=values[:, target_index],
        column_names=[names[i] for i in keep],
        target_name=names[target_index],
    )


def load_matrix(path: str) -> tuple[np.ndarray, list[str]]:
    """Load a points-only CSV (no target column); zero rows is allowed."""
    return _read_matrix(path, with_target=False)


@contextmanager
def _atomic_open(path: str):
    """Text handle on a new file next to `path` that replaces `path` only
    once the block succeeds; no partial file is ever left at `path`."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".{uuid.uuid4().hex}.tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_csv(
    path: str,
    names: list[str],
    columns: list[np.ndarray],
    comments: list[str] | None = None,
) -> None:
    """Write columns as CSV with shortest round-trip float formatting, atomically."""
    if len(names) != len(columns):
        raise ValueError(f"{len(names)} names for {len(columns)} columns")
    _write_rows(path, names, zip(*columns), comments or [])


def _write_rows(path: str, names, rows, comments: list[str]) -> None:
    """The one CSV writer: '# ' comment lines, the header, then one line per
    row, with ints as integers, floats as shortest round-trip decimals and
    strings verbatim; written atomically."""
    with _atomic_open(path) as fh:
        for comment in comments:
            fh.write(f"# {comment}\n")
        fh.write(",".join(names) + "\n")
        for row in rows:
            fh.write(",".join(map(_format_cell, row)) + "\n")


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _split_sizes(n: int, train_size: int, test_size: int | None) -> int:
    """The test size that `split` takes from n rows, or a DatasetError."""
    if not 1 <= train_size < n:
        raise DatasetError(
            f"train_size must be in [1, {n - 1}] for {n} rows, got {train_size}"
        )
    remainder = n - train_size
    if test_size is None:
        test_size = remainder
    if not 1 <= test_size <= remainder:
        raise DatasetError(
            f"test_size must be in [1, {remainder}] after removing "
            f"{train_size} training rows, got {test_size}"
        )
    return test_size


def split(
    dataset: Dataset, train_size: int, seed: int, test_size: int | None = None
) -> tuple[Dataset, Dataset]:
    """Deterministic random train/test split.

    A seeded permutation assigns the first `train_size` rows to training and
    the remainder (or its first `test_size` rows) to testing.  Same seed,
    same dataset: same split, on any platform.
    """
    test_size = _split_sizes(dataset.n, train_size, test_size)
    order = np.random.Generator(np.random.PCG64(seed)).permutation(dataset.n)
    train, test = (
        Dataset(
            X=dataset.X[rows],
            t=dataset.t[rows],
            column_names=list(dataset.column_names),
            target_name=dataset.target_name,
        )
        for rows in (order[:train_size], order[train_size : train_size + test_size])
    )
    return train, test


def synth(
    kind: str,
    dimension: int,
    n: int,
    seed: int,
    noise_std: float = 0.0,
) -> Dataset:
    """Sample a synthetic benchmark function on the unit cube.

    additive    sum_i sin(2 pi x_i)
    pairwise    sum_{i<j} x_i x_j            (no additive part beyond a constant)
    product     prod_i (1 + x_i)             (couplings at every order)
    morse_like  sum_i (1 - exp(-(x_i - 0.3)))^2
                + 0.5 sum_{i<j} (x_i - 0.3)(x_j - 0.3)

    Points are drawn uniformly, then Gaussian noise of scale `noise_std` is
    added to the targets; both use one PCG64 stream seeded with `seed`.
    """
    if kind not in SYNTH_KINDS:
        raise DatasetError(f"unknown synth kind '{kind}' (have: {', '.join(SYNTH_KINDS)})")
    if dimension < 1:
        raise DatasetError(f"dimension must be >= 1, got {dimension}")
    if kind in ("pairwise", "morse_like") and dimension < 2:
        raise DatasetError(f"kind '{kind}' needs dimension >= 2, got {dimension}")
    if n < 1:
        raise DatasetError(f"n must be >= 1, got {n}")
    if noise_std < 0:
        raise DatasetError(f"noise_std must be >= 0, got {noise_std}")
    _check_memory(8 * n * (dimension + 1), f"{n} points of dimension {dimension} and their targets")

    rng = np.random.Generator(np.random.PCG64(seed))
    X = rng.uniform(size=(n, dimension))
    if kind == "additive":
        t = np.sin(2.0 * np.pi * X).sum(axis=1)
    elif kind == "pairwise":
        s = X.sum(axis=1)
        t = 0.5 * (s * s - (X * X).sum(axis=1))
    elif kind == "product":
        t = np.prod(1.0 + X, axis=1)
    else:
        Z = X - 0.3
        s = Z.sum(axis=1)
        morse = 1.0 - np.exp(-Z)
        t = (morse * morse).sum(axis=1) + 0.25 * (s * s - (Z * Z).sum(axis=1))
    if noise_std > 0:
        t = t + rng.normal(scale=noise_std, size=n)
    return Dataset(X=X, t=t, column_names=[f"x{i + 1}" for i in range(dimension)])
