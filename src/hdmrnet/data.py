"""Datasets: CSV I/O, deterministic splits, and synthetic test functions.

One reader, `_read_matrix`, which states the CSV conventions, serves both
`load_csv` and `load_matrix`, and one writer, `_write_columns`, serves
`save_csv`, the sweep records of :mod:`hdmrnet.analysis` and the component
curves; every file is written atomically.  Both work a row or a column at
a time, not a cell at a time.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import DatasetError, InvalidHyperparameterError, _integer, _real

SYNTH_KINDS = ("additive", "pairwise", "product", "morse_like")

# Peak bytes of `synth` per point, 8 * (width * dimension + extra): the
# points, the targets and the widest temporaries of each kind, plus one
# spare column for the interpreter's own objects.
_SYNTH_COLUMNS = {"additive": (2, 2), "pairwise": (2, 3), "product": (2, 2), "morse_like": (3, 3)}

# Rows that the CSV writer formats at a time.
_CHUNK_ROWS = 1024

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
        self.column_names = [] if self.column_names is None else list(self.column_names)
        if not self.column_names:
            self.column_names = [f"x{i + 1}" for i in range(self.X.shape[1])]
        if len(self.column_names) != self.X.shape[1]:
            raise DatasetError(
                f"{len(self.column_names)} column names for {self.X.shape[1]} columns"
            )
        if not all(isinstance(name, str) for name in [*self.column_names, self.target_name]):
            raise DatasetError("column names and the target name must be strings")
        # plain str, as a CSV header gives: a numpy string pickles otherwise
        self.column_names = [str(name) for name in self.column_names]
        self.target_name = str(self.target_name)
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
        """Shape info plus the SHA-256 of X's, then t's, little-endian float64 bytes."""
        digest = hashlib.sha256(np.ascontiguousarray(self.X, dtype="<f8"))
        digest.update(np.ascontiguousarray(self.t, dtype="<f8"))
        return {
            "rows": self.n,
            "columns": list(self.column_names),
            "target": self.target_name,
            "sha256": digest.hexdigest(),
        }


def _read_matrix(path: str, with_target: bool) -> tuple[np.ndarray, list[str]]:
    """The one CSV reader: (values, column names) of the file's data rows.

    The first row that is not blank or a '#' comment is a header when any of
    its cells is not a number.  Every row must have as many cells as the
    first; cells must be finite numbers.  With `with_target`, the file needs
    a data row and at least 2 columns, and a headerless file's last column
    is "target".  The file is read in one pass, each row parsed by one
    `map(float, ...)` and checked by one finiteness pass; errors come in
    file order and cite physical (1-based) line numbers, comments and blanks
    counted.  The file must be UTF-8 text, a leading byte-order mark
    skipped; a byte that is not is refused with its line.
    """
    header, names, flat, n_rows = None, None, [], 0
    try:
        fh = open(path, "r", encoding="utf-8-sig", errors="surrogateescape")
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    with fh:
        for line_number, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:  # a byte escaped on reading
                    byte = ord(line[exc.start]) - 0xDC00
                    raise DatasetError(f"{path}: line {line_number}: byte {byte:#04x} "
                                       "is not UTF-8 text") from None
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            cells = list(map(str.strip, stripped.split(",")))
            try:
                row = list(map(float, cells))
            except ValueError:
                row = None
            if names is None:
                if row is None and header is None:
                    header = cells
                    continue
                names = _column_names(path, header, len(cells), with_target)
            if row is None or len(row) != len(names) or not all(map(math.isfinite, row)):
                _refuse_row(path, line_number, names, cells)
            flat.extend(row)
            n_rows += 1
    if names is None:
        if with_target:
            raise DatasetError(f"{path}: no data rows")
        names = _column_names(path, header, len(header or []), with_target)
    return np.array(flat, dtype=np.float64).reshape(n_rows, len(names)), names


def _column_names(path: str, header: list[str] | None, width: int,
                  with_target: bool) -> list[str]:
    """The names of `width` columns: the header's, else x1, x2, ... with the
    last one "target" under `with_target`, which needs 2 columns or more."""
    if with_target and width < 2:
        raise DatasetError(
            f"{path}: need at least 2 columns (features plus target), got {width}"
        )
    if header is not None and len(header) != width:
        raise DatasetError(f"{path}: header has {len(header)} names for {width} columns")
    names = header or [f"x{i + 1}" for i in range(width)]
    if with_target and header is None:
        names[-1] = "target"
    return names


def _refuse_row(path: str, line_number: int, names: list[str], cells: list[str]) -> None:
    """Raise the DatasetError of a row with the wrong cell count or, else,
    of its first cell that is not a finite number."""
    where = f"{path}: line {line_number}:"
    if len(cells) != len(names):
        raise DatasetError(f"{where} expected {len(names)} cells, got {len(cells)}")
    for name, cell in zip(names, cells):
        try:
            value = float(cell)
        except ValueError as exc:
            raise DatasetError(f"{where} cannot parse '{cell}' in column '{name}'") from exc
        if not math.isfinite(value):
            raise DatasetError(f"{where} non-finite value '{cell}' in column '{name}'")


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
    _write_columns(path, names, _chunks(columns), comments or [])


def _chunks(columns: list):
    """The columns cut into chunks of `_CHUNK_ROWS` rows, up to the shortest one."""
    n_rows = min(map(len, columns), default=0)
    for r0 in range(0, n_rows, _CHUNK_ROWS):
        yield [column[r0:r0 + _CHUNK_ROWS] for column in columns]


def _config_line(config: dict) -> str:
    """The comment that echoes a run's configuration atop each CSV output:
    'config: ' and the configuration as JSON with sorted keys."""
    return "config: " + json.dumps(config, sort_keys=True)


def _write_columns(path: str, names, chunks, comments: list[str]) -> None:
    """The one CSV writer: '# ' comment lines, the header, then the rows of
    each chunk, a list of equal-length columns, with ints as integers,
    floats as shortest round-trip decimals and strings verbatim; written
    atomically."""
    with _atomic_open(path) as fh:
        for comment in comments:
            fh.write(f"# {comment}\n")
        fh.write(",".join(names) + "\n")
        for chunk in chunks:
            rows = map(",".join, zip(*map(_format_column, chunk)))
            fh.write("".join([row + "\n" for row in rows]))


def _format_column(column):
    """The cells of a column as strings: a float64 or integer array in one
    pass of `repr` or `str` over its Python numbers, anything else cell by
    cell, with the same strings."""
    if isinstance(column, np.ndarray):
        if column.dtype == np.float64:
            return map(repr, column.tolist())
        if column.dtype.kind in "iu":
            return map(str, column.tolist())
    return map(_format_cell, column)


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, numbers.Integral):  # int, bool or a numpy integer
        return str(int(value))
    return repr(float(value))


def _split_sizes(n: int, train_size: int, test_size: int | None, seed: int) -> int:
    """The test size that `split` takes from n rows with `seed`, or its
    refusal: a seed that is not an integer >= 0 (`ValueError`), a train_size
    not in [1, n - 1] or a test_size not in [1, n - train_size]
    (`DatasetError`).  A test_size of None takes all the remaining rows."""
    _integer("seed", seed, 0)
    remainder = n - _integer("train_size", train_size, 1, n - 1, DatasetError)
    if test_size is None:
        return remainder
    return _integer("test_size", test_size, 1, remainder, DatasetError)


def split(
    dataset: Dataset, train_size: int, seed: int, test_size: int | None = None
) -> tuple[Dataset, Dataset]:
    """Deterministic random train/test split.

    A seeded permutation assigns the first `train_size` rows to training and
    the remainder (or its first `test_size` rows) to testing.  Same seed,
    same dataset: same split, on any platform.
    """
    test_size = _split_sizes(dataset.n, train_size, test_size, seed)
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


def _synth_targets(kind: str, X: np.ndarray) -> np.ndarray:
    """The targets of `synth`.  Temporaries are reused in place, and an
    in-place operation rounds exactly like the same one into a fresh array,
    so the bits do not depend on the reuse; they die on return."""
    if kind == "additive":
        A = X * (2.0 * np.pi)
        return np.sin(A, out=A).sum(axis=1)
    if kind == "pairwise":
        t = X.sum(axis=1)
        q = (X * X).sum(axis=1)
        t *= t
        t -= q
        t *= 0.5
        return t
    if kind == "product":
        return np.prod(1.0 + X, axis=1)
    Z = X - 0.3
    s = Z.sum(axis=1)
    A = Z * Z
    q = A.sum(axis=1)
    np.negative(Z, out=A)
    del Z
    np.exp(A, out=A)
    np.subtract(1.0, A, out=A)
    t = np.multiply(A, A, out=A).sum(axis=1)
    s *= s
    s -= q
    s *= 0.25
    t += s
    return t


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
    `noise_std` is a real number, finite and >= 0, by `errors._real`; any
    other value raises `DatasetError` before anything is drawn.
    """
    if kind not in SYNTH_KINDS:
        raise DatasetError(f"unknown synth kind '{kind}' (have: {', '.join(SYNTH_KINDS)})")
    dimension = _integer("dimension", dimension, 1, error=DatasetError)
    if kind in ("pairwise", "morse_like") and dimension < 2:
        raise DatasetError(f"kind '{kind}' needs dimension >= 2, got {dimension}")
    n = _integer("n", n, 1, error=DatasetError)
    noise_std = _real("noise_std", noise_std, 0.0, error=DatasetError)
    seed = _integer("seed", seed, 0)
    width, extra = _SYNTH_COLUMNS[kind]
    _check_memory(8 * n * (width * dimension + extra),
                  f"{n} points of dimension {dimension}, their targets and temporaries")

    rng = np.random.Generator(np.random.PCG64(seed))
    X = rng.uniform(size=(n, dimension))
    t = _synth_targets(kind, X)
    if noise_std > 0:
        t += rng.normal(scale=noise_std, size=n)
    return Dataset(X=X, t=t, column_names=[f"x{i + 1}" for i in range(dimension)])
