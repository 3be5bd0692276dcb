"""Coordinate-subset enumeration and the rule-based sparse weight matrix.

A feature map turns D original coordinates into F redundant coordinates
y = Wx.  The first D rows of W are the identity (the original coordinates
are kept as features); every further row has exactly d nonzero entries,
drawn from one shared d-dimensional Sobol stream, placed on one of the
C(D, d) coordinate subsets.  Each subset receives the same number N of
rows, so F = D + N * C(D, d) for d >= 2 and F = D for d = 1.

The map is stored as two (F - D, d) arrays, the coordinate indices and the
Sobol weights of each coupled row.  It is a pure function of (D, d, N):
the weights are Sobol points 1 .. N * C(D, d), in row order.
`map_features` returns features neuron-major (Fortran order), so the
scaler and every kernel pass of `gpr` read each neuron's column in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import InvalidOrderError, ShapeError
from .sobol import sobol_points

# Coupled features per gather of `map_features`.
_CHUNK = 128


@dataclass
class FeatureMap:
    """Immutable-by-convention weight rows of the feature map.

    Rows are ordered: the D original rows first, then N coupled rows per
    subset, subsets in lexicographic order.  Coupled row D + k puts
    `weights[k]`, Sobol point k + 1, on coordinates `indices[k]`.
    Construction is a pure function of (dimension, order, neurons_per_term).
    """

    dimension: int
    order: int
    neurons_per_term: int
    indices: np.ndarray  # (F - D, d) coordinate subset of each coupled row
    weights: np.ndarray  # (F - D, d) its Sobol point

    @property
    def n_features(self) -> int:
        return self.dimension + self.indices.shape[0]

    def subset(self, j: int) -> tuple[int, ...]:
        """Coordinate subset of feature j: (j,) for the original rows."""
        if j < self.dimension:
            return (j,)
        return tuple(int(i) for i in self.indices[j - self.dimension])


def _check_order(dimension: int, order: int) -> int:
    if not isinstance(order, (int, np.integer)):
        raise InvalidOrderError(f"coupling order must be an integer, got {order!r}")
    if not 1 <= order <= dimension:
        raise InvalidOrderError(f"coupling order must be in [1, {dimension}], got {order}")
    return int(order)


def _check_count(name: str, value: int) -> int:
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return int(value)


def enumerate_subsets(dimension: int, order: int) -> list[tuple[int, ...]]:
    """All C(D, d) strictly-increasing index subsets, lexicographic order."""
    return list(combinations(range(dimension), _check_order(dimension, order)))


def build_feature_map(dimension: int, order: int, neurons_per_term: int) -> FeatureMap:
    """Build the rule-based sparse weight matrix.

    Coupled rows take the first points of one `order`-dimensional Sobol
    call, consecutive across subsets, so no two rows repeat a weight
    pattern.  For order 1 no coupled rows are added and `neurons_per_term`
    is ignored.
    """
    order = _check_order(dimension, order)
    subsets = enumerate_subsets(dimension, order)
    neurons_per_term = _check_count("neurons_per_term", neurons_per_term)
    per_subset = neurons_per_term if order >= 2 else 0
    weights = sobol_points(order, per_subset * len(subsets))
    return FeatureMap(
        dimension=dimension,
        order=order,
        neurons_per_term=neurons_per_term,
        indices=np.repeat(np.array(subsets, dtype=np.intp), per_subset, axis=0),
        weights=weights,
    )


def map_features(fmap: FeatureMap, X: np.ndarray) -> np.ndarray:
    """Apply the weight matrix: Y[n, j] = dot(X[n], W[j]).

    Original rows copy their coordinate exactly.  Coupled feature D + k is
    X[:, i0] * w0 + X[:, i1] * w1 + ..., summed in that order by
    elementwise ufuncs, so each entry depends only on its own row of X.
    The products are gathered `_CHUNK` features at a time, so besides Y
    one (n, _CHUNK) temporary is alive.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError(f"X must be 2-D, got shape {X.shape}")
    if X.shape[1] != fmap.dimension:
        raise ShapeError(
            f"X has {X.shape[1]} columns but the feature map expects {fmap.dimension}"
        )
    Y = np.zeros((X.shape[0], fmap.n_features), order="F")
    Y[:, : fmap.dimension] = X
    for c0 in range(0, len(fmap.indices), _CHUNK):
        rows = slice(c0, c0 + _CHUNK)
        for k in range(fmap.order):
            term = X[:, fmap.indices[rows, k]]
            with np.errstate(over="ignore"):  # inf, which a fit's scaler check refuses
                term *= fmap.weights[rows, k]
                Y[:, fmap.dimension + c0 : fmap.dimension + c0 + _CHUNK] += term
            del term  # freed before the next gather, so one is alive at a time
    return Y
