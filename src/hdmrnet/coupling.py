"""Coordinate-subset enumeration and the rule-based sparse weight matrix.

A feature map turns D original coordinates into F redundant coordinates
y = Wx.  The first D rows of W are the identity (the original coordinates
are kept as features); every further row has exactly d nonzero entries,
drawn from one shared d-dimensional Sobol stream, placed on one of the
C(D, d) coordinate subsets.  Each subset receives the same number N of
rows, so F = D + N * C(D, d) for d >= 2 and F = D for d = 1.

The map is stored as two (F - D, d) arrays, the coordinate indices and the
Sobol weights of each coupled row; it is a pure function of (D, d, N,
sobol_skip).  `map_features` evaluates each coupled feature elementwise in
a fixed order, so a row's features do not depend on the rest of the batch
or on the BLAS thread count.  Features are neuron-major (Fortran order), so
the scaler and every kernel pass of `gpr` read each neuron's column in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import InvalidOrderError, ShapeError
from .sobol import sobol_points

KIND_ORIGINAL = "original"
KIND_COUPLED = "coupled"


@dataclass
class FeatureMap:
    """Immutable-by-convention weight rows of the feature map.

    Rows are ordered: the D original rows first, then N coupled rows per
    subset, subsets in lexicographic order.  Coupled row D + k has weights
    `weights[k]` on coordinates `indices[k]`.  Construction is
    deterministic given (dimension, order, neurons_per_term, sobol_skip).
    """

    dimension: int
    order: int
    neurons_per_term: int
    sobol_skip: int
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

    def kind(self, j: int) -> str:
        return KIND_ORIGINAL if j < self.dimension else KIND_COUPLED

    def weight_matrix(self) -> np.ndarray:
        """Dense (F, D) weight matrix W, built from the arrays on each call."""
        W = np.zeros((self.n_features, self.dimension))
        W[: self.dimension] = np.eye(self.dimension)
        rows = np.arange(self.dimension, self.n_features)[:, None]
        W[rows, self.indices] = self.weights
        return W


def _check_order(dimension: int, order: int) -> None:
    if not 1 <= order <= dimension:
        raise InvalidOrderError(
            f"coupling order must be in [1, {dimension}], got {order}"
        )


def _check_count(name: str, value: int) -> None:
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


def enumerate_subsets(dimension: int, order: int) -> list[tuple[int, ...]]:
    """All C(D, d) strictly-increasing index subsets, lexicographic order."""
    _check_order(dimension, order)
    return list(combinations(range(dimension), order))


def build_feature_map(
    dimension: int,
    order: int,
    neurons_per_term: int,
    sobol_skip: int = 0,
) -> FeatureMap:
    """Build the rule-based sparse weight matrix.

    Coupled rows take consecutive points of one `order`-dimensional Sobol
    call across subsets, so no two rows repeat a weight pattern.  For
    order 1 no coupled rows are added and `neurons_per_term` is ignored.
    """
    subsets = enumerate_subsets(dimension, order)
    _check_count("neurons_per_term", neurons_per_term)
    _check_count("sobol_skip", sobol_skip)
    per_subset = neurons_per_term if order >= 2 else 0
    weights = sobol_points(order, per_subset * len(subsets), sobol_skip)
    return FeatureMap(
        dimension=dimension,
        order=order,
        neurons_per_term=neurons_per_term,
        sobol_skip=sobol_skip,
        indices=np.repeat(np.array(subsets, dtype=np.intp), per_subset, axis=0),
        weights=weights,
    )


def map_features(fmap: FeatureMap, X: np.ndarray) -> np.ndarray:
    """Apply the weight matrix: Y[n, j] = dot(X[n], W[j]).

    Original rows copy their coordinate exactly.  Coupled feature D + k is
    X[:, i0] * w0 + X[:, i1] * w1 + ..., summed in that order by
    elementwise ufuncs, so each entry depends only on its own row of X.
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
    for k in range(fmap.order):
        term = X[:, fmap.indices[:, k]]
        term *= fmap.weights[:, k]
        Y[:, fmap.dimension :] += term
        del term  # freed before the next gather, so one is alive at a time
    return Y
