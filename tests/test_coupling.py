"""Feature-map construction tests: subset enumeration, sparse weight rows,
and the linear map they define."""

from itertools import combinations
from math import comb

import numpy as np
import pytest

from hdmrnet import build_feature_map, enumerate_subsets, map_features, sobol_points
from hdmrnet.errors import InvalidOrderError, ShapeError


def _weight_matrix(fmap):
    """Dense (F, D) weight matrix W of the map: the oracle of `map_features`."""
    W = np.zeros((fmap.n_features, fmap.dimension))
    W[: fmap.dimension] = np.eye(fmap.dimension)
    rows = np.arange(fmap.dimension, fmap.n_features)[:, None]
    W[rows, fmap.indices] = fmap.weights
    return W


def test_enumerate_subsets_matches_combinations():
    assert enumerate_subsets(4, 2) == list(combinations(range(4), 2))
    assert enumerate_subsets(3, 3) == [(0, 1, 2)]
    assert enumerate_subsets(5, 1) == [(i,) for i in range(5)]


@pytest.mark.parametrize("order", [0, -1, 4])
def test_enumerate_subsets_order_validation(order):
    with pytest.raises(InvalidOrderError):
        enumerate_subsets(3, order)


def test_order_one_is_identity():
    fmap = build_feature_map(5, 1, 99)
    assert fmap.n_features == 5
    assert np.array_equal(_weight_matrix(fmap), np.eye(5))
    assert fmap.indices.shape == fmap.weights.shape == (0, 1)
    assert [len(fmap.subset(j)) for j in range(5)] == [1] * 5
    assert [fmap.subset(j) for j in range(5)] == [(i,) for i in range(5)]


def test_feature_count_formula():
    for D, d, N in [(3, 2, 4), (4, 2, 7), (4, 3, 2), (6, 2, 20), (6, 6, 3)]:
        fmap = build_feature_map(D, d, N)
        assert fmap.n_features == D + N * comb(D, d)


def test_coupled_rows_consume_one_shared_stream():
    D, d, N = 3, 2, 4
    fmap = build_feature_map(D, d, N)
    subsets = enumerate_subsets(D, d)
    # one call, starting after the never-used sequence index 0
    stream_points = sobol_points(d, N * len(subsets))
    assert np.array_equal(fmap.weights, stream_points)
    W = _weight_matrix(fmap)
    for k in range(N * len(subsets)):
        subset = subsets[k // N]
        assert tuple(fmap.indices[k]) == subset
        assert fmap.subset(D + k) == subset
        assert len(fmap.subset(D + k)) == d
        dense = np.zeros(D)
        dense[list(subset)] = stream_points[k]
        assert np.array_equal(W[D + k], dense)


def test_sparsity_pattern():
    fmap = build_feature_map(5, 3, 6)
    W = _weight_matrix(fmap)
    assert fmap.indices.shape == fmap.weights.shape == (6 * 10, 3)
    for j in range(5, fmap.n_features):
        nonzero = tuple(np.nonzero(W[j])[0])
        assert nonzero == fmap.subset(j)
        assert len(fmap.subset(j)) == 3


def test_map_features_is_the_linear_map():
    rng = np.random.default_rng(5)
    X = rng.uniform(size=(20, 4))
    fmap = build_feature_map(4, 2, 5)
    Y = map_features(fmap, X)
    assert Y.shape == (20, fmap.n_features)
    # original coordinates pass through bit-exactly
    assert np.array_equal(Y[:, :4], X)
    W = _weight_matrix(fmap)
    expected = np.array([[row @ w for w in W] for row in X])
    assert np.allclose(Y, expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize("D,d,N", [(6, 2, 20), (6, 3, 10)])
def test_map_features_is_independent_of_the_batch(D, d, N):
    # each row's features are bit-identical however the rows are batched,
    # and within 1e-15 of the dense matmul on the unit cube
    X = np.random.default_rng(11).uniform(size=(3000, D))
    fmap = build_feature_map(D, d, N)
    Y = map_features(fmap, X)
    for k in (1, 7, 1000):
        assert np.array_equal(Y[:k], map_features(fmap, X[:k]))
    assert np.array_equal(Y[1234:1237], map_features(fmap, X[1234:1237]))
    assert np.array_equal(Y[:, :D], X)
    assert np.abs(Y - X @ _weight_matrix(fmap).T).max() <= 1e-15


def test_map_features_shape_validation():
    fmap = build_feature_map(3, 2, 2)
    with pytest.raises(ShapeError):
        map_features(fmap, np.zeros((4, 2)))
    with pytest.raises(ShapeError):
        map_features(fmap, np.zeros(3))


def test_zero_neurons_gives_bare_identity():
    fmap = build_feature_map(4, 2, 0)
    assert fmap.n_features == 4
    with pytest.raises(ValueError):
        build_feature_map(4, 2, -1)


def test_construction_is_deterministic():
    a = build_feature_map(5, 2, 8)
    b = build_feature_map(5, 2, 8)
    assert np.array_equal(_weight_matrix(a), _weight_matrix(b))
