"""Low-discrepancy generator tests.

Reference values in data/sobol_reference.json were produced once by an
independent generator implementation and frozen; the fidelity test
requires bit-exact agreement, not closeness.
"""

import json
import os
import warnings

import numpy as np
import pytest

from hdmrnet import MAX_DIMENSION, sobol_points
from hdmrnet.errors import UnsupportedDimensionError

REFERENCE_PATH = os.path.join(os.path.dirname(__file__), "data", "sobol_reference.json")


def _reference():
    with open(REFERENCE_PATH) as fh:
        return {int(k): np.array(v) for k, v in json.load(fh).items()}


def test_matches_frozen_reference_bit_exactly():
    reference = _reference()
    for dim in range(1, 7):
        points = sobol_points(dim, 64)
        assert points.shape == (64, dim)
        assert np.array_equal(points, reference[dim]), f"dimension {dim} deviates"


def test_first_points_dimension_two():
    # the classic opening of the unscrambled sequence, index-0 point dropped
    points = sobol_points(2, 3)
    assert np.array_equal(points[0], [0.5, 0.5])
    assert np.array_equal(points[1], [0.75, 0.25])
    assert np.array_equal(points[2], [0.25, 0.75])


def test_zero_point_never_emitted():
    for dim in (1, 2, 5, 8, 21, 64):
        points = sobol_points(dim, 512)
        assert points.shape == (512, dim)
        assert (points > 0.0).all() and (points < 1.0).all()


def test_dyadic_balance_without_zero_point():
    # indices 0..255 fill every half and quarter of each axis evenly;
    # dropping the all-zeros index-0 point leaves one short in the lowest cell
    for dim in (1, 2, 3, 6):
        points = sobol_points(dim, 255)
        for axis in range(dim):
            u = points[:, axis]
            assert (u < 0.5).sum() == 127
            assert (u >= 0.5).sum() == 128
            assert (u < 0.25).sum() == 63
            assert ((u >= 0.25) & (u < 0.5)).sum() == 64


def test_longer_request_extends_shorter_one():
    # sobol_points(d, a) is sobol_points(d, a + b)[:a], also for an empty request
    for dim, a, b in [(3, 3, 5), (2, 1, 40), (6, 17, 15), (1, 0, 8)]:
        longer = sobol_points(dim, a + b)
        assert sobol_points(dim, a).shape == (a, dim)
        assert np.array_equal(sobol_points(dim, a), longer[:a])


def test_repeated_calls_are_bit_identical():
    a = sobol_points(6, 100)
    b = sobol_points(6, 100)
    assert np.array_equal(a, b)


def test_supported_dimension_range():
    assert MAX_DIMENSION == 64
    first = sobol_points(64, 1)
    assert np.array_equal(first[0], np.full(64, 0.5))
    with pytest.raises(UnsupportedDimensionError):
        sobol_points(0, 1)
    with pytest.raises(UnsupportedDimensionError):
        sobol_points(65, 1)


def test_argument_validation():
    with pytest.raises(ValueError, match="count must be non-negative"):
        sobol_points(2, -1)
    # index 2**32 - 1 is the last point the 32-bit direction integers reach;
    # the request is refused before anything is allocated
    with pytest.raises(ValueError, match="sequence exhausted"):
        sobol_points(2, 2**32)


def test_values_are_dyadic_rationals():
    # every coordinate is k / 2^32 by construction
    points = sobol_points(5, 128)
    scaled = points * 2.0**32
    assert np.array_equal(scaled, np.round(scaled))


def test_matches_scipy_for_every_supported_dimension():
    # scipy's unscrambled Sobol generator uses the same Joe-Kuo direction
    # numbers; its first point is the all-zeros one that `sobol_points`
    # never emits.  Imported here only: the package itself never loads it.
    from scipy.stats import qmc

    for dim in range(1, MAX_DIMENSION + 1):
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "The balance properties", UserWarning)
            expected = qmc.Sobol(dim, scramble=False).random(1025)[1:]
        assert np.array_equal(sobol_points(dim, 1024), expected), f"dimension {dim} deviates"
