"""Gray-code Sobol low-discrepancy sequence generator.

`sobol_points` is the one entry point: a pure function of (dimension,
count) that returns the first `count` points after the all-zeros one.
The feature map of :mod:`hdmrnet.coupling` takes all of its nonzero
weights from a single call.  Direction numbers are the standard
Joe-Kuo set for dimensions up to 64, embedded below as an implementation
constant.  Points are emitted in Gray-code order, and the index-0
all-zeros point is never emitted: downstream it would turn into an
all-zero weight row, i.e. a useless constant feature.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import UnsupportedDimensionError, _integer

MAX_DIMENSION = 64

_NBITS = 32
_SCALE = float(2**_NBITS)

# Joe-Kuo primitive-polynomial coefficients `a` and initial odd integers
# m_1..m_s for dimensions 2..64 (dimension 1 is the van der Corput
# sequence in base 2).  Polynomial degree s = len(m).
_JOE_KUO: list[tuple[int, list[int]]] = [
    (0, [1]),
    (1, [1, 3]),
    (1, [1, 3, 1]),
    (2, [1, 1, 1]),
    (1, [1, 1, 3, 3]),
    (4, [1, 3, 5, 13]),
    (2, [1, 1, 5, 5, 17]),
    (4, [1, 1, 5, 5, 5]),
    (7, [1, 1, 7, 11, 19]),
    (11, [1, 1, 5, 1, 1]),
    (13, [1, 1, 1, 3, 11]),
    (14, [1, 3, 5, 5, 31]),
    (1, [1, 3, 3, 9, 7, 49]),
    (13, [1, 1, 1, 15, 21, 21]),
    (16, [1, 3, 1, 13, 27, 49]),
    (19, [1, 1, 1, 15, 7, 5]),
    (22, [1, 3, 1, 15, 13, 25]),
    (25, [1, 1, 5, 5, 19, 61]),
    (1, [1, 3, 7, 11, 23, 15, 103]),
    (4, [1, 3, 7, 13, 13, 15, 69]),
    (7, [1, 1, 3, 13, 7, 35, 63]),
    (8, [1, 3, 5, 9, 1, 25, 53]),
    (14, [1, 3, 1, 13, 9, 35, 107]),
    (19, [1, 3, 1, 5, 27, 61, 31]),
    (21, [1, 1, 5, 11, 19, 41, 61]),
    (28, [1, 3, 5, 3, 3, 13, 69]),
    (31, [1, 1, 7, 13, 1, 19, 1]),
    (32, [1, 3, 7, 5, 13, 19, 59]),
    (37, [1, 1, 3, 9, 25, 29, 41]),
    (41, [1, 3, 5, 13, 23, 1, 55]),
    (42, [1, 3, 7, 3, 13, 59, 17]),
    (50, [1, 3, 1, 3, 5, 53, 69]),
    (55, [1, 1, 5, 5, 23, 33, 13]),
    (56, [1, 1, 7, 7, 1, 61, 123]),
    (59, [1, 1, 7, 9, 13, 61, 49]),
    (62, [1, 3, 3, 5, 3, 55, 33]),
    (14, [1, 3, 1, 15, 31, 13, 49, 245]),
    (21, [1, 3, 5, 15, 31, 59, 63, 97]),
    (22, [1, 3, 1, 11, 11, 11, 77, 249]),
    (38, [1, 3, 1, 11, 27, 43, 71, 9]),
    (47, [1, 1, 7, 15, 21, 11, 81, 45]),
    (49, [1, 3, 7, 3, 25, 31, 65, 79]),
    (50, [1, 3, 1, 1, 19, 11, 3, 205]),
    (52, [1, 1, 5, 9, 19, 21, 29, 157]),
    (56, [1, 3, 7, 11, 1, 33, 89, 185]),
    (67, [1, 3, 3, 3, 15, 9, 79, 71]),
    (70, [1, 3, 7, 11, 15, 39, 119, 27]),
    (84, [1, 1, 3, 1, 11, 31, 97, 225]),
    (97, [1, 1, 1, 3, 23, 43, 57, 177]),
    (103, [1, 3, 7, 7, 17, 17, 37, 71]),
    (115, [1, 3, 1, 5, 27, 63, 123, 213]),
    (122, [1, 1, 3, 5, 11, 43, 53, 133]),
    (8, [1, 3, 5, 5, 29, 17, 47, 173, 479]),
    (13, [1, 3, 3, 11, 3, 1, 109, 9, 69]),
    (16, [1, 1, 1, 5, 17, 39, 23, 5, 343]),
    (22, [1, 3, 1, 5, 25, 15, 31, 103, 499]),
    (25, [1, 1, 1, 11, 11, 17, 63, 105, 183]),
    (44, [1, 1, 5, 11, 9, 29, 97, 231, 363]),
    (47, [1, 1, 5, 15, 19, 45, 41, 7, 383]),
    (52, [1, 3, 7, 7, 31, 19, 83, 137, 221]),
    (55, [1, 1, 1, 3, 23, 15, 111, 223, 83]),
    (59, [1, 1, 5, 13, 31, 15, 55, 25, 161]),
    (62, [1, 1, 3, 13, 25, 47, 39, 87, 257]),
]


@lru_cache(maxsize=None)
def _direction_table(dimension: int) -> np.ndarray:
    """Direction integers V[axis, bit] for bits 1.._NBITS (index 0 unused).

    Each V[j, i] carries m_i scaled by 2**(_NBITS - i); the recurrence for
    bits beyond the polynomial degree is the classic Sobol construction.
    """
    table = np.zeros((dimension, _NBITS + 1), dtype=np.uint64)
    table[0, 1:] = [1 << (_NBITS - i) for i in range(1, _NBITS + 1)]
    for j in range(1, dimension):
        a, m = _JOE_KUO[j - 1]
        s = len(m)
        v = [0] * (_NBITS + 1)
        for i in range(1, min(s, _NBITS) + 1):
            v[i] = m[i - 1] << (_NBITS - i)
        for i in range(s + 1, _NBITS + 1):
            vi = v[i - s] ^ (v[i - s] >> s)
            for k in range(1, s):
                if (a >> (s - 1 - k)) & 1:
                    vi ^= v[i - k]
            v[i] = vi
        table[j, :] = v
    return table


def _check_request(dimension: int, count: int) -> tuple[int, int]:
    """The dimension, an integer in [1, MAX_DIMENSION] else an
    `UnsupportedDimensionError`, and the count, an integer >= 0 with
    1 + count <= 2**32 else a `ValueError`, as plain ints: the request
    that `sobol_points` serves.  Nothing is allocated before it returns."""
    dimension = _integer("Sobol dimension", dimension, 1, MAX_DIMENSION, UnsupportedDimensionError)
    count = _integer("count", count, 0)
    if 1 + count > 1 << _NBITS:
        raise ValueError(f"sequence exhausted beyond 2**{_NBITS} - 1 points")
    return dimension, count


def sobol_points(dimension: int, count: int) -> np.ndarray:
    """Points 1 .. count of the Sobol sequence, in [0, 1).

    Pure: repeated calls with equal arguments return bit-identical
    arrays, and the rows of a longer request are a prefix-extension of a
    shorter one.
    """
    dimension, count = _check_request(dimension, count)
    directions = _direction_table(dimension)
    state = np.zeros(dimension, dtype=np.uint64)
    out = np.empty((count, dimension))
    for index in range(count):
        # Point index + 1 flips the direction of index's lowest zero bit.
        state ^= directions[:, ((index + 1) & ~index).bit_length()]
        out[index] = state / _SCALE
    return out
