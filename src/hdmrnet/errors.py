"""Exception types shared across the package, and `_integer`, the one check
of every integer setting: of the library's functions and of a model file.

The module imports nothing from the package, so every module can import it.
"""

import math

import numpy as np


def _integer(name: str, value, low: int, high: float = math.inf, error=ValueError) -> int:
    """`value` as a plain int if it is an int or a numpy integer, never a
    bool, in [low, high]; else `error` naming the setting `name`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r:.80}")
    if not low <= int(value) <= high:
        bounds = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise error(f"{name} must be {bounds}, got {value}")
    return int(value)


class HdmrnetError(Exception):
    """Base class for every error raised by this package."""


class UnsupportedDimensionError(HdmrnetError):
    """Sobol dimension outside the supported range."""


class InvalidOrderError(HdmrnetError):
    """Coupling order incompatible with the coordinate dimension."""


class ShapeError(HdmrnetError):
    """Array arguments with inconsistent shapes or lengths."""


class InvalidHyperparameterError(HdmrnetError):
    """Non-positive length scale or noise level."""


class IllConditionedGramError(HdmrnetError):
    """No backward-stable Cholesky solve of the Gram, or of its low-rank form,
    even at the maximum jitter level."""

    def __init__(self, message: str, final_jitter: float):
        super().__init__(message)
        self.final_jitter = final_jitter


class DatasetError(HdmrnetError):
    """Missing, unreadable, or malformed dataset file."""


class ModelFormatError(HdmrnetError):
    """Malformed, truncated, corrupted, or incompatible model file."""
