"""Exception types shared across the package, and the one check of every
setting, of the library's functions and of a model file: `_integer` for an
integer setting and `_real` for a real one.  Both return a plain Python
number, and both raise the caller's error type with one wording.

The module imports nothing from the package, so every module can import it.
"""

import math
import numbers

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


def _real(name: str, value, low: float, high: float = math.inf, error=ValueError) -> float:
    """`value` as a plain float if it is a real number (an int, a float or a
    numpy integer or floating scalar), never a bool, finite and in
    [low, high]; else `error` naming the setting `name`.  An int past the
    float range is not finite."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a real number, got {value!r:.80}")
    try:
        number = float(value)
    except OverflowError:
        number = math.nan
    if not (math.isfinite(number) and low <= number <= high):
        bounds = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise error(f"{name} must be finite and {bounds}, got {value!s:.80}")
    return number


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
