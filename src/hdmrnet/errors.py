"""Exception types shared across the package."""


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
