"""Orders-of-coupling surrogate models for multivariate scattered data.

The model is a single-hidden-layer network: sparse hidden weights select
coordinate subsets (identity rows for each input, plus low-discrepancy
direction rows for each coordinate subset up to a chosen coupling order),
and the neuron activations are the per-feature component functions of a
first-order additive Gaussian process fitted by a single linear solve.
"""

__version__ = "0.1.0"

from .analysis import (
    ComponentCurve,
    SweepRecord,
    SweepResult,
    component_curves,
    grid_search_l,
    importance,
    pearson_corr,
    rmse,
    sweep,
    write_sweep_csv,
)
from .coupling import (
    FeatureMap,
    build_feature_map,
    enumerate_subsets,
    map_features,
)
from .data import (
    Dataset,
    load_csv,
    load_matrix,
    save_csv,
    split,
    synth,
)
from .errors import (
    DatasetError,
    HdmrnetError,
    IllConditionedGramError,
    InvalidHyperparameterError,
    InvalidOrderError,
    ModelFormatError,
    ShapeError,
    UnsupportedDimensionError,
)
from .gpr import (
    AdditiveGprModel,
    gpr_component,
    gpr_fit,
    gpr_predict,
    gram_matrix,
)
from .model import (
    HdmrModel,
    Scaler,
    apply_scaler,
    fit_scaler,
    hdmr_fit,
    hdmr_predict,
    load_model,
    save_model,
    term_values,
)
from .sobol import MAX_DIMENSION, sobol_points

__all__ = [
    "__version__",
    "AdditiveGprModel",
    "ComponentCurve",
    "Dataset",
    "DatasetError",
    "FeatureMap",
    "HdmrModel",
    "HdmrnetError",
    "IllConditionedGramError",
    "InvalidHyperparameterError",
    "InvalidOrderError",
    "MAX_DIMENSION",
    "ModelFormatError",
    "Scaler",
    "ShapeError",
    "SweepRecord",
    "SweepResult",
    "UnsupportedDimensionError",
    "apply_scaler",
    "build_feature_map",
    "component_curves",
    "enumerate_subsets",
    "fit_scaler",
    "gpr_component",
    "gpr_fit",
    "gpr_predict",
    "gram_matrix",
    "grid_search_l",
    "hdmr_fit",
    "hdmr_predict",
    "importance",
    "load_csv",
    "load_matrix",
    "load_model",
    "map_features",
    "pearson_corr",
    "rmse",
    "save_csv",
    "save_model",
    "sobol_points",
    "split",
    "sweep",
    "synth",
    "term_values",
    "write_sweep_csv",
]
