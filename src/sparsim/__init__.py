"""sparsim: super-sparse similarity-space models.

Learns a tiny set of virtual prototypes jointly with the linear
coefficients over their similarities, so that predictions cost one
similarity evaluation per prototype.  Includes model-size selection,
prototype-selection baselines, teacher distillation, and evaluation
metrics.
"""

from .baselines import (
    SelectionMethod,
    baseline_pipeline,
    kernel_ridge_full,
    lasso_similarity,
    ps_border,
    ps_kmedians,
    ps_random,
    ps_spanning,
)
from .dataio import blackbox_bridge, gen_synthetic, load_csv, load_model, save_model, write_csv
from .datatypes import Dataset, ObjectiveValue, SparseModel, TrainConfig, objective, predict, predict_batch
from .errors import (
    BlackboxError,
    ConvergenceError,
    DataFormatError,
    NonFiniteUpdateError,
    SimilarityEvalError,
    SingularSystemError,
    SparsimError,
    UnsupportedGradModeError,
)
from .metrics import OperatingPoint, error_rate, eval_cost, far_frr_curve, mae, mse
from .selection import GridConfig, SelectionTrace, default_grid, kfold_split, select_model_size
from .similarity import EVAL_COUNTER, SimilarityMatrix, SimilaritySpec, default_spec, pairwise, sim_matrix
from .training import TrainTrace, distill, fit, init_prototypes

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "SparseModel",
    "TrainConfig",
    "ObjectiveValue",
    "SimilaritySpec",
    "SimilarityMatrix",
    "GridConfig",
    "SelectionTrace",
    "SelectionMethod",
    "TrainTrace",
    "OperatingPoint",
    "EVAL_COUNTER",
    "fit",
    "distill",
    "init_prototypes",
    "predict",
    "predict_batch",
    "objective",
    "select_model_size",
    "default_grid",
    "kfold_split",
    "sim_matrix",
    "default_spec",
    "pairwise",
    "ps_random",
    "ps_border",
    "ps_spanning",
    "ps_kmedians",
    "kernel_ridge_full",
    "lasso_similarity",
    "baseline_pipeline",
    "mae",
    "mse",
    "error_rate",
    "far_frr_curve",
    "eval_cost",
    "gen_synthetic",
    "load_csv",
    "write_csv",
    "save_model",
    "load_model",
    "blackbox_bridge",
    "SparsimError",
    "SimilarityEvalError",
    "UnsupportedGradModeError",
    "SingularSystemError",
    "NonFiniteUpdateError",
    "ConvergenceError",
    "DataFormatError",
    "BlackboxError",
]
