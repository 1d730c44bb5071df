"""sparsim: super-sparse similarity-space models.

Learns a tiny set of virtual prototypes jointly with the linear
coefficients over their similarities, so that predictions cost one
similarity evaluation per prototype.  Includes model-size selection,
prototype-selection baselines, teacher distillation, and evaluation
metrics.
"""

from .baselines import baseline_pipeline, kernel_ridge_full, lasso_similarity
from .dataio import blackbox_bridge, gen_synthetic, load_csv, load_model, save_model, write_csv
from .datatypes import Dataset, SparseModel, TrainConfig, predict, predict_batch
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
from .metrics import error_rate, eval_cost, mae, mse
from .selection import GridConfig, SelectionTrace, default_grid, kfold_split, select_model_size
from .similarity import EVAL_COUNTER, SimilarityMatrix, SimilaritySpec, default_spec, pairwise, sim_matrix
from .training import TrainTrace, fit, init_prototypes

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "SparseModel",
    "TrainConfig",
    "SimilaritySpec",
    "SimilarityMatrix",
    "GridConfig",
    "SelectionTrace",
    "TrainTrace",
    "EVAL_COUNTER",
    "fit",
    "init_prototypes",
    "predict",
    "predict_batch",
    "select_model_size",
    "default_grid",
    "kfold_split",
    "sim_matrix",
    "default_spec",
    "pairwise",
    "kernel_ridge_full",
    "lasso_similarity",
    "baseline_pipeline",
    "mae",
    "mse",
    "error_rate",
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
