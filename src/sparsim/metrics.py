"""Evaluation measures and similarity-evaluation cost accounting."""

import numpy as np

from . import similarity as sim
from .datatypes import SparseModel, predict


def _pair(pred, truth):
    pred = np.ravel(np.asarray(pred, dtype=float))
    truth = np.ravel(np.asarray(truth, dtype=float))
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    if pred.size == 0:
        raise ValueError("need at least one sample")
    return pred, truth


def mae(pred, truth) -> float:
    """Mean absolute error."""
    pred, truth = _pair(pred, truth)
    return float(np.mean(np.abs(pred - truth)))


def mse(pred, truth) -> float:
    """Mean squared error."""
    pred, truth = _pair(pred, truth)
    return float(np.mean((pred - truth) ** 2))


def error_rate(scores, labels) -> float:
    """Fraction of sign disagreements between scores and +-1 labels.

    A score of exactly zero counts as the positive class (ties accept).
    """
    scores, labels = _pair(scores, labels)
    predicted = np.where(scores >= 0, 1.0, -1.0)
    return float(np.mean(predicted != labels))


#: The one map from a loss name to its function (model selection, CLI).
LOSSES = {"mae": mae, "mse": mse, "error_rate": error_rate}


def eval_cost(model: SparseModel) -> int:
    """Similarity evaluations consumed by a single prediction (equals m)."""
    before = sim.EVAL_COUNTER.read()
    predict(model, np.zeros(model.dim))
    return sim.EVAL_COUNTER.read() - before
