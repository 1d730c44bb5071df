"""Evaluation measures and similarity-evaluation cost accounting."""

from dataclasses import dataclass
from typing import List

import numpy as np

from . import dataio
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


@dataclass(frozen=True)
class OperatingPoint:
    """One decision threshold with its false accept / false reject rates."""

    threshold: float
    far: float
    frr: float


def far_frr_curve(genuine_scores, impostor_scores) -> List[OperatingPoint]:
    """Operating curve over all distinct score thresholds plus +-inf.

    Higher scores mean "more genuine"; a claim is accepted when its score
    is >= the threshold.  FAR is the fraction of impostor scores accepted,
    FRR the fraction of genuine scores rejected.  FAR is non-increasing
    and FRR non-decreasing in the threshold.
    """
    genuine = np.ravel(np.asarray(genuine_scores, dtype=float))
    impostor = np.ravel(np.asarray(impostor_scores, dtype=float))
    if genuine.size == 0 or impostor.size == 0:
        raise ValueError("both score lists must be non-empty")
    thresholds = np.concatenate(([-np.inf], np.unique(np.concatenate([genuine, impostor])), [np.inf]))
    points = []
    for thr in thresholds:
        far = float(np.mean(impostor >= thr))
        frr = float(np.mean(genuine < thr))
        points.append(OperatingPoint(threshold=float(thr), far=far, frr=frr))
    return points


def write_far_frr_csv(points: List[OperatingPoint], path):
    dataio.write_table(path, ["threshold", "far", "frr"], [[p.threshold, p.far, p.frr] for p in points])


def eval_cost(model: SparseModel, x=None) -> int:
    """Similarity evaluations consumed by a single prediction (equals m)."""
    if x is None:
        x = np.zeros(model.dim)
    before = sim.EVAL_COUNTER.read()
    predict(model, x)
    return sim.EVAL_COUNTER.read() - before
