"""Core domain types: datasets, sparse models, objectives, training config.

Datasets and models are immutable after construction (their arrays are
frozen) and therefore safe to share across threads.
"""

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import similarity as sim
from .errors import SimilarityEvalError


def _frozen_array(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Dataset:
    """Training data: feature rows, real targets, positive sample weights.

    Targets may be regression values, +-1 class labels, or teacher scores.
    ``groups`` optionally carries a subject id per sample for
    subject-disjoint cross-validation folds.
    """

    features: np.ndarray
    targets: np.ndarray
    weights: Optional[np.ndarray] = None
    groups: Optional[np.ndarray] = None

    def __post_init__(self):
        features = _frozen_array(np.atleast_2d(self.features))
        targets = _frozen_array(np.ravel(self.targets))
        n = features.shape[0]
        if n < 1 or features.shape[1] < 1:
            raise ValueError(f"need at least one sample and one feature, got shape {features.shape}")
        if targets.shape[0] != n:
            raise ValueError(f"{n} samples but {targets.shape[0]} targets")
        if not np.all(np.isfinite(features)):
            raise ValueError("features must be finite")
        if not np.all(np.isfinite(targets)):
            raise ValueError("targets must be finite")
        weights = self.weights
        weights = np.ones(n) if weights is None else np.ravel(np.asarray(weights, dtype=float))
        if weights.shape[0] != n:
            raise ValueError(f"{n} samples but {weights.shape[0]} weights")
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
            raise ValueError("weights must be finite and strictly positive")
        groups = self.groups
        if groups is not None:
            groups = np.array(np.ravel(groups))
            if groups.shape[0] != n:
                raise ValueError(f"{n} samples but {groups.shape[0]} group ids")
            groups.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "weights", _frozen_array(weights))
        object.__setattr__(self, "groups", groups)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @classmethod
    def class_balanced(cls, features, labels, groups=None) -> "Dataset":
        """Dataset for +-1 labels with weights equalizing total class mass.

        Each sample of class c gets weight n / (2 * n_c), so both classes
        contribute the same total weight regardless of imbalance.
        """
        labels = np.ravel(np.asarray(labels, dtype=float))
        classes = set(np.unique(labels))
        if not classes <= {-1.0, 1.0} or len(classes) != 2:
            raise ValueError("class_balanced needs both -1 and +1 labels")
        n = labels.shape[0]
        weights = np.where(labels > 0, n / (2.0 * np.sum(labels > 0)), n / (2.0 * np.sum(labels < 0)))
        return cls(features=features, targets=labels, weights=weights, groups=groups)

    def subset(self, idx) -> "Dataset":
        """New dataset restricted to the given sample indices."""
        idx = np.asarray(idx, dtype=int)
        return Dataset(
            features=self.features[idx],
            targets=self.targets[idx],
            weights=self.weights[idx],
            groups=None if self.groups is None else self.groups[idx],
        )


@dataclass(frozen=True)
class SparseModel:
    """The entire test-time artifact: prototypes, coefficients, bias, similarity.

    Predicting a sample costs exactly one similarity evaluation per
    prototype (m total), verifiable through the evaluation counter.
    """

    prototypes: np.ndarray
    beta: np.ndarray
    bias: float
    similarity: sim.SimilaritySpec
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        prototypes = _frozen_array(np.atleast_2d(self.prototypes))
        beta = _frozen_array(np.ravel(self.beta))
        if prototypes.shape[0] < 1:
            raise ValueError("a model needs at least one prototype")
        if beta.shape[0] != prototypes.shape[0]:
            raise ValueError(
                f"{prototypes.shape[0]} prototypes but {beta.shape[0]} coefficients"
            )
        if not np.all(np.isfinite(prototypes)):
            raise ValueError("prototypes must be finite")
        if not np.all(np.isfinite(beta)) or not np.isfinite(self.bias):
            raise ValueError("coefficients and bias must be finite")
        object.__setattr__(self, "prototypes", prototypes)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "bias", float(self.bias))

    @property
    def m(self) -> int:
        return self.prototypes.shape[0]

    @property
    def dim(self) -> int:
        return self.prototypes.shape[1]

    def predict(self, x) -> float:
        return predict(self, x)

    def predict_batch(self, rows) -> np.ndarray:
        return predict_batch(self, rows)


def predict(model: SparseModel, x) -> float:
    """Score one sample: sum_j beta_j * s(x, z_j) + bias.

    Performs exactly m similarity evaluations.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != model.dim:
        raise ValueError(f"expected a vector of dimension {model.dim}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("input must be finite")
    try:
        sims = sim.sim_matrix(model.similarity, x[None, :], model.prototypes).values[0]
    except SimilarityEvalError as exc:
        raise SimilarityEvalError(f"predict failed: {exc}") from exc
    return float(sims @ model.beta + model.bias)


def predict_batch(model: SparseModel, rows) -> np.ndarray:
    """Score many samples at once (k rows cost k*m evaluations)."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.shape[1] != model.dim:
        raise ValueError(f"expected rows of dimension {model.dim}, got shape {rows.shape}")
    if not np.all(np.isfinite(rows)):
        raise ValueError("inputs must be finite")
    values = sim.sim_matrix(model.similarity, rows, model.prototypes).values
    return values @ model.beta + model.bias


@dataclass(frozen=True)
class ObjectiveValue:
    """Weighted squared-error loss, ridge penalty, and their sum."""

    loss: float
    reg: float

    @property
    def total(self) -> float:
        return self.loss + self.reg


def objective(model: SparseModel, data: Dataset, lam: float) -> ObjectiveValue:
    """Training objective: sum_i u_i (g(x_i) - y_i)^2 + lam * beta'beta."""
    g = predict_batch(model, data.features)
    resid = g - data.targets
    loss = float(np.dot(data.weights * resid, resid))
    reg = float(lam * np.dot(model.beta, model.beta))
    return ObjectiveValue(loss=loss, reg=reg)


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for the alternating optimization.

    ``box`` constrains prototypes to per-dimension [lo, hi] bounds: None
    disables projection, the string "data" uses the training-feature hull,
    and an explicit (d, 2) array sets the bounds directly.
    """

    lam: float = 1e-6
    eta: float = 0.5
    epsilon: float = 1e-6
    max_sweeps: int = 50
    penalty_enabled: bool = True
    box: Union[None, str, np.ndarray] = None
    seed: int = 0
    grad_mode: str = "analytic"

    def __post_init__(self):
        if not self.lam >= 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if not self.eta > 0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.max_sweeps < 1:
            raise ValueError(f"max_sweeps must be >= 1, got {self.max_sweeps}")
        if self.grad_mode not in sim.GRAD_MODES:
            raise ValueError(f"unknown grad_mode {self.grad_mode!r}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        box = self.box
        if box is None or (isinstance(box, str) and box == "data"):
            pass
        elif isinstance(box, str):
            raise ValueError(f"box must be None, 'data', or an array, got {box!r}")
        else:
            box = _frozen_array(box)
            if box.ndim != 2 or box.shape[1] != 2:
                raise ValueError(f"box must have shape (d, 2), got {box.shape}")
            if np.any(box[:, 0] > box[:, 1]):
                raise ValueError("box lower bounds must not exceed upper bounds")
            object.__setattr__(self, "box", box)


def resolve_box(box, data: Dataset):
    """Materialize the projection bounds, or None when projection is off.

    An explicit box must have one (lo, hi) row per data dimension.
    """
    if box is None:
        return None
    if isinstance(box, str):  # "data": per-dimension hull of the training features
        return np.column_stack([data.features.min(axis=0), data.features.max(axis=0)])
    box = np.asarray(box, dtype=float)
    if box.shape[0] != data.dim:
        raise ValueError(f"box has {box.shape[0]} rows but the data have {data.dim} dimensions")
    return box
