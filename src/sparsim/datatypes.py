"""Core domain types: datasets, sparse models, predictions, training config.

Datasets and models are immutable after construction (their arrays are
frozen) and therefore safe to share across threads.
"""

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import ridge
from . import similarity as sim
from .errors import SimilarityEvalError

# Bytes that predict_batch holds at a time besides its output: a block's
# similarities (8 per value) and its rows' finiteness mask (1 per input
# value).  Cache-sized, because sim_matrix sweeps a block's rows once per
# prototype, and rows still in cache from the last sweep make the next
# one cheap.
SCORE_BLOCK_BYTES = 1 << 18


def _frozen_array(values) -> np.ndarray:
    out = np.array(values, dtype=float)
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
        if features.ndim != 2:
            raise ValueError(f"features must be a 2-D array, got shape {features.shape}")
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
        if prototypes.ndim != 2:
            raise ValueError(f"prototypes must be a 2-D array, got shape {prototypes.shape}")
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


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not a count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_size(m: int, n: Optional[int] = None) -> None:
    """Reject a prototype count that is not an integer with 1 <= m <= n
    (m distinct rows of n); with no n, only m >= 1 is required."""
    bound = "" if n is None else f" and <= n={n}"
    if not is_integer(m) or m < 1 or (n is not None and m > n):
        raise ValueError(f"m must be an integer >= 1{bound}, got {m!r}")


def predict(model: SparseModel, x) -> float:
    """Score one sample: sum_j beta_j * s(x, z_j) + bias, the one-row case
    of :func:`predict_batch`: exactly m similarity evaluations, and memory
    for the m similarities and the row's d-entry finiteness mask."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a vector of dimension {model.dim}, got shape {x.shape}")
    return float(predict_batch(model, x[None, :])[0])


def _check_finite(rows) -> None:
    """Raise unless every entry of ``rows`` is finite: one reduction over a
    one-byte-per-entry mask."""
    if not np.logical_and.reduce(np.isfinite(rows), axis=None):
        raise ValueError("inputs must be finite")


def predict_batch(model: SparseModel, rows) -> np.ndarray:
    """Score many samples at once (k rows cost k*m evaluations).

    Rows are scored in blocks whose similarities (8 bytes a value) and
    finiteness mask (a byte per input value) fit in ``SCORE_BLOCK_BYTES``,
    but of at least 256 rows; a batch that fits in one block is one
    :func:`sim_matrix` call.  Finiteness is checked by one reduction per
    block, every block before the first evaluation, so besides the k
    predictions scoring holds one block of similarities and one block of
    the mask, whatever k and d are.
    Blocks start at multiples of 256 rows, where the GEMV rounds a row
    alike wherever it sits, so with one BLAS thread every prediction is
    bit-identical to scoring the whole batch as one block.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim < 2:
        rows = np.atleast_2d(rows)
    if rows.ndim != 2 or rows.shape[1] != model.dim:
        raise ValueError(f"expected rows of dimension {model.dim}, got shape {rows.shape}")
    k = rows.shape[0]
    step = max(256, SCORE_BLOCK_BYTES // (8 * model.m + model.dim) // 256 * 256)
    if k <= step:
        _check_finite(rows)
        scores = sim.sim_matrix(model.similarity, rows, model.prototypes).values.dot(model.beta)
        scores += model.bias
        return scores
    # numpy scores a one-row block by a dot product, not the GEMV, which
    # rounds differently, so a last single row joins the block before it
    bounds = [*range(0, k - 1, step), k]
    blocks = list(zip(bounds, bounds[1:]))
    for start, stop in blocks:
        _check_finite(rows[start:stop])
    scores = np.empty(k)
    for start, stop in blocks:
        try:
            values = sim.sim_matrix(model.similarity, rows[start:stop], model.prototypes).values
        except SimilarityEvalError as exc:  # name the rows of the batch, not of the block
            raise type(exc)(f"scoring rows {start}..{stop - 1}: {exc}") from exc
        values.dot(model.beta, out=scores[start:stop])
    scores += model.bias
    return scores


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for the alternating optimization.

    ``box`` constrains prototypes to per-dimension [lo, hi] bounds: None
    leaves them unbounded, the string "data" uses the training-feature
    hull, and an explicit (d, 2) array sets the bounds directly.
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
        ridge.check_lam(self.lam)
        if not 0 < self.eta < np.inf:
            raise ValueError(f"eta must be finite and > 0, got {self.eta}")
        if not 0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if not is_integer(self.max_sweeps) or self.max_sweeps < 1:
            raise ValueError(f"max_sweeps must be an integer >= 1, got {self.max_sweeps!r}")
        if self.grad_mode not in sim.GRAD_MODES:
            raise ValueError(f"unknown grad_mode {self.grad_mode!r}")
        if not is_integer(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if isinstance(self.box, str) and self.box != "data":
            raise ValueError(f"box must be None, 'data', or an array, got {self.box!r}")
        if self.box is not None and not isinstance(self.box, str):
            box = _frozen_array(self.box)
            if box.ndim != 2 or box.shape[1] != 2:
                raise ValueError(f"box must have shape (d, 2), got {box.shape}")
            # Comparisons with NaN are false, so this also rejects NaN bounds.
            if not ((box[:, 0] < np.inf) & (box[:, 1] > -np.inf)).all():
                raise ValueError("box bounds must not be NaN, and every row must admit a finite value")
            if np.any(box[:, 0] > box[:, 1]):
                raise ValueError("box lower bounds must not exceed upper bounds")
            object.__setattr__(self, "box", box)


def resolve_box(box, data: Dataset):
    """Materialize the projection bounds as a (d, 2) array of (lo, hi)
    rows; None is the unbounded box, [-inf, inf] in every dimension.

    An explicit box must have one (lo, hi) row per data dimension.
    """
    if box is None:
        return np.tile([-np.inf, np.inf], (data.dim, 1))
    if isinstance(box, str):  # "data": per-dimension hull of the training features
        return np.column_stack([data.features.min(axis=0), data.features.max(axis=0)])
    box = np.asarray(box, dtype=float)
    if box.shape[0] != data.dim:
        raise ValueError(f"box has {box.shape[0]} rows but the data have {data.dim} dimensions")
    return box
