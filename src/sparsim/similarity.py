"""Similarity functions, their prototype gradients, and similarity matrices.

Three kinds of similarity are supported: an RBF kernel
``s(a, b) = exp(-gamma * ||a - b||^2)``, a plain dot product, and opaque
black-box scorers registered by the host program (e.g. a matcher wrapped
in a subprocess, see :mod:`sparsim.dataio`).  Every evaluation is tallied
in a global counter so that test-time cost can be measured exactly.
"""

import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.spatial.distance import cdist

from .errors import SimilarityEvalError, UnsupportedGradModeError

KINDS = ("rbf", "linear", "blackbox")
GRAD_MODES = ("analytic", "approximate", "numeric")


class EvalCounter:
    """Thread-safe running tally of similarity evaluations."""

    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0

    def add(self, k: int):
        with self._lock:
            self._count += int(k)

    def read(self) -> int:
        with self._lock:
            return self._count


#: Global counter; predicting with an m-prototype model adds exactly m.
EVAL_COUNTER = EvalCounter()

# Registry of black-box scorers plus a lock serializing their calls
# (scorers are assumed non-reentrant).
_SCORERS: dict = {}
_SCORER_LOCK = threading.Lock()


def register_scorer(scorer_id: str, fn: Callable[[np.ndarray, np.ndarray], float]):
    """Register a symmetric black-box scorer under an opaque identifier."""
    _SCORERS[scorer_id] = fn


def unregister_scorer(scorer_id: str):
    _SCORERS.pop(scorer_id, None)


@dataclass(frozen=True)
class SimilaritySpec:
    """Identity of a similarity function.

    For ``kind="rbf"`` a positive ``gamma`` is required; ``blackbox_id``
    must name a registered scorer for ``kind="blackbox"``.
    """

    kind: str = "rbf"
    gamma: Optional[float] = None
    blackbox_id: Optional[str] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown similarity kind {self.kind!r}")
        if self.kind == "rbf":
            if self.gamma is None or not self.gamma > 0:
                raise ValueError(f"rbf similarity needs gamma > 0, got {self.gamma}")
        if self.kind == "blackbox" and not self.blackbox_id:
            raise ValueError("blackbox similarity needs a blackbox_id")


def default_spec(dim: int) -> SimilaritySpec:
    """RBF spec with the default bandwidth gamma = 1/dim."""
    return SimilaritySpec(kind="rbf", gamma=1.0 / dim)


@dataclass(frozen=True)
class SimilarityMatrix:
    """Similarities between a set of rows and a set of prototypes."""

    values: np.ndarray  # (k, m)

    @property
    def shape(self):
        return self.values.shape


def _check_pair(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"expected equal-length vectors, got shapes {a.shape} and {b.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("similarity arguments must be finite")
    return a, b


def _raw_eval(spec: SimilaritySpec, a: np.ndarray, b: np.ndarray) -> float:
    if spec.kind == "rbf":
        diff = a - b
        return float(np.exp(-spec.gamma * np.dot(diff, diff)))
    if spec.kind == "linear":
        return float(np.dot(a, b))
    scorer = _SCORERS.get(spec.blackbox_id)
    if scorer is None:
        raise SimilarityEvalError(f"no scorer registered under {spec.blackbox_id!r}")
    with _SCORER_LOCK:
        try:
            value = float(scorer(a, b))
        except SimilarityEvalError:
            raise
        except Exception as exc:
            raise SimilarityEvalError(f"black-box scorer {spec.blackbox_id!r} failed: {exc}") from exc
    return value


def eval(spec: SimilaritySpec, a, b) -> float:
    """Evaluate s(a, b).  Symmetric for all supported kinds."""
    a, b = _check_pair(a, b)
    value = _raw_eval(spec, a, b)
    EVAL_COUNTER.add(1)
    if not np.isfinite(value):
        raise SimilarityEvalError(f"similarity returned non-finite value {value}")
    return value


def sim_matrix(spec: SimilaritySpec, rows, protos) -> SimilarityMatrix:
    """Matrix of similarities s(rows[i], protos[j]).

    Adds k*m to the evaluation counter.  Evaluation failures are re-raised
    with the offending (row, column) location.

    The RBF block sums the exact squared differences (a_p - b_p)^2 in
    ``cdist`` and exponentiates in place, so its only (k, m) array is the
    result: peak memory is about one output-sized array, whatever d is.
    No ||a||^2 + ||b||^2 - 2 a.b expansion is used, so nothing cancels;
    only the rounding of the d-term sum can differ from :func:`eval`
    (for d >= 2, relative differences near 1e-15).
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    protos = np.atleast_2d(np.asarray(protos, dtype=float))
    if rows.shape[1] != protos.shape[1]:
        raise ValueError(
            f"dimension mismatch: rows have {rows.shape[1]} columns, prototypes {protos.shape[1]}"
        )
    k, m = rows.shape[0], protos.shape[0]
    if spec.kind == "rbf":
        values = cdist(rows, protos, "sqeuclidean")
        values *= -spec.gamma
        np.exp(values, out=values)
    elif spec.kind == "linear":
        values = rows @ protos.T
    else:
        values = np.empty((k, m))
        for i in range(k):
            for j in range(m):
                try:
                    values[i, j] = _raw_eval(spec, rows[i], protos[j])
                except SimilarityEvalError as exc:
                    raise SimilarityEvalError(f"evaluation failed at row {i}, column {j}: {exc}") from exc
    EVAL_COUNTER.add(k * m)
    bad = ~np.isfinite(values)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise SimilarityEvalError(f"non-finite similarity at row {i}, column {j}")
    return SimilarityMatrix(values=values)


def numeric_step(z: np.ndarray) -> float:
    """Central-difference step scaled to the prototype magnitude."""
    return 1e-6 * max(1.0, float(np.max(np.abs(z)))) if z.size else 1e-6


def grad_z(spec: SimilaritySpec, x, z, mode: str = "analytic") -> np.ndarray:
    """Gradient of s(x, z) with respect to the prototype z.

    Modes:
      analytic     closed form; RBF gives 2*gamma*s(x,z)*(x-z), the dot
                   product gives x.  Unavailable for black-box scorers.
      approximate  the shift heuristic s(x,z)*(x-z); needs one evaluation.
      numeric      central finite differences, 2*d evaluations.
    """
    x, z = _check_pair(x, z)
    if mode not in GRAD_MODES:
        raise ValueError(f"unknown gradient mode {mode!r}")
    if mode == "analytic":
        if spec.kind == "rbf":
            diff = x - z
            return 2.0 * spec.gamma * np.exp(-spec.gamma * np.dot(diff, diff)) * diff
        if spec.kind == "linear":
            return x.copy()
        raise UnsupportedGradModeError(
            f"analytic gradient unavailable for {spec.kind!r} similarity"
        )
    if mode == "approximate":
        return eval(spec, x, z) * (x - z)
    h = numeric_step(z)
    grad = np.empty_like(z)
    for p in range(z.size):
        zp = z.copy()
        zp[p] = z[p] + h
        zm = z.copy()
        zm[p] = z[p] - h
        grad[p] = (eval(spec, x, zp) - eval(spec, x, zm)) / (2.0 * h)
    return grad


def grad_z_matrix(spec: SimilaritySpec, rows, z, mode: str = "analytic", column=None) -> np.ndarray:
    """Stacked gradients d s(rows[i], z) / dz, one row per sample.

    Vectorized for the analytic and approximate modes; the numeric mode
    falls back to per-row finite differences.  ``column``, when given,
    holds the already evaluated similarities s(rows[i], z); the analytic
    RBF and approximate modes use it instead of evaluating them again.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    z = np.asarray(z, dtype=float)
    if mode == "analytic" and spec.kind == "rbf":
        diff = rows - z
        if column is None:
            column = np.exp(-spec.gamma * np.einsum("ij,ij->i", diff, diff))
            EVAL_COUNTER.add(rows.shape[0])
        return 2.0 * spec.gamma * column[:, None] * diff
    if mode == "analytic" and spec.kind == "linear":
        return rows.copy()
    if mode == "approximate":
        if column is None:
            column = sim_matrix(spec, rows, z[None, :]).values[:, 0]
        return column[:, None] * (rows - z)
    return np.stack([grad_z(spec, row, z, mode) for row in rows])
