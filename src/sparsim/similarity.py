"""Similarity functions, their prototype gradients, and similarity matrices.

Three kinds of similarity are supported: an RBF kernel
``s(a, b) = exp(-gamma * ||a - b||^2)``, a plain dot product, and opaque
black-box scorers: a block function carried by the spec itself (see
:func:`pairwise` and :mod:`sparsim.dataio`), called from the caller's
thread once per block.  Every evaluation is tallied in a global counter
so that test-time cost can be measured exactly.

Similarity values are computed in two places only: :func:`eval`, the
per-pair reference, and :func:`sim_matrix`, the block evaluator behind
everything else, prototype gradients included (:func:`grad_z_matrix`),
and the only caller of black-box scorers.
"""

import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.spatial.distance import cdist

from .errors import BlackboxError, SimilarityEvalError, UnsupportedGradModeError

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

@dataclass(frozen=True)
class SimilaritySpec:
    """Identity of a similarity function.

    For ``kind="rbf"`` a positive ``gamma`` is required.  ``kind="blackbox"``
    needs a ``blackbox_id`` and evaluates through ``scorer``, a symmetric
    block function ``(rows (k, d), protos (m, d)) -> (k, m)`` (see
    :func:`pairwise`) called unsynchronized from the caller's thread.  The
    scorer is not part of the spec's identity (equality, hash, ``repr``,
    saved form), so a loaded black-box spec needs one attached again with
    :func:`dataclasses.replace`.
    """

    kind: str = "rbf"
    gamma: Optional[float] = None
    blackbox_id: Optional[str] = None
    scorer: Optional[Callable[..., np.ndarray]] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown similarity kind {self.kind!r}")
        if self.kind == "rbf":
            if self.gamma is None or not 0 < self.gamma < np.inf:
                raise ValueError(f"rbf similarity needs a finite gamma > 0, got {self.gamma}")
        if self.kind == "blackbox" and not self.blackbox_id:
            raise ValueError("blackbox similarity needs a blackbox_id")
        if self.kind != "blackbox" and self.scorer is not None:
            raise ValueError(f"{self.kind} similarity takes no scorer")


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


def pairwise(fn: Callable[[np.ndarray, np.ndarray], float]):
    """Block scorer that calls ``fn(a, b)`` per (row, prototype) pair; a failure names both."""

    def block(rows, protos):
        values = np.empty((len(rows), len(protos)))
        for i, j in np.ndindex(values.shape):
            try:
                values[i, j] = fn(rows[i], protos[j])
            except Exception as exc:
                raise SimilarityEvalError(f"evaluation failed at row {i}, column {j}: {exc}") from exc
        return values

    return block


def eval(spec: SimilaritySpec, a, b) -> float:
    """Evaluate s(a, b), for a black-box spec as the 1x1 block.  Symmetric for all supported kinds."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"expected equal-length vectors, got shapes {a.shape} and {b.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("similarity arguments must be finite")
    if spec.kind == "blackbox":
        return float(sim_matrix(spec, a, b).values[0, 0])
    diff = a - b
    value = float(np.exp(-spec.gamma * np.dot(diff, diff)) if spec.kind == "rbf" else np.dot(a, b))
    EVAL_COUNTER.add(1)
    if not np.isfinite(value):
        raise SimilarityEvalError(f"similarity returned non-finite value {value}")
    return value


def _as_2d(x) -> np.ndarray:
    """``x`` as a float array of at least two dimensions, skipping the costly
    ``np.atleast_2d`` call when it already has two."""
    x = np.asarray(x, dtype=float)
    return x if x.ndim == 2 else np.atleast_2d(x)


def sim_matrix(spec: SimilaritySpec, rows, protos) -> SimilarityMatrix:
    """Matrix of similarities s(rows[i], protos[j]).

    Adds k*m to the evaluation counter.  A black-box scorer is called once
    per block.  A non-finite value is reported with its (row, column).

    The RBF block sums the exact squared differences (a_p - b_p)^2 in
    ``cdist`` and exponentiates in place, so its only (k, m) array is the
    result: peak memory is about one output-sized array, whatever d is.
    No ||a||^2 + ||b||^2 - 2 a.b expansion is used, so nothing cancels;
    only the rounding of the d-term sum can differ from :func:`eval`
    (for d >= 2, relative differences near 1e-15).
    """
    rows = _as_2d(rows)
    protos = _as_2d(protos)
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
    elif spec.scorer is None:
        raise SimilarityEvalError(f"black-box similarity {spec.blackbox_id!r} has no scorer attached")
    else:
        try:
            values = np.asarray(spec.scorer(rows, protos), dtype=float)
        except BlackboxError:
            raise
        except Exception as exc:
            raise SimilarityEvalError(f"black-box scorer {spec.blackbox_id!r} failed: {exc}") from exc
        if values.shape != (k, m):
            raise SimilarityEvalError(
                f"black-box scorer {spec.blackbox_id!r} returned shape {values.shape}, expected {(k, m)}"
            )
    EVAL_COUNTER.add(k * m)
    if not np.isfinite(values).all():
        i, j = np.argwhere(~np.isfinite(values))[0]
        raise SimilarityEvalError(f"non-finite similarity at row {i}, column {j}")
    return SimilarityMatrix(values=values)


def check_grad_mode(spec: SimilaritySpec, mode: str):
    """Raise unless :func:`grad_z_matrix` can take ``mode`` gradients of ``spec``."""
    if mode not in GRAD_MODES:
        raise ValueError(f"unknown gradient mode {mode!r}")
    if mode == "analytic" and spec.kind == "blackbox":
        raise UnsupportedGradModeError(f"analytic gradient unavailable for {spec.kind!r} similarity")


def grad_z_matrix(spec: SimilaritySpec, rows, z, mode: str = "analytic", column=None) -> np.ndarray:
    """Stacked gradients d s(rows[i], z) / dz, one row per sample.

    Modes, with their cost in similarity evaluations for n rows in d
    dimensions:
      analytic     closed form; RBF gives 2*gamma*s(x,z)*(x-z) (n
                   evaluations), the dot product gives x (none).
                   Unavailable for black-box scorers.
      approximate  the shift heuristic s(x,z)*(x-z); n evaluations.
      numeric      central finite differences against the 2*d shifted
                   prototypes z +- h*e_p; 2*d*n evaluations.

    Every similarity value comes from one :func:`sim_matrix` call.
    ``column``, when given, holds the already evaluated similarities
    s(rows[i], z); the analytic RBF and approximate modes use it instead
    and cost no evaluations.
    """
    check_grad_mode(spec, mode)
    rows = _as_2d(rows)
    z = np.asarray(z, dtype=float)
    if mode == "numeric":
        # Step scaled to the prototype magnitude.
        h = 1e-6 * max(1.0, float(np.max(np.abs(z), initial=0.0)))
        shift = h * np.eye(z.size)
        S = sim_matrix(spec, rows, np.vstack([z + shift, z - shift])).values
        # Finite values can still difference to inf; callers reject
        # non-finite gradients.
        with np.errstate(over="ignore", invalid="ignore"):
            return (S[:, : z.size] - S[:, z.size :]) / (2.0 * h)
    if mode == "analytic" and spec.kind == "linear":
        return rows.copy()
    if column is None:
        column = sim_matrix(spec, rows, z[None, :]).values[:, 0]
    if mode == "analytic":
        return 2.0 * spec.gamma * column[:, None] * (rows - z)
    return column[:, None] * (rows - z)
