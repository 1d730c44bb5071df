"""Similarity functions, their prototype gradients, and similarity matrices.

Two kinds: an RBF kernel ``s(a, b) = exp(-gamma * ||a - b||^2)`` and
black-box scorers, block functions carried by the spec (see
:func:`pairwise` and :mod:`sparsim.dataio`).  :func:`sim_matrix`
computes and counts every similarity value, so that test-time cost is
measured exactly; :func:`grad_z_sum` takes its values from it.
"""

import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.spatial.distance import cdist

from .errors import BlackboxError, SimilarityEvalError, UnsupportedGradModeError

KINDS = ("rbf", "blackbox")
GRAD_MODES = ("analytic", "approximate", "numeric")
_FLOAT64 = np.dtype(np.float64)


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
    """Evaluate s(a, b) as the 1x1 :func:`sim_matrix` block.  Symmetric for all supported kinds."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"expected equal-length vectors, got shapes {a.shape} and {b.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("similarity arguments must be finite")
    return float(sim_matrix(spec, a, b).values[0, 0])


def _as_2d(x) -> np.ndarray:
    """``x`` as a two-dimensional float array: a 2-D float64 ndarray as it
    is, with no conversion call, and ``np.atleast_2d`` only below two
    dimensions."""
    if type(x) is np.ndarray and x.ndim == 2 and x.dtype is _FLOAT64:
        return x
    x = np.asarray(x, dtype=float)
    if x.ndim == 2:
        return x
    if x.ndim > 2:
        raise ValueError(f"expected at most two dimensions, got shape {x.shape}")
    return np.atleast_2d(x)


def sim_matrix(spec: SimilaritySpec, rows, protos) -> SimilarityMatrix:
    """Matrix of similarities s(rows[i], protos[j]).

    Every similarity value is computed here, and only here added to the
    evaluation counter (k*m per block).  A black-box scorer is called once
    per block.  A non-finite value is reported with its (row, column).

    The RBF block sums the exact squared differences (a_p - b_p)^2 in
    ``cdist``, with no ||a||^2 + ||b||^2 - 2 a.b expansion to cancel, and
    exponentiates in place; the finiteness check sums the block, so the
    result is its only (k, m) array, whatever d is.  The RBF block is a
    prototype-major (Fortran-ordered) view, ``cdist(protos, rows).T``:
    (a - b)^2 == (b - a)^2, so its values are those of
    ``cdist(rows, protos)`` bit for bit, but ``cdist``'s inner loop then
    runs over the k rows, not over the m prototypes, which is much faster
    when m is small, as in the paper's models.  A caller whose BLAS
    products must round as on a row-major S copies the block into one
    (:func:`sparsim.training.fit` does).
    """
    rows = _as_2d(rows)
    protos = _as_2d(protos)
    if rows.shape[1] != protos.shape[1]:
        raise ValueError(
            f"dimension mismatch: rows have {rows.shape[1]} columns, prototypes {protos.shape[1]}"
        )
    k, m = rows.shape[0], protos.shape[0]
    if spec.kind == "rbf":
        values = cdist(protos, rows, "sqeuclidean").T
        values *= -spec.gamma
        np.exp(values, out=values)
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
    # A non-finite value makes the sum non-finite, so a finite sum passes
    # the block without a (k, m) mask.  RBF values lie in [0, 1] and cannot
    # overflow it; a scorer's finite values can, so a non-finite sum builds
    # the mask to find the bad entry, and only a block without one passes.
    if spec.kind == "rbf":
        total = np.add.reduce(values, axis=None)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.add.reduce(values, axis=None)
    if not math.isfinite(total):
        bad = np.argwhere(~np.isfinite(values))
        if bad.size:
            i, j = bad[0]
            raise SimilarityEvalError(f"non-finite similarity at row {i}, column {j}")
    return SimilarityMatrix(values=values)


def check_grad_mode(spec: SimilaritySpec, mode: str):
    """Raise unless :func:`grad_z_sum` can take ``mode`` gradients of ``spec``."""
    if mode not in GRAD_MODES:
        raise ValueError(f"unknown gradient mode {mode!r}")
    if mode == "analytic" and spec.kind == "blackbox":
        raise UnsupportedGradModeError(f"analytic gradient unavailable for {spec.kind!r} similarity")


def grad_z_sum(spec: SimilaritySpec, rows, z, weights, mode: str = "analytic", column=None) -> np.ndarray:
    """Weighted sum of gradients sum_i weights[i] * d s(rows[i], z) / dz, a
    d-vector; ``weights=None`` is ``np.ones`` weights, bit for bit.

    The modes, with their cost in similarity evaluations for n rows in d
    dimensions: ``analytic`` is the RBF closed form, X'c - z*sum(c) with
    c = 2*gamma*weights*s(x,z) (n evaluations), and black-box scorers have
    none; ``approximate`` is the shift heuristic s(x,z)*(x-z), summed the
    same way with c = weights*s(x,z) (n evaluations); ``numeric`` takes
    central finite differences against the 2*d shifted prototypes
    z +- h*e_p (2*d*n evaluations), and is the only mode to build an (n, d)
    array.  Every similarity value comes from one :func:`sim_matrix` call;
    ``column``, the already evaluated s(rows[i], z), spares the analytic
    and approximate modes theirs.  A mode that :func:`check_grad_mode`
    refuses for ``spec`` raises before any evaluation.
    """
    rows = _as_2d(rows)
    z = np.asarray(z, dtype=float)
    if mode == "approximate" or mode == "analytic" and spec.kind == "rbf":
        if column is None:
            column = sim_matrix(spec, rows, z[None, :]).values[:, 0]
        if weights is None:
            c = column * (2.0 * spec.gamma) if mode == "analytic" else column
        else:
            c = weights * column
            if mode == "analytic":
                c *= 2.0 * spec.gamma  # c is this call's own array
        return c.dot(rows) - z * np.add.reduce(c)  # .dot: @'s BLAS call without its dispatch
    # Only the numeric mode is left valid.
    check_grad_mode(spec, mode)
    weights = np.ones(rows.shape[0]) if weights is None else weights
    # Step scaled to the prototype magnitude.
    h = 1e-6 * max(1.0, float(np.max(np.abs(z), initial=0.0)))
    shift = h * np.eye(z.size)
    S = sim_matrix(spec, rows, np.vstack([z + shift, z - shift])).values
    # Finite values can still difference to inf; reject those before
    # the contraction turns them into nan.  D is row-major whatever S's
    # layout, so the contraction's GEMV rounds alike for every kind.
    with np.errstate(over="ignore", invalid="ignore"):
        D = np.subtract(S[:, : z.size], S[:, z.size :], order="C")
        D /= 2.0 * h
    if not np.logical_and.reduce(np.isfinite(D), axis=None):
        raise SimilarityEvalError("non-finite finite-difference similarity gradient")
    return weights @ D
