"""Closed-form coefficient step: the (m+1) x (m+1) weighted ridge system.

For fixed prototypes the objective is an ordinary weighted ridge
regression in the similarity features, so the coefficients and bias come
from one symmetric linear solve.  When a single prototype moves, only its
row and column of the system change, and :func:`update_column` rewrites
just those.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularSystemError

# Acceptable relative residual of a direct solve; beyond it the system
# counts as numerically singular and gets one diagonal-jitter retry.
RESIDUAL_RTOL = 1e-9


@dataclass(frozen=True)
class RidgeSystem:
    """Normal equations M [coef; bias] = rhs for the similarity features."""

    matrix: np.ndarray  # (m+1, m+1), symmetric
    rhs: np.ndarray  # (m+1,)

    @property
    def m(self) -> int:
        return self.rhs.shape[0] - 1


def assemble(S, weights, targets, lam: float) -> RidgeSystem:
    """Build the system from similarities S (n x m), weights and targets.

    Block structure: [[S'US + lam*I, S'u], [u'S, sum(u)]] with right-hand
    side [S'(u*y); sum(u*y)].
    """
    S = np.asarray(getattr(S, "values", S), dtype=float)
    u = np.ravel(np.asarray(weights, dtype=float))
    y = np.ravel(np.asarray(targets, dtype=float))
    n, m = S.shape
    if u.shape[0] != n or y.shape[0] != n:
        raise ValueError(f"similarities have {n} rows but {u.shape[0]} weights / {y.shape[0]} targets")
    if not 0 <= lam < math.inf:
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    uS = u[:, None] * S
    matrix = np.empty((m + 1, m + 1))
    matrix[:m, :m] = S.T @ uS
    diag = np.arange(m)
    matrix[diag, diag] += lam
    matrix[:m, m] = uS.sum(axis=0)
    matrix[m, :m] = matrix[:m, m]
    matrix[m, m] = u.sum()
    uy = u * y
    rhs = np.empty(m + 1)
    rhs[:m] = S.T @ uy
    rhs[m] = uy.sum()
    return RidgeSystem(matrix=matrix, rhs=rhs)


def update_column(system: RidgeSystem, S, weights, targets, j: int, lam: float):
    """Rewrite, in place, the parts of ``system`` that depend on column j
    of S, after that column changed.

    One O(nm) product instead of the O(nm^2) of :func:`assemble`.  The
    row is recomputed from S, so no rounding accumulates over updates.
    """
    M, m = system.matrix, system.m
    uc = weights * S[:, j]
    M[j, :m] = M[:m, j] = S.T @ uc
    M[j, j] += lam
    M[j, m] = M[m, j] = uc.sum()
    system.rhs[j] = uc @ targets


def solve(system: RidgeSystem):
    """Exact minimizer (coefficients, bias) of the ridge objective.

    A solution only counts if its residual against the original matrix
    satisfies ||M x - rhs|| <= RESIDUAL_RTOL ||rhs||; otherwise the system
    is treated as numerically singular (condition number beyond roughly
    1/RESIDUAL_RTOL) and gets one diagonal-jitter retry before raising
    SingularSystemError.
    """
    M, rhs = system.matrix, system.rhs
    # sqrt(v.v) is what np.linalg.norm computes for a vector, minus its dispatch.
    tol = RESIDUAL_RTOL * max(math.sqrt(rhs.dot(rhs)), 1e-300)

    def attempt(mat):
        try:
            x = np.linalg.solve(mat, rhs)
        except np.linalg.LinAlgError:
            return None
        if not np.isfinite(x).all():
            return None
        # Residual measured against the original, unjittered matrix.
        r = M @ x - rhs
        if math.sqrt(r.dot(r)) > tol:
            return None
        return x

    x = attempt(M)
    if x is None:
        jitter = 1e-10 * np.trace(M) / M.shape[0]
        x = attempt(M + jitter * np.eye(M.shape[0]))
    if x is None:
        cond = np.linalg.cond(M)
        raise SingularSystemError(
            f"coefficient system is numerically singular (cond ~ {cond:.3e})"
        )
    return x[:-1], float(x[-1])
