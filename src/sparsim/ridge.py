"""Closed-form coefficient step: the (m+1) x (m+1) weighted ridge system.

For fixed prototypes the objective is an ordinary weighted ridge
regression in the similarity features, so the coefficients and bias come
from one symmetric positive-definite system: the Gram matrix of
sqrt(u) * [S, 1], solved by Cholesky.  The Gram matrix is a product of
the weighted design A' (:func:`weighted_design`) with its transpose
(:func:`normal_matrix`).  :func:`assemble` sums that product over blocks
of BLOCK_ROWS rows of S, so ``fit`` holds S plus one block of A' instead
of a second n x m array.  The full-similarity ridge (m = n) calls the two
steps itself: one product keeps it at two n^2 arrays, since S can be
freed once A' exists.  When a single prototype moves, only its row and
column change, and :func:`update_column` rewrites just those.
"""

import math

import numpy as np
from scipy.linalg import lapack

from .errors import SingularSystemError

# Acceptable relative residual of a direct solve; beyond it the system
# counts as numerically singular and gets one diagonal-jitter retry.
RESIDUAL_RTOL = 1e-9

# Rows of S per block of assemble's sum: A' for one block is (m+1) x BLOCK_ROWS.
BLOCK_ROWS = 256


def _checked(S, weights, targets, lam):
    """S, weights and targets as float arrays, after checking that their
    lengths agree and that ``lam`` is finite and >= 0."""
    S = np.asarray(S, dtype=float)
    u = np.ravel(np.asarray(weights, dtype=float))
    y = np.ravel(np.asarray(targets, dtype=float))
    n = S.shape[0]
    if u.shape[0] != n or y.shape[0] != n:
        raise ValueError(f"similarities have {n} rows but {u.shape[0]} weights / {y.shape[0]} targets")
    if not 0 <= lam < math.inf:
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    return S, u, y


def _design(S, u, y):
    """A' and rhs for checked float arrays; see :func:`weighted_design`."""
    m = S.shape[1]
    rhs = np.append(S.T @ (u * y), u @ y)  # before A, so u * y is freed first
    # A' row by row: copying S' in takes no numpy iteration buffer, and the
    # in-place scale only a fixed-size one, whatever the number of rows.
    At = np.empty((m + 1, S.shape[0]))
    np.sqrt(u, out=At[m])
    At[:m] = S.T
    At[:m] *= At[m]
    return At, rhs


def _block_system(S, u, y):
    """One block's A'A and rhs; its A' is freed on return, before the next
    block's is made."""
    At, rhs = _design(S, u, y)
    return At @ At.T, rhs


def weighted_design(S, weights, targets, lam: float):
    """The transposed weighted design ``A'`` and right-hand side ``rhs``
    of the normal equations, from the similarity array S (n x m), weights
    and targets.

    A = sqrt(u) * [S, 1] and rhs = [S'(u*y); sum(u*y)] = A'(sqrt(u)*y).
    ``lam`` is checked here although only :func:`normal_matrix` uses it,
    so a bad value fails before any O(nm) work.
    """
    return _design(*_checked(S, weights, targets, lam))


def normal_matrix(At, lam: float):
    """M = A'A + lam * diag(1, ..., 1, 0), that is [[S'US + lam*I, S'u],
    [u'S, sum(u)]], from :func:`weighted_design`'s ``A'``: one symmetric
    (SYRK) product and so exactly symmetric."""
    matrix = At @ At.T
    diag = np.arange(At.shape[0] - 1)
    matrix[diag, diag] += lam
    return matrix


def assemble(S, weights, targets, lam: float):
    """Normal equations ``(M, rhs)``, M [coef; bias] = rhs, summed over
    blocks of BLOCK_ROWS rows of S.

    The inputs and ``lam`` are checked once, before any block.  Each block
    adds its own A'_b A'_b' (a SYRK product, exactly symmetric, so the
    sum is too) and its part of rhs; ``lam`` goes on the diagonal once, at
    the end.  Extra memory is one block's A', not a copy of S.  The first
    block's product is assigned, so up to BLOCK_ROWS rows this is exactly
    :func:`normal_matrix` of :func:`weighted_design`.
    """
    S, u, y = _checked(S, weights, targets, lam)
    matrix, rhs = _block_system(S[:BLOCK_ROWS], u[:BLOCK_ROWS], y[:BLOCK_ROWS])
    for start in range(BLOCK_ROWS, S.shape[0], BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        block, part = _block_system(S[rows], u[rows], y[rows])
        matrix += block
        rhs += part
    diag = np.arange(S.shape[1])
    matrix[diag, diag] += lam
    return matrix, rhs


def update_column(M, rhs, S, weights, targets, j: int, lam: float):
    """Rewrite, in place, the parts of ``M`` and ``rhs`` that depend on
    column j of S, after that column changed.

    One O(nm) product instead of the O(nm^2) of :func:`assemble`.  The
    row is recomputed from S, so no rounding accumulates over updates, and
    written to row and column j alike, so the matrix stays exactly symmetric.
    """
    m = rhs.shape[0] - 1
    uc = weights * S[:, j]
    M[j, :m] = M[:m, j] = S.T.dot(uc)  # .dot: @'s BLAS call without its dispatch
    M[j, j] += lam
    M[j, m] = M[m, j] = np.add.reduce(uc)
    rhs[j] = uc.dot(targets)


def _solved(M, rhs, x, info, tol) -> bool:
    """Whether a ``dposv`` result counts: the factorization succeeded, x is
    finite and its residual against the unjittered M does not exceed ``tol``."""
    if info != 0 or not np.logical_and.reduce(np.isfinite(x)):
        return False
    r = M.dot(x) - rhs
    return math.sqrt(r.dot(r)) <= tol


def solve(M, rhs):
    """Exact minimizer (coefficients, bias) of the ridge objective.

    One Cholesky factorization and solve (LAPACK ``dposv``).  A solution
    only counts if the factorization succeeds and its residual against the
    original matrix satisfies ||M x - rhs|| <= RESIDUAL_RTOL ||rhs||;
    otherwise the system is treated as numerically singular (not positive
    definite, or condition number beyond roughly 1/RESIDUAL_RTOL) and gets
    one diagonal-jitter retry, on M's own diagonal restored exactly after,
    before raising SingularSystemError.  M comes back byte-unchanged.
    """
    # sqrt(v.v) is what np.linalg.norm computes for a vector, minus its dispatch.
    tol = RESIDUAL_RTOL * max(math.sqrt(rhs.dot(rhs)), 1e-300)
    x, info = lapack.dposv(M, rhs)[1:]  # the factor, a copy of M, is dropped at once
    if not _solved(M, rhs, x, info, tol):
        diag = np.arange(M.shape[0])
        saved = M[diag, diag]
        M[diag, diag] += 1e-10 * np.trace(M) / M.shape[0]
        x, info = lapack.dposv(M, rhs)[1:]
        M[diag, diag] = saved
        if not _solved(M, rhs, x, info, tol):
            cond = np.linalg.cond(M)
            raise SingularSystemError(f"coefficient system is numerically singular (cond ~ {cond:.3e})")
    return x[:-1], float(x[-1])
