"""Closed-form coefficient step: the (m+1) x (m+1) weighted ridge system.

For fixed prototypes the objective is an ordinary weighted ridge
regression in the similarity features, so the coefficients and bias come
from one symmetric positive-definite system M [coef; bias] = rhs: M is
the Gram matrix of the weighted design A = sqrt(u) * [S, 1] plus lam on
the coefficient diagonal, and :func:`solve` factors it by Cholesky.
:func:`assemble` sums M over row blocks of S; :func:`weighted_design` and
:func:`normal_matrix` form it as one product.  When a single prototype
moves, :func:`update_column` rewrites just its row and column.
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


def check_lam(lam):
    """Raise ValueError unless the ridge penalty ``lam`` is finite and >= 0."""
    if not 0 <= lam < math.inf:
        raise ValueError(f"lam must be finite and >= 0, got {lam}")


def _checked(S, weights, targets, lam):
    """S, weights and targets as float arrays, after checking that their
    lengths agree and that ``lam`` is finite and >= 0."""
    S = np.asarray(S, dtype=float)
    u = np.ravel(np.asarray(weights, dtype=float))
    y = np.ravel(np.asarray(targets, dtype=float))
    n = S.shape[0]
    if u.shape[0] != n or y.shape[0] != n:
        raise ValueError(f"similarities have {n} rows but {u.shape[0]} weights / {y.shape[0]} targets")
    check_lam(lam)
    return S, u, y


def design_rhs(S, u, y):
    """rhs = [S'(u*y); sum(u*y)] for float arrays S (n x m), u and y of n."""
    return np.append(S.T @ (u * y), u @ y)


def _design(S, u, y):
    """A' and rhs for checked float arrays; see :func:`weighted_design`."""
    m = S.shape[1]
    rhs = design_rhs(S, u, y)  # before A, so u * y is freed first
    # A' in one pass: einsum writes sqrt(u) * S' straight into it, bit for
    # bit the broadcast product, without the iteration buffer of numpy's
    # broadcasting ufuncs (64 KiB whatever the block size).
    At = np.empty((m + 1, S.shape[0]))
    np.sqrt(u, out=At[m])
    np.einsum("ij,j->ij", S.T, At[m], out=At[:m])
    return At, rhs


def _block_system(S, u, y):
    """One block's A'A and rhs; its A' is freed on return, before the next
    block's is made."""
    At, rhs = _design(S, u, y)
    return At @ At.T, rhs


def weighted_design(S, weights, targets, lam: float):
    """The transposed weighted design A' = (sqrt(u) * [S, 1])' and
    rhs = A'(sqrt(u)*y) of the normal equations, for similarities S (n x m).
    ``lam`` is checked here although only :func:`normal_matrix` uses it,
    so a bad value fails before any O(nm) work."""
    return _design(*_checked(S, weights, targets, lam))


def normal_matrix(At, lam: float):
    """M = A'A + lam * diag(1, ..., 1, 0), that is [[S'US + lam*I, S'u],
    [u'S, sum(u)]], from :func:`weighted_design`'s ``A'``: one symmetric
    (SYRK) product and so exactly symmetric."""
    matrix = At @ At.T
    matrix.reshape(-1)[: -1 : matrix.shape[0] + 1] += lam  # the first m diagonal entries, with no index array
    return matrix


def assemble(S, weights, targets, lam: float):
    """Normal equations ``(M, rhs)``, M [coef; bias] = rhs, summed over
    blocks of BLOCK_ROWS rows of S, so extra memory is one block's A'.

    Each block adds its own A'_b A'_b' (a SYRK product, exactly symmetric,
    so the sum is too) and its part of rhs; ``lam`` goes on the diagonal
    once, at the end.  Up to BLOCK_ROWS rows this is exactly
    :func:`normal_matrix` of :func:`weighted_design`.
    """
    S, u, y = _checked(S, weights, targets, lam)
    matrix, rhs = _block_system(S[:BLOCK_ROWS], u[:BLOCK_ROWS], y[:BLOCK_ROWS])
    for start in range(BLOCK_ROWS, S.shape[0], BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        block, part = _block_system(S[rows], u[rows], y[rows])
        matrix += block
        rhs += part
    matrix.reshape(-1)[: -1 : matrix.shape[0] + 1] += lam
    return matrix, rhs


def update_column(M, rhs, S, weights, targets, j: int, lam: float):
    """Rewrite, in place, the parts of ``M`` and ``rhs`` that depend on
    column j of S, after that column changed: one O(nm) product instead of
    the O(nm^2) of :func:`assemble`.  The row is recomputed from S, so no
    rounding accumulates over updates, and written to row and column j
    alike, so the matrix stays exactly symmetric.
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
    r = M.dot(x)
    r -= rhs
    return math.sqrt(r.dot(r)) <= tol


def _copied(M, work):
    """M copied into the first M.size doubles of ``work``, as the
    Fortran-ordered transpose that LAPACK factors in place; M is exactly
    symmetric, so that is M itself, bit for bit."""
    square = work[: M.size].reshape(M.shape)
    np.copyto(square, M)
    return square.T


def solve(M, rhs, work=None):
    """Exact minimizer (coefficients, bias) of the ridge objective, by one
    Cholesky factorization and solve (LAPACK ``dposv``); M and rhs are
    never written.

    A solution counts only if the factorization succeeds and
    ||M x - rhs|| <= RESIDUAL_RTOL ||rhs||; otherwise the system is
    numerically singular and gets one diagonal-jitter retry before
    SingularSystemError, which quotes M's condition number (nan for a nan
    M).  ``work`` (at least M.size doubles) holds the copy of M that each
    factorization overwrites; without it ``dposv`` copies M itself, and a
    retry allocates one such buffer.
    """
    # sqrt(v.v) is what np.linalg.norm computes for a vector, minus its dispatch.
    tol = RESIDUAL_RTOL * max(math.sqrt(rhs.dot(rhs)), 1e-300)
    # dposv's own copy is cheaper for a tiny system; a buffer spares a large one an allocation
    if work is None:
        x, info = lapack.dposv(M, rhs)[1:]  # the factor, a copy of M, is dropped at once
    else:
        x, info = lapack.dposv(_copied(M, work), rhs, overwrite_a=1)[1:]
    if not _solved(M, rhs, x, info, tol):
        work = np.empty(M.size) if work is None else work
        jittered, diag = _copied(M, work), np.arange(M.shape[0])
        jittered[diag, diag] += 1e-10 * np.trace(M) / M.shape[0]
        x, info = lapack.dposv(jittered, rhs, overwrite_a=1)[1:]
        if not _solved(M, rhs, x, info, tol):
            # np.linalg.cond's ratio of singular values, from a copy that dgesdd may overwrite
            s, info = lapack.dgesdd(_copied(M, work), compute_uv=0, overwrite_a=1)[1::2]
            high, low = s[[0, -1]].tolist()
            cond = math.nan if info else high / low if low > 0 else math.inf
            raise SingularSystemError(f"coefficient system is numerically singular (cond ~ {cond:.3e})")
    return x[:-1], float(x[-1])
