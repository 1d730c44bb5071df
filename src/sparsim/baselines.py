"""Comparison methods that select prototypes from the training data and
then fit the linear part separately (no prototype optimization)."""

import numpy as np
from scipy.linalg import lapack
from scipy.spatial.distance import cdist

from . import ridge
from . import similarity as sim
from .datatypes import Dataset, SparseModel, check_size
from .errors import ConvergenceError

# Cholesky pivot share of its Gram diagonal below which a lasso column is dependent.
DEPENDENT_RTOL = 1e-12
# Path events after which the lasso homotopy stops, optimal or not.
MAX_PATH_EVENTS = 10_000
# Rows of the distance matrix that set_median_index holds at a time.
MEDIAN_BLOCK_ROWS = 256
# Rows of the full baselines' similarity matrix that one sim_matrix call scores.
GRAM_BLOCK_ROWS = 64


def set_median_index(X) -> int:
    """Index of the sample minimizing the summed distance to all samples;
    the distances are summed ``MEDIAN_BLOCK_ROWS`` rows at a time, so memory
    stays O(n), not O(n^2)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    sums = [cdist(X[i : i + MEDIAN_BLOCK_ROWS], X).sum(axis=1) for i in range(0, len(X), MEDIAN_BLOCK_ROWS)]
    return int(np.argmin(np.concatenate(sums)))


def _gram(spec: sim.SimilaritySpec, X, out=None) -> np.ndarray:
    """The n x n similarity matrix of X with itself, exactly symmetric,
    written into ``out`` (an n x n float array) when given.

    Each block of ``GRAM_BLOCK_ROWS`` rows is scored by one
    :func:`sim_matrix` call against the rows from its own first row on and
    mirrored below the diagonal: sum_b (i1 - i0)(n - i0) evaluations, about
    n^2/2 + 32 n instead of n^2, holding one block beyond the matrix.
    """
    n = len(X)
    S = np.empty((n, n)) if out is None else out
    for i0 in range(0, n, GRAM_BLOCK_ROWS):
        i1 = min(i0 + GRAM_BLOCK_ROWS, n)
        block = sim.sim_matrix(spec, X[i0:i1], X[i0:]).values
        S[i0:i1, i0:] = block
        S[i1:, i0:i1] = block[:, i1 - i0 :].T
        # the diagonal block's lower triangle from its upper one
        diagonal, below = S[i0:i1, i0:i1], np.tri(i1 - i0, k=-1, dtype=bool)
        diagonal[below] = diagonal.T[below]
    return S


def ps_random(data: Dataset, m: int, seed: int) -> np.ndarray:
    """m indices drawn uniformly without replacement."""
    return np.random.default_rng(seed).choice(data.n, size=m, replace=False)


def ps_border(data: Dataset, m: int) -> np.ndarray:
    """The m samples farthest from the set median (the data frontier)."""
    med = set_median_index(data.features)
    dist = np.linalg.norm(data.features - data.features[med], axis=1)
    return np.argsort(-dist, kind="stable")[:m]


def ps_spanning(data: Dataset, m: int) -> np.ndarray:
    """Farthest-point traversal seeded at the set median.

    After the median, each pick maximizes the distance to the closest
    already-selected sample.
    """
    X = data.features
    selected = [set_median_index(X)]
    min_dist = np.linalg.norm(X - X[selected[0]], axis=1)
    for _ in range(m - 1):
        min_dist[selected] = -np.inf
        nxt = int(np.argmax(min_dist))
        selected.append(nxt)
        min_dist = np.minimum(min_dist, np.linalg.norm(X - X[nxt], axis=1))
    return np.array(selected)


def _lloyd(X, k, rng):
    n = X.shape[0]
    centers = X[rng.choice(n, size=k, replace=False)]
    for _ in range(50):
        d2 = cdist(X, centers, "sqeuclidean")
        assign = d2.argmin(axis=1)
        for c in range(k):  # empty cluster: restart it at the worst-served point
            if not np.any(assign == c):
                worst = int(np.argmax(d2[np.arange(n), assign]))
                centers[c] = X[worst]
                assign[worst] = c
                d2[:, c] = cdist(X, centers[c : c + 1], "sqeuclidean")[:, 0]
        new_centers = np.stack([X[assign == c].mean(axis=0) for c in range(k)])
        if np.array_equal(new_centers, centers):
            break
        centers = new_centers
    d2 = cdist(X, centers, "sqeuclidean")
    assign = d2.argmin(axis=1)
    inertia = float(d2[np.arange(n), assign].sum())
    return assign, inertia


def ps_kmedians(data: Dataset, m: int, seed: int) -> np.ndarray:
    """Cluster with seeded k-means (5 restarts), keep each cluster's set median."""
    X = data.features
    distinct = np.unique(X, axis=0).shape[0]
    if distinct < m:
        raise ValueError(f"cannot form m={m} clusters from {distinct} distinct rows")
    children = np.random.SeedSequence(seed).spawn(5)
    best_assign, best_inertia = None, np.inf
    for child in children:
        assign, inertia = _lloyd(X, m, np.random.default_rng(child))
        if inertia < best_inertia:
            best_assign, best_inertia = assign, inertia
    indices = []
    for c in range(m):
        members = np.flatnonzero(best_assign == c)
        indices.append(members[set_median_index(X[members])])
    return np.array(indices)


SELECTORS = {"random": ps_random, "border": ps_border, "spanning": ps_spanning, "kmedians": ps_kmedians}
SEEDED_KINDS = ("random", "kmedians")  # the selectors that take baseline_pipeline's seed


def _full_ridge(data, lam, spec):
    """(beta, bias) of the ridge over all n training rows, in two (n+1)^2
    arrays allocated once: M = A'A + lam (one SYRK product) and a flat work
    buffer that holds in turn S (the Gram, in its first n rows of n), A' =
    [S sqrt(u); sqrt(u)'] (S scaled in place: S is exactly symmetric, so
    this is weighted_design's A' bit for bit) and M's Cholesky factor.
    Both are freed on return, before the model is built."""
    n, u = data.n, data.weights
    work = np.empty((n + 1) ** 2)
    At = work[: (n + 1) * n].reshape(n + 1, n)
    S = _gram(spec, data.features, out=At[:n])
    rhs = ridge.design_rhs(S, u, data.targets)
    np.sqrt(u, out=At[n])
    S *= At[n]
    return ridge.solve(ridge.normal_matrix(At, lam), rhs, work=work)


def kernel_ridge_full(data: Dataset, lam: float, spec: sim.SimilaritySpec) -> SparseModel:
    """Ridge regression in similarity space over all n training prototypes,
    on :func:`_gram`'s similarities (a black-box scorer is asked for as
    many) and in :func:`_full_ridge`'s two (n+1)^2 arrays."""
    ridge.check_lam(lam)  # before any O(n^2) work
    beta, bias = _full_ridge(data, lam, spec)
    return SparseModel(
        prototypes=data.features, beta=beta, bias=bias, similarity=spec, metadata={"method": "ridge", "lam": lam}
    )


def baseline_pipeline(
    data: Dataset, kind: str, m: int, lam: float, spec: sim.SimilaritySpec, seed: int = 0
) -> SparseModel:
    """Select m prototypes by the ``SELECTORS`` kind, freeze them, fit the
    linear part; only the ``SEEDED_KINDS`` read ``seed``.

    The returned prototypes are rows of the training features, never
    virtual points.
    """
    if kind not in SELECTORS:
        raise ValueError(f"unknown selection kind {kind!r}")
    check_size(m, data.n)
    ridge.check_lam(lam)  # before any selection or similarity work
    idx = SELECTORS[kind](data, m, *((seed,) if kind in SEEDED_KINDS else ()))
    protos = data.features[idx]
    # S, A' and M are each about n x m doubles: S goes when weighted_design
    # returns and A' once M is formed, so no more than two live at once
    S = sim.sim_matrix(spec, data.features, protos).values
    At, rhs = ridge.weighted_design(S, data.weights, data.targets, lam)
    del S
    M = ridge.normal_matrix(At, lam)
    del At
    beta, bias = ridge.solve(M, rhs)
    metadata = {"method": kind, "indices": [int(i) for i in idx], "lam": lam}
    return SparseModel(prototypes=protos, beta=beta, bias=bias, similarity=spec, metadata=metadata)


def lasso_kkt_residuals(S, weights, targets, beta, bias, lam1):
    """Subgradient violations, one per coefficient plus the intercept."""
    r = targets - S @ beta - bias
    corr = 2.0 * (weights * r) @ S
    coef = np.where(
        beta != 0, np.abs(corr - lam1 * np.sign(beta)), np.maximum(0.0, np.abs(corr) - lam1)
    )
    return np.append(coef, abs(2.0 * np.sum(weights * r)))


def lasso_similarity(
    data: Dataset,
    lam1: float,
    spec: sim.SimilaritySpec,
    tol: float = 1e-6,
) -> SparseModel:
    """L1-penalized least squares over all training prototypes.

    One exact LARS-lasso homotopy (Osborne, Presnell & Turlach 2000; Efron et
    al. 2004) on the similarities from :func:`_gram`, not standardized.
    Weighted centering eliminates the unpenalized intercept, so the path
    runs on G = A'A and c = A'(sqrt(u)*(y - ybar)) for A = sqrt(u)*(S - sbar),
    computed once.  From lambda_max = max|2c| down to lam1 the active
    coefficients move along w = G_AA^-1 s / 2 until the next event: an
    inactive correlation 2(c - G beta) reaching +-lambda (entry), an active
    coefficient reaching zero (drop), or lam1 (stop).  The active block's
    Cholesky factor grows by one triangular solve per entry and is
    re-factored after a drop (LAPACK dpotrs/dtrtrs/dpotrf, called directly),
    so with k active columns an event costs O(n k) correlations and O(k^2)
    solves and growth, plus O(k^3) for a drop.  A column dependent on the
    active ones is not admitted, and a newcomer whose direction opposes its
    sign is a drop at step zero; both are barred on that side until the
    next event.

    The path stops after ``MAX_PATH_EVENTS`` events.  A failed factorization
    or solve raises a ConvergenceError naming the event and lambda, and so
    does a result whose worst optimality residual exceeds ``tol``: a
    non-optimal solution is never returned.  Only prototypes with nonzero
    coefficients are kept (one zero-coefficient prototype remains in the
    all-zero case so the model stays valid).
    """
    ridge.check_lam(lam1, "lam1")
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    S = _gram(spec, data.features)
    u, y, n = data.weights, data.targets, data.n
    ybar = float(u @ y / np.sum(u))
    sbar = u @ S / np.sum(u)
    root_u = np.sqrt(u)
    A = S - sbar
    A *= root_u[:, None]
    G, c = A.T @ A, A.T @ (root_u * (y - ybar))
    del A
    # the first k entries of active and signs are the active set in path
    # order, rows holds G's rows of it, and chol is the lower Cholesky factor
    # of G_AA in that order; wb holds [w; beta_A] as a contiguous (2, k) block
    beta, rows, chol = np.zeros(n), np.empty((n, n)), np.empty((0, 0), order="F")
    active, signs, k, barred = np.empty(n, dtype=np.intp), np.empty(n), 0, []
    wb, moves = np.empty(2 * n), np.empty((2, n))
    up, down, enter, drop = np.empty((4, n))
    lam, events, two_c = 2.0 * float(np.max(np.abs(c))), 0, 2.0 * c

    def solved(routine, result):
        x, info = result
        if info:
            raise ConvergenceError(
                f"lasso path event {events} at lambda {lam:.3e}: LAPACK {routine} returned info {info}")
        return x

    with np.errstate(divide="ignore", invalid="ignore"):
        while lam > lam1 and events < MAX_PATH_EVENTS:
            events += 1
            s, idx, drop_a = signs[:k], active[:k], drop[:k]
            w, beta_a = wb_a = wb[: 2 * k].reshape(2, k)
            np.divide(s, 2.0, out=w)
            if k:
                w[:] = solved("dpotrs", lapack.dpotrs(chol, w, lower=1, overwrite_b=1))
            beta.take(idx, out=beta_a)
            # the correlations g = 2(c - G beta) fall by a2 = 2 G w per unit of lambda;
            # up/down are the steps at which they would reach +lambda/-lambda
            a2, g = np.matmul(wb_a, rows[:k], out=moves)
            moves *= 2.0
            np.subtract(two_c, g, out=g)
            np.subtract(lam, g, out=up)
            up /= 1.0 - a2
            up[~(a2 < 1.0)] = np.inf
            np.add(lam, g, out=down)
            down /= 1.0 + a2
            down[~(a2 > -1.0)] = np.inf
            np.negative(beta_a, out=drop_a)
            drop_a /= w
            drop_a[~(w * s < 0)] = np.inf
            np.maximum(drop_a, 0.0, out=drop_a)
            for b, side in barred:
                (up if side > 0 else down)[b] = np.inf
            np.fmin(up, down, out=enter)
            np.maximum(enter, 0.0, out=enter)
            enter[idx] = np.inf
            j, t_drop = int(np.argmin(enter)), drop_a.min(initial=np.inf)
            step = min(lam - lam1, enter[j], t_drop)
            beta[idx] += step * w
            lam = lam1 if step == lam - lam1 else lam - step
            if lam == lam1:
                break
            if step == t_drop:
                i, k = int(np.argmin(drop_a)), k - 1
                barred = [(active[i], signs[i])]
                beta[active[i]] = 0.0
                active[i], signs[i], rows[i] = active[k], signs[k], rows[k]
                # G = A'A is exactly symmetric (numpy forms it by SYRK), so the
                # gathered block's transpose is G_AA itself, in Fortran order
                chol = solved("dpotrf", lapack.dpotrf(rows[:k, active[:k]].T, lower=1, overwrite_a=1))
                continue
            col = solved("dtrtrs", lapack.dtrtrs(chol, rows[:k, j], lower=1)) if k else rows[:0, j]
            pivot = G[j, j] - col @ col
            sign = 1.0 if up[j] <= down[j] else -1.0
            if not pivot > DEPENDENT_RTOL * G[j, j]:
                barred.append((j, sign))
                continue
            # dpotrs and dtrtrs read only the factor's lower triangle
            grown = np.empty((k + 1, k + 1), order="F")
            grown[:k, :k], grown[k, :k], grown[k, k] = chol, col, np.sqrt(pivot)
            chol, rows[k], active[k], signs[k], k = grown, G[j], j, sign, k + 1
            barred = []
    bias = ybar - float(sbar @ beta)
    worst = float(np.max(lasso_kkt_residuals(S, u, y, beta, bias, lam1)))
    if worst > tol:
        raise ConvergenceError(
            f"lasso path stopped at lambda {lam:.3e} (lam1 {lam1:.3e}) after {events} of "
            f"MAX_PATH_EVENTS={MAX_PATH_EVENTS} events, not optimal (worst residual {worst:.3e})"
        )
    keep = np.flatnonzero(beta) if np.any(beta) else np.array([0])
    metadata = {"method": "lasso", "lam1": lam1, "indices": [int(i) for i in keep]}
    return SparseModel(
        prototypes=data.features[keep], beta=beta[keep], bias=bias, similarity=spec, metadata=metadata
    )
