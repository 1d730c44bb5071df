"""Comparison methods that select prototypes from the training data and
then fit the linear part separately (no prototype optimization)."""

from dataclasses import dataclass

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


@dataclass(frozen=True)
class SelectionMethod:
    kind: str
    m: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SELECTORS:
            raise ValueError(f"unknown selection kind {self.kind!r}")
        if not isinstance(self.m, (int, np.integer)) or self.m < 1:
            raise ValueError(f"m must be an integer >= 1, got {self.m!r}")


def set_median_index(X) -> int:
    """Index of the sample minimizing the summed distance to all samples;
    the distances are summed ``MEDIAN_BLOCK_ROWS`` rows at a time, so memory
    stays O(n), not O(n^2)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    sums = [cdist(X[i : i + MEDIAN_BLOCK_ROWS], X).sum(axis=1) for i in range(0, len(X), MEDIAN_BLOCK_ROWS)]
    return int(np.argmin(np.concatenate(sums)))


def ps_random(data: Dataset, m: int, seed: int) -> np.ndarray:
    """m indices drawn uniformly without replacement."""
    check_size(m, data.n)
    return np.random.default_rng(seed).choice(data.n, size=m, replace=False)


def ps_border(data: Dataset, m: int) -> np.ndarray:
    """The m samples farthest from the set median (the data frontier)."""
    check_size(m, data.n)
    med = set_median_index(data.features)
    dist = np.linalg.norm(data.features - data.features[med], axis=1)
    return np.argsort(-dist, kind="stable")[:m]


def ps_spanning(data: Dataset, m: int) -> np.ndarray:
    """Farthest-point traversal seeded at the set median.

    After the median, each pick maximizes the distance to the closest
    already-selected sample.
    """
    check_size(m, data.n)
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
    check_size(m, data.n)
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
SEEDED_KINDS = ("random", "kmedians")  # the selectors that read SelectionMethod.seed


def _ridge_model(data, protos, lam, spec, metadata):
    S = sim.sim_matrix(spec, data.features, protos).values
    beta, bias = ridge.solve(*ridge.assemble(S, data.weights, data.targets, lam))
    return SparseModel(prototypes=protos, beta=beta, bias=bias, similarity=spec, metadata=metadata)


def kernel_ridge_full(data: Dataset, lam: float, spec: sim.SimilaritySpec) -> SparseModel:
    """Ridge regression in similarity space over all n training prototypes."""
    return _ridge_model(data, data.features, lam, spec, {"method": "ridge", "lam": lam})


def baseline_pipeline(
    data: Dataset, method: SelectionMethod, lam: float, spec: sim.SimilaritySpec
) -> SparseModel:
    """Select prototypes by the given method, freeze them, fit the linear part.

    The returned prototypes are rows of the training features, never
    virtual points.
    """
    seed = (method.seed,) if method.kind in SEEDED_KINDS else ()
    idx = SELECTORS[method.kind](data, method.m, *seed)
    metadata = {"method": method.kind, "indices": [int(i) for i in idx], "lam": lam}
    return _ridge_model(data, data.features[idx], lam, spec, metadata)


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
    al. 2004).  The unpenalized, weighted intercept is eliminated by weighted
    centering, so the path runs on G = A'A and c = A'(sqrt(u)*(y - ybar)) for
    A = sqrt(u)*(S - sbar), computed once; the similarity features are not
    standardized.  From lambda_max = max|2c| down to lam1 the active
    coefficients move along w = G_AA^-1 s / 2 until the next event: an
    inactive correlation 2(c - G beta) reaching +-lambda (entry), an active
    coefficient reaching zero (drop), or lam1 (stop).  The active block's
    Cholesky factor grows by one triangular solve per entry and is re-factored
    after a drop (LAPACK dpotrs/dtrtrs/dpotrf, called directly), so with k
    active columns an event costs O(n k) correlations and O(k^2) solves and
    growth, plus O(k^3) for a drop.  A column dependent on the active ones is
    not admitted, and a newcomer whose direction opposes its sign is a drop at
    step zero; both are barred on that side until the next event.

    The path stops after ``MAX_PATH_EVENTS`` events.  A failed
    factorization or solve raises a ConvergenceError naming the event and
    lambda.  The result is checked once against the optimality conditions
    and a ConvergenceError naming the worst residual is raised if it exceeds
    ``tol``: a non-optimal solution is never returned.  Only prototypes with
    nonzero coefficients are kept (one zero-coefficient prototype remains in
    the all-zero case so the model stays valid).
    """
    if not 0 <= lam1 < np.inf:
        raise ValueError(f"lam1 must be finite and >= 0, got {lam1}")
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    S = sim.sim_matrix(spec, data.features, data.features).values
    u, y, n = data.weights, data.targets, data.n
    ybar = float(u @ y / np.sum(u))
    sbar = u @ S / np.sum(u)
    root_u = np.sqrt(u)
    A = S - sbar
    A *= root_u[:, None]
    G, c = A.T @ A, A.T @ (root_u * (y - ybar))
    del A
    # rows holds G's rows of the active set in active order; chol is the
    # lower Cholesky factor of G_AA in that order
    beta, rows, chol = np.zeros(n), np.empty((n, n)), np.empty((0, 0), order="F")
    active, signs, barred = [], [], []
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
            k, s, idx = len(active), np.array(signs), np.array(active, dtype=np.intp)
            w = solved("dpotrs", lapack.dpotrs(chol, s / 2.0, lower=1, overwrite_b=1)) if k else s / 2.0
            # the correlations g = 2(c - G beta) fall by a2 = 2 G w per unit of lambda;
            # up/down are the steps at which they would reach +lambda/-lambda
            beta_a = beta[idx]
            a2, g = 2.0 * (np.vstack([w, beta_a]) @ rows[:k])
            g = two_c - g
            up = np.where(a2 < 1.0, (lam - g) / (1.0 - a2), np.inf)
            down = np.where(a2 > -1.0, (lam + g) / (1.0 + a2), np.inf)
            drop = np.where(w * s < 0, -beta_a / w, np.inf).clip(min=0.0)
            for b, side in barred:
                (up if side > 0 else down)[b] = np.inf
            enter = np.maximum(np.fmin(up, down), 0.0)
            enter[idx] = np.inf
            j, t_drop = int(np.argmin(enter)), drop.min(initial=np.inf)
            step = min(lam - lam1, enter[j], t_drop)
            beta[idx] += step * w
            lam = lam1 if step == lam - lam1 else lam - step
            if lam == lam1:
                break
            if step == t_drop:
                i = int(np.argmin(drop))
                barred = [(active[i], signs[i])]
                beta[active[i]] = 0.0
                active[i], signs[i], rows[i] = active[-1], signs[-1], rows[k - 1]
                del active[-1], signs[-1]
                # G = A'A is exactly symmetric (numpy forms it by SYRK), so the
                # gathered block's transpose is G_AA itself, in Fortran order
                chol = solved("dpotrf", lapack.dpotrf(rows[: k - 1, active].T, lower=1, overwrite_a=1))
                continue
            col = solved("dtrtrs", lapack.dtrtrs(chol, rows[:k, j], lower=1)) if k else rows[:0, j]
            pivot = G[j, j] - col @ col
            sign = 1.0 if up[j] <= down[j] else -1.0
            if not pivot > DEPENDENT_RTOL * G[j, j]:
                barred.append((j, sign))
                continue
            grown = np.zeros((k + 1, k + 1), order="F")
            grown[:k, :k], grown[k, :k], grown[k, k] = chol, col, np.sqrt(pivot)
            chol, rows[k] = grown, G[j]
            active.append(j)
            signs.append(sign)
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
