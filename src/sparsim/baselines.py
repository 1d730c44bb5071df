"""Comparison methods that select prototypes from the training data and
then fit the linear part separately (no prototype optimization)."""

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from . import ridge
from . import similarity as sim
from .datatypes import Dataset, SparseModel
from .errors import ConvergenceError, SingularSystemError

SELECTION_KINDS = ("random", "border", "spanning", "kmedians")


@dataclass(frozen=True)
class SelectionMethod:
    kind: str
    m: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SELECTION_KINDS:
            raise ValueError(f"unknown selection kind {self.kind!r}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")


def set_median_index(X) -> int:
    """Index of the sample minimizing the summed distance to all samples."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return int(np.argmin(cdist(X, X).sum(axis=1)))


def ps_random(data: Dataset, m: int, seed: int) -> np.ndarray:
    """m indices drawn uniformly without replacement."""
    _check_m(data, m)
    return np.random.default_rng(seed).choice(data.n, size=m, replace=False)


def ps_border(data: Dataset, m: int) -> np.ndarray:
    """The m samples farthest from the set median (the data frontier)."""
    _check_m(data, m)
    med = set_median_index(data.features)
    dist = np.linalg.norm(data.features - data.features[med], axis=1)
    return np.argsort(-dist, kind="stable")[:m]


def ps_spanning(data: Dataset, m: int) -> np.ndarray:
    """Farthest-point traversal seeded at the set median.

    After the median, each pick maximizes the distance to the closest
    already-selected sample.
    """
    _check_m(data, m)
    X = data.features
    selected = [set_median_index(X)]
    min_dist = np.linalg.norm(X - X[selected[0]], axis=1)
    for _ in range(m - 1):
        min_dist[selected] = -np.inf
        nxt = int(np.argmax(min_dist))
        selected.append(nxt)
        min_dist = np.minimum(min_dist, np.linalg.norm(X - X[nxt], axis=1))
    return np.array(selected)


def _lloyd(X, k, rng, iters=50):
    n = X.shape[0]
    centers = X[rng.choice(n, size=k, replace=False)].copy()
    assign = np.zeros(n, dtype=int)
    for _ in range(iters):
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
    _check_m(data, m)
    X = data.features
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


def _check_m(data, m):
    if not 1 <= m <= data.n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={data.n}")


def _ridge_model(data, protos, lam, spec, metadata=None):
    S = sim.sim_matrix(spec, data.features, protos)
    beta, bias = ridge.solve(ridge.assemble(S, data.weights, data.targets, lam))
    return SparseModel(
        prototypes=protos, beta=beta, bias=bias, similarity=spec, metadata=metadata or {}
    )


def kernel_ridge_full(data: Dataset, lam: float, spec: sim.SimilaritySpec) -> SparseModel:
    """Ridge regression in similarity space over all n training prototypes."""
    return _ridge_model(data, data.features.copy(), lam, spec, {"method": "ridge", "lam": lam})


def baseline_pipeline(
    data: Dataset, method: SelectionMethod, lam: float, spec: sim.SimilaritySpec
) -> SparseModel:
    """Select prototypes by the given method, freeze them, fit the linear part.

    The returned prototypes are rows of the training features, never
    virtual points.
    """
    if method.kind == "random":
        idx = ps_random(data, method.m, method.seed)
    elif method.kind == "border":
        idx = ps_border(data, method.m)
    elif method.kind == "spanning":
        idx = ps_spanning(data, method.m)
    else:
        idx = ps_kmedians(data, method.m, method.seed)
    metadata = {"method": method.kind, "indices": [int(i) for i in idx], "lam": lam}
    return _ridge_model(data, data.features[idx], lam, spec, metadata)


def _soft_threshold(value, threshold):
    return np.sign(value) * max(abs(value) - threshold, 0.0)


def lasso_kkt_residuals(S, weights, targets, beta, bias, lam1):
    """Subgradient violations, one per coefficient plus the intercept."""
    r = targets - S @ beta - bias
    corr = 2.0 * (weights * r) @ S
    coef = np.where(
        beta != 0, np.abs(corr - lam1 * np.sign(beta)), np.maximum(0.0, np.abs(corr) - lam1)
    )
    return np.append(coef, abs(2.0 * np.sum(weights * r)))


def _restricted_solve(S, u, y, active, signs, lam1):
    """Minimizer over the active coefficients with |beta| replaced by
    sign-weighted beta (valid while the signs hold)."""
    system = ridge.assemble(S[:, active], u, y, 0.0)
    system.rhs[: len(active)] -= lam1 * np.asarray(signs) / 2.0
    return ridge._solve_linear(system.matrix, system.rhs)


def _lasso_polish(S, u, y, beta, bias, lam1, tol):
    """Primal active-set finisher for stalled coordinate descent.

    Near-duplicate similarity columns make plain coordinate descent crawl.
    Starting from its iterate, repeatedly solve the restricted system
    exactly, drop coefficients whose sign flips, and admit the worst
    subgradient violator, until the full optimality check passes.  Returns
    None when no clean solution is found within the move budget.
    """
    n = beta.shape[0]
    active = [int(j) for j in np.flatnonzero(beta)]
    signs = [float(np.sign(beta[j])) for j in active]
    for _ in range(4 * n + 4):
        try:
            x = _restricted_solve(S, u, y, active, signs, lam1)
        except SingularSystemError:
            # dependent active columns make the fixed-sign system
            # inconsistent; retire the weakest member and retry
            if not active:
                return None
            weakest = int(np.argmin([abs(beta[j]) for j in active]))
            del active[weakest], signs[weakest]
            continue
        if lam1 > 0:
            flipped = [i for i in range(len(active)) if np.sign(x[i]) != signs[i]]
            if flipped:
                for i in reversed(flipped):
                    del active[i], signs[i]
                continue
        cand = np.zeros(n)
        cand[active] = x[: len(active)]
        cand_bias = float(x[len(active)])
        res = lasso_kkt_residuals(S, u, y, cand, cand_bias, lam1)
        if res.max() <= tol:
            return cand, cand_bias
        worst = int(np.argmax(res[:n]))
        if worst in active or res[worst] <= tol:
            return None
        r = y - S @ cand - cand_bias
        active.append(worst)
        signs.append(float(np.sign(2.0 * np.dot(u * r, S[:, worst]))))
    return None


def lasso_similarity(
    data: Dataset,
    lam1: float,
    spec: sim.SimilaritySpec,
    tol: float = 1e-6,
    max_sweeps: int = 10_000,
) -> SparseModel:
    """L1-penalized least squares over all training prototypes.

    Cyclic coordinate descent with soft thresholding; the intercept is
    unpenalized and the similarity features are not standardized.  Only
    prototypes with nonzero coefficients are kept (one zero-coefficient
    prototype remains in the all-zero case so the model stays valid).
    """
    if lam1 < 0:
        raise ValueError(f"lam1 must be >= 0, got {lam1}")
    S = sim.sim_matrix(spec, data.features, data.features).values
    u, y = data.weights, data.targets
    n = data.n
    col_sq = np.einsum("i,ij->j", u, S * S)
    beta = np.zeros(n)
    bias = float(np.sum(u * y) / np.sum(u))
    r = y - bias
    for sweep in range(max_sweeps):
        for j in range(n):
            sj = S[:, j]
            c = float((u * (r + beta[j] * sj)) @ sj)
            new = _soft_threshold(c, lam1 / 2.0) / col_sq[j]
            if new != beta[j]:
                r += (beta[j] - new) * sj
                beta[j] = new
        shift = float(np.sum(u * r) / np.sum(u))
        bias += shift
        r -= shift
        if np.max(lasso_kkt_residuals(S, u, y, beta, bias, lam1)) <= tol:
            break
        if sweep % 10 == 9:
            polished = _lasso_polish(S, u, y, beta, bias, lam1, tol)
            if polished is not None:
                beta, bias = polished
                break
    else:
        worst = float(np.max(lasso_kkt_residuals(S, u, y, beta, bias, lam1)))
        raise ConvergenceError(
            f"lasso did not reach optimality in {max_sweeps} sweeps (worst residual {worst:.3e})"
        )
    keep = np.flatnonzero(beta)
    if keep.size == 0:
        keep = np.array([0])
    metadata = {"method": "lasso", "lam1": lam1, "indices": [int(i) for i in keep]}
    return SparseModel(
        prototypes=data.features[keep],
        beta=beta[keep],
        bias=bias,
        similarity=spec,
        metadata=metadata,
    )
