"""Shared oracle helpers for the test suite."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings

from sparsim import Dataset, SparseModel, predict_batch
from sparsim.ridge import assemble, solve
from sparsim.similarity import grad_z_sum, sim_matrix

# Property tests run a fixed, small set of examples so that tier-1 stays
# reproducible and fast; no example database is written.
settings.register_profile("sparsim", derandomize=True, max_examples=25, deadline=None, database=None)
settings.load_profile("sparsim")


@dataclass(frozen=True)
class ObjectiveValue:
    """Weighted squared-error loss, ridge penalty, and their sum."""

    loss: float
    reg: float

    @property
    def total(self) -> float:
        return self.loss + self.reg


def objective(model, data, lam) -> ObjectiveValue:
    """Training objective sum_i u_i (g(x_i) - y_i)^2 + lam * beta'beta,
    from ``predict_batch``: an oracle independent of the training loop."""
    resid = predict_batch(model, data.features) - data.targets
    loss = float(np.dot(data.weights * resid, resid))
    reg = float(lam * np.dot(model.beta, model.beta))
    return ObjectiveValue(loss=loss, reg=reg)


def einsum_rbf_matrix(spec, rows, protos):
    """RBF block by broadcasting the exact differences into a (k, m, d)
    temporary and reducing it with einsum: an independent formula for
    ``sim_matrix``, equal to the bit for d <= 2."""
    diff = rows[:, None, :] - protos[None, :, :]
    return np.exp(-spec.gamma * np.einsum("ijk,ijk->ij", diff, diff))


def resolve_coefficients(data, protos, spec, lam):
    """Exact coefficient solve for fixed prototypes (the inner problem)."""
    S = sim_matrix(spec, data.features, protos).values
    beta, bias = solve(*assemble(S, data.weights, data.targets, lam))
    return beta, bias


def resolved_objective(data, protos, spec, lam):
    """Objective after re-solving the coefficients at these prototypes."""
    beta, bias = resolve_coefficients(data, protos, spec, lam)
    model = SparseModel(prototypes=protos, beta=beta, bias=bias, similarity=spec)
    return objective(model, data, lam).total, model


def fd_objective_grad(data, protos, spec, lam, j, h=1e-5):
    """Central finite differences of the coefficient-re-solved objective
    with respect to prototype j (the independent oracle for the
    prototype gradient)."""
    grad = np.zeros(protos.shape[1])
    for p in range(protos.shape[1]):
        zp = protos.copy()
        zp[j, p] += h
        zm = protos.copy()
        zm[j, p] -= h
        fp, _ = resolved_objective(data, zp, spec, lam)
        fm, _ = resolved_objective(data, zm, spec, lam)
        grad[p] = (fp - fm) / (2.0 * h)
    return grad


def coefficient_response(data, model, j, lam):
    """The part of the prototype-j derivative that flows through the
    re-solved coefficients, by implicit differentiation of the ridge
    normal equations.  Zero at an exact coefficient solve (envelope
    theorem); training omits it, and this oracle checks that it may."""
    S = sim_matrix(model.similarity, data.features, model.prototypes).values
    m, d = model.prototypes.shape
    beta_j = model.beta[j]
    w = data.weights * (S @ model.beta + model.bias - data.targets)

    def dsum(weights):
        # sum_i weights[i] ds(x_i, z_j)/dz_j, from the cached column j
        return grad_z_sum(model.similarity, data.features, model.prototypes[j], weights, column=S[:, j])

    # Sensitivity of (coefficients, bias) to the prototype:
    # -M^{-1} (beta_j [S'; 1'] + [V'; 0']) U D, with D the stacked gradients.
    T = np.empty((m + 1, d))
    T[:m] = beta_j * np.array([dsum(data.weights * S[:, k]) for k in range(m)])
    T[j] += dsum(w)
    T[m] = beta_j * dsum(data.weights)
    sens = -np.linalg.solve(assemble(S, data.weights, data.targets, lam)[0], T)
    dcoef, dbias = sens[:m], sens[m]
    return 2.0 * (w @ S) @ dcoef + 2.0 * w.sum() * dbias + 2.0 * lam * (model.beta @ dcoef)


def random_instance(seed, n_max=40, d_max=6, m_max=4):
    """Small random weighted regression instance with prototypes near data."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, n_max + 1))
    d = int(rng.integers(1, d_max + 1))
    m = int(rng.integers(1, m_max + 1))
    X = rng.normal(0.0, 1.0, (n, d))
    y = rng.normal(0.0, 1.0, n)
    u = rng.uniform(0.5, 2.0, n)
    protos = X[rng.choice(n, m, replace=False)] + rng.normal(0.0, 0.1, (m, d))
    data = Dataset(features=X, targets=y, weights=u)
    return data, protos, rng


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
