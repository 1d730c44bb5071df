"""Gradient of the objective with respect to one prototype, and the update.

Moving a prototype changes the objective directly, through its similarity
column, and indirectly, because the optimal coefficients and bias shift
with it.  At an exact coefficient solve the objective is stationary in
(beta, b), so by the envelope theorem the indirect part is zero and the
total derivative equals the direct partial derivative; that is what the
step uses.  A decaying repulsion term keeps prototypes from collapsing
onto each other.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import ridge
from . import similarity as sim
from .datatypes import Dataset, SparseModel, TrainConfig, resolve_box
from .errors import NonFiniteUpdateError, SimilarityEvalError, StaleCoefficientsError

# Coefficients older than this (normal-equation residual) violate the
# call-after-coefficient-step contract.
STALE_TOL = 1e-6


@dataclass(frozen=True)
class PrototypeGradient:
    """Total derivative for one prototype, with its diagnostic parts.

    ``grad`` equals ``direct + penalty`` exactly.  The response of the
    optimal coefficients to the prototype move contributes nothing at an
    exact coefficient solve (envelope theorem), so ``direct`` is the whole
    derivative of the data term.
    """

    grad: np.ndarray
    direct: np.ndarray
    penalty: np.ndarray


def _check_fresh(S, data, lam, beta, bias):
    system = ridge.assemble(S, data.weights, data.targets, lam)
    coef = np.concatenate([beta, [bias]])
    residual = np.max(np.abs(system.matrix @ coef - system.rhs))
    if residual > STALE_TOL * max(1.0, np.max(np.abs(system.rhs))):
        raise StaleCoefficientsError(
            f"coefficients are stale: normal-equation residual {residual:.3e}"
        )


def _data_gradient(S, data, spec, protos, beta, resid, j, grad_mode):
    """Direct partial derivative of the data term with respect to prototype
    j, given the current similarity matrix (column j is reused as the
    similarities to prototype j) and its residual ``S @ beta + bias - y``."""
    D = sim.grad_z_matrix(spec, data.features, protos[j], grad_mode, column=S[:, j])
    if not np.all(np.isfinite(D)):
        raise SimilarityEvalError(f"non-finite similarity gradient for prototype {j}")
    return 2.0 * beta[j] * ((data.weights * resid) @ D)


def _penalty(protos, spec, j, t, decay_power, grad_mode):
    if t < 1:
        raise ValueError(f"iteration count must be >= 1, got {t}")
    if protos.shape[0] == 1:
        return np.zeros(protos.shape[1])
    others = np.delete(protos, j, axis=0)
    grads = sim.grad_z_matrix(spec, others, protos[j], grad_mode)
    return float(t) ** (-decay_power) * grads.sum(axis=0)


def total_gradient(
    data: Dataset,
    model: SparseModel,
    j: int,
    lam: float,
    grad_mode: str = "analytic",
    penalty_t: int = None,
    penalty_decay: float = 2.0,
) -> PrototypeGradient:
    """Derivative of the full objective with respect to prototype j.

    Requires coefficients that currently solve the ridge system for the
    model's prototypes (i.e. call this right after a coefficient step).
    When ``penalty_t`` is given, the separation penalty at that iteration
    count is folded into the returned gradient as its penalty part.
    """
    if not 0 <= j < model.m:
        raise ValueError(f"prototype index {j} out of range for m={model.m}")
    S = sim.sim_matrix(model.similarity, data.features, model.prototypes).values
    _check_fresh(S, data, lam, model.beta, model.bias)
    resid = S @ model.beta + model.bias - data.targets
    direct = _data_gradient(S, data, model.similarity, model.prototypes, model.beta, resid, j, grad_mode)
    if penalty_t is not None:
        penalty = _penalty(model.prototypes, model.similarity, j, penalty_t, penalty_decay, grad_mode)
    else:
        penalty = np.zeros(model.dim)
    return PrototypeGradient(grad=direct + penalty, direct=direct, penalty=penalty)


def penalty_gradient(
    model: SparseModel, j: int, t: int, decay_power: float = 2.0, grad_mode: str = "analytic"
) -> np.ndarray:
    """Decayed gradient of prototype j's summed similarity to the others.

    Returns t^(-decay_power) * sum_{k != j} ds(z_k, z_j)/dz_j, which the
    update subtracts, pushing z_j away from nearby prototypes.  Zero for
    single-prototype models and for exactly coincident prototypes (the
    RBF gradient vanishes at zero distance; see step_prototype for the
    jitter that breaks such ties).
    """
    if not 0 <= j < model.m:
        raise ValueError(f"prototype index {j} out of range for m={model.m}")
    return _penalty(model.prototypes, model.similarity, j, t, decay_power, grad_mode)


def _update_prototype(protos, beta, resid, spec, j, data, config, t, S, box):
    """New position for prototype j given the cached similarity matrix and
    its residual."""
    if t < 1:
        raise ValueError(f"iteration count must be >= 1, got {t}")
    grad = _data_gradient(S, data, spec, protos, beta, resid, j, config.grad_mode)
    if config.penalty_enabled:
        penalty = _penalty(protos, spec, j, t, config.penalty_decay_power, config.grad_mode)
    else:
        penalty = 0.0
    z_old = protos[j]
    z_new = z_old - config.eta * grad - penalty
    if not np.all(np.isfinite(z_new)):
        z_new = z_old - (config.eta / 2.0) * grad - penalty
        if not np.all(np.isfinite(z_new)):
            raise NonFiniteUpdateError(
                f"update of prototype {j} stayed non-finite after halving the step"
            )
    if box is not None:
        z_new = np.clip(z_new, box[:, 0], box[:, 1])

    # Coincident prototypes feel no repulsion (the similarity gradient is
    # zero at distance zero); break exact ties with a tiny seeded nudge.
    others = np.delete(protos, j, axis=0)
    if others.size and np.min(np.linalg.norm(others - z_new, axis=1)) < 1e-12:
        rng = np.random.default_rng([config.seed, t, j])
        direction = rng.standard_normal(protos.shape[1])
        z_new = z_new + 1e-6 * direction / np.linalg.norm(direction)
        if box is not None:
            z_new = np.clip(z_new, box[:, 0], box[:, 1])
    return z_new


def step_prototype(
    model: SparseModel, j: int, data: Dataset, config: TrainConfig, t: int
) -> SparseModel:
    """One projected gradient update of prototype j; all others unchanged.

    The data-term gradient is scaled by the step size, the separation
    penalty is applied unscaled with its built-in decay.  A non-finite
    update is retried once with half the step size.
    """
    if not 0 <= j < model.m:
        raise ValueError(f"prototype index {j} out of range for m={model.m}")
    S = sim.sim_matrix(model.similarity, data.features, model.prototypes).values
    _check_fresh(S, data, config.lam, model.beta, model.bias)
    resid = S @ model.beta + model.bias - data.targets
    z_new = _update_prototype(
        model.prototypes, model.beta, resid, model.similarity, j, data, config, t, S,
        resolve_box(config.box, data),
    )
    protos = model.prototypes.copy()
    protos[j] = z_new
    return replace(model, prototypes=protos)
