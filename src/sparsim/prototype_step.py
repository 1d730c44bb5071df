"""Gradient of the objective with respect to one prototype, and the update.

Moving a prototype changes the objective directly, through its similarity
column, and indirectly, because the optimal coefficients and bias shift
with it.  At an exact coefficient solve the objective is stationary in
(beta, b), so by the envelope theorem the indirect part is zero and the
total derivative equals the direct partial derivative; that is what the
step uses.  A decaying repulsion term keeps prototypes from collapsing
onto each other.

Both parts are weighted sums of similarity gradients,
sum_i w_i ds(x_i, z_j)/dz_j: the data term weighs training row i by
u_i r_i (sample weight times residual), the penalty weighs every other
prototype by 1.  Each is one :func:`similarity.grad_z_sum` call.
"""

import math

import numpy as np

from . import similarity as sim
from .errors import NonFiniteUpdateError, SimilarityEvalError

# The repulsion penalty at iteration t is scaled by t^(-PENALTY_DECAY_POWER).
PENALTY_DECAY_POWER = 2.0


def _data_gradient(S, data, spec, protos, beta, resid, j, grad_mode):
    """Direct partial derivative of the data term with respect to prototype
    j, 2 beta_j sum_i u_i r_i ds(x_i, z_j)/dz_j, given the current
    similarity matrix (column j is reused as the similarities to
    prototype j) and its residual r = ``S @ beta + bias - y``."""
    grad = sim.grad_z_sum(spec, data.features, protos[j], data.weights * resid, grad_mode, column=S[:, j])
    if not np.isfinite(grad).all():
        raise SimilarityEvalError(f"non-finite similarity gradient for prototype {j}")
    return 2.0 * beta[j] * grad


def _penalty(protos, spec, j, t, grad_mode, others):
    """Decayed gradient of prototype j's summed similarity to ``others``
    (every prototype but j): t^(-PENALTY_DECAY_POWER) * sum_k ds(z_k, z_j)/dz_j,
    which the update subtracts, pushing z_j away from nearby prototypes.

    Zero when there are no others, and for exactly coincident prototypes
    (the RBF gradient vanishes at zero distance; the update breaks such
    ties with a seeded nudge).
    """
    if not others.size:
        return np.zeros(protos.shape[1])
    grad = sim.grad_z_sum(spec, others, protos[j], np.ones(len(others)), grad_mode)
    return float(t) ** (-PENALTY_DECAY_POWER) * grad


def _update_prototype(protos, beta, resid, spec, j, data, config, t, S, box):
    """New position for prototype j at iteration t >= 1, given the cached
    similarity matrix S and the residual ``S @ beta + bias - y`` of
    coefficients that solve the ridge system for S exactly (the gradient
    omits the coefficient response, which vanishes only there).

    The data-term gradient is scaled by the step size, the separation
    penalty is applied unscaled with its built-in decay, and the result is
    projected onto ``box`` when one is given.  A non-finite update is
    retried once with half the step size.
    """
    grad = _data_gradient(S, data, spec, protos, beta, resid, j, config.grad_mode)
    others = np.concatenate((protos[:j], protos[j + 1 :]))
    if config.penalty_enabled:
        penalty = _penalty(protos, spec, j, t, config.grad_mode, others)
    else:
        penalty = 0.0
    z_old = protos[j]
    z_new = z_old - config.eta * grad - penalty
    if not np.isfinite(z_new).all():
        z_new = z_old - (config.eta / 2.0) * grad - penalty
        if not np.isfinite(z_new).all():
            raise NonFiniteUpdateError(
                f"update of prototype {j} stayed non-finite after halving the step"
            )
    # z_new is finite, so minimum/maximum clip exactly as np.clip does, at less call cost.
    if box is not None:
        z_new = np.minimum(np.maximum(z_new, box[:, 0]), box[:, 1])

    # Coincident prototypes feel no repulsion (the similarity gradient is
    # zero at distance zero); break exact ties with a tiny seeded nudge.
    # sqrt is monotone: the root of the least squared distance is the least distance.
    if others.size and math.sqrt(((others - z_new) ** 2).sum(axis=1).min()) < 1e-12:
        rng = np.random.default_rng([config.seed, t, j])
        direction = rng.standard_normal(protos.shape[1])
        z_new = z_new + 1e-6 * direction / np.linalg.norm(direction)
        if box is not None:
            z_new = np.minimum(np.maximum(z_new, box[:, 0]), box[:, 1])
    return z_new
