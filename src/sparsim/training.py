"""Alternating optimization loop: prototype steps round-robin, exact
coefficient re-solve after every move, objective-based stopping.

Moving a prototype changes the objective directly, through its similarity
column, and indirectly, because the optimal coefficients and bias shift
with it.  At an exact coefficient solve the objective is stationary in
(beta, b), so by the envelope theorem the indirect part is zero and the
total derivative equals the direct partial derivative; that is what the
prototype step uses.  A decaying repulsion term keeps prototypes from
collapsing onto each other.  The data gradient and the repulsion are
each one :func:`similarity.grad_z_sum` call.
"""

import math
from dataclasses import astuple, dataclass, field, fields
from typing import List, Optional

import numpy as np

from . import dataio, ridge
from . import similarity as sim
from .datatypes import Dataset, SparseModel, TrainConfig, check_size, resolve_box
from .errors import NonFiniteUpdateError, SimilarityEvalError, SparsimError

# The repulsion penalty at iteration t is scaled by t^(-PENALTY_DECAY_POWER).
PENALTY_DECAY_POWER = 2.0


@dataclass(frozen=True, slots=True)
class IterationRecord:
    t: int
    j: int
    omega_before: float  # objective after the prototype move, old coefficients
    omega_after: float  # objective after the coefficient re-solve
    step_norm: float


@dataclass
class TrainTrace:
    """Per-iteration objective values and the reason training stopped."""

    records: List[IterationRecord] = field(default_factory=list)
    initial_objective: float = float("nan")
    final_objective: float = float("nan")
    termination: str = "max_sweeps"
    error: Optional[str] = None

    def write_csv(self, path):
        dataio.write_table(path, [f.name for f in fields(IterationRecord)], map(astuple, self.records))


def init_prototypes(data: Dataset, m: int, seed: int) -> np.ndarray:
    """Pick m distinct training rows, seeded, without replacement.

    For two-class +-1 targets and m >= 2 the draw is stratified so that
    each class contributes at least one row.
    """
    n = data.n
    check_size(m, n)
    rng = np.random.default_rng(seed)
    labels = data.targets
    if m >= 2 and np.array_equal(np.unique(labels), (-1.0, 1.0)):
        picked = [rng.choice(np.flatnonzero(labels > 0)), rng.choice(np.flatnonzero(labels < 0))]
        rest = np.setdiff1d(np.arange(n), picked)
        picked.extend(rng.choice(rest, size=m - 2, replace=False))
        idx = np.array(picked)
        rng.shuffle(idx)
    else:
        idx = rng.choice(n, size=m, replace=False)
    return data.features[idx]


def _loss(S, beta, bias, data, lam, resid=None, out=None):
    """Objective value, the residual r = ``S @ beta + bias - y`` it was
    taken from and u*r, the data gradient's row weights; a ``resid``
    already known is used as given, in O(n).  ``out``, a pair of
    n-vectors, receives r (unless given) and u*r in place of new arrays,
    with the same bits."""
    resid_out, weighted_out = (None, None) if out is None else out
    if resid is None:
        # np.dot: @'s BLAS call without its dispatch, and it takes out=
        resid = np.dot(S, beta, out=resid_out)
        resid += bias
        resid -= data.targets
    weighted = np.multiply(data.weights, resid, out=weighted_out)
    return float(weighted.dot(resid) + lam * beta.dot(beta)), resid, weighted


def _data_gradient(S, data, spec, protos, beta, weighted, j, grad_mode):
    """Direct partial derivative of the data term with respect to prototype
    j, 2 beta_j sum_i u_i r_i ds(x_i, z_j)/dz_j, given the current
    similarity matrix (column j is reused as the similarities to
    prototype j) and the weighted residual u*r from :func:`_loss`."""
    grad = sim.grad_z_sum(spec, data.features, protos[j], weighted, grad_mode, column=S[:, j])
    if not np.logical_and.reduce(np.isfinite(grad)):
        raise SimilarityEvalError(f"non-finite similarity gradient for prototype {j}")
    return 2.0 * beta[j] * grad


def _penalty(z, others, spec, t, grad_mode):
    """Decayed gradient of prototype z's summed similarity to ``others``
    (every other prototype, at least one): t^(-PENALTY_DECAY_POWER) *
    sum_k ds(z_k, z)/dz, which the update subtracts, pushing z away from
    nearby prototypes."""
    grad = sim.grad_z_sum(spec, others, z, None, grad_mode)
    return float(t) ** (-PENALTY_DECAY_POWER) * grad


def _project(z, box):
    """z clipped onto ``box``'s (lo, hi) rows; z is finite, so minimum and
    maximum clip exactly as np.clip does, at less call cost."""
    return np.minimum(np.maximum(z, box[:, 0]), box[:, 1])


def _update_prototype(protos, beta, weighted, spec, j, data, config, t, S, box):
    """New position for prototype j at iteration t >= 1 and the length of
    the step to it, ``(z_new, step_norm)``, from the cached similarity
    matrix S and the weighted residual u*r of an exact coefficient solve
    for S, where the gradient needs no coefficient response.  The data-term
    gradient is scaled by the step size, the penalty is applied unscaled
    with its decay, and the result is projected onto ``box``; a non-finite
    update raises :class:`NonFiniteUpdateError`.
    """
    grad = _data_gradient(S, data, spec, protos, beta, weighted, j, config.grad_mode)
    others = np.concatenate((protos[:j], protos[j + 1 :]))
    z_old = protos[j]
    if config.penalty_enabled and others.size:
        penalty = _penalty(z_old, others, spec, t, config.grad_mode)
    else:
        penalty = 0.0
    z_new = z_old - config.eta * grad - penalty
    if not np.logical_and.reduce(np.isfinite(z_new)):
        raise NonFiniteUpdateError(f"update of prototype {j} is not finite")
    z_new = _project(z_new, box)

    # Coincident prototypes feel no repulsion (the similarity gradient is
    # zero at distance zero); break exact ties with a tiny seeded nudge.
    # sqrt is monotone: the root of the least squared distance is the least distance.
    if others.size and math.sqrt(np.minimum.reduce(np.add.reduce((others - z_new) ** 2, axis=1))) < 1e-12:
        rng = np.random.default_rng([config.seed, t, j])
        direction = rng.standard_normal(protos.shape[1])
        z_new = _project(z_new + 1e-6 * direction / np.linalg.norm(direction), box)
    step = z_new - z_old
    return z_new, math.sqrt(step.dot(step))


def _similarities(spec, features, protos):
    """The n x m similarities S, row-major, so that its GEMVs round as on a
    row-major block.  :func:`similarity.sim_matrix` returns RBF blocks
    prototype-major; they are copied into S ``ridge.BLOCK_ROWS`` rows at a
    time, one block held beyond S.  A black-box scorer is one call: it
    sees all n rows at once, so its failures name data rows."""
    if spec.kind != "rbf":
        return sim.sim_matrix(spec, features, protos).values
    n = features.shape[0]
    S = np.empty((n, protos.shape[0]))
    for start in range(0, n, ridge.BLOCK_ROWS):
        block = slice(start, start + ridge.BLOCK_ROWS)
        S[block] = sim.sim_matrix(spec, features[block], protos).values
    return S


def fit(
    data: Dataset,
    m: int,
    config: TrainConfig = None,
    similarity: sim.SimilaritySpec = None,
    init: np.ndarray = None,
):
    """Jointly optimize m virtual prototypes and their coefficients.

    The start, ``init`` or m seeded training rows, is projected onto
    ``config.box`` before anything is evaluated.  Each iteration moves one
    prototype (round-robin) with a projected gradient step and then
    re-solves the coefficients exactly; only the moved prototype's
    similarity column, and its row and column of the normal equations, are
    recomputed.  Besides the n x m similarities S, ``fit`` holds at most
    one ``ridge.BLOCK_ROWS``-row block of similarities (while filling S,
    see :func:`_similarities`) or of the weighted design (while
    assembling), or three n-vectors (the residual, its weighted form and one
    temporary: the new column, the gradient's row weights or the system
    update's).  Training stops once consecutive objective values have
    differed by less than ``config.epsilon`` for a full sweep (m iterations
    in a row, so a single pinned prototype cannot end the run early), or
    after ``config.max_sweeps`` passes over the prototypes.  A gradient mode
    the similarity lacks or a non-finite ``init`` raises before training; a
    module error during training ends it with termination reason "error",
    returning the last model whose coefficients solve its system.

    Returns (model, trace).
    """
    config = config or TrainConfig()
    spec = similarity or sim.default_spec(data.dim)
    sim.check_grad_mode(spec, config.grad_mode)
    if init is not None:
        protos = np.array(init, dtype=float)
        if protos.shape != (m, data.dim):
            raise ValueError(f"init must have shape ({m}, {data.dim}), got {protos.shape}")
        if not np.isfinite(protos).all():
            raise ValueError("init must be finite")
        check_size(m, data.n)
    else:
        protos = init_prototypes(data, m, config.seed)

    box = resolve_box(config.box, data)
    protos = _project(protos, box)  # neither init nor training rows need lie in an explicit box
    S = _similarities(spec, data.features, protos)
    M, rhs = ridge.assemble(S, data.weights, data.targets, config.lam)
    # Overflow past here meets a finiteness or residual check that ends the
    # fit with reason "error"; numpy's warning for it would only escape fit.
    with np.errstate(over="ignore", invalid="ignore"):
        beta, bias = ridge.solve(M, rhs)
        trace = TrainTrace()
        trace.initial_objective, resid, weighted = _loss(S, beta, bias, data, config.lam)
        trace.final_objective = trace.initial_objective

        small_steps = 0
        for t in range(1, config.max_sweeps * m + 1):
            j = (t - 1) % m
            try:
                z_new, step_norm = _update_prototype(protos, beta, weighted, spec, j, data, config, t, S, box)
                column = sim.sim_matrix(spec, data.features, z_new[None, :]).values[:, 0]
                # Only column j moved: the residual gains beta_j times the column's
                # change, formed in u*r, which the gradient has used up.
                np.subtract(column, S[:, j], out=weighted)
                S[:, j] = column
                del column
                weighted *= beta[j]
                resid += weighted
                omega_before = _loss(S, beta, bias, data, config.lam, resid, (resid, weighted))[0]
                ridge.update_column(M, rhs, S, data.weights, data.targets, j, config.lam)
                beta, bias = ridge.solve(M, rhs)
            except SparsimError as exc:
                # protos still pairs with (beta, bias); S, the system and r are not read again.
                trace.termination = "error"
                trace.error = str(exc)
                break
            protos[j] = z_new
            omega_after = _loss(S, beta, bias, data, config.lam, out=(resid, weighted))[0]
            trace.records.append(IterationRecord(t, j, omega_before, omega_after, step_norm))
            small_steps = small_steps + 1 if abs(omega_after - trace.final_objective) < config.epsilon else 0
            trace.final_objective = omega_after
            if small_steps >= m:
                trace.termination = "converged"
                break

    metadata = {
        "lam": config.lam,
        "iterations": len(trace.records),
        "seed": config.seed,
        "objective": trace.final_objective,
        "n_train": data.n,
    }
    model = SparseModel(prototypes=protos, beta=beta, bias=bias, similarity=spec, metadata=metadata)
    return model, trace
