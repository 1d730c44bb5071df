"""Alternating optimization loop: prototype steps round-robin, exact
coefficient re-solve after every move, objective-based stopping."""

import csv
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import prototype_step, ridge
from . import similarity as sim
from .datatypes import Dataset, SparseModel, TrainConfig, resolve_box
from .errors import SparsimError


@dataclass(frozen=True)
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
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "j", "omega_before", "omega_after", "step_norm"])
            for rec in self.records:
                writer.writerow([rec.t, rec.j, repr(rec.omega_before), repr(rec.omega_after), repr(rec.step_norm)])


def init_prototypes(data: Dataset, m: int, seed: int) -> np.ndarray:
    """Pick m distinct training rows, seeded, without replacement.

    For two-class +-1 targets and m >= 2 the draw is stratified so that
    each class contributes at least one row.
    """
    n = data.n
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    rng = np.random.default_rng(seed)
    labels = data.targets
    classes = set(np.unique(labels))
    if classes == {-1.0, 1.0} and m >= 2:
        pos = np.flatnonzero(labels > 0)
        neg = np.flatnonzero(labels < 0)
        picked = [rng.choice(pos), rng.choice(neg)]
        rest = np.setdiff1d(np.arange(n), picked)
        if m > 2:
            picked.extend(rng.choice(rest, size=m - 2, replace=False))
        idx = np.array(picked)
        rng.shuffle(idx)
    else:
        idx = rng.choice(n, size=m, replace=False)
    return data.features[idx].copy()


def _loss(S, beta, bias, data, lam):
    """Objective value and the residual ``S @ beta + bias - y`` it was taken from."""
    resid = S @ beta + bias - data.targets
    return float(np.dot(data.weights * resid, resid) + lam * np.dot(beta, beta)), resid


def fit(
    data: Dataset,
    m: int,
    config: TrainConfig = None,
    similarity: sim.SimilaritySpec = None,
    init: np.ndarray = None,
):
    """Jointly optimize m virtual prototypes and their coefficients.

    Each iteration moves one prototype (round-robin) with a projected
    gradient step and then re-solves the coefficients exactly.  Only the
    moved prototype's similarity column, and its row and column of the
    normal equations, are recomputed per iteration.
    Training stops once consecutive objective values have differed by
    less than ``config.epsilon`` for a full sweep (m iterations in a
    row, so a single pinned prototype cannot end the run early), or
    after ``config.max_sweeps`` passes over the prototypes.  Module
    errors are recorded in the trace and the current model is returned
    with termination reason "error".

    Returns (model, trace).
    """
    config = config or TrainConfig()
    spec = similarity or sim.default_spec(data.dim)
    if init is not None:
        protos = np.array(init, dtype=float)
        if protos.shape != (m, data.dim):
            raise ValueError(f"init must have shape ({m}, {data.dim}), got {protos.shape}")
        if m > data.n:
            raise ValueError(f"m={m} exceeds n={data.n}")
    else:
        protos = init_prototypes(data, m, config.seed)

    box = resolve_box(config.box, data)
    S = sim.sim_matrix(spec, data.features, protos).values.copy()
    system = ridge.assemble(S, data.weights, data.targets, config.lam)
    beta, bias = ridge.solve(system)
    trace = TrainTrace()
    omega_prev, resid = _loss(S, beta, bias, data, config.lam)
    trace.initial_objective = omega_prev
    trace.final_objective = omega_prev

    iterations = 0
    small_steps = 0
    for t in range(1, config.max_sweeps * m + 1):
        j = (t - 1) % m
        z_prev, col_prev = protos[j].copy(), S[:, j].copy()
        try:
            z_new = prototype_step._update_prototype(protos, beta, resid, spec, j, data, config, t, S, box)
            step_norm = float(np.linalg.norm(z_new - protos[j]))
            protos[j] = z_new
            S[:, j] = sim.sim_matrix(spec, data.features, z_new[None, :]).values[:, 0]
            omega_before, _ = _loss(S, beta, bias, data, config.lam)
            ridge.update_column(system, S, data.weights, data.targets, j, config.lam)
            beta, bias = ridge.solve(system)
        except SparsimError as exc:
            # Roll back to the last consistent prototype/coefficient pair;
            # the system is not read again, so a rewritten row can stay.
            protos[j], S[:, j] = z_prev, col_prev
            trace.termination = "error"
            trace.error = str(exc)
            break
        omega_after, resid = _loss(S, beta, bias, data, config.lam)
        trace.records.append(IterationRecord(t, j, omega_before, omega_after, step_norm))
        trace.final_objective = omega_after
        iterations = t
        small_steps = small_steps + 1 if abs(omega_after - omega_prev) < config.epsilon else 0
        if small_steps >= m:
            trace.termination = "converged"
            break
        omega_prev = omega_after

    metadata = {
        "lam": config.lam,
        "iterations": iterations,
        "seed": config.seed,
        "objective": trace.final_objective,
        "n_train": data.n,
    }
    model = SparseModel(prototypes=protos, beta=beta, bias=bias, similarity=spec, metadata=metadata)
    return model, trace


def distill(
    features,
    teacher_scores,
    m: int,
    config: TrainConfig = None,
    similarity: sim.SimilaritySpec = None,
    init: np.ndarray = None,
) -> SparseModel:
    """Fit a sparse student to a teacher's discriminant values.

    Identical to :func:`fit` on a dataset whose targets are the teacher
    scores; usually works better for classification than fitting the raw
    labels under the squared loss.
    """
    teacher_scores = np.ravel(np.asarray(teacher_scores, dtype=float))
    if not np.all(np.isfinite(teacher_scores)):
        raise ValueError("teacher scores must be finite")
    data = Dataset(features=features, targets=teacher_scores)
    model, _ = fit(data, m, config=config, similarity=similarity, init=init)
    return model
