"""Choosing the number of prototypes by incremental cross-validation.

Models are trained once at the largest grid size, then repeatedly pruned
(dropping the smallest-coefficient prototypes) and refit from the pruned
state, walking the grid downward.  The chosen size minimizes
``loss(m) + rho * m`` averaged over the folds.
"""

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from . import dataio, metrics, ridge
from . import similarity as sim
from .datatypes import Dataset, SparseModel, TrainConfig
from .training import fit


@dataclass(frozen=True)
class GridConfig:
    """Descending size grid, trade-off weight, loss kind and fold count.

    ``rho=None`` picks the default for the loss: 0.1 for mae, 1e-3 for
    mse and error_rate.
    """

    grid: Tuple[int, ...]
    rho: Optional[float] = None
    loss_kind: str = "mse"
    folds: int = 5

    def __post_init__(self):
        grid = tuple(int(v) for v in self.grid)
        if not grid or grid[-1] < 1:
            raise ValueError(f"grid must end at a size >= 1, got {grid}")
        if any(a <= b for a, b in zip(grid, grid[1:])):
            raise ValueError(f"grid must be strictly descending, got {grid}")
        if self.loss_kind not in ("mse", "mae", "error_rate"):
            raise ValueError(f"unknown loss kind {self.loss_kind!r}")
        if self.folds < 2:
            raise ValueError(f"need at least 2 folds, got {self.folds}")
        if self.rho is not None and not self.rho >= 0:
            raise ValueError(f"rho must be >= 0, got {self.rho}")
        object.__setattr__(self, "grid", grid)

    @property
    def resolved_rho(self) -> float:
        if self.rho is not None:
            return self.rho
        return 0.1 if self.loss_kind == "mae" else 1e-3


@dataclass(frozen=True)
class SelectionRecord:
    m: int
    loss: float  # mean validation loss at this size
    objective: float  # loss + rho * m
    pruned: Tuple[int, ...]  # prototype positions dropped to reach this size


@dataclass
class SelectionTrace:
    rows: List[SelectionRecord] = field(default_factory=list)
    chosen_m: int = 0

    def write_csv(self, path):
        dataio.write_table(
            path,
            ["m", "loss", "L", "chosen"],
            [[row.m, row.loss, row.objective, int(row.m == self.chosen_m)] for row in self.rows],
        )


def default_grid(n: int) -> Tuple[int, ...]:
    """Descending grid from min(20, n//2): halve above 5, then count down to 2."""
    start = min(20, n // 2)
    if start < 2:
        return (max(start, 1),)
    values = []
    v = start
    while v > 5:
        values.append(v)
        v = v // 2
    values.extend(range(v, 1, -1))
    return tuple(values)


def kfold_split(n: int, k: int, seed: int) -> List[np.ndarray]:
    """Seeded partition of range(n) into k folds with sizes differing by <= 1."""
    if k > n:
        raise ValueError(f"cannot split {n} samples into {k} folds")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    perm = np.random.default_rng(seed).permutation(n)
    return list(np.array_split(perm, k))


def group_kfold_split(groups, k: int, seed: int) -> List[np.ndarray]:
    """Subject-disjoint folds: every group lands in exactly one fold.

    Groups are shuffled, ordered by size (largest first) and greedily
    assigned to the currently smallest fold.
    """
    groups = np.ravel(np.asarray(groups))
    uniq = np.unique(groups)
    if k > uniq.shape[0]:
        raise ValueError(f"cannot split {uniq.shape[0]} groups into {k} folds")
    order = np.random.default_rng(seed).permutation(uniq.shape[0])
    shuffled = uniq[order]
    sizes = np.array([np.sum(groups == g) for g in shuffled])
    folds = [[] for _ in range(k)]
    fold_sizes = np.zeros(k, dtype=int)
    for gi in np.argsort(-sizes, kind="stable"):
        target = int(np.argmin(fold_sizes))
        folds[target].append(shuffled[gi])
        fold_sizes[target] += sizes[gi]
    return [np.flatnonzero(np.isin(groups, members)) for members in folds]


def smallest_coefficient_positions(beta, count: int) -> Tuple[int, ...]:
    """Positions of the ``count`` smallest coefficients in absolute value.

    Ties are broken by dropping the lowest position first.
    """
    beta = np.ravel(np.asarray(beta, dtype=float))
    order = sorted(range(beta.shape[0]), key=lambda i: (abs(beta[i]), i))
    return tuple(order[:count])


def prune(model: SparseModel, data: Dataset, target_m: int, lam: float) -> SparseModel:
    """Keep the target_m prototypes with the largest |coefficient|.

    Coefficients and bias are re-solved on the survivors before returning.
    """
    if not 1 <= target_m < model.m:
        raise ValueError(f"need 1 <= target_m < m, got target_m={target_m}, m={model.m}")
    dropped = smallest_coefficient_positions(model.beta, model.m - target_m)
    keep = np.array(sorted(set(range(model.m)) - set(dropped)), dtype=int)
    protos = model.prototypes[keep]
    S = sim.sim_matrix(model.similarity, data.features, protos)
    beta, bias = ridge.solve(ridge.assemble(S, data.weights, data.targets, lam))
    return replace(model, prototypes=protos, beta=beta, bias=bias)


def _validation_loss(model, data, loss_kind):
    pred = model.predict_batch(data.features)
    if loss_kind == "mse":
        return metrics.mse(pred, data.targets)
    if loss_kind == "mae":
        return metrics.mae(pred, data.targets)
    return metrics.error_rate(pred, data.targets)


def _descend_grid(data, grid, config, spec):
    """Fit at the largest size, then drop the smallest-coefficient
    prototypes and warm-refit down the grid.

    Returns the models at every grid size and the positions pruned at
    each step.
    """
    models, pruned = [], []
    model, _ = fit(data, grid[0], config=config, similarity=spec)
    models.append(model)
    pruned.append(())
    for target in grid[1:]:
        # The survivors go straight into fit, which re-solves their
        # coefficients itself; prune would solve them once more.
        dropped = smallest_coefficient_positions(model.beta, model.m - target)
        survivors = np.delete(model.prototypes, dropped, axis=0)
        model, _ = fit(data, target, config=config, similarity=spec, init=survivors)
        models.append(model)
        pruned.append(dropped)
    return models, pruned


def select_model_size(
    data: Dataset,
    grid_config: GridConfig,
    train_config: TrainConfig = None,
    similarity: sim.SimilaritySpec = None,
):
    """Pick the prototype count minimizing loss(m) + rho * m by k-fold CV.

    Every fold runs the warm-started grid descent and scores each size on
    its held-out part; sizes are compared on the fold-averaged loss and
    ties go to the smaller size.  The returned model comes from the same
    descent run on the full dataset, stopped at the chosen size.

    Returns (model, trace).
    """
    train_config = train_config or TrainConfig()
    spec = similarity or sim.default_spec(data.dim)
    grid = grid_config.grid
    rho = grid_config.resolved_rho

    if data.groups is not None:
        folds = group_kfold_split(data.groups, grid_config.folds, train_config.seed)
    else:
        folds = kfold_split(data.n, grid_config.folds, train_config.seed)
    min_train = data.n - max(len(f) for f in folds)
    if grid[0] > min_train:
        raise ValueError(
            f"largest grid size {grid[0]} exceeds the smallest training fold ({min_train} samples)"
        )

    children = np.random.SeedSequence(train_config.seed).spawn(len(folds))
    fold_losses = np.empty((len(folds), len(grid)))
    all_idx = np.arange(data.n)
    for f, val_idx in enumerate(folds):
        train_idx = np.setdiff1d(all_idx, val_idx)
        fold_cfg = replace(train_config, seed=int(children[f].generate_state(1)[0]))
        models, _ = _descend_grid(data.subset(train_idx), grid, fold_cfg, spec)
        val = data.subset(val_idx)
        for gi, model in enumerate(models):
            fold_losses[f, gi] = _validation_loss(model, val, grid_config.loss_kind)

    mean_loss = fold_losses.mean(axis=0)
    scores = mean_loss + rho * np.asarray(grid, dtype=float)
    best = scores.min()
    chosen = min(m for m, score in zip(grid, scores) if score == best)

    full_models, full_pruned = _descend_grid(data, grid, train_config, spec)
    trace = SelectionTrace(chosen_m=chosen)
    final = None
    for gi, m in enumerate(grid):
        trace.rows.append(
            SelectionRecord(m=m, loss=float(mean_loss[gi]), objective=float(scores[gi]), pruned=full_pruned[gi])
        )
        if m == chosen:
            final = full_models[gi]
    return final, trace
