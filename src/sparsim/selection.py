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
from .datatypes import Dataset, TrainConfig, is_integer, predict_batch
from .training import fit


@dataclass(frozen=True)
class GridConfig:
    """Descending size grid, trade-off weight, loss kind and fold count.

    ``rho=None`` stands for the loss's default, which :attr:`resolved_rho`
    reads: 0.1 for mae, 1e-3 for mse and error_rate.
    """

    grid: Tuple[int, ...]
    rho: Optional[float] = None
    loss_kind: str = "mse"
    folds: int = 5

    def __post_init__(self):
        if not all(is_integer(v) for v in self.grid):
            raise ValueError(f"grid sizes must be integers, got {self.grid!r}")
        grid = tuple(int(v) for v in self.grid)
        if not grid or grid[-1] < 1:
            raise ValueError(f"grid must end at a size >= 1, got {grid}")
        if any(a <= b for a, b in zip(grid, grid[1:])):
            raise ValueError(f"grid must be strictly descending, got {grid}")
        if self.loss_kind not in metrics.LOSSES:
            raise ValueError(f"unknown loss kind {self.loss_kind!r}")
        if not is_integer(self.folds) or self.folds < 2:
            raise ValueError(f"folds must be an integer >= 2, got {self.folds!r}")
        if self.rho is not None:
            ridge.check_lam(self.rho, "rho")
        object.__setattr__(self, "grid", grid)

    @property
    def resolved_rho(self) -> float:
        """The size weight selection uses: ``rho``, or the loss's default."""
        if self.rho is not None:
            return self.rho
        return 0.1 if self.loss_kind == "mae" else 1e-3


@dataclass(frozen=True)
class SelectionRecord:
    m: int
    loss: float  # mean validation loss at this size
    objective: float  # loss + rho * m


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


def _check_folds(count: int, k: int, noun: str):
    if k > count:
        raise ValueError(f"cannot split {count} {noun} into {k} folds")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")


def kfold_split(n: int, k: int, seed: int) -> List[np.ndarray]:
    """Seeded partition of range(n) into k folds with sizes differing by <= 1."""
    _check_folds(n, k, "samples")
    perm = np.random.default_rng(seed).permutation(n)
    return list(np.array_split(perm, k))


def group_kfold_split(groups, k: int, seed: int) -> List[np.ndarray]:
    """Subject-disjoint folds: every group lands in exactly one fold.

    Groups are shuffled, ordered by size (largest first) and greedily
    assigned to the currently smallest fold.
    """
    _, member, counts = np.unique(np.ravel(groups), return_inverse=True, return_counts=True)
    _check_folds(counts.shape[0], k, "groups")
    order = np.random.default_rng(seed).permutation(counts.shape[0])
    fold_of, fold_sizes = np.empty_like(counts), np.zeros(k, dtype=int)
    for g in order[np.argsort(-counts[order], kind="stable")]:
        fold_of[g] = np.argmin(fold_sizes)
        fold_sizes[fold_of[g]] += counts[g]
    # A stable sort by fold keeps each fold's sample indices ascending.
    return np.split(np.argsort(fold_of[member], kind="stable"), np.cumsum(fold_sizes)[:-1])


def smallest_coefficient_positions(beta, count: int) -> Tuple[int, ...]:
    """Positions of the ``count`` smallest coefficients in absolute value.

    Ties are broken by dropping the lowest position first.
    """
    beta = np.ravel(np.asarray(beta, dtype=float))
    order = sorted(range(beta.shape[0]), key=lambda i: (abs(beta[i]), i))
    return tuple(order[:count])


def _descend_grid(data, grid, config, spec):
    """Fit at the largest size, then drop the smallest-coefficient
    prototypes and warm-refit down the grid.

    Yields each size's model as its fit returns, keeping no list and no
    trace, so beyond the running fit it holds one model, O(m·d).
    """
    model = fit(data, grid[0], config=config, similarity=spec)[0]
    yield model
    for target in grid[1:]:
        # The survivors go straight into fit, which solves their
        # coefficients itself.
        dropped = smallest_coefficient_positions(model.beta, model.m - target)
        survivors = np.delete(model.prototypes, dropped, axis=0)
        model = fit(data, target, config=config, similarity=spec, init=survivors)[0]
        yield model


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

    Memory: one fit runs at a time and each model is scored as it comes
    (see :func:`_descend_grid`), so the peak is the largest fit's peak
    plus one fold's training subset and one model, O(n·d + m·d).

    Returns (model, trace).
    """
    train_config = train_config or TrainConfig()
    spec = similarity or sim.default_spec(data.dim)
    grid, rho = grid_config.grid, grid_config.resolved_rho
    loss = metrics.LOSSES[grid_config.loss_kind]
    loss(data.targets, data.targets)  # targets the loss rejects (error_rate: not +-1) raise before any fit

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
    for f, val_idx in enumerate(folds):
        fold_cfg = replace(train_config, seed=int(children[f].generate_state(1)[0]))
        descent = _descend_grid(data.subset(np.delete(np.arange(data.n), val_idx)), grid, fold_cfg, spec)
        fold_losses[f] = [loss(predict_batch(model, data.features[val_idx]), data.targets[val_idx])
                          for model in descent]

    mean_loss = fold_losses.mean(axis=0)
    scores = mean_loss + rho * np.asarray(grid, dtype=float)
    best = scores.min()
    chosen = min(m for m, score in zip(grid, scores) if score == best)

    final = next(model for model in _descend_grid(data, grid, train_config, spec) if model.m == chosen)
    rows = [SelectionRecord(m, float(mean_loss[gi]), float(scores[gi])) for gi, m in enumerate(grid)]
    return final, SelectionTrace(rows=rows, chosen_m=chosen)
