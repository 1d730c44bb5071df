"""The paper's headline claim, accuracy near the full-similarity baseline at
a fraction of its test-time cost, measured along the frontier."""

import numpy as np
import pytest

from sparsim import SimilaritySpec, TrainConfig, fit, gen_synthetic, kernel_ridge_full, lasso_similarity
from sparsim import predict_batch
from sparsim.baselines import SelectionMethod, baseline_pipeline
from sparsim.metrics import eval_cost, mae
from sparsim.selection import _descend_grid

FRONTIER_SIZES = (2, 3, 5, 8)


def c06_config(seed):
    return TrainConfig(seed=seed, eta=0.1, box="data", penalty_enabled=True, max_sweeps=50, epsilon=1e-9)


def test_eight_prototypes_come_within_fifteen_percent_of_full_ridge_on_sine():
    # Only the mean over seeds is asserted: single seeds range from 0.96
    # to 1.60 times the full ridge MAE.
    ours, full, costs = [], [], set()
    for seed in range(10):
        train = gen_synthetic("sine_regression", seed=seed)
        test = gen_synthetic("sine_regression", seed=10_000 + seed)
        spec = SimilaritySpec(kind="rbf", gamma=1.0 / train.dim)
        model, _ = fit(train, 8, config=c06_config(seed), similarity=spec)
        ridge = kernel_ridge_full(train, 1e-6, spec)
        ours.append(mae(predict_batch(model, test.features), test.targets))
        full.append(mae(predict_batch(ridge, test.features), test.targets))
        costs.add((eval_cost(model), eval_cost(ridge)))
    assert costs == {(8, 200)}
    assert np.mean(ours) <= 1.15 * np.mean(full), (np.mean(ours), np.mean(full))


def frontier(kind, seeds=range(3)):
    """Mean test MAE and evaluations per prediction of every compared
    method, at C06's configuration, keyed by method name."""
    scores = {}
    for seed in seeds:
        train = gen_synthetic(kind, seed=seed)
        test = gen_synthetic(kind, seed=10_000 + seed)
        spec = SimilaritySpec(kind="rbf", gamma=1.0 / train.dim)
        config = c06_config(seed)
        models = {"kernel_ridge_full": kernel_ridge_full(train, 1e-6, spec)}
        for lam1 in (1e-1, 1e-2):
            models[f"lasso_similarity lam1={lam1:g}"] = lasso_similarity(train, lam1, spec)
        descent = {model.m: model for model in _descend_grid(train, (10, 8, 5, 3, 2), config, spec)}
        for m in FRONTIER_SIZES:
            models[f"random m={m}"] = baseline_pipeline(train, SelectionMethod("random", m, seed), 1e-6, spec)
            models[f"fit m={m}"] = fit(train, m, config=config, similarity=spec)[0]
            models[f"descent m={m}"] = descent[m]
        for name, model in models.items():
            scores.setdefault(name, []).append((mae(predict_batch(model, test.features), test.targets),
                                                eval_cost(model)))
    means = {name: tuple(np.mean(values, axis=0)) for name, values in scores.items()}
    print(f"\n{kind}: mean test MAE, evaluations per prediction (seeds {list(seeds)})")
    for name, (error, cost) in means.items():
        print(f"  {name:28s} {error:.4f} {cost:6.1f}")
    return means


@pytest.mark.parametrize("kind", ["sine_regression", "three_clusters"])
def test_printed_frontier(kind):
    means = frontier(kind)
    for method in ("random", "fit", "descent"):
        assert [means[f"{method} m={m}"][1] for m in FRONTIER_SIZES] == list(FRONTIER_SIZES)
    if kind == "three_clusters":
        # at three planted bumps the descent needs fewer evaluations than the lasso, for a lower error
        descent, lasso = means["descent m=3"], means["lasso_similarity lam1=0.01"]
        assert descent[0] < lasso[0] and descent[1] < lasso[1], (descent, lasso)
    else:
        assert means["descent m=8"][0] <= 1.15 * means["kernel_ridge_full"][0]
