"""The paper's headline claim, accuracy near the full-similarity baseline at
a fraction of its test-time cost, measured along the frontier."""

import time

import numpy as np
import pytest

from sparsim import EVAL_COUNTER, SimilaritySpec, TrainConfig, fit, gen_synthetic, kernel_ridge_full
from sparsim import lasso_similarity, predict_batch
from sparsim.baselines import baseline_pipeline
from sparsim.dataio import SYNTHETIC_KINDS, THREE_CLUSTERS_CENTERS
from sparsim.metrics import error_rate, eval_cost, mae
from sparsim.selection import _descend_grid
from test_baselines import gram_evaluations
from conftest import traced_peak

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
            models[f"random m={m}"] = baseline_pipeline(train, "random", m, 1e-6, spec, seed)
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


@pytest.mark.parametrize("kind", ["sine_regression", "three_clusters", "ring", "two_gaussians"])
def test_printed_frontier(kind):
    means = frontier(kind)
    for method in ("random", "fit", "descent"):
        assert [means[f"{method} m={m}"][1] for m in FRONTIER_SIZES] == list(FRONTIER_SIZES)
    if kind == "sine_regression":
        assert means["descent m=8"][0] <= 1.15 * means["kernel_ridge_full"][0]
    elif kind == "three_clusters":
        # at three planted bumps the descent needs fewer evaluations than the lasso, for a lower error
        descent, lasso = means["descent m=3"], means["lasso_similarity lam1=0.01"]
        assert descent[0] < lasso[0] and descent[1] < lasso[1], (descent, lasso)


def planted_distances(prototypes):
    """For each of the three planted centres, the distance to the nearest prototype."""
    gaps = THREE_CLUSTERS_CENTERS[:, None, :] - prototypes[None, :, :]
    return np.min(np.linalg.norm(gaps, axis=2), axis=1)


def test_descent_recovers_the_planted_prototypes():
    # the interpretability claim in the input space: three_clusters' targets
    # are RBF bumps at THREE_CLUSTERS_CENTERS, so the learned m=3 prototypes
    # should sit on them (0.1 is 0.4 cluster std)
    print("\nthree_clusters: distance of each planted centre to its nearest prototype")
    for seed in range(10):
        train = gen_synthetic("three_clusters", seed=seed)
        spec = SimilaritySpec(kind="rbf", gamma=1.0 / train.dim)
        descent = _descend_grid(train, (10, 8, 5, 3), c06_config(seed), spec)[-1]
        direct = fit(train, 3, config=c06_config(seed), similarity=spec)[0]
        print(f"  n={train.n} seed {seed}: descent {planted_distances(descent.prototypes).round(3)}"
              f"  direct fit {planted_distances(direct.prototypes).round(3)}")
        assert np.max(planted_distances(descent.prototypes)) <= 0.1, seed
    # at n=2000 the prototype step is about n times longer (ROADMAP item 3): printed only
    train = gen_synthetic("three_clusters", n=2000, seed=0)
    spec = SimilaritySpec(kind="rbf", gamma=1.0 / train.dim)
    descent = _descend_grid(train, (10, 8, 5, 3), c06_config(0), spec)[-1]
    direct = fit(train, 3, config=c06_config(0), similarity=spec)[0]
    print(f"  n=2000 seed 0: descent {planted_distances(descent.prototypes).round(3)}"
          f"  direct fit {planted_distances(direct.prototypes).round(3)}")


def measured(train):
    """``train()``'s result, seconds, similarity evaluations and tracemalloc peak in bytes."""
    before, started = EVAL_COUNTER.read(), time.perf_counter()
    peak, result = traced_peak(train)
    return result, time.perf_counter() - started, EVAL_COUNTER.read() - before, peak


def test_headline_at_n_1000():
    # the claim at a size where the full baselines' n^2 shows: exact training
    # evaluations asserted; time, memory and test error printed (ROADMAP item 5)
    n = 1000
    print(f"\nn={n} seed 0: train seconds, tracemalloc peak / (8 n^2 B), training evaluations, "
          "test MAE (error rate for +-1 targets), evaluations per prediction")
    for kind in SYNTHETIC_KINDS:
        train = gen_synthetic(kind, n=n, seed=0)
        test = gen_synthetic(kind, n=n, seed=10_000)
        score = error_rate if set(np.unique(train.targets)) <= {-1.0, 1.0} else mae
        spec = SimilaritySpec(kind="rbf", gamma=1.0 / train.dim)
        runs = {
            "kernel_ridge_full lam=0.01": lambda: kernel_ridge_full(train, 1e-2, spec),
            "lasso_similarity lam1=0.01": lambda: lasso_similarity(train, 1e-2, spec),
            **{f"fit m={m}": (lambda m=m: fit(train, m, config=c06_config(0), similarity=spec)) for m in (3, 8)},
        }
        for name, run in runs.items():
            result, seconds, evaluations, peak = measured(run)
            if name.startswith("fit"):
                model, trace = result
                assert evaluations == n * model.m + len(trace.records) * (n + model.m - 1), name
            else:
                model = result
                assert evaluations == gram_evaluations(n), name
            assert eval_cost(model) == model.m
            error = score(predict_batch(model, test.features), test.targets)
            print(f"  {kind:15s} {name:26s} {seconds:6.3f}s {peak / (8 * n * n):6.3f} {evaluations:8d} "
                  f"{error:.4f} {model.m:5d}")
