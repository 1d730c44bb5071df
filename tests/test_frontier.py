"""The paper's headline claim, accuracy near the full-similarity baseline at
a fraction of its test-time cost, measured at one point of the frontier."""

import numpy as np

from sparsim import SimilaritySpec, TrainConfig, fit, gen_synthetic, kernel_ridge_full, predict_batch
from sparsim.metrics import eval_cost, mae


def test_eight_prototypes_come_within_fifteen_percent_of_full_ridge_on_sine():
    # Only the mean over seeds is asserted: single seeds range from 0.96
    # to 1.60 times the full ridge MAE.
    ours, full, costs = [], [], set()
    for seed in range(10):
        train = gen_synthetic("sine_regression", seed=seed)
        test = gen_synthetic("sine_regression", seed=10_000 + seed)
        spec = SimilaritySpec(kind="rbf", gamma=1.0 / train.dim)
        config = TrainConfig(seed=seed, eta=0.1, box="data", penalty_enabled=True, max_sweeps=50, epsilon=1e-9)
        model, _ = fit(train, 8, config=config, similarity=spec)
        ridge = kernel_ridge_full(train, 1e-6, spec)
        ours.append(mae(predict_batch(model, test.features), test.targets))
        full.append(mae(predict_batch(ridge, test.features), test.targets))
        costs.add((eval_cost(model), eval_cost(ridge)))
    assert costs == {(8, 200)}
    assert np.mean(ours) <= 1.15 * np.mean(full), (np.mean(ours), np.mean(full))
