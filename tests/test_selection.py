import csv
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import loop_group_kfold_split

from sparsim import Dataset, GridConfig, TrainConfig, fit, gen_synthetic, predict_batch
from sparsim.metrics import error_rate, mae, mse
from sparsim.selection import (
    _descend_grid,
    default_grid,
    group_kfold_split,
    kfold_split,
    select_model_size,
    smallest_coefficient_positions,
)
from sparsim.similarity import EVAL_COUNTER, SimilaritySpec

RBF = SimilaritySpec(kind="rbf", gamma=0.5)
FAST = dict(eta=0.15, box="data", max_sweeps=10, epsilon=1e-8)


class TestGridConfig:
    def test_requires_descending(self):
        with pytest.raises(ValueError):
            GridConfig(grid=(5, 5, 2))
        with pytest.raises(ValueError):
            GridConfig(grid=(2, 5))

    @pytest.mark.parametrize("kwargs, match", [
        (dict(grid=(3, True)), "grid sizes must be integers"),
        (dict(grid=(False,)), "grid sizes must be integers"),
        (dict(grid=(3, 2), folds=True), "folds must be an integer"),
    ], ids=["grid", "grid-false", "folds"])
    def test_rejects_booleans(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            GridConfig(**kwargs)

    def test_requires_positive_sizes_and_folds(self):
        with pytest.raises(ValueError):
            GridConfig(grid=(3, 0))
        with pytest.raises(ValueError):
            GridConfig(grid=(3, 2), folds=1)
        with pytest.raises(ValueError, match="folds"):
            GridConfig(grid=(3, 2), folds=2.5)
        with pytest.raises(ValueError, match="integers"):
            GridConfig(grid=(3.7, 2))
        with pytest.raises(ValueError):
            GridConfig(grid=(3, 2), rho=-0.1)
        with pytest.raises(ValueError):
            GridConfig(grid=(3, 2), rho=np.nan)
        with pytest.raises(ValueError):
            GridConfig(grid=(3, 2), loss_kind="rmse")

    def test_rho_must_be_finite(self):
        with pytest.raises(ValueError, match="rho must be finite"):
            GridConfig(grid=(3, 2), rho=np.inf)

    def test_rho_defaults_follow_loss(self):
        assert GridConfig(grid=(3, 2), loss_kind="mae").resolved_rho == 0.1
        assert GridConfig(grid=(3, 2), loss_kind="mse").resolved_rho == 1e-3
        assert GridConfig(grid=(3, 2), loss_kind="mse", rho=0.5).resolved_rho == 0.5

    def test_replaced_config_keeps_the_callers_rho(self):
        # the default follows the new loss; an explicit weight survives it
        default = GridConfig(grid=(3, 2))
        as_mae = replace(default, loss_kind="mae")
        assert as_mae.rho is None and as_mae.resolved_rho == 0.1
        assert replace(replace(default, rho=0.5), loss_kind="mae").resolved_rho == 0.5


class TestDefaultGrid:
    def test_reference_sequence(self):
        assert default_grid(40) == (20, 10, 5, 4, 3, 2)

    def test_small_n(self):
        assert default_grid(10) == (5, 4, 3, 2)
        assert default_grid(3) == (1,)


class TestKfold:
    def test_partition_property(self):
        folds = kfold_split(10, 5, seed=0)
        assert len(folds) == 5
        all_idx = np.concatenate(folds)
        assert sorted(all_idx.tolist()) == list(range(10))
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1

    def test_seed_determinism(self):
        a = kfold_split(23, 4, seed=7)
        b = kfold_split(23, 4, seed=7)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)

    def test_k_exceeding_n(self):
        with pytest.raises(ValueError):
            kfold_split(3, 4, seed=0)

    def test_group_folds_are_subject_disjoint(self):
        groups = np.array(["a", "a", "b", "b", "b", "c", "d", "d", "e", "f"])
        folds = group_kfold_split(groups, 3, seed=1)
        all_idx = np.concatenate(folds)
        assert sorted(all_idx.tolist()) == list(range(10))
        for fold in folds:
            members = set(groups[fold])
            for other in folds:
                if other is fold:
                    continue
                assert members.isdisjoint(set(groups[other]))

    @given(
        group_of=st.lists(st.integers(0, 12), min_size=2, max_size=60),
        k=st.integers(2, 6),
        seed=st.integers(0, 2**16),
    )
    def test_folds_partition_samples_and_keep_groups_whole(self, group_of, k, seed):
        groups = np.array(group_of)
        n = groups.size
        plain = kfold_split(n, min(k, n), seed)
        grouped = group_kfold_split(groups, min(k, np.unique(groups).size), seed)
        for folds in (plain, grouped):
            # disjoint and covering: every sample in exactly one fold
            assert sorted(np.concatenate(folds).tolist()) == list(range(n))
        # no group is split across folds
        fold_of = {}
        for f, fold in enumerate(grouped):
            for i in fold:
                assert fold_of.setdefault(groups[i], f) == f

    @given(
        group_of=st.lists(st.integers(0, 30), min_size=1, max_size=120),
        label=st.sampled_from(["int", "str", "float"]),
        k=st.integers(1, 8),
        seed=st.integers(0, 2**16),
    )
    def test_group_folds_equal_the_per_group_loop(self, group_of, label, k, seed):
        groups = {"int": np.array(group_of), "str": np.array([f"s{g}" for g in group_of]),
                  "float": np.array(group_of) * 0.5 - 3.25}[label]
        k = min(k, np.unique(groups).size)
        got, expected = group_kfold_split(groups, k, seed), loop_group_kfold_split(groups, k, seed)
        assert len(got) == len(expected) == k
        for fold, oracle in zip(got, expected):
            assert fold.dtype == oracle.dtype
            np.testing.assert_array_equal(fold, oracle)

    def test_nan_labels_are_one_group(self):
        # every NaN label is one group, and none of its rows may fall out of the folds
        folds = group_kfold_split(np.array([1.0, np.nan, 2.0, np.nan, 3.0]), 2, seed=0)
        assert sorted(np.concatenate(folds).tolist()) == list(range(5))
        assert any({1, 3} <= set(fold.tolist()) for fold in folds)

    def test_group_folds_need_positive_k(self):
        with pytest.raises(ValueError, match="need k >= 1"):
            group_kfold_split(np.array(["a", "a", "b"]), 0, seed=0)

    def test_group_folds_need_enough_groups(self):
        with pytest.raises(ValueError):
            group_kfold_split(np.array(["a", "a", "b"]), 3, seed=0)


class TestPrune:
    def test_smallest_absolute_coefficient_removed(self, rng):
        data = Dataset(features=rng.normal(0, 1, (12, 2)), targets=rng.normal(0, 1, 12))
        model, _ = fit(data, 3, config=TrainConfig(seed=0, **FAST), similarity=RBF)
        # force a known coefficient pattern through the positions helper
        assert smallest_coefficient_positions([0.5, -0.05, 2.0], 1) == (1,)

    def test_positions_match_sort_oracle(self, rng):
        for _ in range(25):
            beta = rng.normal(0, 1, int(rng.integers(2, 9)))
            count = int(rng.integers(1, beta.shape[0]))
            got = smallest_coefficient_positions(beta, count)
            oracle = tuple(sorted(range(len(beta)), key=lambda i: (abs(beta[i]), i))[:count])
            assert got == oracle

    def test_tie_breaks_drop_lowest_index(self):
        assert smallest_coefficient_positions([1.0, -1.0, 1.0], 2) == (0, 1)

    def test_warm_refit_not_worse_than_cold(self):
        # statistical check against cold starts over ten seeds
        warm_losses, cold_losses = [], []
        for seed in range(10):
            data = gen_synthetic("three_clusters", n=45, seed=seed)
            val = gen_synthetic("three_clusters", n=45, seed=500 + seed)
            config = TrainConfig(seed=seed, **FAST)
            model, _ = fit(data, 5, config=config, similarity=RBF)
            survivors = np.delete(model.prototypes, smallest_coefficient_positions(model.beta, 1), axis=0)
            warm, _ = fit(data, 4, config=config, similarity=RBF, init=survivors)
            cold, _ = fit(data, 4, config=config, similarity=RBF)
            warm_losses.append(mse(predict_batch(warm, val.features), val.targets))
            cold_losses.append(mse(predict_batch(cold, val.features), val.targets))
        warm_losses, cold_losses = np.array(warm_losses), np.array(cold_losses)
        se = cold_losses.std(ddof=1) / np.sqrt(10)
        assert warm_losses.mean() <= cold_losses.mean() + se


class TestSelect:
    def test_rho_zero_picks_min_loss(self):
        data = gen_synthetic("three_clusters", n=45, seed=0)
        gc = GridConfig(grid=(6, 3, 2), rho=0.0, loss_kind="mse", folds=3)
        model, trace = select_model_size(data, gc, TrainConfig(seed=0, **FAST), RBF)
        losses = {r.m: r.loss for r in trace.rows}
        best = min(losses.values())
        assert losses[trace.chosen_m] == best
        assert trace.chosen_m == min(m for m, l in losses.items() if l == best)

    def test_huge_rho_picks_smallest(self):
        data = gen_synthetic("three_clusters", n=45, seed=1)
        gc = GridConfig(grid=(6, 3, 2), rho=1e9, loss_kind="mse", folds=3)
        model, trace = select_model_size(data, gc, TrainConfig(seed=1, **FAST), RBF)
        assert trace.chosen_m == 2
        assert model.m == 2

    def test_objective_arithmetic_is_exact(self):
        data = gen_synthetic("three_clusters", n=45, seed=2)
        gc = GridConfig(grid=(5, 3, 2), rho=1e-3, loss_kind="mse", folds=3)
        _, trace = select_model_size(data, gc, TrainConfig(seed=2, **FAST), RBF)
        for row in trace.rows:
            assert row.objective == row.loss + 1e-3 * row.m

    def test_final_model_has_chosen_size(self):
        data = gen_synthetic("three_clusters", n=45, seed=3)
        gc = GridConfig(grid=(5, 3, 2), loss_kind="mse", folds=3)
        model, trace = select_model_size(data, gc, TrainConfig(seed=3, **FAST), RBF)
        assert model.m == trace.chosen_m

    def test_error_rate_on_regression_targets_fails_before_any_evaluation(self):
        # on real-valued targets every size would score 1.0, and the tie rule pick the smallest
        data = gen_synthetic("sine_regression", n=60, seed=0)
        gc = GridConfig(grid=(6, 4, 2), loss_kind="error_rate")
        before = EVAL_COUNTER.read()
        with pytest.raises(ValueError, match=r"error_rate needs \+-1 labels, got -?\d"):
            select_model_size(data, gc, TrainConfig(seed=0, **FAST), RBF)
        assert EVAL_COUNTER.read() == before

    def test_grid_too_large_for_folds(self):
        data = gen_synthetic("three_clusters", n=45, seed=4)
        gc = GridConfig(grid=(40, 2), loss_kind="mse", folds=3)
        with pytest.raises(ValueError):
            select_model_size(data, gc, TrainConfig(seed=0, **FAST), RBF)

    def test_group_column_respected(self, rng):
        X = rng.normal(0, 1, (40, 2))
        y = rng.normal(0, 1, 40)
        groups = np.repeat(np.arange(8), 5)
        data = Dataset(features=X, targets=y, groups=groups)
        gc = GridConfig(grid=(4, 2), loss_kind="mse", folds=4)
        model, trace = select_model_size(data, gc, TrainConfig(seed=0, **FAST), RBF)
        assert model.m in (4, 2)

    def test_trace_csv(self, tmp_path):
        data = gen_synthetic("three_clusters", n=45, seed=5)
        gc = GridConfig(grid=(4, 3, 2), loss_kind="mse", folds=3)
        _, trace = select_model_size(data, gc, TrainConfig(seed=5, **FAST), RBF)
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["m", "loss", "L", "chosen"]
        assert len(rows) == 4
        assert sum(int(r[3]) for r in rows[1:]) == 1
        for r in rows[1:]:
            assert float(r[2]) == float(r[1]) + gc.resolved_rho * int(r[0])

    @pytest.mark.parametrize("loss_kind", ["mse", "mae", "error_rate"])
    def test_folds_are_scored_with_the_named_loss(self, loss_kind):
        # replay the folds and score every size under each loss: the trace
        # must hold the named loss's fold means, and only that loss's
        data = gen_synthetic("two_gaussians", n=40, seed=6)
        config = TrainConfig(seed=6, **FAST)
        gc = GridConfig(grid=(4, 2), loss_kind=loss_kind, folds=2)
        _, trace = select_model_size(data, gc, config, RBF)
        per_fold = {loss: [] for loss in (mse, mae, error_rate)}
        folds = kfold_split(data.n, 2, 6)
        for val_idx, child in zip(folds, np.random.SeedSequence(6).spawn(2)):
            train = data.subset(np.setdiff1d(np.arange(data.n), val_idx))
            val = data.subset(val_idx)
            fold_config = replace(config, seed=int(child.generate_state(1)[0]))
            models = _descend_grid(train, gc.grid, fold_config, RBF)
            for loss, values in per_fold.items():
                values.append([loss(predict_batch(m, val.features), val.targets) for m in models])
        got = [row.loss for row in trace.rows]
        for loss, values in per_fold.items():
            assert (got == list(np.mean(values, axis=0))) == (loss.__name__ == loss_kind), loss.__name__

    def test_warm_start_dominance_over_grid(self):
        # mean validation loss of the warm-started descent at each size is
        # no worse than cold fits of the same size, up to one standard error
        grid = (6, 4, 3, 2)
        warm = np.zeros((10, len(grid)))
        cold = np.zeros((10, len(grid)))
        for seed in range(10):
            train = gen_synthetic("three_clusters", n=60, seed=seed)
            val = gen_synthetic("three_clusters", n=60, seed=700 + seed)
            config = TrainConfig(seed=seed, **FAST)
            models = _descend_grid(train, grid, config, RBF)
            for gi, model in enumerate(models):
                warm[seed, gi] = mse(predict_batch(model, val.features), val.targets)
                cold_model, _ = fit(train, grid[gi], config=config, similarity=RBF)
                cold[seed, gi] = mse(predict_batch(cold_model, val.features), val.targets)
        for gi in range(len(grid)):
            se = cold[:, gi].std(ddof=1) / np.sqrt(10)
            assert warm[:, gi].mean() <= cold[:, gi].mean() + se
