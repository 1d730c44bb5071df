import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import chisquare

from sparsim import Dataset, SparseModel, baselines, gen_synthetic, predict_batch
from sparsim.baselines import (
    baseline_pipeline,
    kernel_ridge_full,
    lasso_kkt_residuals,
    lasso_similarity,
    ps_border,
    ps_kmedians,
    ps_random,
    ps_spanning,
    set_median_index,
)
from sparsim.errors import ConvergenceError, SingularSystemError
from sparsim.ridge import RESIDUAL_RTOL, normal_matrix, solve, weighted_design
from sparsim.similarity import EVAL_COUNTER, SimilaritySpec, pairwise, sim_matrix

from conftest import full_matrix_set_median_index

RBF1 = SimilaritySpec(kind="rbf", gamma=1.0)


def full_beta(model, n):
    """The lasso model's coefficients scattered back over all n prototypes."""
    beta = np.zeros(n)
    beta[model.metadata["indices"]] = model.beta
    return beta


def spread_instance(seed=7, n=12):
    rng = np.random.default_rng(seed)
    X = np.column_stack([rng.permutation(n) * 1.0, rng.permutation(n) * 1.0])
    y = rng.normal(0, 1, n)
    u = rng.uniform(0.5, 2.0, n)
    return Dataset(features=X, targets=y, weights=u)


class TestPsRandom:
    def test_full_draw(self, rng):
        data = Dataset(features=rng.normal(0, 1, (6, 2)), targets=np.ones(6))
        assert sorted(ps_random(data, 6, seed=0).tolist()) == list(range(6))

    def test_reproducible(self, rng):
        data = Dataset(features=rng.normal(0, 1, (20, 2)), targets=np.ones(20))
        np.testing.assert_array_equal(ps_random(data, 5, seed=3), ps_random(data, 5, seed=3))

    def test_uniformity_chi_square(self, rng):
        data = Dataset(features=rng.normal(0, 1, (10, 2)), targets=np.ones(10))
        counts = np.zeros(10)
        for seed in range(10_000):
            for idx in ps_random(data, 3, seed=seed):
                counts[idx] += 1
        _, p = chisquare(counts)
        assert p > 0.01

    def test_distinct_in_range(self, rng):
        data = Dataset(features=rng.normal(0, 1, (15, 2)), targets=np.ones(15))
        idx = ps_random(data, 7, seed=1)
        assert len(set(idx.tolist())) == 7
        assert idx.min() >= 0 and idx.max() < 15


class TestPsBorder:
    def test_collinear_endpoint(self):
        data = Dataset(features=[[0.0], [1.0], [2.0]], targets=np.ones(3))
        idx = ps_border(data, 1)
        assert idx[0] in (0, 2)

    def test_full_draw(self, rng):
        data = Dataset(features=rng.normal(0, 1, (5, 2)), targets=np.ones(5))
        assert sorted(ps_border(data, 5).tolist()) == list(range(5))

    def test_ring_and_center_selects_ring(self):
        data = gen_synthetic("ring", n=50, seed=0)
        idx = ps_border(data, 4)
        radii = np.linalg.norm(data.features[idx], axis=1)
        assert np.all(radii > 1.0)  # ring points sit near radius 2, blob near 0


class TestPsSpanning:
    def test_first_is_set_median(self, rng):
        X = rng.normal(0, 1, (15, 3))
        data = Dataset(features=X, targets=np.ones(15))
        idx = ps_spanning(data, 1)
        # independent oracle: explicit summed-distance argmin
        sums = [np.sum([np.linalg.norm(a - b) for b in X]) for a in X]
        assert idx[0] == int(np.argmin(sums))

    def test_second_pick_crosses_clusters(self, rng):
        left = rng.normal([-3, 0], 0.2, (6, 2))
        right = rng.normal([3, 0], 0.2, (4, 2))
        data = Dataset(features=np.vstack([left, right]), targets=np.ones(10))
        idx = ps_spanning(data, 2)
        # median lives in the bigger cluster, the next pick in the other one
        assert (idx[0] < 6) != (idx[1] < 6)

    def test_distinct(self, rng):
        data = Dataset(features=rng.normal(0, 1, (12, 2)), targets=np.ones(12))
        idx = ps_spanning(data, 6)
        assert len(set(idx.tolist())) == 6


class TestPsKmedians:
    def test_planted_clusters_one_pick_each(self, rng):
        centers = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        X = np.vstack([rng.normal(c, 0.3, (7, 2)) for c in centers])
        data = Dataset(features=X, targets=np.ones(21))
        idx = ps_kmedians(data, 3, seed=0)
        buckets = {0: 0, 1: 0, 2: 0}
        for i in idx:
            buckets[i // 7] += 1
        assert all(v == 1 for v in buckets.values())

    def test_single_cluster_is_global_median(self, rng):
        X = rng.normal(0, 1, (11, 2))
        data = Dataset(features=X, targets=np.ones(11))
        idx = ps_kmedians(data, 1, seed=0)
        assert idx[0] == set_median_index(X)

    def test_m_larger_than_n_rejected_by_the_distinct_row_rule(self, rng):
        # the selector has no size check of its own (baseline_pipeline applies check_size)
        data = Dataset(features=rng.normal(0, 1, (3, 2)), targets=np.ones(3))
        with pytest.raises(ValueError, match="cannot form m=4 clusters from 3 distinct rows"):
            ps_kmedians(data, 4, seed=0)

    def test_repeated_rows(self, rng):
        # more clusters than distinct rows cannot be formed; as many as there
        # are distinct rows takes each once (Lloyd restarts empty clusters)
        distinct = rng.normal(0, 1, (3, 2))
        data = Dataset(features=np.repeat(distinct, 4, axis=0), targets=np.ones(12))
        with pytest.raises(ValueError, match="from 3 distinct rows"):
            ps_kmedians(data, 4, seed=0)
        for seed in range(10):
            picked = data.features[ps_kmedians(data, 3, seed=seed)]
            np.testing.assert_array_equal(np.unique(picked, axis=0), np.unique(distinct, axis=0))


class TestPipeline:
    @pytest.mark.parametrize("kind, m", [("spanning", 0), ("random", 2.5), ("median", 2)])
    def test_selection_method_rejects_invalid_values(self, kind, m, rng):
        data = Dataset(features=rng.normal(0, 1, (5, 2)), targets=rng.normal(0, 1, 5))
        with pytest.raises(ValueError):
            baseline_pipeline(data, kind, m, 1e-6, RBF1)

    def test_prototypes_are_bitwise_training_rows(self, rng):
        data = Dataset(features=rng.normal(0, 1, (15, 3)), targets=rng.normal(0, 1, 15))
        for kind in ("random", "border", "spanning", "kmedians"):
            model = baseline_pipeline(data, kind, 4, 1e-6, RBF1, seed=2)
            assert model.m == 4
            for row in model.prototypes:
                assert any(np.array_equal(row, feat) for feat in data.features)

    def test_random_full_equals_kernel_ridge(self, rng):
        data = Dataset(features=rng.normal(0, 1, (10, 2)), targets=rng.normal(0, 1, 10))
        piped = baseline_pipeline(data, "random", 10, 1e-4, RBF1, seed=0)
        ridge = kernel_ridge_full(data, 1e-4, RBF1)
        probe = rng.normal(0, 1, (20, 2))
        np.testing.assert_allclose(
            predict_batch(piped, probe), predict_batch(ridge, probe), rtol=1e-8, atol=1e-10
        )


class TestKernelRidgeFull:
    def test_interpolates_at_zero_lambda(self):
        data = spread_instance(seed=3, n=8)
        model = kernel_ridge_full(data, 0.0, RBF1)
        np.testing.assert_allclose(predict_batch(model, data.features), data.targets, atol=1e-8)

    def test_constant_targets(self, rng):
        data = Dataset(features=rng.normal(0, 1, (9, 2)), targets=np.full(9, 4.2))
        model = kernel_ridge_full(data, 0.1, RBF1)
        np.testing.assert_allclose(model.beta, 0.0, atol=1e-9)
        assert model.bias == pytest.approx(4.2, rel=1e-10)

    def test_rejects_nan_lambda(self):
        with pytest.raises(ValueError, match="lam"):
            kernel_ridge_full(spread_instance(), float("nan"), RBF1)

    def test_matches_direct_solve(self, rng):
        from sparsim.ridge import assemble

        data = Dataset(features=rng.normal(0, 1, (12, 2)), targets=rng.normal(0, 1, 12))
        model = kernel_ridge_full(data, 1e-3, RBF1)
        # the row-major S that the full ridge builds; sim_matrix's is prototype-major
        S = np.ascontiguousarray(sim_matrix(RBF1, data.features, data.features).values)
        matrix, rhs = assemble(S, data.weights, data.targets, 1e-3)
        beta, bias = solve(matrix, rhs)
        # the full ridge factors the other triangle of its system, so it
        # rounds differently: it meets the direct system's normal equations
        # and predicts alike, within the solver's own guarantee
        x = np.append(model.beta, model.bias)
        assert np.linalg.norm(matrix @ x - rhs) <= RESIDUAL_RTOL * np.linalg.norm(rhs)
        np.testing.assert_allclose(model.beta, beta, rtol=1e-9, atol=1e-9 * np.max(np.abs(beta)))
        assert model.bias == pytest.approx(bias, rel=1e-9)


class TestLasso:
    def test_large_penalty_kills_all_coefficients(self):
        data = spread_instance()
        S = sim_matrix(RBF1, data.features, data.features).values
        ybar = float(np.sum(data.weights * data.targets) / np.sum(data.weights))
        lam_max = 2 * np.max(np.abs(((data.targets - ybar) * data.weights) @ S))
        model = lasso_similarity(data, lam_max * 1.01, RBF1)
        np.testing.assert_array_equal(model.beta, np.zeros(model.m))
        assert model.bias == pytest.approx(ybar, rel=1e-12)

    def test_zero_penalty_matches_least_squares_oracle(self):
        # the design has an unpenalized intercept over n prototypes, so the
        # coefficients are non-unique; fitted values are the unique object
        data = spread_instance()
        model = lasso_similarity(data, 0.0, RBF1, tol=1e-10)
        S = sim_matrix(RBF1, data.features, data.features).values
        A = np.column_stack([S, np.ones(data.n)])
        w = np.sqrt(data.weights)
        coef, *_ = np.linalg.lstsq(w[:, None] * A, w * data.targets, rcond=None)
        np.testing.assert_allclose(predict_batch(model, data.features), A @ coef, atol=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 9])
    @pytest.mark.parametrize("lam1", [0.0, 0.3, 2.0])
    def test_kkt_residuals_match_loop_oracle(self, rng, n, lam1):
        def loop_oracle(S, weights, targets, beta, bias, lam1):
            r = targets - S @ beta - bias
            corr = 2.0 * (weights * r) @ S
            res = np.empty(len(beta) + 1)
            for j in range(len(beta)):
                if beta[j] != 0.0:
                    res[j] = abs(corr[j] - lam1 * np.sign(beta[j]))
                else:
                    res[j] = max(0.0, abs(corr[j]) - lam1)
            res[-1] = abs(2.0 * np.sum(weights * r))
            return res

        for _ in range(20):
            S = rng.uniform(0.0, 1.0, (12, n))
            weights = rng.uniform(0.5, 2.0, 12)
            targets = rng.normal(0.0, 1.0, 12)
            beta = rng.normal(0.0, 1.0, n) * (rng.uniform(size=n) < 0.5)
            args = (S, weights, targets, beta, float(rng.normal()), lam1)
            np.testing.assert_array_equal(lasso_kkt_residuals(*args), loop_oracle(*args))

    def test_kkt_residuals_below_tolerance(self):
        data = spread_instance()
        S = sim_matrix(RBF1, data.features, data.features).values
        for lam1 in (1e-3, 1e-2, 0.1, 0.5, 2.0):
            model = lasso_similarity(data, lam1, RBF1)
            full = np.zeros(data.n)
            for b, i in zip(model.beta, model.metadata["indices"]):
                full[i] = b
            res = lasso_kkt_residuals(S, data.weights, data.targets, full, model.bias, lam1)
            assert res.max() <= 1e-6

    def test_sparsity_non_increasing_along_path(self):
        data = spread_instance(seed=11)
        path = np.geomspace(1e-3, 5.0, 10)
        sizes = []
        for lam1 in path:
            model = lasso_similarity(data, lam1, RBF1)
            sizes.append(int(np.sum(model.beta != 0)))
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_nonconvergence_reports_residual(self, rng, monkeypatch):
        # nearly-duplicate columns with a tiny budget cannot reach optimality
        monkeypatch.setattr(baselines, "MAX_PATH_EVENTS", 2)
        X = np.vstack([rng.normal(0, 0.01, (10, 2))])
        data = Dataset(features=X, targets=rng.normal(0, 1, 10))
        with pytest.raises(ConvergenceError, match="residual"):
            lasso_similarity(data, 1e-6, RBF1)

    def test_rejects_negative_penalty(self):
        with pytest.raises(ValueError):
            lasso_similarity(spread_instance(), -1.0, RBF1)

    def test_rejects_nan_penalty(self):
        with pytest.raises(ValueError, match="lam1"):
            lasso_similarity(spread_instance(), float("nan"), RBF1)

    def test_rejects_infinite_penalty(self):
        # lam1=inf reached the path and saved "lam1": Infinity, which is not JSON
        with pytest.raises(ValueError, match="lam1 must be finite and >= 0"):
            lasso_similarity(spread_instance(), float("inf"), RBF1)

    @pytest.mark.parametrize("lam1, beta, bias", [
        (1.0, -0.024999999999999998, -0.225),
        (0.1, -0.047499999999999994, -0.2025),
        (0.01, -0.049749999999999996, -0.20025),
        (0.0, -0.049999999999999996, -0.2),
    ])
    def test_newcomer_against_its_sign_is_dropped_at_step_zero(self, lam1, beta, bias):
        # the one known design on which an entering column's direction
        # opposes its sign; the path drops it again with a zero step
        data = Dataset(features=[[-1, 2], [-2, 0], [0, 1], [1, 2]], targets=[0, -1, 1, -1])
        spec = SimilaritySpec("linear")
        model = lasso_similarity(data, lam1, spec)
        S = sim_matrix(spec, data.features, data.features).values
        res = lasso_kkt_residuals(S, data.weights, data.targets, full_beta(model, data.n), model.bias, lam1)
        assert res.max() <= 1e-6
        assert model.beta.tolist() == [beta]
        assert model.bias == bias
        assert model.metadata["indices"] == [1]

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_nonfinite_or_nonpositive_tol(self, tol):
        # with tol=nan every residual passed the optimality check, so a
        # path cut short after one event came back as if it were optimal
        data = gen_synthetic("sine_regression", n=60, seed=0)
        with pytest.raises(ValueError, match="tol"):
            lasso_similarity(data, 1e-3, RBF1, tol=tol)

    @pytest.mark.parametrize("routine", ["dpotrf", "dpotrs", "dtrtrs"])
    def test_lapack_failure_names_the_path_event(self, monkeypatch, routine):
        # this path has drops, so all three routines run; dpotrf re-factors after a drop
        data = gen_synthetic("sine_regression", n=30, seed=0)
        monkeypatch.setattr(baselines.lapack, routine, lambda a, *args, **kwargs: (a, 1))
        message = rf"lasso path event \d+ at lambda \d\.\d+e[+-]\d+: LAPACK {routine} returned info 1"
        with pytest.raises(ConvergenceError, match=message):
            lasso_similarity(data, 0.1, RBF1)

    @pytest.mark.parametrize("lam1", [1e-1, 1e-2, 1e-3])
    def test_readme_sine_data_finishes(self, lam1):
        # the README quick-start data: nearly dependent RBF columns on which
        # coordinate descent ran out of sweeps after minutes
        data = gen_synthetic("sine_regression", n=200, seed=0)
        started = time.perf_counter()
        model = lasso_similarity(data, lam1, RBF1)
        elapsed = time.perf_counter() - started
        S = sim_matrix(RBF1, data.features, data.features).values
        res = lasso_kkt_residuals(S, data.weights, data.targets, full_beta(model, data.n), model.bias, lam1)
        assert res.max() <= 1e-6
        assert elapsed < 5.0


@given(
    n=st.integers(2, 15),
    d=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    fraction=st.floats(0.0, 1.1),
)
def test_lasso_optimal_anywhere_on_the_path(n, d, seed, fraction):
    """On a design with distinct integer coordinates (pairwise distance at
    least 1, so the RBF Gram matrix is well conditioned), random weights and
    any lam1 in [0, 1.1 lambda_max], the result satisfies the optimality
    conditions to 1e-6, and lam1 >= lambda_max gives all zeros."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([rng.permutation(n) for _ in range(d)]).astype(float)
    data = Dataset(features=X, targets=rng.normal(0, 1, n), weights=rng.uniform(0.1, 3.0, n))
    S = sim_matrix(RBF1, X, X).values
    ybar = np.sum(data.weights * data.targets) / np.sum(data.weights)
    lam_max = 2 * np.max(np.abs(((data.targets - ybar) * data.weights) @ S))
    lam1 = fraction * lam_max
    model = lasso_similarity(data, lam1, RBF1)
    beta = full_beta(model, n)
    assert lasso_kkt_residuals(S, data.weights, data.targets, beta, model.bias, lam1).max() <= 1e-6
    if lam1 >= lam_max * (1 + 1e-12):  # beyond the rounding of lambda_max
        np.testing.assert_array_equal(beta, 0.0)


@pytest.mark.parametrize("n", [1, 2, 7, 255, 256, 257, 600])
@pytest.mark.parametrize("d", [1, 3])
def test_cheap_selectors_match_the_full_distance_matrix(monkeypatch, n, d):
    # integer rows tie often, so the first of equal sums must stay first
    rng = np.random.default_rng([n, d])
    data = Dataset(features=rng.integers(-3, 4, (n, d)).astype(float), targets=np.ones(n))
    m = min(n, 5)
    blocked = (set_median_index(data.features), ps_border(data, m), ps_spanning(data, m))
    monkeypatch.setattr(baselines, "set_median_index", full_matrix_set_median_index)
    assert blocked[0] == full_matrix_set_median_index(data.features)
    np.testing.assert_array_equal(blocked[1], ps_border(data, m))
    np.testing.assert_array_equal(blocked[2], ps_spanning(data, m))


@pytest.mark.parametrize("selector", [ps_border, ps_spanning])
def test_cheap_selectors_peak_memory_below_a_tenth_of_n_squared(selector):
    # the set median used to build the whole n x n distance matrix (1.0 n^2)
    n = 4000
    data = Dataset(features=np.random.default_rng(0).normal(0, 1, (n, 2)), targets=np.ones(n))
    tracemalloc.start()
    try:
        selector(data, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 8 * n * n


def full_ridge_account(n):
    """The full ridge's peak in units of n^2 doubles: its (n+1)^2 array, one
    panel of PANEL_ROWS rows of n+1, and 4 n for its vectors (rhs, the
    saved diagonal, the solution and its residual)."""
    return ((n + 1) ** 2 + baselines.PANEL_ROWS * (n + 1) + 4 * n) / n**2


def traced_peak(run):
    """tracemalloc's peak of bytes allocated while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def peak_memory_problem(n, d=20):
    rng = np.random.default_rng(0)
    X = rng.uniform(-1, 1, (n, d))
    data = Dataset(features=X, targets=np.sin(X.sum(axis=1)) + rng.normal(0, 0.1, n))
    return data, SimilaritySpec(kind="rbf", gamma=1.0 / d)


@pytest.mark.parametrize(
    "baseline, bound",
    [
        (lambda data, spec: kernel_ridge_full(data, 1e-2, spec), full_ridge_account(300)),
        (lambda data, spec: baseline_pipeline(data, "random", 250, 1e-2, spec), 2.0),
        (lambda data, spec: lasso_similarity(data, 1e-2, spec), 5.6),
    ],
    ids=["kernel_ridge_full", "baseline_pipeline_random_250", "lasso_similarity"],
)
def test_full_baselines_peak_memory_in_units_of_n_squared(baseline, bound):
    # the full ridge holds one (n+1)^2 array (the similarities, then A', then
    # M and its Cholesky factor) and, while it forms M, one panel of rows:
    # 1.435 n^2 at n=300 with 128-row panels, plus O(n); the pipeline holds
    # two n x m-sized arrays at a time: S and A', then A' and M, then M and
    # the solver's copy (a third would exceed 2.0 n^2 at m=250 of 300); the
    # lasso holds S, its Gram and the path's active rows
    n = 300
    data, spec = peak_memory_problem(n)
    assert traced_peak(lambda: baseline(data, spec)) <= bound * 8 * n * n


def test_full_ridge_peak_memory_at_the_benchmark_size():
    # score_full's n: two (n+1)^2 arrays read 2.0 n^2; one and a panel, 1.13 n^2
    n = 1000
    data, spec = peak_memory_problem(n)
    assert traced_peak(lambda: kernel_ridge_full(data, 1e-2, spec)) <= 1.2 * 8 * n * n


def test_singular_full_ridge_fails_within_one_array_and_a_panel():
    # every row twice at lam 0 makes the system singular, so the direct solve,
    # the jittered retry and the condition estimate all run; all three work in
    # the one (n+1)^2 array, so the failure stays within a regular solve's peak
    n, d = 300, 20
    X = np.repeat(np.random.default_rng(0).uniform(-1, 1, (n // 2, d)), 2, axis=0)
    data = Dataset(features=X, targets=np.sin(X.sum(axis=1)))
    spec = SimilaritySpec(kind="rbf", gamma=1.0 / d)

    def fails():
        with pytest.raises(SingularSystemError, match="cond"):
            kernel_ridge_full(data, 0.0, spec)

    assert traced_peak(fails) <= full_ridge_account(n) * 8 * n * n


def gram_evaluations(n):
    """sum_b (i1 - i0)(n - i0): the evaluations of an n x n Gram scored as
    upper-triangle blocks of GRAM_BLOCK_ROWS rows."""
    rows = baselines.GRAM_BLOCK_ROWS
    return sum((min(i0 + rows, n) - i0) * (n - i0) for i0 in range(0, n, rows))


def symmetric_scorer(calls=None):
    """A pairwise black-box scorer, bitwise symmetric since (a - b)^2 is
    (b - a)^2; each call appends to ``calls`` when given."""

    def score(a, b):
        if calls is not None:
            calls.append(1)
        return float(np.exp(-np.sum((a - b) ** 2) / a.size))

    return SimilaritySpec(kind="blackbox", blackbox_id="symmetric", scorer=pairwise(score))


def test_gram_evaluations_at_the_benchmark_sizes():
    assert baselines.GRAM_BLOCK_ROWS == 64
    assert [gram_evaluations(n) for n in (1, 64, 65, 150, 300, 1000)] == [1, 4096, 4161, 15_588, 54_160, 531_520]


@pytest.mark.parametrize("n", [1, 63, 64, 65, 300])
@pytest.mark.parametrize("spec", [SimilaritySpec(kind="rbf", gamma=0.2), symmetric_scorer()], ids=["rbf", "blackbox"])
def test_gram_is_the_one_block_matrix_bit_for_bit(spec, n):
    X = np.random.default_rng(n).uniform(-1, 1, (n, 5))
    gram = baselines._gram(spec, X)
    assert gram.tobytes() == sim_matrix(spec, X, X).values.tobytes()
    assert gram.tobytes() == gram.T.copy().tobytes()
    out = np.full((n, n), np.nan)
    assert baselines._gram(spec, X, out=out) is out
    assert out.tobytes() == gram.tobytes()


@pytest.mark.parametrize("n", [1, 63, 64, 65, 300])
def test_linear_gram_is_symmetric_and_near_the_one_product_matrix(n):
    # block GEMMs round differently from the one product's SYRK, in the last bit
    X = np.random.default_rng(n).normal(0, 1, (n, 20))
    spec = SimilaritySpec("linear")
    gram, full = baselines._gram(spec, X), sim_matrix(spec, X, X).values
    np.testing.assert_array_equal(gram, gram.T)
    assert np.max(np.abs(gram - full)) <= 1e-15 * np.max(np.abs(full))


@pytest.mark.parametrize("n", [1, 64, 65, 300])
@pytest.mark.parametrize("spec", [SimilaritySpec(kind="rbf", gamma=0.2), symmetric_scorer()], ids=["rbf", "blackbox"])
def test_full_ridge_in_one_buffer_is_the_composed_ridge_bit_for_bit(spec, n):
    # the Gram scaled in place as A', M formed by panels and factored in that
    # array, against the public steps, each on arrays of its own: panel
    # products and the other triangle's factor round differently from one
    # SYRK and the plain solve, so the full ridge meets the composed system
    # within the solver's own guarantee and predicts alike, and is bit for
    # bit only against itself
    rng = np.random.default_rng(n)
    X = rng.uniform(-1, 1, (n, 5))
    data = Dataset(features=X, targets=rng.normal(0, 1, n), weights=rng.uniform(0.5, 2.0, n))
    model = kernel_ridge_full(data, 1e-2, spec)
    At, rhs = weighted_design(baselines._gram(spec, X), data.weights, data.targets, 1e-2)
    matrix = normal_matrix(At, 1e-2)
    beta, bias = solve(matrix, rhs)
    x = np.append(model.beta, model.bias)
    assert np.linalg.norm(matrix @ x - rhs) <= RESIDUAL_RTOL * np.linalg.norm(rhs)
    composed = SparseModel(prototypes=X, beta=beta, bias=bias, similarity=spec)
    probe = rng.uniform(-1, 1, (50, 5))
    expected = predict_batch(composed, probe)
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert np.max(np.abs(predict_batch(model, probe) - expected)) <= 1e-9 * scale
    again = kernel_ridge_full(data, 1e-2, spec)
    assert (again.beta.tobytes(), again.bias) == (model.beta.tobytes(), model.bias)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_full_baselines_from_the_gram_equal_those_from_one_block(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, (150, 5))
    data = Dataset(features=X, targets=np.sin(X.sum(axis=1)) + rng.normal(0, 0.1, 150))
    spec = SimilaritySpec(kind="rbf", gamma=0.2)
    fits = (lambda: kernel_ridge_full(data, 1e-2, spec), lambda: lasso_similarity(data, 1e-2, spec))
    blocked = [fit() for fit in fits]

    def one_block_gram(spec, X, out=None):
        # the row-major Gram that _gram builds; sim_matrix's is prototype-major
        S = np.ascontiguousarray(sim_matrix(spec, X, X).values)
        if out is None:
            return S
        out[...] = S
        return out

    monkeypatch.setattr(baselines, "_gram", one_block_gram)
    for model, fit in zip(blocked, fits):
        one_block = fit()
        assert model.beta.tobytes() == one_block.beta.tobytes()
        assert model.bias == one_block.bias
        assert model.metadata == one_block.metadata


@pytest.mark.parametrize("n", [1, 64, 65, 300])
@pytest.mark.parametrize("baseline", [kernel_ridge_full, lasso_similarity], ids=["ridge", "lasso"])
def test_full_baselines_evaluate_each_symmetric_pair_once(baseline, n):
    rng = np.random.default_rng(n)
    data = Dataset(features=rng.uniform(-1, 1, (n, 5)), targets=rng.normal(0, 1, n))
    before = EVAL_COUNTER.read()
    baseline(data, 1e-2, SimilaritySpec(kind="rbf", gamma=0.2))
    assert EVAL_COUNTER.read() - before == gram_evaluations(n)


@pytest.mark.parametrize("baseline", [kernel_ridge_full, lasso_similarity], ids=["ridge", "lasso"])
def test_black_box_full_baselines_score_each_pair_once(baseline):
    n, calls = 150, []
    rng = np.random.default_rng(0)
    data = Dataset(features=rng.uniform(-1, 1, (n, 5)), targets=rng.normal(0, 1, n))
    baseline(data, 1e-2, symmetric_scorer(calls))
    assert len(calls) == gram_evaluations(n) == 15_588  # not n^2 = 22,500
