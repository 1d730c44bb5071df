"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All tolerances are pinned here; the desk-scale experiments use the seeded
synthetic generators, so every run is deterministic.
"""

import time

import numpy as np
from scipy.spatial.distance import pdist

from conftest import fd_objective_grad, random_instance, resolve_coefficients

from sparsim import (
    Dataset,
    GridConfig,
    TrainConfig,
    fit,
    gen_synthetic,
    kernel_ridge_full,
    lasso_similarity,
    predict_batch,
    select_model_size,
)
from sparsim.baselines import baseline_pipeline, lasso_kkt_residuals
from sparsim.metrics import eval_cost, mae
from sparsim.ridge import assemble, solve
from sparsim.similarity import SimilaritySpec, sim_matrix
from sparsim.datatypes import SparseModel
from sparsim.training import _data_gradient, _loss, init_prototypes


def report(name, ok):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def sign_grid_agreement(teacher, student, data, res=100):
    lo = data.features.min(axis=0)
    hi = data.features.max(axis=0)
    pts = np.column_stack(
        [g.ravel() for g in np.meshgrid(np.linspace(lo[0], hi[0], res), np.linspace(lo[1], hi[1], res))]
    )
    return float(np.mean(np.sign(predict_batch(teacher, pts)) == np.sign(predict_batch(student, pts))))


def distill_experiment(seed, grad_mode):
    """The two-Gaussian teacher-replication experiment at one seed."""
    data = gen_synthetic("two_gaussians", seed=seed)
    spec = SimilaritySpec(kind="rbf", gamma=1.0 / data.dim)
    teacher = kernel_ridge_full(data, 1e-2, spec)
    scores = predict_batch(teacher, data.features)
    config = TrainConfig(
        seed=seed, eta=0.1, box="data", penalty_enabled=True, max_sweeps=150,
        epsilon=1e-8, grad_mode=grad_mode,
    )
    init = init_prototypes(data, 2, seed)  # stratified over the +-1 labels
    student, _ = fit(Dataset(features=data.features, targets=scores), 2, config=config, similarity=spec, init=init)
    return sign_grid_agreement(teacher, student, data)


def test_c01_coefficient_solver_matches_normal_equations_oracle():
    # 50 seeded instances, independent loop-built normal equations,
    # agreement to 1e-8 relative, under one second
    started = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        r = np.random.default_rng(1000 + seed)
        n = int(r.integers(5, 41))
        m = int(r.integers(1, min(7, n + 1)))
        d = int(r.integers(1, 5))
        X = r.normal(0, 1, (n, d))
        protos = X[r.choice(n, m, replace=False)]
        spec = SimilaritySpec(kind="rbf", gamma=float(r.uniform(0.3, 2.0)))
        S = sim_matrix(spec, X, protos).values
        u = r.uniform(0.5, 2.0, n)
        y = r.normal(0, 1, n)
        lam = float(r.choice([1e-6, 1e-3, 0.1]))
        beta, bias = solve(*assemble(S, u, y, lam))
        M = np.zeros((m + 1, m + 1))
        rhs = np.zeros(m + 1)
        for a in range(m):
            for b in range(m):
                M[a, b] = sum(S[i, a] * u[i] * S[i, b] for i in range(n))
            M[a, a] += lam
            M[a, m] = M[m, a] = sum(S[i, a] * u[i] for i in range(n))
            rhs[a] = sum(S[i, a] * u[i] * y[i] for i in range(n))
        M[m, m] = sum(u)
        rhs[m] = sum(u[i] * y[i] for i in range(n))
        oracle = np.linalg.solve(M, rhs)
        got = np.concatenate([beta, [bias]])
        worst = max(worst, float(np.max(np.abs(got - oracle) / np.maximum(np.abs(oracle), 1e-12))))
        if not np.allclose(got, oracle, rtol=1e-8, atol=1e-12):
            report(f"criterion 1: solver vs oracle (seed {seed}, worst rel {worst:.2e})", False)
    elapsed = time.perf_counter() - started
    report(
        f"criterion 1: coefficient solver matches oracle on 50 instances "
        f"(worst rel {worst:.2e}, {elapsed:.2f}s < 1s)",
        elapsed < 1.0,
    )


def test_c02_prototype_gradient_matches_finite_differences():
    # 25 seeded instances, analytic RBF, penalty off; per-coordinate
    # tolerance max(1e-4 relative, 1e-8 absolute); under five seconds
    started = time.perf_counter()
    checked = 0
    for seed in range(25):
        data, protos, r = random_instance(seed)
        spec = SimilaritySpec(kind="rbf", gamma=float(r.uniform(0.3, 2.0)))
        lam = float(r.choice([0.0, 1e-6, 1e-3, 0.1]))
        beta, bias = resolve_coefficients(data, protos, spec, lam)
        # S and the weighted residual as training builds them before an update
        S = sim_matrix(spec, data.features, protos).values.copy()
        _, _, weighted = _loss(S, beta, bias, data, lam)
        for j in range(protos.shape[0]):
            got = _data_gradient(S, data, spec, protos, beta, weighted, j, "analytic")
            oracle = fd_objective_grad(data, protos, spec, lam, j, h=1e-5)
            ok = np.abs(got - oracle) <= np.maximum(1e-4 * np.abs(oracle), 1e-8)
            if not ok.all():
                report(f"criterion 2: gradient mismatch at seed {seed}, prototype {j}", False)
            checked += 1
    elapsed = time.perf_counter() - started
    report(
        f"criterion 2: prototype gradient matches re-solved finite differences "
        f"({checked} prototypes, {elapsed:.2f}s < 5s)",
        elapsed < 5.0,
    )


def test_c03_coefficient_step_is_exact_minimizer():
    monotone = True
    improved = True
    for seed in range(8):
        rng = np.random.default_rng(2000 + seed)
        data = Dataset(features=rng.normal(0, 1, (25, 2)), targets=rng.normal(0, 1, 25))
        for penalty in (True, False):
            config = TrainConfig(seed=seed, eta=0.1, box="data", penalty_enabled=penalty, max_sweeps=20)
            _, trace = fit(data, 3, config=config)
            monotone &= all(rec.omega_after <= rec.omega_before + 1e-12 for rec in trace.records)
            if not penalty:
                improved &= trace.final_objective <= trace.initial_objective
    report("criterion 3a: coefficient step never increases the objective (tol 1e-12)", monotone)
    report("criterion 3b: final objective <= initial on analytic no-penalty runs", improved)


def test_c04_two_gaussian_distillation_analog():
    started = time.perf_counter()
    agreements = [distill_experiment(seed, "analytic") for seed in range(10)]
    hits = sum(a >= 0.95 for a in agreements)
    elapsed = time.perf_counter() - started
    report(
        f"criterion 4: 2-prototype student matches teacher sign on >=95% of the grid "
        f"in {hits}/10 seeds (need >=8; {elapsed:.1f}s < 10s)",
        hits >= 8 and elapsed < 10.0,
    )


def test_c05_three_cluster_size_selection_analog():
    started = time.perf_counter()
    chosen = []
    for seed in range(10):
        data = gen_synthetic("three_clusters", seed=seed)
        grid_config = GridConfig(grid=tuple(range(10, 1, -1)), rho=1e-3, loss_kind="mse", folds=5)
        train_config = TrainConfig(
            seed=seed, eta=0.15, box="data", penalty_enabled=True, max_sweeps=20, epsilon=1e-10
        )
        _, trace = select_model_size(data, grid_config, train_config)
        chosen.append(trace.chosen_m)
    hits = sum(c == 3 for c in chosen)
    elapsed = time.perf_counter() - started
    report(
        f"criterion 5: size selection picks m*=3 in {hits}/10 seeds "
        f"(chosen {chosen}; need >=8; {elapsed:.1f}s < 30s)",
        hits >= 8 and elapsed < 30.0,
    )


def test_c06_joint_optimization_beats_random_selection():
    ours, rand = [], []
    for seed in range(10):
        train = gen_synthetic("sine_regression", seed=seed)
        test = gen_synthetic("sine_regression", seed=10_000 + seed)
        spec = SimilaritySpec(kind="rbf", gamma=1.0 / train.dim)
        config = TrainConfig(seed=seed, eta=0.1, box="data", penalty_enabled=True, max_sweeps=50, epsilon=1e-9)
        model, _ = fit(train, 5, config=config, similarity=spec)
        ours.append(mae(predict_batch(model, test.features), test.targets))
        base = baseline_pipeline(train, "random", 5, 1e-6, spec, seed=seed)
        rand.append(mae(predict_batch(base, test.features), test.targets))
    ours, rand = np.array(ours), np.array(rand)
    se = rand.std(ddof=1) / np.sqrt(rand.size)
    wins = int(np.sum(ours < rand))
    mean_ok = ours.mean() <= rand.mean() + se
    report(
        f"criterion 6: test MAE ours {ours.mean():.4f} vs random selection {rand.mean():.4f} "
        f"(+1se {se:.4f}), strictly lower in {wins}/10 (need >=6)",
        mean_ok and wins >= 6,
    )


def test_c07_prediction_cost_is_m():
    rng = np.random.default_rng(0)
    ok = True
    for m in (1, 2, 5, 10):
        model = SparseModel(
            prototypes=rng.normal(0, 1, (m, 3)),
            beta=rng.normal(0, 1, m),
            bias=0.0,
            similarity=SimilaritySpec(kind="rbf", gamma=1.0),
        )
        ok &= eval_cost(model) == m
    report("criterion 7: one prediction costs exactly m similarity evaluations", ok)


def test_c08_penalty_increases_prototype_separation():
    def final_min_distance(penalty):
        out = []
        for seed in range(20):
            data = gen_synthetic("two_gaussians", seed=seed)
            config = TrainConfig(
                seed=seed, eta=0.1, box="data", penalty_enabled=penalty, max_sweeps=100, epsilon=1e-9
            )
            model, _ = fit(data, 4, config=config)
            out.append(pdist(model.prototypes).min())
        return np.median(out)

    with_penalty = final_min_distance(True)
    without = final_min_distance(False)
    report(
        f"criterion 8: median min prototype distance {with_penalty:.3f} with penalty "
        f">= {without:.3f} without (20 seeds)",
        with_penalty >= without,
    )


def test_c09_lasso_optimality():
    rng = np.random.default_rng(7)
    X = np.column_stack([rng.permutation(12) * 1.0, rng.permutation(12) * 1.0])
    data = Dataset(features=X, targets=rng.normal(0, 1, 12), weights=rng.uniform(0.5, 2.0, 12))
    spec = SimilaritySpec(kind="rbf", gamma=1.0)
    S = sim_matrix(spec, X, X).values

    kkt_ok = True
    for lam1 in (1e-3, 1e-2, 0.1, 0.5, 2.0):
        model = lasso_similarity(data, lam1, spec)
        full = np.zeros(data.n)
        for b, i in zip(model.beta, model.metadata["indices"]):
            full[i] = b
        res = lasso_kkt_residuals(S, data.weights, data.targets, full, model.bias, lam1)
        kkt_ok &= res.max() <= 1e-6
    report("criterion 9a: lasso subgradient conditions hold to 1e-6", kkt_ok)

    model = lasso_similarity(data, 0.0, spec, tol=1e-10)
    A = np.column_stack([S, np.ones(data.n)])
    w = np.sqrt(data.weights)
    coef, *_ = np.linalg.lstsq(w[:, None] * A, w * data.targets, rcond=None)
    gap = float(np.max(np.abs(predict_batch(model, X) - A @ coef)))
    report(f"criterion 9b: lasso at lambda1=0 matches least squares (gap {gap:.2e} <= 1e-6)", gap <= 1e-6)


def test_c10_approximate_gradient_mode_still_distills():
    agreements = [distill_experiment(seed, "approximate") for seed in range(10)]
    hits = sum(a >= 0.90 for a in agreements)
    report(
        f"criterion 10: approximate-gradient students reach >=90% teacher agreement "
        f"in {hits}/10 seeds (need >=7)",
        hits >= 7,
    )
