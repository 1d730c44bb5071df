"""The three benchmark workloads.

Each workload builds its inputs from the seed in its constructor (the
set-up), runs the timed operations in :meth:`run`, and checks their
outputs in :meth:`check`, outside the timed region.  ``small=True``
shrinks every size for the self-test.  The workloads call sparsim only
through ``sparsim.<name>`` and module attributes, so the tracer's
wrappers see every call.
"""

import os
import sys
import time

import numpy as np
from scipy.spatial.distance import cdist

import sparsim
from sparsim import metrics, similarity

SCORER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "rbf_scorer.py")
# Monotonicity of a training record, up to rounding of the objective.
MONOTONE_RTOL = 1e-12


def planted_rbf(rng, n, d, centers, noise):
    """Rows uniform in [-1, 1]^d; targets from a planted RBF expansion
    (gamma = 1/d) plus Gaussian noise rescaled to energy exactly n*noise^2,
    so that the objective's noise floor is the same for every seed."""
    X = rng.uniform(-1.0, 1.0, (n, d))
    C = rng.uniform(-1.0, 1.0, (centers, d))
    b = rng.normal(0.0, 1.0, centers)
    y = np.exp(-cdist(X, C, "sqeuclidean") / d) @ b
    e = rng.standard_normal(n)
    e *= noise * np.sqrt(n) / np.linalg.norm(e)
    return sparsim.Dataset(features=X, targets=y + e)


def rbf(d):
    return similarity.SimilaritySpec(kind="rbf", gamma=1.0 / d)


def relative_gap(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def warm_up():
    """Run the training and scoring paths once at a tiny size."""
    data = planted_rbf(np.random.default_rng(0), 40, 2, 2, 0.1)
    model, _ = sparsim.fit(data, 2, config=sparsim.TrainConfig(max_sweeps=1), similarity=rbf(2))
    sparsim.predict_batch(model, data.features)


def fit_and_score(data, m, config, spec):
    """One fit, then the training rows scored with the fitted model."""
    model, trace = sparsim.fit(data, m, config=config, similarity=spec)
    started = time.perf_counter()
    pred = sparsim.predict_batch(model, data.features)
    return {
        "model": model,
        "trace": trace,
        "pred": pred,
        "updates": len(trace.records),
        "rows": data.n,
        "predict_s": time.perf_counter() - started,
        "objective": trace.final_objective,
    }


def check_fit(out, data, config, m):
    model, trace = out["model"], out["trace"]
    failures = []
    if trace.termination == "error":
        failures.append(f"fit ended with an error: {trace.error}")
    for rec in trace.records:
        if rec.omega_after > rec.omega_before + MONOTONE_RTOL * max(1.0, abs(rec.omega_before)):
            failures.append(f"objective rose in iteration {rec.t}: {rec.omega_before!r} -> {rec.omega_after!r}")
            break
    cost = metrics.eval_cost(model)
    if cost != m:
        failures.append(f"a prediction cost {cost} evaluations, expected m={m}")
    resid = out["pred"] - data.targets
    scored = float(np.dot(data.weights * resid, resid) + config.lam * np.dot(model.beta, model.beta))
    if relative_gap(scored, trace.final_objective) > 1e-9:
        failures.append(f"objective from predict_batch {scored!r} != trace {trace.final_objective!r}")
    return failures


class Workload:
    """Defaults: one checked operation per repeat, no notes, nothing to
    release."""

    ops = 1
    spawn_s = 0.0

    def notes(self, out):
        return {}

    def close(self):
        pass


class BlackboxFit:
    """A small fit through ``rbf_scorer.py``, a line-protocol RBF scorer run
    as a subprocess: the part of ``fit_dense`` that reaches the dataio
    bridge."""

    def __init__(self, seed, small=False):
        n, d, self.m, sweeps = (60, 3, 3, 3) if small else (120, 4, 5, 2)
        self.data = planted_rbf(np.random.default_rng([seed, 4]), n, d, 3, 0.3)
        gamma = 1.0 / d
        self.config = sparsim.TrainConfig(
            seed=seed, eta=0.1, box="data", epsilon=1e-12, max_sweeps=sweeps, grad_mode="approximate"
        )
        started = time.perf_counter()
        self.bridge = sparsim.blackbox_bridge([sys.executable, SCORER, repr(gamma)])
        try:
            # the first answer waits for the scorer's interpreter to start
            similarity.eval(self.bridge.spec, self.data.features[0], self.data.features[1])
            self.spawn_s = time.perf_counter() - started
            self.reference, _ = sparsim.fit(
                self.data, self.m, config=self.config, similarity=similarity.SimilaritySpec("rbf", gamma=gamma)
            )
            warm_up()
        except BaseException:
            self.bridge.close()
            raise

    def run(self):
        return fit_and_score(self.data, self.m, self.config, self.bridge.spec)

    def check(self, out):
        failures = check_fit(out, self.data, self.config, self.m)
        ref = self.reference.metadata["objective"]
        if relative_gap(out["objective"], ref) > 1e-9:
            failures.append(f"black-box objective {out['objective']!r} != in-process {ref!r}")
        return failures

    def close(self):
        self.bridge.close()


class FitDense(Workload):
    """A large in-process fit, then a small fit through the black-box
    scorer.  The black-box round trips are about a fifth of a repeat: on
    their own they varied by up to half between runs of the same code,
    with the machine's load, far more than any other work measured here."""

    name = "fit_dense"
    ops = 2

    def __init__(self, seed, small=False):
        n, d, self.m, sweeps = (400, 5, 8, 2) if small else (5000, 20, 50, 2)
        self.data = planted_rbf(np.random.default_rng([seed, 1]), n, d, 10, 0.1)
        self.spec = rbf(d)
        # epsilon far below any objective change, so every run does all sweeps
        self.config = sparsim.TrainConfig(seed=seed, eta=0.1, box="data", epsilon=1e-12, max_sweeps=sweeps)
        self.blackbox = BlackboxFit(seed, small)
        self.spawn_s = self.blackbox.spawn_s

    def run(self):
        out = fit_and_score(self.data, self.m, self.config, self.spec)
        # rows and predict_s stay those of the in-process model
        out["blackbox"] = self.blackbox.run()
        out["updates"] += out["blackbox"]["updates"]
        return out

    def check(self, out):
        return check_fit(out, self.data, self.config, self.m) + self.blackbox.check(out["blackbox"])

    def close(self):
        self.blackbox.close()


class SelectC05(Workload):
    """The acceptance C05 configuration on the three_clusters data of the seed."""

    name = "select_c05"
    # The chosen model scores the grid in chunks of this many rows, so that
    # the selection sets the memory peak: scoring the whole grid at once
    # made the peak grow with the chosen size, which varies by seed.
    GRID_CHUNK = 250

    def __init__(self, seed, small=False):
        grid = (4, 3, 2) if small else tuple(range(10, 1, -1))
        self.grid_config = sparsim.GridConfig(grid=grid, rho=1e-3, loss_kind="mse", folds=5)
        self.data = sparsim.gen_synthetic("three_clusters", n=45 if small else 90, seed=seed)
        self.config = sparsim.TrainConfig(
            seed=seed, eta=0.15, box="data", penalty_enabled=True, max_sweeps=3 if small else 20, epsilon=1e-10
        )
        # the chosen model scores a 100 x 100 grid over the data's box
        axes = [np.linspace(lo, hi, 20 if small else 100)
                for lo, hi in zip(self.data.features.min(axis=0), self.data.features.max(axis=0))]
        self.grid = np.column_stack([g.ravel() for g in np.meshgrid(*axes)])
        warm_up()

    def run(self):
        model, trace = sparsim.select_model_size(self.data, self.grid_config, self.config)
        started = time.perf_counter()
        for start in range(0, self.grid.shape[0], self.GRID_CHUNK):
            sparsim.predict_batch(model, self.grid[start:start + self.GRID_CHUNK])
        predict_s = time.perf_counter() - started
        chosen = next(row for row in trace.rows if row.m == trace.chosen_m)
        return {
            "model": model,
            "trace": trace,
            "updates": None,  # made inside select_model_size; counted in an untimed pass
            "rows": self.grid.shape[0],
            "predict_s": predict_s,
            # the selection objective loss(m) + rho*m at the chosen size
            "objective": chosen.objective,
        }

    def check(self, out):
        model, trace = out["model"], out["trace"]
        failures = []
        best_score = min(row.objective for row in trace.rows)
        best = min(row.m for row in trace.rows if row.objective == best_score)
        if trace.chosen_m != best or model.m != trace.chosen_m:
            failures.append(f"chosen m={trace.chosen_m}, model m={model.m}, best score at m={best}")
        if [row.m for row in trace.rows] != list(self.grid_config.grid):
            failures.append("selection trace does not cover the grid")
        return failures

    def notes(self, out):
        # C05 asks for the planted size on 8 of 10 seeds, not on every seed
        return {"c05_chosen_m_3": out["trace"].chosen_m == 3}


class ScoreFull(Workload):
    name = "score_full"
    ops = 3
    RIDGE_LAM = 1e-2
    LASSO_LAM1 = 1e-2
    LASSO_TOL = 1e-6

    def __init__(self, seed, small=False):
        rng = np.random.default_rng([seed, 3])
        n_ridge, d, n_lasso, rows, self.m = (200, 5, 60, 2000, 5) if small else (1000, 20, 300, 100_000, 20)
        self.ridge_data = planted_rbf(rng, n_ridge, d, 10, 0.3)
        self.lasso_data = planted_rbf(rng, n_lasso, d, 10, 0.1)
        self.rows = rng.uniform(-1.0, 1.0, (rows, d))
        self.spec = rbf(d)
        self.config = sparsim.TrainConfig(seed=seed, eta=0.1, box="data", epsilon=1e-12, max_sweeps=2)
        self.sample = rng.choice(rows, size=min(rows, 50), replace=False)
        # references for the checks
        S = np.exp(-cdist(self.ridge_data.features, self.ridge_data.features, "sqeuclidean") / d)
        u, y = self.ridge_data.weights, self.ridge_data.targets
        A = np.column_stack([S, np.ones(n_ridge)])
        self.normal_matrix = A.T @ (u[:, None] * A)
        self.normal_matrix[:n_ridge, :n_ridge] += self.RIDGE_LAM * np.eye(n_ridge)
        self.normal_rhs = A.T @ (u * y)
        self.lasso_S = sparsim.sim_matrix(self.spec, self.lasso_data.features, self.lasso_data.features).values
        warm_up()

    def run(self):
        ridge = sparsim.kernel_ridge_full(self.ridge_data, self.RIDGE_LAM, self.spec)
        lasso = sparsim.lasso_similarity(self.lasso_data, self.LASSO_LAM1, self.spec, tol=self.LASSO_TOL)
        model, trace = sparsim.fit(self.ridge_data, self.m, config=self.config, similarity=self.spec)
        evals0 = similarity.EVAL_COUNTER.read()
        started = time.perf_counter()
        pred = sparsim.predict_batch(model, self.rows)
        predict_s = time.perf_counter() - started
        return {
            "ridge": ridge,
            "lasso": lasso,
            "model": model,
            "pred": pred,
            "predict_evals": similarity.EVAL_COUNTER.read() - evals0,
            "updates": len(trace.records),
            "rows": self.rows.shape[0],
            "predict_s": predict_s,
            "objective": trace.final_objective,
        }

    def check(self, out):
        failures = []
        ridge = out["ridge"]
        x = np.concatenate([ridge.beta, [ridge.bias]])
        residual = np.linalg.norm(self.normal_matrix @ x - self.normal_rhs)
        if residual > 1e-9 * np.linalg.norm(self.normal_rhs):
            failures.append(f"full ridge normal-equation residual {residual:.3e}")
        lasso = out["lasso"]
        beta = np.zeros(self.lasso_data.n)
        beta[lasso.metadata["indices"]] = lasso.beta
        kkt = sparsim.baselines.lasso_kkt_residuals(
            self.lasso_S, self.lasso_data.weights, self.lasso_data.targets, beta, lasso.bias, self.LASSO_LAM1
        )
        if kkt.max() > self.LASSO_TOL:
            failures.append(f"lasso KKT residual {kkt.max():.3e} > {self.LASSO_TOL}")
        model, pred = out["model"], out["pred"]
        expected = self.rows.shape[0] * model.m
        if out["predict_evals"] != expected:
            failures.append(f"predict_batch made {out['predict_evals']} evaluations, expected {expected}")
        single = np.array([sparsim.predict(model, self.rows[i]) for i in self.sample])
        scale = max(1.0, float(np.max(np.abs(single))))
        if np.max(np.abs(pred[self.sample] - single)) > 1e-12 * scale:
            failures.append("predict_batch differs from row-by-row predict")
        return failures


WORKLOADS = {cls.name: cls for cls in (FitDense, SelectC05, ScoreFull)}
