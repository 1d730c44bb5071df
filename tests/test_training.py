import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import DOT, objective, traced_peak

from sparsim import Dataset, GridConfig, SparseModel, TrainConfig, fit, gen_synthetic, predict_batch
from sparsim import select_model_size
from sparsim import similarity as sim
from sparsim import training
from sparsim.datatypes import resolve_box
from sparsim.errors import SimilarityEvalError, SparsimError, UnsupportedGradModeError
from sparsim.ridge import BLOCK_ROWS, assemble
from sparsim.similarity import EVAL_COUNTER, SimilaritySpec, pairwise
from sparsim.training import IterationRecord, init_prototypes

RBF1 = SimilaritySpec(kind="rbf", gamma=1.0)


def planted_dataset(seed, protos, beta, bias, n=20, spec=RBF1):
    rng = np.random.default_rng(seed)
    planted = SparseModel(prototypes=protos, beta=beta, bias=bias, similarity=spec)
    X = rng.normal(0, 1, (n, protos.shape[1]))
    X[: protos.shape[0]] = protos  # make the planted prototypes selectable rows
    return Dataset(features=X, targets=predict_batch(planted, X)), planted


def normal_equation_residual(model, data, lam):
    """Residual of the returned (beta, b) against a freshly assembled
    system for the returned prototypes, and the system's right-hand side."""
    S = sim.sim_matrix(model.similarity, data.features, model.prototypes).values
    matrix, rhs = assemble(S, data.weights, data.targets, lam)
    return matrix @ np.concatenate([model.beta, [model.bias]]) - rhs, rhs


class TestInitPrototypes:
    def test_full_draw_is_permutation(self, rng):
        data = Dataset(features=rng.normal(0, 1, (8, 2)), targets=rng.normal(0, 1, 8))
        picked = init_prototypes(data, 8, seed=3)
        got = {tuple(row) for row in picked}
        expected = {tuple(row) for row in data.features}
        assert got == expected

    def test_single_row(self, rng):
        data = Dataset(features=rng.normal(0, 1, (5, 3)), targets=rng.normal(0, 1, 5))
        picked = init_prototypes(data, 1, seed=0)
        assert picked.shape == (1, 3)
        assert any(np.array_equal(picked[0], row) for row in data.features)

    def test_seed_determinism(self, rng):
        data = Dataset(features=rng.normal(0, 1, (30, 2)), targets=rng.normal(0, 1, 30))
        a = init_prototypes(data, 5, seed=11)
        b = init_prototypes(data, 5, seed=11)
        np.testing.assert_array_equal(a, b)

    def test_rows_distinct(self, rng):
        X = rng.normal(0, 1, (30, 2))
        data = Dataset(features=X, targets=rng.normal(0, 1, 30))
        picked = init_prototypes(data, 10, seed=2)
        assert len({tuple(r) for r in picked}) == 10

    def test_stratified_for_labels(self):
        rng = np.random.default_rng(0)
        X = rng.normal(0, 1, (20, 2))
        y = np.concatenate([np.ones(19), [-1.0]])  # heavily imbalanced
        data = Dataset(features=X, targets=y)
        for seed in range(20):
            picked = init_prototypes(data, 2, seed=seed)
            labels = set()
            for row in picked:
                idx = np.flatnonzero((X == row).all(axis=1))[0]
                labels.add(y[idx])
            assert labels == {-1.0, 1.0}

    def test_m_out_of_range(self, rng):
        data = Dataset(features=rng.normal(0, 1, (4, 2)), targets=rng.normal(0, 1, 4))
        with pytest.raises(ValueError):
            init_prototypes(data, 5, seed=0)
        with pytest.raises(ValueError):
            init_prototypes(data, 0, seed=0)


class TestFit:
    def test_planted_model_converges_with_tiny_movement(self):
        protos = np.array([[0.0, 0.0], [2.0, 1.0]])
        data, planted = planted_dataset(1, protos, [1.0, -1.5], 0.2)
        config = TrainConfig(lam=0.0, eta=0.1, penalty_enabled=False, epsilon=1e-12)
        model, trace = fit(data, 2, config=config, init=protos, similarity=RBF1)
        assert trace.termination == "converged"
        assert trace.final_objective <= 1e-16
        assert np.max(np.abs(model.prototypes - protos)) < 1e-6

    def test_coefficient_step_never_increases_objective(self):
        for seed in range(5):
            data = Dataset(
                features=np.random.default_rng(seed).normal(0, 1, (20, 2)),
                targets=np.random.default_rng(seed + 50).normal(0, 1, 20),
            )
            for penalty in (True, False):
                config = TrainConfig(seed=seed, eta=0.1, penalty_enabled=penalty, max_sweeps=10)
                _, trace = fit(data, 3, config=config, similarity=RBF1)
                for rec in trace.records:
                    assert rec.omega_after <= rec.omega_before + 1e-12

    def test_step_norm_is_the_distance_moved(self, rng):
        data = Dataset(features=rng.normal(0, 1, (12, 2)), targets=rng.normal(0, 1, 12))
        init = data.features[:1].copy()
        config = TrainConfig(seed=0, eta=0.1, max_sweeps=1)
        model, trace = fit(data, 1, config=config, similarity=RBF1, init=init)
        (rec,) = trace.records
        assert rec.step_norm > 0
        assert rec.step_norm == np.linalg.norm(model.prototypes[0] - init[0])

    def test_round_robin_fairness(self, rng):
        data = Dataset(features=rng.normal(0, 1, (15, 2)), targets=rng.normal(0, 1, 15))
        config = TrainConfig(seed=0, eta=0.05, max_sweeps=4, epsilon=1e-15)
        _, trace = fit(data, 3, config=config, similarity=RBF1)
        visits = [rec.j for rec in trace.records]
        for start in range(0, len(visits) - 2, 3):
            assert sorted(visits[start : start + 3]) == [0, 1, 2]

    def test_huge_epsilon_stops_after_first_sweep(self, rng):
        data = Dataset(features=rng.normal(0, 1, (12, 2)), targets=rng.normal(0, 1, 12))
        config = TrainConfig(seed=0, epsilon=1e9, max_sweeps=50)
        _, trace = fit(data, 2, config=config, similarity=RBF1)
        assert trace.termination == "converged"
        assert len(trace.records) == 2

    def test_trace_bounded_by_sweep_budget(self, rng, tmp_path):
        data = Dataset(features=rng.normal(0, 1, (12, 2)), targets=rng.normal(0, 1, 12))
        config = TrainConfig(seed=0, epsilon=1e-300, max_sweeps=7)
        _, trace = fit(data, 3, config=config, similarity=RBF1)
        assert trace.termination == "max_sweeps"
        assert len(trace.records) == 7 * 3
        # records are immutable, with the CSV's field names in its order
        fields = ["t", "j", "omega_before", "omega_after", "step_norm"]
        assert [f.name for f in dataclasses.fields(IterationRecord)] == fields
        with pytest.raises(dataclasses.FrozenInstanceError):
            trace.records[0].omega_after = 0.0
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        expected = ",".join(fields) + "\r\n" + "".join(
            f"{r.t},{r.j},{r.omega_before!r},{r.omega_after!r},{r.step_norm!r}\r\n" for r in trace.records
        )
        assert path.read_bytes().decode() == expected

    def test_seeded_runs_bitwise_reproducible(self, rng):
        data = Dataset(features=rng.normal(0, 1, (18, 3)), targets=rng.normal(0, 1, 18))
        config = TrainConfig(seed=9, eta=0.1, max_sweeps=10)
        m1, t1 = fit(data, 4, config=config, similarity=RBF1)
        m2, t2 = fit(data, 4, config=config, similarity=RBF1)
        np.testing.assert_array_equal(m1.prototypes, m2.prototypes)
        np.testing.assert_array_equal(m1.beta, m2.beta)
        assert m1.bias == m2.bias
        assert [r.omega_after for r in t1.records] == [r.omega_after for r in t2.records]

    @pytest.mark.parametrize("call", ["_data_gradient", "sim.sim_matrix", "ridge.solve"])
    def test_error_recorded_with_partial_model(self, rng, call):
        # the fourth call of a fallible step fails part-way through training
        data = Dataset(features=rng.normal(0, 1, (10, 2)), targets=rng.normal(0, 1, 10))
        *path, name = call.split(".")
        owner = training
        for attr in path:
            owner = getattr(owner, attr)
        real, calls = getattr(owner, name), []

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) >= 4:
                raise SparsimError("synthetic failure")
            return real(*args, **kwargs)

        config = TrainConfig(seed=0, max_sweeps=10, penalty_enabled=False)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(owner, name, failing)
            model, trace = fit(data, 2, config=config, similarity=RBF1)
        assert trace.termination == "error"
        assert "synthetic failure" in trace.error
        assert model.m == 2 and len(trace.records) >= 2
        assert np.all(np.isfinite(model.prototypes))
        # the model returned is the one the last record's objective describes
        assert objective(model, data, config.lam).total == pytest.approx(trace.final_objective, rel=1e-12, abs=0)
        # and its coefficients solve its own system
        residual, rhs = normal_equation_residual(model, data, config.lam)
        assert np.max(np.abs(residual)) <= 1e-6 * max(1.0, np.max(np.abs(rhs)))

    def test_incremental_system_matches_fresh_assembly(self, rng):
        # many row-and-column rewrites of the normal equations leave the
        # returned coefficients solving the system assembled from scratch
        data = Dataset(
            features=rng.normal(0, 1, (40, 3)), targets=rng.normal(0, 1, 40), weights=rng.uniform(0.5, 2, 40)
        )
        for lam in (1e-6, 1e-3):
            config = TrainConfig(seed=1, lam=lam, eta=0.1, max_sweeps=8, epsilon=1e-300)
            model, trace = fit(data, 5, config=config, similarity=RBF1)
            assert len(trace.records) == 40
            residual, rhs = normal_equation_residual(model, data, lam)
            assert np.linalg.norm(residual) <= 1e-9 * np.linalg.norm(rhs)

    def test_diverging_fit_records_its_error_under_the_warnings_filter(self):
        # approximate steps on the dot product, scored as a black box, grow
        # the prototypes until the system overflows: the residual check
        # rejects the solve at iteration 9, and no overflow warning escapes
        # fit, even as an error
        data = gen_synthetic("two_gaussians", n=40, seed=0)
        config = TrainConfig(lam=1e-4, eta=0.3, max_sweeps=4, grad_mode="approximate")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            model, trace = fit(data, 3, config=config, similarity=DOT)
        assert trace.termination == "error"
        assert "cond ~ inf" in trace.error
        assert len(trace.records) == 8
        assert np.all(np.isfinite(model.beta)) and np.isfinite(model.bias)

    @staticmethod
    def _sweep_peak(n, d, m):
        """tracemalloc's peak, in bytes, over one sweep of ``fit`` on n rows in d dimensions."""
        X = np.random.default_rng(0).normal(0, 1, (n, d))
        data = Dataset(features=X, targets=np.sign(X[:, 0]))
        return traced_peak(lambda: fit(data, m, config=TrainConfig(max_sweeps=1), similarity=RBF1))[0]

    def test_peak_memory_is_the_similarity_matrix_plus_one_block(self):
        # the normal equations are summed over row blocks, so besides S
        # (n x m) fit holds one 256-row block of the weighted design (2.6 n
        # doubles here), or during an update three n-vectors; a second
        # n x m array would read about 2.1 here, and six n-vectors 1.17
        n, m = 4000, 40
        assert self._sweep_peak(n, 5, m) / (8 * n * m) <= 1.15

    def test_peak_memory_in_the_sparse_regime_is_three_vectors_beside_s(self):
        # at m = 3 an update's n-vectors outweigh the assembly block: the
        # residual and u*r are rewritten in place, so one temporary joins
        # them (six n-vectors would read about 6.0 n)
        n, m = 20000, 3
        assert self._sweep_peak(n, 2, m) - 8 * n * m <= 3.5 * 8 * n

    def test_peak_memory_at_many_sweeps_is_the_trace_beside_s(self):
        # at small n the trace outweighs S: one record per iteration, an
        # 80 B slotted IterationRecord and three 24 B floats, plus its list
        # slot and, past t = 256, an int (the peak is 96 KB here, of which
        # S, one design block and four n-vectors are 18 KB)
        n, m = 90, 10
        X = np.random.default_rng(0).normal(0, 1, (n, 2))
        data = Dataset(features=X, targets=np.sign(X[:, 0]))
        config = TrainConfig(max_sweeps=50, epsilon=1e-300)
        peak, (_, trace) = traced_peak(lambda: fit(data, m, config=config, similarity=RBF1))
        assert len(trace.records) == 50 * m
        assert peak <= 8 * n * m + 8 * n * (m + 1) + 4 * 8 * n + 200 * len(trace.records)

    def test_init_with_more_prototypes_than_rows_rejected(self, rng):
        data = Dataset(features=rng.normal(0, 1, (3, 2)), targets=rng.normal(0, 1, 3))
        with pytest.raises(ValueError):
            fit(data, 4, config=TrainConfig(lam=1e-3), similarity=RBF1, init=rng.normal(0, 1, (4, 2)))

    @pytest.mark.parametrize("shape", [(3, 2), (2, 3), (2,)])
    def test_init_of_wrong_shape_rejected(self, rng, shape):
        data = Dataset(features=rng.normal(0, 1, (5, 2)), targets=rng.normal(0, 1, 5))
        with pytest.raises(ValueError, match=r"init must have shape \(2, 2\)"):
            fit(data, 2, config=TrainConfig(lam=1e-3), similarity=RBF1, init=np.zeros(shape))

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_nonfinite_init_rejected_before_any_evaluation(self, value):
        # inf trained an infinite prototype and nan blamed the data for a non-finite similarity
        data = gen_synthetic("three_clusters", n=30, seed=0)
        init = data.features[:3].copy()
        init[1, 0] = value
        before = EVAL_COUNTER.read()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="init must be finite"):
                fit(data, 3, config=TrainConfig(lam=1e-3), similarity=RBF1, init=init)
        assert EVAL_COUNTER.read() == before

    @pytest.mark.parametrize("rows", [1, 3])
    def test_box_rows_must_match_dimension(self, rng, rows):
        data = Dataset(features=rng.normal(0, 1, (10, 2)), targets=rng.normal(0, 1, 10))
        config = TrainConfig(lam=1e-3, box=np.tile([-1.0, 1.0], (rows, 1)))
        before = EVAL_COUNTER.read()
        with pytest.raises(ValueError, match=f"box has {rows} rows but the data have 2 dimensions"):
            fit(data, 2, config=config, similarity=RBF1)
        assert EVAL_COUNTER.read() == before

    def test_nonfinite_similarity_names_the_data_row_not_the_block_row(self):
        # a fit's similarities may be scored in blocks of BLOCK_ROWS rows; a
        # bad value in the second block is named by its row in the data
        n = 2 * BLOCK_ROWS + 100
        spec = SimilaritySpec(
            kind="blackbox", blackbox_id="nan300", scorer=pairwise(lambda a, b: np.nan if a[0] == 300 else 1.0)
        )
        data = Dataset(features=np.arange(float(n))[:, None], targets=np.zeros(n))
        config = TrainConfig(grad_mode="approximate", max_sweeps=1)
        with pytest.raises(SimilarityEvalError, match=r"non-finite similarity at row 300, column 0$"):
            fit(data, 2, config=config, similarity=spec)

    def test_init_outside_an_explicit_box_is_projected_before_the_first_evaluation(self, rng, monkeypatch):
        data = Dataset(features=rng.normal(0, 1, (20, 2)), targets=rng.normal(0, 1, 20))
        config = TrainConfig(lam=1e-3, eta=0.1, box=np.array([[-0.5, 0.5], [-1.0, 0.0]]), max_sweeps=2)
        init = np.array([[2.0, -3.0], [0.1, 0.5]])
        projected = np.array([[0.5, -1.0], [0.1, 0.0]])
        expected = fit(data, 2, config=config, similarity=RBF1, init=projected)
        blocks, sim_matrix = [], sim.sim_matrix

        def spy(spec, rows, protos):
            blocks.append((np.array(rows, copy=True), np.array(protos, copy=True)))
            return sim_matrix(spec, rows, protos)

        monkeypatch.setattr(sim, "sim_matrix", spy)
        model, trace = fit(data, 2, config=config, similarity=RBF1, init=init)
        # s is symmetric, so fit may pass the prototypes as either block
        # argument; the first evaluation pairs the projected init with the data
        assert {block.tobytes() for block in blocks[0]} == {projected.tobytes(), data.features.tobytes()}
        assert trace.initial_objective == expected[1].initial_objective
        assert trace.records == expected[1].records
        assert model.prototypes.tobytes() == expected[0].prototypes.tobytes()

    def test_metadata_provenance(self, rng):
        data = Dataset(features=rng.normal(0, 1, (10, 2)), targets=rng.normal(0, 1, 10))
        config = TrainConfig(seed=4, lam=1e-4, max_sweeps=3)
        model, trace = fit(data, 2, config=config, similarity=RBF1)
        assert model.metadata["lam"] == 1e-4
        assert model.metadata["seed"] == 4
        assert model.metadata["iterations"] == len(trace.records)
        assert model.metadata["objective"] == trace.final_objective

    def test_analytic_gradient_of_blackbox_raises_before_training(self, rng):
        # black-box scorers have no analytic gradient: fit and model selection
        # must refuse before any evaluation, not return the untrained model
        data = Dataset(features=rng.normal(0, 1, (10, 2)), targets=rng.normal(0, 1, 10))
        spec = SimilaritySpec(kind="blackbox", blackbox_id="no-grad", scorer=pairwise(lambda a, b: 1.0))
        before = EVAL_COUNTER.read()
        with pytest.raises(UnsupportedGradModeError, match="analytic gradient unavailable"):
            fit(data, 2, config=TrainConfig(), similarity=spec)
        with pytest.raises(UnsupportedGradModeError):
            select_model_size(data, GridConfig(grid=(2,), folds=2), TrainConfig(), spec)
        assert EVAL_COUNTER.read() == before

    def test_default_similarity_is_rbf_inverse_dim(self, rng):
        data = Dataset(features=rng.normal(0, 1, (10, 4)), targets=rng.normal(0, 1, 10))
        model, _ = fit(data, 2, config=TrainConfig(max_sweeps=1))
        assert model.similarity.kind == "rbf"
        assert model.similarity.gamma == 0.25


class TestEvaluationBudget:
    # n*m for the initial similarity matrix, n per iteration for the moved
    # prototype's new column; the data gradient reuses that cached column
    # and costs nothing, the repulsion penalty m-1 per iteration

    def budget(self, data, m, config, spec):
        before = EVAL_COUNTER.read()
        _, trace = fit(data, m, config=config, similarity=spec)
        return EVAL_COUNTER.read() - before, len(trace.records)

    def test_analytic_rbf(self, rng):
        data = Dataset(features=rng.normal(0, 1, (20, 2)), targets=rng.normal(0, 1, 20))
        n, m = 20, 3
        for penalty in (False, True):
            config = TrainConfig(seed=0, eta=0.1, max_sweeps=4, epsilon=1e-300, penalty_enabled=penalty)
            evals, iterations = self.budget(data, m, config, RBF1)
            assert iterations == 12
            assert evals == n * m + iterations * n + (iterations * (m - 1) if penalty else 0)

    def test_approximate_blackbox(self, rng):
        data = Dataset(features=rng.normal(0, 1, (15, 2)), targets=rng.normal(0, 1, 15))
        n, m = 15, 3
        spec = SimilaritySpec(
            kind="blackbox", blackbox_id="budget-rbf",
            scorer=pairwise(lambda a, b: float(np.exp(-np.sum((a - b) ** 2)))),
        )
        config = TrainConfig(seed=0, eta=0.1, max_sweeps=3, epsilon=1e-300, penalty_enabled=False,
                             grad_mode="approximate")
        evals, iterations = self.budget(data, m, config, spec)
        assert iterations == 9
        assert evals == n * m + iterations * n


@given(
    seed=st.integers(0, 2**16),
    n=st.integers(6, 40),
    d=st.integers(1, 3),
    m=st.integers(1, 6),
    eta=st.floats(0.01, 1.0),
    gamma=st.floats(0.2, 3.0),
    penalty=st.booleans(),
    box_kind=st.sampled_from([None, "data", "explicit", "unbounded"]),
    grad_mode=st.sampled_from(["analytic", "approximate"]),
)
def test_fit_invariants_on_generated_problems(seed, n, d, m, eta, gamma, penalty, box_kind, grad_mode):
    rng = np.random.default_rng(seed)
    data = Dataset(features=rng.normal(0, 1, (n, d)), targets=rng.normal(0, 1, n), weights=rng.uniform(0.5, 2, n))
    if box_kind == "explicit":
        lo = rng.uniform(-1.0, 0.0, d)
        box = np.column_stack([lo, lo + rng.uniform(0.2, 2.0, d)])
    elif box_kind == "unbounded":
        box = np.tile([-np.inf, np.inf], (d, 1))
    else:
        box = box_kind
    spec = SimilaritySpec(kind="rbf", gamma=gamma)
    config = TrainConfig(seed=seed, lam=1e-3, eta=eta, box=box, penalty_enabled=penalty, grad_mode=grad_mode,
                         max_sweeps=3, epsilon=1e-300)
    before = EVAL_COUNTER.read()
    model, trace = fit(data, m, config=config, similarity=spec)
    evals = EVAL_COUNTER.read() - before
    again, trace_again = fit(data, m, config=config, similarity=spec)

    # every prototype moved at least once (convergence takes m small
    # steps in a row) and is inside the box
    assert trace.termination in ("max_sweeps", "converged")
    iterations = len(trace.records)
    assert m <= iterations <= 3 * m
    if box is not None:
        bounds = resolve_box(box, data)
        assert np.all(model.prototypes >= bounds[:, 0]) and np.all(model.prototypes <= bounds[:, 1])
    # the exact coefficient re-solve never raises the objective
    for rec in trace.records:
        assert rec.omega_after <= rec.omega_before * (1 + 1e-12)
    # identical runs, identical records and models
    assert trace_again.records == trace.records
    np.testing.assert_array_equal(again.prototypes, model.prototypes)
    np.testing.assert_array_equal(again.beta, model.beta)
    assert again.bias == model.bias
    if box_kind == "unbounded":  # None is the unbounded box, byte for byte
        unboxed, trace_unboxed = fit(data, m, config=dataclasses.replace(config, box=None), similarity=spec)
        assert trace_unboxed.records == trace.records
        assert unboxed.prototypes.tobytes() == model.prototypes.tobytes()
        assert unboxed.beta.tobytes() == model.beta.tobytes() and unboxed.bias == model.bias
    # n*m initially, then n per moved column and m-1 per repulsion penalty
    assert evals == n * m + iterations * (n + (m - 1) * penalty)


@given(
    seed=st.integers(0, 2**16),
    n=st.integers(6, 40),
    d=st.integers(1, 3),
    m=st.integers(1, 6),
    eta=st.floats(0.01, 1.0),
    gamma=st.floats(0.2, 3.0),
    lam=st.floats(1e-4, 1.0),
)
def test_pre_solve_objective_equals_full_recomputation(seed, n, d, m, eta, gamma, lam):
    """``omega_before`` updates the previous residual along the moved
    column alone, in O(n); it equals the objective recomputed from the
    whole similarity matrix (moved column, old coefficients)."""
    rng = np.random.default_rng(seed)
    data = Dataset(features=rng.normal(0, 1, (n, d)), targets=rng.normal(0, 1, n), weights=rng.uniform(0.5, 2, n))
    config = TrainConfig(seed=seed, lam=lam, eta=eta, box="data", max_sweeps=3, epsilon=1e-300)
    loss = training._loss
    full = []

    def recomputing_loss(S, beta, bias, data, lam, resid=None, out=None):
        if resid is not None:
            full.append(loss(S, beta, bias, data, lam)[0])
        return loss(S, beta, bias, data, lam, resid, out)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(training, "_loss", recomputing_loss)
        _, trace = fit(data, m, config=config, similarity=SimilaritySpec(kind="rbf", gamma=gamma))
    assert len(full) == len(trace.records) >= m
    for rec, omega in zip(trace.records, full):
        assert rec.omega_before == pytest.approx(omega, rel=1e-12, abs=0)


class TestDistill:
    def test_student_at_teacher_fixed_point(self, rng):
        protos = np.array([[0.0, 0.0], [1.5, -0.5], [-1.0, 1.0]])
        teacher = SparseModel(prototypes=protos, beta=[1.0, -0.7, 0.4], bias=0.1, similarity=RBF1)
        X = rng.normal(0, 1, (25, 2))
        X[:3] = protos
        scores = predict_batch(teacher, X)
        config = TrainConfig(lam=0.0, eta=0.1, penalty_enabled=False, epsilon=1e-13)
        student, _ = fit(Dataset(features=X, targets=scores), 3, config=config, similarity=RBF1, init=protos)
        probe = rng.normal(0, 1, (50, 2))
        np.testing.assert_allclose(
            predict_batch(student, probe), predict_batch(teacher, probe), atol=1e-6
        )

    def test_zero_teacher_gives_zero_model(self, rng):
        X = rng.normal(0, 1, (15, 2))
        data = Dataset(features=X, targets=np.zeros(15))
        student, _ = fit(data, 2, config=TrainConfig(lam=1e-3), similarity=RBF1)
        np.testing.assert_allclose(student.beta, 0.0, atol=1e-9)
        assert student.bias == pytest.approx(0.0, abs=1e-9)

    def test_rejects_nonfinite_scores(self, rng):
        with pytest.raises(ValueError, match="targets must be finite"):
            fit(Dataset(features=rng.normal(0, 1, (5, 2)), targets=[1.0, np.nan, 0.0, 0.0, 1.0]), 2)
