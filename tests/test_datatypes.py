import tracemalloc
from unittest import mock

import numpy as np
import pytest
from conftest import objective
from hypothesis import given
from hypothesis import strategies as st

from sparsim import datatypes
from sparsim import Dataset, SparseModel, TrainConfig, baseline_pipeline, fit, gen_synthetic, init_prototypes
from sparsim import predict, predict_batch
from sparsim.errors import SimilarityEvalError
from sparsim.similarity import EVAL_COUNTER, SimilaritySpec, pairwise, sim_matrix

RBF1 = SimilaritySpec(kind="rbf", gamma=1.0)


def toy_model(protos, beta, bias=0.0, spec=RBF1):
    return SparseModel(prototypes=protos, beta=beta, bias=bias, similarity=spec)


@pytest.mark.parametrize("make", [
    lambda data, m: fit(data, m, config=TrainConfig(max_sweeps=1), similarity=RBF1),
    lambda data, m: init_prototypes(data, m, 0),
    lambda data, m: baseline_pipeline(data, "random", m, 1e-6, RBF1),
], ids=["fit", "init_prototypes", "baseline_pipeline"])
def test_non_integer_m_rejected_everywhere(make):
    # check_size is the one size rule, so every entry point names the same fault
    data = gen_synthetic("sine_regression", n=10, seed=0)
    with pytest.raises(ValueError, match=r"m must be an integer >= 1 and <= n=10, got 2\.5"):
        make(data, 2.5)


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("make", [
    lambda data, m: datatypes.check_size(m, data.n),
    lambda data, m: fit(data, m, config=TrainConfig(max_sweeps=1), similarity=RBF1),
], ids=["check_size", "fit"])
def test_boolean_m_rejected(make, flag):
    # bool is an int subclass; fit(data, True) used to fail inside numpy
    data = gen_synthetic("sine_regression", n=10, seed=0)
    with pytest.raises(ValueError, match=rf"m must be an integer >= 1 and <= n=10, got {flag}"):
        make(data, flag)


class TestDataset:
    def test_defaults_unit_weights(self):
        data = Dataset(features=[[1.0, 2.0]], targets=[0.5])
        np.testing.assert_array_equal(data.weights, [1.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Dataset(features=[[np.inf, 0.0]], targets=[1.0])
        with pytest.raises(ValueError):
            Dataset(features=[[0.0, 0.0]], targets=[np.nan])

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            Dataset(features=[[1.0]], targets=[1.0], weights=[0.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(features=[[1.0], [2.0]], targets=[1.0])
        with pytest.raises(ValueError, match="2 samples but 1 weights"):
            Dataset(features=[[1.0], [2.0]], targets=[1.0, 2.0], weights=[1.0])
        with pytest.raises(ValueError, match="2 samples but 3 group ids"):
            Dataset(features=[[1.0], [2.0]], targets=[1.0, 2.0], groups=[0, 1, 2])

    def test_rejects_more_than_two_dimensions(self):
        with pytest.raises(ValueError, match=r"\(4, 2, 2\)"):
            Dataset(features=np.zeros((4, 2, 2)), targets=np.zeros(4))

    def test_rejects_zero_feature_columns(self):
        with pytest.raises(ValueError, match=r"one feature, got shape \(4, 0\)"):
            Dataset(features=np.zeros((4, 0)), targets=np.zeros(4))

    def test_immutable_arrays(self):
        data = Dataset(features=[[1.0]], targets=[1.0])
        with pytest.raises(ValueError):
            data.features[0, 0] = 2.0


class TestPredict:
    def test_self_prototype_rbf(self):
        x = np.array([0.5, -1.0])
        model = toy_model(x[None, :], [1.0])
        assert predict(model, x) == 1.0

    def test_zero_coefficients_give_bias(self, rng):
        model = toy_model(rng.normal(0, 1, (2, 3)), [0.0, 0.0], bias=3.5)
        assert predict(model, rng.normal(0, 1, 3)) == 3.5

    def test_duplicate_prototypes_cancel(self, rng):
        z = rng.normal(0, 1, 3)
        model = toy_model(np.stack([z, z]), [1.0, -1.0], bias=0.25)
        for _ in range(5):
            assert predict(model, rng.normal(0, 1, 3)) == pytest.approx(0.25, abs=1e-15)

    def test_exactly_m_evaluations(self, rng):
        for m in (1, 3, 7):
            model = toy_model(rng.normal(0, 1, (m, 2)), rng.normal(0, 1, m))
            before = EVAL_COUNTER.read()
            predict(model, np.zeros(2))
            assert EVAL_COUNTER.read() - before == m

    def test_dimension_mismatch(self, rng):
        model = toy_model(rng.normal(0, 1, (2, 3)), [1.0, 2.0])
        with pytest.raises(ValueError):
            predict(model, np.zeros(4))
        with pytest.raises(ValueError, match=r"got shape \(1, 3\)"):
            predict(model, np.zeros((1, 3)))

    def test_nonfinite_rows_rejected_before_any_evaluation(self, rng):
        model = toy_model(rng.normal(0, 1, (2, 3)), [1.0, 2.0])
        before = EVAL_COUNTER.read()
        with pytest.raises(ValueError, match="finite"):
            predict_batch(model, [[0.0, 0.0, 0.0], [0.0, np.nan, 0.0]])
        assert EVAL_COUNTER.read() == before

    def test_nonfinite_similarity_names_prototype(self):
        spec = SimilaritySpec(
            kind="blackbox", blackbox_id="nan2", scorer=pairwise(lambda a, b: np.nan if b[0] > 0.5 else 1.0)
        )
        model = toy_model(np.array([[0.0], [1.0]]), [1.0, 1.0], spec=spec)
        with pytest.raises(Exception, match=r"column 1"):
            predict(model, np.zeros(1))

    def test_pure_function_bitwise(self, rng):
        model = toy_model(rng.normal(0, 1, (3, 2)), rng.normal(0, 1, 3), bias=0.1)
        x = rng.normal(0, 1, 2)
        values = {predict(model, x) for _ in range(10)}
        assert len(values) == 1


def assert_blocks_bit_identical_to_one_block(rng, m, k):
    model = toy_model(rng.normal(0, 1, (m, 3)), rng.normal(0, 1, m), bias=0.3, spec=SimilaritySpec("rbf", gamma=0.4))
    rows = rng.normal(0, 1, (k, 3))
    expected = sim_matrix(model.similarity, rows, model.prototypes).values @ model.beta + model.bias
    before = EVAL_COUNTER.read()
    pred = predict_batch(model, rows)
    assert EVAL_COUNTER.read() - before == k * model.m
    assert pred.tobytes() == expected.tobytes()


@pytest.mark.parametrize("m", [1, 3, 7])
@pytest.mark.parametrize("k", [65_537, 70_001])
def test_default_blocks_are_bit_identical_to_one_block(rng, m, k):
    # several blocks of the default SCORE_BLOCK_BYTES at every m (a single
    # last row joining the block before it is TestPredictBlocks' k=257, 513)
    assert_blocks_bit_identical_to_one_block(rng, m, k)


def test_peak_memory_is_the_output_and_a_block_whatever_k_and_d(rng):
    # d >> m: a (k, d) finiteness mask would outweigh the output and
    # every block of similarities
    k, d, m = 20_000, 200, 3
    model = toy_model(rng.normal(0, 1, (m, d)), rng.normal(0, 1, m), spec=SimilaritySpec("rbf", gamma=1.0 / d))
    rows = rng.normal(0, 1, (k, d))
    tracemalloc.start()
    try:
        predict_batch(model, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * k + 2 * datatypes.SCORE_BLOCK_BYTES


class TestPredictBlocks:
    """predict_batch with SCORE_BLOCK_BYTES patched so that blocks hold 256 rows."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(datatypes, "SCORE_BLOCK_BYTES", 1)

    @pytest.mark.parametrize("k", [255, 256, 257, 513])
    def test_blocks_are_bit_identical_to_one_block(self, rng, k):
        for m in (1, 3, 7):
            assert_blocks_bit_identical_to_one_block(rng, m, k)

    def test_nonfinite_last_row_rejected_before_any_evaluation(self, rng):
        model = toy_model(rng.normal(0, 1, (2, 3)), [1.0, 2.0])
        rows = rng.normal(0, 1, (600, 3))
        rows[-1, 2] = np.nan
        before = EVAL_COUNTER.read()
        with pytest.raises(ValueError, match="finite"):
            predict_batch(model, rows)
        assert EVAL_COUNTER.read() == before

    def test_failure_in_a_later_block_names_the_batch_rows(self):
        spec = SimilaritySpec(
            kind="blackbox", blackbox_id="nan300", scorer=pairwise(lambda a, b: np.nan if a[0] == 300 else 1.0)
        )
        model = toy_model(np.zeros((1, 1)), [1.0], spec=spec)
        with pytest.raises(SimilarityEvalError, match=r"rows 256\.\.511: non-finite similarity at row 44, column 0"):
            predict_batch(model, np.arange(600.0)[:, None])

    def test_peak_memory_is_a_block_not_the_batch(self, rng):
        k, m = 200_000, 20
        model = toy_model(rng.normal(0, 1, (m, 2)), rng.normal(0, 1, m))
        rows = rng.normal(0, 1, (k, 2))
        tracemalloc.start()
        try:
            predict_batch(model, rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * k * m / 4


def input_forms(rows):
    """(the float64 rows scored, the form predict_batch is handed) per form."""
    ints, singles = np.rint(3 * rows), rows.astype(np.float32)
    forms = {
        "float64": (rows, rows),
        "int": (ints, ints.astype(np.int64)),
        "float32": (singles.astype(float), singles),
        "fortran": (rows, np.asfortranarray(rows)),
        "strided": (rows, np.repeat(rows, 2, axis=0)[::2]),
    }
    if rows.shape[0]:  # [] has no row width
        forms["list"] = (rows, rows.tolist())
        forms["row"] = (rows[:1], rows[0])
    return forms


@given(
    k=st.integers(0, 2).flatmap(lambda blocks: st.integers(256 * blocks, 256 * blocks + 88)),
    m=st.integers(1, 8),
    d=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_scoring_path_property(k, m, d, seed):
    """Whatever form the rows come in, 256-row blocks score them byte for
    byte as one ``sim_matrix`` block of their float64 values, at exactly
    k*m evaluations; ``predict`` scores a row as its row of the batch, up
    to the rounding of a dot product against the GEMV's."""
    rng = np.random.default_rng(seed)
    model = toy_model(rng.normal(0, 1, (m, d)), rng.normal(0, 1, m), bias=rng.normal(),
                      spec=SimilaritySpec("rbf", gamma=0.5 / d))
    rows = rng.normal(0, 1, (k, d))
    for form, (values, given_rows) in input_forms(rows).items():
        expected = sim_matrix(model.similarity, values, model.prototypes).values @ model.beta + model.bias
        with mock.patch.object(datatypes, "SCORE_BLOCK_BYTES", 1):
            before = EVAL_COUNTER.read()
            pred = predict_batch(model, given_rows)
            assert EVAL_COUNTER.read() - before == values.shape[0] * m, form
        assert pred.dtype == np.float64 and pred.shape == (values.shape[0],), form
        assert pred.tobytes() == expected.tobytes(), form
    if k:
        batch = predict_batch(model, rows)
        # RBF values lie in [0, 1], so each sum is at most |beta|_1 + |bias|
        tol = 2 * (m + 1) * np.finfo(float).eps * (np.abs(model.beta).sum() + abs(model.bias))
        i = k // 2
        assert abs(predict(model, rows[i]) - batch[i]) <= tol


class TestObjective:
    """The objective oracle that the tests share (conftest) against direct formulas."""

    def test_perfect_fit_is_zero(self):
        protos = np.array([[0.0, 0.0], [2.0, 0.0]])
        model = toy_model(protos, [1.0, -0.5], bias=0.2)
        X = np.array([[0.1, 0.3], [1.5, -0.2], [2.0, 1.0]])
        y = predict_batch(model, X)
        value = objective(model, Dataset(features=X, targets=y), 0.0)
        assert value.total == pytest.approx(0.0, abs=1e-28)

    def test_zero_model_sums_squared_targets(self):
        model = toy_model(np.array([[0.0]]), [0.0], bias=0.0)
        y = np.array([1.0, -2.0, 3.0])
        value = objective(model, Dataset(features=[[0.0], [1.0], [2.0]], targets=y), 0.0)
        assert value.total == pytest.approx(np.sum(y**2), rel=1e-15)

    def test_matrix_form_equals_per_sample_loop(self, rng):
        # naive scalar-summation oracle over 100 random small instances
        for _ in range(100):
            n, d, m = 5, int(rng.integers(1, 4)), int(rng.integers(1, 4))
            X = rng.normal(0, 1, (n, d))
            y = rng.normal(0, 1, n)
            u = rng.uniform(0.1, 3.0, n)
            lam = float(rng.uniform(0, 0.5))
            model = toy_model(rng.normal(0, 1, (m, d)), rng.normal(0, 1, m), bias=float(rng.normal()))
            data = Dataset(features=X, targets=y, weights=u)
            naive = sum(
                u[i] * (predict(model, X[i]) - y[i]) ** 2 for i in range(n)
            ) + lam * float(np.dot(model.beta, model.beta))
            got = objective(model, data, lam)
            assert got.total == pytest.approx(naive, rel=1e-10)
            assert got.total == got.loss + got.reg

    def test_components_nonnegative(self, rng):
        model = toy_model(rng.normal(0, 1, (2, 2)), rng.normal(0, 1, 2))
        data = Dataset(features=rng.normal(0, 1, (4, 2)), targets=rng.normal(0, 1, 4))
        value = objective(model, data, 0.3)
        assert value.loss >= 0 and value.reg >= 0


class TestTrainConfig:
    @pytest.mark.parametrize("flag", [True, False])
    @pytest.mark.parametrize("name", ["max_sweeps", "seed"])
    def test_rejects_booleans(self, name, flag):
        with pytest.raises(ValueError, match=rf"{name} must be a.* integer.*got {flag}"):
            TrainConfig(**{name: flag})

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(eta=0.0)
        with pytest.raises(ValueError):
            TrainConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            TrainConfig(max_sweeps=0)
        with pytest.raises(ValueError, match="max_sweeps"):
            TrainConfig(max_sweeps=2.5)
        with pytest.raises(ValueError):
            TrainConfig(lam=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(lam=np.nan)
        for name in ("lam", "eta", "epsilon"):
            with pytest.raises(ValueError, match=name):
                TrainConfig(**{name: np.inf})
        with pytest.raises(ValueError):
            TrainConfig(grad_mode="newton")
        with pytest.raises(ValueError):
            TrainConfig(seed=-1)

    def test_box_needs_a_finite_point_per_row_but_may_be_half_open(self, rng):
        # a box with no finite point once projected prototypes to infinity
        for box in ([[np.nan, 1.0]], [[0.0, 1.0], [-1.0, np.nan]], [[np.inf, np.inf]], [[-np.inf, -np.inf]]):
            with pytest.raises(ValueError, match="NaN"):
                TrainConfig(box=box)
        # infinite bounds leave a side open, and such a box trains
        data = Dataset(features=rng.normal(0, 1, (20, 2)), targets=rng.normal(0, 1, 20))
        config = TrainConfig(eta=0.1, max_sweeps=3, box=[[-np.inf, 0.5], [-1.0, np.inf]])
        model, trace = fit(data, 2, config=config, similarity=RBF1)
        assert trace.termination != "error"
        assert np.all(model.prototypes[:, 0] <= 0.5) and np.all(model.prototypes[:, 1] >= -1.0)

    def test_box_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(box=[[1.0, 0.0]])
        with pytest.raises(ValueError):
            TrainConfig(box="hull")
        cfg = TrainConfig(box=[[0.0, 1.0], [-1.0, 1.0]])
        assert cfg.box.shape == (2, 2)
        assert TrainConfig(box="data").box == "data"


class TestModelInvariants:
    def test_needs_finite_entries(self):
        with pytest.raises(ValueError):
            toy_model(np.array([[np.nan]]), [1.0])
        with pytest.raises(ValueError):
            toy_model(np.array([[1.0]]), [np.inf])

    def test_coefficient_count_must_match(self):
        with pytest.raises(ValueError):
            toy_model(np.zeros((2, 1)), [1.0])

    def test_needs_a_prototype(self):
        with pytest.raises(ValueError, match="at least one prototype"):
            toy_model(np.zeros((0, 2)), [])

    def test_prototypes_must_be_two_dimensional(self):
        with pytest.raises(ValueError, match=r"\(2, 3, 1\)"):
            toy_model(np.zeros((2, 3, 1)), [1.0, 1.0])
