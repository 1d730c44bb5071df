import numpy as np
import pytest

from sparsim import Dataset, SparseModel, TrainConfig, fit, objective, predict, predict_batch
from sparsim.similarity import EVAL_COUNTER, SimilaritySpec, pairwise

RBF1 = SimilaritySpec(kind="rbf", gamma=1.0)


def toy_model(protos, beta, bias=0.0, spec=RBF1):
    return SparseModel(prototypes=protos, beta=beta, bias=bias, similarity=spec)


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

    def test_immutable_arrays(self):
        data = Dataset(features=[[1.0]], targets=[1.0])
        with pytest.raises(ValueError):
            data.features[0, 0] = 2.0

    def test_class_balanced_equalizes_mass(self):
        labels = [1.0, 1.0, 1.0, -1.0]
        data = Dataset.class_balanced([[0.0]] * 4, labels)
        pos_mass = data.weights[np.array(labels) > 0].sum()
        neg_mass = data.weights[np.array(labels) < 0].sum()
        assert pos_mass == pytest.approx(neg_mass)
        assert pos_mass == pytest.approx(2.0)

    def test_class_balanced_needs_both_classes(self):
        with pytest.raises(ValueError):
            Dataset.class_balanced([[0.0]] * 2, [1.0, 1.0])


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


class TestObjective:
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
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(eta=0.0)
        with pytest.raises(ValueError):
            TrainConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            TrainConfig(max_sweeps=0)
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
