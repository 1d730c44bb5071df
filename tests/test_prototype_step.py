import numpy as np
import pytest

from conftest import coefficient_response, fd_objective_grad, random_instance, resolve_coefficients

from sparsim import Dataset, SparseModel, TrainConfig, predict_batch
from sparsim.errors import NonFiniteUpdateError, StaleCoefficientsError
from sparsim.prototype_step import penalty_gradient, step_prototype, total_gradient
from sparsim.similarity import EVAL_COUNTER, SimilaritySpec

RBF1 = SimilaritySpec(kind="rbf", gamma=1.0)


def solved_model(data, protos, spec, lam):
    beta, bias = resolve_coefficients(data, protos, spec, lam)
    return SparseModel(prototypes=protos, beta=beta, bias=bias, similarity=spec)


class TestTotalGradient:
    def test_parts_sum_to_total(self, rng):
        data, protos, _ = random_instance(0)
        spec = SimilaritySpec(kind="rbf", gamma=0.8)
        model = solved_model(data, protos, spec, 1e-3)
        got = total_gradient(data, model, 0, 1e-3, penalty_t=2)
        np.testing.assert_allclose(got.grad, got.direct + got.penalty, atol=1e-12)

    def test_perfect_fit_leaves_only_penalty(self, rng):
        # targets generated by a planted model at the prototypes: residual
        # vanishes, so only the separation penalty survives
        protos = np.array([[0.0, 0.0], [1.5, 0.5]])
        planted = SparseModel(prototypes=protos, beta=[1.0, -0.8], bias=0.3, similarity=RBF1)
        X = rng.normal(0, 1, (12, 2))
        data = Dataset(features=X, targets=predict_batch(planted, X))
        model = solved_model(data, protos, RBF1, 0.0)
        plain = total_gradient(data, model, 0, 0.0)
        np.testing.assert_allclose(plain.grad, 0.0, atol=1e-8)
        with_penalty = total_gradient(data, model, 0, 0.0, penalty_t=1)
        np.testing.assert_allclose(with_penalty.grad, with_penalty.penalty, atol=1e-8)
        assert np.linalg.norm(with_penalty.penalty) > 1e-3

    def test_single_point_single_prototype_fd(self):
        data = Dataset(features=[[0.7, -0.3]], targets=[2.0])
        protos = np.array([[0.1, 0.4]])
        model = solved_model(data, protos, RBF1, 0.2)
        got = total_gradient(data, model, 0, 0.2).grad
        oracle = fd_objective_grad(data, protos, RBF1, 0.2, 0, h=1e-5)
        np.testing.assert_allclose(got, oracle, rtol=1e-4, atol=1e-8)

    def test_matches_resolve_fd_oracle(self):
        # the central correctness property of this module
        for seed in range(25):
            data, protos, r = random_instance(seed)
            gamma = float(r.uniform(0.3, 2.0))
            lam = float(r.choice([0.0, 1e-6, 1e-3, 0.1]))
            spec = SimilaritySpec(kind="rbf", gamma=gamma)
            model = solved_model(data, protos, spec, lam)
            for j in range(model.m):
                got = total_gradient(data, model, j, lam).grad
                oracle = fd_objective_grad(data, protos, spec, lam, j)
                np.testing.assert_allclose(got, oracle, rtol=1e-4, atol=1e-8)

    def test_coefficient_response_is_negligible(self):
        # the step omits the coefficient-response term; the implicit-
        # differentiation oracle shows it vanishes at an exact solve
        for seed in range(25):
            data, protos, r = random_instance(seed)
            spec = SimilaritySpec(kind="rbf", gamma=float(r.uniform(0.3, 2.0)))
            for lam in (0.0, 1e-6, 1e-3, 0.1):
                model = solved_model(data, protos, spec, lam)
                for j in range(model.m):
                    direct = total_gradient(data, model, j, lam).direct
                    response = coefficient_response(data, model, j, lam)
                    assert np.linalg.norm(response) <= 1e-9 * np.linalg.norm(direct)

    def test_stale_coefficients_detected(self, rng):
        data, protos, _ = random_instance(3)
        model = SparseModel(
            prototypes=protos, beta=rng.normal(0, 1, protos.shape[0]), bias=5.0, similarity=RBF1
        )
        with pytest.raises(StaleCoefficientsError):
            total_gradient(data, model, 0, 1e-3)

    def test_bad_index(self, rng):
        data, protos, _ = random_instance(4)
        model = solved_model(data, protos, RBF1, 1e-3)
        with pytest.raises(ValueError):
            total_gradient(data, model, model.m, 1e-3)


class TestPenaltyGradient:
    def test_single_prototype_is_zero(self):
        model = SparseModel(prototypes=[[1.0, 2.0]], beta=[1.0], bias=0.0, similarity=RBF1)
        np.testing.assert_array_equal(penalty_gradient(model, 0, 1), np.zeros(2))

    def test_coincident_prototypes_give_zero(self):
        model = SparseModel(
            prototypes=[[1.0, 2.0], [1.0, 2.0]], beta=[1.0, 1.0], bias=0.0, similarity=RBF1
        )
        np.testing.assert_array_equal(penalty_gradient(model, 0, 1), np.zeros(2))

    def test_unit_distance_magnitude_and_direction(self):
        # closed form: 2*gamma*exp(-gamma)*(z_other - z_j) at distance 1
        model = SparseModel(
            prototypes=[[0.0, 0.0], [1.0, 0.0]], beta=[1.0, 1.0], bias=0.0, similarity=RBF1
        )
        got = penalty_gradient(model, 0, 1)
        np.testing.assert_allclose(got, [2 * np.exp(-1.0), 0.0], rtol=1e-14)
        # subtracting the penalty moves prototype 0 away from prototype 1
        assert (0.0 - got[0]) < 0.0

    def test_decay_is_exact_inverse_square(self, rng):
        protos = rng.normal(0, 1, (4, 3))
        model = SparseModel(prototypes=protos, beta=np.ones(4), bias=0.0, similarity=RBF1)
        base = penalty_gradient(model, 1, 1)
        for t in (2, 3, 5, 10):
            np.testing.assert_array_equal(penalty_gradient(model, 1, t), base / t**2)

    def test_requires_positive_iteration(self, rng):
        model = SparseModel(prototypes=rng.normal(0, 1, (2, 2)), beta=[1.0, 1.0], bias=0.0, similarity=RBF1)
        with pytest.raises(ValueError):
            penalty_gradient(model, 0, 0)


class TestStep:
    def test_zero_gradient_leaves_prototype(self, rng):
        # planted targets and a lone prototype: nothing should move
        protos = np.array([[0.5, -0.5]])
        planted = SparseModel(prototypes=protos, beta=[1.2], bias=0.0, similarity=RBF1)
        X = rng.normal(0, 1, (10, 2))
        data = Dataset(features=X, targets=predict_batch(planted, X))
        model = solved_model(data, protos, RBF1, 0.0)
        stepped = step_prototype(model, 0, data, TrainConfig(lam=0.0, penalty_enabled=False), 1)
        np.testing.assert_allclose(stepped.prototypes[0], protos[0], atol=1e-9)

    def test_locality(self, rng):
        data, protos, _ = random_instance(7)
        if protos.shape[0] == 1:
            data, protos, _ = random_instance(8)
        model = solved_model(data, protos, RBF1, 1e-3)
        stepped = step_prototype(model, 0, data, TrainConfig(lam=1e-3), 1)
        np.testing.assert_array_equal(stepped.prototypes[1:], model.prototypes[1:])
        assert np.any(stepped.prototypes[0] != model.prototypes[0])

    def test_box_projection_clips(self, rng):
        data, protos, _ = random_instance(9)
        model = solved_model(data, protos, RBF1, 1e-3)
        lo = model.prototypes[0] - 1e-12
        hi = model.prototypes[0] + 1e-12
        box = np.column_stack([np.full(model.dim, -100.0), np.full(model.dim, 100.0)])
        box[:, 0] = lo
        box[:, 1] = hi
        config = TrainConfig(lam=1e-3, eta=10.0, box=box, penalty_enabled=False)
        stepped = step_prototype(model, 0, data, config, 1)
        assert np.all(stepped.prototypes[0] >= lo - 1e-15)
        assert np.all(stepped.prototypes[0] <= hi + 1e-15)

    def test_data_box_keeps_prototypes_in_hull(self, rng):
        data, protos, _ = random_instance(11)
        model = solved_model(data, protos, RBF1, 1e-3)
        config = TrainConfig(lam=1e-3, eta=50.0, box="data", penalty_enabled=False)
        stepped = step_prototype(model, 0, data, config, 1)
        assert np.all(stepped.prototypes[0] >= data.features.min(axis=0) - 1e-12)
        assert np.all(stepped.prototypes[0] <= data.features.max(axis=0) + 1e-12)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_box_rows_must_match_dimension(self, rows):
        data, protos, _ = random_instance(9)  # d = 6
        model = solved_model(data, protos, RBF1, 1e-3)
        config = TrainConfig(lam=1e-3, box=np.tile([-1.0, 1.0], (rows, 1)))
        before = EVAL_COUNTER.read()
        with pytest.raises(ValueError, match=f"box has {rows} rows but the data have {model.dim} dimensions"):
            step_prototype(model, 0, data, config, 1)
        assert EVAL_COUNTER.read() == before

    def test_penalty_pushes_apart(self):
        # two prototypes at unit distance with zero residual: the update
        # is pure repulsion, increasing their separation
        protos = np.array([[0.0, 0.0], [1.0, 0.0]])
        planted = SparseModel(prototypes=protos, beta=[1.0, 1.0], bias=0.0, similarity=RBF1)
        rng = np.random.default_rng(5)
        X = rng.normal(0.5, 1.5, (15, 2))
        data = Dataset(features=X, targets=predict_batch(planted, X))
        model = solved_model(data, protos, RBF1, 0.0)
        stepped = step_prototype(model, 0, data, TrainConfig(lam=0.0, penalty_enabled=True), 1)
        d_before = np.linalg.norm(protos[0] - protos[1])
        d_after = np.linalg.norm(stepped.prototypes[0] - stepped.prototypes[1])
        assert d_after > d_before

    def test_two_cluster_toy_moves_toward_near_cluster(self):
        # seeded 2D instance: a lone prototype between two positive
        # clusters (negative background above and below) drifts toward the
        # nearer cluster center over ten steps
        rng = np.random.default_rng(42)
        left = rng.normal([-2.0, 0.0], 0.3, (8, 2))
        right = rng.normal([2.0, 0.0], 0.3, (8, 2))
        neg = np.vstack(
            [rng.normal([0.0, 3.0], 0.3, (4, 2)), rng.normal([0.0, -3.0], 0.3, (4, 2))]
        )
        X = np.vstack([left, right, neg])
        data = Dataset(features=X, targets=np.concatenate([np.ones(16), -np.ones(8)]))
        protos = np.array([[0.8, 0.0]])  # nearer the right cluster
        spec = SimilaritySpec(kind="rbf", gamma=0.5)
        model = solved_model(data, protos, spec, 1e-6)
        config = TrainConfig(lam=1e-6, eta=0.1, penalty_enabled=False)
        for t in range(1, 11):
            model = step_prototype(model, 0, data, config, t)
            beta, bias = resolve_coefficients(data, model.prototypes, spec, 1e-6)
            model = SparseModel(prototypes=model.prototypes, beta=beta, bias=bias, similarity=spec)
        start_gap = np.linalg.norm(protos[0] - np.array([2.0, 0.0]))
        end_gap = np.linalg.norm(model.prototypes[0] - np.array([2.0, 0.0]))
        assert end_gap < start_gap

    def test_nonfinite_similarity_gradient_propagates(self):
        from sparsim.errors import SimilarityEvalError

        data = Dataset(features=[[0.0], [1.0]], targets=[1.0, -1.0])
        # finite but extreme scores overflow the central difference, which
        # must surface as a similarity-gradient failure
        spec = SimilaritySpec(
            kind="blackbox", blackbox_id="steep",
            scorer=lambda a, b: np.sign(b[0] - 0.5) * 1e308 if b[0] != 0.5 else 1.0,
        )
        protos = np.array([[0.5]])
        beta, bias = resolve_coefficients(data, protos, spec, 1e-6)
        model = SparseModel(prototypes=protos, beta=beta, bias=bias, similarity=spec)
        config = TrainConfig(lam=1e-6, grad_mode="numeric", penalty_enabled=False)
        with pytest.raises(SimilarityEvalError):
            step_prototype(model, 0, data, config, 1)

    def test_overflowing_update_halved_once_then_error(self, monkeypatch, rng):
        import sparsim.prototype_step as ps

        data, protos, _ = random_instance(13)
        model = solved_model(data, protos, RBF1, 1e-3)
        d = model.dim

        # finite gradient whose full step overflows but whose half step fits
        big = np.full(d, 1.2e308)
        monkeypatch.setattr(ps, "_data_gradient", lambda *a, **k: big)
        config = TrainConfig(lam=1e-3, eta=2.0, penalty_enabled=False)
        with np.errstate(over="ignore"):
            stepped = step_prototype(model, 0, data, config, 1)
        assert np.all(np.isfinite(stepped.prototypes))

        # an infinite gradient survives the halving and must raise
        monkeypatch.setattr(ps, "_data_gradient", lambda *a, **k: np.full(d, np.inf))
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteUpdateError):
            step_prototype(model, 0, data, config, 1)

    def test_coincidence_jitter_separates(self):
        # two prototypes forced onto the same point get nudged apart
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
        data = Dataset(features=X, targets=[1.0, 1.0, 1.0])
        protos = np.array([[1.0, 1.0], [1.0, 1.0]])
        beta, bias = resolve_coefficients(data, protos, RBF1, 1e-3)
        model = SparseModel(prototypes=protos, beta=beta, bias=bias, similarity=RBF1)
        config = TrainConfig(lam=1e-3, penalty_enabled=True, seed=3)
        stepped = step_prototype(model, 0, data, config, 1)
        gap = np.linalg.norm(stepped.prototypes[0] - stepped.prototypes[1])
        assert gap > 0
