import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import coefficient_response, fd_objective_grad, random_instance, resolve_coefficients

from sparsim import Dataset, SparseModel, TrainConfig, predict_batch
from sparsim.datatypes import resolve_box
from sparsim.errors import NonFiniteUpdateError
from sparsim.similarity import SimilaritySpec, pairwise, sim_matrix
from sparsim.training import _data_gradient, _loss, _penalty, _update_prototype

RBF1 = SimilaritySpec(kind="rbf", gamma=1.0)


def solved_state(data, protos, spec, lam):
    """Similarity matrix, exact coefficients and residual, built as fit
    builds them before an update."""
    beta, bias = resolve_coefficients(data, protos, spec, lam)
    S = sim_matrix(spec, data.features, protos).values.copy()
    _, resid = _loss(S, beta, bias, data, lam)
    return S, beta, resid


def data_gradient(data, protos, spec, lam, j):
    S, beta, resid = solved_state(data, protos, spec, lam)
    return _data_gradient(S, data, spec, protos, beta, resid, j, "analytic")


def penalty(protos, j, t, spec=RBF1):
    protos = np.asarray(protos, dtype=float)
    return _penalty(protos[j], np.delete(protos, j, axis=0), spec, t, "analytic")


def step(data, protos, config, t, spec=RBF1, j=0):
    """Prototypes after fit's update of prototype j at iteration t."""
    S, beta, resid = solved_state(data, protos, spec, config.lam)
    box = resolve_box(config.box, data)
    stepped = protos.copy()
    stepped[j], _ = _update_prototype(protos, beta, resid, spec, j, data, config, t, S, box)
    return stepped


class TestTotalGradient:
    def test_perfect_fit_leaves_only_penalty(self, rng):
        # targets generated by a planted model at the prototypes: residual
        # vanishes, so only the separation penalty survives
        protos = np.array([[0.0, 0.0], [1.5, 0.5]])
        planted = SparseModel(prototypes=protos, beta=[1.0, -0.8], bias=0.3, similarity=RBF1)
        X = rng.normal(0, 1, (12, 2))
        data = Dataset(features=X, targets=predict_batch(planted, X))
        np.testing.assert_allclose(data_gradient(data, protos, RBF1, 0.0, 0), 0.0, atol=1e-8)
        assert np.linalg.norm(penalty(protos, 0, 1)) > 1e-3

    def test_single_point_single_prototype_fd(self):
        data = Dataset(features=[[0.7, -0.3]], targets=[2.0])
        protos = np.array([[0.1, 0.4]])
        got = data_gradient(data, protos, RBF1, 0.2, 0)
        oracle = fd_objective_grad(data, protos, RBF1, 0.2, 0, h=1e-5)
        np.testing.assert_allclose(got, oracle, rtol=1e-4, atol=1e-8)

    def test_matches_resolve_fd_oracle(self):
        # the central correctness property of this module
        for seed in range(25):
            data, protos, r = random_instance(seed)
            gamma = float(r.uniform(0.3, 2.0))
            lam = float(r.choice([0.0, 1e-6, 1e-3, 0.1]))
            spec = SimilaritySpec(kind="rbf", gamma=gamma)
            for j in range(protos.shape[0]):
                got = data_gradient(data, protos, spec, lam, j)
                oracle = fd_objective_grad(data, protos, spec, lam, j)
                np.testing.assert_allclose(got, oracle, rtol=1e-4, atol=1e-8)

    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(5, 40),
        d=st.integers(1, 5),
        m=st.integers(1, 5),
        gamma=st.floats(0.2, 3.0),
        lam=st.floats(1e-4, 1.0),
        spread=st.floats(0.05, 2.0),
    )
    def test_matches_resolve_fd_oracle_on_generated_problems(self, seed, n, d, m, gamma, lam, spread):
        """Domain: n 5-40 weighted rows in d 1-5, m 1-5 prototypes at
        distinct rows plus N(0, spread^2) noise with spread 0.05-2, RBF
        gamma 0.2-3, lam 1e-4-1 (below it the central differences of the
        re-solved objective lose accuracy)."""
        rng = np.random.default_rng(seed)
        data = Dataset(features=rng.normal(0, 1, (n, d)), targets=rng.normal(0, 1, n),
                       weights=rng.uniform(0.5, 2.0, n))
        protos = data.features[rng.choice(n, m, replace=False)] + rng.normal(0, spread, (m, d))
        spec = SimilaritySpec(kind="rbf", gamma=gamma)
        for j in range(m):
            oracle = fd_objective_grad(data, protos, spec, lam, j, h=1e-5)
            got = data_gradient(data, protos, spec, lam, j)
            assert np.max(np.abs(got - oracle)) <= 1e-5 * max(np.max(np.abs(oracle)), 1.0)

    def test_coefficient_response_is_negligible(self):
        # the step omits the coefficient-response term; the implicit-
        # differentiation oracle shows it vanishes at an exact solve
        for seed in range(25):
            data, protos, r = random_instance(seed)
            spec = SimilaritySpec(kind="rbf", gamma=float(r.uniform(0.3, 2.0)))
            for lam in (0.0, 1e-6, 1e-3, 0.1):
                beta, bias = resolve_coefficients(data, protos, spec, lam)
                model = SparseModel(prototypes=protos, beta=beta, bias=bias, similarity=spec)
                for j in range(model.m):
                    direct = data_gradient(data, protos, spec, lam, j)
                    response = coefficient_response(data, model, j, lam)
                    assert np.linalg.norm(response) <= 1e-9 * np.linalg.norm(direct)


class TestPenaltyGradient:
    def test_single_prototype_is_zero(self, rng):
        # a lone prototype has no others, so its update carries no repulsion
        data = Dataset(features=rng.normal(0, 1, (6, 2)), targets=rng.normal(0, 1, 6))
        protos = np.array([[1.0, 2.0]])
        on = step(data, protos, TrainConfig(lam=1e-3, penalty_enabled=True), 1)
        np.testing.assert_array_equal(on, step(data, protos, TrainConfig(lam=1e-3, penalty_enabled=False), 1))

    def test_coincident_prototypes_give_zero(self):
        np.testing.assert_array_equal(penalty([[1.0, 2.0], [1.0, 2.0]], 0, 1), np.zeros(2))

    def test_unit_distance_magnitude_and_direction(self):
        # closed form: 2*gamma*exp(-gamma)*(z_other - z_j) at distance 1
        got = penalty([[0.0, 0.0], [1.0, 0.0]], 0, 1)
        np.testing.assert_allclose(got, [2 * np.exp(-1.0), 0.0], rtol=1e-14)
        # subtracting the penalty moves prototype 0 away from prototype 1
        assert (0.0 - got[0]) < 0.0

    def test_decay_is_exact_inverse_square(self, rng):
        protos = rng.normal(0, 1, (4, 3))
        base = penalty(protos, 1, 1)
        for t in (2, 3, 5, 10):
            np.testing.assert_array_equal(penalty(protos, 1, t), base / t**2)


class TestStep:
    def test_zero_gradient_leaves_prototype(self, rng):
        # planted targets and a lone prototype: nothing should move
        protos = np.array([[0.5, -0.5]])
        planted = SparseModel(prototypes=protos, beta=[1.2], bias=0.0, similarity=RBF1)
        X = rng.normal(0, 1, (10, 2))
        data = Dataset(features=X, targets=predict_batch(planted, X))
        stepped = step(data, protos, TrainConfig(lam=0.0, penalty_enabled=False), 1)
        np.testing.assert_allclose(stepped[0], protos[0], atol=1e-9)

    def test_locality(self, rng):
        data, protos, _ = random_instance(7)
        if protos.shape[0] == 1:
            data, protos, _ = random_instance(8)
        stepped = step(data, protos, TrainConfig(lam=1e-3), 1)
        np.testing.assert_array_equal(stepped[1:], protos[1:])
        assert np.any(stepped[0] != protos[0])

    def test_box_projection_clips(self, rng):
        data, protos, _ = random_instance(9)
        lo = protos[0] - 1e-12
        hi = protos[0] + 1e-12
        config = TrainConfig(lam=1e-3, eta=10.0, box=np.column_stack([lo, hi]), penalty_enabled=False)
        stepped = step(data, protos, config, 1)
        assert np.all(stepped[0] >= lo - 1e-15)
        assert np.all(stepped[0] <= hi + 1e-15)

    def test_data_box_keeps_prototypes_in_hull(self, rng):
        data, protos, _ = random_instance(11)
        config = TrainConfig(lam=1e-3, eta=50.0, box="data", penalty_enabled=False)
        stepped = step(data, protos, config, 1)
        assert np.all(stepped[0] >= data.features.min(axis=0) - 1e-12)
        assert np.all(stepped[0] <= data.features.max(axis=0) + 1e-12)

    def test_penalty_pushes_apart(self):
        # two prototypes at unit distance with zero residual: the update
        # is pure repulsion, increasing their separation
        protos = np.array([[0.0, 0.0], [1.0, 0.0]])
        planted = SparseModel(prototypes=protos, beta=[1.0, 1.0], bias=0.0, similarity=RBF1)
        rng = np.random.default_rng(5)
        X = rng.normal(0.5, 1.5, (15, 2))
        data = Dataset(features=X, targets=predict_batch(planted, X))
        stepped = step(data, protos, TrainConfig(lam=0.0, penalty_enabled=True), 1)
        d_before = np.linalg.norm(protos[0] - protos[1])
        d_after = np.linalg.norm(stepped[0] - stepped[1])
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
        config = TrainConfig(lam=1e-6, eta=0.1, penalty_enabled=False)
        moved = protos
        for t in range(1, 11):
            moved = step(data, moved, config, t, spec)
        start_gap = np.linalg.norm(protos[0] - np.array([2.0, 0.0]))
        end_gap = np.linalg.norm(moved[0] - np.array([2.0, 0.0]))
        assert end_gap < start_gap

    def test_nonfinite_similarity_gradient_propagates(self, monkeypatch):
        import sparsim.training as training
        from sparsim.errors import SimilarityEvalError

        data = Dataset(features=[[0.0], [1.0]], targets=[1.0, -1.0])
        # finite but extreme scores overflow the central difference, which
        # must surface as a similarity-gradient failure
        spec = SimilaritySpec(
            kind="blackbox", blackbox_id="steep",
            scorer=pairwise(lambda a, b: np.sign(b[0] - 0.5) * 1e308 if b[0] != 0.5 else 1.0),
        )
        config = TrainConfig(lam=1e-6, grad_mode="numeric", penalty_enabled=False)
        with pytest.raises(SimilarityEvalError):
            step(data, np.array([[0.5]]), config, 1, spec)
        # a gradient that comes back non-finite is caught before the step
        monkeypatch.setattr(training.sim, "grad_z_sum", lambda *a, **k: np.full(1, np.inf))
        with pytest.raises(SimilarityEvalError, match="non-finite similarity gradient for prototype 0"):
            step(data, np.array([[0.5]]), TrainConfig(lam=1e-6, penalty_enabled=False), 1)

    def test_overflowing_update_is_an_error(self, monkeypatch):
        import sparsim.training as training

        data, protos, _ = random_instance(13)
        # a finite gradient whose step overflows: the update is refused at once
        big = np.full(protos.shape[1], 1.2e308)
        monkeypatch.setattr(training, "_data_gradient", lambda *a, **k: big)
        config = TrainConfig(lam=1e-3, eta=2.0, penalty_enabled=False)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteUpdateError, match="prototype 0 is not finite"):
            step(data, protos, config, 1)

    def test_coincidence_jitter_separates(self):
        # two prototypes forced onto the same point get nudged apart
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
        data = Dataset(features=X, targets=[1.0, 1.0, 1.0])
        protos = np.array([[1.0, 1.0], [1.0, 1.0]])
        config = TrainConfig(lam=1e-3, penalty_enabled=True, seed=3)
        stepped = step(data, protos, config, 1)
        gap = np.linalg.norm(stepped[0] - stepped[1])
        assert gap > 0
