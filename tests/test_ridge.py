import warnings

import numpy as np
import pytest
from conftest import objective
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import lapack

from sparsim import Dataset, SparseModel
from sparsim.errors import SingularSystemError
from sparsim.ridge import BLOCK_ROWS, RESIDUAL_RTOL, assemble, normal_matrix, solve, update_column, weighted_design
from sparsim.similarity import SimilaritySpec, sim_matrix

RBF1 = SimilaritySpec(kind="rbf", gamma=1.0)


def oracle_system(S, u, y, lam):
    """Independent assembly by explicit loops (the hand oracle)."""
    n, m = S.shape
    M = np.zeros((m + 1, m + 1))
    rhs = np.zeros(m + 1)
    for a in range(m):
        for b in range(m):
            M[a, b] = sum(S[i, a] * u[i] * S[i, b] for i in range(n))
        M[a, a] += lam
        M[a, m] = sum(S[i, a] * u[i] for i in range(n))
        M[m, a] = M[a, m]
        rhs[a] = sum(S[i, a] * u[i] * y[i] for i in range(n))
    M[m, m] = sum(u)
    rhs[m] = sum(u[i] * y[i] for i in range(n))
    return M, rhs


class TestAssemble:
    def test_two_by_two_hand_example(self):
        S = np.array([[1.0], [0.0]])
        matrix, rhs = assemble(S, [1.0, 1.0], [1.0, 0.0], 0.0)
        np.testing.assert_allclose(matrix, [[1.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(rhs, [1.0, 1.0])

    def test_lambda_only_shifts_top_diagonal(self, rng):
        S = rng.uniform(0, 1, (6, 3))
        u = rng.uniform(0.5, 2, 6)
        y = rng.normal(0, 1, 6)
        base, base_rhs = assemble(S, u, y, 0.0)
        shifted, shifted_rhs = assemble(S, u, y, 0.7)
        diff = shifted - base
        np.testing.assert_allclose(np.diag(diff)[:3], 0.7)
        np.testing.assert_allclose(diff - np.diag(np.diag(diff)), 0.0, atol=1e-15)
        np.testing.assert_array_equal(shifted_rhs, base_rhs)

    @pytest.mark.parametrize("lam", [-1.0, float("nan"), float("inf")])
    def test_rejects_negative_or_nan_lambda(self, lam):
        with pytest.raises(ValueError, match="lam"):
            assemble(np.ones((2, 1)), [1.0, 1.0], [1.0, 0.0], lam)

    @pytest.mark.parametrize("weights, targets", [([1.0], [1.0, 0.0]), ([1.0, 1.0], [1.0, 0.0, 2.0])])
    def test_rejects_weights_or_targets_of_wrong_length(self, weights, targets):
        with pytest.raises(ValueError, match="similarities have 2 rows"):
            assemble(np.ones((2, 1)), weights, targets, 0.1)

    def test_symmetry(self, rng):
        S = rng.uniform(0, 1, (10, 4))
        matrix, _ = assemble(S, rng.uniform(0.1, 2, 10), rng.normal(0, 1, 10), 0.1)
        np.testing.assert_allclose(matrix, matrix.T, atol=1e-12)

    def test_matches_loop_oracle(self, rng):
        S = rng.uniform(0, 1, (7, 3))
        u = rng.uniform(0.5, 2, 7)
        y = rng.normal(0, 1, 7)
        matrix, rhs = assemble(S, u, y, 0.05)
        M, oracle_rhs = oracle_system(S, u, y, 0.05)
        np.testing.assert_allclose(matrix, M, rtol=1e-12)
        np.testing.assert_allclose(rhs, oracle_rhs, rtol=1e-12)

    def test_update_column_matches_loop_oracle(self, rng):
        # every column in turn replaced, each update checked against a
        # fresh loop-built system for the changed similarities
        S = rng.uniform(0, 1, (9, 4))
        u = rng.uniform(0.5, 2, 9)
        y = rng.normal(0, 1, 9)
        matrix, rhs = assemble(S, u, y, 0.05)
        for j in (0, 3, 1, 2, 3):
            S[:, j] = rng.uniform(0, 1, 9)
            update_column(matrix, rhs, S, u, y, j, 0.05)
            M, oracle_rhs = oracle_system(S, u, y, 0.05)
            np.testing.assert_allclose(matrix, M, rtol=1e-12)
            np.testing.assert_allclose(rhs, oracle_rhs, rtol=1e-12)


def positive_system(n, m=5, seed=0):
    """S, weights and targets with every entry positive, so no sum in the
    normal equations cancels and entrywise relative error is meaningful."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, (n, m)), rng.uniform(0.1, 3, n), rng.uniform(0.5, 2, n)


class TestBlockedAssembly:
    @pytest.mark.parametrize("n", [1, BLOCK_ROWS - 1, BLOCK_ROWS])
    def test_one_block_is_the_single_product_byte_for_byte(self, n):
        S, u, y = positive_system(n)
        matrix, rhs = assemble(S, u, y, 0.1)
        At, expected_rhs = weighted_design(S, u, y, 0.1)
        assert matrix.tobytes() == normal_matrix(At, 0.1).tobytes()
        assert rhs.tobytes() == expected_rhs.tobytes()

    @pytest.mark.parametrize("n", [BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1, 1000])
    def test_block_sums_match_the_single_product(self, n):
        S, u, y = positive_system(n, seed=n)
        matrix, rhs = assemble(S, u, y, 0.1)
        At, expected_rhs = weighted_design(S, u, y, 0.1)
        np.testing.assert_allclose(matrix, normal_matrix(At, 0.1), rtol=1e-13, atol=0)
        np.testing.assert_allclose(rhs, expected_rhs, rtol=1e-13, atol=0)
        assert np.array_equal(matrix, matrix.T)

    def test_column_updates_after_a_blocked_build_match_a_fresh_one(self):
        S, u, y = positive_system(1000, seed=1)
        matrix, rhs = assemble(S, u, y, 0.1)
        rng = np.random.default_rng(2)
        for j in (0, 4, 2, 4):
            S[:, j] = rng.uniform(0, 1, 1000)
            update_column(matrix, rhs, S, u, y, j, 0.1)
            fresh, fresh_rhs = assemble(S, u, y, 0.1)
            np.testing.assert_allclose(matrix, fresh, rtol=1e-13, atol=0)
            np.testing.assert_allclose(rhs, fresh_rhs, rtol=1e-13, atol=0)
            assert np.array_equal(matrix, matrix.T)


class TestSolve:
    def test_hand_solved_interpolation(self):
        beta, bias = solve(*assemble(np.array([[1.0], [0.0]]), [1.0, 1.0], [1.0, 0.0], 0.0))
        assert beta[0] == pytest.approx(1.0, abs=1e-12)
        assert bias == pytest.approx(0.0, abs=1e-12)

    def test_constant_targets_go_to_bias(self, rng):
        X = rng.normal(0, 1, (8, 2))
        S = sim_matrix(RBF1, X, X[:3]).values
        beta, bias = solve(*assemble(S, np.ones(8), np.full(8, 2.5), 0.3))
        np.testing.assert_allclose(beta, 0.0, atol=1e-10)
        assert bias == pytest.approx(2.5, rel=1e-12)

    def test_residual_contract(self, rng):
        for seed in range(20):
            r = np.random.default_rng(seed)
            S = r.uniform(0, 1, (15, 4))
            matrix, rhs = assemble(S, r.uniform(0.5, 2, 15), r.normal(0, 1, 15), 1e-6)
            beta, bias = solve(matrix, rhs)
            x = np.concatenate([beta, [bias]])
            assert np.linalg.norm(matrix @ x - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_random_probe_minimality(self, rng):
        # solution beats 1000 random perturbations of (coefficients, bias)
        X = rng.normal(0, 1, (20, 4))
        y = rng.normal(0, 1, 20)
        u = rng.uniform(0.5, 2, 20)
        data = Dataset(features=X, targets=y, weights=u)
        protos = X[:5]
        S = sim_matrix(RBF1, X, protos).values
        beta, bias = solve(*assemble(S, u, y, 0.01))
        model = SparseModel(prototypes=protos, beta=beta, bias=bias, similarity=RBF1)
        best = objective(model, data, 0.01).total
        for _ in range(1000):
            delta = rng.normal(0, 1, 6)
            delta *= rng.uniform(0, 1e-2) / np.linalg.norm(delta)
            probe = SparseModel(
                prototypes=protos, beta=beta + delta[:5], bias=bias + delta[5], similarity=RBF1
            )
            assert objective(probe, data, 0.01).total >= best - 1e-12

    def test_minimality_across_fifty_instances(self):
        for seed in range(50):
            r = np.random.default_rng(300 + seed)
            n = int(r.integers(4, 25))
            m = int(r.integers(1, min(5, n + 1)))
            X = r.normal(0, 1, (n, 2))
            y = r.normal(0, 1, n)
            u = r.uniform(0.5, 2, n)
            data = Dataset(features=X, targets=y, weights=u)
            protos = X[r.choice(n, m, replace=False)]
            lam = float(r.choice([1e-6, 1e-2]))
            beta, bias = solve(*assemble(sim_matrix(RBF1, X, protos).values, u, y, lam))
            model = SparseModel(prototypes=protos, beta=beta, bias=bias, similarity=RBF1)
            best = objective(model, data, lam).total
            for _ in range(40):
                delta = r.normal(0, 1, m + 1)
                delta *= r.uniform(0, 1e-2) / np.linalg.norm(delta)
                probe = SparseModel(
                    prototypes=protos, beta=beta + delta[:m], bias=bias + delta[m], similarity=RBF1
                )
                assert objective(probe, data, lam).total >= best - 1e-12

    def test_duplicate_prototypes_jitter_recovery(self):
        # identical similarity columns make M singular at lam=0; the
        # jittered retry must still return a valid minimizer
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        protos = np.array([[1.0], [1.0]])
        S = sim_matrix(RBF1, X, protos).values
        y = np.array([0.0, 1.0, 0.0, -1.0])
        beta, bias = solve(*assemble(S, np.ones(4), y, 0.0))
        x = np.concatenate([beta, [bias]])
        matrix, rhs = assemble(S, np.ones(4), y, 0.0)
        assert np.all(np.isfinite(x))
        assert np.linalg.norm(matrix @ x - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_failed_factorization_takes_the_jittered_retry(self, monkeypatch):
        # two identical prototypes at lam=0: M is singular, the Cholesky
        # factorization reports a non-positive pivot, and the retry on the
        # jittered matrix either yields a solution that passes the residual
        # check against M or the error names the condition number
        S = sim_matrix(RBF1, np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([[0.5], [0.5]])).values
        matrix, rhs = assemble(S, np.ones(4), [0.0, 1.0, 0.0, -1.0], 0.0)
        calls, factor = [], lapack.dposv

        def spy(a, b):
            out = factor(a, b)
            calls.append((a.copy(), out[2]))
            return out

        monkeypatch.setattr(lapack, "dposv", spy)
        try:
            x = np.append(*solve(matrix, rhs))
        except SingularSystemError as exc:
            assert "cond" in str(exc)
        else:
            residual = np.linalg.norm(matrix @ x - rhs)
            assert residual <= RESIDUAL_RTOL * np.linalg.norm(rhs)
        assert calls[0][1] != 0
        assert len(calls) == 2
        jittered = calls[1][0] - matrix
        assert np.all(np.diag(jittered) > 0)
        np.testing.assert_array_equal(jittered - np.diag(np.diag(jittered)), 0.0)

    def test_singular_system_error(self):
        # inconsistent singular system cannot be rescued by jitter
        M = np.array([[1.0, 0.0], [0.0, 0.0]])
        rhs = np.array([1.0, 1.0])
        with pytest.raises(SingularSystemError):
            solve(M, rhs)

    def test_returns_the_lapack_solution_bit_for_bit(self):
        # the residual and finiteness checks accept and pass through the
        # direct solve's own answer, unchanged
        for seed in range(20):
            r = np.random.default_rng(seed)
            S = r.uniform(0, 1, (12, 4))
            matrix, rhs = assemble(S, r.uniform(0.5, 2, 12), r.normal(0, 1, 12), 1e-4)
            expected = lapack.dposv(matrix, rhs)[1]
            beta, bias = solve(matrix, rhs)
            np.testing.assert_array_equal(beta, expected[:-1])
            assert bias == expected[-1]

    def test_nonfinite_solution_rejected_without_warning(self, monkeypatch):
        # a direct solve that returns inf (both attempts) is singular; the
        # finiteness check must catch it before the residual product warns
        attempts = []

        def inf_solve(a, b):
            attempts.append(a.copy())
            return a, np.full(b.shape, np.inf), 0

        monkeypatch.setattr(lapack, "dposv", inf_solve)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SingularSystemError, match="singular"):
                solve(np.eye(3), np.ones(3))
        assert len(attempts) == 2
        assert not np.array_equal(attempts[0], attempts[1])  # the retry is jittered

    def test_nan_residual_is_rejected(self):
        # dposv factors [[1, 0], [0, inf]] into the finite x = (1, 0), but
        # M x holds inf * 0 = nan; a nan residual must not count as solved
        matrix = np.array([[1.0, 0.0], [0.0, np.inf]])
        with np.errstate(invalid="ignore"), pytest.raises(SingularSystemError, match="cond ~ inf"):
            solve(matrix, np.ones(2))

    @pytest.mark.parametrize("ratio, accepted", [(0.5, True), (2.0, False)])
    def test_residual_tolerance_is_relative_to_rhs_norm(self, monkeypatch, ratio, accepted):
        # with M = I the residual of x = rhs + e is e itself; a solution
        # counts while ||e|| <= RESIDUAL_RTOL * ||rhs||
        rhs = np.array([3.0, 4.0])  # norm 5
        error = np.array([ratio * RESIDUAL_RTOL * 5.0, 0.0])
        monkeypatch.setattr(lapack, "dposv", lambda a, b: (a, b + error, 0))
        if accepted:
            beta, bias = solve(np.eye(2), rhs)
            np.testing.assert_array_equal(np.append(beta, bias), rhs + error)
        else:
            with pytest.raises(SingularSystemError):
                solve(np.eye(2), rhs)


    @pytest.mark.parametrize("path", ["direct", "jittered", "failing"])
    def test_leaves_the_system_byte_unchanged(self, monkeypatch, path):
        # fit rewrites one M across all its iterations, so the jittered
        # retry must hand M's diagonal back exactly, whether it succeeds or not
        if path == "direct":
            S = np.random.default_rng(0).uniform(0, 1, (12, 4))
            matrix, rhs = assemble(S, np.ones(12), np.arange(12.0), 1e-4)
        elif path == "jittered":  # a zero pivot; the jittered system solves within tolerance
            matrix, rhs = np.ones((2, 2)), np.ones(2)
        else:
            matrix, rhs = np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([1.0, 1.0])
        before = matrix.tobytes(), rhs.tobytes()
        calls, factor = [], lapack.dposv

        def spy(a, b):
            calls.append(None)
            return factor(a, b)

        monkeypatch.setattr(lapack, "dposv", spy)
        if path == "failing":
            with pytest.raises(SingularSystemError, match="cond"):
                solve(matrix, rhs)
        else:
            assert np.all(np.isfinite(np.append(*solve(matrix, rhs))))
        assert len(calls) == (1 if path == "direct" else 2)
        assert (matrix.tobytes(), rhs.tobytes()) == before


class TestOracleEquivalence:
    def test_fifty_instances_match_normal_equations(self):
        for seed in range(50):
            r = np.random.default_rng(100 + seed)
            n = int(r.integers(5, 41))
            m = int(r.integers(1, min(7, n + 1)))
            d = int(r.integers(1, 5))
            X = r.normal(0, 1, (n, d))
            protos = X[r.choice(n, m, replace=False)]
            S = sim_matrix(RBF1, X, protos).values
            u = r.uniform(0.5, 2, n)
            y = r.normal(0, 1, n)
            lam = float(r.choice([1e-6, 1e-3, 0.1]))
            beta, bias = solve(*assemble(S, u, y, lam))
            M, rhs = oracle_system(S, u, y, lam)
            oracle = np.linalg.solve(M, rhs)
            got = np.concatenate([beta, [bias]])
            np.testing.assert_allclose(got, oracle, rtol=1e-8, atol=1e-12)


@given(
    seed=st.integers(0, 2**16),
    n=st.integers(2, 40),
    d=st.integers(1, 4),
    m=st.integers(1, 6),
    lam=st.sampled_from([1e-6, 1e-3, 0.1]),
    gamma=st.floats(0.2, 3.0),
    scale=st.floats(1e-4, 1.0),
)
def test_no_perturbation_lowers_the_solved_objective(seed, n, d, m, lam, gamma, scale):
    """Perturbing (beta, b) after ``solve`` never lowers the objective on
    generated problems.  The objective is quadratic with Hessian 2M, so
    Omega(x + delta) - Omega(x) = 2 delta'(Mx - rhs) + delta'M delta: a
    perturbation of norm ``scale`` may gain at most 2 * scale * ||Mx - rhs||
    <= 2 * scale * RESIDUAL_RTOL * ||rhs|| (the residual ``solve``
    accepts), plus rounding."""
    rng = np.random.default_rng(seed)
    m = min(m, n)
    data = Dataset(features=rng.normal(0, 1, (n, d)), targets=rng.normal(0, 1, n), weights=rng.uniform(0.5, 2, n))
    spec = SimilaritySpec(kind="rbf", gamma=gamma)
    protos = rng.normal(0, 1, (m, d))
    matrix, rhs = assemble(sim_matrix(spec, data.features, protos).values, data.weights, data.targets, lam)
    x = np.append(*solve(matrix, rhs))

    def omega(coef):
        model = SparseModel(prototypes=protos, beta=coef[:m], bias=coef[m], similarity=spec)
        return objective(model, data, lam).total

    best = omega(x)
    tol = 2.0 * scale * RESIDUAL_RTOL * np.linalg.norm(rhs) + 1e-12 * (1.0 + best)
    # random directions, and the one along which the objective curves least
    directions = [*rng.normal(0, 1, (20, m + 1)), np.linalg.eigh(matrix)[1][:, 0]]
    for direction in directions:
        assert omega(x + scale * direction / np.linalg.norm(direction)) >= best - tol


@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 30),
    m=st.integers(1, 6),
    lam=st.sampled_from([0.0, 1e-6, 0.1]),
    updates=st.lists(st.integers(0, 5), max_size=8),
)
def test_systems_stay_exactly_symmetric(seed, n, m, lam, updates):
    """``assemble`` and any sequence of ``update_column`` calls, as ``fit``
    makes them, leave the matrix exactly symmetric: the Cholesky solve
    reads only one triangle."""
    rng = np.random.default_rng(seed)
    S = rng.uniform(0, 1, (n, m))
    u, y = rng.uniform(0.5, 2, n), rng.normal(0, 1, n)
    matrix, rhs = assemble(S, u, y, lam)
    assert np.array_equal(matrix, matrix.T)
    for j in updates:
        j %= m
        S[:, j] = rng.uniform(0, 1, n)
        update_column(matrix, rhs, S, u, y, j, lam)
        assert np.array_equal(matrix, matrix.T)
