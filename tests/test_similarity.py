import tracemalloc

import numpy as np
import pytest
from conftest import einsum_rbf_matrix
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sparsim import similarity as sim
from sparsim.errors import SimilarityEvalError, UnsupportedGradModeError
from sparsim.similarity import EVAL_COUNTER, SimilaritySpec, default_spec, grad_z_matrix, pairwise, sim_matrix

RBF1 = SimilaritySpec(kind="rbf", gamma=1.0)
LINEAR = SimilaritySpec(kind="linear")


def one_row_grad(spec, x, z, mode):
    """Gradient of s(x, z) with respect to z: the one-row case of grad_z_matrix."""
    return grad_z_matrix(spec, np.asarray(x, dtype=float)[None, :], z, mode)[0]


class TestSpec:
    def test_rbf_needs_positive_gamma(self):
        with pytest.raises(ValueError):
            SimilaritySpec(kind="rbf", gamma=0.0)
        with pytest.raises(ValueError):
            SimilaritySpec(kind="rbf")
        with pytest.raises(ValueError, match="gamma"):
            SimilaritySpec(kind="rbf", gamma=np.inf)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SimilaritySpec(kind="cosine")

    def test_blackbox_needs_id(self):
        with pytest.raises(ValueError):
            SimilaritySpec(kind="blackbox")

    def test_default_spec_gamma(self):
        assert default_spec(4).gamma == 0.25

    def test_scorer_only_for_blackbox(self):
        with pytest.raises(ValueError, match="takes no scorer"):
            SimilaritySpec(kind="rbf", gamma=1.0, scorer=pairwise(lambda a, b: 1.0))

    def test_scorer_is_not_identity(self):
        bare = SimilaritySpec(kind="blackbox", blackbox_id="m")
        carried = SimilaritySpec(kind="blackbox", blackbox_id="m", scorer=pairwise(lambda a, b: 1.0))
        assert carried == bare and hash(carried) == hash(bare) and repr(carried) == repr(bare)


class TestEval:
    def test_rbf_zero_distance(self):
        assert sim.eval(RBF1, [1.0, 2.0], [1.0, 2.0]) == 1.0

    def test_rbf_unit_distance(self):
        got = sim.eval(RBF1, [1.0, 0.0], [0.0, 0.0])
        assert got == pytest.approx(np.exp(-1.0), rel=1e-15)

    def test_linear_dot_product(self):
        assert sim.eval(LINEAR, [1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_symmetry_is_exact(self, rng):
        for _ in range(50):
            a = rng.normal(0, 2, 5)
            b = rng.normal(0, 2, 5)
            for spec in (RBF1, LINEAR):
                assert sim.eval(spec, a, b) == sim.eval(spec, b, a)

    def test_rbf_range(self, rng):
        for _ in range(100):
            a = rng.normal(0, 3, 4)
            b = rng.normal(0, 3, 4)
            value = sim.eval(RBF1, a, b)
            assert 0.0 < value <= 1.0
            if not np.array_equal(a, b):
                assert value < 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sim.eval(RBF1, [1.0], [1.0, 2.0])

    def test_nonfinite_input(self):
        with pytest.raises(ValueError):
            sim.eval(RBF1, [np.nan, 0.0], [0.0, 0.0])

    def test_blackbox_scorer_failure_surfaces(self):
        spec = SimilaritySpec(kind="blackbox", blackbox_id="boom", scorer=pairwise(lambda a, b: 1 / 0))
        with pytest.raises(SimilarityEvalError, match="'boom' failed"):
            sim.eval(spec, [0.0], [0.0])

    def test_blackbox_without_scorer_names_its_id(self):
        with pytest.raises(SimilarityEvalError, match="'ghost'"):
            sim.eval(SimilaritySpec(kind="blackbox", blackbox_id="ghost"), [0.0], [0.0])


class TestGrad:
    def test_zero_at_coincidence_all_modes(self):
        x = np.array([0.3, -0.7])
        for mode in sim.GRAD_MODES:
            np.testing.assert_array_equal(one_row_grad(RBF1, x, x.copy(), mode), np.zeros(2))

    def test_rbf_closed_form(self):
        got = one_row_grad(RBF1, [1.0, 0.0], [0.0, 0.0], "analytic")
        np.testing.assert_allclose(got, [2 * np.exp(-1.0), 0.0], rtol=1e-15)

    def test_numeric_matches_analytic(self, rng):
        # independent finite-difference oracle over random configurations
        for _ in range(50):
            d = int(rng.integers(1, 5))
            x = rng.normal(0, 1, d)
            z = rng.normal(0, 1, d)
            gamma = float(rng.uniform(0.3, 2.0))
            spec = SimilaritySpec(kind="rbf", gamma=gamma)
            analytic = one_row_grad(spec, x, z, "analytic")
            numeric = one_row_grad(spec, x, z, "numeric")
            np.testing.assert_allclose(numeric, analytic, rtol=1e-6, atol=1e-9)

    def test_approximate_is_positive_multiple_of_analytic(self, rng):
        # the shift heuristic keeps the direction, only the scale differs
        for _ in range(20):
            x = rng.normal(0, 1, 3)
            z = rng.normal(0, 1, 3)
            spec = SimilaritySpec(kind="rbf", gamma=1.7)
            approx = one_row_grad(spec, x, z, "approximate")
            analytic = one_row_grad(spec, x, z, "analytic")
            np.testing.assert_allclose(approx, analytic / (2 * 1.7), rtol=1e-12)

    def test_analytic_unavailable_for_blackbox(self):
        spec = SimilaritySpec(kind="blackbox", blackbox_id="id", scorer=pairwise(lambda a, b: 1.0))
        with pytest.raises(UnsupportedGradModeError):
            one_row_grad(spec, [0.0], [1.0], "analytic")
        # the approximate mode works from evaluations alone
        np.testing.assert_allclose(one_row_grad(spec, [0.0], [1.0], "approximate"), [-1.0])

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            one_row_grad(RBF1, [0.0], [1.0], "exact")


class TestSimMatrix:
    def test_self_matrix_diagonal_and_symmetry(self, rng):
        X = rng.normal(0, 1, (6, 3))
        S = sim_matrix(RBF1, X, X).values
        np.testing.assert_array_equal(np.diag(S), np.ones(6))
        np.testing.assert_array_equal(S, S.T)

    def test_single_entry_equals_eval(self, rng):
        a = rng.normal(0, 1, 4)
        b = rng.normal(0, 1, 4)
        S = sim_matrix(RBF1, a[None, :], b[None, :]).values
        assert S.shape == (1, 1)
        assert S[0, 0] == pytest.approx(sim.eval(RBF1, a, b), rel=1e-15)

    def test_matches_double_loop_oracle(self, rng):
        rows = rng.normal(0, 1, (5, 3))
        protos = rng.normal(0, 1, (4, 3))
        for spec in (RBF1, LINEAR):
            S = sim_matrix(spec, rows, protos).values
            oracle = np.array([[sim.eval(spec, r, p) for p in protos] for r in rows])
            np.testing.assert_allclose(S, oracle, rtol=1e-14)

    @pytest.mark.parametrize("k, m, d", [(1, 1, 1), (1, 6, 2), (9, 1, 1), (7, 1, 50), (30, 12, 50)])
    def test_rbf_matches_eval_across_shapes(self, rng, k, m, d):
        rows = rng.normal(0, 1, (k, d))
        protos = rng.normal(0, 1, (m, d))
        spec = default_spec(d)
        S = sim_matrix(spec, rows, protos).values
        oracle = np.array([[sim.eval(spec, r, p) for p in protos] for r in rows])
        np.testing.assert_allclose(S, oracle, rtol=1e-14)

    @pytest.mark.parametrize("d", [1, 2])
    def test_rbf_bit_identical_to_einsum_oracle_in_low_dimension(self, rng, d):
        for k, m, gamma in [(1, 1, 1.0), (40, 9, 0.5), (3, 25, 7.0), (90, 10, 1.0 / d)]:
            rows = rng.normal(0, 2, (k, d))
            protos = rng.normal(0, 2, (m, d))
            spec = SimilaritySpec(kind="rbf", gamma=gamma)
            np.testing.assert_array_equal(
                sim_matrix(spec, rows, protos).values, einsum_rbf_matrix(spec, rows, protos)
            )

    def test_rbf_peak_memory_is_about_one_output(self, rng):
        k, m, d = 20000, 20, 50
        rows = rng.normal(0, 1, (k, d))
        protos = rng.normal(0, 1, (m, d))
        tracemalloc.start()
        try:
            S = sim_matrix(default_spec(d), rows, protos).values
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert S.nbytes == 8 * k * m
        assert peak <= 1.5 * S.nbytes

    def test_counter_increments_by_k_times_m(self, rng):
        rows = rng.normal(0, 1, (7, 2))
        protos = rng.normal(0, 1, (3, 2))
        before = EVAL_COUNTER.read()
        sim_matrix(RBF1, rows, protos)
        assert EVAL_COUNTER.read() - before == 21

    def test_error_carries_location(self):
        calls = []

        def flaky(a, b):
            calls.append(1)
            if len(calls) == 5:
                raise RuntimeError("matcher offline")
            return 1.0

        spec = SimilaritySpec(kind="blackbox", blackbox_id="flaky", scorer=pairwise(flaky))
        with pytest.raises(SimilarityEvalError, match=r"row 1, column 1"):
            sim_matrix(spec, np.zeros((2, 2)), np.zeros((3, 2)))

    def test_block_scorer_called_once_per_block(self, rng):
        calls = []

        def dot_block(rows, protos):
            calls.append((rows.shape, protos.shape))
            return rows @ protos.T

        spec = SimilaritySpec(kind="blackbox", blackbox_id="dot", scorer=dot_block)
        rows, protos = rng.normal(0, 1, (7, 2)), rng.normal(0, 1, (3, 2))
        before = EVAL_COUNTER.read()
        expected = sim_matrix(LINEAR, rows, protos).values
        np.testing.assert_array_equal(sim_matrix(spec, rows, protos).values, expected)
        assert sim.eval(spec, rows[0], protos[0]) == sim.eval(LINEAR, rows[0], protos[0])
        assert calls == [((7, 2), (3, 2)), ((1, 2), (1, 2))]
        assert EVAL_COUNTER.read() - before == 2 * (21 + 1)

    def test_wrong_block_shape_names_scorer_and_expected_shape(self):
        spec = SimilaritySpec(kind="blackbox", blackbox_id="flat", scorer=lambda rows, protos: np.ones(6))
        with pytest.raises(SimilarityEvalError, match=r"'flat' returned shape \(6,\), expected \(2, 3\)"):
            sim_matrix(spec, np.zeros((2, 1)), np.zeros((3, 1)))

    def test_nonfinite_block_value_located(self):
        def block(rows, protos):
            values = np.ones((len(rows), len(protos)))
            values[1, 2] = np.inf
            return values

        spec = SimilaritySpec(kind="blackbox", blackbox_id="inf", scorer=block)
        with pytest.raises(SimilarityEvalError, match=r"row 1, column 2"):
            sim_matrix(spec, np.zeros((2, 1)), np.zeros((3, 1)))

    def test_nonfinite_value_located(self):
        spec = SimilaritySpec(
            kind="blackbox", blackbox_id="nan", scorer=pairwise(lambda a, b: np.nan if a[0] > 1.5 else 1.0)
        )
        rows = np.array([[0.0], [2.0]])
        with pytest.raises(SimilarityEvalError, match=r"row 1"):
            sim_matrix(spec, rows, np.zeros((1, 1)))


@given(
    X=st.integers(1, 8).flatmap(
        lambda d: arrays(np.float64, st.tuples(st.integers(1, 12), st.just(d)), elements=st.floats(-2.0, 2.0))
    ),
    scale=st.floats(1e-3, 1.0),
)
def test_rbf_kernel_invariants(X, scale):
    """Unit diagonal, exact symmetry, values in (0, 1] and agreement with
    ``eval`` for any rows and any bandwidth up to 1/d."""
    spec = SimilaritySpec(kind="rbf", gamma=scale / X.shape[1])
    S = sim_matrix(spec, X, X).values
    np.testing.assert_array_equal(np.diag(S), np.ones(X.shape[0]))
    np.testing.assert_array_equal(S, S.T)
    assert np.all((S > 0.0) & (S <= 1.0))
    oracle = np.array([[sim.eval(spec, a, b) for b in X] for a in X])
    np.testing.assert_allclose(S, oracle, rtol=1e-14)


@given(
    data=st.integers(1, 5).flatmap(
        lambda d: st.tuples(
            arrays(np.float64, st.tuples(st.integers(1, 10), st.just(d)), elements=st.floats(-2.0, 2.0)),
            arrays(np.float64, st.just(d), elements=st.floats(-2.0, 2.0)),
        )
    ),
    gamma=st.floats(0.05, 5.0),
)
def test_grad_z_matrix_modes_and_costs(data, gamma):
    """Every gradient mode of ``grad_z_matrix`` against its closed form or
    finite-difference oracle, with its exact evaluation cost: n without a
    column, none with ``column=``, 2*d*n in numeric mode."""
    rows, z = data
    n, d = rows.shape
    spec = SimilaritySpec(kind="rbf", gamma=gamma)
    s = np.array([sim.eval(spec, x, z) for x in rows])

    def counted(*args, **kwargs):
        before = EVAL_COUNTER.read()
        out = sim.grad_z_matrix(*args, **kwargs)
        return out, EVAL_COUNTER.read() - before

    analytic, cost = counted(spec, rows, z, "analytic")
    assert cost == n
    # atol absorbs subnormal products (coordinates near 5e-324).
    np.testing.assert_allclose(analytic, 2.0 * gamma * s[:, None] * (rows - z), rtol=1e-13, atol=1e-300)
    cached, cost = counted(spec, rows, z, "analytic", column=s)
    assert cost == 0
    np.testing.assert_array_equal(cached, 2.0 * gamma * s[:, None] * (rows - z))
    linear, cost = counted(LINEAR, rows, z, "analytic")
    assert cost == 0
    np.testing.assert_array_equal(linear, rows)

    approx, cost = counted(spec, rows, z, "approximate")
    assert cost == n
    np.testing.assert_allclose(approx, analytic / (2.0 * gamma), rtol=1e-12, atol=1e-300)
    assert counted(spec, rows, z, "approximate", column=s)[1] == 0

    numeric, cost = counted(spec, rows, z, "numeric")
    assert cost == 2 * d * n
    np.testing.assert_allclose(numeric, analytic, rtol=1e-6, atol=1e-8)

    blackbox = SimilaritySpec(
        kind="blackbox", blackbox_id="py-rbf",
        scorer=pairwise(lambda a, b: float(np.exp(-gamma * np.dot(a - b, a - b)))),
    )
    scored, cost = counted(blackbox, rows, z, "numeric")
    assert cost == 2 * d * n
    np.testing.assert_allclose(scored, numeric, rtol=1e-7, atol=1e-9)
