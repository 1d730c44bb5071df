import warnings

import numpy as np
import pytest
from conftest import DOT, einsum_rbf_matrix, traced_peak
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

from sparsim import SparseModel, predict_batch
from sparsim import similarity as sim
from sparsim.errors import SimilarityEvalError, UnsupportedGradModeError
from sparsim.similarity import EVAL_COUNTER, SimilaritySpec, default_spec, grad_z_sum, pairwise, sim_matrix

RBF1 = SimilaritySpec(kind="rbf", gamma=1.0)


def one_row_grad(spec, x, z, mode):
    """Gradient of s(x, z) with respect to z: grad_z_sum over the single row x, weighted 1."""
    return grad_z_sum(spec, np.asarray(x, dtype=float)[None, :], z, np.ones(1), mode)


class TestSpec:
    def test_rbf_needs_positive_gamma(self):
        with pytest.raises(ValueError):
            SimilaritySpec(kind="rbf", gamma=0.0)
        with pytest.raises(ValueError):
            SimilaritySpec(kind="rbf")
        with pytest.raises(ValueError, match="gamma"):
            SimilaritySpec(kind="rbf", gamma=np.inf)

    def test_unknown_kind_rejected(self):
        # the dot product's kind is gone too: its m prototypes always collapse to one
        for kind in "cosine linear".split():
            with pytest.raises(ValueError, match=f"unknown similarity kind '{kind}'"):
                SimilaritySpec(kind=kind)

    def test_blackbox_needs_id(self):
        with pytest.raises(ValueError):
            SimilaritySpec(kind="blackbox")

    def test_default_spec_gamma(self):
        assert default_spec(4).gamma == 0.25

    def test_scorer_only_for_blackbox(self):
        with pytest.raises(ValueError, match="takes no scorer"):
            SimilaritySpec(kind="rbf", gamma=1.0, scorer=pairwise(lambda a, b: 1.0))

    def test_each_kind_takes_only_its_own_fields(self):
        # the saved form writes every field, so an extra one would reach model files and manifests
        with pytest.raises(ValueError, match="rbf similarity takes no scorer and no blackbox_id"):
            SimilaritySpec(kind="rbf", gamma=1.0, blackbox_id="x")
        with pytest.raises(ValueError, match="blackbox similarity takes no gamma"):
            SimilaritySpec(kind="blackbox", blackbox_id="x", gamma=0.5)

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

    def test_symmetry_is_exact(self, rng):
        for _ in range(50):
            a = rng.normal(0, 2, 5)
            b = rng.normal(0, 2, 5)
            for spec in (RBF1, DOT):
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
        with pytest.raises(ValueError, match="rows have 1 columns, prototypes 2"):
            sim_matrix(RBF1, np.ones((3, 1)), np.ones((2, 2)))

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

    def test_rbf_sum_builds_no_per_row_stack(self, rng):
        n, d = 20000, 20
        rows = rng.normal(0, 1, (n, d))
        z = rng.normal(0, 1, d)
        weights = rng.normal(0, 1, n)
        peak, grad = traced_peak(lambda: grad_z_sum(default_spec(d), rows, z, weights))
        assert grad.shape == (d,)
        # below one (n, d) float64 array: only n-vectors are allocated
        assert peak < rows.nbytes

    def test_analytic_unavailable_for_blackbox(self):
        spec = SimilaritySpec(kind="blackbox", blackbox_id="id", scorer=pairwise(lambda a, b: 1.0))
        with pytest.raises(UnsupportedGradModeError):
            one_row_grad(spec, [0.0], [1.0], "analytic")
        # the approximate mode works from evaluations alone
        np.testing.assert_allclose(one_row_grad(spec, [0.0], [1.0], "approximate"), [-1.0])

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            one_row_grad(RBF1, [0.0], [1.0], "exact")


PAIRWISE_RBF = SimilaritySpec(
    kind="blackbox", blackbox_id="pairwise-rbf", scorer=pairwise(lambda a, b: float(np.exp(-np.sum((a - b) ** 2))))
)


@pytest.mark.parametrize(
    "spec, mode",
    [(RBF1, mode) for mode in sim.GRAD_MODES]
    + [(PAIRWISE_RBF, "approximate"), (PAIRWISE_RBF, "numeric")],
    ids=lambda v: v if isinstance(v, str) else v.kind,
)
@pytest.mark.parametrize("k", [1, 2, 9])
def test_unit_weights_equal_explicit_ones_bit_for_bit(spec, mode, k):
    # the repulsion penalty weighs the other prototypes by 1 with weights=None;
    # that must be exactly the np.ones contraction, at the same evaluation cost
    rng = np.random.default_rng(k)
    rows, z = rng.normal(0, 1, (k, 3)), rng.normal(0, 1, 3)
    results = []
    for weights in (None, np.ones(k)):
        before = EVAL_COUNTER.read()
        grad = grad_z_sum(spec, rows, z, weights, mode)
        results.append((grad.tobytes(), EVAL_COUNTER.read() - before))
    assert results[0] == results[1]
    if mode == "approximate" or spec.kind == "rbf" and mode == "analytic":
        column = sim_matrix(spec, rows, z[None, :]).values[:, 0]
        kept = column.copy()
        unit = grad_z_sum(spec, rows, z, None, mode, column=column)
        assert unit.tobytes() == results[0][0]
        assert column.tobytes() == kept.tobytes()  # the caller's column is not scaled in place


class TestSimMatrix:
    @pytest.mark.parametrize("spec", [DOT, SimilaritySpec(kind="rbf", gamma=0.5)])
    def test_rejects_more_than_two_dimensions(self, spec):
        model = SparseModel(prototypes=np.eye(2), beta=np.ones(2), bias=0.0, similarity=spec)
        before = EVAL_COUNTER.read()
        with pytest.raises(ValueError, match=r"\(4, 2, 2\)"):
            sim_matrix(spec, np.ones((4, 2, 2)), np.eye(2))
        with pytest.raises(ValueError, match=r"\(4, 2, 2\)"):
            predict_batch(model, np.ones((4, 2, 2)))
        assert EVAL_COUNTER.read() == before

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
        assert S[0, 0] == sim.eval(RBF1, a, b)
        np.testing.assert_allclose(S, einsum_rbf_matrix(RBF1, a[None, :], b[None, :]), rtol=1e-14)

    def test_matches_double_loop_oracle(self, rng):
        rows = rng.normal(0, 1, (5, 3))
        protos = rng.normal(0, 1, (4, 3))
        oracles = {RBF1: einsum_rbf_matrix(RBF1, rows, protos),
                   DOT: np.array([[r @ p for p in protos] for r in rows])}
        for spec, oracle in oracles.items():
            np.testing.assert_allclose(sim_matrix(spec, rows, protos).values, oracle, rtol=1e-14)

    @pytest.mark.parametrize("k, m", [(1, 1), (5000, 1), (250, 3), (64, 1000)])
    def test_rbf_block_is_the_row_major_cdist_bit_for_bit(self, rng, k, m):
        # the block runs cdist prototype-major; its values are exp(-gamma * cdist(rows, protos))
        rows, protos = rng.normal(0, 1, (k, 5)), rng.normal(0, 1, (m, 5))
        spec = SimilaritySpec(kind="rbf", gamma=0.3)
        S = sim_matrix(spec, rows, protos).values
        assert S.shape == (k, m) and S.flags.f_contiguous
        assert np.ascontiguousarray(S).tobytes() == np.exp(-0.3 * cdist(rows, protos, "sqeuclidean")).tobytes()
        # so, by symmetry, the swapped block transposed is the row-major S with no copy (fit's S)
        swapped = sim_matrix(spec, protos, rows).values.T
        assert swapped.shape == (k, m) and swapped.flags.c_contiguous
        assert swapped.tobytes() == S.tobytes()

    @pytest.mark.parametrize("k, m, d", [(1, 1, 1), (1, 6, 2), (9, 1, 1), (7, 1, 50), (30, 12, 50)])
    def test_rbf_matches_eval_across_shapes(self, rng, k, m, d):
        rows = rng.normal(0, 1, (k, d))
        protos = rng.normal(0, 1, (m, d))
        spec = default_spec(d)
        S = sim_matrix(spec, rows, protos).values
        np.testing.assert_allclose(S, einsum_rbf_matrix(spec, rows, protos), rtol=1e-14)
        assert S[k - 1, m - 1] == sim.eval(spec, rows[-1], protos[-1])

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
        peak, S = traced_peak(lambda: sim_matrix(default_spec(d), rows, protos).values)
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
        np.testing.assert_array_equal(sim_matrix(spec, rows, protos).values, rows @ protos.T)
        assert sim.eval(spec, rows[0], protos[0]) == (rows[:1] @ protos[:1].T)[0, 0]
        assert calls == [((7, 2), (3, 2)), ((1, 2), (1, 2))]
        assert EVAL_COUNTER.read() - before == 21 + 1

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

    @pytest.mark.parametrize(
        "spec, rows, protos, where",
        [
            (RBF1, [[0.0, 0.0], [np.nan, 1.0], [1.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]], "row 1, column 0"),
            (RBF1, [[0.0, 0.0], [1.0, 1.0], [1.0, np.nan]], [[0.0, 1.0]], "row 2, column 0"),
            (DOT, [[1.0, 2.0], [3.0, 4.0]], [[1.0, 0.0], [0.0, 1.0], [np.nan, 0.0]], "row 0, column 2"),
        ],
    )
    def test_nonfinite_rbf_and_dot_product_entries_located(self, spec, rows, protos, where):
        # a black-box scorer's inf: test_nonfinite_block_value_located
        with pytest.raises(SimilarityEvalError, match=rf"non-finite similarity at {where}"):
            sim_matrix(spec, np.array(rows), np.array(protos))

    def test_finite_block_whose_sum_overflows_passes_without_warning(self):
        # the block's sum is its finiteness check; an overflowing sum of
        # finite dot products falls back to locating a bad entry, finds none
        # and passes, with no RuntimeWarning (an error under this suite)
        rows, protos = np.array([[1e308], [1.5e308], [-1e308]]), np.array([[1.0], [1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            S = sim_matrix(DOT, rows, protos).values
        np.testing.assert_array_equal(S, rows @ protos.T)

    @pytest.mark.parametrize("spec", [RBF1, DOT])
    @pytest.mark.parametrize("m", [1, 3])
    def test_empty_block_passes(self, spec, m):
        before = EVAL_COUNTER.read()
        assert sim_matrix(spec, np.zeros((0, 2)), np.ones((m, 2))).values.shape == (0, m)
        assert EVAL_COUNTER.read() == before

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
    the einsum oracle for any rows and any bandwidth up to 1/d."""
    spec = SimilaritySpec(kind="rbf", gamma=scale / X.shape[1])
    S = sim_matrix(spec, X, X).values
    np.testing.assert_array_equal(np.diag(S), np.ones(X.shape[0]))
    np.testing.assert_array_equal(S, S.T)
    assert np.all((S > 0.0) & (S <= 1.0))
    np.testing.assert_allclose(S, einsum_rbf_matrix(spec, X, X), rtol=1e-14)


@given(
    k=st.integers(1, 400),
    d=st.integers(1, 130),
    m=st.integers(2, 5),
    scale=st.floats(-6.0, 6.0).map(lambda e: 10.0**e),
    bandwidth=st.floats(-2.0, 2.0).map(lambda e: 10.0**e),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_prototype_block_is_a_column_of_the_full_block(k, d, m, scale, bandwidth, seed):
    """A one-prototype RBF block (a training column) equals that
    prototype's column of the full block (a prediction batch) bit for bit,
    and is a contiguous (k, 1) array, at any size and coordinate scale."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(0.0, scale, (k, d))
    protos = rng.normal(0.0, scale, (m, d))
    spec = SimilaritySpec(kind="rbf", gamma=bandwidth / (d * scale**2))
    full = sim_matrix(spec, rows, protos).values
    for j in range(m):
        column = sim_matrix(spec, rows, protos[j : j + 1]).values
        assert column.shape == (k, 1) and column.flags.c_contiguous
        np.testing.assert_array_equal(column[:, 0], full[:, j])


@given(
    data=st.tuples(st.integers(1, 10), st.integers(1, 5)).flatmap(
        lambda nd: st.tuples(
            arrays(np.float64, nd, elements=st.floats(-2.0, 2.0)),
            arrays(np.float64, nd[1], elements=st.floats(-2.0, 2.0)),
            arrays(np.float64, nd[0], elements=st.floats(-3.0, 3.0)),
        )
    ),
    gamma=st.floats(0.05, 5.0),
)
def test_grad_z_sum_modes_and_costs(data, gamma):
    """Every gradient mode of ``grad_z_sum`` against the stacked per-row
    closed form, or finite-difference oracle, contracted with random
    weights; with its exact evaluation cost: n without a column, none with
    ``column=``, 2*d*n in numeric mode."""
    rows, z, w = data
    n, d = rows.shape
    spec = SimilaritySpec(kind="rbf", gamma=gamma)
    s = sim_matrix(spec, rows, z[None, :]).values[:, 0]
    c = 2.0 * gamma * s
    stacked = c[:, None] * (rows - z)
    # X'c - z*sum(c) can cancel where the stacked sum does not; both
    # round within a few (n+2) eps of the magnitudes they add.  The
    # 1e-300 absorbs subnormal products (coordinates near 5e-324).
    scale = np.abs(w * c) @ (np.abs(rows).max(axis=1) + np.abs(z).max())
    tol = 4 * (n + 2) * np.finfo(float).eps * scale + 1e-300

    def counted(*args, **kwargs):
        before = EVAL_COUNTER.read()
        out = sim.grad_z_sum(*args, **kwargs)
        return out, EVAL_COUNTER.read() - before

    analytic, cost = counted(spec, rows, z, w, "analytic")
    assert cost == n
    np.testing.assert_allclose(analytic, w @ stacked, rtol=0, atol=tol)
    cached, cost = counted(spec, rows, z, w, "analytic", column=s)
    assert cost == 0
    np.testing.assert_array_equal(cached, analytic)

    approx, cost = counted(spec, rows, z, w, "approximate")
    assert cost == n
    np.testing.assert_allclose(approx, w @ (s[:, None] * (rows - z)), rtol=0, atol=tol / (2.0 * gamma))
    assert counted(spec, rows, z, w, "approximate", column=s)[1] == 0

    # finite differences are accurate per row, so their (per-coordinate)
    # tolerance scales with the summed row magnitudes, not the cancelling sum
    row_scale = np.abs(w) @ np.abs(stacked)
    numeric, cost = counted(spec, rows, z, w, "numeric")
    assert cost == 2 * d * n
    assert np.all(np.abs(numeric - analytic) <= 1e-6 * row_scale + 1e-8 * (1 + np.abs(w).sum()))

    blackbox = SimilaritySpec(
        kind="blackbox", blackbox_id="py-rbf",
        scorer=pairwise(lambda a, b: float(np.exp(-gamma * np.dot(a - b, a - b)))),
    )
    scored, cost = counted(blackbox, rows, z, w, "numeric")
    assert cost == 2 * d * n
    assert np.all(np.abs(scored - numeric) <= 1e-7 * row_scale + 1e-9 * (1 + np.abs(w).sum()))
