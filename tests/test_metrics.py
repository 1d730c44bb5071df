from dataclasses import replace

import numpy as np
import pytest
from conftest import DOT
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sparsim import SparseModel, load_model, save_model
from sparsim.metrics import error_rate, eval_cost, mae, mse
from sparsim.similarity import EVAL_COUNTER, SimilaritySpec
from sparsim.datatypes import predict_batch

RBF1 = SimilaritySpec(kind="rbf", gamma=1.0)


class TestPointwise:
    def test_mae_zero_on_equal(self, rng):
        x = rng.normal(0, 1, 20)
        assert mae(x, x) == 0.0

    def test_mae_constant_shift(self, rng):
        x = rng.normal(0, 1, 20)
        assert mae(x + 1.5, x) == pytest.approx(1.5, rel=1e-14)

    def test_against_loop_oracles(self, rng):
        pred = rng.normal(0, 1, 31)
        truth = rng.normal(0, 1, 31)
        mae_oracle = sum(abs(p - t) for p, t in zip(pred, truth)) / 31
        mse_oracle = sum((p - t) ** 2 for p, t in zip(pred, truth)) / 31
        assert mae(pred, truth) == pytest.approx(mae_oracle, rel=1e-12)
        assert mse(pred, truth) == pytest.approx(mse_oracle, rel=1e-12)

    def test_error_rate_ties_accept(self):
        assert error_rate([0.0, -0.1, 0.2], [1.0, -1.0, -1.0]) == pytest.approx(1 / 3)

    @pytest.mark.parametrize("labels, where", [([1.0, 0.5, -1.0], "0.5 at row 1"), ([2.0, 1.0, 0.0], "2 at row 0")])
    def test_error_rate_names_a_label_that_is_not_plus_or_minus_one(self, labels, where):
        # counted as a disagreement, a regression target would be wrong whatever the score
        with pytest.raises(ValueError, match=f"error_rate needs \\+-1 labels, got {where}"):
            error_rate([1.0, -1.0, 1.0], labels)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mae([1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="at least one sample"):
            mae([], [])


class TestEvalCost:
    def test_cost_equals_prototype_count(self, rng):
        for m in (1, 2, 5, 10):
            model = SparseModel(
                prototypes=rng.normal(0, 1, (m, 3)),
                beta=rng.normal(0, 1, m),
                bias=0.0,
                similarity=RBF1,
            )
            assert eval_cost(model) == m

    def test_batch_additivity(self, rng):
        model = SparseModel(
            prototypes=rng.normal(0, 1, (4, 2)), beta=np.ones(4), bias=0.0, similarity=RBF1
        )
        before = EVAL_COUNTER.read()
        predict_batch(model, rng.normal(0, 1, (9, 2)))
        assert EVAL_COUNTER.read() - before == 36


FINITE = st.floats(-10.0, 10.0, allow_nan=False)


@given(
    kind=st.sampled_from(["rbf", "dot"]),
    gamma=st.floats(0.01, 10.0),
    m=st.integers(1, 8),
    d=st.integers(1, 4),
    k=st.integers(1, 30),
    draw=st.data(),
)
def test_cost_and_round_trip_on_generated_models(tmp_path_factory, kind, gamma, m, d, k, draw):
    """For generated rbf and dot-product (black-box) models: one
    prediction costs m evaluations, k rows cost k*m, and a saved-and-loaded
    model predicts bit-identically."""
    spec = SimilaritySpec(kind="rbf", gamma=gamma) if kind == "rbf" else DOT
    model = SparseModel(
        prototypes=draw.draw(arrays(float, (m, d), elements=FINITE)),
        beta=draw.draw(arrays(float, m, elements=FINITE)),
        bias=draw.draw(FINITE),
        similarity=spec,
    )
    rows = draw.draw(arrays(float, (k, d), elements=FINITE))
    assert eval_cost(model) == m
    before = EVAL_COUNTER.read()
    predicted = predict_batch(model, rows)
    assert EVAL_COUNTER.read() - before == k * m
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    if kind == "dot":  # a black-box spec is saved without its scorer
        loaded = replace(loaded, similarity=replace(loaded.similarity, scorer=DOT.scorer))
    assert predict_batch(loaded, rows).tobytes() == predicted.tobytes()
