import sys

import numpy as np
import pytest

from sparsim import Dataset, SparseModel, gen_synthetic, load_csv, load_model, save_model, write_csv
from sparsim.dataio import (
    RING_RADIUS,
    SINE_FREQ,
    SINE_NOISE_STD,
    THREE_CLUSTERS_CENTERS,
    TWO_GAUSSIANS_CENTERS,
    TWO_GAUSSIANS_STD,
    blackbox_bridge,
    load_features,
)
from sparsim.errors import BlackboxError, DataFormatError
from sparsim.similarity import SimilaritySpec, sim_matrix
from sparsim.datatypes import predict, predict_batch

RBF1 = SimilaritySpec(kind="rbf", gamma=1.0)


class TestCsv:
    def test_small_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,target\n1.0,2.0,0.5\n3.0,4.0,-0.5\n")
        data = load_csv(path, "target")
        np.testing.assert_array_equal(data.features, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(data.targets, [0.5, -0.5])

    def test_missing_target_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataFormatError, match="label"):
            load_csv(path, "label")

    def test_parse_error_names_row_and_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,target\n1.0,2.0\noops,3.0\n")
        with pytest.raises(DataFormatError, match=r"row 3.*'a'"):
            load_csv(path, "target")

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,target\n1.0,2.0,9.0\n")
        with pytest.raises(DataFormatError, match="row 2"):
            load_csv(path, "target")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("")
        with pytest.raises(DataFormatError):
            load_csv(path, "target")

    def test_features_exclude_target_and_allow_no_rows(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,target,b\n1.0,0.5,2.0\n")
        np.testing.assert_array_equal(load_features(path, "target"), [[1.0, 2.0]])
        np.testing.assert_array_equal(load_features(path), [[1.0, 0.5, 2.0]])
        path.write_text("a,target,b\n")
        assert load_features(path, "target").shape == (0, 2)

    def test_round_trip_identity(self, tmp_path, rng):
        data = Dataset(
            features=rng.normal(0, 1, (7, 3)),
            targets=rng.normal(0, 1, 7),
            groups=np.array(["s1", "s1", "s2", "s2", "s3", "s3", "s3"]),
        )
        path = tmp_path / "round.csv"
        write_csv(data, path)
        back = load_csv(path, "target", group_column="group")
        np.testing.assert_array_equal(back.features, data.features)
        np.testing.assert_array_equal(back.targets, data.targets)
        assert back.groups.tolist() == data.groups.tolist()

    def test_write_is_byte_deterministic(self, tmp_path, rng):
        data = Dataset(features=rng.normal(0, 1, (5, 2)), targets=rng.normal(0, 1, 5))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(data, a)
        write_csv(data, b)
        assert a.read_bytes() == b.read_bytes()


class TestModelFile:
    def test_round_trip_predictions_bitwise(self, tmp_path, rng):
        model = SparseModel(
            prototypes=rng.normal(0, 1, (4, 3)),
            beta=rng.normal(0, 1, 4),
            bias=float(rng.normal()),
            similarity=SimilaritySpec(kind="rbf", gamma=1 / 3),
            metadata={"lam": 1e-6, "seed": 0},
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        probes = rng.normal(0, 1, (100, 3))
        for x in probes:
            assert predict(loaded, x) == predict(model, x)
        assert loaded.metadata["lam"] == 1e-6

    def test_truncated_file(self, tmp_path, rng):
        model = SparseModel(
            prototypes=rng.normal(0, 1, (2, 2)), beta=[1.0, 2.0], bias=0.0, similarity=RBF1
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        path.write_text(path.read_text()[: -40])
        with pytest.raises(DataFormatError):
            load_model(path)

    def test_version_bump_rejected(self, tmp_path, rng):
        model = SparseModel(
            prototypes=rng.normal(0, 1, (2, 2)), beta=[1.0, 2.0], bias=0.0, similarity=RBF1
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        path.write_text(path.read_text().replace('"format_version": 1', '"format_version": 2'))
        with pytest.raises(DataFormatError, match="format_version"):
            load_model(path)

    def test_byte_determinism(self, tmp_path, rng):
        model = SparseModel(
            prototypes=rng.normal(0, 1, (3, 2)), beta=rng.normal(0, 1, 3), bias=0.1, similarity=RBF1
        )
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, a)
        save_model(model, b)
        assert a.read_bytes() == b.read_bytes()


class TestGenerators:
    def test_seed_reproducibility(self):
        for kind in ("two_gaussians", "three_clusters", "ring", "sine_regression"):
            a = gen_synthetic(kind, seed=5)
            b = gen_synthetic(kind, seed=5)
            np.testing.assert_array_equal(a.features, b.features)
            np.testing.assert_array_equal(a.targets, b.targets)

    def test_two_gaussians_class_counts(self):
        for seed in range(10):
            data = gen_synthetic("two_gaussians", seed=seed)
            assert data.n == 25
            pos = int(np.sum(data.targets > 0))
            assert abs(pos - (data.n - pos)) <= 1

    def test_two_gaussians_means_within_three_sigma(self):
        # aggregate over 50 seeds; the class-mean standard error is
        # std / sqrt(total per class)
        pos, neg = [], []
        for seed in range(50):
            data = gen_synthetic("two_gaussians", seed=seed)
            pos.append(data.features[data.targets > 0])
            neg.append(data.features[data.targets < 0])
        pos, neg = np.vstack(pos), np.vstack(neg)
        for block, center in ((pos, TWO_GAUSSIANS_CENTERS[0]), (neg, TWO_GAUSSIANS_CENTERS[1])):
            se = TWO_GAUSSIANS_STD / np.sqrt(block.shape[0])
            assert np.all(np.abs(block.mean(axis=0) - center) <= 3 * se)

    def test_three_clusters_recoverable_by_kmeans(self):
        # independent Lloyd oracle started at the planted centers
        data = gen_synthetic("three_clusters", seed=2)
        centers = THREE_CLUSTERS_CENTERS.copy()
        for _ in range(20):
            d2 = ((data.features[:, None, :] - centers[None]) ** 2).sum(axis=2)
            assign = d2.argmin(axis=1)
            centers = np.stack([data.features[assign == c].mean(axis=0) for c in range(3)])
        assert np.max(np.abs(centers - THREE_CLUSTERS_CENTERS)) < 0.15
        counts = np.bincount(assign, minlength=3)
        assert counts.min() >= data.n // 3 - 2

    def test_ring_structure(self):
        data = gen_synthetic("ring", n=50, seed=1)
        radii = np.linalg.norm(data.features, axis=1)
        ring = radii[data.targets > 0]
        blob = radii[data.targets < 0]
        assert np.all(ring > 1.0)
        assert np.abs(ring.mean() - RING_RADIUS) < 0.1
        assert np.all(blob < 1.0)

    def test_sine_regression_noise_level(self):
        resid = []
        for seed in range(50):
            data = gen_synthetic("sine_regression", seed=seed)
            resid.append(data.targets - np.sin(SINE_FREQ * data.features[:, 0]))
        resid = np.concatenate(resid)
        assert abs(resid.mean()) < 3 * SINE_NOISE_STD / np.sqrt(resid.size)
        assert abs(resid.std() - SINE_NOISE_STD) < 0.01

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            gen_synthetic("spiral")


RBF_SCORER = """\
import sys, math
for line in sys.stdin:
    parts = line.split()
    d = int(parts[0])
    a = [float(v) for v in parts[1:1+d]]
    b = [float(v) for v in parts[1+d:1+2*d]]
    sq = sum((x - y) ** 2 for x, y in zip(a, b))
    print(repr(math.exp(-sq)))
    sys.stdout.flush()
"""

MALFORMED_SCORER = """\
import sys
count = 0
for line in sys.stdin:
    count += 1
    print("0.5" if count < 3 else "not-a-number")
    sys.stdout.flush()
"""


class TestBlackboxBridge:
    def test_agrees_with_native_rbf(self, tmp_path, rng):
        script = tmp_path / "scorer.py"
        script.write_text(RBF_SCORER)
        with blackbox_bridge([sys.executable, str(script)]) as bridge:
            rows = rng.normal(0, 1, (5, 3))
            protos = rng.normal(0, 1, (4, 3))
            native = sim_matrix(RBF1, rows, protos).values
            bridged = sim_matrix(bridge.spec, rows, protos).values
            np.testing.assert_allclose(bridged, native, atol=1e-12)

    def test_symmetric_queries_match(self, tmp_path, rng):
        script = tmp_path / "scorer.py"
        script.write_text(RBF_SCORER)
        with blackbox_bridge([sys.executable, str(script)]) as bridge:
            from sparsim import similarity as sim

            a = rng.normal(0, 1, 4)
            b = rng.normal(0, 1, 4)
            assert sim.eval(bridge.spec, a, b) == sim.eval(bridge.spec, b, a)

    def test_malformed_response_names_line(self, tmp_path):
        script = tmp_path / "bad.py"
        script.write_text(MALFORMED_SCORER)
        with blackbox_bridge([sys.executable, str(script)]) as bridge:
            from sparsim import similarity as sim

            sim.eval(bridge.spec, [0.0], [1.0])
            sim.eval(bridge.spec, [0.0], [2.0])
            with pytest.raises(BlackboxError, match="line 3"):
                sim.eval(bridge.spec, [0.0], [3.0])

    def test_dead_process_reported(self, tmp_path):
        script = tmp_path / "quit.py"
        script.write_text("import sys; sys.exit(3)\n")
        with blackbox_bridge([sys.executable, str(script)]) as bridge:
            from sparsim import similarity as sim

            with pytest.raises(BlackboxError):
                sim.eval(bridge.spec, [0.0], [1.0])

    def test_model_predicts_through_bridge(self, tmp_path, rng):
        script = tmp_path / "scorer.py"
        script.write_text(RBF_SCORER)
        with blackbox_bridge([sys.executable, str(script)]) as bridge:
            protos = rng.normal(0, 1, (3, 2))
            beta = rng.normal(0, 1, 3)
            via_bridge = SparseModel(prototypes=protos, beta=beta, bias=0.5, similarity=bridge.spec)
            native = SparseModel(prototypes=protos, beta=beta, bias=0.5, similarity=RBF1)
            X = rng.normal(0, 1, (6, 2))
            np.testing.assert_allclose(
                predict_batch(via_bridge, X), predict_batch(native, X), atol=1e-12
            )
