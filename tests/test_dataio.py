import json
import os
import re
import shlex
import signal
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sparsim
from sparsim import Dataset, SparseModel, gen_synthetic, load_csv, load_model, save_model, write_csv
from sparsim import TrainConfig, fit
from sparsim.dataio import (
    RING_RADIUS,
    SINE_FREQ,
    SINE_NOISE_STD,
    THREE_CLUSTERS_CENTERS,
    TWO_GAUSSIANS_CENTERS,
    TWO_GAUSSIANS_STD,
    blackbox_bridge,
    load_features,
    write_json,
)
from sparsim.errors import BlackboxError, DataFormatError, SimilarityEvalError
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
        # a repeated target or group name would leave one copy among the features
        path.write_text("x,y,y,g,g\n1,2,2,a,a\n")
        for read in (lambda: load_csv(path, "y"), lambda: load_features(path, "y"), lambda: load_csv(path, "x", "g")):
            with pytest.raises(DataFormatError, match="column '[yg]' appears more than once"):
                read()

    def test_parse_error_names_row_and_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,target\n1.0,2.0\noops,3.0\n")
        with pytest.raises(DataFormatError, match=r"row 3.*'a'"):
            load_csv(path, "target")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        # float() parses these, so the reader checks finiteness where it knows the location
        path = tmp_path / "data.csv"
        path.write_text(f"a,target,b\n1.0,0.5,2.0\n1.0,0.5,{cell}\n")
        message = f"row 3, column 'b': '{cell}' is not finite"
        with pytest.raises(DataFormatError, match=re.escape(message)):
            load_csv(path, "target")
        with pytest.raises(DataFormatError, match=re.escape(message)):
            load_features(path, "target")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes("target,f0\n0.5,1.0\n".encode("utf-8-sig"))
        data = load_csv(path, "target")
        np.testing.assert_array_equal(data.features, [[1.0]])
        np.testing.assert_array_equal(data.targets, [0.5])

    def test_files_are_utf8_whatever_the_locale(self, tmp_path):
        # under the C locale with UTF-8 mode off, open() defaults to ASCII
        script = (
            "import sys; import numpy as np; from sparsim import Dataset, load_csv, write_csv\n"
            "data = Dataset(features=[[0.0], [1.0]], targets=[1.0, 2.0], groups=np.array(['caf\\u00e9', 'b']))\n"
            "write_csv(data, sys.argv[1])\n"
            "assert load_csv(sys.argv[1], 'target', 'group').groups.tolist() == ['caf\\u00e9', 'b']\n"
        )
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
               "PYTHONPATH": str(Path(sparsim.__file__).resolve().parents[1])}
        path = tmp_path / "groups.csv"
        subprocess.run([sys.executable, "-c", script, str(path)], env=env, check=True, timeout=60)
        assert path.read_bytes().decode("utf-8").splitlines()[1] == "0.0,1.0,caf\u00e9"

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
        path.write_text("a,target\n")
        with pytest.raises(DataFormatError, match="no data rows"):
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

    def test_group_column_that_is_the_target_fails_before_reading(self, tmp_path):
        # the target values were read as subject ids; the file is not opened
        with pytest.raises(ValueError, match="group column 'y' is the target column"):
            load_csv(tmp_path / "absent.csv", "y", group_column="y")

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

    def test_three_dimensional_prototypes_rejected(self, tmp_path, rng):
        model = SparseModel(
            prototypes=rng.normal(0, 1, (2, 3)), beta=[1.0, 2.0], bias=0.0, similarity=RBF1
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["prototypes"] = [[[x] for x in row] for row in doc["prototypes"]]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match=r"\(2, 3, 1\)"):
            load_model(path)

    def test_model_of_the_removed_dot_product_kind_fails_by_name(self, tmp_path):
        # the dot product's kind was removed: its m prototypes always collapse to one
        path = tmp_path / "model.json"
        similarity = {"kind": 'linear', "gamma": None, "blackbox_id": None}
        path.write_text(json.dumps({"format_version": 1, "similarity": similarity, "prototypes": [[1.0, 2.0]],
                                    "beta": [0.5], "bias": 0.0, "metadata": {}}))
        with pytest.raises(DataFormatError, match="unknown similarity kind 'linear'"):
            load_model(path)

    def test_numpy_scalar_metadata_round_trips(self, tmp_path, rng):
        # the seed of a fitted model lands in its metadata as a numpy integer
        data = Dataset(features=rng.normal(0, 1, (8, 2)), targets=rng.normal(0, 1, 8))
        model, _ = fit(data, 2, config=TrainConfig(seed=np.int64(3), max_sweeps=1), similarity=RBF1)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.metadata["seed"] == 3
        np.testing.assert_array_equal(predict_batch(loaded, data.features), predict_batch(model, data.features))

    def test_unserializable_value_is_a_type_error(self, tmp_path):
        with pytest.raises(TypeError, match="cannot serialize object"):
            write_json({"x": object()}, tmp_path / "doc.json")

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
        with pytest.raises(ValueError, match="need n >= 2, got 1"):
            gen_synthetic("ring", n=1)

    @pytest.mark.parametrize("n", [2.9, 7.0, "7", True])
    def test_n_that_is_not_an_integer(self, n):
        # int(n) gave 2 rows for 2.9 and 7 for "7", and read True as n = 1
        with pytest.raises(ValueError, match=f"n must be an integer, got {n!r}"):
            gen_synthetic("ring", n=n)

    def test_numpy_integer_n(self):
        assert gen_synthetic("ring", n=np.int64(7)).n == 7


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

# the RBF scorer, answering each request in two flushes split mid-line; the
# second answer waits between its halves, so the bridge reads the first alone
SPLIT_SCORER = """\
import sys, math, time
for count, line in enumerate(sys.stdin, start=1):
    parts = line.split()
    d = int(parts[0])
    a = [float(v) for v in parts[1:1+d]]
    b = [float(v) for v in parts[1+d:1+2*d]]
    text = repr(math.exp(-sum((x - y) ** 2 for x, y in zip(a, b)))) + "\\n"
    sys.stdout.write(text[:3])
    sys.stdout.flush()
    if count == 2:
        time.sleep(0.05)
    sys.stdout.write(text[3:])
    sys.stdout.flush()
"""

# the RBF scorer, reading a whole 20-request block before it answers all of
# it in one write
BURST_SCORER = """\
import sys, math
while True:
    lines = [sys.stdin.readline() for _ in range(20)]
    if not lines[-1]:
        break
    out = []
    for line in lines:
        parts = line.split()
        d = int(parts[0])
        a = [float(v) for v in parts[1:1+d]]
        b = [float(v) for v in parts[1+d:1+2*d]]
        out.append(repr(math.exp(-sum((x - y) ** 2 for x, y in zip(a, b)))) + "\\n")
    sys.stdout.write("".join(out))
    sys.stdout.flush()
"""

# answers every request twice, in one flush
TWO_ANSWERS = """\
import sys
for line in sys.stdin:
    print("0.5\\n0.5", flush=True)
"""

# the same two answers in one write, the surplus one without its newline
TWO_ANSWERS_UNTERMINATED = """\
import sys
for line in sys.stdin:
    print("0.5\\n0.5", end="", flush=True)
"""

# closes its input unread, so the next write breaks the pipe, and exits a moment later
CLOSE_INPUT_AND_EXIT = """\
import os, time
os.close(0)
time.sleep(0.2)
"""

# reads one buffered chunk of requests, answers one and exits
ANSWER_ONE_AND_EXIT = """\
import sys
sys.stdin.readline()
print("0.5", flush=True)
"""

MALFORMED_SCORER = """\
import sys
count = 0
for line in sys.stdin:
    count += 1
    print("0.5" if count < 3 else "not-a-number")
    sys.stdout.flush()
"""

# answers the first three requests, then exits with the rest unanswered
EXIT_AFTER_THREE = """\
import sys
for count, line in enumerate(sys.stdin, start=1):
    print("0.5", flush=True)
    if count == 3:
        sys.exit(0)
"""

MALFORMED_FOURTH = """\
import sys
for count, line in enumerate(sys.stdin, start=1):
    print("0.5" if count != 4 else "not-a-number", flush=True)
"""

# ignores SIGTERM, answers one request and sleeps once its input ends
IGNORE_SIGTERM = """\
import signal, sys, time
signal.signal(signal.SIGTERM, signal.SIG_IGN)
sys.stdin.readline()
print("0.5", flush=True)
sys.stdin.read()
time.sleep(60)
"""

# reads one request and then neither reads nor answers
READ_ONE_AND_SLEEP = """\
import sys, time
sys.stdin.readline()
time.sleep(60)
"""


class TestBlackboxBridge:
    @pytest.mark.parametrize("source", [RBF_SCORER, SPLIT_SCORER, BURST_SCORER], ids=["lines", "split", "burst"])
    def test_agrees_with_native_rbf(self, tmp_path, rng, source):
        script = tmp_path / "scorer.py"
        script.write_text(source)
        with blackbox_bridge([sys.executable, str(script)]) as bridge:
            rows = rng.normal(0, 1, (5, 3))
            protos = rng.normal(0, 1, (4, 3))
            native = sim_matrix(RBF1, rows, protos).values
            for _ in range(2):  # a second block after the first
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

    def test_block_beyond_pipe_buffer_does_not_deadlock(self, tmp_path, rng, monkeypatch):
        # 12,000 requests of 33 numbers, several MB: far more than a pipe
        # holds, so requests and answers must flow at the same time
        script = tmp_path / "scorer.py"
        script.write_text(RBF_SCORER)
        rows = rng.normal(0, 0.15, (3000, 16))
        protos = rng.normal(0, 0.15, (4, 16))
        result = []

        def no_thread(*args, **kwargs):
            raise AssertionError("the bridge started a thread")

        with blackbox_bridge([sys.executable, str(script)]) as bridge:
            worker = threading.Thread(
                target=lambda: result.append(sim_matrix(bridge.spec, rows, protos).values), daemon=True
            )
            # the block itself runs in the caller's thread and starts none
            monkeypatch.setattr(threading, "Thread", no_thread)
            tracemalloc.start()
            try:
                worker.start()
                worker.join(timeout=120)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            if worker.is_alive():
                bridge._proc.kill()  # unblocks both pipes, so the test fails instead of hanging
                worker.join()
                pytest.fail("a block larger than the pipe buffer deadlocked the bridge")
        np.testing.assert_allclose(result[0], sim_matrix(RBF1, rows, protos).values, atol=1e-12)
        # the request text (several MB) is encoded a few rows at a time, not
        # held whole: the block peaks at a few output-sized arrays
        assert peak <= 4 * result[0].nbytes

    def test_surplus_answer_poisons_the_bridge(self, tmp_path):
        for source in (TWO_ANSWERS, TWO_ANSWERS_UNTERMINATED):
            script = tmp_path / "scorer.py"
            script.write_text(source)
            bridge = blackbox_bridge([sys.executable, str(script)])
            with pytest.raises(BlackboxError, match="surplus scorer response at line 2"):
                sim_matrix(bridge.spec, np.zeros((1, 1)), np.ones((1, 1)))
            assert bridge._proc.returncode is not None
            # the surplus line is not read as the next block's first answer
            with pytest.raises(BlackboxError, match="earlier failure: surplus .* line 2"):
                sim_matrix(bridge.spec, np.zeros((1, 1)), np.ones((1, 1)))
            bridge.close()

    def test_missing_command_is_a_blackbox_error(self, tmp_path):
        with pytest.raises(BlackboxError, match="could not start scorer"):
            blackbox_bridge([str(tmp_path / "no-such-scorer")])

    def test_id_is_the_command_line(self, tmp_path):
        # the id names the scorer, not the order in which bridges were opened
        script = tmp_path / "my scorer.py"
        script.write_text(RBF_SCORER)
        argv = [sys.executable, script, "0.5"]
        command = shlex.join(map(str, argv))
        for given in (command, argv):
            with blackbox_bridge(given) as bridge:
                assert bridge.spec.blackbox_id == command

    @pytest.mark.parametrize("command", ["", " ", []], ids=["empty", "blank", "no-argv"])
    def test_empty_command_is_a_blackbox_error(self, command):
        with pytest.raises(BlackboxError, match=re.escape(f"empty scorer command {command!r}")):
            blackbox_bridge(command)

    def test_blocks_and_close_leave_no_descriptor_open(self, tmp_path, rng):
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("needs /proc/self/fd")
        script = tmp_path / "scorer.py"
        script.write_text(RBF_SCORER)
        before = len(os.listdir("/proc/self/fd"))
        bridge = blackbox_bridge([sys.executable, str(script)])
        rows, protos = rng.normal(0, 1, (2, 3)), rng.normal(0, 1, (1, 3))
        for _ in range(200):
            sim_matrix(bridge.spec, rows, protos)
        bridge.close()
        assert len(os.listdir("/proc/self/fd")) == before

    @pytest.mark.parametrize("source, failure", [(EXIT_AFTER_THREE, "closed its output"),
                                                 (MALFORMED_FOURTH, "malformed")], ids=["exits", "malformed"])
    def test_failed_block_poisons_the_bridge(self, tmp_path, source, failure):
        script = tmp_path / "scorer.py"
        script.write_text(source)
        bridge = blackbox_bridge([sys.executable, str(script)])
        with pytest.raises(BlackboxError, match=f"{failure}.* line 4"):
            sim_matrix(bridge.spec, np.zeros((2, 1)), np.ones((3, 1)))
        assert bridge._proc.returncode is not None  # killed and reaped at once
        # answers still in flight must not be read as the next block's
        with pytest.raises(BlackboxError, match=f"earlier failure: .*{failure}.* line 4"):
            sim_matrix(bridge.spec, np.zeros((1, 1)), np.ones((1, 1)))
        bridge.close()
        bridge.close()
        assert bridge._proc.stdin.closed and bridge._proc.stdout.closed

    @pytest.mark.parametrize("exited", [False, True], ids=["live", "exited"])
    def test_close_releases_both_pipes(self, tmp_path, exited):
        script = tmp_path / "scorer.py"
        script.write_text("import sys; sys.exit(3)\n" if exited else RBF_SCORER)
        bridge = blackbox_bridge([sys.executable, str(script)])
        if exited:
            bridge._proc.wait(timeout=30)
        bridge.close()
        assert bridge._proc.stdin.closed
        assert bridge._proc.stdout.closed
        assert bridge._proc.returncode is not None

    def test_close_kills_a_scorer_that_ignores_sigterm(self, tmp_path, monkeypatch):
        monkeypatch.setattr(blackbox_bridge, "_TERMINATE_TIMEOUT", 0.2)
        script = tmp_path / "scorer.py"
        script.write_text(IGNORE_SIGTERM)
        bridge = blackbox_bridge([sys.executable, str(script)])
        # the answer shows that the handler is in place before close() signals
        assert sim_matrix(bridge.spec, np.zeros((1, 1)), np.ones((1, 1))).values[0, 0] == 0.5
        bridge.close()
        assert bridge._proc.returncode == -signal.SIGKILL
        assert bridge._proc.stdin.closed and bridge._proc.stdout.closed

    def test_silent_scorer_fails_at_the_deadline_and_is_killed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(blackbox_bridge, "_RESPONSE_TIMEOUT", 0.2)
        script = tmp_path / "scorer.py"
        script.write_text(READ_ONE_AND_SLEEP)
        bridge = blackbox_bridge([sys.executable, str(script)])
        with pytest.raises(BlackboxError, match=r"^scorer sent no response line 1 within 0.2 s$"):
            sim_matrix(bridge.spec, np.zeros((2, 1)), np.ones((1, 1)))
        assert bridge._proc.returncode == -signal.SIGKILL
        with pytest.raises(BlackboxError, match="earlier failure: scorer sent no response line 1"):
            sim_matrix(bridge.spec, np.zeros((1, 1)), np.ones((1, 1)))
        bridge.close()
        assert bridge._proc.stdin.closed and bridge._proc.stdout.closed

    @pytest.mark.parametrize("source, k, line", [("import sys; sys.exit(3)\n", 1, 1), (ANSWER_ONE_AND_EXIT, 3000, 2),
                                                 (CLOSE_INPUT_AND_EXIT, 3000, 1)],
                             ids=["at-start", "mid-block", "input-closed"])
    def test_dead_process_reported(self, tmp_path, source, k, line):
        # mid-block, the scorer exits with most of the block (several MB)
        # unread, so writing it breaks the pipe; the answers still decide
        script = tmp_path / "quit.py"
        script.write_text(source)
        with blackbox_bridge([sys.executable, str(script)]) as bridge:
            with pytest.raises(BlackboxError, match=f"closed its output before response line {line}$"):
                sim_matrix(bridge.spec, np.zeros((k, 16)), np.ones((4, 16)))

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

    def test_loaded_model_does_not_reach_a_live_bridge(self, tmp_path, rng):
        # the saved id names the bridge, but only the spec carries its scorer
        script = tmp_path / "scorer.py"
        script.write_text(RBF_SCORER)
        with blackbox_bridge([sys.executable, str(script)]) as bridge:
            model = SparseModel(prototypes=rng.normal(0, 1, (2, 2)), beta=[1.0, -1.0], bias=0.0,
                                similarity=bridge.spec)
            save_model(model, tmp_path / "model.json")
            loaded = load_model(tmp_path / "model.json")
            assert loaded.similarity == bridge.spec and loaded.similarity.scorer is None
            with pytest.raises(SimilarityEvalError, match=re.escape(bridge.spec.blackbox_id)):
                predict(loaded, np.zeros(2))

    def test_threads_share_one_bridge(self, tmp_path, rng):
        script = tmp_path / "scorer.py"
        script.write_text(RBF_SCORER)
        blocks = [(rng.normal(0, 1, (6, 3)), rng.normal(0, 1, (4, 3))) for _ in range(4)]
        results = [None] * len(blocks)

        def work(t, spec):
            results[t] = sim_matrix(spec, *blocks[t]).values

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with blackbox_bridge([sys.executable, str(script)]) as bridge:
                threads = [
                    threading.Thread(target=work, args=(t, bridge.spec), daemon=True) for t in range(len(blocks))
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads), "a thread hung on the shared bridge"
        finally:
            sys.setswitchinterval(switch_interval)
        assert all(got is not None for got in results), "a thread failed on the shared bridge"
        # interleaved blocks would hand one thread another's answers
        for got, block in zip(results, blocks):
            np.testing.assert_allclose(got, sim_matrix(RBF1, *block).values, atol=1e-12)
        for (rows, protos), got in zip(blocks, results):
            np.testing.assert_allclose(got, sim_matrix(RBF1, rows, protos).values, atol=1e-12)
