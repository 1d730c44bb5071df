import csv
import json
import os
import shlex
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import sparsim
from sparsim import EVAL_COUNTER, SimilaritySpec, baselines, cli, dataio, gen_synthetic, load_model, write_csv
from sparsim.cli import build_parser, main
from sparsim.datatypes import TrainConfig, predict_batch
from sparsim.metrics import error_rate, mae, mse
from sparsim.selection import GridConfig
from sparsim.similarity import default_spec
from test_dataio import RBF_SCORER


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


@pytest.fixture
def train_csv(tmp_path):
    path = tmp_path / "train.csv"
    write_csv(gen_synthetic("two_gaussians", seed=0), path)
    return path


def run(args):
    return main([str(a) for a in args])


class TestTrain:
    def test_writes_loadable_model_and_trace(self, tmp_path, train_csv):
        out = tmp_path / "model.json"
        code = run(["train", "--data", train_csv, "--target", "target", "--m", "2",
                    "--eta", "0.1", "--box", "--out", out])
        assert code == 0
        model = load_model(out)
        assert model.m == 2
        trace_rows = read_rows(tmp_path / "model.trace.csv")
        assert trace_rows[0] == ["t", "j", "omega_before", "omega_after", "step_norm"]
        assert len(trace_rows) > 1
        manifest = json.loads((tmp_path / "model.manifest.json").read_text())
        assert manifest["subcommand"] == "train"
        assert manifest["config"]["m"] == 2
        assert manifest["similarity_evaluations"] > 0

    def test_usage_error_on_zero_m(self, tmp_path, train_csv):
        with pytest.raises(SystemExit) as exc:
            run(["train", "--data", train_csv, "--target", "target", "--m", "0",
                 "--out", tmp_path / "m.json"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["train", "--m", "2", "--box", "1,2,3"],
        ["select-m", "--grid", "3,x"],
        ["select-m", "--grid", "3,5"],
        ["select-m", "--grid", "0"],
        ["select-m", "--folds", "1"],
        ["train", "--m", "2", "--box", "2,1"],
        ["train", "--m", "2", "--eta", "0"],
        ["train", "--m", "2", "--epsilon", "0"],
        ["train", "--m", "2", "--gamma", "0"],
        ["train", "--m", "2", "--seed", "-1"],
        ["train", "--m", "2", "--lambda", "inf"],
        ["train", "--m", "2", "--gamma", "inf"],
        ["train", "--m", "2", "--eta", "inf"],
        ["train", "--m", "2", "--epsilon", "inf"],
        ["train", "--m", "2", "--box", "inf,inf"],
        ["train", "--m", "2", "--lambda", "-1"],
        ["train", "--m", "2", "--max-sweeps", "0"],
        ["select-m", "--rho", "inf"],
        ["select-m", "--rho", "-1"],
        ["baseline", "--method", "lasso", "--lambda1", "-1"],
        ["baseline", "--method", "ps-r", "--m", "0"],
        ["train", "--m", "2.5"],
    ])
    def test_malformed_flag_value_is_usage_error(self, tmp_path, train_csv, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--data", train_csv, "--target", "target", "--out", tmp_path / "m.json"])
        assert exc.value.code == 2

    def test_usage_error_carries_owner_message(self, tmp_path, train_csv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["train", "--m", "2", "--eta", "0", "--data", train_csv, "--target", "target",
                 "--out", tmp_path / "m.json"])
        assert exc.value.code == 2
        with pytest.raises(ValueError) as owner:
            TrainConfig(eta=0.0)
        assert f"argument --eta: {owner.value}" in capsys.readouterr().err

    def test_m_usage_error_names_only_the_lower_bound(self, tmp_path, train_csv, capsys):
        # the data's row count is unknown while flags parse, so only m >= 1 is checked there
        with pytest.raises(SystemExit):
            run(["train", "--m", "0", "--data", train_csv, "--target", "target", "--out", tmp_path / "m.json"])
        assert "argument --m: m must be an integer >= 1, got 0\n" in capsys.readouterr().err

    def test_lambda1_usage_error_names_lam1(self, tmp_path, train_csv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["baseline", "--method", "lasso", "--lambda1", "-1", "--data", train_csv, "--target", "target",
                 "--out", tmp_path / "m.json"])
        assert exc.value.code == 2
        assert "argument --lambda1: lam1 must be finite and >= 0, got -1.0\n" in capsys.readouterr().err

    def test_gamma_sets_the_rbf_bandwidth(self, tmp_path, train_csv):
        out = tmp_path / "model.json"
        assert run(["train", "--data", train_csv, "--target", "target", "--m", "2",
                    "--max-sweeps", "2", "--gamma", "0.25", "--out", out]) == 0
        spec = load_model(out).similarity
        assert (spec.kind, spec.gamma) == ("rbf", 0.25)
        manifest = json.loads((tmp_path / "model.manifest.json").read_text())
        assert manifest["config"]["similarity"]["gamma"] == 0.25

    def test_explicit_box_tiles_to_every_dimension(self, tmp_path, train_csv):
        out = tmp_path / "model.json"
        assert run(["train", "--data", train_csv, "--target", "target", "--m", "2",
                    "--max-sweeps", "2", "--box=-0.5,0.5", "--out", out]) == 0
        manifest = json.loads((tmp_path / "model.manifest.json").read_text())
        assert manifest["config"]["box"] == [[-0.5, 0.5]] * load_model(out).dim
        assert np.all(np.abs(load_model(out).prototypes) <= 0.5)

    def test_identical_invocations_identical_files(self, tmp_path, train_csv):
        args = ["train", "--data", train_csv, "--target", "target", "--m", "2",
                "--eta", "0.1", "--seed", "7"]
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(args + ["--out", out_a]) == 0
        assert run(args + ["--out", out_b]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (tmp_path / "a.trace.csv").read_bytes() == (tmp_path / "b.trace.csv").read_bytes()

    def test_non_finite_cell_is_runtime_error_naming_its_location(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("f0,f1,target\n1.0,2.0,0.5\n1.0,nan,0.5\n")
        code = run(["train", "--data", path, "--target", "target", "--m", "1", "--out", tmp_path / "m.json"])
        assert code == 1
        assert "row 3, column 'f1': 'nan' is not finite" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_missing_data_file_is_runtime_error(self, tmp_path, capsys):
        code = run(["train", "--data", tmp_path / "nope.csv", "--target", "t", "--m", "1",
                    "--out", tmp_path / "m.json"])
        assert code == 1
        assert "error" in capsys.readouterr().err


TRAIN_CONFIG_KEYS = {"lam", "eta", "epsilon", "max_sweeps", "penalty_enabled",
                     "box", "seed", "grad_mode", "similarity"}
MANIFEST_CASES = {
    "train": (["--m", "2", "--max-sweeps", "3"], TRAIN_CONFIG_KEYS | {"m", "termination", "error"}),
    "select-m": (["--grid", "3,2", "--folds", "2", "--max-sweeps", "3"],
                 TRAIN_CONFIG_KEYS | {"grid", "rho", "loss", "folds", "chosen_m"}),
    # baseline records only the flags its method reads
    "baseline": (["--method", "ps-km", "--m", "3"], {"method", "m", "lam", "seed", "similarity"}),
    "baseline:ps-b": (["--method", "ps-b", "--m", "3"], {"method", "m", "lam", "similarity"}),
    "baseline:ridge": (["--method", "ridge"], {"method", "lam", "similarity"}),
    "baseline:lasso": (["--method", "lasso"], {"method", "lam1", "similarity"}),
    "bench": (["--m", "2", "--max-sweeps", "3", "--methods", "sparse,ps-r"],
              TRAIN_CONFIG_KEYS | {"m", "methods", "lam1"}),
    "predict": ([], {"model", "target"}),
}


@pytest.mark.parametrize("case", sorted(MANIFEST_CASES))
def test_manifest_contract(tmp_path, train_csv, case):
    extra, config_keys = MANIFEST_CASES[case]
    subcommand = case.split(":")[0]
    args = [subcommand, "--data", train_csv, "--target", "target", *extra]
    if subcommand == "predict":
        model = tmp_path / "model.json"
        assert run(["train", "--data", train_csv, "--target", "target", "--m", "2", "--out", model]) == 0
        args += ["--model", model]
    out = tmp_path / ("out.csv" if subcommand in ("bench", "predict") else "out.json")
    before = EVAL_COUNTER.read()
    assert run(args + ["--out", out]) == 0
    evals = EVAL_COUNTER.read() - before
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    assert set(manifest) == {"subcommand", "config", "seed", "inputs", "outputs",
                             "wall_clock_seconds", "similarity_evaluations", "blas"}
    assert set(manifest["blas"]) == {"name", "version", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "cpus"}
    assert manifest["subcommand"] == subcommand
    assert set(manifest["config"]) == config_keys
    if "similarity" in config_keys:
        assert set(manifest["config"]["similarity"]) == {"kind", "gamma", "blackbox_id"}
    assert evals > 0
    assert manifest["similarity_evaluations"] == evals
    assert manifest["outputs"][0] == str(out)
    assert all(Path(p).exists() for p in manifest["inputs"] + manifest["outputs"])


def test_flag_defaults_are_the_library_defaults(tmp_path):
    """With only the required flags, train and select-m run with TrainConfig's
    and GridConfig's own defaults, so a default has one home."""
    data_path = tmp_path / "three.csv"
    data = gen_synthetic("three_clusters", n=12, seed=0)
    write_csv(data, data_path)
    similarity = dataio.similarity_dict(default_spec(data.dim))
    required = ["--data", data_path, "--target", "target"]
    assert run(["train", *required, "--m", "2", "--out", tmp_path / "train.json"]) == 0
    config = json.loads((tmp_path / "train.manifest.json").read_text())["config"]
    assert config.pop("termination") in ("converged", "max_sweeps")
    assert config.pop("error") is None
    assert config == {**asdict(TrainConfig()), "similarity": similarity, "m": 2}
    assert run(["select-m", *required, "--out", tmp_path / "select.json"]) == 0
    config = json.loads((tmp_path / "select.manifest.json").read_text())["config"]
    assert {key: config[key] for key in ("loss", "folds", "rho")} == {
        "loss": GridConfig.loss_kind, "folds": GridConfig.folds, "rho": GridConfig(grid=(1,)).resolved_rho}
    assert {key: config[key] for key in asdict(TrainConfig())} == asdict(TrainConfig())


def test_cli_and_library_name_the_same_selectors():
    # a selector added to one table only would be unreachable or unnamed
    assert set(cli.SELECTIONS.values()) == set(baselines.SELECTORS)
    assert set(baselines.SEEDED_KINDS) <= set(baselines.SELECTORS)


GARBAGE_SCORER = """\
import sys
for line in sys.stdin:
    print("garbage")
    sys.stdout.flush()
"""

# the RBF scorer, exiting after its 400th answer
DYING_SCORER = "import itertools, sys\nsys.stdin = itertools.islice(sys.stdin, 400)\n" + RBF_SCORER


class TestBlackbox:
    @pytest.fixture
    def bridges(self, monkeypatch):
        """Every bridge the CLI opens, so the test can check that it was closed."""
        opened = []
        spawn = dataio.blackbox_bridge

        def record(command):
            opened.append(spawn(command))
            return opened[-1]

        monkeypatch.setattr(dataio, "blackbox_bridge", record)
        return opened

    def scorer(self, tmp_path, source):
        script = tmp_path / "scorer.py"
        script.write_text(source)
        return f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}"

    def assert_closed(self, bridges):
        assert bridges
        for bridge in bridges:
            assert bridge._proc.wait(timeout=5) is not None

    def test_train_then_predict_close_their_scorers(self, tmp_path, train_csv, bridges):
        command = self.scorer(tmp_path, RBF_SCORER)
        model_out = tmp_path / "model.json"
        assert run(["train", "--data", train_csv, "--target", "target", "--m", "2", "--eta", "0.1",
                    "--grad-mode", "approximate", "--max-sweeps", "2", "--blackbox", command,
                    "--out", model_out]) == 0
        pred_out = tmp_path / "pred.csv"
        assert run(["predict", "--model", model_out, "--data", train_csv, "--target", "target",
                    "--blackbox", command, "--out", pred_out]) == 0
        assert len(bridges) == 2
        self.assert_closed(bridges)
        got = np.array([float(r[0]) for r in read_rows(pred_out)[1:]])
        native = replace(load_model(model_out), similarity=SimilaritySpec(kind="rbf", gamma=1.0))
        expected = predict_batch(native, gen_synthetic("two_gaussians", seed=0).features)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_predict_refuses_to_rescore_a_native_model(self, tmp_path, train_csv, bridges, capsys):
        # the bridge's spec used to replace an RBF model's similarity, and a
        # constant scorer then gave every sample the same prediction
        model_out = tmp_path / "model.json"
        assert run(["train", "--data", train_csv, "--target", "target", "--m", "2", "--eta", "0.1",
                    "--max-sweeps", "2", "--out", model_out]) == 0
        constant = "import sys\nfor line in sys.stdin:\n    print(0.5, flush=True)\n"
        pred_out = tmp_path / "pred.csv"
        assert run(["predict", "--model", model_out, "--data", train_csv, "--target", "target",
                    "--blackbox", self.scorer(tmp_path, constant), "--out", pred_out]) == 1
        assert "rbf similarity" in capsys.readouterr().err
        assert bridges == []
        assert not pred_out.exists()

    def test_identical_invocations_identical_model_files(self, tmp_path, train_csv):
        # Separate processes, as two shell invocations would be.
        env = {**os.environ, "PYTHONPATH": str(Path(sparsim.__file__).resolve().parents[1])}
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            subprocess.run(
                [sys.executable, "-m", "sparsim.cli", "train", "--data", str(train_csv), "--target", "target",
                 "--m", "2", "--eta", "0.1", "--grad-mode", "approximate", "--max-sweeps", "1",
                 "--blackbox", self.scorer(tmp_path, RBF_SCORER), "--out", str(out)],
                env=env, check=True, timeout=120,
            )
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert (tmp_path / "a.trace.csv").read_bytes() == (tmp_path / "b.trace.csv").read_bytes()

    def test_identical_runs_in_one_process_identical_files(self, tmp_path, train_csv):
        # the id was counted per process, so the second model named another bridge
        command = self.scorer(tmp_path, RBF_SCORER)
        for name in ("a", "b"):
            assert run(["train", "--data", train_csv, "--target", "target", "--m", "2", "--eta", "0.1",
                        "--grad-mode", "approximate", "--max-sweeps", "1", "--blackbox", command,
                        "--out", tmp_path / f"{name}.json"]) == 0
        for suffix in (".json", ".trace.csv"):
            assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()
        assert load_model(tmp_path / "a.json").similarity.blackbox_id == command
        manifest = json.loads((tmp_path / "a.manifest.json").read_text())
        assert manifest["config"]["similarity"]["blackbox_id"] == command

    def test_failing_scorer_is_runtime_error_and_closed(self, tmp_path, train_csv, bridges, capsys):
        code = run(["train", "--data", train_csv, "--target", "target", "--m", "2",
                    "--grad-mode", "approximate", "--blackbox", self.scorer(tmp_path, GARBAGE_SCORER),
                    "--out", tmp_path / "model.json"])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        self.assert_closed(bridges)
        assert not (tmp_path / "model.manifest.json").exists()

    def test_scorer_dying_mid_training_is_reported(self, tmp_path, bridges, capsys):
        # training keeps the last solved model and exits 0, so only the output says why it stopped
        data_path = tmp_path / "three.csv"
        write_csv(gen_synthetic("three_clusters", n=90, seed=0), data_path)
        out = tmp_path / "model.json"
        assert run(["train", "--data", data_path, "--target", "target", "--m", "3", "--grad-mode", "approximate",
                    "--blackbox", self.scorer(tmp_path, DYING_SCORER), "--out", out]) == 0
        message = "scorer closed its output before response line 401"
        assert f"(error: {message})" in capsys.readouterr().out
        config = json.loads((tmp_path / "model.manifest.json").read_text())["config"]
        assert (config["termination"], config["error"]) == ("error", message)
        assert load_model(out).m == 3 and (tmp_path / "model.trace.csv").exists()
        self.assert_closed(bridges)

    def test_analytic_gradient_fails_before_training(self, tmp_path, train_csv, bridges, capsys):
        # black-box scorers have no analytic gradient; the default --grad-mode must not
        # leave an untrained model behind
        out = tmp_path / "model.json"
        code = run(["train", "--data", train_csv, "--target", "target", "--m", "2",
                    "--blackbox", self.scorer(tmp_path, RBF_SCORER), "--out", out])
        assert code == 1
        assert "analytic gradient unavailable" in capsys.readouterr().err
        self.assert_closed(bridges)
        assert not out.exists()
        assert not (tmp_path / "model.manifest.json").exists()

    @pytest.mark.parametrize("subcommand", ["train", "select-m", "baseline", "bench", "predict"])
    def test_empty_command_is_runtime_error(self, tmp_path, train_csv, bridges, capsys, subcommand):
        # an empty --blackbox names a scorer that cannot start; it is not an absent flag
        model = tmp_path / "blackbox.json"
        sparsim.save_model(sparsim.SparseModel(prototypes=[[0.0, 0.0]], beta=[1.0], bias=0.0,
                                               similarity=SimilaritySpec(kind="blackbox", blackbox_id="m")), model)
        out = tmp_path / "out.json"
        extra = {"train": ["--m", "2"], "select-m": ["--grid", "3,2"], "baseline": ["--method", "ridge"],
                 "bench": ["--methods", "sparse"], "predict": ["--model", model]}[subcommand]
        code = run([subcommand, "--data", train_csv, "--target", "target", "--blackbox", "", "--out", out, *extra])
        assert code == 1
        assert "error: empty scorer command ''" in capsys.readouterr().err
        assert bridges == []
        assert not out.exists()

    def test_baseline_in_a_scorer_space_matches_its_bench_row(self, tmp_path, train_csv, bridges):
        # the black-box twin of TestBench::test_single_method_matches_baseline_metrics
        command = self.scorer(tmp_path, RBF_SCORER)
        common = ["--data", train_csv, "--target", "target", "--m", "4", "--seed", "3", "--blackbox", command]
        assert run(["bench", *common, "--methods", "ps-km", "--out", tmp_path / "bench.csv"]) == 0
        assert run(["baseline", *common, "--method", "ps-km", "--out", tmp_path / "base.json"]) == 0
        self.assert_closed(bridges)
        header, row = read_rows(tmp_path / "bench.csv")
        metrics_rows = read_rows(tmp_path / "base.metrics.csv")[1:]
        assert {name: row[header.index(name)] for name, _ in metrics_rows} == dict(metrics_rows)
        assert load_model(tmp_path / "base.json").similarity.blackbox_id == command
        manifest = json.loads((tmp_path / "base.manifest.json").read_text())
        assert manifest["config"]["similarity"]["blackbox_id"] == command

    @pytest.mark.parametrize("subcommand, extra", [
        ("train", ["--m", "2"]), ("select-m", ["--grid", "3,2"]), ("baseline", ["--method", "ps-km"]),
        ("bench", ["--methods", "ps-km"]),
    ])
    def test_gamma_with_blackbox_is_usage_error(self, tmp_path, train_csv, bridges, capsys, subcommand, extra):
        # the pair used to give a black-box run whose manifest read "gamma": null
        command = self.scorer(tmp_path, RBF_SCORER)
        with pytest.raises(SystemExit) as exc:
            run([subcommand, "--data", train_csv, "--target", "target", "--gamma", "0.5", "--blackbox", command,
                 "--out", tmp_path / "out.json", *extra])
        assert exc.value.code == 2
        assert "argument --blackbox: not allowed with argument --gamma" in capsys.readouterr().err
        assert bridges == []
        assert sorted(path.name for path in tmp_path.iterdir()) == ["scorer.py", "train.csv"]


class TestSelectM:
    def test_trace_arithmetic_and_manifest(self, tmp_path):
        data_path = tmp_path / "three.csv"
        write_csv(gen_synthetic("three_clusters", n=45, seed=0), data_path)
        out = tmp_path / "model.json"
        code = run(["select-m", "--data", data_path, "--target", "target", "--grid", "4,3,2",
                    "--rho", "1e-3", "--loss", "mse", "--folds", "3", "--eta", "0.15",
                    "--box", "--max-sweeps", "10", "--out", out])
        assert code == 0
        rows = read_rows(tmp_path / "model.selection.csv")
        assert rows[0] == ["m", "loss", "L", "chosen"]
        for r in rows[1:]:
            assert float(r[2]) == pytest.approx(float(r[1]) + 1e-3 * int(r[0]), abs=0)
        manifest = json.loads((tmp_path / "model.manifest.json").read_text())
        chosen = manifest["config"]["chosen_m"]
        model = load_model(out)
        assert model.m == chosen

    def test_huge_rho_selects_smallest(self, tmp_path):
        data_path = tmp_path / "three.csv"
        write_csv(gen_synthetic("three_clusters", n=45, seed=1), data_path)
        out = tmp_path / "model.json"
        code = run(["select-m", "--data", data_path, "--target", "target", "--grid", "4,3,2",
                    "--rho", "1e9", "--folds", "3", "--max-sweeps", "5", "--out", out])
        assert code == 0
        assert load_model(out).m == 2

    def test_group_column_that_is_the_target_is_runtime_error(self, tmp_path, train_csv, capsys):
        out = tmp_path / "model.json"
        code = run(["select-m", "--data", train_csv, "--target", "target", "--group-column", "target",
                    "--out", out])
        assert code == 1
        assert "error: group column 'target' is the target column" in capsys.readouterr().err
        assert not out.exists()


class TestBaseline:
    @pytest.mark.parametrize("method", ["ps-r", "ps-b", "ps-s", "ps-km"])
    def test_each_method_writes_m_prototypes(self, tmp_path, train_csv, method):
        out = tmp_path / f"{method}.json"
        code = run(["baseline", "--data", train_csv, "--target", "target",
                    "--method", method, "--m", "3", "--out", out])
        assert code == 0
        assert load_model(out).m == 3
        metrics_rows = dict(
            (r[0], r[1]) for r in read_rows(tmp_path / f"{method}.metrics.csv")[1:]
        )
        assert metrics_rows["m"] == "3"
        assert metrics_rows["evals_per_prediction"] == "3"

    def test_random_full_equals_ridge(self, tmp_path, train_csv):
        out_r = tmp_path / "random.json"
        out_k = tmp_path / "ridge.json"
        run(["baseline", "--data", train_csv, "--target", "target", "--method", "ps-r",
             "--m", "25", "--out", out_r])
        run(["baseline", "--data", train_csv, "--target", "target", "--method", "ridge",
             "--out", out_k])
        data = gen_synthetic("two_gaussians", seed=0)
        pa = predict_batch(load_model(out_r), data.features)
        pb = predict_batch(load_model(out_k), data.features)
        np.testing.assert_allclose(pa, pb, rtol=1e-8, atol=1e-10)

    def test_identical_invocations_at_one_blas_thread_identical_files(self, tmp_path):
        # Separate processes, as two shell invocations would be; the full
        # ridge's sums round by the BLAS thread count, so it is pinned
        data_path = tmp_path / "sine.csv"
        write_csv(gen_synthetic("sine_regression", n=300, seed=0), data_path)
        env = {**os.environ, "PYTHONPATH": str(Path(sparsim.__file__).resolve().parents[1]),
               "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        for name in ("a", "b"):
            subprocess.run(
                [sys.executable, "-m", "sparsim.cli", "baseline", "--data", str(data_path), "--target", "target",
                 "--method", "ridge", "--gamma", "1", "--out", str(tmp_path / f"{name}.json")],
                env=env, check=True, timeout=120,
            )
        for suffix in (".json", ".metrics.csv"):
            assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()
        blas = json.loads((tmp_path / "a.manifest.json").read_text())["blas"]
        assert blas["OPENBLAS_NUM_THREADS"] == blas["OMP_NUM_THREADS"] == "1"
        assert isinstance(blas["name"], str) and isinstance(blas["version"], str)
        assert isinstance(blas["cpus"], int) and blas["cpus"] >= 1

    def test_lasso_method(self, tmp_path, train_csv):
        out = tmp_path / "lasso.json"
        code = run(["baseline", "--data", train_csv, "--target", "target", "--method", "lasso",
                    "--lambda1", "0.5", "--out", out])
        assert code == 0
        assert load_model(out).m >= 1


class TestBench:
    def test_table_structure_and_cost_column(self, tmp_path, train_csv):
        out = tmp_path / "bench.csv"
        code = run(["bench", "--data", train_csv, "--target", "target", "--m", "3",
                    "--eta", "0.1", "--box", "--max-sweeps", "10",
                    "--methods", "sparse,ps-r,ridge", "--out", out])
        assert code == 0
        rows = read_rows(out)
        assert rows[0] == ["method", "mae", "mse", "error_rate", "m", "evals_per_prediction", "train_seconds",
                           "train_evaluations"]
        table = {r[0]: r for r in rows[1:]}
        assert set(table) == {"sparse", "ps-r", "ridge"}
        for name, row in table.items():
            assert row[4] == row[5]  # cost per prediction equals m
        assert table["sparse"][4] == "3"
        assert table["ridge"][4] == "25"

    def test_training_evaluations_of_the_full_baselines_are_the_gram_count(self, tmp_path):
        # 100 rows: two 64-row upper-triangle blocks, 64 * 100 + 36 * 36 evaluations, not 100^2
        data_path, out = tmp_path / "train.csv", tmp_path / "bench.csv"
        write_csv(gen_synthetic("two_gaussians", n=100, seed=0), data_path)
        assert run(["bench", "--data", data_path, "--target", "target", "--m", "3", "--max-sweeps", "2",
                    "--methods", "sparse,ridge,lasso", "--out", out]) == 0
        rows = read_rows(out)
        evaluations = {row[0]: int(row[rows[0].index("train_evaluations")]) for row in rows[1:]}
        assert evaluations["ridge"] == evaluations["lasso"] == 7_696
        assert evaluations["sparse"] > 0

    def test_single_method_matches_baseline_metrics(self, tmp_path, train_csv):
        bench_out = tmp_path / "bench.csv"
        run(["bench", "--data", train_csv, "--target", "target", "--m", "4", "--seed", "3",
             "--methods", "ps-km", "--out", bench_out])
        base_out = tmp_path / "base.json"
        run(["baseline", "--data", train_csv, "--target", "target", "--method", "ps-km",
             "--m", "4", "--seed", "3", "--out", base_out])
        bench_mae = float(read_rows(bench_out)[1][1])
        base_rows = dict((r[0], r[1]) for r in read_rows(tmp_path / "base.metrics.csv")[1:])
        assert bench_mae == float(base_rows["mae"])

    def test_error_metric_scores_sign_errors(self, tmp_path, train_csv):
        bench_out = tmp_path / "bench.csv"
        assert run(["bench", "--data", train_csv, "--target", "target", "--m", "4", "--seed", "3",
                    "--methods", "ps-km", "--out", bench_out]) == 0
        base_out = tmp_path / "base.json"
        assert run(["baseline", "--data", train_csv, "--target", "target", "--method", "ps-km",
                    "--m", "4", "--seed", "3", "--out", base_out]) == 0
        data = gen_synthetic("two_gaussians", seed=0)
        pred = predict_batch(load_model(base_out), data.features)
        rows = read_rows(bench_out)
        assert rows[0][3] == "error_rate"
        assert float(rows[1][3]) == error_rate(pred, data.targets)
        assert error_rate(pred, data.targets) not in (mae(pred, data.targets), mse(pred, data.targets))

    def test_default_methods_are_all_seven(self, tmp_path, train_csv):
        out = tmp_path / "bench.csv"
        assert run(["bench", "--data", train_csv, "--target", "target", "--m", "2",
                    "--max-sweeps", "2", "--out", out]) == 0
        methods = ["sparse", "ps-r", "ps-b", "ps-s", "ps-km", "ridge", "lasso"]
        assert [row[0] for row in read_rows(out)[1:]] == methods
        assert json.loads((tmp_path / "bench.manifest.json").read_text())["config"]["methods"] == methods

    def test_unknown_method_is_usage_error_before_any_work(self, tmp_path, train_csv, capsys):
        before = EVAL_COUNTER.read()
        with pytest.raises(SystemExit) as exc:
            run(["bench", "--data", train_csv, "--target", "target", "--methods", "sparse,foo",
                 "--out", tmp_path / "bench.csv"])
        assert exc.value.code == 2
        assert "argument --methods: unknown method 'foo'" in capsys.readouterr().err
        assert EVAL_COUNTER.read() == before
        assert sorted(tmp_path.iterdir()) == [train_csv]

    @pytest.mark.parametrize("flags", [["--metric", "error"], ["--penalty"]])
    def test_removed_flags_are_usage_errors(self, tmp_path, train_csv, flags):
        with pytest.raises(SystemExit) as exc:
            run(["bench", "--data", train_csv, "--target", "target", *flags, "--out", tmp_path / "b.csv"])
        assert exc.value.code == 2

    def test_missing_test_file_reports_error(self, tmp_path, train_csv, capsys):
        code = run(["bench", "--data", train_csv, "--target", "target",
                    "--test", tmp_path / "absent.csv", "--out", tmp_path / "bench.csv"])
        assert code == 1
        assert "absent.csv" in capsys.readouterr().err


class TestPredict:
    def test_reproduces_model_predictions_and_final_objective(self, tmp_path, train_csv):
        model_out = tmp_path / "model.json"
        run(["train", "--data", train_csv, "--target", "target", "--m", "2", "--eta", "0.1",
             "--lambda", "1e-6", "--out", model_out])
        pred_out = tmp_path / "pred.csv"
        code = run(["predict", "--model", model_out, "--data", train_csv, "--target", "target",
                    "--out", pred_out])
        assert code == 0
        rows = read_rows(pred_out)
        assert rows[0] == ["prediction"]
        got = np.array([float(r[0]) for r in rows[1:]])
        model = load_model(model_out)
        data = gen_synthetic("two_gaussians", seed=0)
        expected = predict_batch(model, data.features)
        np.testing.assert_array_equal(got, expected)
        # the residuals of these predictions reproduce the trace-final objective
        trace_rows = read_rows(tmp_path / "model.trace.csv")
        final_omega = float(trace_rows[-1][3])
        resid = got - data.targets
        omega = float(resid @ resid + 1e-6 * model.beta @ model.beta)
        assert omega == pytest.approx(final_omega, rel=1e-12)

    def test_empty_input_gives_header_only(self, tmp_path, train_csv):
        model_out = tmp_path / "model.json"
        run(["train", "--data", train_csv, "--target", "target", "--m", "1", "--out", model_out])
        empty = tmp_path / "empty.csv"
        empty.write_text("f0,f1,target\n")
        pred_out = tmp_path / "pred.csv"
        assert run(["predict", "--model", model_out, "--data", empty, "--target", "target",
                    "--out", pred_out]) == 0
        rows = read_rows(pred_out)
        assert rows == [["prediction"]]
        manifest = json.loads((tmp_path / "pred.manifest.json").read_text())
        assert manifest["subcommand"] == "predict"
        assert manifest["similarity_evaluations"] == 0

    def test_empty_input_of_the_wrong_width_is_runtime_error(self, tmp_path, train_csv, capsys):
        model_out = tmp_path / "model.json"
        run(["train", "--data", train_csv, "--target", "target", "--m", "1", "--out", model_out])
        empty = tmp_path / "empty.csv"
        empty.write_text("f0,f1,f2,target\n")
        pred_out = tmp_path / "pred.csv"
        assert run(["predict", "--model", model_out, "--data", empty, "--target", "target",
                    "--out", pred_out]) == 1
        assert "expected rows of dimension 2" in capsys.readouterr().err
        assert not pred_out.exists()

    @pytest.mark.parametrize("rows, where", [
        ("1.0,2.0,0.5\n1.0,2.0,3.0,4.0\n", "row 3"),
        ("1.0,2.0,0.5\n1.0,x,0.5\n", "row 3, column 'f1'"),
        ("1.0,2.0,0.5\n1.0,inf,0.5\n", "row 3, column 'f1': 'inf' is not finite"),
    ])
    def test_input_error_names_its_location(self, tmp_path, train_csv, capsys, rows, where):
        model_out = tmp_path / "model.json"
        run(["train", "--data", train_csv, "--target", "target", "--m", "1", "--out", model_out])
        bad = tmp_path / "bad.csv"
        bad.write_text("f0,f1,target\n" + rows)
        code = run(["predict", "--model", model_out, "--data", bad, "--target", "target",
                    "--out", tmp_path / "p.csv"])
        assert code == 1
        assert where in capsys.readouterr().err

    def test_dimension_mismatch_is_runtime_error(self, tmp_path, train_csv, capsys):
        model_out = tmp_path / "model.json"
        run(["train", "--data", train_csv, "--target", "target", "--m", "1", "--out", model_out])
        bad = tmp_path / "bad.csv"
        bad.write_text("f0,f1,f2\n1.0,2.0,3.0\n")
        code = run(["predict", "--model", model_out, "--data", bad, "--out", tmp_path / "p.csv"])
        assert code == 1
        assert "error" in capsys.readouterr().err


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("sparsim ")]
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])
    assert {argv[1] for argv in commands} == {"train", "select-m", "baseline", "bench", "predict"}
