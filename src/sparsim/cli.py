"""Command-line entry point for reproducible experiments.

Subcommands: train, select-m, baseline, bench, predict.  Each ``cmd_*``
does its own work and returns the manifest's config, seed, inputs and
outputs; :func:`main`, the only run path, times the run, counts its
similarity evaluations, closes every black-box bridge and writes the JSON
manifest ``<out stem>.manifest.json``.  Exit codes: 0 on success, 2 on
usage errors (malformed flag values included), 1 on runtime errors.
"""

import argparse
import contextlib
import os
import sys
import time
from dataclasses import asdict, replace

import numpy as np

from . import baselines, dataio, metrics, selection, similarity, training
from .datatypes import TrainConfig, predict_batch
from .errors import SparsimError


def _bounded(convert, positive):
    """argparse type: a value of type ``convert`` that is > 0 (``positive``)
    or >= 0, so an out-of-range flag value is a usage error."""
    noun = "integer" if convert is int else "number"

    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not {'an' if convert is int else 'a'} {noun}")
        if not (value > 0 if positive else value >= 0):
            raise argparse.ArgumentTypeError(
                f"expected a {'positive' if positive else 'non-negative'} {noun}, got {value}"
            )
        return value

    return parse


_positive_int = _bounded(int, positive=True)
_nonneg_int = _bounded(int, positive=False)
_positive_float = _bounded(float, positive=True)
_nonneg_float = _bounded(float, positive=False)


def _box(text):
    """'data', or a (lo, hi) pair that :func:`_train_config` tiles to every dimension."""
    if text == "data":
        return "data"
    try:
        lo, hi = (float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"box must be 'data' or 'lo,hi', got {text!r}")
    if not lo <= hi:
        raise argparse.ArgumentTypeError(f"box lower bound {lo} exceeds upper bound {hi}")
    return lo, hi


def _grid(text):
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must be comma-separated integers, got {text!r}")


def _stem(path):
    return os.path.splitext(path)[0]


def _similarity_spec(args, dim, bridges):
    if getattr(args, "blackbox", None):
        return bridges.enter_context(dataio.blackbox_bridge(args.blackbox)).spec
    gamma = args.gamma if args.gamma is not None else 1.0 / dim
    return similarity.SimilaritySpec(kind="rbf", gamma=gamma)


def _train_config(args, dim):
    return TrainConfig(
        lam=args.lam,
        eta=args.eta,
        epsilon=args.epsilon,
        max_sweeps=args.max_sweeps,
        penalty_enabled=args.penalty,
        box=np.tile(args.box, (dim, 1)) if isinstance(args.box, tuple) else args.box,
        seed=args.seed,
        grad_mode=args.grad_mode,
    )


def _config_dict(config: TrainConfig, spec, **extra):
    return {**asdict(config), "similarity": dataio.similarity_dict(spec), **extra}


def cmd_train(args, bridges):
    data = dataio.load_csv(args.data, args.target)
    spec = _similarity_spec(args, data.dim, bridges)
    config = _train_config(args, data.dim)
    model, trace = training.fit(data, args.m, config=config, similarity=spec)
    dataio.save_model(model, args.out)
    trace_path = _stem(args.out) + ".trace.csv"
    trace.write_csv(trace_path)
    print(f"trained m={model.m} model, final objective {trace.final_objective:.6g} ({trace.termination})")
    return _config_dict(config, spec, m=args.m), args.seed, [args.data], [args.out, trace_path]


def cmd_select_m(args, bridges):
    data = dataio.load_csv(args.data, args.target, args.group_column)
    spec = _similarity_spec(args, data.dim, bridges)
    config = _train_config(args, data.dim)
    grid = args.grid or selection.default_grid(data.n)
    grid_config = selection.GridConfig(grid=grid, rho=args.rho, loss_kind=args.loss, folds=args.folds)
    model, trace = selection.select_model_size(data, grid_config, config, spec)
    dataio.save_model(model, args.out)
    trace_path = _stem(args.out) + ".selection.csv"
    trace.write_csv(trace_path)
    print(f"chose m={trace.chosen_m} over grid {grid}")
    config_doc = _config_dict(config, spec, grid=list(grid), rho=grid_config.resolved_rho,
                              loss=args.loss, folds=args.folds, chosen_m=trace.chosen_m)
    return config_doc, args.seed, [args.data], [args.out, trace_path]


def _fit_baseline(data, method, args, spec):
    if method == "ridge":
        return baselines.kernel_ridge_full(data, args.lam, spec)
    if method == "lasso":
        return baselines.lasso_similarity(data, args.lam1, spec)
    kind = {"ps-r": "random", "ps-b": "border", "ps-s": "spanning", "ps-km": "kmedians"}[method]
    return baselines.baseline_pipeline(
        data, baselines.SelectionMethod(kind=kind, m=args.m, seed=args.seed), args.lam, spec
    )


def _metric_rows(model, data):
    pred = predict_batch(model, data.features)
    rows = [("mae", metrics.mae(pred, data.targets)), ("mse", metrics.mse(pred, data.targets))]
    if set(np.unique(data.targets)) <= {-1.0, 1.0}:
        rows.append(("error_rate", metrics.error_rate(pred, data.targets)))
    rows.append(("m", model.m))
    rows.append(("evals_per_prediction", metrics.eval_cost(model)))
    return rows


def cmd_baseline(args, bridges):
    data = dataio.load_csv(args.data, args.target)
    spec = _similarity_spec(args, data.dim, bridges)
    model = _fit_baseline(data, args.method, args, spec)
    dataio.save_model(model, args.out)
    eval_data = dataio.load_csv(args.test, args.target) if args.test else data
    metrics_path = _stem(args.out) + ".metrics.csv"
    dataio.write_table(metrics_path, ["metric", "value"], _metric_rows(model, eval_data))
    print(f"{args.method}: m={model.m}")
    config_doc = {"method": args.method, "m": args.m, "lam": args.lam, "lam1": args.lam1,
                  "seed": args.seed, "similarity": dataio.similarity_dict(spec)}
    return config_doc, args.seed, [p for p in [args.data, args.test] if p], [args.out, metrics_path]


BENCH_METHODS = ("sparse", "ps-r", "ps-b", "ps-s", "ps-km", "ridge", "lasso")


def cmd_bench(args, bridges):
    data = dataio.load_csv(args.data, args.target)
    test = dataio.load_csv(args.test, args.target) if args.test else data
    spec = _similarity_spec(args, data.dim, bridges)
    config = _train_config(args, data.dim)
    methods = args.methods.split(",") if args.methods else list(BENCH_METHODS)
    classification = set(np.unique(test.targets)) <= {-1.0, 1.0}
    rows = []
    for method in methods:
        t0 = time.perf_counter()
        if method == "sparse":
            model, _ = training.fit(data, args.m, config=config, similarity=spec)
        else:
            model = _fit_baseline(data, method, args, spec)
        train_seconds = time.perf_counter() - t0
        pred = predict_batch(model, test.features)
        if classification and args.metric == "error":
            value = metrics.error_rate(pred, test.targets)
        else:
            value = metrics.mae(pred, test.targets)
        rows.append((method, value, model.m, metrics.eval_cost(model), f"{train_seconds:.6f}"))
    metric_name = "error" if (classification and args.metric == "error") else "mae"
    dataio.write_table(args.out, ["method", metric_name, "m", "evals_per_prediction", "train_seconds"], rows)
    print(f"benchmarked {len(rows)} methods -> {args.out}")
    config_doc = _config_dict(config, spec, m=args.m, methods=methods, metric=args.metric, lam1=args.lam1)
    return config_doc, args.seed, [p for p in [args.data, args.test] if p], [args.out]


def cmd_predict(args, bridges):
    model = dataio.load_model(args.model)
    if args.blackbox:
        bridge = bridges.enter_context(dataio.blackbox_bridge(args.blackbox))
        model = replace(model, similarity=bridge.spec)
    rows = dataio.load_features(args.data, args.target)
    predictions = predict_batch(model, rows) if rows.shape[0] else np.empty(0)
    dataio.write_table(args.out, ["prediction"], ([value] for value in predictions))
    print(f"wrote {predictions.shape[0]} predictions")
    return {"model": args.model, "target": args.target}, None, [args.model, args.data], [args.out]


def _add_common(parser, out_help="output model path (JSON)"):
    parser.add_argument("--data", required=True, help="training CSV with a header row")
    parser.add_argument("--target", required=True, help="name of the target column")
    parser.add_argument("--seed", type=_nonneg_int, default=0)
    parser.add_argument("--lambda", dest="lam", type=_nonneg_float, default=1e-6,
                        help="ridge regularization (default 1e-6)")
    parser.add_argument("--gamma", type=_positive_float, default=None,
                        help="RBF bandwidth (default 1/d)")
    parser.add_argument("--out", required=True, help=out_help)


def _add_train_knobs(parser):
    parser.add_argument("--eta", type=_positive_float, default=0.5, help="gradient step size")
    parser.add_argument("--epsilon", type=_positive_float, default=1e-6, help="convergence tolerance")
    parser.add_argument("--max-sweeps", type=_positive_int, default=50)
    parser.add_argument("--grad-mode", choices=similarity.GRAD_MODES, default="analytic")
    penalty = parser.add_mutually_exclusive_group()
    penalty.add_argument("--penalty", dest="penalty", action="store_true", default=True,
                         help="repel nearby prototypes (default)")
    penalty.add_argument("--no-penalty", dest="penalty", action="store_false")
    parser.add_argument("--box", nargs="?", type=_box, const="data", default=None,
                        help="projection bounds: 'data' for the feature hull or 'lo,hi'")
    parser.add_argument("--blackbox", default=None,
                        help="command of a line-protocol similarity scorer")


def build_parser():
    parser = argparse.ArgumentParser(prog="sparsim",
                                     description="Super-sparse models in similarity spaces.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("train", help="jointly optimize prototypes and coefficients")
    _add_common(p)
    _add_train_knobs(p)
    p.add_argument("--m", type=_positive_int, required=True, help="number of prototypes")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("select-m", help="choose the prototype count by incremental CV")
    _add_common(p)
    _add_train_knobs(p)
    p.add_argument("--grid", type=_grid, default=None, help="descending sizes, e.g. 10,5,4,3,2")
    p.add_argument("--rho", type=_nonneg_float, default=None, help="size penalty weight")
    p.add_argument("--loss", choices=("mse", "mae", "error_rate"), default="mse")
    p.add_argument("--folds", type=_positive_int, default=5)
    p.add_argument("--group-column", default=None, help="subject id column for disjoint folds")
    p.set_defaults(func=cmd_select_m)

    p = sub.add_parser("baseline", help="prototype-selection and linear baselines")
    _add_common(p)
    p.add_argument("--method", required=True, choices=("ps-r", "ps-b", "ps-s", "ps-km", "ridge", "lasso"))
    p.add_argument("--m", type=_positive_int, default=5)
    p.add_argument("--lambda1", dest="lam1", type=_nonneg_float, default=1e-3,
                   help="L1 penalty for the lasso baseline")
    p.add_argument("--test", default=None, help="held-out CSV for the metrics file")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("bench", help="compare methods in one table")
    _add_common(p, out_help="comparison table CSV path")
    _add_train_knobs(p)
    p.add_argument("--m", type=_positive_int, default=5)
    p.add_argument("--methods", default=None, help=f"comma list among {','.join(BENCH_METHODS)}")
    p.add_argument("--metric", choices=("mae", "error"), default="mae")
    p.add_argument("--lambda1", dest="lam1", type=_nonneg_float, default=1e-3)
    p.add_argument("--test", default=None, help="held-out CSV (cross-dataset evaluation)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("predict", help="score a CSV of samples with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--target", default=None, help="target column to exclude, if present")
    p.add_argument("--blackbox", default=None,
                   help="command of the scorer for black-box models")
    p.add_argument("--out", required=True, help="predictions CSV path")
    p.set_defaults(func=cmd_predict)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    evals_before = similarity.EVAL_COUNTER.read()
    try:
        with contextlib.ExitStack() as bridges:
            config, seed, inputs, outputs = args.func(args, bridges)
        manifest = {
            "subcommand": args.subcommand,
            "config": config,
            "seed": seed,
            "inputs": inputs,
            "outputs": outputs,
            "wall_clock_seconds": time.perf_counter() - started,
            "similarity_evaluations": similarity.EVAL_COUNTER.read() - evals_before,
        }
        dataio.write_json(manifest, _stem(args.out) + ".manifest.json")
    except (SparsimError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
