"""Command-line entry point for reproducible experiments.

Subcommands: train, select-m, baseline, bench, predict.  Each ``cmd_*``
does its own work and returns the manifest's config, seed, inputs and
outputs; :func:`main`, the only run path, times the run, counts its
similarity evaluations, closes every black-box bridge and writes the JSON
manifest ``<out stem>.manifest.json``.  Exit codes: 0 on success, 2 on
usage errors (malformed flag values included), 1 on runtime errors.  A
flag value's range is checked only by the type that owns it (see
:func:`_checked`).
"""

import argparse
import contextlib
import os
import sys
import time
from dataclasses import asdict, fields, replace
from functools import partial

import numpy as np

from . import baselines, dataio, metrics, ridge, selection, similarity, training
from .datatypes import TrainConfig, check_size, predict_batch
from .errors import SparsimError


def _checked(owner, field, convert=float):
    """argparse type: ``convert(text)``, checked by building ``owner`` with
    that one field, so a value the owning type rejects is a usage error
    carrying the owner's own message."""

    def parse(text):
        try:
            value = convert(text)
            owner(**{field: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
        return value

    return parse


def _box(text):
    """'data', or one (lo, hi) row that :func:`_train_config` tiles to every dimension."""
    return text if text == "data" else np.array([text.split(",")], dtype=float)


def _grid(text):
    return tuple(int(v) for v in text.split(","))


_grid_config = partial(selection.GridConfig, grid=(1,))
_lam1 = _checked(partial(ridge.check_lam, name="lam1"), "value")  # the rule lasso_similarity applies
_m = _checked(check_size, "m", int)

# The compared methods; a prototype-selection name maps to its baselines.SELECTORS kind.
SELECTIONS = {"ps-r": "random", "ps-b": "border", "ps-s": "spanning", "ps-km": "kmedians"}
BASELINES = (*SELECTIONS, "ridge", "lasso")
METHODS = ("sparse", *BASELINES)


def _methods(text):
    names = text.split(",")
    unknown = [name for name in names if name not in METHODS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown method {', '.join(map(repr, unknown))} (choose among {','.join(METHODS)})")
    return names


def _stem(path):
    return os.path.splitext(path)[0]


def _similarity_spec(args, dim, bridges):
    if args.blackbox is not None:
        return bridges.enter_context(dataio.blackbox_bridge(args.blackbox)).spec
    if args.gamma is None:
        return similarity.default_spec(dim)
    return similarity.SimilaritySpec(kind="rbf", gamma=args.gamma)


def _train_config(args, dim):
    config = {f.name: getattr(args, f.name) for f in fields(TrainConfig)}
    if isinstance(args.box, np.ndarray):
        config["box"] = np.tile(args.box, (dim, 1))
    return TrainConfig(**config)


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
    reason = trace.termination if trace.error is None else f"{trace.termination}: {trace.error}"
    print(f"trained m={model.m} model, final objective {trace.final_objective:.6g} ({reason})")
    config_doc = _config_dict(config, spec, m=args.m, termination=trace.termination, error=trace.error)
    return config_doc, args.seed, [args.data], [args.out, trace_path]


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


def _fit(method, data, args, spec, config=None):
    """The model of one of METHODS; ``config`` is needed only by "sparse"."""
    if method == "sparse":
        return training.fit(data, args.m, config=config, similarity=spec)[0]
    if method == "ridge":
        return baselines.kernel_ridge_full(data, args.lam, spec)
    if method == "lasso":
        return baselines.lasso_similarity(data, args.lam1, spec)
    return baselines.baseline_pipeline(data, SELECTIONS[method], args.m, args.lam, spec, args.seed)


def _metric_rows(model, data):
    pred = predict_batch(model, data.features)
    classification = set(np.unique(data.targets)) <= {-1.0, 1.0}
    rows = [(name, loss(pred, data.targets)) for name, loss in metrics.LOSSES.items()
            if classification or name != "error_rate"]
    return rows + [("m", model.m), ("evals_per_prediction", metrics.eval_cost(model))]


def cmd_baseline(args, bridges):
    data = dataio.load_csv(args.data, args.target)
    spec = _similarity_spec(args, data.dim, bridges)
    model = _fit(args.method, data, args, spec)
    dataio.save_model(model, args.out)
    eval_data = dataio.load_csv(args.test, args.target) if args.test else data
    metrics_path = _stem(args.out) + ".metrics.csv"
    dataio.write_table(metrics_path, ["metric", "value"], _metric_rows(model, eval_data))
    print(f"{args.method}: m={model.m}")
    flags = {"lasso": ["lam1"], "ridge": ["lam"]}.get(args.method, ["m", "lam"])
    if SELECTIONS.get(args.method) in baselines.SEEDED_KINDS:
        flags.append("seed")
    config_doc = {"method": args.method, **{flag: getattr(args, flag) for flag in flags},
                  "similarity": dataio.similarity_dict(spec)}
    return config_doc, args.seed, [p for p in [args.data, args.test] if p], [args.out, metrics_path]


def cmd_bench(args, bridges):
    data = dataio.load_csv(args.data, args.target)
    test = dataio.load_csv(args.test, args.target) if args.test else data
    spec = _similarity_spec(args, data.dim, bridges)
    config = _train_config(args, data.dim)
    rows = []
    for method in args.methods:
        evals0, t0 = similarity.EVAL_COUNTER.read(), time.perf_counter()
        model = _fit(method, data, args, spec, config)
        train_seconds = time.perf_counter() - t0
        train_evaluations = similarity.EVAL_COUNTER.read() - evals0
        scores = _metric_rows(model, test)
        rows.append([method, *(value for _, value in scores), f"{train_seconds:.6f}", train_evaluations])
    header = ["method", *(name for name, _ in scores), "train_seconds", "train_evaluations"]
    dataio.write_table(args.out, header, rows)
    print(f"benchmarked {len(rows)} methods -> {args.out}")
    config_doc = _config_dict(config, spec, m=args.m, methods=args.methods, lam1=args.lam1)
    return config_doc, args.seed, [p for p in [args.data, args.test] if p], [args.out]


def cmd_predict(args, bridges):
    model = dataio.load_model(args.model)
    if args.blackbox is not None:
        if model.similarity.kind != "blackbox":
            raise ValueError(f"--blackbox needs a black-box model, not one of {model.similarity.kind} similarity")
        model = replace(model, similarity=_similarity_spec(args, model.dim, bridges))
    rows = dataio.load_features(args.data, args.target)
    predictions = predict_batch(model, rows)
    dataio.write_table(args.out, ["prediction"], ([value] for value in predictions))
    print(f"wrote {predictions.shape[0]} predictions")
    return {"model": args.model, "target": args.target}, None, [args.model, args.data], [args.out]


def _add_common(parser, out_help="output model path (JSON)"):
    parser.add_argument("--data", required=True, help="training CSV with a header row")
    parser.add_argument("--target", required=True, help="name of the target column")
    parser.add_argument("--seed", type=_checked(TrainConfig, "seed", int), default=TrainConfig.seed)
    parser.add_argument("--lambda", dest="lam", type=_checked(TrainConfig, "lam"), default=TrainConfig.lam,
                        help="ridge regularization (default %(default)s)")
    choice = parser.add_mutually_exclusive_group()
    choice.add_argument("--gamma", type=_checked(similarity.SimilaritySpec, "gamma"), default=None,
                        help="RBF bandwidth (default 1/d)")
    choice.add_argument("--blackbox", default=None, help="command of a line-protocol similarity scorer")
    parser.add_argument("--out", required=True, help=out_help)


def _add_train_knobs(parser):
    parser.add_argument("--eta", type=_checked(TrainConfig, "eta"), help="gradient step size")
    parser.add_argument("--epsilon", type=_checked(TrainConfig, "epsilon"), help="convergence tolerance")
    parser.add_argument("--max-sweeps", type=_checked(TrainConfig, "max_sweeps", int))
    parser.add_argument("--grad-mode", choices=similarity.GRAD_MODES)
    parser.add_argument("--no-penalty", dest="penalty_enabled", action="store_false",
                        help="do not repel nearby prototypes")
    parser.add_argument("--box", nargs="?", type=_checked(TrainConfig, "box", _box), const="data",
                        help="projection bounds: 'data' for the feature hull or 'lo,hi'")
    parser.set_defaults(**{f.name: f.default for f in fields(TrainConfig)})


def _add_comparison(parser):
    parser.add_argument("--m", type=_m, default=5, help="prototypes of the ps-* and sparse methods")
    parser.add_argument("--lambda1", dest="lam1", type=_lam1, default=1e-3, help="L1 penalty of the lasso")
    parser.add_argument("--test", default=None, help="held-out CSV to score (default: the training data)")


def build_parser():
    parser = argparse.ArgumentParser(prog="sparsim",
                                     description="Super-sparse models in similarity spaces.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("train", help="jointly optimize prototypes and coefficients")
    _add_common(p)
    _add_train_knobs(p)
    p.add_argument("--m", type=_m, required=True, help="number of prototypes")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("select-m", help="choose the prototype count by incremental CV")
    _add_common(p)
    _add_train_knobs(p)
    p.add_argument("--grid", type=_checked(selection.GridConfig, "grid", _grid),
                   default=None, help="descending sizes, e.g. 10,5,4,3,2")
    p.add_argument("--rho", type=_checked(_grid_config, "rho"), default=selection.GridConfig.rho,
                   help="size penalty weight")
    p.add_argument("--loss", choices=tuple(metrics.LOSSES), default=selection.GridConfig.loss_kind)
    p.add_argument("--folds", type=_checked(_grid_config, "folds", int), default=selection.GridConfig.folds)
    p.add_argument("--group-column", default=None, help="subject id column for disjoint folds")
    p.set_defaults(func=cmd_select_m)

    p = sub.add_parser("baseline", help="prototype-selection and linear baselines")
    _add_common(p)
    p.add_argument("--method", required=True, choices=BASELINES)
    _add_comparison(p)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("bench", help="compare methods in one table")
    _add_common(p, out_help="comparison table CSV path")
    _add_train_knobs(p)
    _add_comparison(p)
    p.add_argument("--methods", type=_methods, default=list(METHODS),
                   help=f"comma list among {','.join(METHODS)} (default: all)")
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


def _blas_environment():
    """What the last bits of a run's files depend on, since a BLAS splits
    its sums by thread count (README, "Guarantees"): the BLAS build, its
    thread settings and the CPUs this process may run on."""
    try:  # numpy < 1.25 has no mode argument
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name, version = blas["name"], blas["version"]
    except (TypeError, KeyError):
        name = version = "unknown"
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = {var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return {"name": name, "version": version, **threads, "cpus": cpus}


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
            "blas": _blas_environment(),
        }
        dataio.write_json(manifest, _stem(args.out) + ".manifest.json")
    except (SparsimError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
