"""Per-layer spans recorded from outside the sparsim package.

A :class:`Tracer` replaces every binding of the functions in ``TARGETS``
with a wrapper: the module attribute itself and every name that holds the
same function object elsewhere in the package (``selection.fit``, the
``sparsim.*`` re-exports).  Black-box scorers are wrapped by replacing
their entry in ``similarity._SCORERS``.  Each call records a span (repeat,
id, parent id, name, start, end); self time is the span's duration minus
the time covered by its child spans.  A target that no longer exists
records zero calls.  ``uninstall`` puts every original binding back.
"""

import csv
import functools
import os
import statistics
import sys
import time

import numpy as np

# (module, attribute, span name, name of the calls metric).  Span names
# follow ``<module>.<function>``; the per-layer metrics derive from them.
TARGETS = (
    ("sparsim.ridge", "assemble", "ridge.assemble", None),
    ("sparsim.ridge", "solve", "ridge.solve", None),
    ("sparsim.ridge", "solve_against", "ridge.solve_against", None),
    ("sparsim.prototype_step", "_update_prototype", "prototype_step.update", None),
    ("sparsim.prototype_step", "_data_gradient", "prototype_step.data_gradient", None),
    ("sparsim.prototype_step", "_penalty", "prototype_step.penalty", None),
    ("sparsim.training", "fit", "training.fit", None),
    ("sparsim.training", "_loss", "training.loss", None),
    ("sparsim.similarity", "sim_matrix", "similarity.sim_matrix", None),
    ("sparsim.similarity", "grad_z_matrix", "similarity.grad_z_matrix", None),
    ("sparsim.baselines", "kernel_ridge_full", "baselines.kernel_ridge_full", None),
    ("sparsim.baselines", "lasso_similarity", "baselines.lasso_similarity", None),
    ("sparsim.baselines", "lasso_kkt_residuals", "baselines.lasso.kkt", "baselines.lasso.kkt_checks"),
    ("sparsim.baselines", "_lasso_polish", "baselines.lasso.polish", "baselines.lasso.polish_calls"),
    ("sparsim.selection", "select_model_size", "selection.select_model_size", None),
    ("sparsim.selection", "prune", "selection.prune", None),
    ("sparsim.datatypes", "predict_batch", "datatypes.predict_batch", None),
)
BRIDGE = "dataio.bridge"
SPAN_NAMES = tuple(t[2] for t in TARGETS) + (BRIDGE,)
CALLS_METRIC = {t[2]: t[3] or f"{t[2]}.calls" for t in TARGETS}
CALLS_METRIC[BRIDGE] = "dataio.bridge.requests"
# Counts that depend on call arguments or results, accumulated per repeat.
COUNTS = (
    "ridge.assemble.ops",
    "similarity.temp_bytes",
    "similarity.out_bytes",
    "datatypes.predict_batch.rows",
    "training.iterations",
    "training.useful",
    "training.converged",
    "selection.fits",
)


def _values(matrix):
    return getattr(matrix, "values", matrix)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _assemble_hook(counts, stack, args, kwargs, result):
    n, m = _values(_arg(args, kwargs, 0, "S")).shape
    counts["ridge.assemble.ops"] += n * (m + 1) ** 2


def _sim_matrix_hook(counts, stack, args, kwargs, result):
    k, m = _values(result).shape
    d = np.shape(_arg(args, kwargs, 1, "rows"))[-1]
    counts["similarity.out_bytes"] += 8 * k * m
    if _arg(args, kwargs, 0, "spec").kind == "rbf":
        counts["similarity.temp_bytes"] += 8 * k * m * d


def _predict_batch_hook(counts, stack, args, kwargs, result):
    counts["datatypes.predict_batch.rows"] += len(result)


def _fit_hook(counts, stack, args, kwargs, result):
    trace = result[1]
    counts["training.iterations"] += len(trace.records)
    previous = trace.initial_objective
    for rec in trace.records:
        counts["training.useful"] += rec.omega_after < previous
        previous = rec.omega_after
    counts["training.converged"] += trace.termination == "converged"
    if any(frame[3] == "selection.select_model_size" for frame in stack):
        counts["selection.fits"] += 1


HOOKS = {
    "ridge.assemble": _assemble_hook,
    "similarity.sim_matrix": _sim_matrix_hook,
    "datatypes.predict_batch": _predict_batch_hook,
    "training.fit": _fit_hook,
}
# Spans whose similarity evaluations are attributed to them (exclusive of
# their children, so the per-layer counts add up to the total).
EVAL_SPANS = {"similarity.sim_matrix", "similarity.grad_z_matrix"}


class Tracer:
    """Wraps the target functions; records spans only between
    :meth:`begin_repeat` and :meth:`end_repeat`.

    ``names`` restricts the wrapped targets (default: all of them).
    """

    def __init__(self, names=None, keep_spans=True):
        self.names = set(SPAN_NAMES if names is None else names)
        self.keep_spans = keep_spans
        self.spans = []
        self.repeats = []  # one {name: [calls, self_s, self_evals]}, counts pair per repeat
        self._stack = []
        self._next_id = 0
        self._patches = []
        self._active = False

    # -- installation -------------------------------------------------
    def install(self):
        sim = sys.modules["sparsim.similarity"]
        counter = sim.EVAL_COUNTER
        modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "sparsim" or name.startswith("sparsim."))
        ]
        for module_name, attr, name, _ in TARGETS:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None)
            if name not in self.names or original is None:
                continue
            wrapper = self._wrap(name, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((vars(module), key, original))
                        vars(module)[key] = wrapper
        if BRIDGE in self.names:
            scorers = getattr(sim, "_SCORERS", {})
            for key, scorer in list(scorers.items()):
                self._patches.append((scorers, key, scorer))
                scorers[key] = self._wrap(BRIDGE, scorer, counter)
        return self

    def uninstall(self):
        while self._patches:
            namespace, key, original = self._patches.pop()
            namespace[key] = original

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc_info):
        self.uninstall()

    # -- recording ----------------------------------------------------
    def begin_repeat(self):
        self.repeats.append(({name: [0, 0.0, 0] for name in SPAN_NAMES}, dict.fromkeys(COUNTS, 0)))
        self._active = True

    def end_repeat(self):
        self._active = False

    def _wrap(self, name, fn, counter):
        hook = HOOKS.get(name)
        counts_evals = name in EVAL_SPANS
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            stats, counts = self.repeats[-1]
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0, 0, name]  # id, child seconds, child evals, name
            stack.append(frame)
            evals0 = counter.read() if counts_evals else 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                evals = counter.read() - evals0 if counts_evals else frame[2]
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += end - start
                    parent[2] += evals
                entry = stats[name]
                entry[0] += 1
                entry[1] += end - start - frame[1]
                entry[2] += evals - frame[2]
                if self.keep_spans:
                    self.spans.append(
                        (len(self.repeats) - 1, span_id, None if parent is None else parent[0], name, start, end)
                    )
            if hook is not None:
                hook(counts, stack, args, kwargs, result)
            return result

        return wrapper

    # -- results ------------------------------------------------------
    def write_spans(self, path):
        """Write the recorded spans as CSV, times relative to the first span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["repeat", "id", "parent", "name", "start_s", "end_s"])
            for rep, span_id, parent, name, start, end in sorted(self.spans, key=lambda s: s[1]):
                writer.writerow([rep, span_id, "" if parent is None else parent, name,
                                 f"{start - origin:.9f}", f"{end - origin:.9f}"])


def layer_metrics(tracer, spawn_s, traced_walls, plain_walls):
    """Per-layer metrics of one traced run: exact counts from the first
    traced repeat (they repeat exactly), self times as medians over the
    traced repeats, and the overhead of tracing on the median repeat.
    Returns {name: (value, unit)}."""
    stats, counts = tracer.repeats[0]
    out = {}
    for name in SPAN_NAMES:
        out[CALLS_METRIC[name]] = (stats[name][0], "count")
        out[f"{name}.self_s"] = (statistics.median(r[0][name][1] for r in tracer.repeats), "s")
    for name in ("similarity.sim_matrix", "similarity.grad_z_matrix"):
        out[f"{name}.evals"] = (stats[name][2], "count")
    for name in ("ridge.assemble.ops", "similarity.temp_bytes", "similarity.out_bytes",
                 "datatypes.predict_batch.rows", "training.iterations", "selection.fits"):
        unit = "B" if name.endswith("_bytes") else "count"
        out[name] = (counts[name], unit)
    fits = stats["training.fit"][0]
    out["training.useful_share"] = (counts["training.useful"] / max(counts["training.iterations"], 1), "ratio")
    out["training.converged_share"] = (counts["training.converged"] / max(fits, 1), "ratio")
    requests = stats[BRIDGE][0]
    out["dataio.bridge.us_per_eval"] = (
        1e6 * out[f"{BRIDGE}.self_s"][0] / requests if requests else 0.0, "us")
    out["dataio.bridge.spawn_s"] = (spawn_s, "s")
    out["trace.overhead"] = (statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0, "ratio")
    return out
