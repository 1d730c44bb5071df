"""sparsim benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload against the sparsim sources in ``src/`` of this
checkout, checks every output, and prints one JSON object as the last
line of standard output.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics and writes the spans to
``.bench_build/spans/``.  See bench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# One BLAS thread: the load runs in this single process on a single CPU.
BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
# Per-layer metrics that are medians over the traced repeats besides the
# self times; every other per-layer metric is an exact count of one repeat.
MEDIANS = ("dataio.bridge.us_per_eval", "trace.overhead")


def _prepare():
    """Pin the process to one CPU and BLAS to one thread, and make sparsim
    importable from this checkout's sources."""
    # Child processes inherit the CPU: the black-box scorer answering on
    # another CPU than its caller makes every request wait for a
    # cross-CPU wake-up, and whether that happens would vary by run.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for var in BLAS_VARIABLES:
        os.environ[var] = str(BLAS_THREADS)
    if not os.path.isfile(os.path.join(SRC, "sparsim", "__init__.py")):
        sys.exit(f"error: no sparsim sources under {SRC}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, SRC)


def _import_seconds():
    """Median time to import numpy, scipy and sparsim in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import numpy, scipy, sparsim; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             check=True, timeout=120).stdout)
        for _ in range(SETUP_REPEATS)
    )


def _commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def environment():
    import numpy as np
    import scipy

    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (TypeError, KeyError):
            return "unknown"

    return {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_version(np),
        "scipy_blas": blas_version(scipy),
        "blas_threads": int(os.environ[BLAS_VARIABLES[0]]),
    }


class Tally:
    """Attempted and failed operations, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, ops, failures):
        self.attempted += ops
        self.failed += min(ops, len(failures))
        self.messages.extend(failures[: 5 - len(self.messages)])


def _repeat(workload, tally, tracer=None):
    """Run once, timed and traced; check outside both.  Returns (wall, out)."""
    from sparsim import similarity

    evals0 = similarity.EVAL_COUNTER.read()
    if tracer is not None:
        tracer.begin_repeat()
    started = time.perf_counter()
    try:
        out = workload.run()
    except Exception as exc:  # a failed operation, counted and reported
        tally.record(workload.ops, [f"{type(exc).__name__}: {exc}"] * workload.ops)
        return None, None
    finally:
        wall = time.perf_counter() - started
        if tracer is not None:
            tracer.end_repeat()
    out["evals"] = similarity.EVAL_COUNTER.read() - evals0
    tally.record(workload.ops, workload.check(out))
    return wall, out


def reference_seconds():
    """Time of a fixed loop that runs no sparsim code: interpreted integer
    arithmetic, then small numpy products and exponentials (about 12 ms).

    The shared machine this was tuned on changes speed by up to a half for
    seconds to minutes at a time, in and between runs.  The end-to-end
    times are divided by this loop's time, measured just before and just
    after each repeat on the same CPU, so that most of those changes
    cancel."""
    import numpy as np

    started = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i % 7
    a = np.linspace(0.0, 1.0, 120 * 120).reshape(120, 120)
    for _ in range(60):
        a = np.exp(-(a @ a) / 120.0)
    return time.perf_counter() - started


def _timed(workload, seconds, tally, tracer=None):
    """Repeat until ``seconds`` have passed; past them, until one repeat
    completes or three have raised.  Returns the walls and outputs of the
    completed repeats and, for each, the mean reference-loop time of the
    loops run just before and just after it."""
    walls, outs, refs = [], [], []
    attempts = 0
    deadline = time.perf_counter() + seconds
    before = reference_seconds()
    while time.perf_counter() < deadline or (not walls and attempts < 3):
        attempts += 1
        wall, out = _repeat(workload, tally, tracer)
        after = reference_seconds()
        if wall is not None:
            walls.append(wall)
            outs.append(out)
            refs.append((before + after) / 2)
        before = after
    return walls, outs, refs


def _setup(cls, seed, small):
    durations = []
    for i in range(SETUP_REPEATS):
        started = time.perf_counter()
        workload = cls(seed, small)
        durations.append(time.perf_counter() - started)
        if i < SETUP_REPEATS - 1:
            workload.close()
    return workload, durations


def _peak_pass(workload, tally):
    """One untimed repeat under tracemalloc, also counting the prototype
    updates made inside the sparsim calls."""
    import tracemalloc

    import tracing

    with tracing.Tracer(names={"training.fit"}, keep_spans=False) as counter:
        tracemalloc.start()
        try:
            _, out = _repeat(workload, tally, counter)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak, counter.repeats[0][1]["training.iterations"], out


def end_to_end(workload, seconds, tally, setup_s):
    peak, updates, _ = _peak_pass(workload, tally)
    walls, outs, refs = _timed(workload, seconds, tally)
    if not walls:
        return None, {}
    counts = [out["updates"] if out["updates"] is not None else updates for out in outs]
    n = len(walls)
    # name: (value, unit, samples behind the value)
    metrics = {
        "setup_s": (setup_s, "s", SETUP_REPEATS),
        "wall_ref": (statistics.median(w / r for w, r in zip(walls, refs)), "ref", n),
        "iters_per_ref": (statistics.median(c * r / w for c, w, r in zip(counts, walls, refs)), "1/ref", n),
        "rows_per_ref": (statistics.median(o["rows"] * r / o["predict_s"] for o, r in zip(outs, refs)), "1/ref", n),
        "peak_mb": (peak / 1e6, "MB", 1),
        "sim_evals": (statistics.median(o["evals"] for o in outs), "count", n),
        "final_objective": (outs[-1]["objective"], "1", n),
    }
    q1, median, q3 = statistics.quantiles(walls, n=4, method="inclusive") if n > 1 else walls * 3
    spread = [round(v, 5) for v in (min(walls), q1, median, q3, max(walls))]
    return metrics, {"repeats": n, "wall_s_min_q1_median_q3_max": spread,
                     "reference_s_median": round(statistics.median(refs), 6), "notes": workload.notes(outs[0])}


def per_layer(workload, seconds, tally, spans_path):
    import tracing

    plain_walls, _, _ = _timed(workload, seconds / 2, tally)
    tracer = tracing.Tracer()
    with tracer:
        traced_walls, outs, _ = _timed(workload, seconds / 2, tally, tracer)
    if not plain_walls or not traced_walls:
        return None, {}
    tracer.write_spans(spans_path)
    n = len(traced_walls)
    metrics = {
        name: (value, unit, n if name.endswith(".self_s") or name in MEDIANS else 1)
        for name, (value, unit) in tracing.layer_metrics(
            tracer, workload.spawn_s, traced_walls, plain_walls).items()
    }
    return metrics, {"repeats": len(traced_walls), "untraced_repeats": len(plain_walls),
                     "spans": len(tracer.spans), "notes": workload.notes(outs[0])}


def measure(name, seed, seconds, trace, small=False):
    """Set up, measure and check one workload.  Returns the result object
    and a dict of details (sample counts, environment, failures)."""
    import workloads

    setup_s = None
    workload, durations = _setup(workloads.WORKLOADS[name], seed, small)
    tally = Tally()
    try:
        if trace:
            spans = os.path.join(ROOT, ".bench_build", "spans", f"{name}-seed{seed}.csv")
            metrics, details = per_layer(workload, seconds, tally, spans)
        else:
            setup_s = _import_seconds() + statistics.median(durations)
            metrics, details = end_to_end(workload, seconds, tally, setup_s)
    finally:
        workload.close()
    details.update(setup_samples=len(durations), failures=tally.messages)
    result = {
        "correct": metrics is not None and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u, _) in (metrics or {}).items()},
    }
    details["samples"] = {k: n for k, (_, _, n) in (metrics or {}).items()}
    return result, details


def main(argv=None):
    _prepare()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    result, details = measure(args.workload, args.seed, args.seconds, args.trace)
    if not result["metrics"]:
        sys.exit(f"error: no repeat of {args.workload} completed: {details['failures']}")
    print(f"# environment {json.dumps(environment(), sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace} "
          f"repeats {details['repeats']} setups {details['setup_samples']}")
    for key, value in details.items():
        if key not in ("repeats", "setup_samples", "samples"):
            print(f"# {key} {json.dumps(value)}")
    share = result["failed"] / result["attempted"]
    print(f"# fail_share {share:.6g} ({result['failed']}/{result['attempted']} operations)")
    for key, metric in result["metrics"].items():
        print(f"# {key:40s} {metric['value']:>16.6g} {metric['unit']:6s} n={details['samples'][key]}")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    sys.exit(main())
