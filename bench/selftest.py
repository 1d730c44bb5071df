"""Self-test of the benchmark: python3 bench/selftest.py

Runs every workload at a reduced size, twice with one seed and once with
another, traced and untraced.  Passes when every output check passes and
the exact counts (``sim_evals``, ``training.iterations`` and every
``*.calls`` count) repeat exactly for the same seed.  Also checks that the
printed metric names match BENCHMARK.json.  Takes well under a minute.
"""

import json
import os
import sys

import run

SECONDS = 0.2


def exact_counts(name, seed):
    plain, _ = run.measure(name, seed, SECONDS, trace=0, small=True)
    traced, _ = run.measure(name, seed, SECONDS, trace=1, small=True)
    counts = {"sim_evals": plain["metrics"]["sim_evals"]["value"]}
    counts.update(
        (key, metric["value"]) for key, metric in traced["metrics"].items()
        if key == "training.iterations" or key.endswith(".calls")
    )
    return plain, traced, counts


def main():
    run._prepare()
    import workloads

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for name in workloads.WORKLOADS:
        first_plain, first_traced, first = exact_counts(name, 1)
        _, _, again = exact_counts(name, 1)
        other_plain, other_traced, _ = exact_counts(name, 2)
        if first != again:
            diff = {k: (first[k], again[k]) for k in first if first[k] != again[k]}
            problems.append(f"{name}: exact counts differ between runs of one seed: {diff}")
        for result in (first_plain, first_traced, other_plain, other_traced):
            if not result["correct"]:
                problems.append(f"{name}: output checks failed ({result['failed']}/{result['attempted']})")
        if set(first_plain["metrics"]) != {m["name"] for m in spec["end_to_end"]}:
            problems.append(f"{name}: end-to-end metric names differ from BENCHMARK.json")
        if set(first_traced["metrics"]) != {m["name"] for m in spec["per_layer"]}:
            problems.append(f"{name}: per-layer metric names differ from BENCHMARK.json")
        print(f"{name}: checked {len(first)} exact counts and the outputs of seeds 1 and 2")
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
