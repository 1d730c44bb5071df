"""The benchmark harness's contract with the library: every workload of
``bench/workloads.py`` runs at its reduced size and passes its own output
checks, so renaming or removing anything the harness reads fails here."""

import types
from pathlib import Path

import pytest

from sparsim import similarity


def load_workloads():
    """``bench/workloads.py`` executed from its source, so that neither
    ``sys.path`` nor the bench directory changes."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    module = types.ModuleType("bench_workloads")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


WORKLOADS = load_workloads().WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_and_passes_its_checks(name):
    workload = WORKLOADS[name](1, small=True)
    try:
        # the harness's own bookkeeping around one repeat
        evals_before = similarity.EVAL_COUNTER.read()
        out = workload.run()
        out["evals"] = similarity.EVAL_COUNTER.read() - evals_before
        assert out["evals"] > 0
        assert workload.check(out) == []
        assert isinstance(workload.notes(out), dict)
    finally:
        workload.close()
