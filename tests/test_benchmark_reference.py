"""The benchmark's own output check, run on a few of its ops.

perfbench compares every op's results with the rows recorded in
``perfbench/reference.json``.  Running that check here on two op seeds of
each workload means a change that moves a benchmark output fails the test
suite, not only a later benchmark run.
"""

import importlib.util
import sys
from functools import cache
from pathlib import Path

import pytest

WORKLOADS_PATH = Path(__file__).parents[1] / "perfbench" / "workloads.py"


@cache
def load_workloads():
    """perfbench/workloads.py, loaded from its file.  Its dataclasses look
    their module up in sys.modules, so it is registered before it runs."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.usefixtures("one_blas_thread")
@pytest.mark.parametrize("seed", [0, 20])
@pytest.mark.parametrize("name", ["henon-boost-shared", "narma10-sweep"])
def test_op_matches_reference(name, seed, tmp_path):
    workloads = load_workloads()
    wl = workloads.WORKLOADS[name]
    out, finish = workloads.run_op(wl, seed, tmp_path)
    finish()
    assert workloads.count_failed(wl, out, workloads.load_reference()) == 0
