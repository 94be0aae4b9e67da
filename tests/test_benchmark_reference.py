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

import numpy as np
import pytest

from esnboost import boosting, esn

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


@pytest.mark.usefixtures("one_blas_thread")
@pytest.mark.parametrize("seed", [0, 20])
@pytest.mark.parametrize("name", ["henon-boost-shared", "narma10-sweep"])
def test_every_pass_reads_an_aligned_recurrent_matrix(name, seed, tmp_path,
                                                      monkeypatch):
    """Every reservoir pass of an op finds w_r C-contiguous float64 on a
    64-byte boundary, where the gemv of each step reads it fastest; where
    malloc happened to put it, about half the passes started 16 or 48 bytes
    past one."""
    workloads = load_workloads()
    layouts = []
    run_reservoir = esn.run_reservoir

    def recording(res, *args, **kwargs):
        w_r = res.w_r
        layouts.append((w_r.dtype == np.float64, w_r.flags.c_contiguous,
                        w_r.ctypes.data % 64))
        return run_reservoir(res, *args, **kwargs)

    for module in (esn, boosting):
        monkeypatch.setattr(module, "run_reservoir", recording)
    out, finish = workloads.run_op(workloads.WORKLOADS[name], seed, tmp_path)
    finish()
    assert layouts and set(layouts) == {(True, True, 0)}
