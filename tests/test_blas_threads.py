"""Results that do not depend on the BLAS thread count.

At more than one thread OpenBLAS splits the solver's Gram product, factor
and solves, and the readout products over a few thousand rows, between its
threads, which changes their last bits at N of about 100 and more.  The
library holds every loaded OpenBLAS at one thread for those spans, so a fit
gives the one-thread bits at any thread count.
"""

import sys
import threading

import numpy as np
import pytest

from esnboost import numerics, ridge_fit

from conftest import run_python

# Prints, for henon and narma10 boost fresh runs at N=200, the record of
# run_experiment without its wall_ms and the sha256 of the model file of the
# same fit.
FIT_PROBE = """
import dataclasses, hashlib, json, sys
from pathlib import Path
from esnboost import (EsnParams, ExperimentConfig, l2boost_fit,
                      load_benchmark, run_experiment, save_model)
out = []
for name in ("henon", "narma10"):
    config = ExperimentConfig.for_benchmark(name, method="boost",
                                            n_reservoir=200, n_stages=6,
                                            seed=1)
    record = dataclasses.asdict(run_experiment(config))
    del record["wall_ms"]
    train, _ = load_benchmark(config)
    params = EsnParams(n_inputs=train.n_inputs, n_reservoir=200,
                       reservoir_density=config.reservoir_density, seed=1)
    path = Path(sys.argv[1]) / f"{name}.json"
    save_model(l2boost_fit(train, 6, params, config.gamma), path)
    out.append([record, hashlib.sha256(path.read_bytes()).hexdigest()])
print(json.dumps(out))
"""


def test_fits_byte_equal_at_every_thread_count(tmp_path):
    runs = {}
    for threads in (1, 2, 3):
        out_dir = tmp_path / str(threads)
        out_dir.mkdir()
        runs[threads] = run_python("-c", FIT_PROBE, str(out_dir),
                                   env={"OPENBLAS_NUM_THREADS": str(threads)})
    assert runs[2] == runs[1]
    assert runs[3] == runs[1]


@pytest.mark.skipif(not numerics.openblas_threads(),
                    reason="no OpenBLAS whose thread count can be set")
def test_solver_restores_the_callers_thread_count():
    libs = numerics.openblas_threads()
    before = [get() for get, _ in libs]

    def counts():
        return [get() for get, _ in libs]

    try:
        for _, put in libs:
            put(2)
        with numerics.one_blas_thread():
            assert counts() == [1] * len(libs)
            with numerics.one_blas_thread():  # a fit under the test fixture
                pass
            assert counts() == [1] * len(libs)
        assert counts() == [2] * len(libs)
        rng = np.random.default_rng(0)
        ridge_fit(rng.normal(size=(50, 4)), rng.normal(size=50), 1e-3)
        assert counts() == [2] * len(libs)
    finally:
        for (_, put), count in zip(libs, before):
            put(count)


@pytest.mark.skipif(not numerics.openblas_threads(),
                    reason="no OpenBLAS whose thread count can be set")
def test_spans_overlapping_across_threads_restore_once():
    libs = numerics.openblas_threads()
    before = [get() for get, _ in libs]
    inside = []

    def spans():
        for _ in range(300):
            with numerics.one_blas_thread():
                inside.append([get() for get, _ in libs])

    interval = sys.getswitchinterval()
    try:
        for _, put in libs:
            put(2)
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=spans) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert len(inside) == 1200
        assert all(counts == [1] * len(libs) for counts in inside)
        assert [get() for get, _ in libs] == [2] * len(libs)
    finally:
        sys.setswitchinterval(interval)
        for (_, put), count in zip(libs, before):
            put(count)
