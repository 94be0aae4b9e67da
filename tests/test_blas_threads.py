"""Results that do not depend on the BLAS thread count.

At more than one thread OpenBLAS splits the solver's Gram product, factor
and solves, and the readout products over a few thousand rows, between its
threads, which changes their last bits at N of about 100 and more.  The
library holds every loaded OpenBLAS at one thread for those spans, so a fit
or a prediction gives the one-thread bits at any thread count, whether the
process loads scipy.linalg first, late or never.  The solver runs on the
same library whenever scipy.linalg is loaded.
"""

import json
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
    params = EsnParams(n_inputs=train.n_inputs, n_reservoir=200, seed=1)
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


# The henon data and N=200 reservoir parameters of the probes below.
HENON = """
import hashlib, json, sys
from esnboost import EsnParams, ExperimentConfig, load_benchmark
config = ExperimentConfig.for_benchmark("henon", seed=1)
train, test = load_benchmark(config)
params = EsnParams(n_inputs=train.n_inputs, n_reservoir=200, seed=1)
"""

# Fits M=2, writes the model file to the last argument and prints the
# library the solver's LAPACK routines came from.
FIT = """
from esnboost import l2boost_fit, numerics, save_model
save_model(l2boost_fit(train, 2, params, config.gamma), sys.argv[-1])
print(numerics.ridge_lapack().library)
"""

# Predicts with the model file in its first argument over henon's training
# and test inputs, and prints the sha256 of the predictions and whether a
# scipy module was loaded.
PREDICT_PROBE = HENON + """
import numpy as np
from esnboost import load_model, predict
inputs = np.vstack([train.inputs, test.inputs])
predicted = predict(load_model(sys.argv[1]), inputs)
print(json.dumps([hashlib.sha256(predicted.tobytes()).hexdigest(),
                  "scipy" in sys.modules]))
"""


@pytest.fixture(scope="module")
def henon_model(tmp_path_factory):
    """The path of the FIT model, fitted at one thread."""
    path = tmp_path_factory.mktemp("henon") / "model.json"
    run_python("-c", HENON + FIT, str(path),
               env={"OPENBLAS_NUM_THREADS": "1"})
    return path


def test_predictions_byte_equal_at_every_thread_count(henon_model):
    runs = {threads: run_python("-c", PREDICT_PROBE, str(henon_model),
                                env={"OPENBLAS_NUM_THREADS": str(threads)})
            for threads in (1, 2, 3)}
    assert runs[2] == runs[1]
    assert runs[3] == runs[1]
    assert json.loads(runs[1])[1] is False  # predicting loads no solver


@pytest.mark.parametrize("probe", [
    HENON + FIT,
    # predicting searches for OpenBLAS before scipy.linalg is loaded; the
    # user then imports it, which maps scipy's build, and the fit must still
    # run on the library it binds without scipy.linalg, at one thread
    PREDICT_PROBE + "import scipy.linalg\n" + FIT,
], ids=["fit_first", "fit_after_predict_and_late_import"])
def test_fit_at_two_threads_byte_equal_to_one(probe, henon_model, tmp_path):
    path = tmp_path / "model.json"
    out = run_python("-c", probe, str(henon_model), str(path),
                     env={"OPENBLAS_NUM_THREADS": "2"})
    assert path.read_bytes() == henon_model.read_bytes()
    assert out.splitlines()[-1] == numerics.ridge_lapack().library


# The FIT probe with the LAPACKE lookup finding nothing, so that the solver
# falls back to scipy.linalg.lapack, which it imports inside no span.
FALLBACK_FIT = """
from esnboost import numerics
numerics._LAPACKE_FUNCS = ()
""" + HENON + FIT


@pytest.mark.parametrize("threads", [2, 3])
def test_fallback_fit_byte_equal_to_one_thread(threads, henon_model,
                                               tmp_path):
    path = tmp_path / "model.json"
    out = run_python("-c", FALLBACK_FIT, str(path),
                     env={"OPENBLAS_NUM_THREADS": str(threads)})
    assert out.splitlines()[-1] == "scipy.linalg.lapack"
    assert path.read_bytes() == henon_model.read_bytes()


# At two threads, opens a pinned span before scipy.linalg is loaded, imports
# it inside, as the solver's fallback does, and fits, and prints the thread
# count of every OpenBLAS found, inside the span after the fit and after the
# span.
SPAN_PROBE = """
import json
import numpy as np
from esnboost import numerics, ridge_fit
rng = np.random.default_rng(0)
with numerics.one_blas_thread():
    import scipy.linalg
    ridge_fit(rng.normal(size=(50, 4)), rng.normal(size=50), 1e-3)
    inside = [get() for get, _ in numerics.openblas_threads().values()]
after = [get() for get, _ in numerics.openblas_threads().values()]
print(json.dumps([inside, after]))
"""


@pytest.mark.skipif(not numerics.openblas_threads(),
                    reason="no OpenBLAS whose thread count can be set")
def test_library_mapped_inside_a_span_is_pinned_and_restored_once():
    inside, after = json.loads(run_python(
        "-c", SPAN_PROBE, env={"OPENBLAS_NUM_THREADS": "2"}))
    assert inside == [1] * len(inside)
    assert after == [2] * len(inside)


@pytest.mark.skipif(not numerics.openblas_threads(),
                    reason="no OpenBLAS whose thread count can be set")
def test_solver_restores_the_callers_thread_count():
    libs = numerics.openblas_threads()
    before = [get() for get, _ in libs.values()]

    def counts():
        return [get() for get, _ in libs.values()]

    try:
        for _, put in libs.values():
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
        for (_, put), count in zip(libs.values(), before):
            put(count)


@pytest.mark.skipif(not numerics.openblas_threads(),
                    reason="no OpenBLAS whose thread count can be set")
def test_spans_overlapping_across_threads_restore_once():
    libs = numerics.openblas_threads()
    before = [get() for get, _ in libs.values()]
    inside = []

    def spans():
        for _ in range(300):
            with numerics.one_blas_thread():
                inside.append([get() for get, _ in libs.values()])

    interval = sys.getswitchinterval()
    try:
        for _, put in libs.values():
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
        assert [get() for get, _ in libs.values()] == [2] * len(libs)
    finally:
        sys.setswitchinterval(interval)
        for (_, put), count in zip(libs.values(), before):
            put(count)
