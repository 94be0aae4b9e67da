"""Start-up import budget, checked in fresh interpreters.

Importing scipy.linalg costs more than the rest of the package, and the
ridge solver calls numpy's own OpenBLAS instead wherever it exports LAPACKE;
only a sweep with workers needs the process pool.  Commands that fit nothing
must load neither, nor may a run, a fit or a prediction load any scipy
module, and a run must bind the solver before it reads the clock that
``wall_ms`` starts from.
"""

import json

import pytest

from esnboost import (EsnParams, ExperimentConfig, ResultRecord,
                      baseline_fit, l2boost_fit, load_benchmark, save_model,
                      write_records_csv)

from conftest import FALLBACK, run_python

# "scipy" is in sys.modules once any scipy module is loaded.
HEAVY = ("scipy", "concurrent.futures.process")

# Runs its arguments as ``python -m esnboost`` would, then prints as its
# last line the HEAVY modules that the command left loaded.
CLI_PROBE = f"""
import atexit, json, runpy, sys
atexit.register(lambda: print(json.dumps(
    [m for m in {HEAVY!r} if m in sys.modules])))
sys.argv = ["esnboost", *sys.argv[1:]]
runpy.run_module("esnboost", run_name="__main__", alter_sys=True)
"""

# Prints whether a scipy module was loaded before the call, and at each clock
# read the harness made during it whether a scipy module was loaded, and
# whether the solver's LAPACK routines were bound and the OpenBLAS builds the
# solver pins were found: whether a search then is a cache hit.
CLOCK_PROBE = """
import json, sys, time, types
from esnboost import harness, numerics
loaded = []

def clock():
    searches = numerics._openblas_search.cache_info
    misses = searches().misses
    numerics.openblas_threads()
    loaded.append(["scipy" in sys.modules,
                   numerics.ridge_lapack.cache_info().currsize == 1
                   and searches().misses == misses])
    return time.perf_counter()

before = "scipy" in sys.modules
harness.time = types.SimpleNamespace(perf_counter=clock)
config = harness.ExperimentConfig.for_benchmark(
    "freedman", method="boost", n_reservoir=6, n_stages=2, repetitions=1)
CALL
print(json.dumps([before, loaded]))
"""


def test_import_loads_neither():
    out = run_python("-c", "import sys, esnboost; print([m for m in "
                           f"{HEAVY!r} if m in sys.modules])")
    assert out.strip() == "[]"


@pytest.fixture
def results_csv(tmp_path):
    rows = [ResultRecord(f"r{mk}", "freedman", "boost", 6, mk, 0, 0.5, 0.25,
                         0.1, 0.05, 2.5) for mk in (0, 3)]
    path = tmp_path / "results.csv"
    write_records_csv(rows, path)
    return path


@pytest.mark.parametrize("command", ["help", "report", "generate"])
def test_commands_that_fit_nothing_load_neither(command, results_csv,
                                                 tmp_path):
    argv = {"help": ["--help"],
            "report": ["report", str(results_csv), "--mode", "summary",
                       "--out-dir", str(tmp_path)],
            "generate": ["generate", "freedman", "--length", "12", "--out",
                         str(tmp_path / "gen.csv")]}[command]
    out = run_python("-c", CLI_PROBE, *argv, cwd=tmp_path)
    assert json.loads(out.splitlines()[-1]) == []


# Loads the boost, ensemble and single-network model files in its
# arguments, predicts with each, then runs a bare reservoir pass, and prints
# after each call whether a scipy module is loaded.
PREDICT_PROBE = """
import json, sys
import numpy as np
from esnboost import load_model, predict, run_reservoir
boost, ensemble, single = map(load_model, sys.argv[1:])
inputs = np.linspace(-1.0, 1.0, 600)[:, None]
loaded = []
for call in (lambda: predict(boost, inputs),
             lambda: predict(ensemble, inputs),
             lambda: predict(single, inputs),
             lambda: run_reservoir(single.terms[0][0], inputs)):
    call()
    loaded.append("scipy" in sys.modules)
print(json.dumps(loaded))
"""


def test_predicting_from_a_loaded_model_loads_no_solver(tmp_path):
    train, _ = load_benchmark(ExperimentConfig.for_benchmark("freedman"))
    params = EsnParams(n_inputs=train.n_inputs, n_reservoir=8)
    paths = [tmp_path / f"{name}.json"
             for name in ("boost", "ensemble", "single")]
    save_model(l2boost_fit(train, 2, params, 1e-3), paths[0])
    save_model(baseline_fit(train, 3, params, 1e-3), paths[1])
    save_model(baseline_fit(train, 1, params, 1e-3), paths[2])
    out = run_python("-c", PREDICT_PROBE, *map(str, paths))
    assert json.loads(out.splitlines()[-1]) == [False] * 4


@pytest.mark.parametrize("call", ["harness.run_experiment(config)",
                                  "harness.sweep(config, [6], [0, 2])"])
def test_solver_loaded_before_the_first_clock_read(call):
    before, loaded = json.loads(run_python(
        "-c", CLOCK_PROBE.replace("CALL", call)).splitlines()[-1])
    assert before is False
    assert loaded and all(entry == [FALLBACK, True] for entry in loaded)


# Runs a henon boost experiment, then fits a model and predicts with it, and
# prints the scipy modules then loaded.
RUN_PROBE = """
import json, sys
from esnboost import (EsnParams, ExperimentConfig, l2boost_fit,
                      load_benchmark, predict, run_experiment)
config = ExperimentConfig.for_benchmark("henon", method="boost",
                                        n_reservoir=20, n_stages=2,
                                        repetitions=1)
run_experiment(config)
train, test = load_benchmark(config)
params = EsnParams(n_inputs=train.n_inputs, n_reservoir=20)
predict(l2boost_fit(train, 2, params, config.gamma), test.inputs)
print(json.dumps([m for m in sys.modules if m.split(".")[0] == "scipy"]))
"""


@pytest.mark.skipif(FALLBACK, reason="no mapped OpenBLAS exports LAPACKE")
def test_run_fit_and_predict_load_no_scipy():
    assert json.loads(run_python("-c", RUN_PROBE).splitlines()[-1]) == []
