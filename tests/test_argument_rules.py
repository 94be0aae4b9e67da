"""Scalar argument rules: every bad value ends in ParameterError.

The rules go through numerics.require_int, require_real and
require_choice; each case below names one function, one argument and one
bad value.  The other arguments are valid, which the test checks first,
so the ParameterError is the bad value's.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from esnboost.boosting import BoostModel, EnsembleModel, baseline_fit, l2boost_fit
from esnboost.datasets import (RawSeries, SeriesDataset, gen_freedman,
                               gen_henon, gen_narma, make_supervised,
                               normalize_minmax, split)
from esnboost.errors import ParameterError
from esnboost.esn import EsnParams, init_reservoir
from esnboost.harness import ExperimentConfig, sweep
from esnboost.metrics import evaluate
from esnboost.numerics import (MAX_SIZE, Readout, Rng, require_choice,
                               require_int, require_real, ridge_fit,
                               uniform_matrix)

_RNG = np.random.default_rng(0)
_DATA = SeriesDataset(inputs=_RNG.uniform(0, 1, (40, 1)),
                      targets=_RNG.uniform(0, 1, (40, 1)), washout=5)
_PARAMS = EsnParams(n_inputs=1, n_reservoir=6, seed=1)

# Valid keyword arguments of each function under test.
VALID = {
    l2boost_fit: {"train": _DATA, "n_stages": 1, "params": _PARAMS,
                  "gamma": 1e-3},
    baseline_fit: {"train": _DATA, "n_members": 1, "params": _PARAMS,
                   "gamma": 1e-3},
    split: {"dataset": _DATA, "n_train": 20, "n_test": 10},
    evaluate: {"predictions": _DATA.inputs, "targets": _DATA.targets,
               "washout": 0},
    gen_henon: {"length": 10, "rng": Rng(0)},
    gen_freedman: {"length": 10},
    gen_narma: {"k": 10, "length": 30, "rng": Rng(0)},
    uniform_matrix: {"rng": Rng(0), "rows": 2, "cols": 2, "lo": 0.0,
                     "hi": 1.0},
    Rng: {"seed": 0},
    Rng.gaussian: {"self": Rng(0), "sigma": 1.0},
    Rng.uniform: {"self": Rng(0), "lo": 0.0, "hi": 1.0},
    make_supervised: {"series": RawSeries(values=np.arange(20.0) % 7),
                      "washout": 0},
    sweep: {"base": ExperimentConfig.for_benchmark("freedman", repetitions=1),
            "n_reservoir_values": [6], "m_or_k_values": [0], "workers": 0},
    normalize_minmax: {"series": RawSeries(values=np.arange(20.0) % 7),
                       "fit_end": 10},
    ExperimentConfig.for_benchmark: {"benchmark": "laser",
                                     "data_path": Path("laser.txt")},
    EsnParams: {"n_inputs": 1, "n_reservoir": 6},
}

# Before these rules, each case raised a bare TypeError, ValueError or
# OverflowError, returned NaN draws, or ran with the bool or float taken as
# an integer.
GAPS = [
    (l2boost_fit, "n_stages", 2.5),
    (l2boost_fit, "n_stages", True),
    (baseline_fit, "n_members", 2.5),
    (baseline_fit, "n_members", True),
    (split, "n_train", 2.5),
    (evaluate, "washout", 1.5),
    (evaluate, "washout", True),
    (gen_henon, "length", 10.5),
    (gen_freedman, "length", 10.5),
    (gen_narma, "length", 30.5),
    (gen_narma, "k", 2.5),
    (uniform_matrix, "rows", 2.5),
    (uniform_matrix, "density", "x"),
    (uniform_matrix, "hi", math.inf),
    (Rng, "seed", 1.5),
    (Rng, "seed", True),
    (Rng, "seed", "abc"),
    (Rng.gaussian, "sigma", "a"),
    (Rng.gaussian, "sigma", math.nan),
    (Rng.uniform, "lo", math.nan),
    (make_supervised, "washout", True),
    (sweep, "workers", 1.5),
    (sweep, "workers", True),
    (normalize_minmax, "fit_end", 2.5),
    (ExperimentConfig.for_benchmark, "benchmark", ["x"]),
    (ExperimentConfig.for_benchmark, "data_path", 5),
]


@pytest.mark.parametrize(
    "fn, name, value", GAPS,
    ids=[f"{fn.__qualname__}-{name}-{value!r}" for fn, name, value in GAPS])
def test_bad_value_raises_parameter_error(fn, name, value):
    fn(**VALID[fn])
    with pytest.raises(ParameterError, match=name):
        fn(**{**VALID[fn], name: value})


# A model's terms are a non-empty list or tuple of (Reservoir, Readout)
# pairs.  Before _check_terms held that whole rule, each bad list below
# raised a bare TypeError, AttributeError or ValueError, and so did a
# train_sse without a length.
_RES = init_reservoir(_PARAMS)
_READOUT = Readout(weights=np.zeros((1, 7)), intercept=np.zeros(1))
MODELS = {
    "BoostModel-fresh": lambda **kw: BoostModel(
        **{"terms": [(_RES, _READOUT)], "mode": "fresh", "gamma": 1e-3, **kw}),
    "BoostModel-shared": lambda **kw: BoostModel(
        **{"terms": [(_RES, _READOUT)] * 2, "mode": "shared", "gamma": 1e-3,
           **kw}),
    "EnsembleModel": lambda **kw: EnsembleModel(
        **{"terms": [(_RES, _READOUT)], **kw}),
}
BAD_VALUES = {"terms-int": ("terms", 5), "terms-list-of-int": ("terms", [5]),
              "terms-pair-of-ints": ("terms", [(1, 2)]),
              "terms-swapped-pair": ("terms", [(_READOUT, _RES)]),
              "terms-three-tuple": ("terms", [(_RES, _READOUT, _READOUT)]),
              "terms-empty": ("terms", []),
              "train_sse-int": ("train_sse", 5),
              "train_sse-None": ("train_sse", None)}
TERM_GAPS = [(model, case) for model in MODELS for case in BAD_VALUES
             if case.startswith("terms") or model.startswith("BoostModel")]


@pytest.mark.parametrize("model, case", TERM_GAPS,
                         ids=[f"{model}-{case}" for model, case in TERM_GAPS])
def test_bad_term_list_raises_parameter_error(model, case):
    name, value = BAD_VALUES[case]
    MODELS[model]()
    with pytest.raises(ParameterError, match=name):
        MODELS[model](**{name: value})


# Sizes past MAX_SIZE ended in numpy's "Maximum allowed dimension exceeded"
# ValueError, or an OverflowError from gen_freedman, or, for EsnParams, in the
# same error from init_reservoir.  2**63 fails at once without the bound, where
# a size just past MAX_SIZE would allocate gigabytes first.
SIZES = [(EsnParams, "n_inputs"), (EsnParams, "n_reservoir"),
         (gen_narma, "length"), (gen_henon, "length"), (gen_freedman, "length")]


@pytest.mark.parametrize("fn, name", SIZES,
                         ids=[f"{fn.__qualname__}-{name}" for fn, name in SIZES])
def test_size_past_max_size_raises_parameter_error(fn, name):
    fn(**VALID[fn])
    with pytest.raises(ParameterError,
                       match=f"{name} must be <= {MAX_SIZE}, got {2 ** 63}"):
        fn(**{**VALID[fn], name: 2 ** 63})


@pytest.mark.parametrize("build", [
    lambda: ExperimentConfig.for_benchmark("freedman", gamma=10 ** 400),
    lambda: ridge_fit(_DATA.inputs, _DATA.targets, gamma=10 ** 400),
], ids=["ExperimentConfig-gamma", "ridge_fit-gamma"])
def test_int_too_large_for_a_float(build):
    # math.isfinite raised a bare OverflowError for these
    with pytest.raises(ParameterError, match="finite number, got an int too large"):
        build()


@pytest.mark.parametrize("check, args, message", [
    (require_int, ("n", 2.5), "n must be an integer, got 2.5"),
    (require_int, ("n", -1, 0), "n must be >= 0, got -1"),
    (require_real, ("x", "a"), "x must be a finite number, got 'a'"),
    (require_real, ("x", -0.5, 0), "x must be >= 0, got -0.5"),
    (require_choice, ("mode", "m", ("a", "b")),
     "unknown mode 'm'; choose from ('a', 'b')"),
    (require_int, ("n", 5, 0, 4), "n must be <= 4, got 5"),
])
def test_messages(check, args, message):
    with pytest.raises(ParameterError) as info:
        check(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("check, args", [
    (require_int, ("n", np.int64(0), 0)),
    (require_real, ("x", 0, 0)),
    (require_real, ("x", np.float32(1.5), 1.5)),
    (require_choice, ("mode", "b", ("a", "b"))),
    (require_int, ("n", 4, 0, 4)),
])
def test_values_at_the_bound_pass(check, args):
    check(*args)
