"""Memory gates: a fit holds one design matrix, a prediction one block.

tracemalloc sees numpy's data allocations, so the peak traced memory of a
fit or a prediction pins how many feature-sized matrices it holds at once,
without timing noise.  The fit writes each reservoir pass into one
[x | s | 1] design matrix and builds the ridge solver on its post-washout
rows.  Prediction runs each pass in blocks of 512 rows written into one
reused [x | s] block, so its memory beyond the predictions themselves does
not grow with the input length, and a run on test rows longer than its
training rows (narma10: 1,400 and 2,400) peaks at its fit.
"""

import tracemalloc

import numpy as np
import pytest

from esnboost.boosting import l2boost_fit
from esnboost.esn import _BLOCK_ROWS, EsnParams, _predict_terms
from esnboost.harness import ExperimentConfig, load_benchmark, run_experiment
from esnboost.numerics import scipy_linalg

# Peak traced memory allowed, in units of one feature matrix.
PEAK_LIMIT = 1.25


@pytest.fixture(scope="module")
def henon():
    """The henon-boost-shared workload: N=200, M=6, 3995 training and 795
    test rows."""
    config = ExperimentConfig.for_benchmark("henon", method="boost",
                                            n_reservoir=200, n_stages=6)
    train, test = load_benchmark(config)
    return config, train, test


@pytest.fixture(scope="module")
def narma10():
    """narma10 fresh boost, N=200, M=6: 1,400 training and 2,400 test rows,
    and the model fitted on them."""
    config = ExperimentConfig.for_benchmark("narma10", method="boost",
                                            n_reservoir=200, n_stages=6)
    train, test = load_benchmark(config)
    params = esn_params(train, config, config.n_reservoir)
    model = l2boost_fit(train, config.n_stages, params, config.gamma)
    return config, train, test, model


def esn_params(train, config, n_reservoir):
    return EsnParams(n_inputs=train.n_inputs, n_reservoir=n_reservoir,
                     reservoir_density=config.reservoir_density,
                     seed=config.seed)


def peak_bytes(fn, *args, **kwargs):
    """Peak traced memory of one call, and its result.  scipy.linalg is
    imported first: a process's first fit imports it, which is not memory
    the fit holds."""
    scipy_linalg()
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def model_bytes(model):
    """Bytes a fitted model keeps: its reservoirs and training predictions."""
    kept = sum(res.w_in.nbytes + res.w_r.nbytes for res, _ in model.terms)
    return kept + sum(fitted.nbytes for fitted in model.train_fitted)


def test_fit_holds_one_design_matrix(henon):
    config, train, _ = henon
    params = esn_params(train, config, config.n_reservoir)
    design = train.rows * (params.n_inputs + params.n_reservoir + 1) * 8
    peak, _ = peak_bytes(l2boost_fit, train, config.n_stages, params,
                         config.gamma, mode="shared")
    assert peak <= PEAK_LIMIT * design, (peak, design)


def test_fresh_fit_frees_each_design_matrix(henon):
    """Each fresh stage's matrix is freed before the next is filled.

    The model keeps every stage's reservoir and training predictions, which
    grow with the stage count, so those bytes are set aside; at N=50 they
    are a tenth of one design matrix.
    """
    config, train, _ = henon
    params = esn_params(train, config, 50)
    design = train.rows * (params.n_inputs + params.n_reservoir + 1) * 8
    peak, model = peak_bytes(l2boost_fit, train, 3, params, config.gamma,
                             mode="fresh")
    kept = model_bytes(model)
    assert peak - kept <= PEAK_LIMIT * design, (peak, kept, design)


def test_prediction_holds_one_feature_matrix(henon):
    config, train, test = henon
    params = esn_params(train, config, config.n_reservoir)
    model = l2boost_fit(train, config.n_stages, params, config.gamma,
                        mode="shared")
    features = test.rows * (params.n_inputs + params.n_reservoir) * 8
    peak, _ = peak_bytes(_predict_terms, model.terms, test.inputs)
    assert peak <= PEAK_LIMIT * features, (peak, features)


@pytest.mark.parametrize("repeats", [1, 4])
def test_prediction_memory_does_not_grow_with_length(narma10, repeats):
    """Beyond its staged predictions, a prediction holds one block of
    features, for the 2,400 test rows and for those rows repeated 4 times;
    one [x | s] matrix of the 2,400 rows would be 4.7 blocks."""
    config, train, test, model = narma10
    inputs = np.tile(test.inputs, (repeats, 1))
    block = _BLOCK_ROWS * (train.n_inputs + config.n_reservoir) * 8
    peak, staged = peak_bytes(_predict_terms, model.terms, inputs)
    predictions = sum(pred.nbytes for pred in staged)
    assert peak - predictions <= PEAK_LIMIT * block, (peak, predictions, block)


def test_run_peaks_at_its_fit(narma10):
    """run_experiment on narma10 holds no more than a fit needs: one
    design matrix, plus what the model keeps and the test predictions."""
    config, train, test, model = narma10
    design = train.rows * (train.n_inputs + config.n_reservoir + 1) * 8
    predictions = len(model.terms) * test.rows * 8
    peak, _ = peak_bytes(run_experiment, config)
    kept = model_bytes(model) + predictions
    assert peak - kept <= PEAK_LIMIT * design, (peak, kept, design)
