"""Memory gates: a reservoir pass allocates its one feature matrix.

tracemalloc sees numpy's data allocations, so the peak traced memory of a
fit or a prediction pins how many feature-sized matrices it holds at once,
without timing noise.  The fit writes each reservoir pass into one
[x | s | 1] design matrix and builds the ridge solver on its post-washout
rows; prediction writes each pass into one [x | s] matrix.
"""

import tracemalloc

import pytest

from esnboost.boosting import l2boost_fit
from esnboost.esn import EsnParams, _predict_terms
from esnboost.harness import ExperimentConfig, load_benchmark

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


def henon_params(train, config, n_reservoir):
    return EsnParams(n_inputs=train.n_inputs, n_reservoir=n_reservoir,
                     reservoir_density=config.reservoir_density,
                     seed=config.seed)


def peak_bytes(fn, *args, **kwargs):
    """Peak traced memory of one call, and its result."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_fit_holds_one_design_matrix(henon):
    config, train, _ = henon
    params = henon_params(train, config, config.n_reservoir)
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
    params = henon_params(train, config, 50)
    design = train.rows * (params.n_inputs + params.n_reservoir + 1) * 8
    peak, model = peak_bytes(l2boost_fit, train, 3, params, config.gamma,
                             mode="fresh")
    kept = sum(res.w_in.nbytes + res.w_r.nbytes for res, _ in model.terms)
    kept += sum(fitted.nbytes for fitted in model.train_fitted)
    assert peak - kept <= PEAK_LIMIT * design, (peak, kept, design)


def test_prediction_holds_one_feature_matrix(henon):
    config, train, test = henon
    params = henon_params(train, config, config.n_reservoir)
    model = l2boost_fit(train, config.n_stages, params, config.gamma,
                        mode="shared")
    features = test.rows * (params.n_inputs + params.n_reservoir) * 8
    peak, _ = peak_bytes(_predict_terms, model.terms, test.inputs)
    assert peak <= PEAK_LIMIT * features, (peak, features)
