"""Objects that hold arrays are the same only when they are the same object.

``Reservoir``, ``Readout``, ``BoostModel``, ``EnsembleModel``, ``RawSeries``
and ``SeriesDataset`` compare and hash by identity, so a copy is a different
object and every holder can be a dict key or a set member.  A generated
field-by-field ``__eq__`` would compare arrays and raise "truth value of an
array is ambiguous".  The value objects, whose fields are numbers and
strings, keep value equality.
"""

import copy

import numpy as np
import pytest

from esnboost.boosting import BoostModel, EnsembleModel, baseline_fit, l2boost_fit
from esnboost.datasets import RawSeries, SeriesDataset
from esnboost.esn import EsnParams, Reservoir, init_reservoir
from esnboost.harness import ExperimentConfig, ResultRecord, run_experiment
from esnboost.metrics import EvalResult, evaluate
from esnboost.numerics import Readout

_RNG = np.random.default_rng(0)
_DATA = SeriesDataset(inputs=_RNG.uniform(0, 1, (40, 1)),
                      targets=_RNG.uniform(0, 1, (40, 1)), washout=5)
_PARAMS = EsnParams(n_inputs=1, n_reservoir=6, seed=1)

HOLDERS = {
    Reservoir: lambda: init_reservoir(_PARAMS),
    Readout: lambda: Readout(weights=np.ones((1, 7)), intercept=[0.5]),
    BoostModel: lambda: l2boost_fit(_DATA, 2, _PARAMS, 1e-3),
    EnsembleModel: lambda: baseline_fit(_DATA, 2, _PARAMS, 1e-3),
    RawSeries: lambda: RawSeries(values=np.arange(5.0), driver=np.ones(5)),
    SeriesDataset: lambda: _DATA,
}


@pytest.mark.parametrize("cls", HOLDERS, ids=[c.__name__ for c in HOLDERS])
def test_array_holders_compare_by_identity(cls):
    a = HOLDERS[cls]()
    assert cls.__eq__ is object.__eq__
    assert (a == copy.deepcopy(a)) is False
    assert a == a
    assert hash(a) == hash(a)
    assert a in [a]
    assert a in {a}


VALUES = {
    EsnParams: lambda: _PARAMS,
    ExperimentConfig: lambda: ExperimentConfig.for_benchmark("freedman"),
    EvalResult: lambda: evaluate(_DATA.inputs, _DATA.targets, washout=5),
    ResultRecord: lambda: run_experiment(
        ExperimentConfig.for_benchmark("freedman", n_reservoir=6)),
}


@pytest.mark.parametrize("cls", VALUES, ids=[c.__name__ for c in VALUES])
def test_value_objects_compare_by_value(cls):
    a = VALUES[cls]()
    assert cls.__eq__ is not object.__eq__
    assert a == copy.deepcopy(a)
