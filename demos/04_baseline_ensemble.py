"""
The averaging-ensemble baseline
===============================

The standard cure for unstable random reservoirs is to train K of them
independently and average their predictions.  This is the baseline the
boosted model is compared against.
"""

import numpy as np

from esnboost.boosting import (EnsembleModel, baseline_fit, l2boost_fit,
                               predict)
from esnboost.esn import EsnParams
from esnboost.harness import ExperimentConfig, load_benchmark
from esnboost.metrics import evaluate

config = ExperimentConfig.for_benchmark("narma10", seed=0)
train, test = load_benchmark(config)
params = EsnParams(n_inputs=1, n_reservoir=50, seed=0)


def test_nmse(pred):
    return evaluate(pred, test.targets, washout=test.washout).nmse


# Members use seeds seed, seed+1, ..., seed+K-1; each is a full ESN fit.
for k in (1, 5, 30):
    ensemble = baseline_fit(train, n_members=k, params=params,
                            gamma=config.gamma)
    err = test_nmse(predict(ensemble, test.inputs))
    print(f"ensemble K={k:>2}: test NMSE {err:.4f}")

# Averaging reduces variance but each member still fits the full target
# alone.  Boosting spends its networks sequentially on what is left over,
# which usually buys more per network.
boost = l2boost_fit(train, n_stages=6, params=params, gamma=config.gamma)
print(f"boost    M= 6: test NMSE "
      f"{test_nmse(predict(boost, test.inputs)):.4f}")

# The member predictions themselves show the spread the average removes;
# each member alone is a one-member ensemble.
ensemble = baseline_fit(train, n_members=5, params=params, gamma=config.gamma)
member_errors = [test_nmse(predict(EnsembleModel(terms=[term]), test.inputs))
                 for term in ensemble.terms]
print("individual member NMSEs:", np.round(member_errors, 3))
