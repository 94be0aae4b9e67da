"""
A single weak echo state network
================================

The reservoirs here are deliberately weak: input and recurrent weights are
drawn once from uniform ranges and never rescaled.  No spectral-radius
tuning happens anywhere; the spectral radius is computed below only to
show what the raw draw produced.
"""

import numpy as np

from esnboost.boosting import baseline_fit, predict
from esnboost.esn import EsnParams
from esnboost.harness import ExperimentConfig, load_benchmark, spectral_radius
from esnboost.metrics import evaluate

# Benchmark defaults (washout, ridge strength, split sizes) come from
# ExperimentConfig.for_benchmark; here we only pick the seed.
config = ExperimentConfig.for_benchmark("narma10", seed=0)
train, test = load_benchmark(config)
print("train rows:", train.rows, " test rows:", test.rows,
      " washout:", train.washout)

# A 50-unit reservoir over a 1-input series.  The readout is the only
# trained part: one ridge regression on [inputs | states].  A single
# network is a one-member ensemble, whose one term is that pair.
params = EsnParams(n_inputs=1, n_reservoir=50, seed=0)
single = baseline_fit(train, 1, params, gamma=config.gamma)
[(reservoir, readout)] = single.terms

# The recurrent draw is untouched, so its spectral radius is whatever the
# uniform sample happened to give (often near or above 1).
print("spectral radius of the raw draw:",
      round(spectral_radius(reservoir), 4))

for name, split in (("train", train), ("test", test)):
    pred = predict(single, split.inputs)
    result = evaluate(pred, split.targets, washout=split.washout)
    print(f"{name}: NMSE {result.nmse:.4f}  NRMSE {result.nrmse:.4f} "
          f"over {result.n_evaluated} rows")

# Different seeds give different reservoirs and noticeably different
# errors; that spread is the weakness boosting will average away.
errors = []
for seed in range(5):
    other = baseline_fit(train, 1, EsnParams(n_inputs=1, n_reservoir=50,
                                             seed=seed), config.gamma)
    pred = predict(other, test.inputs)
    errors.append(evaluate(pred, test.targets, test.washout).nmse)
print("test NMSE across five seeds:", np.round(errors, 3))
