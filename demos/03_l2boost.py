"""
Boosting weak reservoirs stage by stage
=======================================

Stage 0 fits the targets; every later stage fits what is still missing
(the post-washout residual of the running model).  Predictions add up
across stages, so the training error can only go down.
"""

import numpy as np

from esnboost.boosting import l2boost_fit, predict
from esnboost.esn import EsnParams
from esnboost.harness import ExperimentConfig, load_benchmark
from esnboost.metrics import evaluate

config = ExperimentConfig.for_benchmark("narma10", seed=0)
train, test = load_benchmark(config)
params = EsnParams(n_inputs=1, n_reservoir=50, seed=0)

# "fresh" mode draws a brand-new reservoir per stage (seed, seed+1, ...).
model = l2boost_fit(train, n_stages=6, params=params, gamma=config.gamma,
                    mode="fresh")

# train_sse[m] is the post-washout training SSE after stage m; the trace
# is non-increasing by construction.
print("training SSE by stage:")
for m, sse in enumerate(model.train_sse):
    print(f"  stage {m}: {sse:.6f}")

pred = predict(model, test.inputs)
print("fresh-mode test NMSE: ",
      round(evaluate(pred, test.targets, test.washout).nmse, 4))

# "shared" mode reuses one reservoir for every stage.  Each stage then
# reapplies the same ridge smoother to its own residual, so the fit
# improves for a few stages and settles onto a plateau.
shared = l2boost_fit(train, n_stages=6, params=params, gamma=config.gamma,
                     mode="shared")
print("shared-mode SSE trace:", np.round(shared.train_sse, 6))
pred = predict(shared, test.inputs)
print("shared-mode test NMSE:",
      round(evaluate(pred, test.targets, test.washout).nmse, 4))
