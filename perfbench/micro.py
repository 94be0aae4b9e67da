"""Layer microbenchmarks: run_reservoir and ridge_fit at fixed sizes.

Each size runs T = 1400 steps (the narma10 training length) on inputs drawn
from the run seed.  Times are medians over REPEATS calls.  Flops and bytes
per call are computed from the array shapes, not measured: bytes count
every operand read once per use and ignore caches.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from esnboost import (EsnParams, build_features, init_reservoir, ridge_fit,
                      run_reservoir)

from machine import single_blas_thread
from spans import ridge_flop

SIZES = (10, 50, 200, 500)
STEPS = 1400
REPEATS = 7


def _median_s(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def layer_microbenchmarks(seed: int) -> tuple[dict, bool]:
    """Per-size metrics, and whether the single-thread runs could pin BLAS."""
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(0.0, 1.0, (STEPS, 1))
    targets = rng.uniform(0.0, 1.0, (STEPS, 1))
    out = {}
    pinned = True
    for n in SIZES:
        res = init_reservoir(EsnParams(n_inputs=1, n_reservoir=n, seed=seed))
        feats = build_features(inputs, run_reservoir(res, inputs))
        d = feats.shape[1]
        out[f"esn.run_reservoir.us_per_step.n{n}"] = (
            _median_s(lambda: run_reservoir(res, inputs)) * 1e6 / STEPS)
        out[f"numerics.ridge_fit.ms.n{n}"] = (
            _median_s(lambda: ridge_fit(feats, targets, 1e-5)) * 1e3)
        with single_blas_thread() as ok:
            pinned = pinned and ok
            out[f"numerics.ridge_fit.ms.n{n}.t1"] = (
                _median_s(lambda: ridge_fit(feats, targets, 1e-5)) * 1e3)
        # Per step: the recurrent matvec, the input drive, add and tanh.
        out[f"esn.run_reservoir.flop_computed.n{n}"] = STEPS * (2 * n * n + 4 * n)
        out[f"esn.run_reservoir.bytes_computed.n{n}"] = STEPS * 8 * (n * n + 3 * n)
        out[f"numerics.ridge_fit.flop_computed.n{n}"] = ridge_flop(STEPS, d)
        # The augmented matrix is read for the normal matrix and again for
        # the right-hand side; the normal matrix is written and factored.
        p = d + 1
        out[f"numerics.ridge_fit.bytes_computed.n{n}"] = 8 * (2 * STEPS * p + 3 * p * p)
    return out, pinned
