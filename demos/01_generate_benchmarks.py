"""
Generating the benchmark series
===============================

Every synthetic benchmark comes from a seeded generator, so the same seed
always reproduces the same series.  The laser benchmark is the one
exception: it is a measured recording loaded from a file, not generated.
"""

import tempfile
from pathlib import Path

import numpy as np

from esnboost.datasets import (NARMA_COEFFS, dataset_to_csv, gen_freedman,
                               gen_henon, gen_narma, make_supervised)
from esnboost.numerics import Rng

# The NARMA family is driven by uniform noise on [0, 0.5].  Order 10 and
# order 30 use different coefficient sets; both live in NARMA_COEFFS.
narma10 = gen_narma(10, NARMA_COEFFS[10], length=200, rng=Rng(0))
print("NARMA-10 first five values:", np.round(narma10.values[:5], 6))
print("NARMA-10 driver range:     ",
      (round(float(narma10.driver.min()), 4),
       round(float(narma10.driver.max()), 4)))

# The Henon map with observation noise: the clean orbit stays on the
# attractor and the Gaussian disturbance is added to the emitted values.
# The drawn noise is kept on the series so supervised wiring can feed the
# disturbance of the next step to the model as an input.
henon = gen_henon(length=200, rng=Rng(0), noise_sigma=0.05)
print("Henon value range:         ",
      (round(float(henon.values.min()), 3),
       round(float(henon.values.max()), 3)))
print("Henon noise std (drawn):   ", round(float(henon.noise.std()), 4))

# The tent-map variant is fully deterministic: one initial condition,
# no driver, no noise.
tent = gen_freedman(length=50, y0=0.23719)
print("tent map first four values:", np.round(tent.values[:4], 6))

# make_supervised turns a raw series into aligned (inputs, targets) rows;
# dataset_to_csv writes them with a t,x_*,y_* header.  The file goes into a
# temporary directory, which is removed when the demo is done with it.
dataset = make_supervised(tent, "freedman", washout=3)
with tempfile.TemporaryDirectory() as tmp:
    csv_path = Path(tmp) / "freedman_demo.csv"
    dataset_to_csv(dataset, csv_path)
    print("wrote", dataset.rows, "supervised rows; the first three lines:")
    for line in csv_path.read_text().splitlines()[:3]:
        print("  ", line)
