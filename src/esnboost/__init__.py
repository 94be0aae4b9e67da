"""Boosted weak echo state networks for time-series regression.

The package trains echo state networks whose random reservoir weights are
used exactly as drawn, with no spectral-radius scaling, and recovers
accuracy by combining many of them: residual boosting (an initial
least-squares stage plus stages fitted to the running residuals) or plain
prediction averaging.  A harness reproduces the benchmark protocol the
design targets: NARMA-10/30, the Santa Fe laser series, the noisy Henon
map, and Freedman's tent map.
"""

from .errors import DataError, NumericalError, ParameterError
from .numerics import Readout, Rng, ridge_fit, uniform_matrix
from .esn import (EsnParams, Reservoir, build_features, esn_predict,
                  init_reservoir, run_reservoir)
from .datasets import (NARMA_COEFFS, RawSeries, SeriesDataset, dataset_to_csv,
                       gen_freedman, gen_henon, gen_narma, load_laser,
                       make_supervised, normalize_minmax, split)
from .metrics import EvalResult, evaluate
from .boosting import (BoostModel, EnsembleModel, baseline_fit,
                       baseline_predict, boost_predict, l2boost_fit,
                       load_model, save_model, train_single_esn)
from .harness import (BENCHMARK_DEFAULTS, BENCHMARKS, ExperimentConfig,
                      ResultRecord, load_benchmark, read_records_csv, report,
                      run_experiment, spectral_radius, summarize_records,
                      sweep, write_records_csv)

__version__ = "0.1.0"

__all__ = [
    "ParameterError", "DataError", "NumericalError",
    "Rng", "Readout", "uniform_matrix", "ridge_fit",
    "EsnParams", "Reservoir", "init_reservoir", "run_reservoir",
    "build_features", "esn_predict",
    "RawSeries", "SeriesDataset", "NARMA_COEFFS",
    "gen_narma", "gen_henon", "gen_freedman", "load_laser",
    "normalize_minmax", "make_supervised", "split",
    "dataset_to_csv",
    "EvalResult", "evaluate",
    "BoostModel", "EnsembleModel", "train_single_esn",
    "l2boost_fit", "boost_predict", "baseline_fit", "baseline_predict",
    "save_model", "load_model",
    "BENCHMARK_DEFAULTS", "BENCHMARKS", "ExperimentConfig", "ResultRecord",
    "load_benchmark", "run_experiment", "sweep", "write_records_csv",
    "read_records_csv", "summarize_records", "report", "spectral_radius",
    "__version__",
]
