"""The library's runs and sweep rows agree with an independent reference.

tests/reference_model.py restates the README's contract of a run in plain
numpy: the draw order, seed + j for term j, shared boosting reusing term 0,
residuals on post-washout rows, the ensemble mean, a test pass from the
zero state, and NMSE.  Its ridge fits solve by LU and its reservoir passes
step one row at a time, so the two agree to rounding, not to the bit; at
N <= 40 over a few hundred rows the unscaled reservoirs' chaos keeps that
rounding far below the tolerance.
"""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esnboost import ExperimentConfig, run_experiment, sweep

from reference_model import reference_errors

RTOL = 1e-9

# Short splits keep each example to a few milliseconds; freedman's
# defaults are short already.
SPLITS = {"narma10": {"n_train": 300, "n_test": 200, "washout": 50},
          "henon": {"n_train": 300, "n_test": 200, "washout": 50},
          "freedman": {}}
VARIANTS = {"single": {"method": "single"},
            "fresh": {"method": "boost", "boost_mode": "fresh"},
            "shared": {"method": "boost", "boost_mode": "shared"},
            "baseline": {"method": "baseline"}}


def make_config(benchmark, variant, **overrides):
    return ExperimentConfig.for_benchmark(
        benchmark, **SPLITS[benchmark], **VARIANTS[variant], **overrides)


def n_terms(config, m_or_k):
    return {"single": 1, "boost": m_or_k + 1,
            "baseline": m_or_k}[config.method]


def assert_matches(record, expected):
    np.testing.assert_allclose(astuple(record)[6:10], expected, rtol=RTOL)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), benchmark=st.sampled_from(sorted(SPLITS)),
       variant=st.sampled_from(sorted(VARIANTS)),
       n_reservoir=st.integers(1, 40), seed=st.integers(0, 1000))
def test_run_and_sweep_rows_match_reference(data, benchmark, variant,
                                            n_reservoir, seed):
    lowest = 1 if variant == "baseline" else 0
    highest = 0 if variant == "single" else 4  # single has no M or K
    counts = sorted(data.draw(st.sets(st.integers(lowest, highest), min_size=1,
                                      max_size=3), label="counts"))
    count = max(counts)
    config = make_config(benchmark, variant, n_reservoir=n_reservoir,
                         n_stages=count, n_members=max(count, 1), seed=seed,
                         repetitions=1)
    expected = reference_errors(config)
    assert_matches(run_experiment(config), expected[-1])
    # cells with fewer terms than the group's fit score from its prefixes
    for row in sweep(config, [n_reservoir], counts):
        assert_matches(row, expected[n_terms(config, row.M_or_K) - 1])


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_pooled_sweep_rows_match_reference(variant):
    base = make_config("henon", variant, seed=3, repetitions=2)
    # the single method has no M or K, so its one cell has M_or_K 0
    m_or_k = [0] if variant == "single" else [1, 3]
    rows = sweep(base, [5, 17], m_or_k, workers=2)
    assert len(rows) == 2 * 2 * len(m_or_k)
    for row in rows:
        config = make_config("henon", variant, n_reservoir=row.n_reservoir,
                             n_stages=3, n_members=3, seed=row.seed)
        assert_matches(row, reference_errors(config)[
            n_terms(config, row.M_or_K) - 1])
