"""
Sweeps, results CSV, and reports
================================

A sweep runs a reservoir-size x stage-count grid with several seeded
repetitions per cell and writes one CSV row per run.  Reports aggregate
that CSV into a summary table or per-curve plot data with an optional
SVG chart.  The same artifacts are available from the command line via
``esnboost sweep`` and ``esnboost report``.
"""

import tempfile
from pathlib import Path

from esnboost.harness import (ExperimentConfig, report, summarize_records,
                              sweep, write_records_csv)

# Repetition r of a cell runs with seed base.seed + r, so one base seed
# pins the entire grid.
base = ExperimentConfig.for_benchmark("freedman", method="boost",
                                      repetitions=5, seed=0)
records = sweep(base, n_reservoir_values=[6, 8, 10, 12],
                m_or_k_values=[0, 3, 6])
print("sweep produced", len(records), "rows (4 sizes x 3 stage counts x 5 "
      "repetitions)")

# Every file goes into a temporary directory, which is removed when the
# demo is done with it.
with tempfile.TemporaryDirectory(prefix="esnboost_demo_") as tmp:
    out_dir = Path(tmp)
    results_csv = out_dir / "results.csv"
    write_records_csv(records, results_csv)
    print("wrote", results_csv.name)

    # summarize_records groups by (benchmark, method, size, stages) and gives
    # mean/std of the test error; failed cells are counted, not averaged.
    print("\nmean test NMSE by cell:")
    for row in summarize_records(records):
        print(f"  size {row['n_reservoir']:>2}  stages {row['M_or_K']}: "
              f"{row['mean_test_nmse']:.4f} +- {row['std_test_nmse']:.4f}")

    # report() re-reads the CSV like the CLI does and writes the artifacts.
    written = report(results_csv, mode="summary", out_dir=out_dir)
    written += report(results_csv, mode="plotdata", out_dir=out_dir,
                      svg_path=out_dir / "curves.svg")
    print("\nreport artifacts:")
    for path in written:
        print(f"  {Path(path).name} ({Path(path).stat().st_size} bytes)")
