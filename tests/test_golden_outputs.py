"""Byte goldens of the files the package writes.

``tests/golden_outputs/`` was recorded before the term, CSV and file
reading code was consolidated: ``results.csv`` (freedman sweeps of all
three methods with ``wall_ms`` set to 2.5, some cells marked diverged and
the rows reversed), everything ``report`` writes from it, and the
``save_model`` files of a fresh, a shared and an ensemble model.  Each is
compared byte for byte, and two freedman sweep grids by the sha256 of their
results CSV without the ``wall_ms`` column.
"""

import hashlib
import io
from pathlib import Path

import pytest

from esnboost.boosting import baseline_fit, l2boost_fit, save_model
from esnboost.esn import EsnParams
from esnboost.harness import (ExperimentConfig, load_benchmark,
                              read_records_csv, report, sweep,
                              write_records_csv)

GOLDEN = Path(__file__).parent / "golden_outputs"


def test_results_csv_rewrites_identically(tmp_path):
    out = tmp_path / "results.csv"
    write_records_csv(read_records_csv(GOLDEN / "results.csv"), out)
    assert out.read_bytes() == (GOLDEN / "results.csv").read_bytes()


def test_report_files(tmp_path):
    csv_path = GOLDEN / "results.csv"
    written = report(csv_path, "summary", out_dir=tmp_path)
    written += report(csv_path, "plotdata", out_dir=tmp_path,
                      svg_path=tmp_path / "results.svg")
    names = sorted(p.name for p in written)
    expected = sorted(p.name for p in GOLDEN.iterdir()
                      if p.name != "results.csv"
                      and not p.name.startswith("model_"))
    assert names == expected
    for path in written:
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), path.name


@pytest.mark.parametrize("kind", ["fresh", "shared", "ensemble"])
def test_saved_model_files(tmp_path, kind):
    train, _ = load_benchmark(ExperimentConfig.for_benchmark("freedman"))
    params = EsnParams(n_inputs=1, n_reservoir=5, seed=3)
    if kind == "ensemble":
        model = baseline_fit(train, 3, params, 1e-3)
    else:
        model = l2boost_fit(train, 2, params, 1e-3, mode=kind)
    out = tmp_path / "model.json"
    save_model(model, out)
    assert out.read_bytes() == (GOLDEN / f"model_{kind}.json").read_bytes()


# Acceptance criterion 9's grid and demo 05's grid, keyed by their digests.
SWEEP_DIGESTS = {
    "de3419fbd1dedd0831bd759def27d4edd994d747857f2fe2b38dab4a53975174":
        (dict(repetitions=3), range(6, 13)),
    "33339a2e58dd234f67479996085ebb7a277fb98bbc51c9ca87623d2ed5cb6805":
        (dict(repetitions=5, seed=0), [6, 8, 10, 12]),
}


@pytest.mark.parametrize("digest", SWEEP_DIGESTS, ids=lambda d: d[:12])
def test_sweep_csv_digest(digest):
    overrides, sizes = SWEEP_DIGESTS[digest]
    base = ExperimentConfig.for_benchmark("freedman", method="boost",
                                          **overrides)
    buf = io.StringIO()
    write_records_csv(sweep(base, sizes, [0, 3, 6]), buf)
    text = "\n".join(line.rsplit(",", 1)[0]
                     for line in buf.getvalue().splitlines())
    assert hashlib.sha256(text.encode()).hexdigest() == digest
