"""The benchmark's workloads: what one operation runs and how it is checked.

An operation ("op") is one ``run_experiment`` call, or one ``sweep`` together
with the ``write_records_csv`` and ``report`` calls that follow it.  Ops use
the library's public functions only.  Operation i of a run started with
``--seed S`` uses the op seed ``S % SEED_PERIOD + i % OPS_PER_CYCLE``, so the
recorded reference outputs (see ``make_reference.py``) cover every op a run
can make.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from esnboost import harness
from esnboost.harness import ExperimentConfig

SEED_PERIOD = 50
OPS_PER_CYCLE = 10
# Relative tolerance for every error value compared against the reference.
RTOL = 1e-9
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Results-CSV columns that are deterministic (everything but wall_ms).
ROW_FIELDS = ("run_id", "benchmark", "method", "n_reservoir", "M_or_K", "seed",
              "train_nmse", "test_nmse", "train_mse", "test_mse")
_INT_FIELDS = ("n_reservoir", "M_or_K", "seed")
_ERROR_FIELDS = ROW_FIELDS[6:]


@dataclass(frozen=True)
class Workload:
    """One workload.  Without ``sizes`` an op is a single run_experiment."""

    name: str
    base: ExperimentConfig
    sizes: tuple = ()
    m_or_k: tuple = ()

    @property
    def is_sweep(self) -> bool:
        return bool(self.sizes)

    def cells(self, op_seed: int) -> list[ExperimentConfig]:
        """Every experiment of one op, in results-row order.

        Sweep order is size, then M or K, then repetition r with seed
        op_seed + r, as the library documents it.
        """
        base = replace(self.base, seed=op_seed)
        if not self.is_sweep:
            return [base]
        count_field = "n_stages" if base.method == "boost" else "n_members"
        return [replace(base, n_reservoir=ns, seed=op_seed + rep,
                        **{count_field: mk})
                for ns in self.sizes
                for mk in self.m_or_k
                for rep in range(base.repetitions)]


def cell_key(config: ExperimentConfig) -> str:
    """Reference-table key of one experiment."""
    mk = config.n_stages if config.method == "boost" else config.n_members
    return (f"{config.benchmark}/{config.method}/{config.boost_mode}/"
            f"{config.n_reservoir}/{mk}/{config.seed}")


# Why each workload exists is recorded with its name in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="henon-boost-shared",
        base=ExperimentConfig.for_benchmark(
            "henon", method="boost", n_reservoir=200, n_stages=6,
            boost_mode="shared")),
    Workload(
        name="narma10-sweep",
        base=ExperimentConfig.for_benchmark("narma10", method="boost",
                                            repetitions=1),
        sizes=(100, 200), m_or_k=(0, 3, 6)),
)}


def op_seed(run_seed: int, i: int) -> int:
    return run_seed % SEED_PERIOD + i % OPS_PER_CYCLE


def direct_call(_name, fn, *args, **kwargs):
    """Call hook of untraced ops: no span, no wrapper."""
    return fn(*args, **kwargs)


@dataclass
class OpOutput:
    """What one op produced, gathered after its timed interval ended."""

    op_seed: int
    ms: float = 0.0
    rows: list = field(default_factory=list)  # deterministic row values
    summary: list = field(default_factory=list)
    report_files: list = field(default_factory=list)
    error: str | None = None


def _parse_value(name, text):
    if name in _INT_FIELDS:
        return int(text)
    if name in _ERROR_FIELDS:
        return text if text == "diverged" else float(text)
    return text


def read_rows(csv_path) -> list:
    """Rows of a results CSV minus wall_ms."""
    with open(csv_path, newline="", encoding="utf-8") as fh:
        return [[_parse_value(n, line[n]) for n in ROW_FIELDS]
                for line in csv.DictReader(fh)]


def run_op(wl: Workload, seed: int, work_dir: Path,
           call=direct_call) -> tuple[OpOutput, callable]:
    """Run one op; returns its output and a function that finishes it.

    The caller times only the op itself.  The returned finisher reads the
    files the op wrote, outside the timed interval.
    """
    out = OpOutput(op_seed=seed)
    base = replace(wl.base, seed=seed)
    if not wl.is_sweep:
        record = harness.run_experiment(base)

        def finish():
            out.rows = [[getattr(record, n) for n in ROW_FIELDS]]
        return out, finish

    results = work_dir / "results.csv"
    records = call("harness.sweep", harness.sweep, base, wl.sizes, wl.m_or_k)
    call("harness.write_records_csv", harness.write_records_csv, records,
         results)
    written = call("harness.report", harness.report, results, "summary",
                   out_dir=work_dir)
    written += call("harness.report", harness.report, results, "plotdata",
                    out_dir=work_dir, svg_path=work_dir / "curves.svg")

    def finish():
        out.rows = read_rows(results)
        with open(written[0], newline="", encoding="utf-8") as fh:
            out.summary = list(csv.DictReader(fh))
        out.report_files = [Path(p).name for p in written[1:]
                            if Path(p).is_file() and Path(p).stat().st_size]
    return out, finish


# ---------------------------------------------------------------------------
# Output checks against the recorded reference.

def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["rows"]


def expected_rows(wl: Workload, seed: int, reference: dict) -> list:
    rows = []
    for cfg in wl.cells(seed):
        run_id, *errors = reference[cell_key(cfg)]
        mk = cfg.n_stages if cfg.method == "boost" else cfg.n_members
        rows.append([run_id, cfg.benchmark, cfg.method, cfg.n_reservoir, mk,
                     cfg.seed, *errors])
    return rows


def _close(got, want) -> bool:
    return (not isinstance(got, str)
            and math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0))


def row_matches(got, want) -> bool:
    return (got[:6] == want[:6]
            and all(_close(g, w) for g, w in zip(got[6:], want[6:])))


def _summary_matches(wl: Workload, out: OpOutput, want_rows) -> bool:
    groups = {}
    for row in want_rows:
        groups.setdefault((row[3], row[4]), []).append(row[7])
    if len(out.summary) != len(groups):
        return False
    for got, key in zip(out.summary, sorted(groups)):
        values = groups[key]
        if ((int(got["n_reservoir"]), int(got["M_or_K"])) != key
                or int(got["n_runs"]) != len(values)
                or int(got["n_diverged"]) != 0
                or not _close(float(got["mean_test_nmse"]),
                              float(np.mean(values)))
                or not _close(float(got["std_test_nmse"]),
                              float(np.std(values)))):
            return False
    # One curve file per M value plus the SVG chart.
    return len(out.report_files) == len(wl.m_or_k) + 1


def count_failed(wl: Workload, out: OpOutput, reference: dict) -> int:
    """Experiments of the op that failed: the op raised, the row count is
    wrong, a row is diverged or off the reference, or a report is off."""
    want = expected_rows(wl, out.op_seed, reference)
    if out.error is not None or len(out.rows) != len(want):
        return len(want)
    if wl.is_sweep and not _summary_matches(wl, out, want):
        return len(want)
    return sum(not row_matches(g, w) for g, w in zip(out.rows, want))
