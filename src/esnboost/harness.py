"""Experiment orchestration: benchmark assembly, runs, sweeps, and reports.

One :class:`ExperimentConfig` plus one seed reproduces everything: the
seed derives the data stream, every reservoir, every boosting stage, and
every ensemble member through fixed offsets.  Sweeps emit one CSV row per
grid cell; ``wall_ms`` is the only field allowed to differ between
identical reruns.
"""

from __future__ import annotations

import csv
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .boosting import (BOOST_MODES, DEFAULT_ENSEMBLE_SIZE, baseline_fit,
                       baseline_predict, boost_predict, l2boost_fit,
                       train_single_esn)
from .datasets import (NARMA_COEFFS, SUPERVISED_MARGIN, RawSeries,
                       gen_freedman, gen_henon, gen_narma, load_laser,
                       make_supervised, normalize_minmax, split)
from .errors import DataError, NumericalError, ParameterError
from .esn import EsnParams, esn_predict
from .metrics import evaluate
from .numerics import Rng

__all__ = [
    "BENCHMARK_DEFAULTS",
    "BENCHMARKS",
    "METHODS",
    "DATA_SEED_OFFSET",
    "ExperimentConfig",
    "ResultRecord",
    "RESULT_FIELDS",
    "load_benchmark",
    "run_experiment",
    "sweep",
    "write_records_csv",
    "read_records_csv",
    "summarize_records",
    "report",
    "parse_config_text",
    "build_config",
    "spectral_radius",
]

# Per-benchmark washout, ridge regularization, and split sizes.
BENCHMARK_DEFAULTS = {
    "narma10": {"washout": 200, "gamma": 1e-5, "n_train": 1400, "n_test": 2400},
    "narma30": {"washout": 200, "gamma": 1e-5, "n_train": 1600, "n_test": 2600},
    "laser": {"washout": 10, "gamma": 1e-3, "n_train": 499, "n_test": 500},
    "henon": {"washout": 100, "gamma": 1e-3, "n_train": 3995, "n_test": 795},
    "freedman": {"washout": 3, "gamma": 1e-3, "n_train": 30, "n_test": 19},
}
BENCHMARKS = tuple(BENCHMARK_DEFAULTS)

N_INPUT_UNITS = {"narma10": 1, "narma30": 1, "laser": 1, "henon": 3,
                 "freedman": 1}
NARMA_ORDER = {"narma10": 10, "narma30": 30}

METHODS = ("single", "boost", "baseline")

# Offset separating the data-generation stream from reservoir seeds, so
# seed, seed+1, ... (stages, members, repetitions) never collide with it.
DATA_SEED_OFFSET = 104729


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs; derive variants with dataclasses.replace."""

    benchmark: str
    method: str = "single"
    n_reservoir: int = 50
    n_stages: int = 6          # residual-fitting rounds (boost method)
    n_members: int = DEFAULT_ENSEMBLE_SIZE  # ensemble width (baseline method)
    gamma: float = 1e-3
    washout: int = 0
    n_train: int = 1
    n_test: int = 1
    seed: int = 0
    boost_mode: str = "fresh"
    repetitions: int = 10
    reservoir_density: float = 0.1
    noise_sigma: float = 0.05  # Henon disturbance std
    freedman_y0: float = 0.23719
    data_path: str | None = None  # laser source file

    def __post_init__(self):
        if self.benchmark not in BENCHMARK_DEFAULTS:
            raise ParameterError(
                f"unknown benchmark {self.benchmark!r}; choose from {BENCHMARKS}")
        if self.method not in METHODS:
            raise ParameterError(
                f"unknown method {self.method!r}; choose from {METHODS}")
        if self.boost_mode not in BOOST_MODES:
            raise ParameterError(
                f"unknown boost_mode {self.boost_mode!r}; choose from {BOOST_MODES}")
        if self.n_reservoir < 1:
            raise ParameterError(f"n_reservoir must be >= 1, got {self.n_reservoir}")
        if self.n_stages < 0:
            raise ParameterError(f"n_stages must be >= 0, got {self.n_stages}")
        if self.n_members < 1:
            raise ParameterError(f"n_members must be >= 1, got {self.n_members}")
        if self.gamma < 0:
            raise ParameterError(f"gamma must be >= 0, got {self.gamma}")
        if self.washout < 0:
            raise ParameterError(f"washout must be >= 0, got {self.washout}")
        if self.n_train < 1 or self.n_test < 1:
            raise ParameterError(
                f"split sizes must be >= 1, got {self.n_train}/{self.n_test}")
        if self.repetitions < 1:
            raise ParameterError(f"repetitions must be >= 1, got {self.repetitions}")
        if not 0.0 < self.reservoir_density <= 1.0:
            raise ParameterError(
                f"reservoir_density must be in (0, 1], got {self.reservoir_density}")
        if self.noise_sigma < 0:
            raise ParameterError(f"noise_sigma must be >= 0, got {self.noise_sigma}")

    @classmethod
    def for_benchmark(cls, benchmark: str, **overrides) -> "ExperimentConfig":
        """Start from the benchmark's washout/gamma/split defaults."""
        if benchmark not in BENCHMARK_DEFAULTS:
            raise ParameterError(
                f"unknown benchmark {benchmark!r}; choose from {BENCHMARKS}")
        values = dict(BENCHMARK_DEFAULTS[benchmark])
        values.update(overrides)
        return cls(benchmark=benchmark, **values)


@dataclass
class ResultRecord:
    """One CSV row.  The four error fields hold floats, or the string
    'diverged' when the cell failed; wall_ms is wall-clock and is the only
    field exempt from determinism guarantees."""

    run_id: str
    benchmark: str
    method: str
    n_reservoir: int
    M_or_K: int
    seed: int
    train_nmse: float | str
    test_nmse: float | str
    train_mse: float | str
    test_mse: float | str
    wall_ms: float


RESULT_FIELDS = tuple(f.name for f in fields(ResultRecord))
_ERROR_FIELDS = ("train_nmse", "test_nmse", "train_mse", "test_mse")
DIVERGED = "diverged"


def _data_rng(config: ExperimentConfig) -> Rng:
    return Rng(config.seed + DATA_SEED_OFFSET)


def generate_raw(config: ExperimentConfig, length: int) -> RawSeries:
    """The first ``length`` raw, unnormalized samples of the benchmark:
    generated from the config's data stream, or read from the laser file."""
    name = config.benchmark
    if name in NARMA_ORDER:
        order = NARMA_ORDER[name]
        return gen_narma(order, NARMA_COEFFS[order], length, _data_rng(config))
    if name == "henon":
        return gen_henon(length, _data_rng(config), noise_sigma=config.noise_sigma)
    if name == "freedman":
        return gen_freedman(length, y0=config.freedman_y0)
    if not config.data_path:
        raise DataError(
            "the laser benchmark reads measured data; set data_path to the "
            "intensity file")
    raw = load_laser(config.data_path)
    if len(raw) < length:
        raise DataError(
            f"laser file has {len(raw)} samples, need {length} for "
            f"{config.n_train} train + {config.n_test} test rows")
    return raw.slice(0, length)


def load_benchmark(config: ExperimentConfig):
    """Generate/load, normalize, wire, and split one benchmark.

    Returns (train, test) SeriesDatasets.  Normalization bounds come from
    the raw prefix that feeds the training rows; the test segment reuses
    them, so nothing leaks backward.
    """
    name = config.benchmark
    margin = SUPERVISED_MARGIN[name]
    raw = generate_raw(config, config.n_train + config.n_test + margin)
    fit_end = config.n_train + margin  # raw samples the training rows touch
    _, stats = normalize_minmax(raw.slice(0, fit_end))
    normalized, _ = normalize_minmax(raw, stats)
    dataset = make_supervised(normalized, name, config.washout)
    return split(dataset, config.n_train, config.n_test)


def _m_or_k(config: ExperimentConfig) -> int:
    if config.method == "boost":
        return config.n_stages
    if config.method == "baseline":
        return config.n_members
    return 0


def _run_id(config: ExperimentConfig) -> str:
    return (f"{config.benchmark}-{config.method}-ns{config.n_reservoir}"
            f"-mk{_m_or_k(config)}-s{config.seed}")


def run_experiment(config: ExperimentConfig) -> ResultRecord:
    """Train the configured method once and score train and test segments."""
    start = time.perf_counter()
    try:
        train, test = load_benchmark(config)
        params = EsnParams(n_inputs=N_INPUT_UNITS[config.benchmark],
                           n_reservoir=config.n_reservoir,
                           reservoir_density=config.reservoir_density,
                           seed=config.seed)
        if config.method == "single":
            res, readout = train_single_esn(train, params, config.gamma)
            pred_train = esn_predict(res, readout, train.inputs)
            pred_test = esn_predict(res, readout, test.inputs)
        elif config.method == "boost":
            model = l2boost_fit(train, config.n_stages, params, config.gamma,
                                mode=config.boost_mode)
            pred_train = boost_predict(model, train.inputs)
            pred_test = boost_predict(model, test.inputs)
        else:
            model = baseline_fit(train, config.n_members, params, config.gamma)
            pred_train = baseline_predict(model, train.inputs)
            pred_test = baseline_predict(model, test.inputs)
        train_eval = evaluate(pred_train, train.targets, train.washout)
        test_eval = evaluate(pred_test, test.targets, test.washout)
    except (DataError, NumericalError) as exc:
        raise type(exc)(f"{exc} [run {_run_id(config)}]") from exc
    return _record(config, (train_eval.nmse, test_eval.nmse, train_eval.mse,
                            test_eval.mse), start)


def _record(config: ExperimentConfig, errors, start: float) -> ResultRecord:
    """The row of one run: errors in _ERROR_FIELDS order, wall time since start."""
    return ResultRecord(
        run_id=_run_id(config),
        benchmark=config.benchmark,
        method=config.method,
        n_reservoir=config.n_reservoir,
        M_or_K=_m_or_k(config),
        seed=config.seed,
        **dict(zip(_ERROR_FIELDS, errors)),
        wall_ms=(time.perf_counter() - start) * 1000.0,
    )


def _cell_config(base: ExperimentConfig, n_reservoir: int, m_or_k: int,
                 repetition: int) -> ExperimentConfig:
    updates = {"n_reservoir": n_reservoir, "seed": base.seed + repetition}
    if base.method == "boost":
        updates["n_stages"] = m_or_k
    elif base.method == "baseline":
        updates["n_members"] = m_or_k
    return replace(base, **updates)


def _run_cell(config: ExperimentConfig) -> ResultRecord:
    """Sweep worker: a failed cell becomes a diverged row, never an abort."""
    start = time.perf_counter()
    try:
        return run_experiment(config)
    except (DataError, NumericalError):
        return _record(config, (DIVERGED,) * len(_ERROR_FIELDS), start)


def sweep(base: ExperimentConfig, n_reservoir_values, m_or_k_values,
          workers: int = 0) -> list[ResultRecord]:
    """Run the grid n_reservoir x m_or_k x repetitions, in that nesting order.

    Repetition r runs with seed base.seed + r.  For the single method the
    m_or_k axis is carried through the grid but does not alter the model.
    With workers > 0 cells execute in a process pool; output order is the
    deterministic grid order either way, and failed cells still produce
    their row.
    """
    ns_values = list(n_reservoir_values)
    mk_values = list(m_or_k_values)
    if not ns_values or not mk_values:
        raise ParameterError("sweep axes must be nonempty")

    configs = [_cell_config(base, ns, mk, rep)
               for ns in ns_values
               for mk in mk_values
               for rep in range(base.repetitions)]
    if workers > 0:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_cell, configs))
    return [_run_cell(cfg) for cfg in configs]


# ---------------------------------------------------------------------------
# CSV plumbing.  Floats go through repr so equality survives the round trip.

def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_records_csv(records, path_or_file) -> None:
    """Emit records to a path or an open text stream (e.g. stdout)."""
    if hasattr(path_or_file, "write"):
        _write_records(records, path_or_file)
        return
    with open(path_or_file, "w", newline="", encoding="utf-8") as fh:
        _write_records(records, fh)


def _write_records(records, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(RESULT_FIELDS)
    for rec in records:
        writer.writerow([_format_cell(getattr(rec, name))
                         for name in RESULT_FIELDS])


def read_records_csv(path) -> list[ResultRecord]:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"results file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row") from None
        for i, (expected, got) in enumerate(zip(RESULT_FIELDS, header)):
            if expected != got:
                raise DataError(
                    f"{path}: column {i + 1} is {got!r}, expected {expected!r}")
        if len(header) != len(RESULT_FIELDS):
            raise DataError(
                f"{path}: {len(header)} columns, expected {len(RESULT_FIELDS)}")
        records = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(RESULT_FIELDS):
                raise DataError(
                    f"{path}: line {lineno}: {len(row)} fields, expected "
                    f"{len(RESULT_FIELDS)}")
            values = dict(zip(RESULT_FIELDS, row))
            try:
                records.append(ResultRecord(
                    run_id=values["run_id"],
                    benchmark=values["benchmark"],
                    method=values["method"],
                    n_reservoir=int(values["n_reservoir"]),
                    M_or_K=int(values["M_or_K"]),
                    seed=int(values["seed"]),
                    train_nmse=_parse_error_cell(values["train_nmse"]),
                    test_nmse=_parse_error_cell(values["test_nmse"]),
                    train_mse=_parse_error_cell(values["train_mse"]),
                    test_mse=_parse_error_cell(values["test_mse"]),
                    wall_ms=float(values["wall_ms"]),
                ))
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: {exc}") from exc
    return records


def _parse_error_cell(text: str):
    return text if text == DIVERGED else float(text)


# ---------------------------------------------------------------------------
# Reporting: aggregate rows, emit summary/plot-data CSVs and an SVG chart.

def summarize_records(records) -> list[dict]:
    """Mean/std (population) of test NMSE per (benchmark, method, size, M_or_K)."""
    groups: dict[tuple, list] = {}
    for rec in records:
        key = (rec.benchmark, rec.method, rec.n_reservoir, rec.M_or_K)
        groups.setdefault(key, []).append(rec)
    rows = []
    for key in sorted(groups):
        recs = groups[key]
        finite = [r.test_nmse for r in recs if not isinstance(r.test_nmse, str)]
        if finite:
            mean = float(np.mean(finite))
            std = float(np.std(finite))
        else:
            mean = std = math.nan
        rows.append({
            "benchmark": key[0],
            "method": key[1],
            "n_reservoir": key[2],
            "M_or_K": key[3],
            "n_runs": len(recs),
            "n_diverged": len(recs) - len(finite),
            "mean_test_nmse": mean,
            "std_test_nmse": std,
        })
    return rows


_SUMMARY_FIELDS = ("benchmark", "method", "n_reservoir", "M_or_K", "n_runs",
                   "n_diverged", "mean_test_nmse", "std_test_nmse")


def report(csv_path, mode: str, out_dir=".", svg_path=None) -> list[Path]:
    """Digest a results CSV; returns the paths written.

    summary mode writes one aggregate CSV.  plotdata mode writes one file
    per (benchmark, method, M_or_K) curve with n_reservoir on the x axis,
    plus an SVG chart of all curves when svg_path is given.
    """
    if mode not in ("summary", "plotdata"):
        raise ParameterError(f"report mode must be summary or plotdata, got {mode!r}")
    csv_path = Path(csv_path)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = summarize_records(read_records_csv(csv_path))
    written = []

    if mode == "summary":
        out = out_dir / f"{csv_path.stem}_summary.csv"
        with open(out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_SUMMARY_FIELDS)
            for row in rows:
                writer.writerow([_format_cell(row[name])
                                 for name in _SUMMARY_FIELDS])
        written.append(out)
        return written

    curves: dict[tuple, list] = {}
    for row in rows:
        curves.setdefault((row["benchmark"], row["method"], row["M_or_K"]),
                          []).append(row)
    for key in sorted(curves):
        benchmark, method, m_or_k = key
        points = sorted(curves[key], key=lambda r: r["n_reservoir"])
        out = out_dir / f"{csv_path.stem}_curve_{benchmark}_{method}_mk{m_or_k}.csv"
        with open(out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("n_reservoir", "mean_test_nmse", "std_test_nmse"))
            for p in points:
                writer.writerow([_format_cell(p[name]) for name in
                                 ("n_reservoir", "mean_test_nmse",
                                  "std_test_nmse")])
        written.append(out)

    if svg_path is not None:
        series = {}
        for key in sorted(curves):
            label = f"{key[1]} mk={key[2]}"
            pts = [(r["n_reservoir"], r["mean_test_nmse"])
                   for r in sorted(curves[key], key=lambda r: r["n_reservoir"])
                   if not math.isnan(r["mean_test_nmse"])]
            if pts:
                series[label] = pts
        svg_path = Path(svg_path)
        svg_path.write_text(_svg_chart(series, title=f"test NMSE ({csv_path.stem})"),
                            encoding="utf-8")
        written.append(svg_path)
    return written


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
            "#17becf", "#7f7f7f")


def _svg_chart(series: dict[str, list], title: str) -> str:
    """Tiny self-contained line chart; deterministic output for fixed input."""
    width, height = 640, 480
    left, right, top, bottom = 65, 15, 35, 45
    plot_w, plot_h = width - left - right, height - top - bottom

    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    def sx(x):
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    def fmt(v):
        return format(v, ".6g")

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{title}</text>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" '
        f'stroke="black"/>',
    ]
    for i in range(5):
        fx = x_lo + (x_hi - x_lo) * i / 4
        fy = y_lo + (y_hi - y_lo) * i / 4
        px, py = sx(fx), sy(fy)
        parts.append(f'<line x1="{fmt(px)}" y1="{top + plot_h}" x2="{fmt(px)}" '
                     f'y2="{top + plot_h + 4}" stroke="black"/>')
        parts.append(f'<text x="{fmt(px)}" y="{top + plot_h + 18}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{fmt(fx)}</text>')
        parts.append(f'<line x1="{left - 4}" y1="{fmt(py)}" x2="{left}" '
                     f'y2="{fmt(py)}" stroke="black"/>')
        parts.append(f'<text x="{left - 7}" y="{fmt(py + 4)}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{fmt(fy)}</text>')
    for i, label in enumerate(sorted(series)):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{fmt(sx(x))},{fmt(sy(y))}" for x, y in series[label])
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        ly = top + 14 * i
        parts.append(f'<line x1="{left + 8}" y1="{fmt(ly + 6)}" '
                     f'x2="{left + 28}" y2="{fmt(ly + 6)}" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{left + 33}" y="{fmt(ly + 10)}" '
                     f'font-family="sans-serif" font-size="11">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Config files: flat "key = value" text.  Precedence is CLI overrides over
# file values over the benchmark defaults baked into for_benchmark.

_INT_FIELDS = {"n_reservoir", "n_stages", "n_members", "washout", "n_train",
               "n_test", "seed", "repetitions"}
_FLOAT_FIELDS = {"gamma", "reservoir_density", "noise_sigma", "freedman_y0"}
_STR_FIELDS = {"benchmark", "method", "boost_mode", "data_path"}


def parse_config_text(text: str, source: str = "config") -> dict[str, str]:
    """Parse 'key = value' lines; '#' lines and blanks are skipped."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise DataError(
                f"{source}: line {lineno}: expected 'key = value', got "
                f"{stripped!r}")
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.strip()
    return values


def build_config(values: dict[str, str]) -> ExperimentConfig:
    """Typed ExperimentConfig from string key/value pairs."""
    work = dict(values)
    benchmark = work.pop("benchmark", None)
    if benchmark is None:
        raise ParameterError("config needs a 'benchmark' entry")
    typed = {}
    for key, raw in work.items():
        try:
            if key in _INT_FIELDS:
                typed[key] = int(raw)
            elif key in _FLOAT_FIELDS:
                typed[key] = float(raw)
            elif key in _STR_FIELDS:
                typed[key] = raw
            else:
                raise ParameterError(f"unknown config key {key!r}")
        except ValueError as exc:
            raise ParameterError(f"config key {key!r}: bad value {raw!r}") from exc
    return ExperimentConfig.for_benchmark(benchmark, **typed)


def spectral_radius(reservoir) -> float:
    """Largest |eigenvalue| of the recurrent matrix.

    Reporting only: nothing in this package ever rescales weights by it.
    That is the point of the weak-network design.
    """
    return float(np.max(np.abs(np.linalg.eigvals(reservoir.w_r))))
