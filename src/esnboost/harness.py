"""Experiment orchestration: benchmark assembly, runs, sweeps, and reports.

One :class:`ExperimentConfig` plus one seed reproduces everything: the
seed derives the data stream, every reservoir, every boosting stage, and
every ensemble member through fixed offsets.  Sweeps emit one CSV row per
grid cell; ``wall_ms`` is the only field allowed to differ between
identical reruns.
"""

from __future__ import annotations

import csv
import io
import math
import os
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

# train_single_esn and the three predict functions are not called here but
# stay module attributes, as the benchmark's traced run patches them
# (perfbench/spans.py).
from .boosting import (BOOST_MODES, DEFAULT_ENSEMBLE_SIZE, baseline_fit,
                       baseline_predict, boost_predict, l2boost_fit,
                       train_single_esn)
from .datasets import (NARMA_COEFFS, RawSeries, _write_csv, gen_freedman,
                       gen_henon, gen_narma, load_laser, make_supervised,
                       normalize_minmax, read_text, split)
from .errors import DataError, NumericalError, ParameterError
from .esn import EsnParams, _predict_terms, esn_predict
from .metrics import evaluate
from .numerics import (Rng, require_choice, require_int, require_real,
                       scipy_linalg)

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

NARMA_ORDER = {"narma10": 10, "narma30": 30}

# Raw samples read beyond the supervised rows; henon's inputs read y(t-1).
SUPERVISED_MARGIN = {name: 1 + (name == "henon") for name in BENCHMARKS}

METHODS = ("single", "boost", "baseline")

# Offset separating the data-generation stream from reservoir seeds, so
# the reservoir seeds seed, seed+1, ... (stages, members) never equal the
# data seed.  Repetitions can share data, though: a NARMA driver that
# diverges is redrawn from data seed + 1, which is the data seed of
# experiment seed + 1, so experiment seeds 20 and 21 load the same narma10
# series.
DATA_SEED_OFFSET = 104729


# Inclusive lower bounds of the numeric ExperimentConfig fields that have one.
_LOWER_BOUNDS = {"n_reservoir": 1, "n_stages": 0, "n_members": 1, "gamma": 0,
                 "washout": 0, "n_train": 1, "n_test": 1, "repetitions": 1,
                 "noise_sigma": 0}


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
    data_path: str | os.PathLike | None = None  # laser source file

    def __post_init__(self):
        require_choice("benchmark", self.benchmark, BENCHMARKS)
        require_choice("method", self.method, METHODS)
        require_choice("boost_mode", self.boost_mode, BOOST_MODES)
        checks = {int: require_int, float: require_real}
        for f in fields(self):
            if type(f.default) in checks:
                checks[type(f.default)](f.name, getattr(self, f.name),
                                        _LOWER_BOUNDS.get(f.name))
        if not 0.0 < self.reservoir_density <= 1.0:
            raise ParameterError(
                f"reservoir_density must be in (0, 1], got {self.reservoir_density}")
        if not isinstance(self.data_path, (str, os.PathLike, type(None))):
            raise ParameterError(
                f"data_path must be a path or None, got {self.data_path!r}")

    @classmethod
    def for_benchmark(cls, benchmark: str, **overrides) -> "ExperimentConfig":
        """Start from the benchmark's washout/gamma/split defaults."""
        require_choice("benchmark", benchmark, BENCHMARKS)
        return cls(benchmark=benchmark,
                   **{**BENCHMARK_DEFAULTS[benchmark], **overrides})


@dataclass
class ResultRecord:
    """One CSV row.  The four error fields hold floats, or the string
    'diverged' when the cell failed.  wall_ms is the wall-clock time of
    the fit that produced the row, from loading the data to scoring, and
    is the only field exempt from determinism guarantees.  A sweep loads
    each repetition's data once, outside every row's time, fits each
    (size, repetition) group once and gives all of its rows the group's
    time, so summing wall_ms over a sweep's rows over-counts."""

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


def generate_raw(config: ExperimentConfig, length: int | None = None) -> RawSeries:
    """The first ``length`` raw samples (default: all that the n_train +
    n_test rows read), from the config's data stream or the laser file."""
    name = config.benchmark
    if length is None:
        length = config.n_train + config.n_test + SUPERVISED_MARGIN[name]
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
    return RawSeries(values=raw.values[:length])


def load_benchmark(config: ExperimentConfig):
    """Generate/load, normalize, wire, and split one benchmark.

    Returns (train, test) SeriesDatasets.  Normalization bounds come from
    the raw prefix that feeds the training rows; the test segment reuses
    them, so nothing leaks backward.
    """
    raw = generate_raw(config)
    normalized = normalize_minmax(raw, fit_end=len(raw) - config.n_test)
    dataset = make_supervised(normalized, config.washout)
    return split(dataset, config.n_train, config.n_test)


# The config field that holds a method's M or K; the single method has none.
_COUNT_FIELD = {"boost": "n_stages", "baseline": "n_members"}


def _m_or_k(config: ExperimentConfig) -> int:
    name = _COUNT_FIELD.get(config.method)
    return getattr(config, name) if name else 0


def _run_id(config: ExperimentConfig) -> str:
    return (f"{config.benchmark}-{config.method}-ns{config.n_reservoir}"
            f"-mk{_m_or_k(config)}-s{config.seed}")


def _n_terms(config: ExperimentConfig) -> int:
    """Terms of the configured model: M + 1 boosting stages, K ensemble
    members, or the one network of the single method (whose M_or_K is 0)."""
    return _m_or_k(config) + (config.method != "baseline")


def run_experiment(config: ExperimentConfig) -> ResultRecord:
    """Train the configured method once and score train and test segments.

    The training rows are scored from the fit's own predictions, so every
    reservoir runs once over the training inputs and once over the test
    inputs.  A single network is a 1-member ensemble, which is bit-equal.
    """
    start = _start()
    [errors] = _run_group([config], _load(config))
    if isinstance(errors, Exception):
        raise type(errors)(f"{errors} [run {_run_id(config)}]") from errors
    return _record(config, errors, _elapsed_ms(start))


def _load(config: ExperimentConfig):
    """load_benchmark's (train, test), or the DataError or NumericalError
    that failed it."""
    try:
        return load_benchmark(config)
    except (DataError, NumericalError) as exc:
        return exc


def _run_group(cells: list[ExperimentConfig], data) -> list:
    """Score configs that differ only in M or K, all from one fit on data,
    their (train, test) from :func:`_load`.

    Fresh stage m and ensemble member j draw from seed + m and seed + j, so
    a model with fewer terms is a prefix of one with more.  The group fits
    as many terms as its largest cell needs, and scores each cell from the
    running sums of the training and test predictions after that cell's
    number of terms; every score is bit-equal to a run of that cell alone.
    Returns each cell's errors in _ERROR_FIELDS order, or the DataError or
    NumericalError that failed it or its data.  A fit that fails at term j
    is refitted with the largest count the cells need below it, so cells
    whose prefix ends before term j keep their scores.
    """
    if isinstance(data, Exception):
        return [data] * len(cells)
    config, (train, test) = cells[0], data
    params = EsnParams(n_inputs=train.n_inputs,
                       n_reservoir=config.n_reservoir,
                       reservoir_density=config.reservoir_density,
                       seed=config.seed)
    pending = sorted({_n_terms(cell) for cell in cells})
    scores = {}
    while pending:
        n_terms = pending.pop()
        try:
            if config.method == "boost":
                model = l2boost_fit(train, n_terms - 1, params, config.gamma,
                                    mode=config.boost_mode)
            else:
                model = baseline_fit(train, n_terms, params, config.gamma)
        except (DataError, NumericalError) as exc:
            scores[n_terms] = exc
            continue
        predicted = _predict_terms(model.terms, test.inputs,
                                   average=model.average)
        for k in (*pending, n_terms):
            scores[k] = _score(model.train_fitted[k - 1], predicted[k - 1],
                               train, test)
        break
    return [scores[_n_terms(cell)] for cell in cells]


def _score(fitted, predicted, train, test):
    """Errors of one model in _ERROR_FIELDS order, or the error that failed
    its scoring."""
    try:
        train_eval = evaluate(fitted, train.targets[train.washout:])
        test_eval = evaluate(predicted, test.targets, test.washout)
    except (DataError, NumericalError) as exc:
        return exc
    return (train_eval.nmse, test_eval.nmse, train_eval.mse, test_eval.mse)


def _start() -> float:
    """The clock reading a wall_ms starts from.  It loads the ridge solver's
    scipy.linalg first, so no wall_ms holds that one-off import."""
    scipy_linalg()
    return time.perf_counter()


def _elapsed_ms(start: float) -> float:
    return (time.perf_counter() - start) * 1000.0


def _record(config: ExperimentConfig, errors, wall_ms: float) -> ResultRecord:
    """The row of one run: errors in _ERROR_FIELDS order."""
    return ResultRecord(
        run_id=_run_id(config),
        benchmark=config.benchmark,
        method=config.method,
        n_reservoir=config.n_reservoir,
        M_or_K=_m_or_k(config),
        seed=config.seed,
        **dict(zip(_ERROR_FIELDS, errors)),
        wall_ms=wall_ms,
    )


def _cell_config(base: ExperimentConfig, n_reservoir: int, m_or_k: int,
                 repetition: int) -> ExperimentConfig:
    updates = {"n_reservoir": n_reservoir, "seed": base.seed + repetition}
    if base.method in _COUNT_FIELD:
        updates[_COUNT_FIELD[base.method]] = m_or_k
    return replace(base, **updates)


def _sweep_group(cells: list[ExperimentConfig], data) -> list[ResultRecord]:
    """Sweep worker: the rows of one (size, repetition) group, fitted on its
    repetition's data.  A failed cell becomes a diverged row, never an
    abort; every row reports the group's wall time."""
    start = _start()
    outcomes = _run_group(cells, data)
    wall_ms = _elapsed_ms(start)
    return [_record(cell, (DIVERGED,) * len(_ERROR_FIELDS)
                    if isinstance(errors, Exception) else errors, wall_ms)
            for cell, errors in zip(cells, outcomes)]


def sweep(base: ExperimentConfig, n_reservoir_values, m_or_k_values,
          workers: int = 0) -> list[ResultRecord]:
    """Run the grid n_reservoir x m_or_k x repetitions, in that nesting order.

    Repetition r runs with seed base.seed + r.  For the single method the
    m_or_k axis is carried through the grid but does not alter the model.
    Each (size, repetition) group is fitted once, with as many terms as its
    largest M or K needs, and all of its cells are scored from that fit
    (see _run_group); so every row of a group reports the group's wall
    time, and summing wall_ms over rows over-counts.  The data depend on
    the seed, not the size, so each repetition's series is loaded once,
    before any group runs, and every size fits on it; a row's wall_ms
    covers its group's fit and scoring but not that load, and a load that
    fails makes every row of its repetition diverged.  With workers > 0
    the groups run in a pool of at most that many processes; output order
    is the deterministic grid order either way, and failed cells still
    produce their row.
    """
    ns_values = list(n_reservoir_values)
    mk_values = list(m_or_k_values)
    if not ns_values or not mk_values:
        raise ParameterError("sweep axes must be nonempty")
    require_int("workers", workers, 0)

    reps = base.repetitions
    groups = [[_cell_config(base, ns, mk, rep) for mk in mk_values]
              for ns in ns_values for rep in range(reps)]
    # groups run size-major: the first size's groups load one series per
    # repetition, and the groups of every other size reuse them in order
    data = [_load(cells[0]) for cells in groups[:reps]] * len(ns_values)
    if workers > 0:
        # only a parallel sweep needs the pool, so only it pays the import
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(workers, len(groups))) as pool:
            rows = list(pool.map(_sweep_group, groups, data))
    else:
        rows = list(map(_sweep_group, groups, data))
    return [rows[i * reps + rep][j]
            for i in range(len(ns_values))
            for j in range(len(mk_values))
            for rep in range(reps)]


# ---------------------------------------------------------------------------
# Results CSV: one row per ResultRecord, in RESULT_FIELDS order.

def write_records_csv(records, path_or_file) -> None:
    """Emit records to a path or an open text stream (e.g. stdout)."""
    _write_csv(path_or_file, RESULT_FIELDS,
               ([getattr(rec, name) for name in RESULT_FIELDS]
                for rec in records))


def _parse_error_cell(text: str):
    return text if text == DIVERGED else float(text)


# Parser of each ResultRecord field from its CSV text; str if not listed.
_RECORD_PARSERS = {"n_reservoir": int, "M_or_K": int, "seed": int,
                   "wall_ms": float,
                   **dict.fromkeys(_ERROR_FIELDS, _parse_error_cell)}


def read_records_csv(path) -> list[ResultRecord]:
    reader = csv.reader(io.StringIO(read_text(path, "results file")))
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
        try:
            records.append(ResultRecord(**{
                name: _RECORD_PARSERS.get(name, str)(text)
                for name, text in zip(RESULT_FIELDS, row)}))
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from exc
    return records


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
            with np.errstate(invalid="ignore"):  # an inf NMSE has nan spread
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
_CURVE_FIELDS = ("n_reservoir", "mean_test_nmse", "std_test_nmse")


def report(csv_path, mode: str, out_dir=".", svg_path=None) -> list[Path]:
    """Digest a results CSV; returns the paths written.

    summary mode writes one aggregate CSV.  plotdata mode writes one file
    per (benchmark, method, M_or_K) curve with n_reservoir on the x axis,
    plus an SVG chart of all curves when svg_path is given; its curve
    labels name the benchmark when the CSV holds more than one, and it
    leaves out points whose mean test NMSE is nan or infinite.
    """
    require_choice("mode", mode, ("summary", "plotdata"))
    if mode == "summary" and svg_path is not None:
        raise ParameterError("an SVG chart needs report mode plotdata, not summary")
    csv_path = Path(csv_path)
    out_dir = Path(out_dir)
    rows = summarize_records(read_records_csv(csv_path))
    # benchmark and method name the curve files, so only known names pass
    for row in rows:
        for key, names in (("benchmark", BENCHMARKS), ("method", METHODS)):
            if row[key] not in names:
                raise DataError(f"{csv_path}: unknown {key} {row[key]!r}")
    out_dir.mkdir(parents=True, exist_ok=True)

    if mode == "summary":
        out = out_dir / f"{csv_path.stem}_summary.csv"
        _write_csv(out, _SUMMARY_FIELDS,
                   ([row[name] for name in _SUMMARY_FIELDS] for row in rows))
        return [out]

    # rows come sorted by n_reservoir within a curve
    curves: dict[tuple, list] = {}
    for row in rows:
        curves.setdefault((row["benchmark"], row["method"], row["M_or_K"]),
                          []).append(row)
    several = len({benchmark for benchmark, _, _ in curves}) > 1
    written, series = [], {}
    for key in sorted(curves):
        benchmark, method, m_or_k = key
        out = out_dir / f"{csv_path.stem}_curve_{benchmark}_{method}_mk{m_or_k}.csv"
        _write_csv(out, _CURVE_FIELDS,
                   ([p[name] for name in _CURVE_FIELDS] for p in curves[key]))
        written.append(out)
        pts = [(p["n_reservoir"], p["mean_test_nmse"]) for p in curves[key]
               if math.isfinite(p["mean_test_nmse"])]
        if pts:
            label = f"{method} mk={m_or_k}"
            series[f"{benchmark} {label}" if several else label] = pts

    if svg_path is not None:
        svg_path = Path(svg_path)
        svg_path.write_text(_svg_chart(series, title=f"test NMSE ({csv_path.stem})"),
                            encoding="utf-8")
        written.append(svg_path)
    return written


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
            "#17becf", "#7f7f7f")


def _svg_text(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


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
        f'font-family="sans-serif" font-size="13">{_svg_text(title)}</text>',
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
                     f'font-family="sans-serif" font-size="11">{_svg_text(label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Config files: flat "key = value" text.  Precedence is CLI overrides over
# file values over the benchmark defaults baked into for_benchmark.

# Parser of each config key: the type of its field's default, else str.
_CONFIG_PARSERS = {f.name: type(f.default)
                   if isinstance(f.default, (int, float)) else str
                   for f in fields(ExperimentConfig)}


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
        if key not in _CONFIG_PARSERS:
            raise ParameterError(f"unknown config key {key!r}")
        try:
            typed[key] = _CONFIG_PARSERS[key](raw)
        except ValueError as exc:
            raise ParameterError(f"config key {key!r}: bad value {raw!r}") from exc
    return ExperimentConfig.for_benchmark(benchmark, **typed)


def spectral_radius(reservoir) -> float:
    """Largest |eigenvalue| of the recurrent matrix.

    Reporting only: nothing in this package ever rescales weights by it.
    That is the point of the weak-network design.
    """
    return float(np.max(np.abs(np.linalg.eigvals(reservoir.w_r))))
