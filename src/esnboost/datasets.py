"""Benchmark series generation and supervised dataset assembly.

Four benchmark families are covered:

* fixed k-th order NARMA, driven by a uniform input sequence,
* the Henon map with additive Gaussian noise,
* Freedman's tent map,
* the Santa Fe laser intensity recording, loaded from a text file.

Generators return raw channels; :func:`make_supervised` wires them into
one-step-ahead input/target rows, and :func:`split` carves out contiguous
train and test segments that both keep their washout length.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, ParameterError
from .numerics import Rng, as_2d

__all__ = [
    "RawSeries",
    "SeriesDataset",
    "NormStats",
    "NARMA_COEFFS",
    "gen_narma",
    "gen_henon",
    "gen_freedman",
    "load_laser",
    "normalize_minmax",
    "denormalize_minmax",
    "make_supervised",
    "split",
    "dataset_to_csv",
]

# Recurrence coefficients (a1, a2, a3, a4) for the supported NARMA orders.
NARMA_COEFFS = {
    10: (0.3, 0.05, 1.5, 0.1),
    30: (0.2, 0.004, 1.5, 0.001),
}

# Extra raw samples a task consumes beyond the supervised row count.
SUPERVISED_MARGIN = {
    "narma10": 1,
    "narma30": 1,
    "laser": 1,
    "freedman": 1,
    "henon": 2,
}

_DIVERGENCE_LIMIT = 1e3
_MAX_REGEN = 10


@dataclass
class RawSeries:
    """A scalar series plus the auxiliary channels that produced it.

    ``driver`` holds the NARMA input sequence s(t), ``noise`` the Henon
    disturbance z(t); both are None for tasks that do not have them.
    """

    values: np.ndarray
    driver: np.ndarray | None = None
    noise: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise ParameterError("RawSeries values must be one-dimensional")
        for name in ("driver", "noise"):
            chan = getattr(self, name)
            if chan is None:
                continue
            chan = np.asarray(chan, dtype=float)
            if chan.shape != self.values.shape:
                raise ParameterError(
                    f"{name} length {chan.shape} does not match values "
                    f"{self.values.shape}")
            setattr(self, name, chan)
        for name, chan in zip(("values", "driver", "noise"), self.channels(pad=True)):
            if chan is not None and not np.isfinite(chan).all():
                raise DataError(f"RawSeries {name} contains non-finite entries")

    def channels(self, pad: bool = False) -> list[np.ndarray | None]:
        """Present channels in fixed order; with pad=True, None placeholders stay."""
        chans = [self.values, self.driver, self.noise]
        return chans if pad else [c for c in chans if c is not None]

    def slice(self, start: int, stop: int) -> "RawSeries":
        return RawSeries(
            values=self.values[start:stop].copy(),
            driver=None if self.driver is None else self.driver[start:stop].copy(),
            noise=None if self.noise is None else self.noise[start:stop].copy(),
        )

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass
class SeriesDataset:
    """Aligned supervised rows with the transient prefix length attached.

    The first ``washout`` rows exist only to flush reservoir state; they
    are excluded from every fit and every error measure.
    """

    inputs: np.ndarray   # (rows, n_inputs)
    targets: np.ndarray  # (rows, n_outputs)
    washout: int
    name: str = ""

    def __post_init__(self):
        self.inputs = as_2d(self.inputs)
        self.targets = as_2d(self.targets)
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ParameterError(
                f"row mismatch: {self.inputs.shape[0]} input rows vs "
                f"{self.targets.shape[0]} target rows")
        if not 0 <= self.washout < self.inputs.shape[0]:
            raise ParameterError(
                f"washout {self.washout} must be in [0, rows={self.inputs.shape[0]})")

    @property
    def rows(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.inputs.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.targets.shape[1]


@dataclass(frozen=True)
class NormStats:
    """Per-channel min/max captured on the fitting segment."""

    mins: tuple[float, ...]
    maxs: tuple[float, ...]

    def __post_init__(self):
        if len(self.mins) != len(self.maxs):
            raise ParameterError("mins and maxs differ in length")
        for lo, hi in zip(self.mins, self.maxs):
            if lo > hi:
                raise ParameterError(f"min {lo} exceeds max {hi}")


def gen_narma(k: int, alphas, length: int, rng: Rng, driver=None) -> RawSeries:
    """Simulate b(t+1) = a1 b(t) + a2 b(t) sum_{i<k} b(t-i) + a3 s(t-k+1) s(t) + a4.

    The driver s is drawn Unif[0, 0.5] unless one is supplied.  All history
    before t = 0, for both b and s, counts as zero, so b(0) = 0 and the
    first k steps run on a short window.  If |b| ever exceeds 1e3 a fresh
    driver is drawn from the next derived seed, up to 10 attempts.
    """
    if k < 1:
        raise ParameterError(f"order k must be >= 1, got {k}")
    if length <= k:
        raise ParameterError(f"length {length} must exceed the order {k}")
    if len(alphas) != 4:
        raise ParameterError("alphas must have exactly four entries")

    if driver is not None:
        s = np.asarray(driver, dtype=float)
        if s.shape != (length,):
            raise ParameterError(f"driver must have shape ({length},), got {s.shape}")
        b = _narma_recurrence(k, alphas, s)
        if b is None:
            raise DataError(f"NARMA order {k} diverged with the supplied driver")
        return RawSeries(values=b, driver=s.copy())

    for attempt in range(_MAX_REGEN):
        r = rng if attempt == 0 else rng.derive(attempt)
        s = r.uniform(0.0, 0.5, length)
        b = _narma_recurrence(k, alphas, s)
        if b is not None:
            return RawSeries(values=b, driver=s)
    raise DataError(
        f"NARMA order {k} diverged on {_MAX_REGEN} consecutive driver draws "
        f"(seed {rng.seed})")


def _narma_recurrence(k, alphas, s):
    """Run the recurrence; None signals divergence (|b| > 1e3)."""
    a1, a2, a3, a4 = alphas
    length = s.shape[0]
    b = np.zeros(length)
    window = 0.0  # rolling sum of the most recent k values of b
    for t in range(length - 1):
        window += b[t]
        if t - k >= 0:
            window -= b[t - k]
        s_lag = s[t - k + 1] if t - k + 1 >= 0 else 0.0
        b[t + 1] = a1 * b[t] + a2 * b[t] * window + a3 * s_lag * s[t] + a4
        if abs(b[t + 1]) > _DIVERGENCE_LIMIT:
            return None
    return b


def gen_henon(length: int, rng: Rng, noise_sigma: float = 0.05,
              y_init=(0.0, 0.0), noise_in_state: bool = False) -> RawSeries:
    """Henon series y(t+1) = 1 - 1.4 y(t)^2 + 0.3 y(t-1) + z(t+1), z ~ N(0, sigma).

    noise_sigma is a standard deviation.  By default the map is iterated
    noise-free and z is added to the emitted series (observation noise):
    in-state Gaussian noise kicks the orbit out of the attractor basin
    within a few dozen steps at sigma 0.05, so series of benchmark length
    would never finish.  Set noise_in_state=True for the literal in-state
    reading; that variant retries with derived seeds on divergence, like
    gen_narma.  The noise channel is stored either way so the supervised
    wiring can expose z(t+1) as an input.
    """
    if length < 3:
        raise ParameterError(f"length must be >= 3, got {length}")

    if noise_in_state:
        for attempt in range(_MAX_REGEN):
            r = rng if attempt == 0 else rng.derive(attempt)
            z = r.gaussian(0.0, noise_sigma, length)
            y = np.empty(length)
            y[0], y[1] = y_init
            diverged = False
            for t in range(1, length - 1):
                y[t + 1] = 1.0 - 1.4 * y[t] ** 2 + 0.3 * y[t - 1] + z[t + 1]
                if abs(y[t + 1]) > _DIVERGENCE_LIMIT:
                    diverged = True
                    break
            if not diverged:
                return RawSeries(values=y, noise=z)
        raise DataError(
            f"Henon map diverged on {_MAX_REGEN} consecutive in-state noise "
            f"draws (seed {rng.seed}, sigma {noise_sigma})")

    z = rng.gaussian(0.0, noise_sigma, length)
    clean = np.empty(length)
    clean[0], clean[1] = y_init
    for t in range(1, length - 1):
        clean[t + 1] = 1.0 - 1.4 * clean[t] ** 2 + 0.3 * clean[t - 1]
        if abs(clean[t + 1]) > _DIVERGENCE_LIMIT:
            # Deterministic escape: retrying with fresh noise cannot help.
            raise DataError(
                f"noise-free Henon orbit diverged from y_init={y_init}; "
                f"start inside the attractor basin")
    return RawSeries(values=clean + z, noise=z)


def gen_freedman(length: int, y0: float = 0.23719) -> RawSeries:
    """Iterate the tent map y(t+1) = 2 y(t) if y(t) <= 0.5 else 2 - 2 y(t)."""
    if not 0.0 <= y0 <= 1.0:
        raise ParameterError(f"y0 must lie in [0, 1], got {y0}")
    if length < 1:
        raise ParameterError(f"length must be >= 1, got {length}")
    y = np.empty(length)
    y[0] = y0
    for t in range(length - 1):
        y[t + 1] = 2.0 * y[t] if y[t] <= 0.5 else 2.0 - 2.0 * y[t]
    return RawSeries(values=y)


def read_text(path, what: str) -> str:
    """The UTF-8 text of a file the user named; ``what`` names it in the
    DataError raised when it is missing, unreadable or not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise DataError(f"cannot read {what} {path}: not found") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc


def load_laser(path) -> RawSeries:
    """Read a laser intensity file: one number per line, blank lines skipped."""
    values = []
    for lineno, line in enumerate(read_text(path, "laser data file").split("\n"),
                                  start=1):
        text = line.strip()
        if not text:
            continue
        try:
            values.append(float(text))
        except ValueError as exc:
            raise DataError(
                f"{path}: line {lineno}: not a number: {text!r}") from exc
    if not values:
        raise DataError(f"{path}: no data lines")
    return RawSeries(values=np.array(values))


def normalize_minmax(series: RawSeries, stats: NormStats | None = None):
    """Affinely map each channel so the fitting segment spans [0, 1].

    When stats is supplied those bounds are reused (the test-set case) and
    outputs may leave [0, 1].  Otherwise bounds come from the series itself
    and a constant channel is an error.  Returns (normalized, stats).
    """
    channels = series.channels()
    if stats is None:
        mins = tuple(float(c.min()) for c in channels)
        maxs = tuple(float(c.max()) for c in channels)
        stats = NormStats(mins=mins, maxs=maxs)
    elif len(stats.mins) != len(channels):
        raise ParameterError(
            f"stats cover {len(stats.mins)} channels, series has {len(channels)}")
    scaled = []
    for i, (chan, lo, hi) in enumerate(zip(channels, stats.mins, stats.maxs)):
        if hi == lo:
            raise DataError(f"channel {i} is constant ({lo}); cannot normalize")
        scaled.append((chan - lo) / (hi - lo))
    return _with_channels(series, scaled), stats


def denormalize_minmax(series: RawSeries, stats: NormStats) -> RawSeries:
    """Invert :func:`normalize_minmax` with the same stats."""
    channels = series.channels()
    if len(stats.mins) != len(channels):
        raise ParameterError(
            f"stats cover {len(stats.mins)} channels, series has {len(channels)}")
    restored = [chan * (hi - lo) + lo
                for chan, lo, hi in zip(channels, stats.mins, stats.maxs)]
    return _with_channels(series, restored)


def _with_channels(series, new_channels):
    it = iter(new_channels)
    values = next(it)
    driver = next(it) if series.driver is not None else None
    noise = next(it) if series.noise is not None else None
    return RawSeries(values=values, driver=driver, noise=noise)


def make_supervised(series: RawSeries, task: str, washout: int) -> SeriesDataset:
    """Wire a raw series into one-step-ahead (inputs, targets) rows.

    narma*:    x(t) = [s(t)]                   y(t) = b(t+1)
    laser,
    freedman:  x(t) = [y(t)]                   y(t) = y(t+1)
    henon:     x(t) = [y(t), y(t-1), z(t+1)]   y(t) = y(t+1)

    The Henon wiring feeds the model the disturbance that enters the next
    target, so its three input units see the two latest map values and the
    current noise.
    """
    if task not in SUPERVISED_MARGIN:
        raise ParameterError(f"unknown task {task!r}")
    v = series.values
    length = len(v)
    margin = SUPERVISED_MARGIN[task]
    if length < washout + 1 + margin:
        raise DataError(
            f"series too short for {task}: {length} samples cannot cover "
            f"washout {washout} plus one usable row")

    if task.startswith("narma"):
        if series.driver is None:
            raise ParameterError("narma wiring needs the driver channel")
        inputs = series.driver[:length - 1][:, None]
        targets = v[1:][:, None]
    elif task == "henon":
        if series.noise is None:
            raise ParameterError("henon wiring needs the noise channel")
        z = series.noise
        inputs = np.column_stack([v[1:length - 1], v[0:length - 2], z[2:length]])
        targets = v[2:length][:, None]
    else:
        inputs = v[:length - 1][:, None]
        targets = v[1:][:, None]
    return SeriesDataset(inputs=inputs, targets=targets, washout=washout, name=task)


def split(dataset: SeriesDataset, n_train: int, n_test: int):
    """Contiguous time-ordered split; both halves keep the washout length."""
    if n_train < 1 or n_test < 1:
        raise ParameterError(f"split sizes must be >= 1, got {n_train}/{n_test}")
    if n_train + n_test > dataset.rows:
        raise DataError(
            f"cannot split {dataset.rows} rows into {n_train} train "
            f"+ {n_test} test")

    def part(lo, hi):
        return SeriesDataset(inputs=dataset.inputs[lo:hi].copy(),
                             targets=dataset.targets[lo:hi].copy(),
                             washout=dataset.washout,
                             name=dataset.name)

    return part(0, n_train), part(n_train, n_train + n_test)


def dataset_to_csv(dataset: SeriesDataset, path) -> None:
    """Write rows as t, x_1..x_Nx, y_1..y_Ny with plain '.' decimals."""
    header = (["t"]
              + [f"x_{i + 1}" for i in range(dataset.n_inputs)]
              + [f"y_{j + 1}" for j in range(dataset.n_outputs)])
    _write_csv(path, header, ([t, *dataset.inputs[t], *dataset.targets[t]]
                              for t in range(dataset.rows)))


def _write_csv(path_or_file, header, rows) -> None:
    """The one CSV writer: a header, then rows to a path or an open text
    stream.  Floats go through repr, so they survive a round trip."""
    if not hasattr(path_or_file, "write"):
        with open(path_or_file, "w", newline="", encoding="utf-8") as fh:
            _write_csv(fh, header, rows)
        return
    writer = csv.writer(path_or_file, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_format_cell(value) for value in row] for row in rows)


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))
