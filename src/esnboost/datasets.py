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
from .numerics import Rng, as_2d, require_choice, require_int, require_real

__all__ = [
    "RawSeries",
    "SeriesDataset",
    "NARMA_COEFFS",
    "gen_narma",
    "gen_henon",
    "gen_freedman",
    "load_laser",
    "normalize_minmax",
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
        for name in ("values", "driver", "noise"):
            chan = getattr(self, name)
            if chan is not None and not np.isfinite(chan).all():
                raise DataError(f"RawSeries {name} contains non-finite entries")

    def channels(self) -> list[np.ndarray]:
        """Present channels in fixed order: values, then driver and noise."""
        return [c for c in (self.values, self.driver, self.noise)
                if c is not None]

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

    def __post_init__(self):
        self.inputs = as_2d(self.inputs)
        self.targets = as_2d(self.targets)
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ParameterError(
                f"row mismatch: {self.inputs.shape[0]} input rows vs "
                f"{self.targets.shape[0]} target rows")
        require_int("washout", self.washout, 0)
        if self.washout >= self.inputs.shape[0]:
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


def gen_narma(k: int, alphas, length: int, rng: Rng) -> RawSeries:
    """Simulate b(t+1) = a1 b(t) + a2 b(t) sum_{i<k} b(t-i) + a3 s(t-k+1) s(t) + a4.

    The driver s is drawn Unif[0, 0.5].  All history before t = 0, for both
    b and s, counts as zero, so b(0) = 0 and the first k steps run on a
    short window.  If |b| ever exceeds 1e3 a fresh driver is drawn from the
    next derived seed, up to 10 attempts.
    """
    require_int("k", k, 1)
    require_int("length", length)
    if length <= k:
        raise ParameterError(f"length {length} must exceed the order {k}")
    if not hasattr(alphas, "__len__") or len(alphas) != 4:
        raise ParameterError(f"alphas must be four numbers, got {alphas!r}")
    for i, a in enumerate(alphas):
        require_real(f"alphas[{i}]", a)

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
    s = s.tolist()  # Python floats round like float64 scalars, but step faster
    b = [0.0] * len(s)
    window = 0.0  # rolling sum of the most recent k values of b
    for t in range(len(s) - 1):
        window += b[t]
        if t - k >= 0:
            window -= b[t - k]
        s_lag = s[t - k + 1] if t - k + 1 >= 0 else 0.0
        b[t + 1] = a1 * b[t] + a2 * b[t] * window + a3 * s_lag * s[t] + a4
        if abs(b[t + 1]) > _DIVERGENCE_LIMIT:
            return None
    return np.array(b)


def gen_henon(length: int, rng: Rng, noise_sigma: float = 0.05) -> RawSeries:
    """Henon series y(t+1) = 1 - 1.4 y(t)^2 + 0.3 y(t-1) + z(t+1), z ~ N(0, sigma).

    noise_sigma is a standard deviation.  The map is iterated noise-free
    from y(0) = y(1) = 0, an orbit that stays on the attractor, and z is
    added to the emitted series (observation noise).  In-state
    noise is not offered: at sigma 0.05 it kicks the orbit out of the
    attractor basin within a few dozen steps, so no series of benchmark
    length would finish.  The noise channel is stored so the supervised
    wiring can expose z(t+1) as an input.
    """
    require_int("length", length, 3)
    z = rng.gaussian(0.0, noise_sigma, length)
    clean = [0.0] * length
    for t in range(1, length - 1):
        clean[t + 1] = 1.0 - 1.4 * clean[t] ** 2 + 0.3 * clean[t - 1]
    return RawSeries(values=np.array(clean) + z, noise=z)


def gen_freedman(length: int, y0: float = 0.23719) -> RawSeries:
    """Iterate the tent map y(t+1) = 2 y(t) if y(t) <= 0.5 else 2 - 2 y(t)."""
    require_real("y0", y0, 0)
    if y0 > 1.0:
        raise ParameterError(f"y0 must lie in [0, 1], got {y0}")
    require_int("length", length, 1)
    y = [float(y0)] * length
    for t in range(length - 1):
        y[t + 1] = 2.0 * y[t] if y[t] <= 0.5 else 2.0 - 2.0 * y[t]
    return RawSeries(values=np.array(y))


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


def normalize_minmax(series: RawSeries, fit_end: int) -> RawSeries:
    """Affinely map each channel so that its first ``fit_end`` samples span
    [0, 1].  Later samples reuse those bounds and may leave [0, 1].  A
    channel that is constant over the prefix, or whose scaled values
    overflow, is an error."""
    require_int("fit_end", fit_end, 1)
    if fit_end > len(series):
        raise ParameterError(
            f"fit_end {fit_end} exceeds the series length {len(series)}")
    scaled = {}
    for name in ("values", "driver", "noise"):
        chan = getattr(series, name)
        if chan is not None:
            lo, hi = float(chan[:fit_end].min()), float(chan[:fit_end].max())
            if hi == lo:
                raise DataError(f"{name} channel is constant ({lo}) over the "
                                f"first {fit_end} samples; cannot normalize")
            try:
                with np.errstate(over="raise"):
                    scaled[name] = (chan - lo) / (hi - lo)
            except FloatingPointError:
                raise DataError(f"{name} channel overflows float64 when scaled "
                                f"to its first {fit_end} samples") from None
    return RawSeries(**scaled)


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
    require_choice("task", task, tuple(SUPERVISED_MARGIN))
    require_int("washout", washout, 0)
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
    return SeriesDataset(inputs=inputs, targets=targets, washout=washout)


def split(dataset: SeriesDataset, n_train: int, n_test: int):
    """Contiguous time-ordered split; both halves keep the washout length."""
    require_int("n_train", n_train, 1)
    require_int("n_test", n_test, 1)
    if n_train + n_test > dataset.rows:
        raise DataError(
            f"cannot split {dataset.rows} rows into {n_train} train "
            f"+ {n_test} test")

    def part(lo, hi):
        return SeriesDataset(inputs=dataset.inputs[lo:hi].copy(),
                             targets=dataset.targets[lo:hi].copy(),
                             washout=dataset.washout)

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
