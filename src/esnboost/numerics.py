"""Seeded random draws and the ridge solver behind every readout fit."""

from __future__ import annotations

import ctypes
import functools
import math
import numbers
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import DataError, NumericalError, ParameterError

__all__ = ["Rng", "Readout", "uniform_matrix", "ridge_fit"]

_SEED_MASK = (1 << 64) - 1


def as_2d(a) -> np.ndarray:
    """Coerce to a float matrix; 1-D input becomes a single column."""
    a = np.asarray(a, dtype=float)
    if a.ndim not in (1, 2):
        raise ParameterError(f"expected a 1-D or 2-D array, got {a.ndim}-D")
    return a[:, None] if a.ndim == 1 else a


def require_int(name: str, value, low=None) -> None:
    """Raise ParameterError unless value is an integer of at least low.
    numpy integers pass; bool and whole-valued floats such as 6.0 do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    _require_at_least(name, value, low)


def require_real(name: str, value, low=None) -> None:
    """Raise ParameterError unless value is a finite real number of at
    least low.  numpy numbers and ints pass; bool, strings, None, nan, inf
    and ints too large for a float do not."""
    try:
        finite = (not isinstance(value, bool) and isinstance(value, numbers.Real)
                  and math.isfinite(value))
    except OverflowError:
        raise ParameterError(f"{name} must be a finite number, got an int "
                             "too large for a float") from None
    if not finite:
        raise ParameterError(f"{name} must be a finite number, got {value!r}")
    _require_at_least(name, value, low)


def _require_at_least(name: str, value, low) -> None:
    if low is not None and value < low:
        raise ParameterError(f"{name} must be >= {low}, got {value}")


def finite_array(name: str, a, shape: tuple) -> np.ndarray:
    """a as a float array; ParameterError unless it has the shape, where
    None matches any length, and only finite entries."""
    a = np.asarray(a, dtype=float)
    if a.ndim != len(shape) or any(s not in (None, n) for n, s in zip(a.shape, shape)):
        raise ParameterError(f"{name} must have shape {shape}, got {a.shape}")
    if not np.isfinite(a).all():
        raise ParameterError(f"{name} has non-finite entries")
    return a


def require_choice(name: str, value, choices: tuple[str, ...]) -> None:
    """Raise ParameterError unless value is one of the names in choices."""
    if not isinstance(value, str) or value not in choices:
        raise ParameterError(f"unknown {name} {value!r}; choose from {choices}")


class Rng:
    """Deterministic random stream keyed by a 64-bit seed (numpy PCG64).

    Two instances built from the same seed produce bit-identical draw
    sequences on the same platform.  Streams are single-owner: never share
    one across concurrent tasks, create children with :meth:`derive`.
    """

    def __init__(self, seed: int):
        require_int("seed", seed)
        self.seed = int(seed) & _SEED_MASK
        self._gen = np.random.default_rng(self.seed)

    def uniform(self, lo: float, hi: float, size=None):
        """Draw uniformly from [lo, hi]."""
        require_real("lo", lo)
        require_real("hi", hi)
        if lo > hi:
            raise ParameterError(f"empty uniform range [{lo}, {hi}]")
        return self._gen.uniform(lo, hi, size)

    def gaussian(self, mu: float, sigma: float, size=None):
        """Draw from a normal distribution with standard deviation sigma."""
        require_real("mu", mu)
        require_real("sigma", sigma, 0)
        return self._gen.normal(mu, sigma, size)

    def derive(self, offset: int) -> "Rng":
        """Fresh stream seeded with ``seed + offset`` (mod 2**64)."""
        require_int("offset", offset)
        return Rng(self.seed + int(offset))

    def __repr__(self):
        return f"Rng(seed={self.seed})"


def uniform_matrix(rng: Rng, rows: int, cols: int, lo: float, hi: float,
                   density: float = 1.0) -> np.ndarray:
    """Random (rows, cols) matrix with entries uniform on [lo, hi].

    With density < 1 every entry is independently zeroed with probability
    1 - density.  Values are drawn first, in row-major order, then the keep
    mask, so a given seed always yields the same matrix.
    """
    require_int("rows", rows, 0)
    require_int("cols", cols, 0)
    require_real("density", density)
    if not 0.0 < density <= 1.0:
        raise ParameterError(f"density must be in (0, 1], got {density}")
    values = rng.uniform(lo, hi, (rows, cols))
    if density < 1.0:
        values[rng.uniform(0.0, 1.0, (rows, cols)) >= density] = 0.0
    return values


def scipy_linalg():
    """scipy.linalg, imported at its first use.  Its import costs more than
    the rest of ``import esnboost`` (README, Performance), and only the ridge
    solver needs it; after the first call sys.modules returns it at once."""
    import scipy.linalg
    return scipy.linalg


# Thread-count entry points of the OpenBLAS builds numpy and scipy ship
# (64-bit and 32-bit integer builds), and of a plain OpenBLAS.
_THREAD_FUNCS = ("scipy_openblas_{}_num_threads64_",
                 "scipy_openblas_{}_num_threads", "openblas_{}_num_threads")
# The pinned spans open in the process and, by library path, the set
# function and thread count of each library to restore when the last one
# closes.  Spans nest and overlap across threads, and opening or closing one
# is a read-modify-write of this and of the BLAS state, so it holds the lock.
_BLAS_LOCK = threading.Lock()
_BLAS_PIN = {"open": 0, "counts": {}}


def openblas_threads() -> MappingProxyType:
    """Read-only {path: (get, set)}: thread-count functions of every OpenBLAS
    mapped into the process.  Imports nothing; searched once before and once
    after scipy.linalg maps its own build.  Empty where none is found."""
    return _openblas_search("scipy.linalg" in sys.modules)


@functools.cache
def _openblas_search(scipy_loaded: bool) -> MappingProxyType:
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split(maxsplit=5)[-1].strip()
                            for line in fh if "openblas" in line})
    except OSError:  # no /proc
        paths = []
    found = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a mapped file since deleted or replaced
            continue
        for pattern in _THREAD_FUNCS:
            if hasattr(lib, pattern.format("get")):
                get, put = (getattr(lib, pattern.format(verb))
                            for verb in ("get", "set"))
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                found[path] = get, put
                break
    return MappingProxyType(found)


@contextmanager
def one_blas_thread():
    """Every loaded OpenBLAS, one mapped while a span is open included, at
    one thread for the body; when no other span is open, each goes back once
    to the count it had.  At more threads OpenBLAS splits a product of a few
    thousand rows between them, which can change its last bits."""
    libs = openblas_threads()
    with _BLAS_LOCK:
        for path, (get, put) in libs.items():
            if path not in _BLAS_PIN["counts"]:
                _BLAS_PIN["counts"][path] = put, get()
                put(1)
        _BLAS_PIN["open"] += 1
    try:
        yield
    finally:
        with _BLAS_LOCK:
            _BLAS_PIN["open"] -= 1
            if not _BLAS_PIN["open"]:
                for put, count in _BLAS_PIN["counts"].values():
                    put(count)
                _BLAS_PIN["counts"].clear()


@dataclass
class Readout:
    """Affine output map y = W x + b fitted by ridge regression."""

    weights: np.ndarray    # (n_outputs, n_features)
    intercept: np.ndarray  # (n_outputs,)

    def __post_init__(self):
        """Finite float arrays: 2-D weights and one intercept per output."""
        self.weights = finite_array("readout weights", self.weights, (None, None))
        self.intercept = finite_array("readout intercept", self.intercept, (self.n_outputs,))

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.weights.shape[0]

    @one_blas_thread()
    def predict(self, features) -> np.ndarray:
        features = as_2d(features)
        if features.shape[1] != self.n_features:
            raise ParameterError(
                f"readout expects {self.n_features} features, got {features.shape[1]}")
        return features @ self.weights.T + self.intercept


def ridge_fit(features, targets, gamma: float) -> Readout:
    """Fit W, b minimizing ||Y - X W' - b||^2 + gamma * ||W||_F^2.

    The intercept is excluded from the penalty.  Solved through the normal
    equations of the system augmented with a constant column, factorized by
    Cholesky; the normal matrix is positive definite whenever gamma > 0.
    A normal matrix whose estimated reciprocal condition number (1-norm),
    with and without Jacobi scaling, is below machine epsilon raises
    NumericalError, as does a failed factor.
    """
    X = as_2d(features)
    return _RidgeSolver(np.hstack([X, np.ones((X.shape[0], 1))]),
                        gamma).fit(targets)


class _RidgeSolver:
    """Ridge fits of any number of targets on one feature matrix.

    Built on the augmented matrix A = [X | 1], which it reads in place and
    never copies.  The Cholesky factor of the regularized normal matrix is
    formed on construction, so each fit costs one A' Y product and two
    triangular solves.  Each fit is bit-equal to a separate
    :func:`ridge_fit` on X and the same targets.
    """

    def __init__(self, A: np.ndarray, gamma: float):
        # loaded before the span opens, so that it pins scipy's OpenBLAS too
        lapack = scipy_linalg().lapack
        with one_blas_thread():
            n, d = A.shape[0], A.shape[1] - 1
            if n < 1:
                raise ParameterError("ridge_fit needs at least one sample")
            require_real("gamma", gamma, 0)
            self._A = A
            # overflow, and inf * 0 or inf - inf off the diagonal, are
            # reported below as errors instead of warnings
            with np.errstate(over="ignore", invalid="ignore"):
                G = A.T @ A
            G[np.arange(d), np.arange(d)] += gamma  # last diagonal entry (intercept) untouched
            # A NaN or inf anywhere in a column of A makes its diagonal entry
            # non-finite, so A itself is only read when that check fails.
            if not np.isfinite(G.diagonal()).all():
                if not np.isfinite(A).all():
                    raise DataError("ridge_fit inputs contain non-finite values")
                raise NumericalError(
                    f"normal matrix in ridge fit overflows float64 (gamma={gamma}, "
                    f"{n} samples, {d} features): feature entries of about 1e154 "
                    f"or more square past the largest double; rescale the inputs")
            # numpy forms A'A with syrk, so G is exactly symmetric and G.T is
            # the same matrix in the Fortran order LAPACK factors in place,
            # where G itself would be copied first.  The factor overwrites G,
            # so the 1-norm the condition estimate needs is taken before it.
            anorm = lapack.dlange("1", G.T)
            self._factor, info = lapack.dpotrf(G.T, overwrite_a=1)
            if info > 0:
                raise NumericalError(
                    f"singular normal matrix in ridge fit (gamma={gamma}, {n} samples, "
                    f"{d} features); increase gamma or provide more samples")
            # Cholesky succeeds on some numerically singular matrices; a solve
            # against one returns rounding noise, so it is refused.
            rcond = lapack.dpocon(self._factor, anorm)[0]
            if rcond < np.finfo(float).eps:
                # The 1-norm estimate also refuses well-posed fits whose
                # columns differ widely in scale, so it is retaken on the
                # Jacobi-scaled D G D, whose factor is R D, D = 1 / ||R[:, j]||
                # (dpotrf zeroes R's lower half).  The solve keeps R unscaled.
                R = self._factor / np.linalg.norm(self._factor, axis=0)
                scaled_norm = lapack.dlange("1", R.T @ R)
                rcond = lapack.dpocon(R, scaled_norm)[0]
            if rcond < np.finfo(float).eps:
                raise NumericalError(
                    f"numerically singular normal matrix in ridge fit (reciprocal "
                    f"condition number {rcond:.3g} with unit-norm columns, "
                    f"gamma={gamma}, {n} samples, {d} features); increase gamma")

    @one_blas_thread()
    def fit(self, targets) -> Readout:
        A, Y = self._A, as_2d(targets)
        if A.shape[0] != Y.shape[0]:
            raise ParameterError(
                f"row mismatch: {A.shape[0]} feature rows vs {Y.shape[0]} target rows")
        if not np.isfinite(Y).all():
            raise DataError("ridge_fit inputs contain non-finite values")
        coef = scipy_linalg().lapack.dpotrs(self._factor, A.T @ Y)[0]
        try:  # the shapes hold by construction, so only an overflow can fail
            return Readout(weights=coef[:-1].T.copy(), intercept=coef[-1].copy())
        except ParameterError:
            raise NumericalError(
                "ridge solution overflows float64; rescale the targets") from None
