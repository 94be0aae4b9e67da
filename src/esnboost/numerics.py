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
from typing import Callable, NamedTuple

import numpy as np

from .errors import DataError, NumericalError, ParameterError

__all__ = ["Rng", "Readout", "uniform_matrix", "ridge_fit"]

_SEED_MASK = (1 << 64) - 1

# Largest reservoir size, input count, series length and row count.  An
# N x N float64 matrix of a larger N has more bytes than numpy can address,
# so a run would fail inside numpy rather than with a MemoryError; the
# benchmarks use a few thousand rows and units at most.
MAX_SIZE = 2 ** 30 - 1


def as_2d(a) -> np.ndarray:
    """Coerce to a float matrix; 1-D input becomes a single column."""
    a = np.asarray(a, dtype=float)
    if a.ndim not in (1, 2):
        raise ParameterError(f"expected a 1-D or 2-D array, got {a.ndim}-D")
    return a[:, None] if a.ndim == 1 else a


def require_int(name: str, value, low=None, high=None) -> None:
    """Raise ParameterError unless value is an integer of at least low and
    at most high.  numpy integers pass; bool and whole-valued floats such
    as 6.0 do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    _require_at_least(name, value, low)
    if high is not None and value > high:
        raise ParameterError(f"{name} must be <= {high}, got {value}")


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

    def gaussian(self, sigma: float, size=None):
        """Draw from a normal distribution with mean 0 and standard
        deviation sigma."""
        require_real("sigma", sigma, 0)
        return self._gen.normal(0.0, sigma, size)

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


# Thread-count entry points of the OpenBLAS builds numpy and scipy ship
# (64-bit and 32-bit integer builds), and of a plain OpenBLAS.
_THREAD_FUNCS = ("scipy_openblas_{}_num_threads64_",
                 "scipy_openblas_{}_num_threads", "openblas_{}_num_threads")
# LAPACKE entry points of the 64-bit integer OpenBLAS numpy's wheels ship.
# The _work forms skip LAPACKE's NaN scan of every array argument, which
# the solver's own finiteness checks make redundant and which took 20-40 us
# a call at d=201, as much as the triangular solves themselves.
_LAPACKE_FUNCS = ("scipy_LAPACKE_{}_work64_",)
_COL_MAJOR = 102  # LAPACKE's LAPACK_COL_MAJOR
# The pinned spans open in the process and, by library path, the set
# function and thread count of each library to restore when the last one
# closes.  Spans nest and overlap across threads, and opening or closing one
# is a read-modify-write of this and of the BLAS state, so it holds the lock.
_BLAS_LOCK = threading.Lock()
_BLAS_PIN = {"open": 0, "counts": {}}


class Lapack(NamedTuple):
    """The ridge solver's LAPACK routines, on the upper half of square
    Fortran-ordered float64 arrays: ``dlange(a)`` is a's 1-norm,
    ``dpotrf(a) -> info`` factors a = R'R into a's upper half,
    ``dpocon(r, anorm) -> (rcond, info)`` estimates the reciprocal 1-norm
    condition number from the factor, and ``dpotrs(r, b) -> info`` solves
    R'R x = b into b.  A negative info names an argument the routine
    refused.  ``library`` names where the routines come from."""

    dlange: Callable
    dpotrf: Callable
    dpocon: Callable
    dpotrs: Callable
    library: str


def openblas_threads() -> MappingProxyType:
    """Read-only {path: (get, set)}: thread-count functions of every OpenBLAS
    mapped into the process.  Imports nothing; searched once before and once
    after scipy.linalg maps its own build.  Empty where none is found."""
    return _openblas_search("scipy.linalg" in sys.modules)[0]


@functools.cache
def ridge_lapack() -> Lapack:
    """The solver's routines, bound at the first call: the LAPACKE entry
    points of a mapped OpenBLAS (numpy's wheels), else scipy.linalg.lapack,
    imported then (Accelerate, MKL or conda numpy builds).  Both give the
    same bits on numpy's and scipy's OpenBLAS (README, Reproducibility)."""
    return _openblas_search("scipy.linalg" in sys.modules)[1] or _scipy_lapack()


@functools.cache
def _openblas_search(scipy_loaded: bool) -> tuple[MappingProxyType, Lapack | None]:
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split(maxsplit=5)[-1].strip()
                            for line in fh if "openblas" in line})
    except OSError:  # no /proc
        paths = []
    found, lapack = {}, None
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
        for pattern in _LAPACKE_FUNCS:
            if lapack is None and hasattr(lib, pattern.format("dpotrs")):
                lapack = _lapacke(path, lib, pattern)
    return MappingProxyType(found), lapack


def _order(a: np.ndarray, b: np.ndarray | None = None) -> int:
    """The order of square a, checked, with b's rows if b is given, before
    their pointers reach LAPACKE."""
    n = a.shape[0]
    if a.shape[1] != n or (b is not None and b.shape[0] != n):
        raise ParameterError(f"LAPACK needs a square matrix and right-hand "
                             f"sides of its order, got {a.shape} and "
                             f"{None if b is None else b.shape}")
    return n


def _lapacke(path: str, lib: ctypes.CDLL, pattern: str) -> Lapack:
    """The solver's routines through the ILP64 LAPACKE entry points of lib,
    loaded from path, which take their workspace from the caller."""
    i64, col, U = ctypes.c_int64, _COL_MAJOR, b"U"
    ro, rw = (np.ctypeslib.ndpointer(np.float64, ndim=2, flags=flags)
              for flags in ("F_CONTIGUOUS", "F_CONTIGUOUS,WRITEABLE"))
    work = (np.ctypeslib.ndpointer(dtype, ndim=1, flags="C_CONTIGUOUS,WRITEABLE")
            for dtype in (np.float64, np.int64))

    def bind(name, restype, *argtypes):
        func = getattr(lib, pattern.format(name))
        func.restype = restype
        func.argtypes = [ctypes.c_int, ctypes.c_char, *argtypes]
        return func

    # the 1-norm needs no workspace, so dlange's is NULL
    dlange = bind("dlange", ctypes.c_double, i64, i64, ro, i64,
                  ctypes.c_void_p)
    dpotrf = bind("dpotrf", i64, i64, rw, i64)
    dpocon = bind("dpocon", i64, i64, ro, i64, ctypes.c_double,
                  ctypes.POINTER(ctypes.c_double), *work)
    dpotrs = bind("dpotrs", i64, i64, i64, ro, i64, rw, i64)

    def lange(a):
        n = _order(a)
        return dlange(col, b"1", n, n, a, n, None)

    def potrf(a):
        n = _order(a)
        return dpotrf(col, U, n, a, n)

    def pocon(r, anorm):
        n, rcond = _order(r), ctypes.c_double()
        info = dpocon(col, U, n, r, n, anorm, ctypes.byref(rcond),
                      np.empty(3 * n), np.empty(n, np.int64))
        return rcond.value, info

    def potrs(r, b):
        n = _order(r, b)
        return dpotrs(col, U, n, b.shape[1], r, n, b, n)

    return Lapack(lange, potrf, pocon, potrs, path)


def _scipy_lapack() -> Lapack:
    """The solver's routines through scipy.linalg.lapack, which writes in
    place on the Fortran-ordered arrays the solver passes."""
    from scipy.linalg import lapack
    return Lapack(lambda a: lapack.dlange("1", a),
                  lambda a: lapack.dpotrf(a, clean=0, overwrite_a=1)[1],
                  lambda r, anorm: tuple(lapack.dpocon(r, anorm)),
                  lambda r, b: lapack.dpotrs(r, b, overwrite_b=1)[1],
                  lapack.__name__)


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


def _checked(routine: str, info: int) -> int:
    """info, unless it is negative: LAPACK refused an argument, which is a
    fault of the call, never a result."""
    if info < 0:
        raise NumericalError(f"LAPACK {routine} refused its argument {-info}")
    return info


def _condition(lapack: Lapack, factor: np.ndarray, anorm: float) -> float:
    """Estimated reciprocal 1-norm condition number of R'R from R."""
    rcond, info = lapack.dpocon(factor, anorm)
    _checked("dpocon", info)
    return rcond


class _RidgeSolver:
    """Ridge fits of any number of targets on one feature matrix.

    Built on the augmented matrix A = [X | 1], which it reads in place and
    never copies.  The Cholesky factor of the regularized normal matrix is
    formed on construction, so each fit costs one A' Y product and two
    triangular solves.  Each fit is bit-equal to a separate
    :func:`ridge_fit` on X and the same targets.
    """

    def __init__(self, A: np.ndarray, gamma: float):
        # bound before the span opens, so that it pins the OpenBLAS of a
        # scipy.linalg the fallback imports too
        lapack = ridge_lapack()
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
            # the same matrix in the Fortran order LAPACK factors in place.
            # The factor overwrites G's upper half, and leaves G in the lower,
            # so the 1-norm the condition estimate needs is taken before it.
            self._factor = G.T
            anorm = lapack.dlange(self._factor)
            if _checked("dpotrf", lapack.dpotrf(self._factor)):
                raise NumericalError(
                    f"singular normal matrix in ridge fit (gamma={gamma}, {n} samples, "
                    f"{d} features); increase gamma or provide more samples")
            # Cholesky succeeds on some numerically singular matrices; a solve
            # against one returns rounding noise, so it is refused.
            rcond = _condition(lapack, self._factor, anorm)
            if rcond < np.finfo(float).eps:
                # The 1-norm estimate also refuses well-posed fits whose
                # columns differ widely in scale, so it is retaken on the
                # Jacobi-scaled D G D, whose factor is R D, D = 1 / ||R[:, j]||
                # (np.triu drops the lower half, which still holds G).  The
                # solve keeps R unscaled.
                R = np.asfortranarray(np.triu(self._factor))
                R /= np.linalg.norm(R, axis=0)
                rcond = _condition(lapack, R, lapack.dlange(
                    np.asfortranarray(R.T @ R)))
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
        coef = np.asfortranarray(A.T @ Y)
        _checked("dpotrs", ridge_lapack().dpotrs(self._factor, coef))
        try:  # the shapes hold by construction, so only an overflow can fail
            return Readout(weights=coef[:-1].T.copy(), intercept=coef[-1].copy())
        except ParameterError:
            raise NumericalError(
                "ridge solution overflows float64; rescale the targets") from None
