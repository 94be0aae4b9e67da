"""Seeded random draws and the ridge solver behind every readout fit."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import DataError, NumericalError, ParameterError

__all__ = ["Rng", "Readout", "uniform_matrix", "ridge_fit"]

_SEED_MASK = (1 << 64) - 1


def as_2d(a) -> np.ndarray:
    """Coerce to a float matrix; 1-D input becomes a single column."""
    a = np.asarray(a, dtype=float)
    if a.ndim not in (1, 2):
        raise ParameterError(f"expected a 1-D or 2-D array, got {a.ndim}-D")
    return a[:, None] if a.ndim == 1 else a


def require_int(name: str, value) -> None:
    """Raise ParameterError unless value is an integer.  numpy integers
    pass; bool and whole-valued floats such as 6.0 do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")


def require_real(name: str, value) -> None:
    """Raise ParameterError unless value is a finite real number.  numpy
    numbers and ints pass; bool, strings, None, nan and inf do not."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ParameterError(f"{name} must be a finite number, got {value!r}")


class Rng:
    """Deterministic random stream keyed by a 64-bit seed (numpy PCG64).

    Two instances built from the same seed produce bit-identical draw
    sequences on the same platform.  Streams are single-owner: never share
    one across concurrent tasks, create children with :meth:`derive`.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _SEED_MASK
        self._gen = np.random.default_rng(self.seed)

    def uniform(self, lo: float, hi: float, size=None):
        """Draw uniformly from [lo, hi]."""
        if lo > hi:
            raise ParameterError(f"empty uniform range [{lo}, {hi}]")
        return self._gen.uniform(lo, hi, size)

    def gaussian(self, mu: float, sigma: float, size=None):
        """Draw from a normal distribution with standard deviation sigma."""
        if sigma < 0:
            raise ParameterError(f"gaussian sigma must be >= 0, got {sigma}")
        return self._gen.normal(mu, sigma, size)

    def derive(self, offset: int) -> "Rng":
        """Fresh stream seeded with ``seed + offset`` (mod 2**64)."""
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
    if rows < 0 or cols < 0:
        raise ParameterError(f"negative shape ({rows}, {cols})")
    if lo > hi:
        raise ParameterError(f"invalid range [{lo}, {hi}]")
    if not 0.0 < density <= 1.0:
        raise ParameterError(f"density must be in (0, 1], got {density}")
    values = rng.uniform(lo, hi, (rows, cols))
    if density < 1.0:
        keep = rng.uniform(0.0, 1.0, (rows, cols)) < density
        values = np.where(keep, values, 0.0)
    return values


@dataclass
class Readout:
    """Affine output map y = W x + b fitted by ridge regression."""

    weights: np.ndarray    # (n_outputs, n_features)
    intercept: np.ndarray  # (n_outputs,)

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.weights.shape[0]

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
    """
    return _RidgeSolver(features, gamma).fit(targets)


class _RidgeSolver:
    """Ridge fits of any number of targets on one feature matrix.

    The augmented matrix A = [X | 1] and the Cholesky factor of its
    regularized normal matrix are formed on construction, so each fit costs
    one A' Y product and two triangular solves.  Each fit is bit-equal to a
    separate :func:`ridge_fit` on the same arguments.
    """

    def __init__(self, features, gamma: float):
        X = as_2d(features)
        n, d = X.shape
        if n < 1:
            raise ParameterError("ridge_fit needs at least one sample")
        if not 0 <= gamma < math.inf:
            raise ParameterError(f"gamma must be >= 0 and finite, got {gamma}")
        if not np.isfinite(X).all():
            raise DataError("ridge_fit inputs contain non-finite values")
        self._A = np.hstack([X, np.ones((n, 1))])
        G = self._A.T @ self._A
        G[np.arange(d), np.arange(d)] += gamma  # last diagonal entry (intercept) untouched
        try:
            self._factor = cho_factor(G)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"singular normal matrix in ridge fit (gamma={gamma}, {n} samples, "
                f"{d} features); increase gamma or provide more samples") from exc

    def fit(self, targets) -> Readout:
        A, Y = self._A, as_2d(targets)
        if A.shape[0] != Y.shape[0]:
            raise ParameterError(
                f"row mismatch: {A.shape[0]} feature rows vs {Y.shape[0]} target rows")
        if not np.isfinite(Y).all():
            raise DataError("ridge_fit inputs contain non-finite values")
        d = A.shape[1] - 1
        coef = cho_solve(self._factor, A.T @ Y)
        return Readout(weights=coef[:d].T.copy(), intercept=coef[d].copy())
