"""Weak echo state networks: unscaled random reservoirs with affine readouts.

Reservoir weights are drawn uniformly and used exactly as drawn.  There is
no spectral-radius estimate and no rescaling anywhere, so a single network
may well have unstable dynamics.  That is deliberate: individual networks
only need to be cheap, the combiners in :mod:`esnboost.boosting` do the
heavy lifting.  This module is one reservoir, its draw and its pass; the
terms built on reservoirs, their fit and their prediction live there.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DataError, ParameterError
from .numerics import (MAX_SIZE, Readout, Rng, as_2d, finite_array,
                       one_blas_thread, require_int, uniform_matrix)

__all__ = [
    "EsnParams",
    "Reservoir",
    "Readout",
    "init_reservoir",
    "run_reservoir",
    "build_features",
]


# Every reservoir's draw: w_in dense on INPUT_RANGE, w_r on RESERVOIR_RANGE
# with each entry kept with probability RESERVOIR_DENSITY.
INPUT_RANGE = (-0.2, 0.2)
RESERVOIR_RANGE = (-0.8, 0.8)
RESERVOIR_DENSITY = 0.1


@dataclass(frozen=True)
class EsnParams:
    """Construction parameters for one reservoir, held as Python ints."""

    n_inputs: int
    n_reservoir: int
    seed: int = 0

    def __post_init__(self):
        require_int("n_inputs", self.n_inputs, 1, MAX_SIZE)
        require_int("n_reservoir", self.n_reservoir, 1, MAX_SIZE)
        require_int("seed", self.seed)
        for f in fields(self):  # numpy integers would not save as JSON
            object.__setattr__(self, f.name, int(getattr(self, f.name)))


@dataclass(frozen=True)
class Reservoir:
    """Frozen input and recurrent weight matrices; never trained."""

    w_in: np.ndarray  # (n_reservoir, n_inputs)
    w_r: np.ndarray   # (n_reservoir, n_reservoir)
    params: EsnParams

    def __post_init__(self):
        """Hold both matrices as C-contiguous float64, and w_r from a 64-byte
        boundary: the gemv of every step reads it about a quarter slower
        from most other offsets, with the same bits (README, Performance).
        Both must have the shapes params give and only finite entries."""
        n, k = self.params.n_reservoir, self.params.n_inputs
        w_in = np.ascontiguousarray(finite_array("w_in", self.w_in, (n, k)))
        w_r = finite_array("w_r", self.w_r, (n, n))
        if not (w_r.flags.c_contiguous and w_r.ctypes.data % 64 == 0):
            buf = np.empty(w_r.size + 8)
            start = -buf.ctypes.data % 64 // 8
            aligned = buf[start:start + w_r.size].reshape(w_r.shape)
            aligned[...] = w_r
            w_r = aligned
        object.__setattr__(self, "w_in", w_in)
        object.__setattr__(self, "w_r", w_r)

    def __reduce__(self):
        return Reservoir, (self.w_in, self.w_r, self.params)


def init_reservoir(params: EsnParams) -> Reservoir:
    """Draw w_in (dense) and w_r (sparse at RESERVOIR_DENSITY) from the seed.

    w_in is consumed from the stream before w_r; that order is part of the
    reproducibility contract.  No rescaling of any kind happens here.
    """
    rng, n = Rng(params.seed), params.n_reservoir
    w_in = uniform_matrix(rng, n, params.n_inputs, *INPUT_RANGE)
    w_r = uniform_matrix(rng, n, n, *RESERVOIR_RANGE, density=RESERVOIR_DENSITY)
    return Reservoir(w_in=w_in, w_r=w_r, params=params)


@one_blas_thread()
def run_reservoir(res: Reservoir, inputs, s0=None, *, _out=None) -> np.ndarray:
    """Iterate s(t) = tanh(w_in x(t) + w_r s(t-1)) over the input rows.

    Row t of the result is s(t).  The initial state defaults to zeros; the
    transient that causes is what washout rows are for.  s0 is copied, never
    written.  The input drive w_in x(t) is written into the state rows first;
    each step then reads its drive from its row and overwrites the row with
    its state, reusing one scratch vector, so the loop allocates nothing.
    """
    x = as_2d(inputs)
    n_res = res.params.n_reservoir
    if x.shape[1] != res.params.n_inputs:
        raise ParameterError(
            f"reservoir expects {res.params.n_inputs} input columns, got {x.shape[1]}")
    if s0 is None:
        s = np.zeros(n_res)
    else:
        s = np.array(s0, dtype=float)  # a contiguous copy for BLAS
        if s.shape != (n_res,):
            raise ParameterError(f"s0 must have shape ({n_res},), got {s.shape}")
        if not np.isfinite(s).all():
            raise ParameterError("s0 contains non-finite values")
    # _out is the (T, N) state block of a feature matrix that boosting built,
    # with unit column stride, so it is trusted as it is
    states = np.empty((x.shape[0], n_res)) if _out is None else _out
    if not np.isfinite(x).all():
        raise DataError("reservoir inputs contain non-finite values")

    np.matmul(x, res.w_in.T, out=states)  # the drive of every step at once
    # the bound method is the same BLAS gemv as w_r @ s, without np.dot's
    # dispatch; buf + row has the bits of row + buf
    dot, tanh, buf = res.w_r.dot, np.tanh, np.empty(n_res)
    for row in states:
        dot(s, buf)
        buf += row
        tanh(buf, row)
        s = row
    return states


def build_features(inputs, states) -> np.ndarray:
    """Concatenate [x(t) | s(t)] row-wise; the intercept is the solver's job."""
    x = as_2d(inputs)
    s = as_2d(states)
    if x.shape[0] != s.shape[0]:
        raise ParameterError(
            f"row mismatch: {x.shape[0]} input rows vs {s.shape[0]} state rows")
    return np.hstack([x, s])
