"""Weak echo state networks: unscaled random reservoirs with affine readouts.

Reservoir weights are drawn uniformly and used exactly as drawn.  There is
no spectral-radius estimate and no rescaling anywhere, so a single network
may well have unstable dynamics.  That is deliberate: individual networks
only need to be cheap, the combiners in :mod:`esnboost.boosting` do the
heavy lifting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError
from .numerics import (Readout, Rng, as_2d, one_blas_thread, require_int,
                       require_real, uniform_matrix)

__all__ = [
    "EsnParams",
    "Reservoir",
    "Readout",
    "init_reservoir",
    "run_reservoir",
    "build_features",
    "esn_predict",
]

# Rows per block of a prediction pass.  A multiple of 4, so every row keeps
# its place in the 4-row groups of the BLAS matrix-vector product of a
# one-output readout.
_BLOCK_ROWS = 512


@dataclass(frozen=True)
class EsnParams:
    """Construction parameters for one reservoir."""

    n_inputs: int
    n_reservoir: int
    input_range: tuple[float, float] = (-0.2, 0.2)
    reservoir_range: tuple[float, float] = (-0.8, 0.8)
    reservoir_density: float = 0.1
    seed: int = 0

    def __post_init__(self):
        require_int("n_inputs", self.n_inputs, 1)
        require_int("n_reservoir", self.n_reservoir, 1)
        require_int("seed", self.seed)
        require_real("reservoir_density", self.reservoir_density)
        for name in ("input_range", "reservoir_range"):
            try:
                lo, hi = getattr(self, name)
            except (TypeError, ValueError):
                raise ParameterError(f"{name} must be a (low, high) pair, "
                                     f"got {getattr(self, name)!r}") from None
            require_real(f"{name}[0]", lo)
            require_real(f"{name}[1]", hi)
            if lo > hi:
                raise ParameterError(f"{name} is empty: [{lo}, {hi}]")
        if not 0.0 < self.reservoir_density <= 1.0:
            raise ParameterError(
                f"reservoir_density must be in (0, 1], got {self.reservoir_density}")


@dataclass
class Reservoir:
    """Frozen input and recurrent weight matrices; never trained."""

    w_in: np.ndarray  # (n_reservoir, n_inputs)
    w_r: np.ndarray   # (n_reservoir, n_reservoir)
    params: EsnParams

    def __post_init__(self):
        """Hold both matrices as C-contiguous float64, and w_r from a 64-byte
        boundary: the gemv of every step reads it about a quarter slower
        from most other offsets, with the same bits (README, Performance)."""
        self.w_in = np.ascontiguousarray(self.w_in, dtype=float)
        w_r = np.asarray(self.w_r, dtype=float)
        if not (w_r.flags.c_contiguous and w_r.ctypes.data % 64 == 0):
            buf = np.empty(w_r.size + 8)
            start = -buf.ctypes.data % 64 // 8
            aligned = buf[start:start + w_r.size].reshape(w_r.shape)
            aligned[...] = w_r
            w_r = aligned
        self.w_r = w_r


def init_reservoir(params: EsnParams) -> Reservoir:
    """Draw w_in (dense) and w_r (sparse at reservoir_density) from the seed.

    w_in is consumed from the stream before w_r; that order is part of the
    reproducibility contract.  No rescaling of any kind happens here.
    """
    rng = Rng(params.seed)
    w_in = uniform_matrix(rng, params.n_reservoir, params.n_inputs,
                          *params.input_range)
    w_r = uniform_matrix(rng, params.n_reservoir, params.n_reservoir,
                         *params.reservoir_range,
                         density=params.reservoir_density)
    return Reservoir(w_in=w_in, w_r=w_r, params=params)


@one_blas_thread()
def run_reservoir(res: Reservoir, inputs, s0=None, out=None) -> np.ndarray:
    """Iterate s(t) = tanh(w_in x(t) + w_r s(t-1)) over the input rows.

    Row t of the result is s(t).  The initial state defaults to zeros; the
    transient that causes is what washout rows are for.  s0 is copied, never
    written.  The input drive w_in x(t) is written into the state rows first;
    each step then reads its drive from its row and overwrites the row with
    its state, reusing one scratch vector, so the loop allocates nothing.
    out, when given, is a writable (T, N) float64 matrix with unit column
    stride, such as the state block of a feature matrix; the states are
    written into it and it is returned.
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
    if out is None:
        states = np.empty((x.shape[0], n_res))
    else:
        states = _check_out(out, (x.shape[0], n_res))
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


def _check_out(out, shape) -> np.ndarray:
    """The caller's state matrix, if the recursion can write it in place."""
    if not isinstance(out, np.ndarray):
        raise ParameterError(f"out must be a numpy array, got {type(out).__name__}")
    if out.shape != shape:
        raise ParameterError(f"out must have shape {shape}, got {out.shape}")
    if out.dtype != np.float64:
        raise ParameterError(f"out must be float64, got {out.dtype}")
    # each row must be a contiguous vector; an empty or one-column block
    # has no column stride that matters
    if shape[0] and shape[1] > 1 and out.strides[1] != out.itemsize:
        raise ParameterError("out must have unit column stride")
    if not out.flags.writeable:
        raise ParameterError("out is read-only")
    return out


def _feature_matrix(res: Reservoir, x: np.ndarray) -> np.ndarray:
    """One reservoir pass over x, written into a fresh [x | s | 1] matrix:
    the augmented design matrix the ridge solver factors.  The states go
    straight into their column block, so the pass allocates this one matrix.
    """
    k, n_res = x.shape[1], res.params.n_reservoir
    A = np.empty((x.shape[0], k + n_res + 1))
    A[:, :k] = x
    A[:, -1] = 1.0
    run_reservoir(res, x, out=A[:, k:k + n_res])
    return A


def build_features(inputs, states) -> np.ndarray:
    """Concatenate [x(t) | s(t)] row-wise; the intercept is the solver's job."""
    x = as_2d(inputs)
    s = as_2d(states)
    if x.shape[0] != s.shape[0]:
        raise ParameterError(
            f"row mismatch: {x.shape[0]} input rows vs {s.shape[0]} state rows")
    return np.hstack([x, s])


def esn_predict(res: Reservoir, readout: Readout, inputs) -> np.ndarray:
    """Run the reservoir over inputs and apply the readout to [x | s] rows."""
    return _predict_terms([(res, readout)], inputs)[-1]


def _predict_terms(terms, inputs, average=False) -> list[np.ndarray]:
    """Running sums of the readout predictions of (reservoir, readout) terms.

    Element k - 1 is the prediction of the first k terms, summed in term
    order, so the last element is the whole model's.  Consecutive terms
    holding the same reservoir object share one reservoir pass.  Passes run
    over the inputs in blocks of _BLOCK_ROWS rows, each continued from the
    pass's state at the end of the previous block and written into one
    reused [x | s] block, so a prediction holds one block of features
    whatever the input length.  Blocks start at multiples of _BLOCK_ROWS,
    which keeps the predictions of one-output readouts bit-equal to those
    of a single pass over all the rows; wider readouts agree to rounding.
    With average each sum is divided by its number of terms, which is
    bit-equal to ``np.mean`` over the stacked predictions of those terms.
    """
    x = as_2d(inputs)
    n_rows, k = x.shape
    staged = [np.empty((n_rows, readout.n_outputs)) for _, readout in terms]
    # a lone last row joins the block before it: numpy multiplies a one-row
    # matrix on its vector path, whose bits differ from the matrix product's
    bounds = [0, *range(_BLOCK_ROWS, n_rows - 1, _BLOCK_ROWS), n_rows]
    block = np.empty((min(n_rows, _BLOCK_ROWS + 1),
                      k + max(res.params.n_reservoir for res, _ in terms)))
    last = {}  # the state each pass ended its last block in, by first term
    # an empty input is one empty block, whose passes check its width
    for start, stop in zip(bounds, bounds[1:]):
        rows = x[start:stop]
        for j, (res, readout) in enumerate(terms):
            if j == 0 or res is not terms[j - 1][0]:
                feats = block[:stop - start, :k + res.params.n_reservoir]
                feats[:, :k] = rows
                states = run_reservoir(res, rows, s0=last.get(j),
                                       out=feats[:, k:])
                if stop < n_rows:
                    last[j] = states[-1].copy()  # the block is reused
            pred = readout.predict(feats)
            total = pred if j == 0 else total + pred
            staged[j][start:stop] = total / (j + 1) if average else total
    return staged
