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

from .errors import ParameterError
from .numerics import Readout, Rng, as_2d, uniform_matrix

__all__ = [
    "EsnParams",
    "Reservoir",
    "Readout",
    "init_reservoir",
    "run_reservoir",
    "build_features",
    "esn_predict",
]

# Diagnostic hook: when set to a callable, it receives every state matrix
# produced by run_reservoir.  Used by the test suite to audit state bounds.
state_observer = None


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
        if self.n_inputs < 1 or self.n_reservoir < 1:
            raise ParameterError(
                f"dimensions must be >= 1, got inputs={self.n_inputs} "
                f"reservoir={self.n_reservoir}")
        for name in ("input_range", "reservoir_range"):
            lo, hi = getattr(self, name)
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


def run_reservoir(res: Reservoir, inputs, s0=None) -> np.ndarray:
    """Iterate s(t) = tanh(w_in x(t) + w_r s(t-1)) over the input rows.

    Row t of the result is s(t).  The initial state defaults to zeros; the
    transient that causes is what washout rows are for.
    """
    x = as_2d(inputs)
    n_res = res.params.n_reservoir
    if x.shape[1] != res.params.n_inputs:
        raise ParameterError(
            f"reservoir expects {res.params.n_inputs} input columns, got {x.shape[1]}")
    if s0 is None:
        s = np.zeros(n_res)
    else:
        s = np.asarray(s0, dtype=float)
        if s.shape != (n_res,):
            raise ParameterError(f"s0 must have shape ({n_res},), got {s.shape}")

    drive = x @ res.w_in.T  # input contribution for all steps at once
    states = np.empty((x.shape[0], n_res))
    for t in range(x.shape[0]):
        s = np.tanh(drive[t] + res.w_r @ s)
        states[t] = s
    if state_observer is not None:
        state_observer(states)
    return states


def build_features(inputs, states) -> np.ndarray:
    """Concatenate [x(t) | s(t)] row-wise; the intercept is the solver's job."""
    x = as_2d(inputs)
    s = as_2d(states)
    if x.shape[0] != s.shape[0]:
        raise ParameterError(
            f"row mismatch: {x.shape[0]} input rows vs {s.shape[0]} state rows")
    return np.hstack([x, s])


def esn_predict(res: Reservoir, readout: Readout, inputs, s0=None) -> np.ndarray:
    """Run the reservoir over inputs and apply the readout to [x | s] rows."""
    return _predict_terms([(res, readout)], inputs, s0)[-1]


def _predict_terms(terms, inputs, s0=None, average=False) -> list[np.ndarray]:
    """Running sums of the readout predictions of (reservoir, readout) terms.

    Element k - 1 is the prediction of the first k terms, summed in term
    order, so the last element is the whole model's.  Consecutive terms
    holding the same reservoir object share one reservoir pass; only the
    current pass's features are kept alive.  With average each sum is
    divided by its number of terms, which is bit-equal to ``np.mean`` over
    the stacked predictions of those terms.
    """
    x = as_2d(inputs)
    staged, total, feats, res = [], None, None, None
    for count, (term_res, readout) in enumerate(terms, start=1):
        if term_res is not res:
            res, feats = term_res, None
            feats = build_features(x, run_reservoir(res, x, s0))
        pred = readout.predict(feats)
        total = pred if total is None else total + pred
        staged.append(total / count if average else total)
    return staged
