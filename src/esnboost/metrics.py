"""Error measures for one-step-ahead prediction.

All measures skip the washout prefix of the segment they are given and
normalize against that same segment's post-washout target variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError, ParameterError
from .numerics import as_2d, require_int

__all__ = ["EvalResult", "evaluate"]


@dataclass(frozen=True)
class EvalResult:
    """Post-washout error summary for one prediction run."""

    mse: float
    nmse: float
    nrmse: float
    n_evaluated: int


def evaluate(predictions, targets, washout: int = 0) -> EvalResult:
    """Score predictions against targets, ignoring the first washout rows.

    nmse is the summed squared error over the summed squared deviation of
    the scored targets from their own mean, nrmse its square root, and mse
    the squared error per scored row.  Constant scored targets make the
    normalization meaningless and raise DataError, as do non-finite scored
    predictions or targets; sums of squares that overflow float64 raise
    NumericalError.
    """
    predictions = as_2d(predictions)
    targets = as_2d(targets)
    if predictions.shape != targets.shape:
        raise ParameterError(
            f"shape mismatch: predictions {predictions.shape} vs targets "
            f"{targets.shape}")
    require_int("washout", washout, 0)
    if washout >= targets.shape[0]:
        raise ParameterError(
            f"washout {washout} must be in [0, rows={targets.shape[0]})")

    pred = predictions[washout:]
    targ = targets[washout:]
    for name, scored in (("predictions", pred), ("targets", targ)):
        if not np.isfinite(scored).all():
            raise DataError(f"{name} contain non-finite values after washout")
    n = targ.shape[0]
    # overflow is reported below as an error instead of a warning; so is
    # inf - inf, when partial sums overflow with opposite signs
    with np.errstate(over="ignore", invalid="ignore"):
        sse = float(np.sum((pred - targ) ** 2))
        denom = float(np.sum((targ - targ.mean(axis=0)) ** 2))
    if denom == 0.0:
        raise DataError("targets are constant after washout; nmse is undefined")
    nmse_val = sse / denom
    if not all(map(math.isfinite, (sse, denom, nmse_val))):
        raise NumericalError(
            f"error sums overflow float64 (squared error {sse}, target sum "
            f"of squares {denom}); rescale the series")
    return EvalResult(mse=sse / n, nmse=nmse_val,
                      nrmse=math.sqrt(nmse_val), n_evaluated=n)

