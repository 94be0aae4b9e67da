"""Combiners that turn cheap unscaled networks into usable predictors.

Every method is one additive model over :mod:`esnboost.esn`: a sum of
(reservoir, readout) terms.  A single network is one term.  Residual
boosting fits an initial least-squares term and then terms that each
ridge-fit the current training residuals.  The averaging ensemble fits
every term to the targets and divides the sum by the number of terms.

Boosting runs in one of two modes.  ``fresh`` draws a new reservoir for
every stage (seed + stage index), so each stage brings new random
features.  ``shared`` reuses the initial stage's reservoir and states for
every stage, which makes boosting an iterated ridge fit on one fixed
feature expansion.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .datasets import SeriesDataset
from .errors import DataError, ParameterError
from .esn import (EsnParams, Reservoir, _predict_terms, build_features,
                  init_reservoir, run_reservoir)
from .numerics import Readout, ridge_fit

__all__ = [
    "BoostStage",
    "BoostModel",
    "EnsembleModel",
    "BOOST_MODES",
    "train_single_esn",
    "l2boost_fit",
    "boost_predict",
    "baseline_fit",
    "baseline_predict",
    "save_model",
    "load_model",
]

BOOST_MODES = ("fresh", "shared")

# Ensemble width used when nothing else is configured.
DEFAULT_ENSEMBLE_SIZE = 30


@dataclass
class BoostStage:
    """One additive term: a reservoir plus the readout fitted at that stage."""

    reservoir: Reservoir
    readout: Readout
    stage_index: int

    def __post_init__(self):
        if self.stage_index < 0:
            raise ParameterError(f"stage_index must be >= 0, got {self.stage_index}")
        p = self.reservoir.params
        expected = p.n_inputs + p.n_reservoir
        if self.readout.n_features != expected:
            raise ParameterError(
                f"stage {self.stage_index}: readout width {self.readout.n_features} "
                f"does not match reservoir feature width {expected}")


@dataclass
class BoostModel:
    """Additive predictor: stage 0 fits targets, later stages fit residuals.

    ``train_sse`` records the post-washout training sum of squared errors
    after each stage, so the non-worsening property of the stagewise fit
    can be audited without re-running anything.
    """

    stages: list[BoostStage]
    mode: str
    gamma: float
    train_sse: list[float] = field(default_factory=list)

    def __post_init__(self):
        if not self.stages:
            raise ParameterError("a boost model needs at least one stage")
        if self.mode not in BOOST_MODES:
            raise ParameterError(f"mode must be one of {BOOST_MODES}, got {self.mode!r}")
        if self.mode == "shared":
            first = self.stages[0].reservoir
            if any(st.reservoir is not first for st in self.stages):
                raise ParameterError(
                    "shared mode requires every stage to hold the same reservoir "
                    "object")

    @property
    def n_stages(self) -> int:
        """Residual-fitting stages on top of the initial fit (model has +1)."""
        return len(self.stages) - 1


@dataclass
class EnsembleModel:
    """Independently trained (reservoir, readout) pairs, averaged at predict."""

    members: list[tuple[Reservoir, Readout]]

    def __post_init__(self):
        if not self.members:
            raise ParameterError("an ensemble needs at least one member")
        widths = set()
        for res, readout in self.members:
            p = res.params
            widths.add((p.n_inputs, readout.n_outputs))
            if readout.n_features != p.n_inputs + p.n_reservoir:
                raise ParameterError(
                    "ensemble member readout width does not match its reservoir")
        if len(widths) > 1:
            raise ParameterError(
                f"ensemble members disagree on input/output widths: {sorted(widths)}")

    @property
    def n_members(self) -> int:
        return len(self.members)


def _fit_terms(train: SeriesDataset, params: EsnParams, gamma: float,
               n_terms: int, mode: str) -> tuple[list, list[float]]:
    """The one fit loop: ridge-fit n_terms (reservoir, readout) terms.

    Term j draws its reservoir from seed + j, except in shared mode, where
    every term reuses term 0's reservoir and features.  The boosting modes
    fit the running post-washout residual and record the training SSE after
    each term; ``"ensemble"`` fits every term to the targets.
    """
    if train.n_inputs != params.n_inputs:
        raise ParameterError(
            f"dataset has {train.n_inputs} input columns, params expect "
            f"{params.n_inputs}")
    w = train.washout
    targets = residual = train.targets[w:]
    terms, train_sse, running = [], [], None
    for j in range(n_terms):
        if j == 0 or mode != "shared":
            res = init_reservoir(replace(params, seed=params.seed + j))
            feats = build_features(train.inputs,
                                   run_reservoir(res, train.inputs))[w:]
        readout = ridge_fit(feats, residual, gamma)
        terms.append((res, readout))
        if mode != "ensemble":
            pred = readout.predict(feats)
            running = pred if running is None else running + pred
            residual = targets - running
            train_sse.append(float(np.sum(residual ** 2)))
    return terms, train_sse


def train_single_esn(train: SeriesDataset, params: EsnParams,
                     gamma: float) -> tuple[Reservoir, Readout]:
    """Draw one reservoir and ridge-fit its readout on post-washout rows."""
    return _fit_terms(train, params, gamma, 1, "ensemble")[0][0]


def l2boost_fit(train: SeriesDataset, n_stages: int, params: EsnParams,
                gamma: float, mode: str = "fresh") -> BoostModel:
    """Stagewise additive fit: initial least-squares stage, then n_stages
    rounds that each ridge-fit the current post-washout residuals.

    In fresh mode stage m draws its reservoir from seed + m (stage 0 from
    the seed itself); in shared mode every stage reuses stage 0's reservoir
    and its state trajectory.  Residuals, and therefore all fits, only ever
    see rows past the washout.
    """
    if n_stages < 0:
        raise ParameterError(f"n_stages must be >= 0, got {n_stages}")
    if mode not in BOOST_MODES:
        raise ParameterError(f"mode must be one of {BOOST_MODES}, got {mode!r}")
    terms, train_sse = _fit_terms(train, params, gamma, n_stages + 1, mode)
    stages = [BoostStage(reservoir=res, readout=readout, stage_index=m)
              for m, (res, readout) in enumerate(terms)]
    return BoostModel(stages=stages, mode=mode, gamma=gamma, train_sse=train_sse)


def boost_predict(model: BoostModel, inputs, s0=None) -> np.ndarray:
    """Sum the stage predictions over the given inputs; shared mode runs
    its one reservoir once."""
    return _predict_terms([(st.reservoir, st.readout) for st in model.stages],
                          inputs, s0)


def baseline_fit(train: SeriesDataset, n_members: int, params: EsnParams,
                 gamma: float) -> EnsembleModel:
    """Train n_members independent networks; member j uses seed + j."""
    if n_members < 1:
        raise ParameterError(f"n_members must be >= 1, got {n_members}")
    return EnsembleModel(members=_fit_terms(train, params, gamma, n_members,
                                            "ensemble")[0])


def baseline_predict(model: EnsembleModel, inputs, s0=None) -> np.ndarray:
    """Elementwise arithmetic mean of the member predictions."""
    return _predict_terms(model.members, inputs, s0, average=True)


# ---------------------------------------------------------------------------
# Model export / import.  JSON keeps floats at full round-trip precision, so
# a reloaded model predicts bit-identically.

_FORMAT = "esnboost-model-v1"


def _encode_matrix(a: np.ndarray) -> dict:
    return {"shape": list(a.shape), "entries": a.tolist()}


def _decode_matrix(obj: dict, what: str, expected=None) -> np.ndarray:
    try:
        a = np.array(obj["entries"], dtype=float)
        shape = tuple(obj["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed matrix block for {what}") from exc
    if a.shape != shape:
        raise DataError(f"{what}: declared shape {shape} but entries give {a.shape}")
    if expected is not None and shape != expected:
        raise DataError(f"{what}: shape {shape} does not match its params {expected}")
    return _finite(a, what)


def _finite(a: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(a).all():
        raise DataError(f"{what}: non-finite entries")
    return a


def _decode_params(obj: dict) -> EsnParams:
    """EsnParams from its JSON block; keys of no field (v1 files carry
    ``n_outputs``) are ignored."""
    values = {f.name: obj[f.name] for f in fields(EsnParams)}
    for name in ("input_range", "reservoir_range"):
        values[name] = tuple(values[name])
    return EsnParams(**values)


def _decode_reservoir(block: dict) -> Reservoir:
    p = _decode_params(block["params"])
    n, k = p.n_reservoir, p.n_inputs
    return Reservoir(w_in=_decode_matrix(block["w_in"], "w_in", (n, k)),
                     w_r=_decode_matrix(block["w_r"], "w_r", (n, n)), params=p)


def _encode_reservoirs(reservoirs: list[Reservoir]) -> tuple[list[dict], dict]:
    """Deduplicate by object identity so shared reservoirs serialize once."""
    blocks, index = [], {}
    for res in reservoirs:
        if id(res) in index:
            continue
        index[id(res)] = len(blocks)
        blocks.append({
            "params": asdict(res.params),
            "w_in": _encode_matrix(res.w_in),
            "w_r": _encode_matrix(res.w_r),
        })
    return blocks, index


def _encode_readout(readout: Readout) -> dict:
    return {"weights": _encode_matrix(readout.weights),
            "intercept": list(readout.intercept)}


def _decode_readout(obj: dict, what: str) -> Readout:
    return Readout(weights=_decode_matrix(obj["weights"], f"{what} weights"),
                   intercept=_finite(np.array(obj["intercept"], dtype=float),
                                     f"{what} intercept"))


def save_model(model, path) -> None:
    """Write a BoostModel or EnsembleModel as a self-contained JSON file."""
    if isinstance(model, BoostModel):
        blocks, index = _encode_reservoirs([st.reservoir for st in model.stages])
        doc = {
            "format": _FORMAT,
            "kind": "boost",
            "mode": model.mode,
            "gamma": model.gamma,
            "train_sse": list(model.train_sse),
            "reservoirs": blocks,
            "stages": [{
                "stage_index": st.stage_index,
                "reservoir": index[id(st.reservoir)],
                "readout": _encode_readout(st.readout),
            } for st in model.stages],
        }
    elif isinstance(model, EnsembleModel):
        blocks, index = _encode_reservoirs([res for res, _ in model.members])
        doc = {
            "format": _FORMAT,
            "kind": "ensemble",
            "reservoirs": blocks,
            "members": [{
                "reservoir": index[id(res)],
                "readout": _encode_readout(readout),
            } for res, readout in model.members],
        }
    else:
        raise ParameterError(f"cannot save object of type {type(model).__name__}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path):
    """Reload a file written by :func:`save_model`."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"model file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: not valid JSON: {exc}") from exc
    if doc.get("format") != _FORMAT:
        raise DataError(f"{path}: unrecognized format {doc.get('format')!r}")

    try:
        reservoirs = [_decode_reservoir(b) for b in doc["reservoirs"]]
        if doc["kind"] == "boost":
            stages = [BoostStage(reservoir=reservoirs[st["reservoir"]],
                                 readout=_decode_readout(st["readout"], "stage"),
                                 stage_index=st["stage_index"])
                      for st in doc["stages"]]
            return BoostModel(stages=stages, mode=doc["mode"],
                              gamma=doc["gamma"],
                              train_sse=[float(v) for v in doc["train_sse"]])
        if doc["kind"] == "ensemble":
            members = [(reservoirs[m["reservoir"]],
                        _decode_readout(m["readout"], "member"))
                       for m in doc["members"]]
            return EnsembleModel(members=members)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        # ValueError covers ParameterError from the model constructors
        raise DataError(f"{path}: malformed model document: {exc}") from exc
    raise DataError(f"{path}: unknown model kind {doc['kind']!r}")
