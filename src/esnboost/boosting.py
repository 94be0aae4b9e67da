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

import numpy as np

from .datasets import SeriesDataset, read_text
from .errors import DataError, ParameterError
from .esn import (EsnParams, Reservoir, _predict_terms, build_features,
                  init_reservoir, run_reservoir)
# ridge_fit is not called here but stays a module attribute, as the
# benchmark's traced run patches it (perfbench/spans.py).
from .numerics import Readout, _RidgeSolver, ridge_fit

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
        _check_terms([(self.reservoir, self.readout)], f"stage {self.stage_index}")


def _check_terms(terms, what: str) -> None:
    """Each readout must read its reservoir's [x | s] features, and all terms
    must agree on the input and output widths."""
    widths = set()
    for res, readout in terms:
        p = res.params
        if readout.n_features != p.n_inputs + p.n_reservoir:
            raise ParameterError(
                f"{what}: readout width {readout.n_features} does not match "
                f"reservoir feature width {p.n_inputs + p.n_reservoir}")
        widths.add((p.n_inputs, readout.n_outputs))
    if len(widths) > 1:
        raise ParameterError(
            f"{what} disagree on input/output widths: {sorted(widths)}")


@dataclass
class BoostModel:
    """Additive predictor: stage 0 fits targets, later stages fit residuals.

    ``train_sse`` records the post-washout training sum of squared errors
    after each stage, so the non-worsening property of the stagewise fit
    can be audited without re-running anything.  ``train_fitted`` holds the
    fit's post-washout training predictions after each stage; the last is
    the whole model's.  It is not saved, so a loaded model has None.
    """

    average = False  # predictions sum the terms

    stages: list[BoostStage]
    mode: str
    gamma: float
    train_sse: list[float] = field(default_factory=list)
    train_fitted: list[np.ndarray] | None = field(default=None, repr=False,
                                                  compare=False)

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
        _check_terms(self.terms, "boost stages")

    @property
    def terms(self) -> list[tuple[Reservoir, Readout]]:
        """The (reservoir, readout) terms, in stage order."""
        return [(st.reservoir, st.readout) for st in self.stages]

    @property
    def n_stages(self) -> int:
        """Residual-fitting stages on top of the initial fit (model has +1)."""
        return len(self.stages) - 1


@dataclass
class EnsembleModel:
    """Independently trained (reservoir, readout) pairs, averaged at predict.

    ``train_fitted`` is as for :class:`BoostModel`: entry k - 1 is the
    average of the first k members' training predictions.
    """

    average = True  # predictions divide the sum of the terms by their count

    members: list[tuple[Reservoir, Readout]]
    train_fitted: list[np.ndarray] | None = field(default=None, repr=False,
                                                  compare=False)

    def __post_init__(self):
        if not self.members:
            raise ParameterError("an ensemble needs at least one member")
        _check_terms(self.members, "ensemble members")

    @property
    def terms(self) -> list[tuple[Reservoir, Readout]]:
        """The (reservoir, readout) terms, in member order."""
        return self.members

    @property
    def n_members(self) -> int:
        return len(self.members)


def _fit_terms(train: SeriesDataset, params: EsnParams, gamma: float,
               n_terms: int, mode: str):
    """The one fit loop: ridge-fit n_terms (reservoir, readout) terms.

    Term j draws its reservoir from seed + j, except in shared mode, where
    every term reuses term 0's reservoir, features and factored normal
    matrix.  The boosting modes fit the running post-washout residual and
    record the training SSE after each term; ``"ensemble"`` fits every term
    to the targets.  Also returns the post-washout training predictions of
    the first k terms for every k (the ensemble divides each running sum by
    k), each bit-equal to predicting with that prefix over ``train.inputs``
    and dropping the washout rows, so scoring the fit needs no second
    reservoir pass.
    """
    if train.n_inputs != params.n_inputs:
        raise ParameterError(
            f"dataset has {train.n_inputs} input columns, params expect "
            f"{params.n_inputs}")
    w = train.washout
    targets = residual = train.targets[w:]
    terms, train_sse, staged, running, fitted = [], [], [], None, None
    for j in range(n_terms):
        if j == 0 or mode != "shared":
            full = feats = solver = None  # free the last term's matrices first
            res = init_reservoir(replace(params, seed=params.seed + j))
            full = build_features(train.inputs, run_reservoir(res, train.inputs))
            feats = full[w:]
            solver = _RidgeSolver(feats, gamma)
        readout = solver.fit(residual)
        terms.append((res, readout))
        # scored on every row and then sliced, exactly as prediction does
        pred = readout.predict(full)[w:]
        fitted = pred if fitted is None else fitted + pred
        staged.append(fitted / (j + 1) if mode == "ensemble" else fitted)
        if mode != "ensemble":
            pred = readout.predict(feats)
            running = pred if running is None else running + pred
            residual = targets - running
            train_sse.append(float(np.sum(residual ** 2)))
    return terms, train_sse, staged


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
    terms, train_sse, fitted = _fit_terms(train, params, gamma, n_stages + 1,
                                          mode)
    stages = [BoostStage(reservoir=res, readout=readout, stage_index=m)
              for m, (res, readout) in enumerate(terms)]
    return BoostModel(stages=stages, mode=mode, gamma=gamma,
                      train_sse=train_sse, train_fitted=fitted)


def boost_predict(model: BoostModel, inputs, s0=None) -> np.ndarray:
    """Sum the stage predictions over the given inputs; shared mode runs
    its one reservoir once."""
    return _predict_terms(model.terms, inputs, s0, model.average)[-1]


def baseline_fit(train: SeriesDataset, n_members: int, params: EsnParams,
                 gamma: float) -> EnsembleModel:
    """Train n_members independent networks; member j uses seed + j."""
    if n_members < 1:
        raise ParameterError(f"n_members must be >= 1, got {n_members}")
    members, _, fitted = _fit_terms(train, params, gamma, n_members, "ensemble")
    return EnsembleModel(members=members, train_fitted=fitted)


def baseline_predict(model: EnsembleModel, inputs, s0=None) -> np.ndarray:
    """Elementwise arithmetic mean of the member predictions."""
    return _predict_terms(model.terms, inputs, s0, model.average)[-1]


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


def _encode_readout(readout: Readout) -> dict:
    return {"weights": _encode_matrix(readout.weights),
            "intercept": list(readout.intercept)}


def _decode_readout(obj: dict, what: str) -> Readout:
    weights = _decode_matrix(obj["weights"], f"{what} weights")
    intercept = _finite(np.array(obj["intercept"], dtype=float),
                        f"{what} intercept")
    if intercept.shape != weights.shape[:1]:
        raise DataError(f"{what} intercept: shape {intercept.shape} does not "
                        f"match {weights.shape[0]} weight rows")
    return Readout(weights=weights, intercept=intercept)


def save_model(model, path) -> None:
    """Write a BoostModel or EnsembleModel as a self-contained JSON file."""
    if isinstance(model, BoostModel):
        head = {"kind": "boost", "mode": model.mode, "gamma": model.gamma,
                "train_sse": list(model.train_sse)}
        key, extras = "stages", [{"stage_index": st.stage_index}
                                 for st in model.stages]
    elif isinstance(model, EnsembleModel):
        head, key, extras = {"kind": "ensemble"}, "members", [{}] * model.n_members
    else:
        raise ParameterError(f"cannot save object of type {type(model).__name__}")
    # shared reservoirs are written once, deduplicated by object identity
    blocks, index, terms = [], {}, []
    for extra, (res, readout) in zip(extras, model.terms):
        if id(res) not in index:
            index[id(res)] = len(blocks)
            blocks.append({"params": asdict(res.params),
                           "w_in": _encode_matrix(res.w_in),
                           "w_r": _encode_matrix(res.w_r)})
        terms.append({**extra, "reservoir": index[id(res)],
                      "readout": _encode_readout(readout)})
    doc = {"format": _FORMAT, **head, "reservoirs": blocks, key: terms}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path):
    """Reload a file written by :func:`save_model`."""
    try:
        doc = json.loads(read_text(path, "model file"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path}: expected a JSON object, got "
                        f"{type(doc).__name__}")
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
