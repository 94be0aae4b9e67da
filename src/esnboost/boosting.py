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
from .esn import (EsnParams, Reservoir, _feature_matrix, _predict_terms,
                  init_reservoir, run_reservoir)
# run_reservoir and ridge_fit are not called here but stay module attributes,
# as the benchmark's traced run patches them (perfbench/spans.py); every pass
# reaches run_reservoir through esn, whose attribute is patched alike.
from .numerics import (Readout, _RidgeSolver, require_choice, require_int,
                       require_real, ridge_fit)

__all__ = [
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

    ``terms`` holds the (reservoir, readout) pair of each stage, in stage
    order.  ``train_sse`` records the post-washout training sum of squared
    errors after each stage, so the non-worsening property of the stagewise
    fit can be audited without re-running anything.  ``train_fitted`` holds
    the fit's post-washout training predictions after each stage; the last
    is the whole model's.  It is not saved, so a loaded model has None.
    """

    average = False  # predictions sum the terms

    terms: list[tuple[Reservoir, Readout]]
    mode: str
    gamma: float
    train_sse: list[float] = field(default_factory=list)
    train_fitted: list[np.ndarray] | None = field(default=None, repr=False,
                                                  compare=False)

    def __post_init__(self):
        if not self.terms:
            raise ParameterError("a boost model needs at least one stage")
        require_choice("mode", self.mode, BOOST_MODES)
        if self.mode == "shared" and len({id(res) for res, _ in self.terms}) > 1:
            raise ParameterError(
                "shared mode requires every stage to hold the same reservoir "
                "object")
        _check_terms(self.terms, "boost stages")
        require_real("gamma", self.gamma, 0)
        if self.train_sse and len(self.train_sse) != len(self.terms):
            raise ParameterError(
                f"train_sse has {len(self.train_sse)} entries for "
                f"{len(self.terms)} stages")
        for sse in self.train_sse:
            require_real("train_sse entries", sse)


@dataclass
class EnsembleModel:
    """Independently trained (reservoir, readout) terms, averaged at predict.

    ``train_fitted`` is as for :class:`BoostModel`: entry k - 1 is the
    average of the first k members' training predictions.
    """

    average = True  # predictions divide the sum of the terms by their count

    terms: list[tuple[Reservoir, Readout]]
    train_fitted: list[np.ndarray] | None = field(default=None, repr=False,
                                                  compare=False)

    def __post_init__(self):
        if not self.terms:
            raise ParameterError("an ensemble needs at least one member")
        _check_terms(self.terms, "ensemble members")


def _fit_terms(train: SeriesDataset, params: EsnParams, gamma: float,
               n_terms: int, mode: str):
    """The one fit loop: ridge-fit n_terms (reservoir, readout) terms.

    Term j draws its reservoir from seed + j, except in shared mode, where
    every term reuses term 0's reservoir, features and factored normal
    matrix.  Returns the post-washout training predictions of the first k
    terms for every k (the ensemble divides each running sum by k), each
    bit-equal to predicting with that prefix over ``train.inputs`` and
    dropping the washout rows, so scoring the fit needs no second pass.
    The boosting modes fit each term to the targets minus the sum before
    it and record the SSE of each sum, so train_sse[j] is exactly that of
    terms 0..j's predictions; ``"ensemble"`` fits every term to the targets.
    """
    w = train.washout
    targets = residual = train.targets[w:]
    terms, train_sse, staged, fitted = [], [], [], None
    for j in range(n_terms):
        if j == 0 or mode != "shared":
            A = solver = None  # free the last term's matrix first
            res = init_reservoir(replace(params, seed=params.seed + j))
            A = _feature_matrix(res, train.inputs)  # [x | s | 1]
            solver = _RidgeSolver(A[w:], gamma)
        readout = solver.fit(residual)
        terms.append((res, readout))
        # scored on every row and then sliced, exactly as prediction does
        pred = readout.predict(A[:, :-1])[w:]
        fitted = pred if fitted is None else fitted + pred
        staged.append(fitted / (j + 1) if mode == "ensemble" else fitted)
        if mode != "ensemble":
            residual = targets - fitted
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
    require_int("n_stages", n_stages, 0)
    require_choice("mode", mode, BOOST_MODES)
    terms, train_sse, fitted = _fit_terms(train, params, gamma, n_stages + 1,
                                          mode)
    return BoostModel(terms=terms, mode=mode, gamma=gamma,
                      train_sse=train_sse, train_fitted=fitted)


def boost_predict(model: BoostModel, inputs) -> np.ndarray:
    """Sum the stage predictions over the given inputs; shared mode runs
    its one reservoir once."""
    return _predict_terms(model.terms, inputs, model.average)[-1]


def baseline_fit(train: SeriesDataset, n_members: int, params: EsnParams,
                 gamma: float) -> EnsembleModel:
    """Train n_members independent networks; member j uses seed + j."""
    require_int("n_members", n_members, 1)
    terms, _, fitted = _fit_terms(train, params, gamma, n_members, "ensemble")
    return EnsembleModel(terms=terms, train_fitted=fitted)


def baseline_predict(model: EnsembleModel, inputs) -> np.ndarray:
    """Elementwise arithmetic mean of the member predictions."""
    return _predict_terms(model.terms, inputs, model.average)[-1]


# ---------------------------------------------------------------------------
# Model export / import.  JSON keeps floats at full round-trip precision, so
# a reloaded model predicts bit-identically.

_FORMAT = "esnboost-model-v1"

# The document key that lists the terms of each model kind.
_TERM_KEY = {"boost": "stages", "ensemble": "members"}


def _encode_matrix(a: np.ndarray) -> dict:
    return {"shape": list(a.shape), "entries": a.tolist()}


def _decode_matrix(obj: dict, what: str) -> np.ndarray:
    try:
        a = np.array(obj["entries"], dtype=float)
        shape = tuple(obj["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed matrix block for {what}") from exc
    if a.shape != shape:
        raise DataError(f"{what}: declared shape {shape} but entries give {a.shape}")
    return a


def _decode_params(obj: dict) -> EsnParams:
    """EsnParams from its JSON block; keys of no field (v1 files carry
    ``n_outputs``) are ignored."""
    values = {f.name: obj[f.name] for f in fields(EsnParams)}
    for name in ("input_range", "reservoir_range"):
        values[name] = tuple(values[name])
    return EsnParams(**values)


def _decode_reservoir(block: dict) -> Reservoir:
    return Reservoir(w_in=_decode_matrix(block["w_in"], "w_in"),
                     w_r=_decode_matrix(block["w_r"], "w_r"),
                     params=_decode_params(block["params"]))


def _encode_readout(readout: Readout) -> dict:
    return {"weights": _encode_matrix(readout.weights),
            "intercept": list(readout.intercept)}


def _decode_readout(obj: dict) -> Readout:
    return Readout(weights=_decode_matrix(obj["weights"], "readout weights"),
                   intercept=obj["intercept"])


def save_model(model, path) -> None:
    """Write a BoostModel or EnsembleModel as a self-contained JSON file."""
    if isinstance(model, BoostModel):
        head = {"kind": "boost", "mode": model.mode, "gamma": model.gamma,
                "train_sse": list(model.train_sse)}
    elif isinstance(model, EnsembleModel):
        head = {"kind": "ensemble"}
    else:
        raise ParameterError(f"cannot save object of type {type(model).__name__}")
    # shared reservoirs are written once, deduplicated by object identity;
    # a boost stage also records its position as its stage_index
    blocks, index, terms = [], {}, []
    for m, (res, readout) in enumerate(model.terms):
        if id(res) not in index:
            index[id(res)] = len(blocks)
            blocks.append({"params": asdict(res.params),
                           "w_in": _encode_matrix(res.w_in),
                           "w_r": _encode_matrix(res.w_r)})
        position = {"stage_index": m} if head["kind"] == "boost" else {}
        terms.append({**position, "reservoir": index[id(res)],
                      "readout": _encode_readout(readout)})
    doc = {"format": _FORMAT, **head, "reservoirs": blocks,
           _TERM_KEY[head["kind"]]: terms}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _index(term: dict, key: str) -> int:
    """A term's index field; a bool or a float would pass for an int."""
    require_int(key, term[key])
    return term[key]


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

    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _TERM_KEY:
        raise DataError(f"{path}: unknown model kind {kind!r}")

    try:
        # keyed by position, so a negative index is a KeyError, not a wrap
        reservoirs = dict(enumerate(map(_decode_reservoir, doc["reservoirs"])))
        items = doc[_TERM_KEY[kind]]
        terms = [(reservoirs[_index(t, "reservoir")],
                  _decode_readout(t["readout"])) for t in items]
        if kind == "ensemble":
            return EnsembleModel(terms=terms)
        indices = [_index(t, "stage_index") for t in items]
        if indices != list(range(len(items))):
            raise DataError(f"stage_index values {indices} are not the "
                            f"stage positions 0, 1, 2, ...")
        return BoostModel(terms=terms, mode=doc["mode"], gamma=doc["gamma"],
                          train_sse=list(doc["train_sse"]))
    except (KeyError, IndexError, OverflowError, TypeError, ValueError) as exc:
        # ValueError covers DataError and ParameterError; OverflowError, huge ints
        raise DataError(f"{path}: malformed model document: {exc}") from exc
