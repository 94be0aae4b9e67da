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
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .datasets import SeriesDataset, read_text
from .errors import DataError, ParameterError
from .esn import (INPUT_RANGE, RESERVOIR_DENSITY, RESERVOIR_RANGE, EsnParams,
                  Reservoir, init_reservoir, run_reservoir)
# ridge_fit is not called here but stays a module attribute, as the
# benchmark's traced run patches it (perfbench/spans.py).
from .numerics import (Readout, _RidgeSolver, as_2d, require_choice,
                       require_int, require_real, ridge_fit)

__all__ = [
    "BoostModel",
    "EnsembleModel",
    "BOOST_MODES",
    "train_single_esn",
    "esn_predict",
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

# Rows per block of a prediction pass.  A multiple of 4, so every row keeps
# its place in the 4-row groups of the BLAS matrix-vector product of a
# one-output readout.
_BLOCK_ROWS = 512


def _check_terms(terms, what: str) -> None:
    """terms must be a non-empty list or tuple of (Reservoir, Readout) pairs;
    each readout must read its reservoir's [x | s] features, and all terms
    must agree on the input and output widths."""
    if not isinstance(terms, (list, tuple)) or not terms:
        raise ParameterError(f"{what}: terms must be a non-empty list or "
                             f"tuple, got {terms!r:.80}")
    widths = set()
    for j, term in enumerate(terms):
        if not (isinstance(term, tuple) and len(term) == 2
                and all(map(isinstance, term, (Reservoir, Readout)))):
            got = (tuple(type(x).__name__ for x in term)
                   if isinstance(term, tuple) else type(term).__name__)
            raise ParameterError(f"{what}: terms[{j}] must be a (Reservoir, "
                                 f"Readout) pair, got {got}")
        res, readout = term
        p = res.params
        if readout.n_features != p.n_inputs + p.n_reservoir:
            raise ParameterError(
                f"{what}: readout width {readout.n_features} does not match "
                f"reservoir feature width {p.n_inputs + p.n_reservoir}")
        widths.add((p.n_inputs, readout.n_outputs))
    if len(widths) > 1:
        raise ParameterError(
            f"{what} disagree on input/output widths: {sorted(widths)}")


@dataclass(eq=False)
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
    train_fitted: list[np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self):
        _check_terms(self.terms, "boost stages")
        require_choice("mode", self.mode, BOOST_MODES)
        if self.mode == "shared" and len({res for res, _ in self.terms}) > 1:
            raise ParameterError("shared mode requires every stage to hold "
                                 "the same reservoir object")
        require_real("gamma", self.gamma, 0)
        # a sequence or a 1-D array; an int, None or a 0-d array has no entries
        if not (isinstance(self.train_sse, Sequence)
                or getattr(self.train_sse, "ndim", 0) == 1):
            raise ParameterError(f"train_sse must be a sequence of numbers, "
                                 f"got {self.train_sse!r:.80}")
        if len(self.train_sse) not in (0, len(self.terms)):
            raise ParameterError(f"train_sse has {len(self.train_sse)} "
                                 f"entries for {len(self.terms)} stages")
        for sse in self.train_sse:
            require_real("train_sse entries", sse)
        self.gamma = float(self.gamma)  # numpy numbers do not save as JSON
        self.train_sse = [float(sse) for sse in self.train_sse]


@dataclass(eq=False)
class EnsembleModel:
    """Independently trained (reservoir, readout) terms, averaged at predict.

    ``train_fitted`` is as for :class:`BoostModel`: entry k - 1 is the
    average of the first k members' training predictions.
    """

    average = True  # predictions divide the sum of the terms by their count

    terms: list[tuple[Reservoir, Readout]]
    train_fitted: list[np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self):
        _check_terms(self.terms, "ensemble members")


def _feature_matrix(res: Reservoir, x: np.ndarray) -> np.ndarray:
    """One reservoir pass over x, written into a fresh [x | s | 1] matrix:
    the augmented design matrix the ridge solver factors.  The states go
    straight into their column block, so the pass allocates this one matrix.
    """
    k, n_res = x.shape[1], res.params.n_reservoir
    A = np.empty((x.shape[0], k + n_res + 1))
    A[:, :k] = x
    A[:, -1] = 1.0
    run_reservoir(res, x, _out=A[:, k:k + n_res])
    return A


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
                                       _out=feats[:, k:])
                if stop < n_rows:
                    last[j] = states[-1].copy()  # the block is reused
            pred = readout.predict(feats)
            total = pred if j == 0 else total + pred
            staged[j][start:stop] = total / (j + 1) if average else total
    return staged


def train_single_esn(train: SeriesDataset, params: EsnParams,
                     gamma: float) -> tuple[Reservoir, Readout]:
    """Draw one reservoir and ridge-fit its readout on post-washout rows."""
    return _fit_terms(train, params, gamma, 1, "ensemble")[0][0]


def esn_predict(res: Reservoir, readout: Readout, inputs) -> np.ndarray:
    """Run the reservoir over inputs and apply the readout to [x | s] rows."""
    return _predict_terms([(res, readout)], inputs)[-1]


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

# The draw constants as a params block holds them; others are refused.
_DRAW = {"input_range": list(INPUT_RANGE),
         "reservoir_range": list(RESERVOIR_RANGE),
         "reservoir_density": RESERVOIR_DENSITY}


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
    for name, value in _DRAW.items():
        if obj[name] != value:
            raise DataError(f"{name} must be {value}, got {obj[name]!r}")
    return EsnParams(**{f.name: obj[f.name] for f in fields(EsnParams)})


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
        if res not in index:
            index[res] = len(blocks)
            p = res.params  # the file has the draw constants before seed
            blocks.append({"params": {"n_inputs": p.n_inputs,
                                      "n_reservoir": p.n_reservoir, **_DRAW,
                                      "seed": p.seed},
                           "w_in": _encode_matrix(res.w_in),
                           "w_r": _encode_matrix(res.w_r)})
        position = {"stage_index": m} if head["kind"] == "boost" else {}
        terms.append({**position, "reservoir": index[res],
                      "readout": _encode_readout(readout)})
    doc = {"format": _FORMAT, **head, "reservoirs": blocks,
           _TERM_KEY[head["kind"]]: terms}
    text = json.dumps(doc, indent=1) + "\n"  # a failed encode opens no file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


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
    except RecursionError as exc:  # json.loads recurses once per nesting level
        raise DataError(f"{path}: JSON nested too deeply: {exc}") from exc
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
                          train_sse=doc["train_sse"])
    except (KeyError, IndexError, OverflowError, TypeError, ValueError) as exc:
        # ValueError covers DataError and ParameterError; OverflowError, huge ints
        raise DataError(f"{path}: malformed model document: {exc}") from exc
