"""Every model the constructors accept saves and loads back bit for bit.

Two kinds of model are drawn.  Fitted ones come from short freedman and
narma10 splits: boosting in both modes and the averaging baseline.
Assembled ones are built by hand from ``init_reservoir`` reservoirs and
readouts of drawn shapes; some of their parts break a rule of
``Reservoir``, ``Readout`` or the model classes, such as a one-output
readout with a two-entry intercept or a w_in with one row too few.  A
model that every constructor accepts must save, reload, predict
bit-equal and save again to the same bytes, so ``save_model`` cannot
write a file that ``load_model`` refuses.  Seeds, sizes and counts are
drawn as Python or numpy integers, gamma as a Python or numpy float and
train_sse as a list or an ndarray, since the argument rules take all of
them.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from esnboost.boosting import (BoostModel, EnsembleModel, baseline_fit,
                               l2boost_fit, load_model, predict, save_model)
from esnboost.errors import ParameterError
from esnboost.esn import EsnParams, Readout, Reservoir, init_reservoir
from esnboost.harness import ExperimentConfig, load_benchmark

SPLITS = {name: (load_benchmark(config), config.gamma) for name, config in (
    ("freedman", ExperimentConfig.for_benchmark("freedman")),
    ("narma10", ExperimentConfig.for_benchmark("narma10", n_train=200,
                                               n_test=100, washout=50)))}

# Rules an assembled model can break, one at a time; None breaks none.
FLAWS = [None] * 5 + ["w_in_rows", "w_r_cols", "nan_w_r", "long_intercept",
                      "short_intercept", "width", "outputs", "inf_intercept",
                      "weights_1d"]


def ints(low, high):
    return st.builds(lambda kind, n: kind(n),
                     st.sampled_from([int, np.int64, np.int32, np.uint8]),
                     st.integers(low, high))


def reals(value):
    return st.sampled_from([float, np.float64, np.float32]).map(
        lambda kind: kind(value))


@st.composite
def fitted(draw):
    """A fitted model, as a builder, and the test inputs to predict."""
    (train, test), gamma = SPLITS[draw(st.sampled_from(sorted(SPLITS)))]
    gamma = draw(reals(gamma))
    params = EsnParams(n_inputs=train.n_inputs,
                       n_reservoir=draw(ints(1, 12)), seed=draw(ints(0, 99)))
    method = draw(st.sampled_from(["fresh", "shared", "baseline"]))
    if method == "baseline":
        k = draw(ints(1, 3))
        return lambda: baseline_fit(train, k, params, gamma), test.inputs
    m = draw(ints(0, 3))
    return (lambda: l2boost_fit(train, m, params, gamma, mode=method),
            test.inputs)


def _reservoir_parts(draw, n_inputs, rng, flaw):
    res = init_reservoir(EsnParams(n_inputs=n_inputs,
                                   n_reservoir=draw(ints(1, 8)),
                                   seed=draw(ints(0, 99))))
    w_in, w_r = res.w_in, res.w_r.copy()
    if flaw == "w_in_rows":
        n = len(w_r)
        w_in = rng.uniform(-0.2, 0.2, (n - 1 if n > 1 else 2, n_inputs))
    elif flaw == "w_r_cols":
        w_r = np.hstack([w_r, np.zeros((len(w_r), 1))])
    elif flaw == "nan_w_r":
        w_r[0, 0] = np.nan
    return res.params, w_in, w_r


def _readout_parts(n_features, n_outputs, rng, flaw):
    n_outputs += flaw == "outputs"
    n_features += flaw == "width"
    weights = rng.normal(size=(n_outputs, n_features))
    intercept = rng.normal(size=n_outputs + (flaw == "long_intercept")
                           - (flaw == "short_intercept"))
    if flaw == "inf_intercept":
        intercept[0] = np.inf
    if flaw == "weights_1d":
        weights = weights[0]
    return weights, intercept


def _builder(kind, reservoirs, terms, train_sse=(), gamma=1e-3):
    """Builds the model from its parts, so a constructor can refuse it."""
    def build():
        built = [Reservoir(w_in=w_in, w_r=w_r, params=params)
                 for params, w_in, w_r in reservoirs]
        parts = [(built[i], Readout(weights=weights, intercept=intercept))
                 for i, weights, intercept in terms]
        if kind == "ensemble":
            return EnsembleModel(terms=parts)
        return BoostModel(terms=parts, mode=kind, gamma=gamma,
                          train_sse=train_sse)
    return build


@st.composite
def assembled(draw):
    """A model built from drawn parts, as a builder, and inputs to predict.
    Its flaw, if any, is in the last reservoir or the last readout."""
    n_inputs, n_outputs = draw(ints(1, 2)), draw(ints(1, 2))
    kind = draw(st.sampled_from(["fresh", "shared", "ensemble"]))
    flaw = draw(st.sampled_from(FLAWS))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_terms = draw(st.integers(1, 3))
    reservoirs, terms = [], []
    for j in range(n_terms):
        last = j == n_terms - 1
        # a term may hold the reservoir before it, which is saved once
        if j == 0 or not (kind == "shared" or draw(st.booleans())):
            reservoirs.append(_reservoir_parts(draw, n_inputs, rng,
                                               flaw if last else None))
        params = reservoirs[-1][0]
        terms.append((len(reservoirs) - 1, *_readout_parts(
            n_inputs + params.n_reservoir, n_outputs, rng,
            flaw if last else None)))
    sse = rng.uniform(0, 1, n_terms)
    train_sse = draw(st.sampled_from([[], list(sse), sse]))
    return (_builder(kind, reservoirs, terms, train_sse, draw(reals(1e-3))),
            rng.uniform(-1, 1, (30, n_inputs)))


def _one_term_case(w_in_rows, intercept_len):
    """A one-term boost model over a 1-input, 6-unit reservoir."""
    res = init_reservoir(EsnParams(n_inputs=1, n_reservoir=6))
    w_in = np.full((w_in_rows, 1), 0.1)
    terms = [(0, np.full((1, 7), 0.5), np.zeros(intercept_len))]
    return (_builder("fresh", [(res.params, w_in, res.w_r)], terms),
            np.linspace(-1, 1, 30)[:, None])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=st.one_of(fitted(), assembled()))
# a one-output readout with a two-entry intercept, and a 5x1 w_in under
# n_reservoir=6: both were once saved to files load_model refused
@example(case=_one_term_case(w_in_rows=6, intercept_len=2))
@example(case=_one_term_case(w_in_rows=5, intercept_len=1))
def test_accepted_models_reload_bit_equal(case):
    build, inputs = case
    try:
        model = build()
    except ParameterError:
        return  # refused at construction, so it can never be saved
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp) / "model.json", Path(tmp) / "again.json"
        save_model(model, path)
        back = load_model(path)
        assert type(back) is type(model)
        assert np.array_equal(predict(back, inputs), predict(model, inputs))
        save_model(back, again)
        assert again.read_bytes() == path.read_bytes()
