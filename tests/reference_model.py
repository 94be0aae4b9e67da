"""An independent reference model of one experiment: the executable spec.

Written from README's description of a run with plain numpy, so that it
shares no code with the library but the benchmark data loader.  Term j
draws its reservoir from seed + j (w_in, then w_r's values, then its keep
mask, uniform on one PCG64 stream), except that shared boosting reuses
term 0's; each pass starts from the zero state; readouts are ridge fits on
the post-washout training rows of [x | s | 1] with the intercept
unpenalized; boosting fits each term to the targets minus the terms before
it, the ensemble fits each to the targets and averages them.
"""

import numpy as np

from esnboost import load_benchmark

# The share of w_r's entries a run keeps: every run uses the default density.
DENSITY = 0.1


def _reservoir(seed, n_inputs, n_res, density):
    rng = np.random.default_rng(seed)
    w_in = rng.uniform(-0.2, 0.2, (n_res, n_inputs))
    w_r = rng.uniform(-0.8, 0.8, (n_res, n_res))
    if density < 1.0:
        w_r = np.where(rng.uniform(0.0, 1.0, (n_res, n_res)) < density, w_r, 0.0)
    return w_in, w_r


def _features(w_in, w_r, inputs):
    s, rows = np.zeros(len(w_r)), []
    for x in inputs:
        s = np.tanh(x @ w_in.T + w_r @ s)
        rows.append(np.concatenate([x, s, [1.0]]))
    return np.array(rows)


def _errors(predicted, targets):
    """(NMSE, MSE) of predictions of the given targets."""
    sse = np.sum((predicted - targets) ** 2)
    return (sse / np.sum((targets - targets.mean(axis=0)) ** 2),
            sse / len(targets))


def reference_errors(config):
    """(train NMSE, test NMSE, train MSE, test MSE) of the model made of the
    first k terms of the config's run, for k = 1, 2, ... up to its count."""
    train, test = load_benchmark(config)
    w, boost = config.washout, config.method == "boost"
    shared = boost and config.boost_mode == "shared"
    n_terms = {"single": 1, "boost": config.n_stages + 1,
               "baseline": config.n_members}[config.method]
    targets, fitted, predicted, out = train.targets[w:], 0.0, 0.0, []
    for j in range(n_terms):
        weights = _reservoir(config.seed + (0 if shared else j),
                             train.n_inputs, config.n_reservoir,
                             DENSITY)
        F = _features(*weights, train.inputs)[w:]
        penalty = np.diag([config.gamma] * (F.shape[1] - 1) + [0.0])
        coef = np.linalg.solve(F.T @ F + penalty,
                               F.T @ (targets - fitted if boost else targets))
        fitted = fitted + F @ coef
        predicted = predicted + _features(*weights, test.inputs)[w:] @ coef
        scale = 1 if boost else j + 1
        train_nmse, train_mse = _errors(fitted / scale, targets)
        test_nmse, test_mse = _errors(predicted / scale, test.targets[w:])
        out.append((train_nmse, test_nmse, train_mse, test_mse))
    return out
