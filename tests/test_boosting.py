"""Tests for residual boosting, the averaging ensemble, and model export."""

import json
import pickle
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from esnboost.boosting import (BoostModel, EnsembleModel, _feature_matrix,
                               _predict_terms, baseline_fit, baseline_predict,
                               boost_predict, esn_predict, l2boost_fit,
                               load_model, save_model, train_single_esn)
from esnboost.datasets import SeriesDataset
from esnboost.errors import DataError, ParameterError
from esnboost.esn import (EsnParams, Readout, build_features, init_reservoir,
                          run_reservoir)
from esnboost.harness import (BENCHMARK_DEFAULTS, ExperimentConfig,
                              load_benchmark)
from esnboost.metrics import evaluate
from esnboost.numerics import as_2d, ridge_fit

from conftest import count_passes, draw_reservoir


def toy_dataset(rows=60, washout=5, n_inputs=1, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(rows, n_inputs))
    y = np.sin(3 * x[:, :1].sum(axis=1, keepdims=True)) + 0.1 * rng.normal(
        size=(rows, 1))
    return SeriesDataset(inputs=x, targets=y, washout=washout)


PARAMS = EsnParams(n_inputs=1, n_reservoir=12, seed=42)
GOLDEN = Path(__file__).with_name("golden_outputs")


class TestTrainSingleEsn:
    def test_zero_targets_zero_readout(self):
        data = toy_dataset()
        data = SeriesDataset(inputs=data.inputs,
                             targets=np.zeros_like(data.targets),
                             washout=data.washout)
        _, readout = train_single_esn(data, PARAMS, gamma=1e-3)
        np.testing.assert_allclose(readout.weights, 0.0, atol=1e-12)
        np.testing.assert_allclose(readout.intercept, 0.0, atol=1e-12)

    def test_beats_constant_mean_on_train(self):
        for seed in range(5):
            data = toy_dataset(seed=seed)
            res, readout = train_single_esn(data, PARAMS, gamma=1e-3)
            pred = esn_predict(res, readout, data.inputs)
            assert evaluate(pred, data.targets, data.washout).nmse <= 1.0 + 1e-9

    def test_washout_rows_excluded_from_fit(self):
        data = toy_dataset()
        res, readout = train_single_esn(data, PARAMS, gamma=1e-3)
        states = run_reservoir(res, data.inputs)
        feats = build_features(data.inputs, states)
        w = data.washout
        oracle = ridge_fit(feats[w:], data.targets[w:], 1e-3)
        np.testing.assert_array_equal(readout.weights, oracle.weights)
        np.testing.assert_array_equal(readout.intercept, oracle.intercept)

    def test_input_width_checked(self):
        with pytest.raises(ParameterError):
            train_single_esn(toy_dataset(n_inputs=2), PARAMS, gamma=1e-3)


class TestL2BoostFit:
    def test_zero_stages_equals_single_fit(self):
        data = toy_dataset()
        res, readout = train_single_esn(data, PARAMS, gamma=1e-3)
        for mode in ("fresh", "shared"):
            model = l2boost_fit(data, 0, PARAMS, 1e-3, mode=mode)
            assert len(model.terms) == 1
            np.testing.assert_array_equal(model.terms[0][1].weights,
                                          readout.weights)
            np.testing.assert_array_equal(
                boost_predict(model, data.inputs),
                esn_predict(res, readout, data.inputs))

    def test_fresh_stage_seeds_derived(self):
        data = toy_dataset()
        model = l2boost_fit(data, 3, PARAMS, 1e-3, mode="fresh")
        assert len(model.terms) == 4
        for m, (res, _) in enumerate(model.terms):
            expected = init_reservoir(
                EsnParams(n_inputs=1, n_reservoir=12, seed=42 + m))
            np.testing.assert_array_equal(res.w_r, expected.w_r)
            assert res.params.seed == 42 + m

    def test_shared_mode_reuses_one_reservoir(self):
        data = toy_dataset()
        model = l2boost_fit(data, 4, PARAMS, 1e-3, mode="shared")
        first = model.terms[0][0]
        assert all(res is first for res, _ in model.terms)

    def test_exact_target_leaves_later_stages_silent(self):
        # constant target: the stage-0 intercept absorbs it exactly,
        # so every residual stage must fit (numerical) zeros
        data = toy_dataset()
        data = SeriesDataset(inputs=data.inputs,
                             targets=np.full_like(data.targets, 0.37),
                             washout=data.washout)
        model = l2boost_fit(data, 3, PARAMS, 1e-3, mode="fresh")
        for _, readout in model.terms[1:]:
            assert np.linalg.norm(readout.weights) < 1e-8
        np.testing.assert_allclose(boost_predict(model, data.inputs), 0.37,
                                   atol=1e-8)

    def test_one_stage_matches_manual_two_pass_fit(self):
        data = toy_dataset(rows=20, washout=0)
        w = data.washout
        model = l2boost_fit(data, 1, PARAMS, 1e-3, mode="fresh")

        res0 = init_reservoir(PARAMS)
        feats0 = build_features(data.inputs, run_reservoir(res0, data.inputs))
        fit0 = ridge_fit(feats0[w:], data.targets[w:], 1e-3)
        residual = data.targets[w:] - fit0.predict(feats0[w:])
        res1 = init_reservoir(EsnParams(n_inputs=1, n_reservoir=12, seed=43))
        feats1 = build_features(data.inputs, run_reservoir(res1, data.inputs))
        fit1 = ridge_fit(feats1[w:], residual, 1e-3)
        manual = fit0.predict(feats0) + fit1.predict(feats1)

        got = boost_predict(model, data.inputs)
        assert np.max(np.abs(got - manual)) < 1e-10

    def test_training_sse_non_increasing(self):
        for mode in ("fresh", "shared"):
            for seed in range(3):
                data = toy_dataset(seed=seed)
                model = l2boost_fit(data, 8, PARAMS, 1e-4, mode=mode)
                diffs = np.diff(model.train_sse)
                assert np.all(diffs <= 1e-9), (mode, seed, diffs)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), rows=st.integers(20, 80), n_inputs=st.integers(1, 3),
           n_reservoir=st.integers(2, 20), gamma=st.floats(1e-4, 1.0),
           n_stages=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
    def test_property_training_sse_non_increasing(self, data, rows, n_inputs,
                                                  n_reservoir, gamma,
                                                  n_stages, seed):
        # each ridge step leaves the intercept unpenalised, so it can always
        # choose w = 0, b = 0 and keep the previous SSE
        unit = st.floats(0.0, 1.0)
        train = SeriesDataset(
            inputs=data.draw(arrays(float, (rows, n_inputs), elements=unit)),
            targets=data.draw(arrays(float, (rows, 1), elements=unit)),
            washout=data.draw(st.integers(0, (rows - 1) // 2)))
        params = EsnParams(n_inputs=n_inputs, n_reservoir=n_reservoir,
                           seed=seed)
        for mode in ("fresh", "shared"):
            model = l2boost_fit(train, n_stages, params, gamma, mode=mode)
            sse = model.train_sse
            assert np.all(np.diff(sse) <= 1e-9 * max(1.0, sse[0])), (mode, sse)

    def test_sse_trace_matches_recomputation(self):
        data = toy_dataset()
        model = l2boost_fit(data, 3, PARAMS, 1e-3, mode="fresh")
        w = data.washout
        for m in range(4):
            partial = BoostModel(terms=model.terms[:m + 1], mode="fresh",
                                 gamma=1e-3)
            pred = boost_predict(partial, data.inputs)
            sse = float(np.sum((data.targets[w:] - pred[w:]) ** 2))
            assert sse == model.train_sse[m]

    def test_validation(self):
        data = toy_dataset()
        with pytest.raises(ParameterError):
            l2boost_fit(data, -1, PARAMS, 1e-3)
        with pytest.raises(ParameterError):
            l2boost_fit(data, 2, PARAMS, 1e-3, mode="other")


class TestSharedModeClosedForm:
    """Shared mode is L2Boost with one fixed ridge smoother (Buhlmann & Yu
    2003, "Boosting with the L2 loss").  With the centred post-washout
    [x | s] features Xc = U S V', q_i = gamma / (s_i^2 + gamma) and
    c = U' y_c, the training SSE after stage m is
    ||y_c||^2 - ||c||^2 + sum_i q_i^(2(m+1)) c_i^2; the unpenalised
    intercept fits the mean at stage 0."""

    @staticmethod
    def closed_form(train, n_stages, n_reservoir, gamma, seed=0):
        """(train_sse, closed-form SSE per stage, ||y_c||^2) of a shared fit."""
        params = EsnParams(n_inputs=train.n_inputs, n_reservoir=n_reservoir,
                           seed=seed)
        model = l2boost_fit(train, n_stages, params, gamma, mode="shared")
        w = train.washout
        states = run_reservoir(model.terms[0][0], train.inputs)
        X = np.hstack([train.inputs, states])[w:]
        y = train.targets[w:, 0]
        Xc, yc = X - X.mean(axis=0), y - y.mean()
        U, svals, _ = np.linalg.svd(Xc, full_matrices=False)
        c = U.T @ yc
        q = gamma / (svals ** 2 + gamma)
        outside = np.sum((yc - U @ c) ** 2)  # ||y_c||^2 - ||c||^2
        want = [outside + np.sum(q ** (2 * (m + 1)) * c ** 2)
                for m in range(n_stages + 1)]
        return model.train_sse, want, float(yc @ yc)

    @pytest.mark.parametrize("name", ["henon", "narma10", "freedman"])
    @pytest.mark.parametrize("n_reservoir", [6, 12, 50])
    def test_train_sse_matches_shrink_spectrum(self, name, n_reservoir):
        train = benchmark_train(name)
        gamma = BENCHMARK_DEFAULTS[name]["gamma"]
        got, want, _ = self.closed_form(train, 8, n_reservoir, gamma)
        for m, (g, v) in enumerate(zip(got, want)):
            assert abs(g - v) <= 1e-9 * v, (m, g, v)

    def test_spectrum_predicts_criterion_3_plateau(self):
        """Criterion 3's per-size tally follows from the spectrum alone.
        From stage 4 to 5 the SSE falls by sum_i q_i^10 (1 - q_i^2) c_i^2:
        directions with q_i << 1 were fitted by stage 1 and directions with
        q_i near 1 barely move, so only the few in between can make the
        fall pass 5% of the stage-4 SSE."""

        def plateaus(sse):
            return (sse[4] <= sse[3] * (1.0 + 1e-12)
                    and abs(sse[4] - sse[5]) <= 0.05 * sse[4])

        trains = [load_benchmark(ExperimentConfig.for_benchmark(
            "henon", seed=seed, noise_sigma=float(np.sqrt(0.05))))[0]
            for seed in range(10)]
        fitted, predicted = {}, {}
        for n_reservoir in range(6, 13):
            fits = [self.closed_form(train, 5, n_reservoir, 1e-3, seed)
                    for seed, train in enumerate(trains)]
            fitted[n_reservoir] = sum(plateaus(got) for got, _, _ in fits)
            predicted[n_reservoir] = sum(plateaus(want) for _, want, _ in fits)
        assert predicted == fitted
        assert min(fitted.values()) >= 9  # criterion 3's bound

    def test_property_random_data(self, capsys):
        worst = []

        @settings(max_examples=40, deadline=None)
        @given(data=st.data(), rows=st.integers(20, 80),
               n_reservoir=st.integers(2, 20), gamma=st.floats(1e-3, 10.0),
               n_stages=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
        def check(data, rows, n_reservoir, gamma, n_stages, seed):
            unit = st.floats(0.0, 1.0)
            train = SeriesDataset(
                inputs=data.draw(arrays(float, (rows, 1), elements=unit)),
                targets=data.draw(arrays(float, (rows, 1), elements=unit)),
                washout=data.draw(st.integers(0, rows - 10)))
            y = train.targets[train.washout:, 0]
            # near-constant targets leave nothing to scale the error by
            assume(np.sum((y - y.mean()) ** 2) > 1e-3)
            got, want, scale = self.closed_form(train, n_stages, n_reservoir,
                                                gamma, seed)
            err = max(abs(g - v) for g, v in zip(got, want)) / scale
            worst.append(err)
            assert err <= 1e-9, (got, want, scale)

        check()
        with capsys.disabled():
            print(f"\nshared-mode closed form: largest error "
                  f"{max(worst):.3g} x ||y_c||^2 over {len(worst)} fits")


@pytest.mark.parametrize("mode", ["fresh", "shared"])
@pytest.mark.parametrize("name, n_reservoir", [
    ("freedman", 6), ("freedman", 12), ("freedman", 50), ("henon", 50)])
def test_train_sse_is_the_sse_of_train_fitted(name, n_reservoir, mode):
    """Each stage's residual and train_sse come from the same sum as its
    train_fitted entry, so the recorded SSE is exactly that entry's."""
    train = benchmark_train(name)
    params = EsnParams(n_inputs=train.n_inputs, n_reservoir=n_reservoir)
    model = l2boost_fit(train, 6, params, BENCHMARK_DEFAULTS[name]["gamma"],
                        mode=mode)
    y = train.targets[train.washout:]
    assert model.train_sse == [float(np.sum((y - fitted) ** 2))
                               for fitted in model.train_fitted]


class TestBoostPredict:
    def test_single_stage_equals_esn_predict(self):
        data = toy_dataset()
        model = l2boost_fit(data, 0, PARAMS, 1e-3)
        [(res, readout)] = model.terms
        np.testing.assert_array_equal(
            boost_predict(model, data.inputs),
            esn_predict(res, readout, data.inputs))

    def test_zero_readout_stage_is_identity(self):
        data = toy_dataset()
        model = l2boost_fit(data, 1, PARAMS, 1e-3, mode="fresh")
        before = boost_predict(model, data.inputs)
        extra_res = init_reservoir(EsnParams(n_inputs=1, n_reservoir=12,
                                             seed=999))
        zero = Readout(weights=np.zeros((1, 13)), intercept=np.zeros(1))
        bigger = BoostModel(terms=model.terms + [(extra_res, zero)],
                            mode="fresh", gamma=1e-3)
        np.testing.assert_array_equal(boost_predict(bigger, data.inputs),
                                      before)

    def test_equals_per_stage_summation(self):
        data = toy_dataset()
        for mode in ("fresh", "shared"):
            model = l2boost_fit(data, 3, PARAMS, 1e-3, mode=mode)
            total = sum(esn_predict(res, readout, data.inputs)
                        for res, readout in model.terms)
            got = boost_predict(model, data.inputs)
            assert np.max(np.abs(got - total)) < 1e-12

    def test_doubling_readouts_doubles_predictions(self):
        data = toy_dataset()
        model = l2boost_fit(data, 2, PARAMS, 1e-3, mode="fresh")
        doubled = BoostModel(
            terms=[(res, Readout(weights=2 * readout.weights,
                                 intercept=2 * readout.intercept))
                   for res, readout in model.terms],
            mode="fresh", gamma=1e-3)
        base = boost_predict(model, data.inputs)
        twice = boost_predict(doubled, data.inputs)
        assert np.max(np.abs(twice - 2 * base)) < 1e-12


class TestBoostModelValidation:
    def test_needs_stages(self):
        with pytest.raises(ParameterError):
            BoostModel(terms=[], mode="fresh", gamma=0.1)

    def test_shared_mode_requires_identical_reservoir(self):
        data = toy_dataset()
        model = l2boost_fit(data, 1, PARAMS, 1e-3, mode="fresh")
        with pytest.raises(ParameterError):
            BoostModel(terms=model.terms, mode="shared", gamma=1e-3)

    def test_stage_dimension_check(self):
        res = init_reservoir(PARAMS)
        bad = Readout(weights=np.zeros((1, 5)), intercept=np.zeros(1))
        with pytest.raises(ParameterError, match="readout width 5"):
            BoostModel(terms=[(res, bad)], mode="fresh", gamma=0.1)

    def test_stages_agree_on_output_width(self):
        model = l2boost_fit(toy_dataset(), 1, PARAMS, 1e-3, mode="fresh")
        res, readout = model.terms[1]
        wide = Readout(weights=np.vstack([readout.weights] * 2),
                       intercept=np.zeros(2))
        with pytest.raises(ParameterError, match="output widths"):
            BoostModel(terms=[model.terms[0], (res, wide)], mode="fresh",
                       gamma=1e-3)

    @pytest.mark.parametrize("gamma", [-1.0, np.nan, np.inf, "abc", True])
    def test_gamma_must_be_a_finite_non_negative_number(self, gamma):
        model = l2boost_fit(toy_dataset(), 1, PARAMS, 1e-3, mode="fresh")
        with pytest.raises(ParameterError, match="gamma"):
            BoostModel(terms=model.terms, mode="fresh", gamma=gamma)

    def test_train_sse_needs_one_entry_per_stage(self):
        model = l2boost_fit(toy_dataset(), 2, PARAMS, 1e-3, mode="fresh")
        with pytest.raises(ParameterError, match="train_sse has 2 entries"):
            BoostModel(terms=model.terms, mode="fresh", gamma=1e-3,
                       train_sse=model.train_sse[:2])

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, "1.0", True])
    def test_train_sse_entries_must_be_finite_numbers(self, bad):
        model = l2boost_fit(toy_dataset(), 1, PARAMS, 1e-3, mode="fresh")
        with pytest.raises(ParameterError, match="train_sse entries"):
            BoostModel(terms=model.terms, mode="fresh", gamma=1e-3,
                       train_sse=[model.train_sse[0], bad])

    def test_empty_train_sse_and_numpy_numbers_accepted(self):
        model = l2boost_fit(toy_dataset(), 1, PARAMS, 1e-3, mode="fresh")
        BoostModel(terms=model.terms, mode="fresh", gamma=np.float64(1e-3))
        BoostModel(terms=model.terms, mode="fresh", gamma=0,
                   train_sse=[np.float64(v) for v in model.train_sse])


class TestBaseline:
    def test_one_member_equals_single_esn(self):
        data = toy_dataset()
        model = baseline_fit(data, 1, PARAMS, 1e-3)
        res, readout = train_single_esn(data, PARAMS, 1e-3)
        np.testing.assert_array_equal(
            baseline_predict(model, data.inputs),
            esn_predict(res, readout, data.inputs))

    def test_member_seeds_derived(self):
        data = toy_dataset()
        model = baseline_fit(data, 4, PARAMS, 1e-3)
        for j, (res, _) in enumerate(model.terms):
            assert res.params.seed == 42 + j

    def test_identical_members_average_to_one(self):
        data = toy_dataset()
        res, readout = train_single_esn(data, PARAMS, 1e-3)
        model = EnsembleModel(terms=[(res, readout)] * 5)
        single = esn_predict(res, readout, data.inputs)
        assert np.max(np.abs(baseline_predict(model, data.inputs)
                             - single)) < 1e-12

    def test_opposite_members_cancel(self):
        res = init_reservoir(PARAMS)
        plus = Readout(weights=np.zeros((1, 13)), intercept=np.array([3.0]))
        minus = Readout(weights=np.zeros((1, 13)), intercept=np.array([-3.0]))
        model = EnsembleModel(terms=[(res, plus), (res, minus)])
        np.testing.assert_allclose(
            baseline_predict(model, np.ones((4, 1))), 0.0, atol=1e-15)

    def test_member_permutation_invariant(self):
        data = toy_dataset()
        model = baseline_fit(data, 3, PARAMS, 1e-3)
        swapped = EnsembleModel(terms=list(reversed(model.terms)))
        a = baseline_predict(model, data.inputs)
        b = baseline_predict(swapped, data.inputs)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_matches_mean_of_exported_member_predictions(self, tmp_path):
        data = toy_dataset()
        model = baseline_fit(data, 3, PARAMS, 1e-3)
        paths = []
        for j, (res, readout) in enumerate(model.terms):
            pred = esn_predict(res, readout, data.inputs)
            p = tmp_path / f"member_{j}.csv"
            np.savetxt(p, pred, delimiter=",")
            paths.append(p)
        reloaded = np.stack([np.loadtxt(p, delimiter=",") for p in paths])
        external_mean = reloaded.mean(axis=0)[:, None]
        got = baseline_predict(model, data.inputs)
        assert np.max(np.abs(got - external_mean)) < 1e-12

    @pytest.mark.parametrize("n_members", [1, 2, 3, 7])
    def test_bit_equal_to_mean_of_member_predictions(self, n_members):
        data = toy_dataset()
        model = baseline_fit(data, n_members, PARAMS, 1e-3)
        stacked = np.stack([esn_predict(res, readout, data.inputs)
                            for res, readout in model.terms])
        np.testing.assert_array_equal(baseline_predict(model, data.inputs),
                                      np.mean(stacked, axis=0))

    def test_validation(self):
        data = toy_dataset()
        with pytest.raises(ParameterError):
            baseline_fit(data, 0, PARAMS, 1e-3)
        with pytest.raises(ParameterError):
            EnsembleModel(terms=[])


class TestOnePassPerReservoir:
    def test_shared_boost_runs_its_reservoir_once(self):
        data = toy_dataset()
        model = l2boost_fit(data, 4, PARAMS, 1e-3, mode="shared")
        assert count_passes(boost_predict, model, data.inputs) == 1

    def test_fresh_boost_runs_each_stage(self):
        data = toy_dataset()
        model = l2boost_fit(data, 4, PARAMS, 1e-3, mode="fresh")
        assert count_passes(boost_predict, model, data.inputs) == 5

    def test_distinct_members_run_each(self):
        data = toy_dataset()
        model = baseline_fit(data, 3, PARAMS, 1e-3)
        assert count_passes(baseline_predict, model, data.inputs) == 3

    def test_cloned_members_share_one_pass(self):
        data = toy_dataset()
        res, readout = train_single_esn(data, PARAMS, 1e-3)
        model = EnsembleModel(terms=[(res, readout)] * 7)
        assert count_passes(baseline_predict, model, data.inputs) == 1


def whole_matrix_staged(terms, inputs, average):
    """Staged predictions from one pass per term over all the input rows."""
    staged, total = [], None
    for count, (res, readout) in enumerate(terms, start=1):
        pred = readout.predict(_feature_matrix(res, as_2d(inputs))[:, :-1])
        total = pred if total is None else total + pred
        staged.append(total / count if average else total)
    return staged


@pytest.mark.usefixtures("one_blas_thread")
class TestBlockBoundaries:
    """Prediction passes run in blocks of rows.  Every prediction function
    is bit-equal to one pass over all the rows, at lengths on and around
    the block boundaries, including empty inputs."""

    @pytest.mark.parametrize("shape", [(0,), *((n, k)
                             for n in (0, 1, 511, 512, 513, 1027, 3001)
                             for k in (1, 3))],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_bit_equal_to_whole_matrix(self, shape):
        k = shape[1] if len(shape) == 2 else 1
        rng = np.random.default_rng(len(shape) * 10_000 + shape[0] + k)
        x = rng.uniform(-1, 1, size=shape)
        reservoirs = [init_reservoir(EsnParams(n_inputs=k, n_reservoir=40,
                                               seed=seed))
                      for seed in range(3)]
        fresh = [(res, Readout(weights=rng.normal(size=(1, k + 40)),
                               intercept=rng.normal(size=1)))
                 for res in reservoirs]
        shared = [(reservoirs[0], readout) for _, readout in fresh]
        models = [BoostModel(terms=fresh, mode="fresh", gamma=1e-3),
                  BoostModel(terms=shared, mode="shared", gamma=1e-3),
                  EnsembleModel(terms=fresh)]
        for model in models:
            want = whole_matrix_staged(model.terms, x, model.average)
            got = _predict_terms(model.terms, x, model.average)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.shape == (shape[0], 1)
                assert np.array_equal(a, b)
            assert np.array_equal(predict(model, x), want[-1])
        assert np.array_equal(esn_predict(*fresh[0], x),
                              whole_matrix_staged(fresh[:1], x, False)[0])

    @pytest.mark.parametrize("fit", [l2boost_fit, baseline_fit])
    def test_dataset_of_the_wrong_width_rejected(self, fit):
        # the reservoir pass checks the width; no fit repeats the check
        with pytest.raises(ParameterError,
                           match="reservoir expects 1 input columns, got 2"):
            fit(toy_dataset(n_inputs=2), 1, PARAMS, 1e-3)

    def test_empty_input_of_the_wrong_width_rejected(self):
        res = init_reservoir(EsnParams(n_inputs=2, n_reservoir=5))
        readout = Readout(weights=np.zeros((1, 7)), intercept=np.zeros(1))
        with pytest.raises(ParameterError, match="input columns"):
            esn_predict(res, readout, np.zeros((0, 3)))


def benchmark_train(name):
    return load_benchmark(ExperimentConfig.for_benchmark(name))[0]


FITS = [("fresh", 3), ("shared", 3), ("baseline", 1), ("baseline", 3)]


def fit(kind, size, train, params, gamma):
    """A boost model with size stages in mode kind, or a size-member ensemble."""
    if kind == "baseline":
        return baseline_fit(train, size, params, gamma)
    return l2boost_fit(train, size, params, gamma, mode=kind)


def predict(model, inputs):
    if isinstance(model, BoostModel):
        return boost_predict(model, inputs)
    return baseline_predict(model, inputs)


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def prefix_size(kind, n_terms):
    """The size argument of fit() that gives a model of n_terms terms."""
    return n_terms if kind == "baseline" else n_terms - 1


class TestTrainFitted:
    """The fit's training predictions after each term equal a second pass of
    that prefix model over the inputs, bit for bit, so run_experiment and
    sweep can score the training rows from them."""

    @pytest.mark.parametrize("name", ["freedman", "narma10"])
    @pytest.mark.parametrize("kind, size", FITS)
    def test_bit_equal_to_predicting_train_inputs(self, name, kind, size):
        train = benchmark_train(name)
        params = EsnParams(n_inputs=1, n_reservoir=20, seed=7)
        model = fit(kind, size, train, params, 1e-3)
        assert_same_bits(model.train_fitted[-1],
                         predict(model, train.inputs)[train.washout:])
        n_terms = len(model.train_fitted)
        assert prefix_size(kind, n_terms) == size
        for k in range(1, n_terms):
            prefix = fit(kind, prefix_size(kind, k), train, params, 1e-3)
            assert_same_bits(model.train_fitted[k - 1],
                             predict(prefix, train.inputs)[train.washout:])

    @pytest.mark.parametrize("name", ["freedman", "narma10"])
    def test_single_network_bit_equal(self, name):
        train = benchmark_train(name)
        params = EsnParams(n_inputs=1, n_reservoir=20, seed=7)
        res, readout = train_single_esn(train, params, 1e-3)
        assert_same_bits(baseline_fit(train, 1, params, 1e-3).train_fitted[-1],
                         esn_predict(res, readout, train.inputs)[train.washout:])

    def test_not_saved_and_reloaded_model_predicts_the_same(self, tmp_path):
        data = toy_dataset()
        for kind, size in FITS:
            model = fit(kind, size, data, PARAMS, 1e-3)
            path = tmp_path / f"{kind}{size}.json"
            save_model(model, path)
            assert "train_fitted" not in path.read_text()
            back = load_model(path)
            assert back.train_fitted is None
            assert_same_bits(predict(back, data.inputs),
                             predict(model, data.inputs))
            assert_same_bits(predict(back, data.inputs)[data.washout:],
                             model.train_fitted[-1])


class TestStagedPredictions:
    """Entry k - 1 of the prediction path's running sums is the prediction
    of the first k terms, bit for bit."""

    @pytest.mark.parametrize("kind, size", [("fresh", 4), ("shared", 4),
                                            ("baseline", 5)])
    def test_each_prefix_bit_equal(self, kind, size):
        data = toy_dataset()
        model = fit(kind, size, data, PARAMS, 1e-3)
        staged = _predict_terms(model.terms, data.inputs,
                                           average=model.average)
        assert_same_bits(staged[-1], predict(model, data.inputs))
        for k in range(1, len(staged)):
            prefix = fit(kind, prefix_size(kind, k), data, PARAMS, 1e-3)
            assert_same_bits(staged[k - 1], predict(prefix, data.inputs))


def saved_bytes(model, path) -> bytes:
    save_model(model, path)
    return path.read_bytes()


class TestModelExport:
    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["fresh", "shared", "ensemble"]),
           size=st.integers(0, 4), n_reservoir=st.integers(3, 12),
           seed=st.integers(0, 2 ** 64 - 1))
    def test_round_trip_property(self, kind, size, n_reservoir, seed):
        """Fresh, shared and ensemble models of M or K 0-4: a reloaded model
        predicts bit-equally and saves to the same bytes."""
        assume(kind != "ensemble" or size >= 1)
        data = toy_dataset()
        params = EsnParams(n_inputs=1, n_reservoir=n_reservoir, seed=seed)
        if kind == "ensemble":
            model = baseline_fit(data, size, params, 1e-3)
        else:
            model = l2boost_fit(data, size, params, 1e-3, mode=kind)
        with tempfile.TemporaryDirectory() as tmp:
            first = saved_bytes(model, Path(tmp) / "a.json")
            back = load_model(Path(tmp) / "a.json")
            again = saved_bytes(back, Path(tmp) / "b.json")
        assert type(back) is type(model)
        assert len(back.terms) == len(model.terms)
        assert again == first
        assert_same_bits(predict(back, data.inputs),
                         predict(model, data.inputs))
        if kind == "shared":
            reservoir = back.terms[0][0]
            assert all(res is reservoir for res, _ in back.terms)

    def test_boost_round_trip_bit_exact(self, tmp_path):
        data = toy_dataset()
        for mode in ("fresh", "shared"):
            model = l2boost_fit(data, 2, PARAMS, 1e-3, mode=mode)
            path = tmp_path / f"boost_{mode}.json"
            save_model(model, path)
            back = load_model(path)
            assert isinstance(back, BoostModel)
            assert back.mode == mode and back.gamma == model.gamma
            assert back.train_sse == model.train_sse
            np.testing.assert_array_equal(boost_predict(back, data.inputs),
                                          boost_predict(model, data.inputs))

    def test_shared_round_trip_keeps_reservoir_identity(self, tmp_path):
        data = toy_dataset()
        model = l2boost_fit(data, 3, PARAMS, 1e-3, mode="shared")
        path = tmp_path / "shared.json"
        save_model(model, path)
        back = load_model(path)
        first = back.terms[0][0]
        assert all(res is first for res, _ in back.terms)

    @pytest.mark.parametrize("kind", ["fresh", "shared", "baseline"])
    def test_pickle_round_trip(self, kind):
        """An unpickled model predicts bit-equally from reservoirs that hold
        w_r from a 64-byte boundary, and a shared model keeps one reservoir."""
        data = toy_dataset()
        model = fit(kind, 3, data, replace(PARAMS, n_reservoir=200), 1e-3)
        back = pickle.loads(pickle.dumps(model))
        assert all(res.w_r.ctypes.data % 64 == 0 for res, _ in back.terms)
        assert_same_bits(predict(back, data.inputs), predict(model, data.inputs))
        if kind == "shared":
            assert len({id(res) for res, _ in back.terms}) == 1

    def test_round_trip_bit_exact_whatever_the_weight_layout(self, tmp_path):
        """Reservoirs built on an F-ordered w_r, a transposed view, a strided
        view and an integer w_in predict bit-identically after a reload,
        which rebuilds every matrix C-ordered.  Products over F-ordered and
        C-ordered copies of one matrix differ in the last bits."""
        data = toy_dataset()
        members = [draw_reservoir(1, 60, 3 + j, input_range=(-2.0, 2.0))
                   for j in range(4)]
        strided = np.zeros((60, 120))
        strided[:, ::2] = members[2].w_r
        layouts = [
            {"w_r": np.asfortranarray(members[0].w_r)},
            {"w_r": np.ascontiguousarray(members[1].w_r.T).T},
            {"w_r": strided[:, ::2]},
            {"w_in": np.arange(-30, 30).reshape(60, 1) % 5 - 2},
        ]
        terms = []
        for res, layout in zip(members, layouts):
            res = replace(res, **layout)
            A = _feature_matrix(res, data.inputs)[data.washout:, :-1]
            terms.append((res, ridge_fit(A, data.targets[data.washout:], 1e-3)))
        model = EnsembleModel(terms=terms)
        save_model(model, tmp_path / "layouts.json")
        back = load_model(tmp_path / "layouts.json")
        assert_same_bits(baseline_predict(back, data.inputs),
                         baseline_predict(model, data.inputs))

    def test_ensemble_round_trip_bit_exact(self, tmp_path):
        data = toy_dataset()
        model = baseline_fit(data, 3, PARAMS, 1e-3)
        path = tmp_path / "ens.json"
        save_model(model, path)
        back = load_model(path)
        assert isinstance(back, EnsembleModel)
        assert len(back.terms) == 3
        np.testing.assert_array_equal(baseline_predict(back, data.inputs),
                                      baseline_predict(model, data.inputs))

    def test_member_seeds_survive_round_trip(self, tmp_path):
        data = toy_dataset()
        model = baseline_fit(data, 2, PARAMS, 1e-3)
        path = tmp_path / "seeds.json"
        save_model(model, path)
        back = load_model(path)
        assert [r.params.seed for r, _ in back.terms] == [42, 43]

    def test_load_errors(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_model(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(DataError, match="JSON"):
            load_model(bad)
        wrong = tmp_path / "wrong.json"
        wrong.write_text('{"format": "something-else"}')
        with pytest.raises(DataError, match="format"):
            load_model(wrong)

    def test_save_rejects_unknown_objects(self, tmp_path):
        with pytest.raises(ParameterError):
            save_model({"weights": 1}, tmp_path / "x.json")

    def test_failed_encode_writes_no_file(self, tmp_path):
        # a value assigned after construction is not checked; the file is
        # encoded whole before it is opened, so none is left half written
        model = l2boost_fit(toy_dataset(), 1, PARAMS, 1e-3)
        model.gamma = np.float32(1e-3)
        with pytest.raises(TypeError, match="not JSON serializable"):
            save_model(model, tmp_path / "model.json")
        assert not (tmp_path / "model.json").exists()


class TestModelImportChecks:
    """Documents that save_model never writes must fail as data errors."""

    @staticmethod
    def saved(tmp_path):
        model = l2boost_fit(toy_dataset(), 1, PARAMS, 1e-3, mode="fresh")
        path = tmp_path / "model.json"
        save_model(model, path)
        return model, path, json.loads(path.read_text())

    def test_v1_file_with_n_outputs_loads(self, tmp_path):
        model, path, doc = self.saved(tmp_path)
        for block in doc["reservoirs"]:
            assert "n_outputs" not in block["params"]
            block["params"]["n_outputs"] = 1
        path.write_text(json.dumps(doc))
        x = toy_dataset().inputs
        np.testing.assert_array_equal(boost_predict(load_model(path), x),
                                      boost_predict(model, x))

    def corrupted(self, tmp_path, corrupt):
        _, path, doc = self.saved(tmp_path)
        corrupt(doc)
        path.write_text(json.dumps(doc))
        return path

    def test_deep_nesting(self, tmp_path):
        # json.loads recurses once per level and ran out of stack
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        with pytest.raises(DataError, match="JSON nested too deeply"):
            load_model(path)

    def test_unknown_mode(self, tmp_path):
        path = self.corrupted(tmp_path, lambda doc: doc.update(mode="bogus"))
        with pytest.raises(DataError, match="mode"):
            load_model(path)

    @pytest.mark.parametrize("gamma", ["abc", -5])
    def test_bad_gamma(self, tmp_path, gamma):
        path = self.corrupted(tmp_path, lambda doc: doc.update(gamma=gamma))
        with pytest.raises(DataError, match="gamma"):
            load_model(path)

    def test_train_sse_shorter_than_the_stages(self, tmp_path):
        def corrupt(doc):
            doc["train_sse"] = doc["train_sse"][:1]
        with pytest.raises(DataError, match="train_sse has 1 entries"):
            load_model(self.corrupted(tmp_path, corrupt))

    @pytest.mark.parametrize("entry", ["nan", True])
    def test_train_sse_entry_not_a_finite_number(self, tmp_path, entry):
        def corrupt(doc):
            doc["train_sse"][1] = entry
        with pytest.raises(DataError, match="train_sse entries"):
            load_model(self.corrupted(tmp_path, corrupt))

    @pytest.mark.parametrize("name, value", [("seed", "x"), ("n_inputs", 1.0)])
    def test_reservoir_params_not_integers(self, tmp_path, name, value):
        def corrupt(doc):
            doc["reservoirs"][1]["params"][name] = value
        with pytest.raises(DataError, match=f"{name} must be an integer"):
            load_model(self.corrupted(tmp_path, corrupt))

    def test_out_of_range_density(self, tmp_path):
        # every reservoir is drawn at the draw constants: the golden files,
        # which hold them, load and save again unedited, and a params block
        # that declares another density or other ranges is refused, as a
        # wrong format is, whatever its matrices
        again = tmp_path / "again.json"
        for kind in ("fresh", "shared", "ensemble"):
            golden = GOLDEN / f"model_{kind}.json"
            save_model(load_model(golden), again)
            assert again.read_bytes() == golden.read_bytes()
        for name, value in [
                ("reservoir_density", 1.5), ("reservoir_density", 1.0),
                ("reservoir_density", "0.1"), ("reservoir_density", None),
                ("input_range", [-0.2, 0.3]), ("input_range", [-2.0, 2.0]),
                ("input_range", [-0.2]), ("reservoir_range", [-1, 1]),
                ("reservoir_range", [-0.8, 0.8, 0.8]),
                ("reservoir_range", "-0.8,0.8")]:
            def corrupt(doc):
                doc["reservoirs"][1]["params"][name] = value
            with pytest.raises(DataError, match=f"{name} must be"):
                load_model(self.corrupted(tmp_path, corrupt))

    def test_unparsable_matrix_block(self, tmp_path):
        def corrupt(doc):
            del doc["reservoirs"][0]["w_in"]["entries"]
        with pytest.raises(DataError, match="malformed matrix block for w_in"):
            load_model(self.corrupted(tmp_path, corrupt))

    def test_declared_shape_contradicts_entries(self, tmp_path):
        def corrupt(doc):
            doc["reservoirs"][0]["w_r"]["shape"] = [1, 1]
        with pytest.raises(DataError, match="declared shape"):
            load_model(self.corrupted(tmp_path, corrupt))

    @pytest.mark.parametrize("kind", ["bogus", None, ["boost"]])
    def test_unknown_kind(self, tmp_path, kind):
        path = self.corrupted(tmp_path, lambda doc: doc.update(kind=kind))
        with pytest.raises(DataError, match="unknown model kind"):
            load_model(path)

    def test_recurrent_shape_disagrees_with_params(self, tmp_path):
        path = self.corrupted(
            tmp_path,
            lambda doc: doc["reservoirs"][0].update(
                w_r={"shape": [2, 2], "entries": [[0.0, 0.0], [0.0, 0.0]]}))
        with pytest.raises(DataError, match="w_r"):
            load_model(path)

    def test_input_shape_disagrees_with_params(self, tmp_path):
        path = self.corrupted(
            tmp_path,
            lambda doc: doc["reservoirs"][0].update(
                w_in={"shape": [12, 2], "entries": [[0.0, 0.0]] * 12}))
        with pytest.raises(DataError, match="w_in"):
            load_model(path)

    def test_non_finite_weight(self, tmp_path):
        def corrupt(doc):
            doc["reservoirs"][0]["w_r"]["entries"][0][0] = float("nan")
        with pytest.raises(DataError, match="non-finite"):
            load_model(self.corrupted(tmp_path, corrupt))

    def test_non_finite_intercept(self, tmp_path):
        def corrupt(doc):
            doc["stages"][1]["readout"]["intercept"] = [float("inf")]
        with pytest.raises(DataError, match="non-finite"):
            load_model(self.corrupted(tmp_path, corrupt))

    def test_intercept_length_disagrees_with_weights(self, tmp_path):
        def corrupt(doc):
            doc["stages"][0]["readout"]["intercept"] = [0.1, 0.2]
        with pytest.raises(DataError, match="intercept"):
            load_model(self.corrupted(tmp_path, corrupt))

    def test_stages_disagree_on_output_width(self, tmp_path):
        def corrupt(doc):
            readout = doc["stages"][1]["readout"]
            readout["weights"]["entries"] *= 2
            readout["weights"]["shape"][0] = 2
            readout["intercept"] = [0.1, 0.2]
        with pytest.raises(DataError, match="output widths"):
            load_model(self.corrupted(tmp_path, corrupt))

    @pytest.mark.parametrize("indices", [[1, 0], [0, 2], [-1], [False, True],
                                         [0.0, 1.0]],
                             ids=["swapped", "gap", "negative", "bools",
                                  "floats"])
    def test_stage_index_is_not_the_position(self, tmp_path, indices):
        def corrupt(doc):
            doc["stages"] = doc["stages"][:len(indices)]
            doc["train_sse"] = doc["train_sse"][:len(indices)]
            for stage, index in zip(doc["stages"], indices):
                stage["stage_index"] = index
        with pytest.raises(DataError, match="stage_index"):
            load_model(self.corrupted(tmp_path, corrupt))

    @pytest.mark.parametrize("where", ["intercept", "w_r", "gamma"])
    def test_integer_too_large_for_a_float(self, tmp_path, where):
        def corrupt(doc):
            huge = 10 ** 400
            if where == "intercept":
                doc["stages"][0]["readout"]["intercept"] = [huge]
            elif where == "w_r":
                doc["reservoirs"][0]["w_r"]["entries"][0][0] = huge
            else:
                doc["gamma"] = huge
        with pytest.raises(DataError, match="too large"):
            load_model(self.corrupted(tmp_path, corrupt))

    @pytest.mark.parametrize("index", [-1, 2, True, 1.0])
    def test_reservoir_index_out_of_range(self, tmp_path, index):
        def corrupt(doc):
            doc["stages"][1]["reservoir"] = index
        with pytest.raises(DataError, match="malformed"):
            load_model(self.corrupted(tmp_path, corrupt))

    @pytest.mark.parametrize("text", ["[]", "3", '"model"', "null"])
    def test_document_not_an_object(self, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(DataError, match="JSON object"):
            load_model(path)

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b"\xff{}")
        with pytest.raises(DataError, match="cannot read model file"):
            load_model(path)
