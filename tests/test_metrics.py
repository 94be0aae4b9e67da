"""Tests for the NMSE/MSE/NRMSE error measures."""

import math

import numpy as np
import pytest

from esnboost.errors import DataError, NumericalError, ParameterError
from esnboost.metrics import evaluate


class TestEvaluate:
    def test_perfect_prediction(self):
        y = np.arange(10.0)
        res = evaluate(y, y)
        assert res.nmse == 0.0 and res.mse == 0.0 and res.nrmse == 0.0
        assert res.n_evaluated == 10

    def test_constant_mean_predictor_scores_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            y = rng.normal(size=40)
            pred = np.full(40, y.mean())
            assert abs(evaluate(pred, y).nmse - 1.0) < 1e-12

    def test_hand_example(self):
        res = evaluate([1.0, 2.0, 4.0], [1.0, 2.0, 3.0])
        assert abs(res.mse - 1.0 / 3.0) < 1e-12
        assert abs(res.nmse - 0.5) < 1e-12
        assert abs(res.nrmse - math.sqrt(0.5)) < 1e-12

    def test_washout_rows_ignored(self):
        y = np.arange(10.0)
        pred = y.copy()
        pred[:3] = 999.0  # garbage inside the washout must not matter
        res = evaluate(pred, y, washout=3)
        assert res.nmse == 0.0 and res.n_evaluated == 7

    def test_nrmse_squared_is_nmse(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            y = rng.normal(size=30)
            p = rng.normal(size=30)
            res = evaluate(p, y)
            assert abs(res.nrmse ** 2 - res.nmse) < 1e-12

    def test_joint_scaling_invariance(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=25)
        p = rng.normal(size=25)
        base = evaluate(p, y)
        scaled = evaluate(10.0 * p, 10.0 * y)
        assert abs(scaled.nmse - base.nmse) < 1e-12
        assert abs(scaled.mse - 100.0 * base.mse) < 1e-9

    def test_multivariate_errors_summed(self):
        y = np.array([[0.0, 0.0], [1.0, 2.0]])
        p = np.array([[0.0, 1.0], [1.0, 2.0]])
        res = evaluate(p, y)
        # sse = 1; denominator = sum over both columns of squared deviation
        denom = np.sum((y - y.mean(axis=0)) ** 2)
        assert abs(res.nmse - 1.0 / denom) < 1e-12

    def test_constant_target_rejected(self):
        with pytest.raises(DataError):
            evaluate([1.0, 1.0, 1.0], [2.0, 2.0, 2.0])

    def test_constant_after_washout_rejected(self):
        with pytest.raises(DataError):
            evaluate([0.0, 1.0, 1.0], [9.0, 2.0, 2.0], washout=1)

    def test_shape_mismatch(self):
        with pytest.raises(ParameterError):
            evaluate(np.ones((3, 1)), np.ones((4, 1)))

    def test_washout_bounds(self):
        with pytest.raises(ParameterError):
            evaluate([1.0, 2.0], [1.0, 2.0], washout=2)
        with pytest.raises(ParameterError):
            evaluate([1.0, 2.0], [1.0, 2.0], washout=-1)



class TestNonFiniteScores:
    """Non-finite inputs and overflowing sums raise instead of scoring."""

    y = np.array([0.0, 1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_prediction(self, bad):
        pred = self.y.copy()
        pred[2] = bad
        with pytest.raises(DataError, match="predictions"):
            evaluate(pred, self.y)

    def test_nan_target(self):
        targ = self.y.copy()
        targ[1] = math.nan
        with pytest.raises(DataError, match="targets"):
            evaluate(self.y, targ)

    def test_non_finite_inside_washout_ignored(self):
        pred = self.y.copy()
        pred[0] = math.nan
        assert evaluate(pred, self.y, washout=1).nmse == 0.0

    def test_squared_error_overflow(self):
        with pytest.raises(NumericalError, match="overflow"):
            evaluate(np.full(4, 1e200), self.y)

    def test_target_variance_overflow(self):
        targ = np.array([1e200, -1e200, 0.0, 5.0])
        with pytest.raises(NumericalError, match="overflow"):
            evaluate(targ, targ)

    def test_nmse_overflow(self):
        # a finite squared error of about 1e300 over a target sum of
        # squares of 1e-10
        targ = np.array([0.0, 1e-5, 0.0, 1e-5])
        with pytest.raises(NumericalError, match="overflow"):
            evaluate(np.full(4, 5e149), targ)
