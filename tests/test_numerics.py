"""Tests for the seeded RNG, random matrices, and the ridge solver."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esnboost.errors import DataError, NumericalError, ParameterError
from esnboost.numerics import (Readout, Rng, _RidgeSolver, as_2d, ridge_fit,
                               uniform_matrix)


def brute_force_ridge(features, targets, gamma):
    """Independent oracle: dense LU solve of the augmented normal equations."""
    X = np.asarray(features, dtype=float)
    Y = np.asarray(targets, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    n, d = X.shape
    A = np.hstack([X, np.ones((n, 1))])
    G = A.T @ A + gamma * np.diag(np.r_[np.ones(d), 0.0])
    coef = np.linalg.solve(G, A.T @ Y)
    return coef[:d].T, coef[d]


class TestRng:
    def test_same_seed_same_draws(self):
        a = Rng(1234).uniform(0.0, 1.0, 1_000_000)
        b = Rng(1234).uniform(0.0, 1.0, 1_000_000)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = Rng(1).uniform(0.0, 1.0, 100)
        b = Rng(2).uniform(0.0, 1.0, 100)
        assert not np.array_equal(a, b)

    def test_uniform_bounds(self):
        draws = Rng(7).uniform(-0.2, 0.2, 10_000)
        assert draws.min() >= -0.2 and draws.max() <= 0.2

    def test_uniform_rejects_empty_range(self):
        with pytest.raises(ParameterError):
            Rng(0).uniform(1.0, 0.0)

    def test_gaussian_moments(self):
        draws = Rng(11).gaussian(2.0, 0.5, 200_000)
        assert abs(draws.mean() - 2.0) < 0.01
        assert abs(draws.std() - 0.5) < 0.01

    def test_gaussian_zero_sigma_is_constant(self):
        draws = Rng(3).gaussian(1.5, 0.0, 50)
        np.testing.assert_array_equal(draws, np.full(50, 1.5))

    def test_gaussian_rejects_negative_sigma(self):
        with pytest.raises(ParameterError):
            Rng(0).gaussian(0.0, -1.0)

    def test_derive_is_seed_plus_offset(self):
        child = Rng(10).derive(5)
        np.testing.assert_array_equal(child.uniform(0, 1, 10),
                                      Rng(15).uniform(0, 1, 10))

    def test_seed_wraps_to_64_bits(self):
        assert Rng(2 ** 64 + 3).seed == 3


class TestUniformMatrix:
    def test_shape_and_bounds(self):
        m = uniform_matrix(Rng(1), 3, 3, -0.8, 0.8)
        assert m.shape == (3, 3)
        assert np.all(m >= -0.8) and np.all(m <= 0.8)

    def test_degenerate_range_gives_zero_matrix(self):
        m = uniform_matrix(Rng(99), 2, 2, 0.0, 0.0)
        np.testing.assert_array_equal(m, np.zeros((2, 2)))

    def test_density_fraction(self):
        m = uniform_matrix(Rng(7), 100, 100, -1.0, 1.0, density=0.1)
        frac = np.count_nonzero(m) / m.size
        # binomial 3-sigma band around 0.1 over 10000 trials
        assert 0.07 <= frac <= 0.13

    def test_full_density_has_no_zeros(self):
        m = uniform_matrix(Rng(5), 50, 50, 0.1, 0.9)
        assert np.count_nonzero(m) == m.size

    def test_seed_reproducible_with_density(self):
        a = uniform_matrix(Rng(42), 20, 20, -1, 1, density=0.3)
        b = uniform_matrix(Rng(42), 20, 20, -1, 1, density=0.3)
        np.testing.assert_array_equal(a, b)

    def test_invalid_arguments(self):
        with pytest.raises(ParameterError):
            uniform_matrix(Rng(0), -1, 2, 0, 1)
        with pytest.raises(ParameterError):
            uniform_matrix(Rng(0), 2, 2, 1.0, 0.0)
        with pytest.raises(ParameterError):
            uniform_matrix(Rng(0), 2, 2, 0, 1, density=0.0)
        with pytest.raises(ParameterError):
            uniform_matrix(Rng(0), 2, 2, 0, 1, density=1.5)


class TestAs2d:
    def test_vector_becomes_column(self):
        assert as_2d([1.0, 2.0, 3.0]).shape == (3, 1)

    def test_matrix_unchanged(self):
        m = np.ones((4, 2))
        assert as_2d(m).shape == (4, 2)

    @pytest.mark.parametrize("shape", [(), (2, 3, 1)])
    def test_other_ranks_rejected(self, shape):
        with pytest.raises(ParameterError, match=f"got {len(shape)}-D"):
            as_2d(np.ones(shape))


class TestReadout:
    def test_predict_affine(self):
        r = Readout(weights=np.array([[2.0, 0.5]]), intercept=np.array([1.0]))
        out = r.predict(np.array([[1.0, 2.0]]))
        np.testing.assert_allclose(out, [[4.0]])

    def test_predict_rejects_wrong_width(self):
        r = Readout(weights=np.array([[2.0, 0.5]]), intercept=np.array([1.0]))
        with pytest.raises(ParameterError):
            r.predict(np.ones((3, 3)))

    def test_dimension_properties(self):
        r = Readout(weights=np.zeros((2, 5)), intercept=np.zeros(2))
        assert r.n_features == 5 and r.n_outputs == 2


class TestRidgeFit:
    def test_exact_linear_relation(self):
        readout = ridge_fit([[1.0], [2.0], [3.0]], [1.0, 2.0, 3.0], gamma=0.0)
        pred = readout.predict([[1.0], [2.0], [3.0]])
        np.testing.assert_allclose(pred[:, 0], [1, 2, 3], atol=1e-10)
        assert abs(readout.weights[0, 0] - 1.0) < 1e-10
        assert abs(readout.intercept[0]) < 1e-10

    def test_zero_targets_give_zero_map(self):
        readout = ridge_fit(np.random.default_rng(0).normal(size=(20, 4)),
                            np.zeros(20), gamma=0.1)
        np.testing.assert_allclose(readout.weights, 0.0, atol=1e-12)
        np.testing.assert_allclose(readout.intercept, 0.0, atol=1e-12)

    def test_closed_form_penalized_slope(self):
        # centered solution: w = Sxy / (Sxx + gamma), b = mean(y) - w*mean(x)
        readout = ridge_fit([[1.0], [2.0], [3.0]], [2.0, 4.0, 6.0], gamma=1.0)
        x = np.array([1.0, 2.0, 3.0])
        y = 2 * x
        sxx = np.sum((x - x.mean()) ** 2)
        sxy = np.sum((x - x.mean()) * (y - y.mean()))
        w = sxy / (sxx + 1.0)
        b = y.mean() - w * x.mean()
        assert abs(w - 4.0 / 3.0) < 1e-12 and abs(b - 4.0 / 3.0) < 1e-12
        assert abs(readout.weights[0, 0] - w) < 1e-10
        assert abs(readout.intercept[0] - b) < 1e-10

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(123)
        for trial in range(30):
            n = int(rng.integers(12, 50))
            d = int(rng.integers(1, 10))
            gamma = [0.0, 1e-5, 1e-3, 1.0][trial % 4]
            X = rng.normal(size=(n, d))
            Y = rng.normal(size=(n, 2))
            got = ridge_fit(X, Y, gamma)
            want_w, want_b = brute_force_ridge(X, Y, gamma)
            assert np.max(np.abs(got.weights - want_w)) < 1e-8
            assert np.max(np.abs(got.intercept - want_b)) < 1e-8

    def test_objective_beats_zero_map(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            X = rng.normal(size=(30, 5))
            Y = rng.normal(size=(30, 1))
            gamma = float(rng.uniform(0, 1))
            readout = ridge_fit(X, Y, gamma)
            fitted = (np.sum((Y - readout.predict(X)) ** 2)
                      + gamma * np.sum(readout.weights ** 2))
            zero_map = np.sum((Y - Y.mean(axis=0)) ** 2)
            assert fitted <= zero_map + 1e-9

    def test_exactly_determined_system(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(5, 4))
        Y = rng.normal(size=(5, 1))
        readout = ridge_fit(X, Y, gamma=0.0)
        assert np.max(np.abs(readout.predict(X) - Y)) < 1e-8

    def test_singular_without_regularization(self):
        # more columns than rows: the unpenalized normal matrix is singular
        with pytest.raises(NumericalError):
            ridge_fit(np.random.default_rng(0).normal(size=(3, 6)),
                      np.zeros(3), gamma=0.0)

    def test_non_finite_inputs(self):
        # a non-finite feature is found through the normal matrix's diagonal;
        # an inf beside a 0, or infs of both signs in one product, must raise
        # no RuntimeWarning on the way
        bad_features = [[[np.nan], [1.0]], [[np.inf], [1.0]], [[-np.inf], [1.0]],
                        [[np.inf, 0.0], [1.0, 2.0]],
                        [[np.inf, -np.inf], [1.0, 2.0]]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for features in bad_features:
                with pytest.raises(DataError, match="non-finite values"):
                    ridge_fit(features, [0.0, 1.0], gamma=0.1)
        with pytest.raises(DataError):
            ridge_fit([[1.0], [2.0]], [np.inf, 1.0], gamma=0.1)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            ridge_fit([[1.0]], [1.0, 2.0], gamma=0.1)
        with pytest.raises(ParameterError):
            ridge_fit(np.empty((0, 2)), np.empty((0,)), gamma=0.1)
        with pytest.raises(ParameterError):
            ridge_fit([[1.0]], [1.0], gamma=-1.0)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf])
    def test_non_finite_gamma(self, gamma):
        with pytest.raises(ParameterError, match="gamma"):
            ridge_fit([[1.0], [2.0]], [1.0, 2.0], gamma=gamma)

    @pytest.mark.parametrize("gamma", ["abc", True, None])
    def test_non_number_gamma(self, gamma):
        # bool is not taken as 0 or 1, nor a string left to fail in numpy
        with pytest.raises(ParameterError, match="gamma must be a finite number"):
            ridge_fit([[1.0], [2.0]], [1.0, 2.0], gamma=gamma)


def assert_same_bits(a: Readout, b: Readout):
    for x, y in ((a.weights, b.weights), (a.intercept, b.intercept)):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


def augmented(X):
    """[X | 1], the matrix the solver is built on."""
    return np.hstack([X, np.ones((X.shape[0], 1))])


class TestRidgeSolver:
    """One factorization serves every fit on the same feature matrix."""

    def test_successive_fits_bit_equal_to_ridge_fit(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(80, 12))
        for gamma in (0.0, 1e-5, 1e-3, 1.0):
            solver = _RidgeSolver(augmented(X), gamma)
            residual = rng.normal(size=(80, 1))
            for _ in range(5):
                readout = solver.fit(residual)
                assert_same_bits(readout, ridge_fit(X, residual, gamma))
                residual = residual - readout.predict(X)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40),
           d=st.integers(1, 8), k=st.integers(1, 3),
           gamma=st.sampled_from([1e-5, 1e-3, 1.0, 10.0]))
    def test_property_bit_equal_to_ridge_fit(self, seed, n, d, k, gamma):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        solver = _RidgeSolver(augmented(X), gamma)
        for _ in range(3):
            Y = rng.normal(size=(n, k))
            assert_same_bits(solver.fit(Y), ridge_fit(X, Y, gamma))

    def test_checks_every_target(self):
        X = np.random.default_rng(2).normal(size=(10, 3))
        solver = _RidgeSolver(augmented(X), 0.1)
        solver.fit(np.zeros(10))
        with pytest.raises(DataError):
            solver.fit(np.r_[np.nan, np.zeros(9)])
        with pytest.raises(ParameterError, match="row mismatch"):
            solver.fit(np.zeros(9))

    def test_singular_system_raises_on_fit(self):
        # the normal matrix is factored when the solver is built
        with pytest.raises(NumericalError):
            _RidgeSolver(augmented(np.random.default_rng(0).normal(size=(3, 6))),
                         0.0)

    def test_entry_whose_square_overflows(self):
        # finite input, but 1e200 squared is past the largest double
        X = np.random.default_rng(4).normal(size=(20, 4))
        X[7, 2] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="overflows float64"):
                _RidgeSolver(augmented(X), 0.1)

    @pytest.mark.parametrize("washout", [0, 1, 7])
    def test_view_of_a_design_matrix_bit_equal_to_ridge_fit(self, washout):
        # fits build the solver on the post-washout rows of one [x | s | 1]
        # matrix, a view whose rows start past the washout and are not copied
        rng = np.random.default_rng(washout)
        n, d = 60, 9
        design = np.empty((washout + n, d + 1))
        design[:, :d] = rng.normal(size=(washout + n, d))
        design[:, d] = 1.0
        view = design[washout:]
        assert view.base is design and view.flags.c_contiguous
        y = rng.normal(size=(n, 1))
        for gamma in (0.0, 1e-3, 1.0):
            solver = _RidgeSolver(view, gamma)
            assert_same_bits(solver.fit(y),
                             ridge_fit(view[:, :d].copy(), y, gamma))

