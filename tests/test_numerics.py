"""Tests for the seeded RNG, random matrices, and the ridge solver."""

import ctypes
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from esnboost import numerics
from esnboost.boosting import _feature_matrix
from esnboost.errors import DataError, NumericalError, ParameterError
from esnboost.esn import EsnParams, init_reservoir
from esnboost.harness import ExperimentConfig, load_benchmark
from esnboost.numerics import (Readout, Rng, _RidgeSolver, as_2d, ridge_fit,
                               uniform_matrix)

from conftest import FALLBACK, brute_force_ridge


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
        draws = Rng(11).gaussian(0.5, 200_000)
        assert abs(draws.mean()) < 0.01
        assert abs(draws.std() - 0.5) < 0.01

    def test_gaussian_zero_sigma_is_constant(self):
        draws = Rng(3).gaussian(0.0, 50)
        np.testing.assert_array_equal(draws, np.zeros(50))

    def test_gaussian_rejects_negative_sigma(self):
        with pytest.raises(ParameterError):
            Rng(0).gaussian(-1.0)

    def test_seed_wraps_to_64_bits(self):
        assert Rng(2 ** 64 + 3).seed == 3

    def test_numpy_integer_seed(self):
        np.testing.assert_array_equal(Rng(np.uint8(7)).uniform(0, 1, 5),
                                      Rng(7).uniform(0, 1, 5))


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

    def test_lists_become_float_arrays(self):
        r = Readout(weights=[[2, 1]], intercept=[3])
        assert r.weights.dtype == r.intercept.dtype == np.float64
        np.testing.assert_array_equal(r.predict([[1.0, 1.0]]), [[6.0]])

    @pytest.mark.parametrize("weights, intercept, message", [
        # a one-output readout with a two-entry intercept would predict
        # (n, 2) rows and be saved to a file load_model refuses
        (np.zeros((1, 3)), np.zeros(2), r"intercept must have shape \(1,\)"),
        (np.zeros((2, 3)), np.zeros((2, 1)), "intercept must have shape"),
        (np.zeros((2, 3)), 0.5, "intercept must have shape"),
        (np.zeros(3), np.zeros(1), "weights must have shape"),
        (np.zeros((1, 1, 3)), np.zeros(1), "weights must have shape"),
        (np.array([[0.0, np.nan]]), np.zeros(1), "weights has non-finite"),
        (np.zeros((1, 2)), [np.inf], "intercept has non-finite"),
    ], ids=["intercept-too-long", "intercept-2d", "intercept-scalar",
            "weights-1d", "weights-3d", "nan-weight", "inf-intercept"])
    def test_rules_checked_at_construction(self, weights, intercept, message):
        with pytest.raises(ParameterError, match=message):
            Readout(weights=weights, intercept=intercept)


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

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(2, 60), d=st.integers(1, 12),
           k=st.integers(1, 3), gamma=st.floats(1e-3, 10.0))
    def test_property_matches_brute_force_oracle(self, data, n, d, k, gamma):
        # entries in [-1, 1], the scale of the [x | s] features the library
        # fits, keep the normal matrix's condition number below 1e6
        unit = st.floats(-1.0, 1.0)
        X = data.draw(arrays(float, (n, d), elements=unit))
        Y = data.draw(arrays(float, (n, k), elements=unit))
        got = ridge_fit(X, Y, gamma)
        want_w, want_b = brute_force_ridge(X, Y, gamma)
        got_coef = np.vstack([got.weights.T, got.intercept])
        want_coef = np.vstack([want_w.T, want_b])
        assert (np.linalg.norm(got_coef - want_coef)
                <= 1e-8 * np.linalg.norm(want_coef))

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

    @pytest.mark.parametrize("scale, below_eps", [(3e-9, True), (1e-7, False)])
    def test_numerically_singular_normal_matrix(self, scale, below_eps):
        # a column 3e-9 the size of the others puts the normal matrix's
        # reciprocal condition number near 1e-17, below machine epsilon, and
        # 1e-7 puts it near 1e-14.  Both are only badly scaled: with unit-norm
        # columns the matrix is well conditioned, so both fit at gamma 0, to
        # rounding of a least-squares solve on the scaled columns.
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 2)) * [1.0, scale]
        A = augmented(X)
        rcond = 1 / np.linalg.cond(A.T @ A, 1)
        assert 1e-18 < rcond < 1e-16 if below_eps else 1e-15 < rcond < 1e-13
        y = rng.normal(size=40)
        readout = ridge_fit(X, y, gamma=0.0)
        norms = np.linalg.norm(A, axis=0)
        coef = np.linalg.lstsq(A / norms, y, rcond=None)[0] / norms
        np.testing.assert_allclose(readout.weights[0], coef[:2], rtol=1e-13)
        np.testing.assert_allclose(readout.intercept, coef[2:], rtol=1e-13)
        ridge_fit(X, y, gamma=1e-6)

    def test_nearly_collinear_columns_refused(self):
        # u and u + 1e-9 v: Cholesky succeeds, and scaling the columns to
        # unit norm leaves the reciprocal condition number below machine
        # epsilon, so the estimate refuses the fit
        rng = np.random.default_rng(5)
        u, v = rng.normal(size=(2, 40))
        X = np.c_[u, u + 1e-9 * v]
        with pytest.raises(NumericalError,
                           match=r"reciprocal condition number .*"
                                 r"increase gamma"):
            ridge_fit(X, rng.normal(size=40), gamma=0.0)
        ridge_fit(X, rng.normal(size=40), gamma=1e-6)

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

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_solution_that_overflows(self):
        # finite targets whose products with the features pass the largest
        # double
        X = np.random.default_rng(5).normal(size=(40, 3))
        solver = _RidgeSolver(augmented(X), 1e-3)
        with pytest.raises(NumericalError, match="overflows float64"):
            solver.fit(np.full(40, 1e307))

    @pytest.mark.parametrize("routine, refusing", [
        ("dpotrf", lambda a: -4),
        ("dpocon", lambda r, anorm: (1.0, -5)),
        ("dpotrs", lambda r, b: -7)])
    def test_negative_info_raises(self, routine, refusing, monkeypatch):
        lapack = numerics.ridge_lapack()._replace(**{routine: refusing})
        monkeypatch.setattr(numerics, "ridge_lapack", lambda: lapack)
        rng = np.random.default_rng(0)
        with pytest.raises(NumericalError,
                           match=f"LAPACK {routine} refused its argument"):
            ridge_fit(rng.normal(size=(30, 3)), rng.normal(size=30), 1e-3)

    @pytest.mark.usefixtures("one_blas_thread")
    @pytest.mark.parametrize("d", [3, 8, 52, 102, 204])
    def test_factor_and_solves_bit_equal_to_cho_factor_and_cho_solve(self, d):
        # the solver calls dpotrf and dpotrs, the LAPACK routines behind
        # scipy.linalg's cho_factor and cho_solve, on the same matrices; its
        # factor's lower half still holds the normal matrix
        import scipy.linalg as linalg
        rng = np.random.default_rng(d)
        A = augmented(rng.normal(size=(2000, d - 1)))
        solver = _RidgeSolver(A, 1e-3)
        G = A.T @ A
        G[np.arange(d - 1), np.arange(d - 1)] += 1e-3
        factor = linalg.cho_factor(G.T)
        assert np.array_equal(np.triu(solver._factor), np.triu(factor[0]))
        assert np.array_equal(np.tril(solver._factor, -1), np.tril(G.T, -1))
        for k in (1, 3):
            Y = rng.normal(size=(2000, k))
            coef = linalg.cho_solve(factor, A.T @ Y)
            readout = solver.fit(Y)
            assert np.array_equal(readout.weights, coef[:-1].T)
            assert np.array_equal(readout.intercept, coef[-1])

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


@pytest.fixture
def both_bindings(monkeypatch):
    """run(fn): [(library, fn())] with the solver bound as on this host, then
    with the LAPACKE lookup finding nothing, so that it falls back to
    scipy.linalg.lapack.  The host's binding is restored afterwards."""
    host = numerics._LAPACKE_FUNCS

    def bind(patterns):
        monkeypatch.setattr(numerics, "_LAPACKE_FUNCS", patterns)
        numerics._openblas_search.cache_clear()
        numerics.ridge_lapack.cache_clear()
        return numerics.ridge_lapack().library

    def run(fn):
        return [(bind(patterns), fn()) for patterns in (host, ())]

    yield run
    bind(host)


def solver_outcome(monkeypatch, A, Y, gamma):
    """Every (1-norm, reciprocal condition number) the solver estimated on
    A, as hex, and its factor and fit on Y as bytes, or its error."""
    estimates, condition = [], numerics._condition

    def recorded(lapack, factor, anorm):
        rcond = condition(lapack, factor, anorm)
        estimates.append((anorm.hex(), rcond.hex()))
        return rcond

    monkeypatch.setattr(numerics, "_condition", recorded)
    try:
        solver = _RidgeSolver(A, gamma)
        readout = solver.fit(Y)
    except NumericalError as exc:
        return estimates, str(exc)
    finally:
        monkeypatch.setattr(numerics, "_condition", condition)
    return estimates, [a.tobytes() for a in (solver._factor, readout.weights,
                                             readout.intercept)]


@pytest.mark.skipif(FALLBACK, reason="no mapped OpenBLAS exports LAPACKE")
class TestLapackBindings:
    """numpy's OpenBLAS LAPACKE and the scipy.linalg.lapack fallback give the
    solver the same bits."""

    @pytest.mark.parametrize("n_reservoir", [6, 12, 50, 200])
    @pytest.mark.parametrize("name", ["narma10", "narma30", "henon",
                                      "freedman"])
    def test_fallback_bit_equal_on_benchmark_fits(self, name, n_reservoir,
                                                  both_bindings, monkeypatch):
        config = ExperimentConfig.for_benchmark(name)
        train, _ = load_benchmark(config)
        res = init_reservoir(EsnParams(n_inputs=train.n_inputs,
                                       n_reservoir=n_reservoir))
        A = _feature_matrix(res, train.inputs)[train.washout:]
        (lapacke, ours), (fallback, theirs) = both_bindings(
            lambda: solver_outcome(monkeypatch, A,
                                   train.targets[train.washout:],
                                   config.gamma))
        assert fallback == "scipy.linalg.lapack" != lapacke
        assert not isinstance(ours[1], str)
        assert ours == theirs

    @pytest.mark.parametrize("second, refused", [
        (lambda u, v: 3e-9 * v, False),
        (lambda u, v: u + 1e-9 * v, True)], ids=["scaled", "collinear"])
    def test_fallback_bit_equal_on_ill_conditioned_fits(self, second, refused,
                                                        both_bindings,
                                                        monkeypatch):
        # the cases of test_numerically_singular_normal_matrix and
        # test_nearly_collinear_columns_refused, which take the Jacobi path
        rng = np.random.default_rng(5)
        u, v = rng.normal(size=(2, 40))
        A, y = augmented(np.c_[u, second(u, v)]), rng.normal(size=40)
        (_, ours), (_, theirs) = both_bindings(
            lambda: solver_outcome(monkeypatch, A, y, 0.0))
        assert len(ours[0]) == 2
        assert isinstance(ours[1], str) is refused
        assert ours == theirs

    def test_negative_info_from_either_binding(self, both_bindings):
        # a negative 1-norm is an argument dpocon refuses
        infos = both_bindings(lambda: numerics.ridge_lapack().dpocon(
            np.eye(3, order="F"), -1.0)[1])
        assert all(info < 0 for _, info in infos)

    @pytest.mark.parametrize("args", [
        (np.eye(3, order="F"), np.ones((2, 1), order="F")),
        (np.ones((3, 2), order="F"), np.ones((3, 1), order="F"))],
        ids=["rhs_rows", "not_square"])
    def test_lapacke_checks_shapes_before_the_call(self, args):
        with pytest.raises(ParameterError, match="LAPACK needs a square"):
            numerics.ridge_lapack().dpotrs(*args)

    def test_lapacke_refuses_c_ordered_arrays(self):
        with pytest.raises(ctypes.ArgumentError):
            numerics.ridge_lapack().dpotrf(np.arange(9.0).reshape(3, 3))
