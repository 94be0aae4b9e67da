"""Tests for reservoir construction, state evolution, and prediction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esnboost.errors import DataError, ParameterError
from esnboost.esn import (EsnParams, Readout, Reservoir, build_features,
                          esn_predict, init_reservoir, run_reservoir)


def make_reservoir(w_in, w_r):
    """Reservoir with hand-picked matrices and wide enough declared ranges."""
    w_in = np.atleast_2d(np.asarray(w_in, dtype=float))
    w_r = np.atleast_2d(np.asarray(w_r, dtype=float))
    params = EsnParams(n_inputs=w_in.shape[1], n_reservoir=w_in.shape[0],
                       input_range=(-10, 10), reservoir_range=(-10, 10),
                       reservoir_density=1.0)
    return Reservoir(w_in=w_in, w_r=w_r, params=params)


class TestEsnParams:
    def test_default_ranges(self):
        p = EsnParams(n_inputs=1, n_reservoir=10)
        assert p.input_range == (-0.2, 0.2)
        assert p.reservoir_range == (-0.8, 0.8)
        assert p.reservoir_density == 0.1

    def test_validation(self):
        with pytest.raises(ParameterError):
            EsnParams(n_inputs=0, n_reservoir=5)
        with pytest.raises(ParameterError):
            EsnParams(n_inputs=1, n_reservoir=5, input_range=(1.0, -1.0))
        with pytest.raises(ParameterError):
            EsnParams(n_inputs=1, n_reservoir=5, reservoir_density=0.0)

    @pytest.mark.parametrize("name, value", [
        ("n_inputs", 1.0), ("n_reservoir", 6.0), ("seed", "x"),
        ("seed", 0.5), ("seed", True),
    ])
    def test_non_integers_rejected(self, name, value):
        values = {"n_inputs": 1, "n_reservoir": 5, name: value}
        with pytest.raises(ParameterError, match=f"{name} must be an integer"):
            EsnParams(**values)

    def test_numpy_integers_accepted(self):
        p = EsnParams(n_inputs=np.int64(1), n_reservoir=np.int32(5),
                      seed=np.uint8(7))
        assert init_reservoir(p).w_r.shape == (5, 5)

    @pytest.mark.parametrize("name, value", [
        ("reservoir_density", "x"), ("reservoir_density", True),
        ("input_range", ("a", 1)), ("reservoir_range", (-1.0, None)),
    ])
    def test_non_numbers_rejected(self, name, value):
        values = {"n_inputs": 1, "n_reservoir": 3, name: value}
        with pytest.raises(ParameterError,
                           match=rf"{name}(\[\d\])? must be a finite number"):
            EsnParams(**values)

    def test_numpy_numbers_and_ints_accepted_as_floats(self):
        p = EsnParams(n_inputs=1, n_reservoir=3,
                      reservoir_density=np.float32(0.5),
                      input_range=(np.float64(-0.1), 0),
                      reservoir_range=(-1, 1))
        assert init_reservoir(p).w_r.shape == (3, 3)


class TestInitReservoir:
    def test_deterministic_in_seed(self):
        p = EsnParams(n_inputs=2, n_reservoir=30, seed=77)
        a, b = init_reservoir(p), init_reservoir(p)
        np.testing.assert_array_equal(a.w_in, b.w_in)
        np.testing.assert_array_equal(a.w_r, b.w_r)

    def test_ranges_respected(self):
        res = init_reservoir(EsnParams(n_inputs=3, n_reservoir=40, seed=1))
        assert np.all(np.abs(res.w_in) <= 0.2)
        assert np.all(np.abs(res.w_r) <= 0.8)

    def test_input_matrix_dense(self):
        res = init_reservoir(EsnParams(n_inputs=4, n_reservoir=50, seed=2))
        assert np.count_nonzero(res.w_in) == res.w_in.size

    def test_recurrent_sparsity(self):
        res = init_reservoir(EsnParams(n_inputs=1, n_reservoir=100, seed=3))
        nz = np.count_nonzero(res.w_r)
        # 3-sigma binomial band around 1000 of 10000
        assert 910 <= nz <= 1090

    def test_no_rescaling(self):
        # the raw draws go in as-is: densities aside, the recurrent matrix
        # of a wide range must keep entries near the range edges
        res = init_reservoir(EsnParams(n_inputs=1, n_reservoir=80, seed=4,
                                       reservoir_range=(-5.0, 5.0),
                                       reservoir_density=1.0))
        assert np.max(np.abs(res.w_r)) > 4.0


def reference_states(res, inputs, s0=None):
    """The plain recursion, one fresh state per step; run_reservoir must
    match it bit for bit."""
    x = np.asarray(inputs, dtype=float)
    drive = x @ res.w_in.T
    s = np.zeros(res.params.n_reservoir) if s0 is None else s0
    states = np.empty((x.shape[0], res.params.n_reservoir))
    for t in range(x.shape[0]):
        s = np.tanh(drive[t] + res.w_r @ s)
        states[t] = s
    return states


class TestRunReservoir:
    @settings(max_examples=80, deadline=None)
    @given(n_res=st.integers(1, 64), n_in=st.integers(1, 3),
           steps=st.integers(0, 300),
           density=st.floats(0.0, 1.0, exclude_min=True),
           bounds=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
           seed=st.integers(0, 2 ** 32 - 1), with_s0=st.booleans())
    def test_bit_equal_to_reference(self, n_res, n_in, steps, density, bounds,
                                    seed, with_s0):
        res = init_reservoir(EsnParams(
            n_inputs=n_in, n_reservoir=n_res, seed=seed,
            reservoir_range=tuple(sorted(bounds)), reservoir_density=density))
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1.0, 1.0, size=(steps, n_in))
        if not with_s0:
            assert np.array_equal(run_reservoir(res, x), reference_states(res, x))
            return
        block = rng.uniform(-1.0, 1.0, size=(n_res, 2))
        before = block.copy()
        strided = block[:, 0]  # a column view: not contiguous
        states = run_reservoir(res, x, s0=strided)
        assert np.array_equal(block, before)  # the caller's s0 is not written
        contiguous = strided.copy()
        assert np.array_equal(states, run_reservoir(res, x, s0=contiguous))
        assert np.array_equal(states, reference_states(res, x, contiguous))

    def test_zero_weights_zero_states(self):
        res = make_reservoir(np.zeros((3, 1)), np.zeros((3, 3)))
        states = run_reservoir(res, np.ones((10, 1)))
        np.testing.assert_array_equal(states, np.zeros((10, 3)))

    def test_scalar_recurrence_hand_values(self):
        res = make_reservoir([[0.1]], [[0.5]])
        states = run_reservoir(res, np.ones((2, 1)))
        assert abs(states[0, 0] - 0.099668) < 1e-5
        assert abs(states[1, 0] - 0.148724) < 1e-5

    def test_states_strictly_inside_unit_interval(self):
        res = init_reservoir(EsnParams(n_inputs=1, n_reservoir=60, seed=9,
                                       reservoir_range=(-3, 3)))
        states = run_reservoir(res, np.random.default_rng(0).normal(size=(300, 1)))
        assert np.max(np.abs(states)) < 1.0

    def test_initial_state_used(self):
        res = make_reservoir([[0.0]], [[0.5]])
        states = run_reservoir(res, np.zeros((1, 1)), s0=np.array([0.8]))
        assert abs(states[0, 0] - np.tanh(0.4)) < 1e-12

    def test_dimension_validation(self):
        res = make_reservoir(np.zeros((3, 1)), np.zeros((3, 3)))
        with pytest.raises(ParameterError):
            run_reservoir(res, np.ones((5, 2)))
        with pytest.raises(ParameterError):
            run_reservoir(res, np.ones((5, 1)), s0=np.zeros(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_s0_rejected(self, bad):
        res = make_reservoir([[0.1], [0.2]], np.eye(2) * 0.5)
        with pytest.raises(ParameterError, match="s0 contains non-finite"):
            run_reservoir(res, np.ones((3, 1)), s0=np.array([0.0, bad]))

    @pytest.mark.parametrize("inputs, rank", [(np.ones((4, 1, 1)), "3-D"),
                                              (1.0, "0-D")])
    def test_inputs_of_other_ranks_rejected(self, inputs, rank):
        res = make_reservoir([[0.1]], [[0.5]])
        with pytest.raises(ParameterError, match=rank):
            run_reservoir(res, inputs)

    def test_contractive_reservoir_forgets_initial_state(self):
        # small recurrent weights give a contraction; two different starts
        # converge, which is what washout relies on when dynamics are stable
        rng = np.random.default_rng(12)
        w_r = rng.uniform(-0.05, 0.05, size=(20, 20))
        w_in = rng.uniform(-0.2, 0.2, size=(20, 1))
        res = make_reservoir(w_in, w_r)
        x = rng.uniform(0, 1, size=(200, 1))
        a = run_reservoir(res, x, s0=np.zeros(20))
        b = run_reservoir(res, x, s0=np.full(20, 0.9))
        assert np.max(np.abs(a[-1] - b[-1])) < 1e-8


class TestBuildFeatures:
    def test_concatenation(self):
        f = build_features(np.array([[1.0]]), np.array([[0.2, 0.3]]))
        np.testing.assert_allclose(f, [[1.0, 0.2, 0.3]])

    def test_empty_rows_keep_width(self):
        f = build_features(np.empty((0, 3)), np.empty((0, 50)))
        assert f.shape == (0, 53)

    def test_row_mismatch(self):
        with pytest.raises(ParameterError):
            build_features(np.ones((2, 1)), np.ones((3, 4)))


class TestEsnPredict:
    def test_zero_weights_constant_intercept(self):
        res = make_reservoir(np.zeros((3, 1)), np.zeros((3, 3)))
        readout = Readout(weights=np.zeros((1, 4)), intercept=np.array([2.5]))
        pred = esn_predict(res, readout, np.ones((6, 1)))
        np.testing.assert_allclose(pred, np.full((6, 1), 2.5))

    def test_equals_manual_pipeline(self):
        rng = np.random.default_rng(3)
        res = init_reservoir(EsnParams(n_inputs=2, n_reservoir=15, seed=5))
        readout = Readout(weights=rng.normal(size=(1, 17)),
                          intercept=rng.normal(size=1))
        x = rng.uniform(0, 1, size=(30, 2))
        manual = readout.predict(build_features(x, run_reservoir(res, x)))
        assert np.max(np.abs(esn_predict(res, readout, x) - manual)) < 1e-12

    def test_single_step_unrolled(self):
        res = make_reservoir([[0.3]], [[0.6]])
        readout = Readout(weights=np.array([[2.0, 1.0]]),
                          intercept=np.array([0.5]))
        x = np.array([[0.7]])
        state = np.tanh(0.3 * 0.7)  # from the zero state
        want = 2.0 * 0.7 + 1.0 * state + 0.5
        got = esn_predict(res, readout, x)
        assert abs(got[0, 0] - want) < 1e-12

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_inputs_rejected(self, bad):
        res = make_reservoir(np.full((3, 1), 0.1), np.eye(3) * 0.5)
        readout = Readout(weights=np.ones((1, 4)), intercept=np.zeros(1))
        x = np.ones((5, 1))
        x[2, 0] = bad
        with pytest.raises(DataError, match="non-finite"):
            esn_predict(res, readout, x)

    def test_readout_width_checked(self):
        res = make_reservoir(np.zeros((3, 1)), np.zeros((3, 3)))
        readout = Readout(weights=np.zeros((1, 9)), intercept=np.zeros(1))
        with pytest.raises(ParameterError):
            esn_predict(res, readout, np.ones((2, 1)))

    def test_end_to_end_seed_determinism(self):
        p = EsnParams(n_inputs=1, n_reservoir=25, seed=123)
        x = np.random.default_rng(0).uniform(0, 1, size=(50, 1))
        readout = Readout(weights=np.ones((1, 26)), intercept=np.zeros(1))
        a = esn_predict(init_reservoir(p), readout, x)
        b = esn_predict(init_reservoir(p), readout, x)
        np.testing.assert_array_equal(a, b)
