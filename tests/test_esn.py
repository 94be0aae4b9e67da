"""Tests for reservoir construction, state evolution, and prediction."""

import copy
import inspect
import pickle
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esnboost import esn
from esnboost.boosting import EnsembleModel, predict
from esnboost.errors import DataError, ParameterError
from esnboost.esn import (EsnParams, Readout, Reservoir, build_features,
                          init_reservoir, run_reservoir)
from esnboost.harness import ExperimentConfig, load_benchmark

from conftest import draw_reservoir


def make_reservoir(w_in, w_r):
    """Reservoir with hand-picked matrices."""
    w_in = np.atleast_2d(np.asarray(w_in, dtype=float))
    w_r = np.atleast_2d(np.asarray(w_r, dtype=float))
    params = EsnParams(n_inputs=w_in.shape[1], n_reservoir=w_in.shape[0])
    return Reservoir(w_in=w_in, w_r=w_r, params=params)


class TestEsnParams:
    def test_default_ranges(self):
        # the ranges and density of the draw are module constants, not
        # fields, and init_reservoir draws at them as draw_reservoir does
        assert (esn.INPUT_RANGE, esn.RESERVOIR_RANGE,
                esn.RESERVOIR_DENSITY) == ((-0.2, 0.2), (-0.8, 0.8), 0.1)
        assert [f.name for f in fields(EsnParams)] == \
            ["n_inputs", "n_reservoir", "seed"]
        for seed in range(4):
            drawn = init_reservoir(EsnParams(n_inputs=2, n_reservoir=30,
                                             seed=seed))
            res = draw_reservoir(2, 30, seed, input_range=(-0.2, 0.2),
                                 reservoir_range=(-0.8, 0.8), density=0.1)
            assert np.array_equal(drawn.w_in, res.w_in)
            assert np.array_equal(drawn.w_r, res.w_r)
            assert drawn.params == res.params

    def test_validation(self):
        with pytest.raises(ParameterError):
            EsnParams(n_inputs=0, n_reservoir=5)

    @pytest.mark.parametrize("name, value", [
        ("n_inputs", 1.0), ("n_reservoir", 6.0), ("seed", "x"),
        ("seed", 0.5), ("seed", True),
    ])
    def test_non_integers_rejected(self, name, value):
        values = {"n_inputs": 1, "n_reservoir": 5, name: value}
        with pytest.raises(ParameterError, match=f"{name} must be an integer"):
            EsnParams(**values)

    def test_numpy_integers_accepted(self):
        # and held as ints, which save as JSON
        p = EsnParams(n_inputs=np.int64(1), n_reservoir=np.int32(5),
                      seed=np.uint8(7))
        assert [type(getattr(p, f.name)) for f in fields(p)] == [int] * 3
        assert p == EsnParams(n_inputs=1, n_reservoir=5, seed=7)
        assert hash(p) == hash(EsnParams(n_inputs=1, n_reservoir=5, seed=7))
        assert init_reservoir(p).w_r.shape == (5, 5)


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
        res = draw_reservoir(1, 80, 4, reservoir_range=(-5.0, 5.0),
                             density=1.0)
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
           seed=st.integers(0, 2 ** 32 - 1), with_s0=st.booleans(),
           margins=st.tuples(st.integers(0, 3), st.integers(0, 3)))
    def test_bit_equal_to_reference(self, n_res, n_in, steps, density, bounds,
                                    seed, with_s0, margins):
        res = draw_reservoir(n_in, n_res, seed,
                             reservoir_range=tuple(sorted(bounds)),
                             density=density)
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1.0, 1.0, size=(steps, n_in))
        allocated = run_reservoir(res, x)
        assert np.array_equal(allocated, reference_states(res, x))
        # written into the state columns of a wider matrix instead, as the
        # library's feature matrices are filled: nothing else is written
        left, right = margins
        wide = rng.uniform(-1.0, 1.0, size=(steps, left + n_res + right))
        wide_before = wide.copy()
        state_cols = wide[:, left:left + n_res]
        assert run_reservoir(res, x, _out=state_cols) is state_cols
        assert np.array_equal(state_cols, allocated)
        outside = np.ones(wide.shape[1], dtype=bool)
        outside[left:left + n_res] = False
        assert np.array_equal(wide[:, outside], wide_before[:, outside])
        if not with_s0:
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
        res = draw_reservoir(1, 60, 9, reservoir_range=(-3, 3))
        states = run_reservoir(res, np.random.default_rng(0).normal(size=(300, 1)))
        assert np.max(np.abs(states)) < 1.0

    def test_large_chaotic_reservoir_reaches_one_exactly(self):
        # float64 tanh rounds to +-1.0 once its argument passes about 19, so
        # the bound is the closed [-1, 1].  narma10 at N=800, seed 1 and the
        # default ranges (spectral radius 4.2) reaches it once in training.
        config = ExperimentConfig.for_benchmark("narma10", n_reservoir=800,
                                                seed=1)
        train, test = load_benchmark(config)
        res = init_reservoir(EsnParams(n_inputs=train.n_inputs,
                                       n_reservoir=800, seed=1))
        magnitudes = np.abs(run_reservoir(res, train.inputs))
        assert np.max(magnitudes) == 1.0
        assert np.count_nonzero(magnitudes == 1.0) == 1
        assert np.max(np.abs(run_reservoir(res, test.inputs))) == \
            np.nextafter(1.0, 0.0)

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

    def test_public_parameters(self):
        # the state-block fill is the library's own, not part of the API
        params = inspect.signature(run_reservoir).parameters
        assert [p for p in params if not p.startswith("_")] == \
            ["res", "inputs", "s0"]

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


def at_offset(a, offset):
    """A C-contiguous float64 copy of a that starts offset bytes past a
    64-byte boundary."""
    buf = np.empty(a.size + 16)
    start = (-buf.ctypes.data % 64 + offset) // 8
    copy = buf[start:start + a.size].reshape(a.shape)
    copy[...] = a
    assert copy.ctypes.data % 64 == offset
    return copy


def is_aligned_c_float(a):
    return (a.dtype == np.float64 and a.flags.c_contiguous
            and a.ctypes.data % 64 == 0)


REBUILT = {"pickle": lambda res: pickle.loads(pickle.dumps(res)),
           "copy": copy.copy, "deepcopy": copy.deepcopy}


class TestReservoirLayout:
    """A Reservoir holds C-contiguous float64 weights, w_r from a 64-byte
    boundary, whichever way it was built."""

    @pytest.mark.parametrize("n_res, how", [
        *(pytest.param(n, None, id=str(n)) for n in (1, 3, 7, 60, 200)),
        *(pytest.param(n, how, id=f"{how}-{n}")
          for how in REBUILT for n in (50, 100, 200))])
    def test_init_reservoir(self, n_res, how):
        x = np.random.default_rng(0).uniform(-1.0, 1.0, size=(30, 2))
        for seed in range(8):
            drawn = init_reservoir(EsnParams(n_inputs=2, n_reservoir=n_res,
                                             seed=seed))
            res = drawn if how is None else REBUILT[how](drawn)
            assert is_aligned_c_float(res.w_r)
            assert res.w_in.dtype == np.float64 and res.w_in.flags.c_contiguous
            assert np.array_equal(run_reservoir(res, x), run_reservoir(drawn, x))

    def test_only_the_constructor_sets_the_matrices(self):
        res = init_reservoir(EsnParams(n_inputs=1, n_reservoir=6))
        with pytest.raises(FrozenInstanceError):
            res.w_r = np.zeros((6, 6))
        object.__setattr__(res, "w_r", np.eye(6) * np.nan)
        pickled = pickle.dumps(res)
        with pytest.raises(ParameterError, match="w_r has non-finite"):
            pickle.loads(pickled)

    def test_any_given_layout_is_normalized(self):
        rng = np.random.default_rng(0)
        w_r = rng.uniform(-0.5, 0.5, size=(9, 9))
        w_in = np.arange(9).reshape(9, 1) - 4  # integers
        wide = np.zeros((9, 18))
        wide[:, ::2] = w_r
        params = make_reservoir(w_in, w_r).params
        for given in (np.asfortranarray(w_r), np.ascontiguousarray(w_r.T).T,
                      wide[:, ::2], at_offset(w_r, 16),
                      w_r.astype(np.float32)):
            res = Reservoir(w_in=np.asfortranarray(w_in.T).T, w_r=given,
                            params=params)
            assert is_aligned_c_float(res.w_r)
            assert np.array_equal(res.w_r, given)
            assert res.w_in.dtype == np.float64 and res.w_in.flags.c_contiguous
            assert np.array_equal(res.w_in, w_in)
            assert is_aligned_c_float(replace(res, w_r=at_offset(w_r, 48)).w_r)

    @pytest.mark.parametrize("w_in, w_r, message", [
        # a 5x1 input matrix under n_reservoir=6 would be saved to a file
        # load_model refuses
        (np.zeros((5, 1)), np.zeros((6, 6)), r"w_in must have shape \(6, 1\)"),
        (np.zeros((6, 2)), np.zeros((6, 6)), "w_in must have shape"),
        (np.zeros(6), np.zeros((6, 6)), "w_in must have shape"),
        (np.zeros((6, 1)), np.zeros((5, 5)), r"w_r must have shape \(6, 6\)"),
        (np.zeros((6, 1)), np.zeros((6, 5)), "w_r must have shape"),
        (np.zeros((6, 1)), np.zeros((1, 6, 6)), "w_r must have shape"),
        (np.full((6, 1), np.inf), np.zeros((6, 6)), "w_in has non-finite"),
        (np.zeros((6, 1)), np.eye(6) * np.nan, "w_r has non-finite"),
    ], ids=["w_in-rows", "w_in-cols", "w_in-1d", "w_r-small", "w_r-cols",
            "w_r-3d", "inf-w_in", "nan-w_r"])
    def test_matrices_must_fit_params_and_be_finite(self, w_in, w_r, message):
        params = EsnParams(n_inputs=1, n_reservoir=6)
        with pytest.raises(ParameterError, match=message):
            Reservoir(w_in=w_in, w_r=w_r, params=params)

    def test_aligned_matrix_kept(self):
        w_r = at_offset(np.eye(4) * 0.5, 0)
        w_in = np.ones((4, 1))
        res = make_reservoir(w_in, w_r)
        assert res.w_r is w_r

    @pytest.mark.usefixtures("one_blas_thread")
    @pytest.mark.parametrize("n_res", [*range(1, 13), 31, 50, 100, 101, 200,
                                       257, 500])
    def test_states_bit_equal_at_every_offset(self, n_res):
        # the aligned store is bit-neutral: the gemv reads w_r from a 64-byte
        # boundary or from 8 to 56 bytes past one with the same bits, and
        # each matches the plain recursion
        scale = 1.5 / np.sqrt(n_res)
        for k in (1, 2):
            res = draw_reservoir(k, n_res, n_res,
                                 reservoir_range=(-scale, scale), density=1.0)
            x = np.random.default_rng(k).uniform(-1.0, 1.0, size=(40, k))
            aligned = run_reservoir(res, x)
            assert np.max(np.abs(aligned)) < 0.999  # not saturated
            w_r = res.w_r
            for offset in range(0, 64, 8):
                object.__setattr__(res, "w_r", at_offset(w_r, offset))
                assert np.array_equal(reference_states(res, x), aligned)
                assert np.array_equal(run_reservoir(res, x), aligned)


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


def single(res, readout):
    """The one-member ensemble of a (reservoir, readout) pair."""
    return EnsembleModel(terms=[(res, readout)])


class TestEsnPredict:
    def test_zero_weights_constant_intercept(self):
        res = make_reservoir(np.zeros((3, 1)), np.zeros((3, 3)))
        readout = Readout(weights=np.zeros((1, 4)), intercept=np.array([2.5]))
        pred = predict(single(res, readout), np.ones((6, 1)))
        np.testing.assert_allclose(pred, np.full((6, 1), 2.5))

    def test_equals_manual_pipeline(self):
        rng = np.random.default_rng(3)
        res = init_reservoir(EsnParams(n_inputs=2, n_reservoir=15, seed=5))
        readout = Readout(weights=rng.normal(size=(1, 17)),
                          intercept=rng.normal(size=1))
        x = rng.uniform(0, 1, size=(30, 2))
        manual = readout.predict(build_features(x, run_reservoir(res, x)))
        got = predict(single(res, readout), x)
        assert np.max(np.abs(got - manual)) < 1e-12

    def test_single_step_unrolled(self):
        res = make_reservoir([[0.3]], [[0.6]])
        readout = Readout(weights=np.array([[2.0, 1.0]]),
                          intercept=np.array([0.5]))
        x = np.array([[0.7]])
        state = np.tanh(0.3 * 0.7)  # from the zero state
        want = 2.0 * 0.7 + 1.0 * state + 0.5
        got = predict(single(res, readout), x)
        assert abs(got[0, 0] - want) < 1e-12

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_inputs_rejected(self, bad):
        res = make_reservoir(np.full((3, 1), 0.1), np.eye(3) * 0.5)
        readout = Readout(weights=np.ones((1, 4)), intercept=np.zeros(1))
        x = np.ones((5, 1))
        x[2, 0] = bad
        with pytest.raises(DataError, match="non-finite"):
            predict(single(res, readout), x)

    def test_readout_width_checked(self):
        res = make_reservoir(np.zeros((3, 1)), np.zeros((3, 3)))
        readout = Readout(weights=np.zeros((1, 9)), intercept=np.zeros(1))
        with pytest.raises(ParameterError):
            predict(single(res, readout), np.ones((2, 1)))

    def test_end_to_end_seed_determinism(self):
        p = EsnParams(n_inputs=1, n_reservoir=25, seed=123)
        x = np.random.default_rng(0).uniform(0, 1, size=(50, 1))
        readout = Readout(weights=np.ones((1, 26)), intercept=np.zeros(1))
        a = predict(single(init_reservoir(p), readout), x)
        b = predict(single(init_reservoir(p), readout), x)
        np.testing.assert_array_equal(a, b)
