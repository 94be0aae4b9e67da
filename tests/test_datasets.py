"""Tests for benchmark generators, normalization, and supervised wiring."""

import numpy as np
import pytest

from esnboost.datasets import (NARMA_COEFFS, NormStats, RawSeries,
                               SeriesDataset, dataset_to_csv,
                               denormalize_minmax, gen_freedman, gen_henon,
                               gen_narma, load_laser, make_supervised,
                               normalize_minmax, read_text, split)
from esnboost.errors import DataError, ParameterError
from esnboost.numerics import Rng


class TestRawSeries:
    def test_channels_order_and_length(self):
        s = RawSeries(values=np.arange(3.0), driver=np.ones(3))
        chans = s.channels()
        assert len(chans) == 2 and len(s) == 3
        np.testing.assert_array_equal(chans[0], [0, 1, 2])

    def test_slice_copies_all_channels(self):
        s = RawSeries(values=np.arange(5.0), noise=np.arange(5.0) * 10)
        part = s.slice(1, 4)
        assert len(part) == 3
        np.testing.assert_array_equal(part.noise, [10, 20, 30])
        part.values[0] = 99.0
        assert s.values[1] == 1.0

    def test_rejects_length_mismatch(self):
        with pytest.raises(ParameterError):
            RawSeries(values=np.ones(3), driver=np.ones(4))

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            RawSeries(values=np.array([1.0, np.nan]))
        with pytest.raises(DataError):
            RawSeries(values=np.ones(2), noise=np.array([0.0, np.inf]))


class TestNarma:
    def test_coefficient_table(self):
        assert NARMA_COEFFS[10] == (0.3, 0.05, 1.5, 0.1)
        assert NARMA_COEFFS[30] == (0.2, 0.004, 1.5, 0.001)

    def test_zero_alphas_give_zero_series(self):
        s = gen_narma(10, (0, 0, 0, 0), 40, Rng(3))
        np.testing.assert_array_equal(s.values, np.zeros(40))

    def test_zero_driver_hand_values(self):
        s = gen_narma(10, NARMA_COEFFS[10], 15, Rng(0), driver=np.zeros(15))
        assert s.values[0] == 0.0
        assert abs(s.values[1] - 0.1) < 1e-12
        # b(2) = 0.3*0.1 + 0.05*0.1*0.1 + 0.1
        assert abs(s.values[2] - 0.1305) < 1e-12

    def test_driver_is_stored_and_bounded(self):
        s = gen_narma(10, NARMA_COEFFS[10], 100, Rng(4))
        assert s.driver is not None and len(s.driver) == 100
        assert s.driver.min() >= 0.0 and s.driver.max() <= 0.5

    def test_seed_determinism(self):
        a = gen_narma(30, NARMA_COEFFS[30], 200, Rng(9))
        b = gen_narma(30, NARMA_COEFFS[30], 200, Rng(9))
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.driver, b.driver)

    def test_injected_driver_used_verbatim(self):
        drv = Rng(1).uniform(0, 0.5, 60)
        a = gen_narma(10, NARMA_COEFFS[10], 60, Rng(2), driver=drv)
        np.testing.assert_array_equal(a.driver, drv)

    def test_divergent_recurrence_with_injected_driver(self):
        # b(t+1) = 2 b(t) + 1 grows without bound; no retry when injected
        with pytest.raises(DataError):
            gen_narma(2, (2.0, 0.0, 0.0, 1.0), 30, Rng(0),
                      driver=np.zeros(30))

    def test_divergence_exhausts_retries(self):
        with pytest.raises(DataError, match="10 consecutive"):
            gen_narma(2, (2.0, 0.0, 0.0, 1.0), 30, Rng(0))

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            gen_narma(0, (0, 0, 0, 0), 10, Rng(0))
        with pytest.raises(ParameterError):
            gen_narma(10, (0, 0, 0, 0), 10, Rng(0))
        with pytest.raises(ParameterError):
            gen_narma(10, (0, 0, 0), 40, Rng(0))
        with pytest.raises(ParameterError):
            gen_narma(10, NARMA_COEFFS[10], 40, Rng(0), driver=np.zeros(5))


class TestHenon:
    def test_noiseless_from_zero_start(self):
        s = gen_henon(5, Rng(0), noise_sigma=0.0)
        assert abs(s.values[2] - 1.0) < 1e-12

    def test_noiseless_hand_values(self):
        s = gen_henon(6, Rng(0), noise_sigma=0.0, y_init=(0.5, 0.5))
        # y(2) = 1 - 1.4*0.25 + 0.3*0.5, y(3) = 1 - 1.4*0.64 + 0.3*0.5
        assert abs(s.values[2] - 0.8) < 1e-12
        assert abs(s.values[3] - 0.254) < 1e-12

    def test_observation_noise_decomposition(self):
        noisy = gen_henon(200, Rng(21))
        clean = gen_henon(200, Rng(21), noise_sigma=0.0)
        assert noisy.noise is not None
        np.testing.assert_array_equal(noisy.values,
                                      clean.values + noisy.noise)

    def test_long_series_stays_bounded(self):
        s = gen_henon(5000, Rng(2))
        assert np.max(np.abs(s.values)) < 3.0

    def test_seed_determinism(self):
        a = gen_henon(300, Rng(5))
        b = gen_henon(300, Rng(5))
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.noise, b.noise)

    def test_in_state_variant_matches_recurrence(self):
        s = gen_henon(40, Rng(8), noise_sigma=0.01, noise_in_state=True)
        y, z = s.values, s.noise
        for t in range(1, 39):
            expected = 1.0 - 1.4 * y[t] ** 2 + 0.3 * y[t - 1] + z[t + 1]
            assert abs(y[t + 1] - expected) < 1e-12

    def test_in_state_divergence_exhausts_retries(self):
        with pytest.raises(DataError, match="10 consecutive"):
            gen_henon(400, Rng(0), noise_sigma=5.0, noise_in_state=True)

    def test_divergent_initial_conditions(self):
        with pytest.raises(DataError, match="basin"):
            gen_henon(50, Rng(0), y_init=(10.0, 10.0))

    def test_length_validation(self):
        with pytest.raises(ParameterError):
            gen_henon(2, Rng(0))


class TestFreedman:
    def test_published_orbit_values(self):
        s = gen_freedman(4)
        assert s.values[0] == 0.23719
        assert s.values[1] == 0.47438
        assert s.values[2] == 0.94876
        assert abs(s.values[3] - 0.10248) < 1e-15

    def test_fixed_point(self):
        # 2/3 maps to itself; chaotic rounding drift limits the horizon
        s = gen_freedman(10, y0=2.0 / 3.0)
        np.testing.assert_allclose(s.values, 2.0 / 3.0, atol=1e-12)

    def test_stays_in_unit_interval(self):
        for y0 in np.random.default_rng(0).uniform(0, 1, 20):
            s = gen_freedman(200, y0=float(y0))
            assert s.values.min() >= 0.0 and s.values.max() <= 1.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            gen_freedman(10, y0=1.5)
        with pytest.raises(ParameterError):
            gen_freedman(10, y0=-0.1)
        with pytest.raises(ParameterError):
            gen_freedman(0)


class TestLoadLaser:
    def test_parses_numbers_in_order(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("1\n2\n3\n")
        s = load_laser(p)
        np.testing.assert_array_equal(s.values, [1.0, 2.0, 3.0])

    def test_skips_blank_lines_tolerates_whitespace(self, tmp_path):
        p = tmp_path / "b.txt"
        p.write_text("  1.5\n\n   \n-2\n")
        np.testing.assert_array_equal(load_laser(p).values, [1.5, -2.0])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_laser(tmp_path / "nope.txt")

    def test_bad_line_reported_with_number(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("1\nabc\n3\n")
        with pytest.raises(DataError, match="line 2"):
            load_laser(p)

    def test_non_utf8_file(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_bytes(b"\xff1\n2\n")
        with pytest.raises(DataError, match="cannot read laser data file"):
            load_laser(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("\n\n")
        with pytest.raises(DataError, match="no data"):
            load_laser(p)

    def test_standin_fixture_has_benchmark_length(self, laser_file):
        assert len(load_laser(laser_file)) == 1000


class TestReadText:
    def test_reads_utf8(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("x = 1\n", encoding="utf-8")
        assert read_text(p, "config file") == "x = 1\n"

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError,
                           match="cannot read config file .*: not found"):
            read_text(tmp_path / "absent.cfg", "config file")

    def test_directory(self, tmp_path):
        with pytest.raises(DataError, match="cannot read results file"):
            read_text(tmp_path, "results file")

    def test_non_utf8(self, tmp_path):
        p = tmp_path / "b.txt"
        p.write_bytes(b"\xff\xfe")
        with pytest.raises(DataError, match="cannot read model file"):
            read_text(p, "model file")


class TestNormalize:
    def test_basic_scaling(self):
        s, stats = normalize_minmax(RawSeries(values=np.array([0.0, 5.0, 10.0])))
        np.testing.assert_allclose(s.values, [0.0, 0.5, 1.0])
        assert stats.mins == (0.0,) and stats.maxs == (10.0,)

    def test_reused_stats_extrapolate(self):
        stats = NormStats(mins=(0.0,), maxs=(10.0,))
        s, _ = normalize_minmax(RawSeries(values=np.array([20.0])), stats)
        np.testing.assert_allclose(s.values, [2.0])

    def test_constant_channel_rejected(self):
        with pytest.raises(DataError):
            normalize_minmax(RawSeries(values=np.array([3.0, 3.0, 3.0])))

    def test_round_trip_multichannel(self):
        raw = gen_henon(100, Rng(3))
        normed, stats = normalize_minmax(raw)
        back = denormalize_minmax(normed, stats)
        np.testing.assert_allclose(back.values, raw.values, atol=1e-12)
        np.testing.assert_allclose(back.noise, raw.noise, atol=1e-12)

    def test_channel_count_must_match_stats(self):
        stats = NormStats(mins=(0.0,), maxs=(1.0,))
        with pytest.raises(ParameterError):
            normalize_minmax(gen_henon(50, Rng(0)), stats)

    def test_stats_validation(self):
        with pytest.raises(ParameterError):
            NormStats(mins=(1.0,), maxs=(0.0,))
        with pytest.raises(ParameterError):
            NormStats(mins=(0.0, 0.0), maxs=(1.0,))


class TestMakeSupervised:
    def test_freedman_one_step_pairs(self):
        s = RawSeries(values=np.array([0.1, 0.2, 0.4]))
        d = make_supervised(s, "freedman", washout=0)
        np.testing.assert_allclose(d.inputs[:, 0], [0.1, 0.2])
        np.testing.assert_allclose(d.targets[:, 0], [0.2, 0.4])

    def test_narma_uses_driver_as_input(self):
        drv = np.array([0.5, 0.4, 0.3, 0.2, 0.1])
        vals = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        d = make_supervised(RawSeries(values=vals, driver=drv), "narma10",
                            washout=0)
        np.testing.assert_allclose(d.inputs[:, 0], drv[:4])
        np.testing.assert_allclose(d.targets[:, 0], vals[1:])

    def test_henon_three_input_wiring(self):
        vals = np.array([10.0, 11.0, 12.0, 13.0, 14.0])
        z = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        d = make_supervised(RawSeries(values=vals, noise=z), "henon", washout=0)
        assert d.n_inputs == 3
        # row t: inputs [y(t+1), y(t), z(t+2)], target y(t+2)
        np.testing.assert_allclose(d.inputs[0], [11.0, 10.0, 0.3])
        np.testing.assert_allclose(d.inputs[2], [13.0, 12.0, 0.5])
        np.testing.assert_allclose(d.targets[:, 0], [12.0, 13.0, 14.0])

    def test_washout_carried(self):
        d = make_supervised(RawSeries(values=np.arange(10.0)), "laser",
                            washout=4)
        assert d.washout == 4 and d.rows == 9

    def test_too_short_series(self):
        with pytest.raises(DataError):
            make_supervised(RawSeries(values=np.arange(4.0)), "freedman",
                            washout=3)

    def test_missing_channels(self):
        with pytest.raises(ParameterError):
            make_supervised(RawSeries(values=np.arange(9.0)), "narma10", 0)
        with pytest.raises(ParameterError):
            make_supervised(RawSeries(values=np.arange(9.0)), "henon", 0)

    def test_unknown_task(self):
        with pytest.raises(ParameterError):
            make_supervised(RawSeries(values=np.arange(9.0)), "mackey", 0)


class TestSplit:
    def test_contiguous_order_preserving(self):
        d = SeriesDataset(inputs=np.arange(10.0)[:, None],
                          targets=np.arange(10.0, 20.0)[:, None], washout=2)
        train, test = split(d, 6, 4)
        assert train.rows == 6 and test.rows == 4
        np.testing.assert_allclose(train.inputs[:, 0], np.arange(6.0))
        np.testing.assert_allclose(test.inputs[:, 0], np.arange(6.0, 10.0))
        assert train.washout == 2 and test.washout == 2

    def test_parts_are_copies(self):
        d = SeriesDataset(inputs=np.zeros((5, 1)), targets=np.zeros((5, 1)),
                          washout=0)
        train, _ = split(d, 3, 2)
        train.inputs[0, 0] = 7.0
        assert d.inputs[0, 0] == 0.0

    def test_insufficient_rows(self):
        d = SeriesDataset(inputs=np.zeros((5, 1)), targets=np.zeros((5, 1)),
                          washout=0)
        with pytest.raises(DataError):
            split(d, 4, 3)

    def test_size_validation(self):
        d = SeriesDataset(inputs=np.zeros((5, 1)), targets=np.zeros((5, 1)),
                          washout=0)
        with pytest.raises(ParameterError):
            split(d, 0, 3)


class TestSeriesDatasetValidation:
    def test_row_mismatch(self):
        with pytest.raises(ParameterError):
            SeriesDataset(inputs=np.zeros((4, 1)), targets=np.zeros((5, 1)),
                          washout=0)

    def test_washout_bounds(self):
        with pytest.raises(ParameterError):
            SeriesDataset(inputs=np.zeros((4, 1)), targets=np.zeros((4, 1)),
                          washout=4)


class TestDatasetCsv:
    def test_header_and_round_trip(self, tmp_path):
        d = make_supervised(gen_henon(30, Rng(1)), "henon", washout=2)
        out = tmp_path / "henon.csv"
        dataset_to_csv(d, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,x_1,x_2,x_3,y_1"
        assert len(lines) == d.rows + 1
        first = lines[1].split(",")
        assert int(first[0]) == 0
        np.testing.assert_allclose([float(v) for v in first[1:4]], d.inputs[0])
        assert float(first[4]) == d.targets[0, 0]
