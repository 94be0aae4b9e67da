"""Tests for benchmark generators, normalization, and supervised wiring."""

import hashlib

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from esnboost.datasets import (NARMA_COEFFS, RawSeries, SeriesDataset,
                               dataset_to_csv, gen_freedman, gen_henon,
                               gen_narma, load_laser, make_supervised,
                               normalize_minmax, read_text, split)
from esnboost.errors import DataError, ParameterError
from esnboost.harness import ExperimentConfig, generate_raw
from esnboost.numerics import Rng


class TestRawSeries:
    def test_rejects_two_dimensional_values(self):
        with pytest.raises(ParameterError, match="one-dimensional"):
            RawSeries(values=np.ones((3, 2)))

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
        # the driver term reads the zero padding s(t-k+1) = 0 while t < k-1,
        # so b(1) and b(2) are those of a zero driver whatever is drawn
        s = gen_narma(10, NARMA_COEFFS[10], 15, Rng(0))
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


class TestHenon:
    def test_noiseless_from_zero_start(self):
        s = gen_henon(5, Rng(0), noise_sigma=0.0)
        assert abs(s.values[2] - 1.0) < 1e-12

    def test_noiseless_hand_values(self):
        s = gen_henon(6, Rng(0), noise_sigma=0.0)
        # y(3) = 1 - 1.4*1 + 0.3*0, y(4) = 1 - 1.4*0.16 + 0.3*1
        assert abs(s.values[3] + 0.4) < 1e-12
        assert abs(s.values[4] - 1.076) < 1e-12

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

    def test_default_orbit_is_zero_from_sample_50(self):
        # each float64 step shifts one bit out of y (README, Benchmarks)
        values = gen_freedman(60).values
        assert values[49] == 1.0
        assert (values[50:] == 0.0).all()

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


def series_digest(raw: RawSeries) -> str:
    """sha256 of the values, driver and noise bytes; '-' marks a missing channel."""
    h = hashlib.sha256()
    for chan in (raw.values, raw.driver, raw.noise):
        h.update(b"-" if chan is None else chan.astype("<f8").tobytes())
    return h.hexdigest()


class TestGeneratorGoldens:
    """Byte goldens of generated series: a change of operand order or
    rounding anywhere in a generator's loop changes these digests."""

    @pytest.mark.parametrize("name, seed, digest", [
        ("narma10", 0, "ef88e145b4c57004b078d4ec65b98538f7dc084d7646ef309a180295481d59a8"),
        ("narma10", 1, "b60993794f839ff2879922188371caf454b89a632968a5157867b2f76903103e"),
        ("narma10", 26, "c2b4d422abbe3537689ea3695d3f227e1c768020c0bc35b2d8341a222299d3d2"),
        ("narma30", 0, "28f296fe3424a83656c7350175779d03b39ce0fb0fafe1a88fce955018df7656"),
        ("narma30", 1, "be8f4fc5083bf3790dac694184c00286f29c399906a18fd43d7651a9fd00bb74"),
        ("narma30", 26, "e20a69e346cb8328ec857167f95a75243f409829d6557f7fa0473744a069d3f4"),
        ("henon", 0, "6c30d5b8d2c9b6ad7ee654f53d5fb03891840656960a9e38730784cb1857143a"),
        ("henon", 1, "75dd11da24e13a703d5de73f5204e798cfb7a5c85499dffa2ae573a03c95b948"),
        ("henon", 26, "8a9dc5c30e1a41ef0ebc12472b86cccfc92a8703f9f5e9bf5fa72ffe228df6d3"),
        ("freedman", 0, "ca5151d79b6c832b72e50df73f4f648838d49ce8d6090aac15883a81fdf77f3f"),
        ("freedman", 1, "ca5151d79b6c832b72e50df73f4f648838d49ce8d6090aac15883a81fdf77f3f"),
        ("freedman", 26, "ca5151d79b6c832b72e50df73f4f648838d49ce8d6090aac15883a81fdf77f3f"),
    ])
    def test_generate_raw_bytes(self, name, seed, digest):
        config = ExperimentConfig.for_benchmark(name, seed=seed)
        assert series_digest(generate_raw(config)) == digest


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
        s = normalize_minmax(RawSeries(values=np.array([0.0, 5.0, 10.0])),
                             fit_end=3)
        np.testing.assert_allclose(s.values, [0.0, 0.5, 1.0])

    def test_reused_stats_extrapolate(self):
        # samples after fit_end reuse the prefix bounds
        s = normalize_minmax(RawSeries(values=np.array([0.0, 10.0, 20.0])),
                             fit_end=2)
        np.testing.assert_allclose(s.values, [0.0, 1.0, 2.0])

    def test_constant_channel_rejected(self):
        with pytest.raises(DataError):
            normalize_minmax(RawSeries(values=np.array([3.0, 3.0, 3.0])),
                             fit_end=3)
        # constant over the prefix only
        with pytest.raises(DataError):
            normalize_minmax(RawSeries(values=np.array([3.0, 3.0, 4.0])),
                             fit_end=2)

    def test_overflow_rejected(self):
        # the range itself, and a later sample far outside a tiny range
        for values, fit_end in (([-1e308, 1e308], 2), ([0.0, 1e-309, 1.0], 2)):
            with pytest.raises(DataError, match="overflows float64"):
                normalize_minmax(RawSeries(values=values), fit_end)

    def test_fit_end_bounds(self):
        series = RawSeries(values=np.arange(4.0))
        for bad in (0, 5):
            with pytest.raises(ParameterError, match="fit_end"):
                normalize_minmax(series, fit_end=bad)

    @given(st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=40),
           st.data())
    def test_prefix_spans_exactly_zero_to_one(self, values, data):
        fit_end = data.draw(st.integers(1, len(values)))
        assume(min(values[:fit_end]) < max(values[:fit_end]))
        noise = np.roll(values, 1)
        assume(noise[:fit_end].min() < noise[:fit_end].max())
        try:
            s = normalize_minmax(RawSeries(values=values, noise=noise), fit_end)
        except DataError as exc:
            # prefix samples map into [0, 1], so only a later one overflows
            assert "overflows" in str(exc) and fit_end < len(values)
            return
        for chan in (s.values, s.noise):
            assert chan[:fit_end].min() == 0.0
            assert chan[:fit_end].max() == 1.0


class TestMakeSupervised:
    def test_freedman_one_step_pairs(self):
        s = RawSeries(values=np.array([0.1, 0.2, 0.4]))
        d = make_supervised(s, washout=0)
        np.testing.assert_allclose(d.inputs[:, 0], [0.1, 0.2])
        np.testing.assert_allclose(d.targets[:, 0], [0.2, 0.4])

    def test_narma_uses_driver_as_input(self):
        drv = np.array([0.5, 0.4, 0.3, 0.2, 0.1])
        vals = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        d = make_supervised(RawSeries(values=vals, driver=drv), washout=0)
        np.testing.assert_allclose(d.inputs[:, 0], drv[:4])
        np.testing.assert_allclose(d.targets[:, 0], vals[1:])

    def test_henon_three_input_wiring(self):
        vals = np.array([10.0, 11.0, 12.0, 13.0, 14.0])
        z = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        d = make_supervised(RawSeries(values=vals, noise=z), washout=0)
        assert d.n_inputs == 3
        # row t: inputs [y(t+1), y(t), z(t+2)], target y(t+2)
        np.testing.assert_allclose(d.inputs[0], [11.0, 10.0, 0.3])
        np.testing.assert_allclose(d.inputs[2], [13.0, 12.0, 0.5])
        np.testing.assert_allclose(d.targets[:, 0], [12.0, 13.0, 14.0])

    def test_washout_carried(self):
        d = make_supervised(RawSeries(values=np.arange(10.0)), washout=4)
        assert d.washout == 4 and d.rows == 9

    def test_too_short_series(self):
        with pytest.raises(DataError):
            make_supervised(RawSeries(values=np.arange(4.0)), washout=3)
        # the Henon wiring reads one sample more: 5 samples give 3 rows
        henon = RawSeries(values=np.arange(5.0), noise=np.arange(5.0))
        assert make_supervised(henon, washout=2).rows == 3
        with pytest.raises(DataError):
            make_supervised(henon, washout=3)

    def test_driver_and_noise_together_rejected(self):
        both = RawSeries(values=np.arange(9.0), driver=np.ones(9),
                         noise=np.ones(9))
        with pytest.raises(ParameterError, match="both a driver and a noise"):
            make_supervised(both, 0)


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
        d = make_supervised(gen_henon(30, Rng(1)), washout=2)
        out = tmp_path / "henon.csv"
        dataset_to_csv(d, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,x_1,x_2,x_3,y_1"
        assert len(lines) == d.rows + 1
        first = lines[1].split(",")
        assert int(first[0]) == 0
        np.testing.assert_allclose([float(v) for v in first[1:4]], d.inputs[0])
        assert float(first[4]) == d.targets[0, 0]
