"""Tests for experiment configuration, runs, sweeps, CSV I/O, and reports."""

import concurrent.futures
import io
import json
import tempfile
from dataclasses import fields, replace
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import esnboost.boosting as boosting_module
import esnboost.harness as harness_module
from esnboost.boosting import (BOOST_MODES, baseline_fit, baseline_predict,
                               boost_predict, l2boost_fit)
from esnboost.cli import main as cli_main
from esnboost.datasets import NARMA_COEFFS, gen_narma
from esnboost.errors import DataError, NumericalError, ParameterError
from esnboost.esn import EsnParams, init_reservoir
from esnboost.harness import (BENCHMARK_DEFAULTS, BENCHMARKS, DATA_SEED_OFFSET,
                              DIVERGED, METHODS, RESULT_FIELDS,
                              ExperimentConfig,
                              ResultRecord, build_config, generate_raw,
                              load_benchmark, parse_config_text,
                              read_records_csv, report, run_experiment,
                              spectral_radius, summarize_records, sweep,
                              write_records_csv)
from esnboost.metrics import evaluate
from esnboost.numerics import Rng

from conftest import count_passes

GOLDEN_SWEEPS = Path(__file__).with_name("golden_sweeps.json")


# Text cells: any text without control characters or line breaks.  Error
# cells: 'diverged' or a float other than NaN, which never equals itself.
_CSV_TEXT = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl",
                                                        "Zp")))
_ERROR_CELL = st.one_of(st.just(DIVERGED), st.floats(allow_nan=False))


def freedman_config(**overrides):
    return ExperimentConfig.for_benchmark("freedman", **overrides)


class TestExperimentConfig:
    def test_table_defaults_per_benchmark(self):
        expected = {
            "narma10": (200, 1e-5, 1400, 2400),
            "narma30": (200, 1e-5, 1600, 2600),
            "laser": (10, 1e-3, 499, 500),
            "henon": (100, 1e-3, 3995, 795),
            "freedman": (3, 1e-3, 30, 19),
        }
        assert set(BENCHMARKS) == set(expected)
        for name, (washout, gamma, n_train, n_test) in expected.items():
            cfg = ExperimentConfig.for_benchmark(name)
            assert cfg.washout == washout
            assert cfg.gamma == gamma
            assert cfg.n_train == n_train
            assert cfg.n_test == n_test
            assert BENCHMARK_DEFAULTS[name]["gamma"] == gamma

    def test_overrides_win_over_defaults(self):
        cfg = ExperimentConfig.for_benchmark("narma10", washout=5, seed=7)
        assert cfg.washout == 5 and cfg.seed == 7
        assert cfg.gamma == 1e-5

    def test_validation(self):
        with pytest.raises(ParameterError):
            ExperimentConfig(benchmark="unknown")
        with pytest.raises(ParameterError):
            freedman_config(method="magic")
        with pytest.raises(ParameterError):
            freedman_config(n_reservoir=0)
        with pytest.raises(ParameterError):
            freedman_config(n_stages=-1)
        with pytest.raises(ParameterError):
            freedman_config(gamma=-1.0)
        with pytest.raises(ParameterError):
            freedman_config(boost_mode="other")
        with pytest.raises(ParameterError):
            freedman_config(n_train=0)

    @pytest.mark.parametrize("density", [0.0, 1.5, -0.1])
    def test_density_outside_unit_interval_rejected(self, density):
        with pytest.raises(ParameterError,
                           match=r"reservoir_density must be in \(0, 1\]"):
            freedman_config(reservoir_density=density)

    def test_for_benchmark_rejects_unknown_benchmark(self):
        with pytest.raises(ParameterError, match="unknown benchmark"):
            ExperimentConfig.for_benchmark("unknown")

    @pytest.mark.parametrize("name", ["gamma", "noise_sigma",
                                      "reservoir_density"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, name, value):
        with pytest.raises(ParameterError, match=name):
            freedman_config(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("seed", 0.5), ("n_members", True), ("n_stages", 2.5),
        ("n_reservoir", 6.0), ("repetitions", 1.5), ("washout", "3"),
    ])
    def test_non_integers_rejected(self, name, value):
        with pytest.raises(ParameterError, match=f"{name} must be an integer"):
            freedman_config(**{name: value})

    def test_numpy_integers_accepted(self):
        cfg = freedman_config(seed=np.int64(3), n_reservoir=np.int32(6))
        assert run_experiment(cfg).run_id == "freedman-single-ns6-mk0-s3"

    @pytest.mark.parametrize("name, value", [
        ("gamma", True), ("reservoir_density", True), ("gamma", "abc"),
        ("reservoir_density", "x"), ("noise_sigma", None),
        ("freedman_y0", "a"),
    ])
    def test_non_numbers_rejected(self, name, value):
        with pytest.raises(ParameterError,
                           match=f"{name} must be a finite number"):
            freedman_config(**{name: value})

    def test_numpy_numbers_and_ints_accepted_as_floats(self):
        cfg = freedman_config(gamma=np.float32(1e-3), reservoir_density=1,
                              noise_sigma=0, freedman_y0=np.float64(0.3),
                              n_reservoir=6)
        assert run_experiment(cfg).run_id == "freedman-single-ns6-mk0-s0"


class TestLoadBenchmark:
    def test_freedman_shapes_and_range(self):
        cfg = freedman_config()
        train, test = load_benchmark(cfg)
        assert train.rows == 30 and test.rows == 19
        assert train.n_inputs == 1 and train.n_outputs == 1
        assert train.washout == 3 and test.washout == 3
        assert np.all(train.inputs >= 0.0) and np.all(train.inputs <= 1.0)

    def test_henon_has_three_inputs(self):
        cfg = ExperimentConfig.for_benchmark("henon", n_train=200, n_test=50,
                                             washout=10)
        train, test = load_benchmark(cfg)
        assert train.n_inputs == 3
        assert train.rows == 200 and test.rows == 50

    def test_narma_sizes(self):
        cfg = ExperimentConfig.for_benchmark("narma10", n_train=300,
                                             n_test=100, washout=20)
        train, test = load_benchmark(cfg)
        assert train.rows == 300 and test.rows == 100
        assert train.n_inputs == 1

    def test_deterministic_per_seed(self):
        a_train, a_test = load_benchmark(freedman_config(seed=3))
        b_train, b_test = load_benchmark(freedman_config(seed=3))
        np.testing.assert_array_equal(a_train.inputs, b_train.inputs)
        np.testing.assert_array_equal(a_test.targets, b_test.targets)

    def test_normalization_from_training_region_only(self):
        # test rows may leave [0, 1]; training rows never do
        cfg = ExperimentConfig.for_benchmark("narma10", n_train=300,
                                             n_test=200, washout=20, seed=1)
        train, _ = load_benchmark(cfg)
        assert train.targets.min() >= -1e-12
        assert train.targets.max() <= 1.0 + 1e-12

    @pytest.mark.parametrize("name", ["henon", "narma10", "narma30",
                                      "freedman", "laser"])
    def test_rows_rebuilt_by_hand_from_training_bounds(self, name, laser_file):
        # every channel, noise and driver too, scaled by its min and max
        # over the raw samples the training rows touch
        cfg = ExperimentConfig.for_benchmark(name, seed=1,
                                             data_path=str(laser_file))
        n_train, n_test = cfg.n_train, cfg.n_test
        margin = 2 if name == "henon" else 1
        raw = generate_raw(cfg, n_train + n_test + margin)

        def scaled(chan):
            lo, hi = chan[:n_train + margin].min(), chan[:n_train + margin].max()
            return (chan - lo) / (hi - lo)

        v = scaled(raw.values)
        if name == "henon":
            z = scaled(raw.noise)
            inputs = np.column_stack([v[1:-1], v[:-2], z[2:]])
            targets = v[2:, None]
        else:
            x = scaled(raw.driver) if name.startswith("narma") else v
            inputs = x[:-1, None]
            targets = v[1:, None]
        train, test = load_benchmark(cfg)
        for part, rows in ((train, slice(0, n_train)),
                           (test, slice(n_train, n_train + n_test))):
            assert np.array_equal(part.inputs, inputs[rows])
            assert np.array_equal(part.targets, targets[rows])

    def test_laser_requires_data_path(self):
        cfg = ExperimentConfig.for_benchmark("laser")
        with pytest.raises(DataError, match="data_path"):
            load_benchmark(cfg)

    def test_laser_short_file_rejected(self, tmp_path):
        p = tmp_path / "tiny.txt"
        p.write_text("1\n2\n3\n")
        cfg = ExperimentConfig.for_benchmark("laser", data_path=str(p))
        with pytest.raises(DataError, match="need"):
            load_benchmark(cfg)

    def test_laser_loads_from_file(self, laser_file):
        cfg = ExperimentConfig.for_benchmark("laser",
                                             data_path=str(laser_file))
        train, test = load_benchmark(cfg)
        assert train.rows == 499 and test.rows == 500


class TestGenerateRaw:
    def test_unnormalized_generator_stream(self):
        cfg = ExperimentConfig.for_benchmark("narma10", seed=4)
        raw = generate_raw(cfg, 80)
        want = gen_narma(10, NARMA_COEFFS[10], 80, Rng(4 + DATA_SEED_OFFSET))
        np.testing.assert_array_equal(raw.values, want.values)

    def test_laser_reads_a_prefix(self, laser_file):
        cfg = ExperimentConfig.for_benchmark("laser", data_path=str(laser_file))
        assert len(generate_raw(cfg, 25)) == 25
        with pytest.raises(DataError, match="laser file has 1000 samples"):
            generate_raw(cfg, 1001)


class TestRunExperiment:
    def test_runs_are_reproducible_except_wall_ms(self):
        a = run_experiment(freedman_config(method="boost", n_stages=2))
        b = run_experiment(freedman_config(method="boost", n_stages=2))
        for field in RESULT_FIELDS:
            if field == "wall_ms":
                continue
            assert getattr(a, field) == getattr(b, field), field

    def test_record_shape(self):
        rec = run_experiment(freedman_config(seed=5))
        assert rec.benchmark == "freedman"
        assert rec.method == "single"
        assert rec.M_or_K == 0
        assert rec.seed == 5
        assert rec.run_id.startswith("freedman-single-")
        assert rec.wall_ms >= 0.0
        for field in ("train_nmse", "test_nmse", "train_mse", "test_mse"):
            assert np.isfinite(getattr(rec, field))

    def test_boost_zero_stages_equals_single(self):
        single = run_experiment(freedman_config(method="single"))
        boost0 = run_experiment(freedman_config(method="boost", n_stages=0))
        for field in ("train_nmse", "test_nmse", "train_mse", "test_mse"):
            assert getattr(single, field) == getattr(boost0, field)

    def test_baseline_one_member_equals_single(self):
        single = run_experiment(freedman_config(method="single"))
        base1 = run_experiment(freedman_config(method="baseline",
                                               n_members=1))
        for field in ("train_nmse", "test_nmse", "train_mse", "test_mse"):
            assert getattr(single, field) == getattr(base1, field)

    def test_boost_does_not_hurt_train_fit(self):
        single = run_experiment(freedman_config(method="single"))
        boosted = run_experiment(freedman_config(method="boost", n_stages=4))
        assert boosted.train_mse <= single.train_mse + 1e-12

    def test_scoring_error_names_the_run(self):
        # the tent map is exactly 0 from sample 50 on, so every training
        # target past this washout is 0 (README, Benchmarks)
        config = freedman_config(n_train=100, n_test=80, washout=70)
        with pytest.raises(DataError, match=r"constant after washout.*"
                           r"\[run freedman-single-ns50-mk0-s0\]"):
            run_experiment(config)
        rows = sweep(replace(config, repetitions=1), [6], [0])
        assert [row.train_nmse for row in rows] == [DIVERGED]

    def test_m_or_k_reports_members_for_baseline(self):
        rec = run_experiment(freedman_config(method="baseline", n_members=4))
        assert rec.M_or_K == 4
        rec = run_experiment(freedman_config(method="boost", n_stages=3))
        assert rec.M_or_K == 3


class TestOnePassPerSegment:
    """Each reservoir runs once over the training inputs, inside the fit,
    and once over the test inputs."""

    @staticmethod
    def passes(config) -> int:
        return count_passes(run_experiment, config)

    @pytest.mark.parametrize("overrides, expected", [
        ({"method": "single"}, 2),
        ({"method": "boost", "boost_mode": "shared", "n_stages": 6}, 2),
        ({"method": "boost", "boost_mode": "fresh", "n_stages": 6}, 14),
        ({"method": "baseline", "n_members": 3}, 6),
    ])
    def test_reservoir_passes_per_run(self, overrides, expected):
        assert self.passes(freedman_config(**overrides)) == expected

    @pytest.mark.parametrize("name", ["freedman", "narma10", "henon"])
    @pytest.mark.parametrize("overrides", [
        {"method": "single"},
        {"method": "boost", "boost_mode": "fresh", "n_stages": 3},
        {"method": "boost", "boost_mode": "shared", "n_stages": 3},
        {"method": "baseline", "n_members": 3},
    ])
    def test_train_scores_equal_a_second_pass(self, name, overrides):
        config = ExperimentConfig.for_benchmark(name, n_reservoir=20,
                                                **overrides)
        rec = run_experiment(config)
        train, _ = load_benchmark(config)
        params = EsnParams(n_inputs=train.n_inputs, n_reservoir=20,
                           seed=config.seed)
        if config.method == "boost":
            model = l2boost_fit(train, config.n_stages, params, config.gamma,
                                mode=config.boost_mode)
            pred = boost_predict(model, train.inputs)
        else:
            k = config.n_members if config.method == "baseline" else 1
            pred = baseline_predict(baseline_fit(train, k, params,
                                                 config.gamma), train.inputs)
        second = evaluate(pred, train.targets, train.washout)
        assert (rec.train_nmse, rec.train_mse) == (second.nmse, second.mse)


class TestSweep:
    def test_grid_shape_and_order(self):
        base = freedman_config(method="boost", repetitions=2)
        records = sweep(base, [6, 8, 10], [0, 2])
        assert len(records) == 3 * 2 * 2
        combos = [(r.n_reservoir, r.M_or_K, r.seed) for r in records]
        expected = [(ns, mk, base.seed + rep)
                    for ns in (6, 8, 10) for mk in (0, 2) for rep in range(2)]
        assert combos == expected

    def test_parallel_matches_serial(self):
        base = freedman_config(method="boost", repetitions=2)
        serial = sweep(base, [6, 8], [1], workers=0)
        parallel = sweep(base, [6, 8], [1], workers=2)
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            for field in RESULT_FIELDS:
                if field == "wall_ms":
                    continue
                assert getattr(a, field) == getattr(b, field), field

    def test_failed_cells_become_diverged_rows(self, tmp_path):
        missing = tmp_path / "nope.txt"
        base = ExperimentConfig.for_benchmark("laser", repetitions=1,
                                              data_path=str(missing))
        records = sweep(base, [6, 8], [0])
        assert len(records) == 2
        for rec in records:
            assert rec.train_nmse == DIVERGED
            assert rec.test_mse == DIVERGED

    def test_validation(self):
        base = freedman_config()
        with pytest.raises(ParameterError):
            sweep(base, [], [1])
        with pytest.raises(ParameterError):
            sweep(base, [4], [])

    def test_negative_workers_rejected(self):
        with pytest.raises(ParameterError, match="workers"):
            sweep(freedman_config(), [4], [1], workers=-1)


class TestNumericallySingularFit:
    """freedman, shared boost, N=27, gamma 0: 27 training rows against 29
    augmented columns.  Cholesky factors the singular normal matrix
    (reciprocal condition number about 1e-20), and the fit used to come
    back as an ordinary row: train NMSE 2.7e-28, test NMSE 4.59."""

    CONFIG = dict(method="boost", boost_mode="shared", n_reservoir=27,
                  gamma=0.0)

    def test_fit_raises(self):
        config = freedman_config(**self.CONFIG)
        train, _ = load_benchmark(config)
        params = EsnParams(n_inputs=1, n_reservoir=27, seed=config.seed)
        with pytest.raises(NumericalError, match="reciprocal condition number"):
            l2boost_fit(train, 6, params, 0.0, mode="shared")

    def test_run_experiment_names_the_run(self):
        with pytest.raises(NumericalError,
                           match=r"\[run freedman-boost-ns27-mk6-s0\]$"):
            run_experiment(freedman_config(**self.CONFIG))

    def test_cli_run_exits_3(self, capsys):
        argv = ["run"] + [arg for key, value in self.CONFIG.items()
                          for arg in ("--set", f"{key}={value}")]
        assert cli_main(argv + ["--set", "benchmark=freedman"]) == 3
        assert "reciprocal condition number" in capsys.readouterr().err

    def test_sweep_row_diverged(self):
        base = freedman_config(repetitions=1, **self.CONFIG)
        [record] = sweep(base, [27], [6])
        assert record.train_nmse == record.test_nmse == DIVERGED


def deterministic(record):
    return [getattr(record, name) for name in RESULT_FIELDS
            if name != "wall_ms"]


class TestPrefixSharingSweep:
    """A sweep fits each (size, repetition) group once at its largest M or
    K and scores the smaller cells from running partial sums; every row
    must equal a separate run of its cell."""

    METHODS = {
        "single": ({"method": "single"}, [6, 0, 3, 3]),
        "fresh": ({"method": "boost", "boost_mode": "fresh"}, [6, 0, 3, 3]),
        "shared": ({"method": "boost", "boost_mode": "shared"}, [6, 0, 3, 3]),
        "baseline": ({"method": "baseline"}, [7, 1, 3, 3]),
    }

    @staticmethod
    def base(name, **overrides):
        if name == "narma10":
            overrides = {"n_train": 400, "n_test": 300, "washout": 50,
                         **overrides}
        return ExperimentConfig.for_benchmark(name, repetitions=2, **overrides)

    @pytest.mark.parametrize("name", ["freedman", "narma10"])
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_rows_equal_per_cell_runs(self, name, method):
        overrides, m_or_k = self.METHODS[method]
        base = self.base(name, **overrides)
        records = sweep(base, [8, 6], m_or_k)
        cells = [harness_module._cell_config(base, ns, mk, rep)
                 for ns in (8, 6) for mk in m_or_k for rep in range(2)]
        assert len(records) == len(cells)
        for rec, cell in zip(records, cells):
            assert deterministic(rec) == deterministic(run_experiment(cell))

    def test_group_rows_share_the_group_wall_time(self):
        records = sweep(freedman_config(method="boost", repetitions=1),
                        [6, 8], [0, 3, 6])
        assert len({rec.wall_ms for rec in records[:3]}) == 1
        assert len({rec.wall_ms for rec in records[3:]}) == 1

    def test_one_fit_per_group(self):
        base = freedman_config(method="boost", repetitions=2)
        # 2 sizes x 2 repetitions, each fitted at M=6 (7 reservoirs) and
        # run over the training and the test inputs: 4 x 14, not 4 x 24
        assert count_passes(sweep, base, [6, 8], [0, 3, 6]) == 56

    def test_failure_mid_prefix_keeps_the_completed_cells(self, monkeypatch):
        base = freedman_config(method="boost", repetitions=1, seed=3)
        clean = sweep(base, [6], [0, 3, 6])
        draw = boosting_module.init_reservoir

        def failing_draw(params):
            if params.seed == base.seed + 4:
                raise NumericalError("reservoir draw failed")
            return draw(params)

        monkeypatch.setattr(boosting_module, "init_reservoir", failing_draw)
        records = sweep(base, [6], [0, 3, 6])
        assert [deterministic(r) for r in records[:2]] == \
            [deterministic(r) for r in clean[:2]]
        assert records[2].train_nmse == DIVERGED
        assert records[2].test_mse == DIVERGED
        cell = replace(base, n_reservoir=6, n_stages=6)
        with pytest.raises(NumericalError,
                           match=r"\[run freedman-boost-ns6-mk6-s3\]$"):
            run_experiment(cell)
        assert deterministic(run_experiment(replace(cell, n_stages=3))) == \
            deterministic(clean[1])

    def test_pool_matches_serial_with_unsorted_and_duplicate_values(self):
        base = freedman_config(method="baseline", repetitions=2)
        sizes, m_or_k = [8, 8, 6], [7, 1, 3, 3]
        serial = sweep(base, sizes, m_or_k)
        parallel = sweep(base, sizes, m_or_k, workers=2)
        assert [deterministic(r) for r in parallel] == \
            [deterministic(r) for r in serial]
        combos = [(r.n_reservoir, r.M_or_K, r.seed) for r in parallel]
        assert combos == [(ns, mk, rep) for ns in sizes for mk in m_or_k
                          for rep in range(2)]

    @pytest.mark.parametrize("workers", [0, 2])
    def test_one_load_per_repetition(self, monkeypatch, workers):
        # groups of every size fit on their repetition's one load
        seeds = []
        load = harness_module.load_benchmark

        def counting_load(config):
            seeds.append(config.seed)
            return load(config)

        base = freedman_config(method="boost", repetitions=2)
        clean = sweep(base, [6, 8], [0, 3])
        monkeypatch.setattr(harness_module, "load_benchmark", counting_load)
        records = sweep(base, [6, 8], [0, 3], workers=workers)
        assert seeds == [base.seed, base.seed + 1]
        assert [deterministic(r) for r in records] == \
            [deterministic(r) for r in clean]

    @pytest.mark.parametrize("workers", [0, 2])
    def test_failed_load_makes_its_repetition_diverged(self, monkeypatch,
                                                        workers):
        base = ExperimentConfig.for_benchmark(
            "narma10", method="boost", repetitions=2, n_train=400,
            n_test=300, washout=50)
        clean = sweep(base, [6, 8], [0, 3])
        load = harness_module.load_benchmark

        def failing_load(config):
            if config.seed == base.seed + 1:
                raise DataError("series diverged")
            return load(config)

        monkeypatch.setattr(harness_module, "load_benchmark", failing_load)
        records = sweep(base, [6, 8], [0, 3], workers=workers)
        for rec, want in zip(records, clean):
            if rec.seed == base.seed:
                assert deterministic(rec) == deterministic(want)
            else:
                assert rec.train_nmse == rec.test_mse == DIVERGED

    def test_pool_never_larger_than_the_group_count(self, monkeypatch):
        sizes = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        # sweep imports the pool class from concurrent.futures when it runs
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        records = sweep(freedman_config(method="boost", repetitions=1), [6],
                        [0, 3], workers=2)
        assert sizes == [1] and len(records) == 2


class TestGoldenSweeps:
    """Sweep rows recorded with earlier code: the freedman grids before the
    single, boosted and ensemble methods shared one fit loop and one
    prediction path, the narma10 grids before a sweep fitted each
    (size, repetition) once.  Every error value must still agree to
    rtol 1e-9."""

    GRIDS = {
        "freedman-boost": (freedman_config(method="boost", repetitions=3),
                           range(6, 13), [0, 3, 6]),
        "freedman-baseline": (freedman_config(method="baseline", repetitions=2),
                              [6, 9, 12], [1, 3, 7]),
        "narma10-single": (ExperimentConfig.for_benchmark(
            "narma10", method="single", repetitions=2), [10, 20], [0, 3, 6]),
        "narma10-boost-fresh": (ExperimentConfig.for_benchmark(
            "narma10", method="boost", repetitions=2), [10, 20], [0, 3, 6]),
        "narma10-boost-shared": (ExperimentConfig.for_benchmark(
            "narma10", method="boost", boost_mode="shared", repetitions=2),
            [10, 20], [0, 3, 6]),
        "narma10-baseline": (ExperimentConfig.for_benchmark(
            "narma10", method="baseline", repetitions=2), [10, 20], [1, 3, 7]),
    }

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_rows_match_recorded_values(self, grid):
        golden = json.loads(GOLDEN_SWEEPS.read_text(encoding="utf-8"))[grid]
        base, sizes, m_or_k = self.GRIDS[grid]
        records = sweep(base, sizes, m_or_k)
        assert [rec.run_id for rec in records] == [row[0] for row in golden]
        for rec, row in zip(records, golden):
            got = [rec.train_nmse, rec.test_nmse, rec.train_mse, rec.test_mse]
            np.testing.assert_allclose(got, row[1:], rtol=1e-9, atol=0,
                                       err_msg=rec.run_id)


class TestRecordsCsv:
    def test_round_trip(self, tmp_path):
        base = freedman_config(method="boost", repetitions=2)
        records = sweep(base, [6, 8], [1, 3])
        path = tmp_path / "results.csv"
        write_records_csv(records, path)
        back = read_records_csv(path)
        assert len(back) == len(records)
        for a, b in zip(records, back):
            for field in RESULT_FIELDS:
                assert getattr(a, field) == getattr(b, field), field

    def test_header_exact(self, tmp_path):
        path = tmp_path / "r.csv"
        write_records_csv([run_experiment(freedman_config())], path)
        first = path.read_text().splitlines()[0]
        assert first == ("run_id,benchmark,method,n_reservoir,M_or_K,seed,"
                         "train_nmse,test_nmse,train_mse,test_mse,wall_ms")

    def test_diverged_round_trip(self, tmp_path):
        rec = ResultRecord(run_id="x", benchmark="laser", method="single",
                           n_reservoir=6, M_or_K=0, seed=0,
                           train_nmse=DIVERGED, test_nmse=DIVERGED,
                           train_mse=DIVERGED, test_mse=DIVERGED,
                           wall_ms=0.0)
        path = tmp_path / "d.csv"
        write_records_csv([rec], path)
        back = read_records_csv(path)
        assert back[0].train_nmse == DIVERGED

    def test_writes_to_file_object(self):
        buf = io.StringIO()
        write_records_csv([run_experiment(freedman_config())], buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 2 and lines[0].startswith("run_id,")

    def test_bad_header_gives_column_message(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("run_id,benchmark,method,n_reservoir,K,seed,"
                        "train_nmse,test_nmse,train_mse,test_mse,wall_ms\n")
        with pytest.raises(DataError, match="column 5"):
            read_records_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty file"):
            read_records_csv(path)

    def test_header_with_an_extra_column(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text(",".join([*RESULT_FIELDS, "note"]) + "\n")
        with pytest.raises(DataError, match="12 columns, expected 11"):
            read_records_csv(path)

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "short.csv"
        write_records_csv([run_experiment(freedman_config())], path)
        with open(path, "a") as fh:
            fh.write("only,three,fields\n")
        with pytest.raises(DataError, match="line 3"):
            read_records_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            read_records_csv(tmp_path / "absent.csv")

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_bytes(b"\xff" + ",".join(RESULT_FIELDS).encode() + b"\n")
        with pytest.raises(DataError, match="cannot read results file"):
            read_records_csv(path)

    @settings(max_examples=60, deadline=None)
    @given(records=st.lists(st.builds(
        ResultRecord,
        run_id=_CSV_TEXT, benchmark=_CSV_TEXT, method=_CSV_TEXT,
        n_reservoir=st.integers(), M_or_K=st.integers(), seed=st.integers(),
        train_nmse=_ERROR_CELL, test_nmse=_ERROR_CELL,
        train_mse=_ERROR_CELL, test_mse=_ERROR_CELL,
        wall_ms=st.floats(allow_nan=False)), max_size=5))
    def test_property_round_trip(self, records):
        buf = io.StringIO()
        write_records_csv(records, buf)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.csv"
            path.write_text(buf.getvalue(), encoding="utf-8")
            assert read_records_csv(path) == records


class TestSummarize:
    def test_groups_and_moments(self):
        base = freedman_config(method="boost", repetitions=3)
        records = sweep(base, [6], [1, 2])
        summary = summarize_records(records)
        assert len(summary) == 2
        for row in summary:
            key = (row["benchmark"], row["method"], row["n_reservoir"],
                   row["M_or_K"])
            group = [r for r in records
                     if (r.benchmark, r.method, r.n_reservoir,
                         r.M_or_K) == key]
            vals = np.array([r.test_nmse for r in group])
            assert row["n_runs"] == 3 and row["n_diverged"] == 0
            np.testing.assert_allclose(row["mean_test_nmse"], vals.mean())
            np.testing.assert_allclose(row["std_test_nmse"], vals.std())

    def test_single_run_std_zero(self):
        records = [run_experiment(freedman_config())]
        summary = summarize_records(records)
        assert summary[0]["n_runs"] == 1
        assert summary[0]["std_test_nmse"] == 0.0

    def test_diverged_rows_counted_not_averaged(self):
        good = run_experiment(freedman_config())
        bad = ResultRecord(run_id="x", benchmark="freedman", method="single",
                           n_reservoir=50, M_or_K=0, seed=1,
                           train_nmse=DIVERGED, test_nmse=DIVERGED,
                           train_mse=DIVERGED, test_mse=DIVERGED,
                           wall_ms=0.0)
        summary = summarize_records([good, bad])
        assert summary[0]["n_runs"] == 2
        assert summary[0]["n_diverged"] == 1
        np.testing.assert_allclose(summary[0]["mean_test_nmse"],
                                   good.test_nmse)

    def test_all_diverged_gives_nan(self):
        bad = ResultRecord(run_id="x", benchmark="freedman", method="single",
                           n_reservoir=50, M_or_K=0, seed=1,
                           train_nmse=DIVERGED, test_nmse=DIVERGED,
                           train_mse=DIVERGED, test_mse=DIVERGED,
                           wall_ms=0.0)
        summary = summarize_records([bad])
        assert np.isnan(summary[0]["mean_test_nmse"])
        assert summary[0]["n_diverged"] == 1


class TestReport:
    @pytest.fixture()
    def results_csv(self, tmp_path):
        base = freedman_config(method="boost", repetitions=2)
        records = sweep(base, [6, 8], [1, 3])
        path = tmp_path / "results.csv"
        write_records_csv(records, path)
        return path

    def test_summary_mode(self, results_csv, tmp_path):
        written = report(results_csv, mode="summary", out_dir=tmp_path)
        assert written == [tmp_path / "results_summary.csv"]
        text = written[0].read_text()
        lines = text.splitlines()
        assert lines[0].startswith("benchmark,method,n_reservoir,M_or_K,")
        assert len(lines) == 1 + 4

    def test_plotdata_mode(self, results_csv, tmp_path):
        written = report(results_csv, mode="plotdata", out_dir=tmp_path)
        names = sorted(p.name for p in written)
        assert names == ["results_curve_freedman_boost_mk1.csv",
                         "results_curve_freedman_boost_mk3.csv"]
        lines = written[0].read_text().splitlines()
        assert lines[0] == "n_reservoir,mean_test_nmse,std_test_nmse"
        assert len(lines) == 3
        sizes = [int(line.split(",")[0]) for line in lines[1:]]
        assert sizes == sorted(set(sizes))

    def test_plotdata_svg(self, results_csv, tmp_path):
        svg = tmp_path / "chart.svg"
        written = report(results_csv, mode="plotdata", out_dir=tmp_path,
                         svg_path=svg)
        assert svg in written
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "<polyline" in text
        assert text.count("<polyline") == 2

    def test_svg_keeps_curves_of_two_benchmarks(self, tmp_path):
        records = [
            *sweep(freedman_config(method="boost", repetitions=1), [5, 6], [1]),
            *sweep(ExperimentConfig.for_benchmark(
                "henon", method="boost", repetitions=1), [5, 6], [1])]
        path = tmp_path / "two.csv"
        write_records_csv(records, path)
        svg = tmp_path / "two.svg"
        written = report(path, mode="plotdata", out_dir=tmp_path, svg_path=svg)
        assert len(written) == 3
        text = svg.read_text()
        assert text.count("<polyline") == 2
        assert ">freedman boost mk=1</text>" in text
        assert ">henon boost mk=1</text>" in text

    def test_summary_mode_rejects_svg(self, results_csv, tmp_path):
        svg = tmp_path / "chart.svg"
        with pytest.raises(ParameterError, match="plotdata"):
            report(results_csv, mode="summary", out_dir=tmp_path, svg_path=svg)
        assert not svg.exists()

    def test_svg_deterministic(self, results_csv, tmp_path):
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        report(results_csv, mode="plotdata", out_dir=tmp_path, svg_path=a)
        report(results_csv, mode="plotdata", out_dir=tmp_path, svg_path=b)
        assert a.read_text() == b.read_text()

    def test_bad_mode(self, results_csv):
        with pytest.raises(ParameterError):
            report(results_csv, mode="plots")

    def test_svg_title_from_a_file_name_is_escaped(self, results_csv,
                                                   tmp_path):
        path = tmp_path / "a&b<c>.csv"
        path.write_bytes(results_csv.read_bytes())
        svg = tmp_path / "chart.svg"
        report(path, mode="plotdata", out_dir=tmp_path, svg_path=svg)
        title = minidom.parse(str(svg)).getElementsByTagName("text")[0]
        assert title.firstChild.data == "test NMSE (a&b<c>)"

    def test_infinite_mean_left_out_of_the_chart(self, tmp_path):
        row = dict(run_id="x", benchmark="freedman", method="single",
                   M_or_K=0, seed=0, train_nmse=0.5, train_mse=0.1,
                   test_mse=0.1, wall_ms=0.0)
        records = [ResultRecord(**row, n_reservoir=6, test_nmse=0.5),
                   ResultRecord(**row, n_reservoir=8, test_nmse=float("inf")),
                   ResultRecord(**{**row, "M_or_K": 2}, n_reservoir=6,
                                test_nmse=float("-inf"))]
        path = tmp_path / "r.csv"
        write_records_csv(records, path)
        svg = tmp_path / "chart.svg"
        written = report(path, mode="plotdata", out_dir=tmp_path,
                         svg_path=svg)
        curve = written[0].read_text().splitlines()
        assert curve[1:] == ["6,0.5,0.0", "8,inf,nan"]
        coords = ("x", "y", "x1", "y1", "x2", "y2", "points")
        values = [element.getAttribute(name)
                  for element in minidom.parse(str(svg)).getElementsByTagName("*")
                  for name in coords if element.hasAttribute(name)]
        assert values and not any("nan" in v or "inf" in v for v in values)
        assert svg.read_text().count("<polyline") == 1

    @pytest.mark.parametrize("field, value", [("method", "boost<&>"),
                                              ("benchmark", "../escaped")])
    def test_unknown_name_rejected_before_any_file(self, tmp_path, field,
                                                   value):
        row = dict(run_id="x", benchmark="freedman", method="single",
                   n_reservoir=6, M_or_K=0, seed=0, train_nmse=0.5,
                   test_nmse=0.5, train_mse=0.1, test_mse=0.1, wall_ms=0.0)
        path = tmp_path / "r.csv"
        write_records_csv([ResultRecord(**{**row, field: value})], path)
        out_dir = tmp_path / "out"
        svg = tmp_path / "chart.svg"
        with pytest.raises(DataError, match=f"unknown {field}"):
            report(path, mode="plotdata", out_dir=out_dir, svg_path=svg)
        assert not out_dir.exists() and not svg.exists()
        assert cli_main(["report", str(path), "--mode", "summary",
                         "--out-dir", str(out_dir)]) == 2
        assert not out_dir.exists()


class TestConfigParsing:
    def test_parse_key_value_text(self):
        text = """
        # sweep setup
        benchmark = freedman
        n_reservoir = 8

        gamma = 1e-4
        """
        pairs = parse_config_text(text)
        assert pairs == {"benchmark": "freedman", "n_reservoir": "8",
                         "gamma": "1e-4"}

    def test_parse_rejects_malformed_line(self):
        with pytest.raises(DataError, match="line 2"):
            parse_config_text("benchmark = freedman\nnot a pair\n")

    def test_build_config_coerces_types(self):
        cfg = build_config({"benchmark": "freedman", "n_reservoir": "9",
                            "gamma": "1e-4", "boost_mode": "shared",
                            "method": "boost"})
        assert cfg.n_reservoir == 9
        assert cfg.gamma == 1e-4
        assert cfg.boost_mode == "shared"
        assert isinstance(cfg.n_reservoir, int)

    def test_build_config_requires_benchmark(self):
        with pytest.raises(ParameterError, match="benchmark"):
            build_config({"n_reservoir": "9"})

    def test_build_config_rejects_unknown_key(self):
        with pytest.raises(ParameterError,
                           match="unknown config key 'n_resevoir'"):
            build_config({"benchmark": "freedman", "n_resevoir": "9"})

    def test_build_config_rejects_bad_number(self):
        with pytest.raises(ParameterError, match="n_reservoir"):
            build_config({"benchmark": "freedman", "n_reservoir": "nine"})

    def test_float_fields_coerced(self):
        cfg = build_config({"benchmark": "henon", "noise_sigma": "0.2",
                            "washout": "10"})
        assert cfg.noise_sigma == 0.2
        assert isinstance(cfg.noise_sigma, float)

    @pytest.mark.parametrize("key", ["gamma", "noise_sigma",
                                     "reservoir_density"])
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_build_config_rejects_non_finite(self, key, text):
        with pytest.raises(ParameterError, match=key):
            build_config({"benchmark": "henon", key: text})

    @settings(max_examples=60, deadline=None)
    @given(config=st.builds(
        ExperimentConfig,
        benchmark=st.sampled_from(BENCHMARKS),
        method=st.sampled_from(METHODS),
        n_reservoir=st.integers(1, 10 ** 6),
        n_stages=st.integers(0, 10 ** 6),
        n_members=st.integers(1, 10 ** 6),
        gamma=st.floats(min_value=0.0, allow_infinity=False),
        washout=st.integers(0, 10 ** 6),
        n_train=st.integers(1, 10 ** 6),
        n_test=st.integers(1, 10 ** 6),
        seed=st.integers(-10 ** 9, 10 ** 9),
        boost_mode=st.sampled_from(BOOST_MODES),
        repetitions=st.integers(1, 10 ** 6),
        reservoir_density=st.floats(0.0, 1.0, exclude_min=True),
        noise_sigma=st.floats(min_value=0.0, allow_infinity=False),
        freedman_y0=st.floats(allow_nan=False, allow_infinity=False)))
    def test_property_string_form_round_trips(self, config):
        text = {f.name: str(getattr(config, f.name))
                for f in fields(ExperimentConfig) if f.name != "data_path"}
        assert build_config(text) == config


class TestSpectralRadius:
    def test_matches_eigvals(self):
        res = init_reservoir(EsnParams(n_inputs=1, n_reservoir=20, seed=3))
        expected = float(np.max(np.abs(np.linalg.eigvals(res.w_r))))
        assert abs(spectral_radius(res) - expected) < 1e-12

    def test_identity_scaled(self):
        res = init_reservoir(EsnParams(n_inputs=1, n_reservoir=4, seed=0))
        object.__setattr__(res, "w_r", 0.5 * np.eye(4))
        assert abs(spectral_radius(res) - 0.5) < 1e-12
