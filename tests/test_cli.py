"""Tests for the command-line interface.

Most tests drive ``main(argv)`` in-process for speed; one subprocess test
confirms the installed entry point wires up the same way.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import esnboost
from esnboost.cli import main
from esnboost.harness import (MAX_SIZE, ExperimentConfig, read_records_csv,
                              run_experiment)

from conftest import run_cli_limited


@pytest.fixture()
def freedman_cfg(tmp_path):
    path = tmp_path / "freedman.cfg"
    path.write_text("# smallest benchmark, fast to run\n"
                    "benchmark = freedman\n"
                    "seed = 2\n")
    return path


class TestGenerate:
    def test_writes_supervised_csv(self, tmp_path, capsys):
        out = tmp_path / "freedman.csv"
        assert main(["generate", "freedman", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x_1,y_1"
        # default length covers the benchmark's train+test split
        assert len(lines) == 1 + 30 + 19
        assert "wrote" in capsys.readouterr().out

    def test_length_and_seed_flags(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["generate", "narma10", "--length", "40", "--seed", "7",
                     "--out", str(a)]) == 0
        assert main(["generate", "narma10", "--length", "40", "--seed", "7",
                     "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()
        assert len(a.read_text().splitlines()) == 1 + 39

    def test_different_seeds_differ(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["generate", "narma10", "--length", "40", "--seed", "0",
              "--out", str(a)])
        main(["generate", "narma10", "--length", "40", "--seed", "1",
              "--out", str(b)])
        assert a.read_text() != b.read_text()

    def test_laser_cannot_be_generated(self, tmp_path, capsys):
        code = main(["generate", "laser", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "laser" in capsys.readouterr().err

    def test_too_short_length(self, tmp_path, capsys):
        code = main(["generate", "henon", "--length", "2",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err == ("esnboost: error: length must be "
                                           ">= 3, got 2\n")

    # The shortest raw length each benchmark makes rows from: one sample past
    # SUPERVISED_MARGIN, and for NARMA one past the order.  Every other
    # length, too short or past MAX_SIZE, is a usage error.
    SHORTEST = {"narma10": 11, "narma30": 31, "henon": 3, "freedman": 2}

    @pytest.mark.parametrize("name", SHORTEST)
    @pytest.mark.parametrize("length",
                             [0, 1, 2, 3, 10, 11, 30, 31, 2 ** 30, 2 ** 63])
    def test_length_exit_codes(self, tmp_path, capsys, name, length):
        code = main(["generate", name, "--length", str(length),
                     "--out", str(tmp_path / "x.csv")])
        assert code == (0 if self.SHORTEST[name] <= length <= MAX_SIZE else 1)


class TestRun:
    def test_record_to_stdout(self, freedman_cfg, capsys):
        assert main(["run", "--config", str(freedman_cfg)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("run_id,benchmark,")
        assert lines[1].startswith("freedman-single-")

    def test_record_to_file(self, freedman_cfg, tmp_path, capsys):
        out = tmp_path / "row.csv"
        assert main(["run", "--config", str(freedman_cfg),
                     "--out", str(out)]) == 0
        records = read_records_csv(out)
        assert len(records) == 1
        expected = run_experiment(
            ExperimentConfig.for_benchmark("freedman", seed=2))
        assert records[0].test_nmse == expected.test_nmse

    def test_set_overrides_file(self, freedman_cfg, capsys):
        # the file pins seed 2; the flag must win
        assert main(["run", "--config", str(freedman_cfg),
                     "--set", "seed=9"]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert row.split(",")[0].endswith("-s9")

    def test_set_alone_suffices(self, capsys):
        assert main(["run", "--set", "benchmark=freedman"]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("freedman-")


class TestExitCodes:
    def test_no_arguments_usage_error(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "generate" in capsys.readouterr().out

    def test_missing_benchmark_key(self, capsys):
        assert main(["run", "--set", "seed=1"]) == 1
        assert "benchmark" in capsys.readouterr().err

    def test_unknown_config_key(self, capsys):
        assert main(["run", "--set", "benchmark=freedman",
                     "--set", "n_resevoir=5"]) == 1
        assert "unknown config key 'n_resevoir'" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["reservoir_density=0.2",
                                         "freedman_y0=0.3"])
    def test_fixed_values_are_not_config_keys(self, setting, capsys):
        # every run draws its reservoirs at density 0.1 and its tent map
        # from 0.23719
        assert main(["run", "--set", "benchmark=freedman",
                     "--set", setting]) == 1
        key = setting.split("=")[0]
        assert f"unknown config key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["gamma=nan", "gamma=inf",
                                         "noise_sigma=nan"])
    def test_non_finite_value_is_a_usage_error(self, setting, capsys):
        assert main(["run", "--set", "benchmark=henon",
                     "--set", setting]) == 1
        assert setting.split("=")[0] in capsys.readouterr().err

    def test_henon_without_noise_is_a_usage_error(self, capsys):
        assert main(["run", "--set", "benchmark=henon",
                     "--set", "noise_sigma=0"]) == 1
        assert "model input" in capsys.readouterr().err

    @pytest.mark.parametrize("reader", ["config", "laser", "report"])
    def test_non_utf8_file_is_a_data_error(self, reader, tmp_path, capsys):
        path = tmp_path / "input.txt"
        path.write_bytes(b"\xff\n")
        argv = {"config": ["run", "--config", str(path)],
                "laser": ["run", "--set", "benchmark=laser",
                          "--set", f"data_path={path}"],
                "report": ["report", str(path), "--mode", "summary",
                           "--out-dir", str(tmp_path)]}[reader]
        assert main(argv) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep", "generate", "report"])
    def test_unwritable_output_is_a_data_error(self, command, tmp_path,
                                               capsys):
        missing = str(tmp_path / "absent" / "out.csv")
        results = tmp_path / "results.csv"
        argv = {"run": ["run", "--set", "benchmark=freedman",
                        "--out", missing],
                "sweep": ["sweep", "--set", "benchmark=freedman",
                          "--set", "repetitions=1", "--out", missing],
                "generate": ["generate", "freedman", "--out", missing],
                "report": ["report", str(results), "--mode", "summary",
                           "--out-dir", str(results)]}[command]
        if command == "report":
            assert main(["run", "--set", "benchmark=freedman",
                         "--out", str(results)]) == 0
            capsys.readouterr()
        assert main(argv) == 2
        assert "esnboost: data error:" in capsys.readouterr().err

    def test_malformed_set_flag(self, capsys):
        assert main(["run", "--set", "benchmark"]) == 1
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("benchmark = freedman\nno equals sign here\n")
        assert main(["run", "--config", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_laser_without_data_file(self, capsys):
        assert main(["run", "--set", "benchmark=laser"]) == 2
        assert "data_path" in capsys.readouterr().err

    def test_singular_system_is_numerical_error(self, capsys):
        # 50 reservoir units give 51 features against 27 usable rows;
        # with gamma 0 the normal equations are singular
        code = main(["run", "--set", "benchmark=freedman",
                     "--set", "gamma=0", "--set", "n_reservoir=50"])
        assert code == 3
        assert "numerical" in capsys.readouterr().err


class TestSweep:
    def test_grid_from_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("benchmark = freedman\n"
                       "method = boost\n"
                       "repetitions = 2\n"
                       "sweep_n_reservoir = 6, 8\n"
                       "sweep_m_or_k = 1, 3\n")
        out = tmp_path / "results.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        records = read_records_csv(out)
        assert len(records) == 2 * 2 * 2
        assert {r.n_reservoir for r in records} == {6, 8}
        assert {r.M_or_K for r in records} == {1, 3}
        assert "wrote 8 rows" in capsys.readouterr().out

    def test_grid_from_set_flags(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        assert main(["sweep", "--set", "benchmark=freedman",
                     "--set", "repetitions=1",
                     "--set", "sweep_n_reservoir=5,6,7",
                     "--out", str(out)]) == 0
        assert len(read_records_csv(out)) == 3
        capsys.readouterr()

    def test_single_method_with_m_or_k_is_a_usage_error(self, tmp_path,
                                                        capsys):
        out = tmp_path / "results.csv"
        assert main(["sweep", "--set", "benchmark=freedman",
                     "--set", "method=single", "--set", "sweep_m_or_k=0,3",
                     "--out", str(out)]) == 1
        assert "single method" in capsys.readouterr().err
        assert not out.exists()

    def test_axes_default_to_scalar_config(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        assert main(["sweep", "--set", "benchmark=freedman",
                     "--set", "repetitions=2", "--set", "n_reservoir=9",
                     "--out", str(out)]) == 0
        records = read_records_csv(out)
        assert len(records) == 2
        assert all(r.n_reservoir == 9 for r in records)
        capsys.readouterr()

    def test_bad_grid_list(self, tmp_path, capsys):
        code = main(["sweep", "--set", "benchmark=freedman",
                     "--set", "sweep_n_reservoir=6;8",
                     "--out", str(tmp_path / "r.csv")])
        assert code == 1
        assert "sweep_n_reservoir" in capsys.readouterr().err

    def test_empty_grid_list(self, tmp_path, capsys):
        code = main(["sweep", "--set", "benchmark=freedman",
                     "--set", "sweep_n_reservoir=,",
                     "--out", str(tmp_path / "r.csv")])
        assert code == 1
        assert "sweep_n_reservoir: empty list" in capsys.readouterr().err

    def test_negative_workers_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(["sweep", "--set", "benchmark=freedman",
                     "--out", str(out), "--workers", "-1"])
        assert code == 1
        assert "workers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["sweep_n_reservoir", "sweep_m_or_k"])
    def test_repeated_grid_value_is_a_usage_error(self, key, tmp_path,
                                                  capsys):
        out = tmp_path / "results.csv"
        assert main(["sweep", "--set", "benchmark=freedman",
                     "--set", "method=boost", "--set", f"{key}=5,2,5",
                     "--out", str(out)]) == 1
        axis = key.removeprefix("sweep_")
        assert f"sweep {axis} values repeat 5" in capsys.readouterr().err
        assert not out.exists()

    def test_workers_flag_gives_same_rows(self, tmp_path, capsys):
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        args = ["sweep", "--set", "benchmark=freedman",
                "--set", "repetitions=2",
                "--set", "sweep_n_reservoir=6,8"]
        assert main(args + ["--out", str(serial)]) == 0
        assert main(args + ["--out", str(parallel), "--workers", "2"]) == 0
        # compare everything left of the trailing wall_ms column
        a = [row.rsplit(",", 1)[0] for row in serial.read_text().splitlines()]
        b = [row.rsplit(",", 1)[0]
             for row in parallel.read_text().splitlines()]
        assert a == b
        capsys.readouterr()


class TestReport:
    @pytest.fixture()
    def results_csv(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        assert main(["sweep", "--set", "benchmark=freedman",
                     "--set", "method=boost", "--set", "repetitions=2",
                     "--set", "sweep_n_reservoir=6,8",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        return out

    def test_summary(self, results_csv, tmp_path, capsys):
        assert main(["report", str(results_csv), "--mode", "summary",
                     "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "results_summary.csv").exists()
        assert "results_summary.csv" in capsys.readouterr().out

    def test_plotdata_with_svg(self, results_csv, tmp_path, capsys):
        svg = tmp_path / "chart.svg"
        assert main(["report", str(results_csv), "--mode", "plotdata",
                     "--out-dir", str(tmp_path), "--svg", str(svg)]) == 0
        assert svg.read_text().startswith("<svg")
        curve = tmp_path / "results_curve_freedman_boost_mk6.csv"
        assert curve.exists()
        capsys.readouterr()

    def test_svg_of_all_diverged_rows(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        assert main(["sweep", "--set", "benchmark=laser",
                     "--set", f"data_path={tmp_path / 'missing.txt'}",
                     "--set", "repetitions=1", "--set", "sweep_n_reservoir=5,6",
                     "--out", str(out)]) == 0
        svg = tmp_path / "chart.svg"
        assert main(["report", str(out), "--mode", "plotdata",
                     "--out-dir", str(tmp_path), "--svg", str(svg)]) == 0
        text = svg.read_text()
        assert text.startswith("<svg") and "<polyline" not in text
        capsys.readouterr()

    def test_summary_with_svg_is_a_usage_error(self, results_csv, tmp_path,
                                               capsys):
        svg = tmp_path / "chart.svg"
        assert main(["report", str(results_csv), "--mode", "summary",
                     "--out-dir", str(tmp_path), "--svg", str(svg)]) == 1
        assert "plotdata" in capsys.readouterr().err
        assert not svg.exists()

    def test_unknown_mode(self, results_csv, capsys):
        assert main(["report", str(results_csv), "--mode", "plots"]) == 1
        capsys.readouterr()

    def test_missing_csv(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "none.csv"),
                     "--mode", "summary"]) == 2
        capsys.readouterr()

    def test_two_sweeps_of_one_cell_are_a_data_error(self, tmp_path, capsys):
        # a fresh and a shared sweep give the same run_ids; their report
        # was one cell of 4 runs
        texts = []
        for mode in ("fresh", "shared"):
            out = tmp_path / f"{mode}.csv"
            assert main(["sweep", "--set", "benchmark=freedman",
                         "--set", "method=boost", "--set", f"boost_mode={mode}",
                         "--set", "repetitions=2", "--set", "n_reservoir=5",
                         "--set", "n_stages=3", "--out", str(out)]) == 0
            texts.append(out.read_text())
        both = tmp_path / "both.csv"
        both.write_text(texts[0] + texts[1].split("\n", 1)[1])  # one header
        assert main(["report", str(both), "--mode", "summary",
                     "--out-dir", str(tmp_path)]) == 2
        assert "run_id 'freedman-boost-ns5-mk3-s0' repeats line 2" in \
            capsys.readouterr().err
        assert not (tmp_path / "both_summary.csv").exists()

    def test_field_past_the_csv_size_limit_is_a_data_error(self, results_csv,
                                                           tmp_path, capsys):
        with open(results_csv, "a") as fh:
            fh.write("1" * 140_000 + "\n")
        assert main(["report", str(results_csv), "--mode", "summary",
                     "--out-dir", str(tmp_path)]) == 2
        assert "field larger than field limit" in capsys.readouterr().err


class TestSizes:
    """Sizes past what memory or numpy can hold end in one error line and
    exit 1.  Each case runs in a fresh interpreter capped at 3 GiB of address
    space, so no test allocates them in the test process."""

    def test_out_of_memory_is_one_line_naming_the_allocation(self):
        runs = run_cli_limited(
            ["run", "--set", "benchmark=freedman",
             "--set", "n_reservoir=200000"],
            ["sweep", "--set", "benchmark=narma10", "--set", "repetitions=1",
             "--set", "sweep_n_reservoir=5,300000", "--out", os.devnull])
        for (code, err), shape in zip(runs, ["(200000, 200000)",
                                             "(300000, 300000)"]):
            assert code == 1
            assert err.startswith("esnboost: error: out of memory: Unable "
                                  "to allocate ")
            assert f"array with shape {shape}" in err
            assert err.count("\n") == 1

    def test_out_of_memory_without_a_size(self):
        # a Python list that cannot be allocated has no message to pass on
        [(code, err)] = run_cli_limited(
            ["run", "--set", "benchmark=freedman", "--set", f"n_test={2**29}"])
        assert (code, err) == (1, "esnboost: error: out of memory\n")

    def test_sizes_numpy_cannot_address_are_refused(self, tmp_path):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("benchmark = freedman\nn_train = 100000000000000\n")
        runs = run_cli_limited(
            ["run", "--config", str(cfg)],
            ["run", "--set", "benchmark=henon", "--set", f"n_reservoir={2**63}"],
            ["generate", "narma10", "--length", str(2 ** 63),
             "--out", os.devnull])
        assert runs == [
            [1, f"esnboost: error: n_train must be <= {MAX_SIZE}, got "
                f"100000000000000\n"],
            [1, f"esnboost: error: n_reservoir must be <= {MAX_SIZE}, got "
                f"{2**63}\n"],
            [1, f"esnboost: error: length must be <= {MAX_SIZE}, got "
                f"{2**63}\n"]]


class TestInstalledEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "gen.csv"
        # the child imports the same package as this process, installed
        # or not
        package_root = str(Path(esnboost.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "esnboost", "generate", "freedman",
             "--length", "12", "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert out.read_text().splitlines()[0] == "t,x_1,y_1"
