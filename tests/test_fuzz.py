"""Byte-mutated input files end in a documented outcome, never a traceback.

Model files either load or raise DataError.  Results CSVs given to
``report``, and laser files and config files given to ``run``, end in an
exit code from 0 to 3.  A mutated config runs with every key that sets
the run's size pinned by ``--set``, which wins over the file, so that no
mutation can ask for a large run.
"""

import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from esnboost.boosting import load_model
from esnboost.cli import main
from esnboost.errors import DataError

GOLDEN = Path(__file__).with_name("golden_outputs")
MODELS = ("model_fresh.json", "model_shared.json", "model_ensemble.json")
# the config file README shows for the run command
CONFIG = re.search(r"^```ini\n(# experiment\.cfg\n.*?)^```",
                   (Path(__file__).parents[1] / "README.md").read_text(),
                   re.MULTILINE | re.DOTALL)[1].encode()
SMALL_RUN = [arg for pair in ("n_reservoir=5", "n_stages=2", "n_members=2",
                              "n_train=40", "n_test=20", "washout=5")
             for arg in ("--set", pair)]

# bytes that keep numbers, JSON and CSV rows nearly well formed, so that
# more mutants get past the first parse; any other byte can appear too
STRUCTURAL = list(b'0123456789+-.eE,"[]{}:\n nai')
EDIT = st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                 st.integers(0, 2 ** 16),
                 st.one_of(st.sampled_from(STRUCTURAL), st.integers(0, 255)))


def mutate(data: bytes, edits) -> bytes:
    buf = bytearray(data)
    for op, where, byte in edits:
        pos = where % len(buf)
        if op == "replace":
            buf[pos] = byte
        elif op == "insert":
            buf.insert(pos, byte)
        else:
            del buf[pos]
    return bytes(buf)


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from([*MODELS, "results", "laser"]),
       edits=st.lists(EDIT, min_size=1, max_size=4),
       mode=st.sampled_from(["summary", "plotdata"]))
def test_mutated_inputs_end_in_a_documented_outcome(kind, edits, mode,
                                                    work_dir, laser_file,
                                                    capsys):
    if kind in MODELS:
        path = work_dir / kind
        path.write_bytes(mutate((GOLDEN / kind).read_bytes(), edits))
        try:
            load_model(path)
        except DataError:
            pass
        return
    if kind == "results":
        path = work_dir / "results.csv"
        path.write_bytes(mutate((GOLDEN / "results.csv").read_bytes(), edits))
        argv = ["report", str(path), "--mode", mode,
                "--out-dir", str(work_dir)]
        if mode == "plotdata":
            argv += ["--svg", str(work_dir / "curves.svg")]
    else:
        path = work_dir / "laser.txt"
        path.write_bytes(mutate(laser_file.read_bytes(), edits))
        argv = ["run", "--set", "benchmark=laser",
                "--set", f"data_path={path}", "--set", "n_reservoir=5",
                "--set", "n_train=300", "--set", "n_test=300"]
    capsys.readouterr()
    assert main(argv) in (0, 1, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(EDIT, min_size=1, max_size=4))
def test_mutated_config_ends_in_a_documented_outcome(edits, work_dir, capsys):
    path = work_dir / "experiment.cfg"
    path.write_bytes(mutate(CONFIG, edits))
    capsys.readouterr()
    assert main(["run", "--config", str(path), *SMALL_RUN]) in (0, 1, 2, 3)
    assert "Traceback" not in capsys.readouterr().err
