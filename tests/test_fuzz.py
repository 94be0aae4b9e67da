"""Byte-mutated input files end in a documented outcome, never a traceback.

Model files either load or raise DataError.  Results CSVs given to
``report``, and laser files and config files given to ``run``, end in an
exit code from 0 to 3.  A mutated config runs with every key that sets
the run's size pinned by ``--set``, which wins over the file, so that no
mutation can ask for a large run.  Three kinds of input that a few byte
edits cannot reach are drawn whole: huge integer config values (run in a
child process capped at 3 GiB of address space), CSV fields longer than
the csv module's field limit, and JSON nested deeper than the interpreter
can recurse.
"""

import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from esnboost.boosting import load_model
from esnboost.cli import main
from esnboost.errors import DataError

from conftest import run_cli_limited

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


# Keys whose huge values are drawn.  n_stages, n_members and repetitions
# set how long a run takes, not how much one allocation asks for, so they
# stay pinned.  From 2**29 up, any series or reservoir a value sizes needs
# more than the child's 3 GiB, so no draw allocates it.
HUGE = st.tuples(st.sampled_from(["freedman", "narma10", "henon"]),
                 st.sampled_from(["n_reservoir", "n_train", "n_test",
                                  "washout", "seed"]),
                 st.one_of(st.integers(min_value=2 ** 29),
                           st.integers(max_value=-2 ** 29)))


@settings(max_examples=5, deadline=None, derandomize=True)
@given(draws=st.lists(HUGE, min_size=1, max_size=8))
def test_huge_config_values_end_in_a_documented_outcome(draws):
    # an uncaught exception in the child fails run_cli_limited itself
    runs = run_cli_limited(*[["run", "--set", f"benchmark={benchmark}",
                              *SMALL_RUN, "--set", f"{key}={value}"]
                             for benchmark, key, value in draws])
    for code, err in runs:
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(line=st.integers(0, 2 ** 16), column=st.integers(0, 2 ** 16),
       length=st.integers(1, 300_000), char=st.sampled_from('1a.e-"'))
def test_long_csv_fields_end_in_a_documented_outcome(line, column, length,
                                                     char, work_dir, capsys):
    # the csv module refuses fields longer than 131,072 characters
    lines = (GOLDEN / "results.csv").read_text().splitlines()
    cells = lines[line % len(lines)].split(",")
    cells[column % len(cells)] = char * length
    lines[line % len(lines)] = ",".join(cells)
    path = work_dir / "long.csv"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["report", str(path), "--mode", "summary",
                 "--out-dir", str(work_dir)]) in (0, 1, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


def value_slots(node):
    """(container, key) of every value inside a parsed JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield node, key
        yield from value_slots(child)


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(MODELS), slot=st.integers(0, 2 ** 16),
       depth=st.integers(1, 300_000),
       brackets=st.sampled_from([("[", "]"), ('{"a": ', "}")]))
def test_deep_json_nesting_ends_in_a_documented_outcome(kind, slot, depth,
                                                        brackets, work_dir):
    # json.loads recurses once per level, past the interpreter's limit of
    # about 1,000 frames for the deep draws
    doc = json.loads((GOLDEN / kind).read_text())
    slots = list(value_slots(doc))
    container, key = slots[slot % len(slots)]
    container[key] = "NESTED"
    opener, closer = brackets
    path = work_dir / kind
    path.write_text(json.dumps(doc).replace(
        '"NESTED"', opener * depth + "0" + closer * depth))
    try:
        load_model(path)
    except DataError:
        pass
