"""Shared fixtures and helpers for the test suite."""

import json
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import esnboost
from esnboost import boosting, esn, numerics


@contextmanager
def observe_passes(observer):
    """Call ``observer(states)`` after every reservoir pass inside the block.

    Every fit and predict pass reaches ``run_reservoir`` through the
    ``esn`` or ``boosting`` module attribute, the seam the benchmark's
    traced run also wraps (tests/test_benchmark_seam.py pins it), so
    wrapping both attributes sees every pass.
    """

    def wrap(run_reservoir):
        def observed(*args, **kwargs):
            states = run_reservoir(*args, **kwargs)
            observer(states)
            return states
        return observed

    with pytest.MonkeyPatch.context() as patch:
        for module in (esn, boosting):
            patch.setattr(module, "run_reservoir", wrap(module.run_reservoir))
        yield


# Whether no mapped OpenBLAS exports LAPACKE, so that the ridge solver runs
# on scipy.linalg.lapack.
FALLBACK = numerics.ridge_lapack().library == "scipy.linalg.lapack"


@pytest.fixture()
def one_blas_thread():
    """Every loaded OpenBLAS at one thread for the test's span, through the
    pin the ridge solver and readout products hold themselves."""
    with numerics.one_blas_thread():
        yield


def run_python(*args, cwd=None, env=None):
    """Run a fresh interpreter on this process's esnboost, with env added to
    the environment; returns stdout."""
    package_root = str(Path(esnboost.__file__).parents[1])
    env = {**os.environ, **(env or {}), "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# Runs esnboost.cli.main over each argv of a JSON list, in an interpreter
# whose address space RLIMIT_AS caps at 3 GiB, and prints each exit code
# and stderr.
_LIMITED_CLI = """
import io, json, resource, sys
from contextlib import redirect_stderr, redirect_stdout
_, hard = resource.getrlimit(resource.RLIMIT_AS)
limit = 3 << 30 if hard == resource.RLIM_INFINITY else min(3 << 30, hard)
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from esnboost.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        results.append([main(argv), err.getvalue()])
print(json.dumps(results))
"""


def run_cli_limited(*argvs) -> list:
    """[exit code, stderr] of the CLI on each argv, run in one fresh
    interpreter capped at 3 GiB of address space.  An oversized allocation
    fails there at once, whatever the host's overcommit policy, and never
    in the test process; an uncaught exception fails the test.  OpenBLAS
    runs at one thread, so that its per-thread buffers stay far below the
    cap however many cores the host has."""
    return json.loads(run_python("-c", _LIMITED_CLI, json.dumps(argvs),
                                 env={"OPENBLAS_NUM_THREADS": "1"}))


def count_passes(fn, *args) -> int:
    """Reservoir runs made by fn(*args)."""
    seen = []
    with observe_passes(seen.append):
        fn(*args)
    return len(seen)


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


def _logistic_intensities(n: int, x0: float = 0.37) -> list[int]:
    """Chaotic integer series in the laser file format (one count per line).

    The real laser recording is a measured artifact that is not bundled
    with the repository, so tests that only need a file of plausible
    intensity counts use a quantized logistic-map orbit instead.  Any
    property checked against it (parsing, splits, training mechanics)
    is independent of which chaotic series the file holds.
    """
    values = []
    x = x0
    for _ in range(n):
        values.append(round(255 * x))
        x = 4.0 * x * (1.0 - x)
    return values


@pytest.fixture(scope="session")
def laser_file(tmp_path_factory):
    """Path to a 1000-line intensity file in the laser text format."""
    path = tmp_path_factory.mktemp("laser") / "laser.txt"
    values = _logistic_intensities(1000)
    path.write_text("\n".join(str(v) for v in values) + "\n", encoding="utf-8")
    return path
