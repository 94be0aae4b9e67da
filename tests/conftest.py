"""Shared fixtures and helpers for the test suite."""

import importlib.util
from contextlib import contextmanager
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from esnboost import boosting, esn


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


@cache
def _perfbench_machine():
    """perfbench/machine.py, loaded from its file like the benchmark's
    spans in tests/test_benchmark_seam.py."""
    path = Path(__file__).parents[1] / "perfbench" / "machine.py"
    spec = importlib.util.spec_from_file_location("perfbench_machine", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def one_blas_thread():
    """Every loaded OpenBLAS at one thread for the test's span.  At more
    threads OpenBLAS splits a product of a few thousand rows between them,
    which can change its last bits."""
    with _perfbench_machine().single_blas_thread():
        yield


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
