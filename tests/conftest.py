import os
import threading
from pathlib import Path

import numpy as np
import pytest

from conic_purge import (EllipseParams, EllipsoidParams, ExperimentConfig,
                         _cores, ellipse_from_eccentricity, modelfit)

# tests that run ``python -m conic_purge`` in a subprocess import the
# in-tree package, as pytest itself does through its ``pythonpath`` setting
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                  os.environ.get("PYTHONPATH")]))

# one seeded dataset per benchmark workload shape, shared by the tests that
# pin output digests
FREEZE_SCENARIOS = {
    "ransac2d": ExperimentConfig(
        model=ellipse_from_eccentricity(5.0, 0.95), n_inliers=100,
        n_outliers=90, sigma0=0.1, sigma1=5.0, seed=101),
    "typical2d": ExperimentConfig(
        model=ellipse_from_eccentricity(5.0, 0.95), n_inliers=100,
        n_outliers=50, sigma0=0.01, sigma1=2.0, seed=102),
    "ellipsoid3d": ExperimentConfig(
        model=EllipsoidParams(np.zeros(3), np.array([5.0, 4.0, 3.0]),
                              np.eye(3)),
        n_inliers=300, n_outliers=50, sigma0=0.1, sigma1=5.0, seed=103),
}

# perfbench's large2d_cli seed 11, dataset 3 (K=800), kept apart from
# FREEZE_SCENARIOS so that only the spectrum tests pay for its size
LARGE_SPECTRUM_SCENARIO = ExperimentConfig(
    model=ellipse_from_eccentricity(5.0, 0.95), n_inliers=600,
    n_outliers=200, sigma0=0.05, sigma1=2.0, seed=6680197457481298160)


def rescue_mask(pts: np.ndarray):
    """The start mask of refine's rescue trajectory on ``pts`` (default
    config), or None when it has none."""
    _, min_points = modelfit._dim_tools(pts, None)
    found = modelfit._multistart_concentrate(
        pts, min_points, modelfit._trim_size(pts, min_points))
    return None if found is None else found[0]


def random_ellipse(rng) -> EllipseParams:
    a = rng.uniform(1.0, 10.0)
    b = a * rng.uniform(0.2, 1.0)
    theta = rng.uniform(-np.pi / 2, np.pi / 2 - 1e-9)
    cx, cy = rng.uniform(-10.0, 10.0, 2)
    return EllipseParams(cx, cy, a, min(b, a), theta)


def random_rotation(rng) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


def random_ellipsoid(rng) -> EllipsoidParams:
    axes = np.sort(rng.uniform(1.0, 8.0, 3))[::-1]
    axes[0] *= 1.2  # keep the axes distinct so orientation is well defined
    axes[2] *= 0.8
    center = rng.uniform(-5.0, 5.0, 3)
    return EllipsoidParams(center, axes, random_rotation(rng))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def warm_pool():
    """Leave a thread waiting on the worker pool's idle list, so that the
    next overlap starts none."""
    with _cores.Worker(lambda: None):
        pass


@pytest.fixture
def threads(monkeypatch):
    """The thread each ``_cores.Worker`` ran its work on while the test
    runs, in the order the work started.  On exit every work has ended:
    those threads wait on the pool's idle list again, and every thread
    that appeared meanwhile is one of the pool's, waiting there."""
    ran = []
    original = _cores.Worker._run

    def recorded(self, context):
        ran.append(threading.current_thread())
        return original(self, context)

    before = set(threading.enumerate())
    monkeypatch.setattr(_cores.Worker, "_run", recorded)
    yield ran
    idle = {waiting.thread for waiting in _cores._idle}
    assert set(ran) <= idle
    assert set(threading.enumerate()) - before <= idle


def pytest_configure(config):
    # subprocess runs of the CLI fail on the same numpy floating-point
    # warnings as the tests themselves: export the ``error:`` filters
    errors = [f for f in config.getini("filterwarnings")
              if f.startswith("error:")]
    os.environ["PYTHONWARNINGS"] = ",".join(
        filter(None, [os.environ.get("PYTHONWARNINGS"), *errors]))


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, ok in sorted(RESULTS, key=lambda r: r[0]):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {number} [{status}] {description}")
