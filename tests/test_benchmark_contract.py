"""What the benchmark's child process takes from the package: the builder
and layer names it wraps on polydelay.cli, and the rhs call shape of its
per-call timings. The child script is loaded, never run."""

import importlib.util
import math
import pathlib

import numpy as np
import pytest

import polydelay as pdl
from polydelay import cli

_CHILD = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


@pytest.fixture(scope="module")
def child():
    spec = importlib.util.spec_from_file_location("perfbench_child", _CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_on_cli(child):
    # the session wraps solve and main besides the two tables
    names = list(child.BUILDERS) + list(child.TRACED) + ["solve", "main"]
    assert [name for name in names if not hasattr(cli, name)] == []


def test_route_rhs_take_one_column_per_delay(child):
    # the per-call timings call each route's rhs with a Z of shape
    # (d, len(delays)), whatever the solver itself hands it
    traj = pdl.solve(pdl.DiscreteDelayDde(
        dimension=1, delays=(1.0,), rhs=lambda t, y, Z: -Z[:, 0],
        history=lambda t: np.array([1.0])), 2.0)
    times = child.microtimings(["--preset", "case-i", "--m", "8"], traj, 1)
    assert {"transform.rhs_us", "quadrature.rhs_us",
            "models.sir_rhs_us"} <= times.keys()
    assert all(0.0 < v < math.inf for v in times.values())
