"""Without numpy, the real-array entry points fail with one typed error
that names the ``host`` extra."""

import sys

import numpy as np
import pytest

from repro.errors import MissingExtraError, ReproError
from repro.opencl.memory import Buffer
from repro.util.host import require_numpy
from repro.util.rng import make_rng
from repro.workloads import get as get_workload


@pytest.fixture
def no_numpy(monkeypatch):
    """``import numpy`` raises ImportError, as on a bare interpreter."""
    monkeypatch.setitem(sys.modules, "numpy", None)


def test_returns_numpy_when_installed():
    assert require_numpy() is np


def test_missing_numpy_names_the_extra(no_numpy):
    with pytest.raises(MissingExtraError, match=r"repro\[host\]") as info:
        require_numpy()
    assert isinstance(info.value, ReproError)
    assert isinstance(info.value, ImportError)
    assert isinstance(info.value.__cause__, ImportError)


@pytest.mark.parametrize(
    "entry",
    [
        lambda: make_rng(1),
        lambda: Buffer(64),
        lambda: get_workload("mergesort").host_run(1 << 10, seed=1),
    ],
    ids=["make_rng", "buffer", "host_run"],
)
def test_array_entry_points_raise_it(no_numpy, entry):
    with pytest.raises(MissingExtraError, match=r"repro\[host\]"):
        entry()
