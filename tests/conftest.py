import os
from pathlib import Path

import pytest

from spikezero import verification

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def configs_dir() -> Path:
    return REPO_ROOT / "configs"


@pytest.fixture(params=[1, 2], ids=["one-cpu", "two-cpus"])
def cpus(request, monkeypatch):
    """Run the test as on a machine with this many CPUs available to the process."""
    if request.param == 1:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    elif verification._cpu_count() < 2:
        pytest.skip("needs two CPUs")
    return request.param
