"""Shared fixtures for the test suite."""

import os

# One BLAS thread for the whole run, the test processes, their CLI
# subprocesses and spawn workers alike: OpenBLAS reads the variable
# once, when numpy is first imported, which is below.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest
from hypothesis import settings

from repro.sim.job import Job
from repro.sim.platform import Platform
from repro.sim.speedup import AmdahlSpeedup, LinearSpeedup

# Every tier-1 run of a property draws the same examples (derandomized),
# and no example database carries a failure from one run into the next.
# The nightly job passes ``--hypothesis-profile=nightly`` to draw fresh
# examples instead; an input it finds failing becomes an explicit
# ``@example`` on its property.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("nightly", derandomize=False, database=None,
                          max_examples=1000)
settings.load_profile("tier1")


@pytest.fixture
def rng():
    """Deterministic RNG for every test that needs randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def platforms():
    """Small heterogeneous cluster: plentiful CPU + scarce fast GPU."""
    return [Platform("cpu", 8, 1.0), Platform("gpu", 4, 1.0)]


def make_job(
    arrival=0,
    work=10.0,
    deadline=100.0,
    min_k=1,
    max_k=4,
    affinity=None,
    speedup=None,
    job_class="test",
    weight=1.0,
):
    """Job factory with sane defaults for unit tests."""
    return Job(
        arrival_time=arrival,
        work=work,
        deadline=deadline,
        min_parallelism=min_k,
        max_parallelism=max_k,
        speedup_model=speedup if speedup is not None else LinearSpeedup(),
        affinity=affinity if affinity is not None else {"cpu": 1.0, "gpu": 2.0},
        job_class=job_class,
        weight=weight,
    )


@pytest.fixture
def job_factory():
    """Expose :func:`make_job` as a fixture."""
    return make_job


@pytest.fixture
def amdahl_job():
    """A job with sub-linear (Amdahl sigma=0.2) scaling."""
    return make_job(speedup=AmdahlSpeedup(0.2), max_k=8)
