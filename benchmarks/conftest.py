"""Shared fixtures for the experiment benches, ``bench_eXX.py``.

Each ``bench_eXX`` module regenerates one table or figure of the
reconstructed evaluation. It runs its experiment exactly once through
``benchmark.pedantic`` (an experiment, not a microbenchmark), prints the
rendered table or figure, and asserts the expected qualitative *shape*.
pytest's default ``python_files`` does not match ``bench_*.py``, so
``pytest benchmarks/`` collects nothing; name the files instead::

    PYTHONPATH=src python -m pytest benchmarks/bench_e*.py --benchmark-only

``bench_micro.py`` holds no benches: it keeps the two input generators
that perfbench's ``archive`` workload and the ``stream`` and ``queue``
smoke steps load. Performance is measured by ``perfbench/run.py``.
"""

import pytest


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              iterations=1, rounds=1)


@pytest.fixture
def once(benchmark):
    """Fixture form of :func:`run_once`."""
    def _run(fn, *args, **kwargs):
        return run_once(benchmark, fn, *args, **kwargs)
    return _run
