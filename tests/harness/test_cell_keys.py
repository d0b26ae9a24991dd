"""Cell keys encode each scenario once per call, and only per call.

Acceptance properties pinned here:

* one cached ``run_cells`` call over a trace-backed scenario encodes
  the scenario (calls its ``cache_spec``) once, whatever the number of
  (scheduler, seed) cells that name it;
* one ``cell_keys`` call builds each (factory, scenario) pair's
  scheduler once, whatever the number of seeds, with the keys of
  building it per cell;
* the encoding lives for one call only: a scenario changed in place
  between two calls gets new keys, so the second call misses the cache;
* ``QueueBackend.run`` without keys publishes the keys ``run_cells``
  computes, encoding the scenario once as well.

The frozen key digests (``test_cell_key_digests.py``) pin the key bytes.
"""

import pytest

from repro.core import CoreConfig
from repro.harness import (
    BaselineFactory,
    EvalCell,
    ResultCache,
    TraceBackedScenario,
    run_cells,
)
from repro.harness.executor import QueueBackend, _QueueDir
from repro.harness.parallel import cell_key, cell_keys
from repro.sim.platform import Platform
from repro.workload.ingest import IngestConfig, swf_fixture_path

SCHEDULERS = ("edf", "fifo", "greedy-elastic")
SEEDS = (1000, 1001)


def trace_scenario() -> TraceBackedScenario:
    """Bench-sized trace-backed scenario over the bundled SWF fixture."""
    return TraceBackedScenario.from_swf(
        swf_fixture_path(),
        ingest=IngestConfig(tick_seconds=240.0, max_jobs=30,
                            max_parallelism_cap=6, target_load=0.7),
        platforms=[Platform("cpu", 10, 1.0), Platform("gpu", 4, 1.0)],
        core=CoreConfig(queue_slots=4, running_slots=3, horizon=8),
        max_ticks=150)


def trace_cells(scenario):
    return [EvalCell("trace", scenario, name, BaselineFactory(name), i, seed,
                     scenario.max_ticks)
            for name in SCHEDULERS for i, seed in enumerate(SEEDS)]


@pytest.fixture
def spec_calls(monkeypatch):
    """Counts calls of ``TraceBackedScenario.cache_spec``."""
    calls = []
    original = TraceBackedScenario.cache_spec

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(TraceBackedScenario, "cache_spec", counted)
    return calls


def test_cached_run_encodes_each_scenario_once(tmp_path, spec_calls):
    cells = trace_cells(trace_scenario())
    cache = ResultCache(tmp_path / "cache")
    run_cells(cells, cache=cache)
    assert cache.stats["misses"] == len(cells) == 6
    assert len(spec_calls) == 1


def test_each_factory_builds_once_per_scenario():
    class Counting:
        def __init__(self, name):
            self.factory = BaselineFactory(name)
            self.built = []

        def __call__(self, scenario):
            self.built.append(scenario)
            return self.factory(scenario)

    scenarios = [trace_scenario(), trace_scenario()]
    scenarios[1].load = scenarios[1].load / 2
    factories = {name: Counting(name) for name in SCHEDULERS}
    cells = [EvalCell("trace", scenario, name, factory, i, seed,
                      scenario.max_ticks)
             for scenario in scenarios
             for name, factory in factories.items()
             for i, seed in enumerate(SEEDS)]
    keys = cell_keys(cells)
    for factory in factories.values():
        assert factory.built == scenarios
    assert keys == [cell_key(cell) for cell in cells]
    assert len(set(keys)) == len(cells) == 12


def test_scenario_changed_between_calls_gets_new_keys(tmp_path, spec_calls):
    scenario = trace_scenario()
    cells = trace_cells(scenario)
    cache = ResultCache(tmp_path / "cache")
    before = cell_keys(cells)
    run_cells(cells, cache=cache)
    scenario.load = scenario.load / 2
    after = cell_keys(cells)
    assert not set(before) & set(after)
    run_cells(cells, cache=cache)
    assert cache.stats == {"hits": 0, "misses": 12, "evictions": 0}
    assert len(spec_calls) == 4     # once per call, four calls
    assert len(cache) == 12


def test_queue_keyless_run_publishes_run_cells_keys(
        tmp_path, monkeypatch, spec_calls):
    cells = trace_cells(trace_scenario())
    cache = ResultCache(tmp_path / "cache")
    reports = run_cells(cells, cache=cache)
    cached = sorted(path.stem for path in cache.root.glob("*/*.json"))
    assert len(cached) == len(cells)
    # Results already in the shared store: the driver reduces without
    # any worker, and would time out on a key it had not computed.
    q = _QueueDir(tmp_path / "q")
    q.ensure()
    for key in cached:
        q.write_result(key, ("ok", cache.get(key)))
    published = []
    write_batch = _QueueDir.write_batch

    def recording(self, keys):
        published.extend(keys)
        write_batch(self, keys)

    monkeypatch.setattr(_QueueDir, "write_batch", recording)
    spec_calls.clear()
    backend = QueueBackend(queue_dir=tmp_path / "q", workers=0,
                           wait_timeout=10.0, poll=0.01)
    outcomes = backend.run(cells)
    assert sorted(published) == cached
    assert len(spec_calls) == 1
    assert [o[1].as_dict() for o in outcomes] == \
        [r.as_dict() for r in reports]
