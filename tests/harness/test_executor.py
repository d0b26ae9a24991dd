"""Executor backends: serial/pool/queue parity and queue failure modes.

Acceptance properties pinned here:

* sweep rows are byte-identical across the serial, pool, and queue
  backends, cold and warm cache — the merge is deterministic in cell
  order, so ``workers=N`` identity generalizes to ``hosts=N``;
* a stale lease (killed worker) is reclaimed and its cell recomputed;
* duplicate claims/completions are idempotent: results are keyed by the
  cell fingerprint and every recompute writes identical bytes;
* a crash inside a queue worker surfaces in the driver as a
  :class:`~repro.harness.parallel.CellFailure` carrying the worker
  traceback, exactly like the pool backend;
* the batch is retired after reduction (no queue-directory litter).
"""

import json
import os
import time

import pytest

from repro.core import CoreConfig
from repro.harness import (
    BaselineFactory,
    CellFailure,
    EvalCell,
    ResultCache,
    Scenario,
    run_cells,
    standard_scenario,
    sweep_schedulers,
)
from repro.harness.executor import (
    PoolBackend,
    QueueBackend,
    SerialBackend,
    _QueueDir,
    available_cpus,
    make_backend,
    queue_worker_loop,
)
from repro.harness.parallel import _run_batch, cell_key
from repro.workload.classes import JobClass
from repro.workload.generator import WorkloadConfig


def small_scenario(load: float = 0.6) -> Scenario:
    """Cheap scenario so process startup dominates, not simulation."""
    return standard_scenario(
        load=load, horizon=20, cpu_capacity=8, gpu_capacity=4,
        core=CoreConfig(queue_slots=3, running_slots=2, horizon=6),
        max_ticks=80)


def broken_scenario() -> Scenario:
    """Trace generation raises: the only job class runs on no platform."""
    from repro.sim.platform import Platform

    cls = JobClass(name="orphan", mix_weight=1.0, work_lognorm=(2.0, 0.5),
                   parallelism_range=(1, 2), serial_fraction=0.1,
                   affinity={"tpu": 1.0})
    return Scenario(platforms=[Platform("cpu", 8, 1.0)],
                    workload=WorkloadConfig(classes=[cls], horizon=10),
                    load=0.5, max_ticks=50)


SCHEDULERS = {"edf": BaselineFactory("edf"), "fifo": BaselineFactory("fifo")}


def small_cells(n_traces: int = 2):
    scenario = small_scenario()
    return [
        EvalCell("base", scenario, name, SCHEDULERS[name],
                 trace_index=i, trace_seed=1000 + i, max_ticks=80)
        for name in ("edf", "fifo") for i in range(n_traces)
    ]


def rows_bytes(rows) -> str:
    return json.dumps(rows, sort_keys=True)


def queue_backend(tmp_path, **kwargs) -> QueueBackend:
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("poll", 0.01)
    return QueueBackend(queue_dir=tmp_path / "q", **kwargs)


class TestBackendParity:
    def test_rows_byte_identical_across_backends(self, tmp_path):
        scenarios = {"base": small_scenario()}
        reference = rows_bytes(sweep_schedulers(
            scenarios, SCHEDULERS, n_traces=2, backend=SerialBackend()))
        for backend in (PoolBackend(2), queue_backend(tmp_path)):
            rows = sweep_schedulers(scenarios, SCHEDULERS, n_traces=2,
                                    backend=backend)
            assert rows_bytes(rows) == reference, \
                f"backend={backend.name} diverged"

    def test_queue_warm_cache_identical_and_zero_recompute(
            self, tmp_path, monkeypatch):
        scenarios = {"base": small_scenario()}
        cache = ResultCache(tmp_path / "cache")
        cold = sweep_schedulers(scenarios, SCHEDULERS, n_traces=2,
                                cache=cache, backend=queue_backend(tmp_path))
        assert cache.stats["misses"] == 4

        import repro.harness.parallel as par

        def boom(cell, trace):  # pragma: no cover - fails the test if called
            raise AssertionError("cell executed despite warm cache")

        monkeypatch.setattr(par, "run_cell", boom)
        warm = sweep_schedulers(scenarios, SCHEDULERS, n_traces=2,
                                cache=cache, backend=queue_backend(tmp_path))
        assert cache.stats["hits"] == 4
        assert rows_bytes(warm) == rows_bytes(cold)

    def test_queue_directory_retired_after_batch(self, tmp_path):
        backend = queue_backend(tmp_path, workers=1)
        run_cells(small_cells(1), backend=backend)
        q = _QueueDir(tmp_path / "q")
        assert not q.batch_path.exists()
        assert list(q.tasks.iterdir()) == []
        assert list(q.claims.iterdir()) == []
        assert list(q.results.iterdir()) == []

    def test_string_backend_spec_accepted(self):
        cells = small_cells(1)
        assert rows_bytes([r.as_dict() for r in
                           run_cells(cells, backend="serial")]) == \
            rows_bytes([r.as_dict() for r in run_cells(cells, workers=1)])


class TestMakeBackend:
    def test_names_resolve(self, tmp_path):
        assert isinstance(make_backend("serial"), SerialBackend)
        pool = make_backend("pool", workers=3)
        assert isinstance(pool, PoolBackend) and pool.workers == 3
        q = make_backend("queue", workers=0, queue_dir=tmp_path / "q",
                         lease_timeout=5.0, wait_timeout=2.0)
        assert isinstance(q, QueueBackend)
        assert (q.workers, q.lease_timeout, q.wait_timeout) == (0, 5.0, 2.0)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="serial, pool, queue"):
            make_backend("mesh")

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            QueueBackend(workers=-1)
        with pytest.raises(ValueError, match="lease_timeout"):
            QueueBackend(lease_timeout=0.0)
        with pytest.raises(ValueError, match="workers"):
            PoolBackend(workers=0)

    def test_available_cpus_respects_affinity(self):
        n = available_cpus()
        assert n >= 1
        if hasattr(os, "sched_getaffinity"):
            assert n == len(os.sched_getaffinity(0))


class TestQueueProtocol:
    """Inline (single-process) exercises of the claim-file protocol."""

    def publish(self, tmp_path, cells):
        q = _QueueDir(tmp_path / "q")
        q.ensure()
        keys = [cell_key(c) for c in cells]
        for key, cell in zip(keys, cells):
            q.write_task(key, cell)
        q.write_batch(keys)
        return q, keys

    def test_worker_loop_drains_published_batch(self, tmp_path):
        cells = small_cells(1)
        q, keys = self.publish(tmp_path, cells)
        done = queue_worker_loop(q.root, worker_id="w0", poll=0.01)
        assert done == len(cells)
        for key in keys:
            status, payload = q.read_result(key)
            assert status == "ok"
            assert payload.num_jobs > 0

    def test_stale_lease_reclaimed_after_killed_worker(self, tmp_path):
        cells = small_cells(1)[:1]
        q, keys = self.publish(tmp_path, cells)
        # A worker claimed the cell and died: its heartbeat (the claim
        # file's mtime) stops advancing.
        assert q.try_claim(keys[0], "dead-worker", lease_timeout=1.0)
        stale = time.time() - 3600
        os.utime(q.claim_path(keys[0]), (stale, stale))
        done = queue_worker_loop(q.root, worker_id="w1",
                                 lease_timeout=1.0, poll=0.01)
        assert done == 1
        assert q.read_result(keys[0])[0] == "ok"

    def test_fresh_lease_is_respected(self, tmp_path):
        cells = small_cells(1)[:1]
        q, keys = self.publish(tmp_path, cells)
        assert q.try_claim(keys[0], "alive-worker", lease_timeout=60.0)
        done = queue_worker_loop(q.root, worker_id="w1",
                                 lease_timeout=60.0, poll=0.01, max_idle=0.1)
        assert done == 0
        assert not q.has_result(keys[0])

    def test_duplicate_claim_rejected_then_idempotent(self, tmp_path):
        cells = small_cells(1)[:1]
        q, keys = self.publish(tmp_path, cells)
        assert q.try_claim(keys[0], "a", lease_timeout=60.0)
        assert not q.try_claim(keys[0], "b", lease_timeout=60.0)
        q.release(keys[0])
        # Duplicate completions (the pathological double-lease race)
        # write byte-identical results keyed by the same fingerprint.
        outcome = _run_batch(cells[:1])[0]
        q.write_result(keys[0], outcome)
        first = q.result_path(keys[0]).read_bytes()
        q.write_result(keys[0], outcome)
        assert q.result_path(keys[0]).read_bytes() == first
        # A worker joining now finds nothing left to compute.
        assert queue_worker_loop(q.root, worker_id="late", poll=0.01) == 0

    def test_existing_results_reused_without_workers(self, tmp_path):
        """The driver reuses results already in the shared store — the
        reduce side of duplicate-completion idempotence — without
        spawning anything (workers=0, nothing outstanding)."""
        cells = small_cells(1)
        keys = [cell_key(c) for c in cells]
        q = _QueueDir(tmp_path / "q")
        q.ensure()
        for key, cell in zip(keys, cells):
            q.write_result(key, _run_batch([cell])[0])
        backend = QueueBackend(queue_dir=tmp_path / "q", workers=0,
                               wait_timeout=5.0, poll=0.01)
        reports = run_cells(cells, backend=backend)
        serial = run_cells(cells, workers=1)
        assert [r.as_dict() for r in reports] == [r.as_dict() for r in serial]

    def test_worker_exits_when_no_batch_published(self, tmp_path):
        assert queue_worker_loop(tmp_path / "q", worker_id="w") == 0

    def test_wait_timeout_names_the_join_command(self, tmp_path):
        backend = QueueBackend(queue_dir=tmp_path / "q", workers=0,
                               wait_timeout=0.2, poll=0.01)
        with pytest.raises(RuntimeError, match="repro.cli worker"):
            run_cells(small_cells(1)[:1], backend=backend)


_SLOW_WORKER_SCRIPT = """\
import sys, time
sys.path.insert(0, {src!r})
from repro.harness.executor import _QueueDir, queue_worker_loop


class SlowScenario:
    engine = "tick"

    def trace(self, seed):
        return []

    def evaluate_segment(self, policy, seed, trace, max_ticks):
        time.sleep(60)  # far longer than the test; SIGTERM interrupts


class SlowCell:
    scenario = SlowScenario()
    scenario_name = "slow"
    scheduler_name = "noop"
    trace_index = 0
    trace_seed = 0
    max_ticks = 1

    def factory(self, scenario):
        return None

    def describe(self):
        return "slow cell"


q = _QueueDir({qdir!r})
q.ensure()
q.write_task("slowkey", SlowCell())
q.write_batch(["slowkey"])
queue_worker_loop({qdir!r}, worker_id="victim", poll=0.01,
                  handle_signals=True)
"""


class TestWorkerSignalHandling:
    """SIGTERM/SIGINT release the claim lease before the worker exits."""

    def test_sigterm_releases_claim_of_killed_worker(self, tmp_path):
        import signal
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        qdir = str(tmp_path / "q")
        script = tmp_path / "slow_worker.py"
        script.write_text(_SLOW_WORKER_SCRIPT.format(
            src=os.path.abspath(src), qdir=qdir))
        proc = subprocess.Popen([sys.executable, str(script)])
        try:
            q = _QueueDir(qdir)
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                if q.claim_path("slowkey").exists():
                    break
                time.sleep(0.02)
            else:
                pytest.fail("worker never claimed the cell")
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=20)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert code == 128 + signal.SIGTERM
        # The orderly-kill contract: the lease is gone immediately, so
        # another worker can claim the cell without waiting out the
        # lease timeout — and no half-computed result was written.
        assert not q.claim_path("slowkey").exists()
        assert not q.has_result("slowkey")

    def test_handlers_restored_after_loop_returns(self, tmp_path):
        import signal

        before_term = signal.getsignal(signal.SIGTERM)
        before_int = signal.getsignal(signal.SIGINT)
        done = queue_worker_loop(tmp_path / "q", worker_id="w",
                                 handle_signals=True)
        assert done == 0
        assert signal.getsignal(signal.SIGTERM) is before_term
        assert signal.getsignal(signal.SIGINT) is before_int


class TestQueueFailureModes:
    def test_cell_failure_propagates_through_queue(self, tmp_path):
        cells = [
            EvalCell("ok", small_scenario(), "edf", SCHEDULERS["edf"],
                     0, 1000, 80),
            EvalCell("broken", broken_scenario(), "edf", SCHEDULERS["edf"],
                     0, 1000, 50),
        ]
        with pytest.raises(CellFailure) as excinfo:
            run_cells(cells, backend=queue_backend(tmp_path, workers=1))
        msg = str(excinfo.value)
        assert "scenario='broken'" in msg
        assert "worker traceback" in msg
        assert "ValueError" in msg

    def test_successful_cells_cached_despite_queue_failure(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        good = EvalCell("ok", small_scenario(), "edf", SCHEDULERS["edf"],
                        0, 1000, 80)
        bad = EvalCell("broken", broken_scenario(), "edf", SCHEDULERS["edf"],
                       0, 1000, 50)
        with pytest.raises(CellFailure):
            run_cells([good, bad], cache=cache,
                      backend=queue_backend(tmp_path, workers=1))
        assert cache.get(cell_key(good)) is not None
        assert cache.get(cell_key(bad)) is None


class TestCanonicalEnvelopes:
    """Regressions from the determinism-contract linter (ATOM001): queue
    artifacts are canonical (sort_keys) JSON, byte-stable across dict
    construction order."""

    def test_batch_manifest_bytes(self, tmp_path):
        q = _QueueDir(tmp_path / "q")
        q.ensure()
        q.write_batch(["k2", "k1"])
        raw = q.batch_path.read_bytes()
        assert raw == json.dumps({"cells": ["k2", "k1"]},
                                 sort_keys=True).encode()
        assert q.batch_keys() == ["k2", "k1"]   # order is preserved

    def test_error_result_envelope_bytes(self, tmp_path):
        q = _QueueDir(tmp_path / "q")
        q.ensure()
        q.write_result("kx", ("err", ("cell kx", "boom", "tb...")))
        raw = q.result_path("kx").read_bytes()
        doc = {"status": "err", "failure": ["cell kx", "boom", "tb..."]}
        assert raw == json.dumps(doc, sort_keys=True).encode()
        status, payload = q.read_result("kx")
        assert status == "err" and payload[1] == "boom"

    def test_no_temp_litter_after_writes(self, tmp_path):
        q = _QueueDir(tmp_path / "q")
        q.ensure()
        q.write_batch(["a"])
        q.write_result("a", ("err", ("d", "e", "t")))
        names = sorted(p.name for p in (tmp_path / "q").rglob("*")
                       if p.is_file())
        assert names == ["BATCH.json", "a.json"]
