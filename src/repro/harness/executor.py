"""Pluggable executor backends for evaluation-cell grids.

:func:`~repro.harness.parallel.run_cells` probes the
:class:`~repro.harness.cache.ResultCache`, hands the misses to a
*backend* from this module, and merges outcomes back in deterministic
cell order (cell ``i``'s report always lands at index ``i``). The merged
result is therefore independent of the backend, the worker count, and
the cache hit/miss split — ``workers=N`` byte-identity generalizes to
``hosts=N``. This module owns every process this package starts.

Three backends:

* :class:`SerialBackend` — in-process loop (the reference ordering);
* :class:`PoolBackend` — a ``spawn`` process pool (serial fallback for
  single cells and stdin scripts whose ``__main__`` cannot be
  re-imported);
* :class:`QueueBackend` — a shared-directory work queue any number of
  worker processes **or hosts** can join (``repro.cli worker``). Cells
  are published as pickled task files named by their cache fingerprint;
  workers lease cells via atomic claim files (``O_CREAT | O_EXCL``, the
  same atomic-rename discipline as ``ResultCache``), heartbeat the
  claim's mtime from a daemon thread while simulating, and write
  results into the shared store with an atomic rename. Stale leases
  (heartbeat older than ``lease_timeout``) are reclaimed; duplicate
  completions are idempotent because results are keyed by fingerprint
  and every recompute of a cell produces identical bytes. The driver
  reduces in deterministic cell order and, if every local worker dies
  with work outstanding, reclaims and drains the remainder inline — the
  worst case under any race or crash is recomputing a cell, never
  corrupting or losing one.

The ``spawn`` start method is the only one that is safe everywhere (no
forked locks, no inherited RNG state).
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import pickle
import signal
import socket
import sys
import threading
import time
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.harness.cache import decode_result, encode_result
from repro.util.io import atomic_write_bytes
from repro.harness.parallel import EvalCell, _run_cell_shielded, cell_key

__all__ = [
    "available_cpus",
    "make_backend",
    "SerialBackend",
    "PoolBackend",
    "QueueBackend",
    "queue_worker_loop",
    "DEFAULT_QUEUE_DIR",
    "BACKEND_NAMES",
]

#: Default queue location for the CLI (relative to the working directory).
DEFAULT_QUEUE_DIR = ".repro-queue"

#: Backend names accepted by :func:`make_backend` / ``--backend``.
BACKEND_NAMES = ("serial", "pool", "queue")

#: ``(status, payload)`` — ``("ok", report_or_segment)`` or
#: ``("err", (cell_description, exception_repr, traceback_text))``.
Outcome = Tuple[str, object]


def available_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.sched_getaffinity`` respects cgroup/affinity masks (a container
    pinned to 1 of 64 cores answers 1, not 64); platforms without it
    fall back to ``os.cpu_count()``.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return max(1, len(getaffinity(0)))
        except OSError:
            pass
    return max(1, os.cpu_count() or 1)


def _spawn_is_safe() -> bool:
    """Whether a ``spawn`` child can re-import ``__main__``.

    Scripts piped through stdin (``python - <<EOF``) advertise a
    ``__main__.__file__`` that does not exist on disk; spawn children
    would crash on import and the pool would respawn them forever.
    Detect that case up front and fall back to serial execution.
    """
    main_mod = sys.modules.get("__main__")
    main_file = getattr(main_mod, "__file__", None)
    return main_file is None or os.path.exists(main_file)


def _check_picklable(cells: Sequence[EvalCell]) -> None:
    for cell in cells:
        try:
            pickle.dumps(cell)
        except Exception as exc:
            raise ValueError(
                f"cell {cell.describe()} is not picklable ({exc!r}); "
                "workers > 1 requires module-level scheduler factories "
                "(e.g. repro.harness.parallel.BaselineFactory), not "
                "lambdas or closures") from exc


class SerialBackend:
    """Run every cell in-process, in order — the reference backend."""

    name = "serial"
    needs_keys = False

    def run(self, cells: Sequence[EvalCell],
            keys: Optional[Sequence[str]] = None) -> List[Outcome]:
        return [_run_cell_shielded(cell) for cell in cells]


class PoolBackend:
    """Shard cells over a ``spawn`` process pool on this machine.

    ``workers=None`` resolves to :func:`available_cpus` at run time.
    Single cells, ``workers=1``, and stdin scripts (whose ``__main__``
    spawn children cannot re-import) fall back to the serial path.
    """

    name = "pool"
    needs_keys = False

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers

    def run(self, cells: Sequence[EvalCell],
            keys: Optional[Sequence[str]] = None) -> List[Outcome]:
        workers = self.workers if self.workers is not None else available_cpus()
        if workers > 1 and len(cells) > 1 and not _spawn_is_safe():
            warnings.warn(
                "__main__ is not importable by spawned workers (stdin "
                "script?); running evaluation cells serially",
                RuntimeWarning, stacklevel=2)
            workers = 1
        if workers == 1 or len(cells) <= 1:
            return SerialBackend().run(cells)
        _check_picklable(cells)
        ctx = mp.get_context("spawn")
        with ctx.Pool(processes=min(workers, len(cells))) as pool:
            return pool.map(_run_cell_shielded, list(cells))


class _QueueDir:
    """Layout and atomic file operations of a shared queue directory.

    ``tasks/<key>.task`` (pickled cell), ``claims/<key>.claim`` (lease;
    content names the holder, mtime is the heartbeat), and
    ``results/<key>.json`` (outcome envelope) — ``<key>`` is the cell's
    cache fingerprint, so task identity, claim identity, and result
    identity all content-address the same computation. ``BATCH.json``
    at the root publishes the key list of the batch being reduced;
    workers use it to know when they are done.
    """

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)
        self.tasks = self.root / "tasks"
        self.claims = self.root / "claims"
        self.results = self.root / "results"
        self.batch_path = self.root / "BATCH.json"

    def ensure(self) -> None:
        for d in (self.tasks, self.claims, self.results):
            d.mkdir(parents=True, exist_ok=True)

    # --- atomic JSON/pickle writes (shared helper) ----------------------
    def _write_atomic(self, path: Path, data: bytes) -> None:
        atomic_write_bytes(path, data)

    # --- tasks ----------------------------------------------------------
    def task_path(self, key: str) -> Path:
        return self.tasks / f"{key}.task"

    def write_task(self, key: str, cell: EvalCell) -> None:
        self._write_atomic(self.task_path(key), pickle.dumps(cell))

    def load_task(self, key: str) -> EvalCell:
        with open(self.task_path(key), "rb") as fh:
            return pickle.load(fh)

    # --- batch manifest -------------------------------------------------
    def write_batch(self, keys: Sequence[str]) -> None:
        self._write_atomic(
            self.batch_path,
            json.dumps({"cells": list(keys)}, sort_keys=True).encode())

    def batch_keys(self) -> Optional[List[str]]:
        try:
            with open(self.batch_path, encoding="utf-8") as fh:
                payload = json.load(fh)
            return [str(k) for k in payload["cells"]]
        except (OSError, ValueError, KeyError, TypeError):
            return None

    # --- claims (leases) ------------------------------------------------
    def claim_path(self, key: str) -> Path:
        return self.claims / f"{key}.claim"

    def try_claim(self, key: str, worker_id: str,
                  lease_timeout: float) -> bool:
        """Atomically lease ``key``; reclaim first if the holder's
        heartbeat is older than ``lease_timeout`` seconds.

        The reclaim (unlink + exclusive re-create) can race: two workers
        may both unlink a stale claim and one loses the re-create — or,
        pathologically, both briefly hold a lease. That worst case is a
        duplicate *recompute* of a deterministic cell whose result
        writes are atomic and byte-identical, never corruption.
        """
        path = self.claim_path(key)

        def create() -> bool:
            try:
                # The claim *is* the O_EXCL creation: exactly one worker
                # may win, so an atomic-replace write (which always
                # succeeds) would break the mutual exclusion.
                # repro: allow[ATOM001]
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return False
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps({"worker": worker_id, "pid": os.getpid(),
                                     "host": socket.gethostname()},
                                    sort_keys=True))
            return True

        if create():
            return True
        try:
            age = time.time() - os.stat(path).st_mtime
        except OSError:
            return create()         # holder released between open and stat
        if age > lease_timeout:
            try:
                os.unlink(path)
            except OSError:
                pass
            return create()
        return False

    def release(self, key: str) -> None:
        try:
            os.unlink(self.claim_path(key))
        except OSError:
            pass

    @contextmanager
    def lease_heartbeat(self, key: str, interval: float):
        """Refresh the claim's mtime every ``interval`` seconds from a
        daemon thread while the body runs, so a live worker's lease
        never goes stale however long its cell simulates."""
        if interval <= 0:
            yield
            return
        path = self.claim_path(key)
        stop = threading.Event()

        def beat() -> None:
            while not stop.wait(interval):
                try:
                    os.utime(path)
                except OSError:
                    return          # claim reclaimed under us; stop beating
        thread = threading.Thread(target=beat, daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    # --- results ---------------------------------------------------------
    def result_path(self, key: str) -> Path:
        return self.results / f"{key}.json"

    def has_result(self, key: str) -> bool:
        return self.result_path(key).is_file()

    def write_result(self, key: str, outcome: Outcome) -> None:
        status, payload = outcome
        if status == "ok":
            doc = {"status": "ok", "result": encode_result(payload)}
        else:
            desc, err, tb = payload
            doc = {"status": "err", "failure": [desc, err, tb]}
        self._write_atomic(self.result_path(key),
                           json.dumps(doc, sort_keys=True).encode())

    def read_result(self, key: str) -> Outcome:
        with open(self.result_path(key), encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("status") == "ok":
            return "ok", decode_result(doc["result"])
        desc, err, tb = doc["failure"]
        return "err", (desc, err, tb)

    def cleanup_batch(self, keys: Sequence[str]) -> None:
        """Retire a reduced batch: manifest first (so late workers see
        no work and exit), then this batch's task/claim/result files."""
        try:
            os.unlink(self.batch_path)
        except OSError:
            pass
        for key in keys:
            for path in (self.task_path(key), self.claim_path(key),
                         self.result_path(key)):
                try:
                    os.unlink(path)
                except OSError:
                    pass


def queue_worker_loop(
    queue_dir: os.PathLike,
    worker_id: Optional[str] = None,
    lease_timeout: float = 60.0,
    heartbeat: float = 5.0,
    poll: float = 0.2,
    max_idle: Optional[float] = None,
    handle_signals: bool = False,
) -> int:
    """Claim-execute-write until the published batch has every result.

    The entry point for queue workers, local (spawned by
    :class:`QueueBackend`) and external (``repro.cli worker``) alike.
    Returns the number of cells this worker computed.

    Exits when the batch is complete (even if other workers computed
    everything), or — with ``max_idle`` set — after that many seconds
    without claiming anything (covers joining before a batch is
    published, or a dead driver). Without ``max_idle``, an absent batch
    returns immediately rather than spinning.

    ``handle_signals`` converts SIGTERM/SIGINT into ``SystemExit`` so an
    orderly kill releases the in-flight claim (the per-cell ``finally``
    deletes the ``.claim`` file) instead of parking it until the lease
    times out. SystemExit deliberately passes through the cell shield —
    only the lease-timeout path covers ``kill -9``.
    """
    previous_handlers = {}
    if handle_signals:
        def _on_signal(signum, frame):
            raise SystemExit(128 + signum)

        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                previous_handlers[sig] = signal.signal(sig, _on_signal)
            except ValueError:
                pass  # not the main thread; rely on lease timeout
    try:
        return _queue_worker_loop(q=_QueueDir(queue_dir),
                                  worker_id=worker_id,
                                  lease_timeout=lease_timeout,
                                  heartbeat=heartbeat, poll=poll,
                                  max_idle=max_idle)
    finally:
        for sig, handler in previous_handlers.items():
            signal.signal(sig, handler)


def _queue_worker_loop(q: "_QueueDir", worker_id: Optional[str],
                       lease_timeout: float, heartbeat: float,
                       poll: float, max_idle: Optional[float]) -> int:
    if worker_id is None:
        worker_id = f"{socket.gethostname()}-{os.getpid()}"
    q.ensure()
    completed = 0
    idle_since = time.monotonic()
    while True:
        keys = q.batch_keys()
        if keys is None:
            if max_idle is None or time.monotonic() - idle_since > max_idle:
                return completed
            time.sleep(poll)
            continue
        missing = [k for k in keys if not q.has_result(k)]
        if not missing:
            return completed
        progressed = False
        for key in missing:
            if q.has_result(key) or \
                    not q.try_claim(key, worker_id, lease_timeout):
                continue
            try:
                if q.has_result(key):
                    continue        # finished by the lease's previous holder
                try:
                    cell = q.load_task(key)
                except (OSError, pickle.UnpicklingError, EOFError):
                    continue        # batch retired under us; re-check manifest
                with q.lease_heartbeat(key, heartbeat):
                    outcome = _run_cell_shielded(cell)
                q.write_result(key, outcome)
                completed += 1
                progressed = True
            finally:
                q.release(key)
        if progressed:
            idle_since = time.monotonic()
        elif max_idle is not None and \
                time.monotonic() - idle_since > max_idle:
            return completed
        else:
            time.sleep(poll)


class QueueBackend:
    """Distribute cells through a shared-directory work queue.

    ``workers`` local worker processes are spawned against ``queue_dir``
    (0 = rely entirely on external joiners — ``repro.cli worker`` from
    any process or host sharing the filesystem). The driver publishes
    the batch, waits for the shared result store to fill, reduces in
    deterministic cell order, and retires the batch. If every local
    worker dies with work outstanding, their leases go stale and the
    driver reclaims and drains the remainder inline, so a killed worker
    delays a batch but never loses it.

    ``wait_timeout`` bounds the wait for external progress (``None`` =
    wait forever); it only trips when no local worker is alive to make
    progress.
    """

    name = "queue"
    needs_keys = True

    def __init__(
        self,
        queue_dir: os.PathLike = DEFAULT_QUEUE_DIR,
        workers: int = 2,
        lease_timeout: float = 60.0,
        heartbeat: float = 5.0,
        poll: float = 0.05,
        wait_timeout: Optional[float] = None,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0 (0 = external only)")
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        self.queue_dir = Path(queue_dir)
        self.workers = workers
        self.lease_timeout = lease_timeout
        self.heartbeat = heartbeat
        self.poll = poll
        self.wait_timeout = wait_timeout

    def run(self, cells: Sequence[EvalCell],
            keys: Optional[Sequence[str]] = None) -> List[Outcome]:
        if not cells:
            return []
        if keys is None:
            keys = [cell_key(cell) for cell in cells]
        _check_picklable(cells)
        q = _QueueDir(self.queue_dir)
        q.ensure()
        # Dedupe by fingerprint: identical cells are one task, and a
        # result already present (a previous batch raced ahead, or an
        # external writer) is reused as-is — recomputing it would
        # produce the same bytes.
        unique: Dict[str, EvalCell] = {}
        for key, cell in zip(keys, cells):
            if key not in unique:
                unique[key] = cell
        for key, cell in unique.items():
            if not q.has_result(key):
                q.write_task(key, cell)
        q.write_batch(list(unique))

        n_local = self.workers
        if n_local > 0 and not _spawn_is_safe():
            warnings.warn(
                "__main__ is not importable by spawned workers (stdin "
                "script?); draining the queue in-process",
                RuntimeWarning, stacklevel=2)
            n_local = 0
        procs = []
        ctx = mp.get_context("spawn")
        for i in range(n_local):
            proc = ctx.Process(
                target=queue_worker_loop,
                kwargs=dict(queue_dir=str(self.queue_dir),
                            worker_id=f"local-{i}",
                            lease_timeout=self.lease_timeout,
                            heartbeat=self.heartbeat, poll=self.poll,
                            handle_signals=True),
                daemon=True)
            proc.start()
            procs.append(proc)
        if n_local == 0 and self.workers > 0:
            # Spawn-unsafe fallback: drain inline (leases of dead owners
            # are irrelevant here; nothing else is running locally).
            queue_worker_loop(self.queue_dir, worker_id="driver",
                              lease_timeout=self.lease_timeout,
                              heartbeat=self.heartbeat, poll=self.poll)

        deadline = None if self.wait_timeout is None \
            else time.monotonic() + self.wait_timeout
        try:
            while True:
                missing = [k for k in unique if not q.has_result(k)]
                if not missing:
                    break
                if procs and not any(p.is_alive() for p in procs):
                    # Every local worker exited with work outstanding
                    # (crash/kill): any lease they held stops
                    # heartbeating, so reclaim-by-staleness applies.
                    # Drain the remainder inline and re-check.
                    queue_worker_loop(
                        self.queue_dir, worker_id="driver-drain",
                        lease_timeout=self.lease_timeout,
                        heartbeat=self.heartbeat, poll=self.poll,
                        max_idle=max(4 * self.lease_timeout, 1.0))
                    procs = []
                    continue
                if deadline is not None and time.monotonic() > deadline:
                    raise RuntimeError(
                        f"queue backend timed out after "
                        f"{self.wait_timeout}s with {len(missing)} cells "
                        f"outstanding in {self.queue_dir}; join workers "
                        f"with: python -m repro.cli worker --queue-dir "
                        f"{self.queue_dir}")
                time.sleep(self.poll)
            outcomes = [q.read_result(key) for key in keys]
        finally:
            for proc in procs:
                proc.join(timeout=10.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=10.0)
        q.cleanup_batch(list(unique))
        return outcomes


def make_backend(
    spec: str,
    workers: Optional[int] = None,
    queue_dir: Optional[os.PathLike] = None,
    lease_timeout: float = 60.0,
    wait_timeout: Optional[float] = None,
):
    """Resolve a ``--backend`` name to a backend instance.

    ``workers`` means pool size for ``pool`` and local worker-process
    count for ``queue`` (0 = external workers only); ``serial`` ignores
    it. ``queue_dir`` defaults to :data:`DEFAULT_QUEUE_DIR`.
    """
    if spec == "serial":
        return SerialBackend()
    if spec == "pool":
        return PoolBackend(workers)
    if spec == "queue":
        return QueueBackend(
            queue_dir=queue_dir if queue_dir is not None else DEFAULT_QUEUE_DIR,
            workers=workers if workers is not None else 2,
            lease_timeout=lease_timeout,
            wait_timeout=wait_timeout)
    raise ValueError(
        f"unknown backend {spec!r}; choose from {', '.join(BACKEND_NAMES)}")

