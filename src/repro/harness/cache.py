"""Persistent on-disk cache of evaluation-cell results.

Every evaluation cell — one (scenario, scheduler, trace-seed) simulation
— is deterministic given its inputs, so its
:class:`~repro.sim.metrics.MetricsReport` can be cached across processes
and sessions. The cache key is a structural fingerprint of everything the
result depends on: the scenario specification (platforms, workload
classes, load, MDP config, engine), the scheduler's name and full
parameterization (for a DRL policy that includes the network weights),
the trace seed, and the tick budget. Any change to any of those inputs
changes the key, so stale entries are never returned — invalidation is
by construction, not by bookkeeping.

Entries are JSON files under a two-level directory fan-out
(``<root>/<key[:2]>/<key>.json``), written atomically (temp file +
``os.replace``) so concurrent writers — the sharded parallel runner of
:mod:`repro.harness.parallel` — can share one cache directory safely:
the worst case under a race is recomputing a cell, never corrupting one.
JSON round-trips Python floats exactly (``repr``-based), so a cache hit
reproduces the uncached result byte-for-byte.

Each cell key is one :func:`fingerprint` call, but its scenario part
(for a trace-backed scenario, every raw record) is the same for all of
a scenario's (scheduler, seed) cells, so
:func:`~repro.harness.parallel.cell_keys` encodes each scenario once
per call (:func:`encode_part`) and ``fingerprint`` writes those bytes
verbatim: the keys stay byte-identical. That memo lives for one call,
never on the scenario or in the process, because scenarios are mutable
dataclasses.
"""

from __future__ import annotations

import atexit
import dataclasses
import hashlib
import json
import os
import weakref
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np

from repro.sim.metrics import MetricsReport, SegmentMetrics
from repro.util.errors import InputError
from repro.util.io import atomic_write_json

__all__ = ["fingerprint", "encode_part", "EncodedPart", "ResultCache",
           "DEFAULT_CACHE_DIR", "encode_result", "decode_result"]

#: Default cache location for the CLI (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Cumulative counter file at the cache root (not an entry: entries live
#: in two-level subdirectories, so ``*/*.json`` globs never match it).
_STATS_NAME = "STATS.json"

#: Bump to invalidate every existing cache entry when the simulation or
#: metrics semantics change incompatibly.
_SCHEMA_VERSION = "1"


class EncodedPart:
    """A :func:`fingerprint` part already in canonical encoding.

    Built by :func:`encode_part`; ``fingerprint`` writes its bytes
    verbatim, so ``fingerprint(encode_part(x), y) == fingerprint(x, y)``.
    """

    __slots__ = ("data",)

    def __init__(self, data: bytes) -> None:
        self.data = data


class _Buffer(bytearray):
    """Collects the bytes :func:`_feed` writes instead of hashing them."""

    update = bytearray.extend


def _feed(h, obj: Any, seen: set) -> None:
    """Feed a canonical byte encoding of ``obj`` into hash ``h``.

    Handles the types that appear in scenario / scheduler specifications:
    scalars, containers (dict items sorted for order independence),
    dataclasses (declared fields only), NumPy arrays and generators
    (weights and seeded RNG state), callables (by qualified name), and —
    as the general fallback — arbitrary objects via their ``__dict__``.
    An :class:`EncodedPart` is written as it is.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        h.update(f"{type(obj).__name__}:{obj!r};".encode())
        return
    if isinstance(obj, float):
        h.update(f"float:{obj!r};".encode())
        return
    if isinstance(obj, EncodedPart):
        h.update(obj.data)
        return
    if isinstance(obj, bytes):
        h.update(b"bytes:")
        h.update(obj)
        return
    if isinstance(obj, np.ndarray):
        h.update(f"ndarray:{obj.dtype!s}:{obj.shape!r}:".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
        return
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        _feed(h, obj.item(), seen)
        return
    # Containers and objects can recurse; guard against cycles.
    oid = id(obj)
    if oid in seen:
        h.update(b"cycle;")
        return
    seen = seen | {oid}
    if isinstance(obj, dict):
        h.update(f"dict:{len(obj)}:".encode())
        for key in sorted(obj, key=repr):
            _feed(h, key, seen)
            _feed(h, obj[key], seen)
        return
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj, key=repr) if isinstance(obj, (set, frozenset)) else obj
        h.update(f"{type(obj).__name__}:{len(items)}:".encode())
        for item in items:
            _feed(h, item, seen)
        return
    if isinstance(obj, np.random.Generator):
        _feed(h, obj.bit_generator.state, seen)
        return
    spec_fn = getattr(obj, "cache_spec", None)
    if callable(spec_fn) and not isinstance(obj, type):
        # The object declares its own canonical parameterization — the
        # inputs that determine its behavior, excluding mutable runtime
        # state (live RNG positions, memo caches) that would make
        # logically identical evaluations fingerprint differently.
        h.update(f"spec:{type(obj).__module__}.{type(obj).__qualname__}:".encode())
        _feed(h, spec_fn(), seen)
        return
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(f"dc:{type(obj).__module__}.{type(obj).__qualname__}:".encode())
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            _feed(h, getattr(obj, f.name), seen)
        return
    if isinstance(obj, type) or callable(obj) and hasattr(obj, "__qualname__"):
        mod = getattr(obj, "__module__", "?")
        h.update(f"callable:{mod}.{obj.__qualname__};".encode())
        if getattr(obj, "__dict__", None):  # parameterized callable object
            _feed(h, vars(obj), seen)
        return
    state = getattr(obj, "__dict__", None)
    if state is not None:
        h.update(f"obj:{type(obj).__module__}.{type(obj).__qualname__}:".encode())
        _feed(h, state, seen)
        return
    # Last resort: repr. Stable for the value types that reach here.
    h.update(f"repr:{obj!r};".encode())


def fingerprint(*parts: Any) -> str:
    """SHA-256 hex digest of the canonical encoding of ``parts``.

    Structural and deterministic across processes and sessions (no
    ``id()``/``hash()`` randomization in the encoding), so the digest is
    a valid persistent cache key.
    """
    h = hashlib.sha256()
    h.update(f"v{_SCHEMA_VERSION};".encode())
    for part in parts:
        _feed(h, part, set())
    return h.hexdigest()


def encode_part(obj: Any) -> EncodedPart:
    """``obj``'s canonical encoding as a :func:`fingerprint` part.

    Encode once, then pass the result to any number of ``fingerprint``
    calls in place of ``obj``: the digests are unchanged. The bytes are
    a snapshot, so re-encode after ``obj`` changes.
    """
    buf = _Buffer()
    _feed(buf, obj, set())
    return EncodedPart(bytes(buf))


def _json_coerce(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def encode_result(result) -> Dict[str, Any]:
    """JSON payload for a cell result (whole-run report or segment).

    :class:`ResultCache` entries hold this envelope; JSON round-trips
    floats exactly, so a decoded hit equals the computed result.
    """
    if isinstance(result, SegmentMetrics):
        return {"kind": "segment", "segment": result.to_payload()}
    if isinstance(result, MetricsReport):
        return {"kind": "report", "report": dataclasses.asdict(result)}
    raise TypeError(f"not a cacheable cell result: {type(result).__name__}")


def decode_result(payload: Dict[str, Any]):
    """Inverse of :func:`encode_result`.

    A payload without ``kind`` raises ``KeyError``, which
    :meth:`ResultCache.get` counts as a miss.
    """
    kind = payload["kind"]
    if kind == "segment":
        return SegmentMetrics.from_payload(payload["segment"])
    if kind == "report":
        return MetricsReport(**payload["report"])
    raise ValueError(f"unknown result kind: {kind!r}")


#: Live caches whose unflushed counter deltas should be folded into
#: STATS.json when the interpreter exits. A WeakSet so registration
#: never keeps a cache (or its directory handle) alive.
_LIVE_CACHES: "weakref.WeakSet" = weakref.WeakSet()


@atexit.register
def _flush_counters_at_exit() -> None:
    """Persist pending counter deltas of still-live caches.

    Callers that never reach an explicit :meth:`ResultCache.flush_counters`
    (workers that exit after a batch, interrupted sweeps) would otherwise
    silently drop their hit/miss history. Only caches with a nonzero
    delta write anything, and failures are swallowed — exit paths must
    not start raising over observability counters.
    """
    for cache in list(_LIVE_CACHES):
        try:
            if any(v != cache._flushed[k] for k, v in cache.stats.items()):
                cache.flush_counters()
        except Exception:
            pass


class ResultCache:
    """Directory-backed map from fingerprint keys to metrics reports.

    ``get``/``put`` are crash- and concurrency-safe: reads treat missing
    or corrupt entries as misses, writes are atomic renames. Hit/miss
    counters are kept per instance (``stats``) so callers can verify
    warm-cache behavior.

    ``max_bytes`` caps the cache's on-disk size: ``put`` evicts the
    least-recently-used entries (file mtime; refreshed on every ``get``
    hit) whenever a cheap running size estimate crosses the cap — so a
    long-lived cache directory no longer grows without bound as
    scenario fingerprints churn, without a full directory scan per
    write. Eviction is also available directly via :meth:`prune`.
    """

    def __init__(self, root: os.PathLike = DEFAULT_CACHE_DIR,
                 max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise InputError("max_bytes must be positive (or None)")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # Portion of the instance counters already folded into the
        # persistent STATS.json, so repeated flushes don't double-count.
        self._flushed = {"hits": 0, "misses": 0, "evictions": 0}
        # Running size estimate so capped puts don't stat the whole
        # directory each time; only drifts upward (overwrites double-
        # count), so it can trigger a spurious prune but never miss one.
        # prune() resets it to the exact post-eviction total.
        self._approx_bytes: Optional[int] = None
        _LIVE_CACHES.add(self)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str):
        """The cached result for ``key`` (report or segment), or ``None``."""
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            report = decode_result(payload)
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        try:
            os.utime(path)          # refresh recency for LRU eviction
        except OSError:
            pass                    # entry may have raced away; still a hit
        return report

    def put(self, key: str, report) -> None:
        """Persist a cell result under ``key`` (atomic, last-writer-wins).

        When ``max_bytes`` is set, least-recently-used entries are
        evicted afterwards until the cache fits.
        """
        path = self._path(key)
        payload = encode_result(report)
        atomic_write_json(path, payload, default=_json_coerce)
        if self.max_bytes is not None:
            if self._approx_bytes is None:
                self._approx_bytes = self.size_bytes()
            else:
                try:
                    self._approx_bytes += path.stat().st_size
                except OSError:
                    pass
            if self._approx_bytes > self.max_bytes:
                self.prune(self.max_bytes)

    def prune(self, max_bytes: Optional[int] = None) -> int:
        """Evict least-recently-used entries until the cache fits.

        ``max_bytes`` defaults to the instance cap. Entries are ranked
        by file mtime (``get`` refreshes it, so recency is use, not
        write); ties break on path for determinism. Concurrent deletes
        are tolerated. Returns the number of entries evicted.
        """
        if max_bytes is None:
            max_bytes = self.max_bytes
        if max_bytes is None:
            raise ValueError("prune needs max_bytes (argument or instance cap)")
        entries = []
        total = 0
        for path in sorted(self.root.glob("*/*.json")):
            try:
                st = path.stat()
            except OSError:
                continue
            entries.append((st.st_mtime, str(path), st.st_size, path))
            total += st.st_size
        if total <= max_bytes:
            self._approx_bytes = total
            return 0
        entries.sort(key=lambda e: (e[0], e[1]))
        removed = 0
        for _, _, size, path in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue            # another process won the race
            total -= size
            removed += 1
        self.evictions += removed
        self._approx_bytes = total
        return removed

    def size_bytes(self) -> int:
        """Total on-disk size of all entries."""
        total = 0
        for path in sorted(self.root.glob("*/*.json")):
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def clear(self) -> int:
        """Delete every entry; returns the number of entries removed."""
        removed = 0
        if self.root.is_dir():
            for path in sorted(self.root.glob("*/*.json")):
                path.unlink()
                removed += 1
        return removed

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in sorted(self.root.glob("*/*.json")))

    @property
    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions}

    def counters(self) -> Dict[str, int]:
        """Cumulative hit/miss/eviction counters across all processes.

        Read from ``<root>/STATS.json``; a missing or corrupt file reads
        as all-zero (the cache itself never depends on these).
        """
        totals = {"hits": 0, "misses": 0, "evictions": 0}
        try:
            with open(self.root / _STATS_NAME, encoding="utf-8") as fh:
                payload = json.load(fh)
            for k in totals:
                totals[k] = int(payload.get(k, 0))
        except (OSError, ValueError, TypeError):
            pass
        return totals

    def flush_counters(self) -> Dict[str, int]:
        """Fold this instance's counter deltas into ``STATS.json``.

        Read-modify-write with an atomic replace: concurrent flushers
        can lose each other's delta but never corrupt the file —
        acceptable for observability counters. Returns the new totals.
        """
        delta = {k: v - self._flushed[k] for k, v in self.stats.items()}
        self._flushed = dict(self.stats)
        totals = self.counters()
        for k, v in delta.items():
            totals[k] += v
        atomic_write_json(self.root / _STATS_NAME, totals)
        return totals
