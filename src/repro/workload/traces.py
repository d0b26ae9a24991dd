"""Trace persistence (JSON / JSONL / sharded JSONL, optionally gzipped).

Traces round-trip exactly (modulo runtime state, which is reset on load),
so a generated workload can be pinned to disk and replayed under every
scheduler — the comparison experiments rely on this to give all policies
identical inputs.

Four containers, chosen by path:

* ``*.json`` / ``*.json.gz`` — one JSON array (the original format;
  loading and saving materialize the whole trace);
* ``*.jsonl`` / ``*.jsonl.gz`` — one job payload per line, readable and
  writable as a **stream** (:func:`iter_trace` / :func:`save_trace`
  with any iterable), the container for archive-scale imports;
* a **shard directory** — ``part-00000.jsonl[.gz]`` … plus a
  ``MANIFEST.json`` naming the shards in order
  (:func:`save_trace_shards`), so a multi-million-job trace can be
  moved, diffed, and re-read shard by shard.

All gzip writes pin the gzip header (``mtime=0``, no embedded
filename), so the *bytes on disk* — not just the decoded JSON — are a
deterministic function of the jobs, which lets tests and the ingestion
pipeline assert byte-identical re-imports (streamed and materialized
import paths write identical files).

The intermediate *payload* form (``trace_payload`` /
``jobs_from_payload``) is the canonical static description of a trace:
plain JSON-compatible dicts carrying only the fields that define a job
(no runtime state, no process-local ``job_id``). The trace-backed
scenarios of :mod:`repro.harness.library` store this form directly so
their cache fingerprints stay stable across processes — and across the
container format a trace happens to live in.
"""

from __future__ import annotations

import gzip
import io
import json
import math
import os
from typing import IO, Iterable, Iterator, List, Sequence

from repro.sim.job import Job
from repro.sim.speedup import AmdahlSpeedup, LinearSpeedup, PowerLawSpeedup, SpeedupModel

__all__ = [
    "save_trace",
    "load_trace",
    "iter_trace",
    "iter_trace_window",
    "count_trace_jobs",
    "save_trace_shards",
    "trace_payload",
    "job_payload",
    "jobs_from_payload",
    "looks_like_trace_path",
    "MANIFEST_NAME",
]

#: Index file naming the shards of a chunked trace directory.
MANIFEST_NAME = "MANIFEST.json"
_SHARD_FORMAT = "repro-trace-shards/1"


def _speedup_to_dict(model: SpeedupModel) -> dict:
    if isinstance(model, AmdahlSpeedup):
        return {"kind": "amdahl", "sigma": model.sigma}
    if isinstance(model, PowerLawSpeedup):
        return {"kind": "powerlaw", "alpha": model.alpha}
    if isinstance(model, LinearSpeedup):
        return {"kind": "linear"}
    raise TypeError(f"unsupported speedup model {type(model).__name__}")


def _finite(value, name: str, where: str) -> float:
    """``float(value)``, rejecting NaN and infinities (JSON decoders
    accept ``NaN``/``Infinity``; either would poison a simulation)."""
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{where}: field {name!r} must be a finite number, "
                         f"got {value!r}")
    return x


#: The largest parallelism bound the int64 ``min_par``/``max_par``
#: columns of :class:`~repro.sim.soa.StateTables` can hold.
_MAX_PARALLELISM = 2**63 - 1


def _parallelism(value, name: str, where: str) -> int:
    """``int(value)``, rejecting bounds past the int64 columns (a
    ``Job`` would accept them and the simulation's adoption would
    overflow)."""
    k = int(value)
    if k > _MAX_PARALLELISM:
        raise ValueError(f"{where}: field {name!r} must be at most "
                         f"2**63 - 1, got {value!r}")
    return k


def _speedup_from_dict(d: dict, where: str) -> SpeedupModel:
    if not isinstance(d, dict):
        raise ValueError(f"{where}: field 'speedup' must be an object, "
                         f"got {type(d).__name__}")
    kind = d.get("kind")
    if kind == "amdahl":
        if "sigma" not in d:
            raise ValueError(f"{where}: amdahl speedup missing field 'sigma'")
        return AmdahlSpeedup(_finite(d["sigma"], "sigma", where))
    if kind == "powerlaw":
        if "alpha" not in d:
            raise ValueError(f"{where}: powerlaw speedup missing field 'alpha'")
        return PowerLawSpeedup(_finite(d["alpha"], "alpha", where))
    if kind == "linear":
        return LinearSpeedup()
    raise ValueError(f"{where}: unknown speedup kind {kind!r}")


def job_payload(job: Job) -> dict:
    """The canonical static (JSON-compatible) description of one job."""
    return {
        "arrival_time": job.arrival_time,
        "work": job.work,
        "deadline": job.deadline,
        "min_parallelism": job.min_parallelism,
        "max_parallelism": job.max_parallelism,
        "speedup": _speedup_to_dict(job.speedup_model),
        "affinity": job.affinity,
        "job_class": job.job_class,
        "weight": job.weight,
    }


def trace_payload(jobs: Iterable[Job]) -> List[dict]:
    """The canonical static (JSON-compatible) description of a trace.

    Carries exactly the fields that define each job — no runtime state
    and no process-local ``job_id`` — so two logically identical traces
    produce identical payloads regardless of when or where the ``Job``
    objects were constructed.
    """
    return [job_payload(job) for job in jobs]


_REQUIRED_FIELDS = ("arrival_time", "work", "deadline", "min_parallelism",
                    "max_parallelism", "speedup", "affinity", "job_class")


def _job_from_item(item, where: str) -> Job:
    """One payload dict -> a fresh :class:`Job` (validated, located)."""
    if not isinstance(item, dict):
        raise ValueError(f"{where}: expected an object, "
                         f"got {type(item).__name__}")
    for field in _REQUIRED_FIELDS:
        if field not in item:
            raise ValueError(f"{where}: missing field {field!r}")
    if not isinstance(item["affinity"], dict) or not item["affinity"]:
        raise ValueError(f"{where}: field 'affinity' must be a non-empty "
                         "object mapping platform -> speed factor")
    try:
        return Job(
            arrival_time=int(item["arrival_time"]),
            work=_finite(item["work"], "work", where),
            deadline=_finite(item["deadline"], "deadline", where),
            min_parallelism=_parallelism(item["min_parallelism"],
                                         "min_parallelism", where),
            max_parallelism=_parallelism(item["max_parallelism"],
                                         "max_parallelism", where),
            speedup_model=_speedup_from_dict(item["speedup"], where),
            affinity={k: _finite(v, f"affinity[{k!r}]", where)
                      for k, v in item["affinity"].items()},
            job_class=str(item["job_class"]),
            weight=_finite(item.get("weight", 1.0), "weight", where),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ValueError) and str(exc).startswith(where):
            raise
        raise ValueError(f"{where}: invalid job record ({exc})") from exc


def jobs_from_payload(payload) -> List[Job]:
    """Reconstruct fresh :class:`~repro.sim.job.Job` objects from a payload.

    Raises :class:`ValueError` naming the offending record and field on
    malformed input instead of surfacing a bare ``KeyError``.
    """
    if not isinstance(payload, list):
        raise ValueError(
            f"trace payload must be a JSON array of job records, "
            f"got {type(payload).__name__}")
    return [_job_from_item(item, f"trace record {i}")
            for i, item in enumerate(payload)]


def _is_gzip(path: str) -> bool:
    return str(path).endswith(".gz")


def _is_jsonl(path: str) -> bool:
    return str(path).endswith((".jsonl", ".jsonl.gz"))


def _is_shard_dir(path: str) -> bool:
    return os.path.isdir(path) and \
        os.path.isfile(os.path.join(path, MANIFEST_NAME))


def looks_like_trace_path(path: str) -> bool:
    """Whether ``path`` names a trace container this module can read:
    a ``.json[.gz]`` / ``.jsonl[.gz]`` file or a shard directory."""
    return str(path).endswith((".json", ".json.gz", ".jsonl", ".jsonl.gz")) \
        or _is_shard_dir(path)


class _DetGzipTextWriter:
    """Text writer whose gzip header is pinned (mtime=0, no filename):
    written bytes depend only on the content.

    ``GzipFile(fileobj=...)`` does not close the file it wraps, so this
    wrapper closes the whole chain — trailer flushed, fd released —
    deterministically on ``close()``/``__exit__`` instead of relying on
    refcount GC.
    """

    def __init__(self, path: str) -> None:
        self._raw = open(path, "wb")
        try:
            gz = gzip.GzipFile(filename="", mode="wb", fileobj=self._raw,
                               mtime=0)
            self._text = io.TextIOWrapper(gz, encoding="utf-8",
                                          write_through=True)
        except BaseException:
            self._raw.close()
            raise

    def write(self, s: str) -> int:
        return self._text.write(s)

    def close(self) -> None:
        try:
            self._text.close()      # flushes + writes the gzip trailer
        finally:
            self._raw.close()

    def __enter__(self) -> "_DetGzipTextWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _det_gzip_writer(path: str) -> "_DetGzipTextWriter":
    return _DetGzipTextWriter(path)


def _text_writer(path: str) -> IO[str]:
    return _det_gzip_writer(path) if _is_gzip(path) \
        else open(path, "w", encoding="utf-8")


def _text_reader(path: str) -> IO[str]:
    if _is_gzip(path):
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, encoding="utf-8")


def save_trace(jobs: Iterable[Job], path: str) -> int:
    """Write a job trace (static fields only); returns the job count.

    ``*.jsonl`` / ``*.jsonl.gz`` paths are written one payload line per
    job, consuming ``jobs`` as a stream — pair with the streaming
    normalizer for archive-scale imports in bounded memory. ``*.json``
    / ``*.json.gz`` paths keep the original one-array layout (the
    payload list is materialized). All ``*.gz`` writes pin the gzip
    header (``mtime=0``), so the written bytes depend only on the jobs.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    if _is_jsonl(path):
        n = 0
        with _text_writer(path) as fh:
            for job in jobs:
                fh.write(json.dumps(job_payload(job)))
                fh.write("\n")
                n += 1
        return n
    payload = trace_payload(jobs)
    text = json.dumps(payload, indent=1)
    with _text_writer(path) as fh:
        fh.write(text)
    return len(payload)


def save_trace_shards(jobs: Iterable[Job], directory: str,
                      jobs_per_shard: int = 100_000,
                      compress: bool = True) -> dict:
    """Write ``jobs`` as sharded JSONL under ``directory``; returns the
    manifest.

    Shards are ``part-00000.jsonl[.gz]``, ``part-00001…`` with at most
    ``jobs_per_shard`` jobs each, plus a ``MANIFEST.json`` naming them
    in order — the chunked container for traces too large to live in
    one file. ``jobs`` is consumed as a stream; bytes are deterministic
    (pinned gzip headers, sorted manifest keys).
    """
    if jobs_per_shard <= 0:
        raise ValueError("jobs_per_shard must be positive")
    os.makedirs(directory, exist_ok=True)
    suffix = ".jsonl.gz" if compress else ".jsonl"
    shards: List[str] = []
    shard_jobs: List[int] = []
    writer: IO[str] = None
    in_shard = 0
    total = 0
    try:
        for job in jobs:
            if writer is None:
                name = f"part-{len(shards):05d}{suffix}"
                writer = _text_writer(os.path.join(directory, name))
                shards.append(name)
                in_shard = 0
            writer.write(json.dumps(job_payload(job)))
            writer.write("\n")
            in_shard += 1
            total += 1
            if in_shard >= jobs_per_shard:
                writer.close()
                writer = None
                shard_jobs.append(in_shard)
    finally:
        if writer is not None:
            writer.close()
            shard_jobs.append(in_shard)
    manifest = {
        "format": _SHARD_FORMAT,
        "shards": shards,
        "shard_jobs": shard_jobs,
        "n_jobs": total,
    }
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return manifest


def _read_manifest(directory: str) -> dict:
    path = os.path.join(directory, MANIFEST_NAME)
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"shard manifest {path!r} is not valid JSON: "
                         f"{exc}") from exc
    if not isinstance(manifest, dict) or \
            manifest.get("format") != _SHARD_FORMAT:
        raise ValueError(
            f"{path!r} is not a trace shard manifest "
            f"(expected format {_SHARD_FORMAT!r})")
    return manifest


def _iter_jsonl(path: str) -> Iterator[Job]:
    with _text_reader(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{os.path.basename(str(path))} line {lineno}"
            try:
                item = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where}: not valid JSON: {exc}") from exc
            yield _job_from_item(item, where)


def iter_trace(path: str) -> Iterator[Job]:
    """Stream jobs from any trace container (fresh runtime state).

    ``.jsonl[.gz]`` files and shard directories are read line by line
    and shard by shard — memory stays bounded no matter the trace size;
    ``.json[.gz]`` files are loaded whole then yielded. Malformed
    content raises :class:`ValueError` naming the offending location.
    """
    if _is_shard_dir(path):
        manifest = _read_manifest(path)
        for name in manifest.get("shards", ()):
            yield from _iter_jsonl(os.path.join(path, name))
        return
    if _is_jsonl(path):
        yield from _iter_jsonl(path)
        return
    yield from _load_json_array(path)


def iter_trace_window(path: str, start: int, count: int) -> Iterator[Job]:
    """Stream ``jobs[start : start + count]`` from any trace container.

    For shard directories whose manifest carries per-shard job counts
    (``shard_jobs``, written by :func:`save_trace_shards`), shards that
    lie entirely before the window are *skipped without being opened* —
    reading one window of a large archive touches only the shards that
    intersect it. Other containers fall back to streaming from the
    front and discarding the prefix.
    """
    if start < 0 or count < 0:
        raise ValueError("start and count must be non-negative")
    if count == 0:
        return
    end = start + count
    if _is_shard_dir(path):
        manifest = _read_manifest(path)
        shards = manifest.get("shards", ())
        shard_jobs = manifest.get("shard_jobs", ())
        if len(shard_jobs) == len(shards):
            pos = 0
            for name, n in zip(shards, shard_jobs):
                if pos >= end:
                    return
                if pos + n <= start:
                    pos += n        # whole shard before the window: skip
                    continue
                for job in _iter_jsonl(os.path.join(path, name)):
                    if pos >= end:
                        return
                    if pos >= start:
                        yield job
                    pos += 1
            return
    it = iter_trace(path)
    for i, job in enumerate(it):
        if i >= end:
            return
        if i >= start:
            yield job


def count_trace_jobs(path: str) -> int:
    """Number of jobs in a trace container.

    Shard directories answer from the manifest (no shard is opened);
    other containers are streamed and counted.
    """
    if _is_shard_dir(path):
        manifest = _read_manifest(path)
        n = manifest.get("n_jobs")
        if isinstance(n, int):
            return n
    return sum(1 for _ in iter_trace(path))


def _load_json_array(path: str) -> List[Job]:
    with _text_reader(path) as fh:
        raw = fh.read()
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"trace file {path!r} is not valid JSON: {exc}") from exc
    return jobs_from_payload(payload)


def load_trace(path: str) -> List[Job]:
    """Load a trace saved by :func:`save_trace` / :func:`save_trace_shards`
    (fresh runtime state).

    Accepts ``.json``, ``.json.gz``, ``.jsonl``, ``.jsonl.gz``, and
    shard directories; malformed content raises a :class:`ValueError`
    naming the offending record and field.
    """
    if _is_shard_dir(path) or _is_jsonl(path):
        return list(iter_trace(path))
    return _load_json_array(path)
