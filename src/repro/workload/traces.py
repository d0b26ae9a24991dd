"""Trace persistence (JSON / JSONL / sharded JSONL, optionally gzipped).

Traces round-trip exactly (modulo runtime state, which is reset on load),
so a generated workload can be pinned to disk and replayed under every
scheduler — the comparison experiments rely on this to give all policies
identical inputs.

Four containers, chosen by path:

* ``*.json`` / ``*.json.gz`` — one JSON array (the original format;
  loading and saving materialize the whole trace);
* ``*.jsonl`` / ``*.jsonl.gz`` — one job payload per line, readable and
  writable as a **stream** (:func:`iter_trace_lines` / :func:`save_trace`
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
(no runtime state, no ``job_id``: that is the job's slot in whichever
simulation runs it). The trace-backed
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
import re
import shutil
from typing import IO, Iterable, Iterator, List, Optional, Tuple

from repro.sim.job import Job
from repro.sim.speedup import AmdahlSpeedup, LinearSpeedup, PowerLawSpeedup, SpeedupModel
from repro.util.errors import InputError
from repro.util.io import atomic_writer

__all__ = [
    "save_trace",
    "load_trace",
    "iter_trace",
    "iter_trace_lines",
    "save_trace_shards",
    "trace_payload",
    "job_payload",
    "canonical_line",
    "jobs_from_payload",
    "looks_like_trace_path",
    "MANIFEST_NAME",
]

#: Index file naming the shards of a chunked trace directory.
MANIFEST_NAME = "MANIFEST.json"
_SHARD_FORMAT = "repro-trace-shards/1"
_SHARD_NAME = re.compile(r"part-\d{5}\.jsonl(\.gz)?")


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
        raise InputError(f"{where}: field {name!r} must be a finite number, "
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
        raise InputError(f"{where}: field {name!r} must be at most "
                         f"2**63 - 1, got {value!r}")
    return k


def _speedup_from_dict(d: dict, where: str) -> SpeedupModel:
    if not isinstance(d, dict):
        raise InputError(f"{where}: field 'speedup' must be an object, "
                         f"got {type(d).__name__}")
    kind = d.get("kind")
    if kind == "amdahl":
        if "sigma" not in d:
            raise InputError(f"{where}: amdahl speedup missing field 'sigma'")
        return AmdahlSpeedup(_finite(d["sigma"], "sigma", where))
    if kind == "powerlaw":
        if "alpha" not in d:
            raise InputError(f"{where}: powerlaw speedup missing field 'alpha'")
        return PowerLawSpeedup(_finite(d["alpha"], "alpha", where))
    if kind == "linear":
        return LinearSpeedup()
    raise InputError(f"{where}: unknown speedup kind {kind!r}")


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


#: One encoder for every canonical line: the bytes of
#: ``json.dumps(payload, sort_keys=True)``, without building an encoder
#: per call.
_CANONICAL = json.JSONEncoder(sort_keys=True)


def canonical_line(job: Job) -> str:
    """The job's payload as one JSON line with sorted keys: the same
    text however the job was stored, which content digests hash."""
    return _CANONICAL.encode(job_payload(job))


def trace_payload(jobs: Iterable[Job]) -> List[dict]:
    """The canonical static (JSON-compatible) description of a trace.

    Carries exactly the fields that define each job — no runtime state
    and no ``job_id`` — so two logically identical traces
    produce identical payloads regardless of when or where the ``Job``
    objects were constructed.
    """
    return [job_payload(job) for job in jobs]


_REQUIRED_FIELDS = ("arrival_time", "work", "deadline", "min_parallelism",
                    "max_parallelism", "speedup", "affinity", "job_class")


def _job_from_item(item, where: str) -> Job:
    """One payload dict -> a fresh :class:`Job` (validated, located)."""
    if not isinstance(item, dict):
        raise InputError(f"{where}: expected an object, "
                         f"got {type(item).__name__}")
    for field in _REQUIRED_FIELDS:
        if field not in item:
            raise InputError(f"{where}: missing field {field!r}")
    if not isinstance(item["affinity"], dict) or not item["affinity"]:
        raise InputError(f"{where}: field 'affinity' must be a non-empty "
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
    except InputError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{where}: invalid job record ({exc})") from exc


def jobs_from_payload(payload, source: str = "") -> List[Job]:
    """Reconstruct fresh :class:`~repro.sim.job.Job` objects from a payload.

    Raises :class:`~repro.util.errors.InputError` naming the offending
    record and field (after the file ``source``, when given) on
    malformed input instead of surfacing a bare ``KeyError``.
    """
    prefix = f"{source}: " if source else ""
    if not isinstance(payload, list):
        raise InputError(
            f"{prefix}trace payload must be a JSON array of job records, "
            f"got {type(payload).__name__}")
    return [_job_from_item(item, f"{prefix}trace record {i}")
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
    """Text writer over the binary file ``raw`` whose gzip header is
    pinned (mtime=0, no filename): written bytes depend only on the
    content.

    ``GzipFile(fileobj=...)`` does not close the file it wraps, so this
    wrapper closes the whole chain — trailer flushed, fd released —
    deterministically on ``close()``/``__exit__`` instead of relying on
    refcount GC.
    """

    def __init__(self, raw: IO[bytes]) -> None:
        self._raw = raw
        gz = gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0)
        # Buffered: zlib sees one ~8 KiB block at a time, not every
        # write; the compressed bytes are the same either way.
        self._text = io.TextIOWrapper(gz, encoding="utf-8")

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


def _text_writer(path: str) -> IO[str]:
    return _DetGzipTextWriter(open(path, "wb")) if _is_gzip(path) \
        else open(path, "w", encoding="utf-8")


def _text_reader(path: str) -> IO[str]:
    try:
        if _is_gzip(path):
            return gzip.open(path, "rt", encoding="utf-8")
        return open(path, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{path}: cannot read: {exc.strerror or exc}") \
            from None


def save_trace(jobs: Iterable[Job], path: str) -> int:
    """Write a job trace (static fields only); returns the job count.

    ``*.jsonl`` / ``*.jsonl.gz`` paths are written one payload line per
    job, consuming ``jobs`` as a stream — pair with the streaming
    normalizer for archive-scale imports in bounded memory. ``*.json``
    / ``*.json.gz`` paths keep the original one-array layout (the
    payload list is materialized). All ``*.gz`` writes pin the gzip
    header (``mtime=0``), so the written bytes depend only on the jobs.
    The file replaces ``path`` atomically: when ``jobs`` raises, an
    existing ``path`` is left as it was and a new one is not created.
    """
    with atomic_writer(path, "wb" if _is_gzip(path) else "w") as fh:
        if _is_gzip(path):
            fh = _DetGzipTextWriter(fh)
        with fh:
            if not _is_jsonl(path):
                payload = trace_payload(jobs)
                fh.write(json.dumps(payload, indent=1))
                return len(payload)
            n = 0
            for job in jobs:
                fh.write(json.dumps(job_payload(job)))
                fh.write("\n")
                n += 1
            return n


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

    Everything is written into a new sibling directory first and moved
    into place last, so a write that fails (say, on an unusable input
    mid-stream) creates nothing and leaves an existing ``directory`` as
    it was. A new ``directory`` appears in one rename; into an existing
    one the shards move first and the manifest last, and then the shards
    the old manifest named that the new one does not are deleted.
    """
    if jobs_per_shard <= 0:
        raise ValueError("jobs_per_shard must be positive")
    target = os.path.abspath(directory)
    staging = f"{target}.tmp{os.urandom(8).hex()}"
    os.makedirs(staging)
    try:
        manifest = _write_shards(jobs, staging, jobs_per_shard, compress)
        if not os.path.isdir(target):
            os.rename(staging, target)
        else:
            surplus = set(_named_shards(target)) - set(manifest["shards"])
            for name in manifest["shards"] + [MANIFEST_NAME]:
                os.replace(os.path.join(staging, name),
                           os.path.join(target, name))
            for name in sorted(surplus):
                try:
                    os.remove(os.path.join(target, name))
                except FileNotFoundError:
                    pass
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return manifest


def _named_shards(directory: str) -> List[str]:
    """The shard names the manifest in ``directory`` lists, keeping only
    names :func:`save_trace_shards` writes (so nothing outside the
    directory, and no other file, can be named); none without a readable
    manifest."""
    try:
        shards = _read_manifest(directory).get("shards")
    except (OSError, ValueError):  # missing, undecodable or not a manifest
        return []
    if not isinstance(shards, list):
        return []
    return [name for name in shards
            if isinstance(name, str) and _SHARD_NAME.fullmatch(name)]


def _write_shards(jobs: Iterable[Job], directory: str, jobs_per_shard: int,
                  compress: bool) -> dict:
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
        raise InputError(f"shard manifest {path!r} is not valid JSON: "
                         f"{exc}") from exc
    if not isinstance(manifest, dict) or \
            manifest.get("format") != _SHARD_FORMAT:
        raise InputError(
            f"{path!r} is not a trace shard manifest "
            f"(expected format {_SHARD_FORMAT!r})")
    return manifest


def _jsonl_lines(path: str) -> Iterator[Tuple[int, str]]:
    """``(line number, line)`` for each non-blank line of a JSONL file,
    stripped of surrounding whitespace."""
    with _text_reader(path) as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if line:
                    yield lineno, line
        except (OSError, EOFError, UnicodeDecodeError) as exc:  # gzip, UTF-8
            raise InputError(f"{path}: cannot decode: {exc}") from exc


def _job_from_line(line: str, where: str) -> Job:
    try:
        item = json.loads(line)
    except json.JSONDecodeError as exc:
        raise InputError(f"{where}: not valid JSON: {exc}") from exc
    return _job_from_item(item, where)


def _jsonl_files(path: str) -> Iterator[Tuple[str, Optional[int]]]:
    """The JSONL files of a line container in order, each with its job
    count when a shard manifest states every shard's (``None`` else)."""
    if not _is_shard_dir(path):
        yield path, None
        return
    manifest = _read_manifest(path)
    shards = manifest.get("shards", ())
    counts = manifest.get("shard_jobs", ())
    if len(counts) != len(shards):
        counts = [None] * len(shards)
    for name, n in zip(shards, counts):
        yield os.path.join(path, name), n


def iter_trace_lines(path: str, start: int = 0,
                     count: Optional[int] = None) -> Iterator[Tuple[str, Job]]:
    """Stream ``(line, job)`` for ``jobs[start : start + count]`` (to the
    end when ``count`` is ``None``) of any trace container.

    ``line`` is the job's line as stored, stripped of surrounding
    whitespace, for ``.jsonl[.gz]`` files and shard directories; a
    ``.json[.gz]`` array has no lines, so there it is the job's
    :func:`canonical_line`. Jobs come with fresh runtime state.

    Line containers are read line by line and shard by shard, so memory
    stays bounded whatever the trace size. Shards that a manifest's
    per-shard job counts (``shard_jobs``, written by
    :func:`save_trace_shards`) place entirely before ``start`` are
    skipped without being opened, and lines before ``start`` are counted
    without being decoded. Malformed content raises
    :class:`~repro.util.errors.InputError` naming the offending location.
    """
    if start < 0 or (count is not None and count < 0):
        raise ValueError("start and count must be non-negative")
    if count == 0:
        return
    end = math.inf if count is None else start + count
    if not (_is_shard_dir(path) or _is_jsonl(path)):
        stop = None if count is None else end
        for job in _load_json_array(path)[start:stop]:
            yield canonical_line(job), job
        return
    pos = 0
    for file, n in _jsonl_files(path):
        if n is not None and pos + n <= start:
            pos += n                # whole shard before the window: skip
            continue
        for lineno, line in _jsonl_lines(file):
            if pos >= start:
                yield line, _job_from_line(line, f"{file} line {lineno}")
            pos += 1
            if pos >= end:
                return


def iter_trace(path: str) -> Iterator[Job]:
    """Stream jobs from any trace container (fresh runtime state): the
    jobs of :func:`iter_trace_lines`."""
    for _, job in iter_trace_lines(path):
        yield job


def _load_json_array(path: str) -> List[Job]:
    with _text_reader(path) as fh:
        try:
            payload = json.loads(fh.read())
        except (OSError, EOFError, ValueError) as exc:  # gzip, UTF-8, JSON
            raise InputError(f"{path}: not valid JSON: {exc}") from exc
    return jobs_from_payload(payload, source=str(path))


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
