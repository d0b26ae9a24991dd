"""Raw trace records: the format-neutral intermediate of ingestion.

Every adapter (SWF, columnar CSV) parses its archive into a stream of
:class:`RawJobRecord` — plain numbers in *seconds* and *processors*,
with ``-1`` preserved as the archives' "unknown" sentinel — plus one
:class:`TraceMeta` describing the source. Normalization
(:mod:`repro.workload.ingest.normalize`) then maps records into the
repo's :class:`~repro.sim.job.Job` model independently of where they
came from.
"""

from __future__ import annotations

import gzip
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import IO, Dict, Iterator, Sequence, Tuple

from repro.util.errors import InputError

__all__ = ["RawJobRecord", "TraceMeta", "record_stats", "open_text"]

#: What a damaged archive raises while it is read: gzip opens lazily, so
#: a bad header or truncated stream surfaces in the readers' loops.
_DECODE_ERRORS = (gzip.BadGzipFile, EOFError, zlib.error, UnicodeDecodeError)


@contextmanager
def open_text(path: str) -> Iterator[IO[str]]:
    """Open an archive file for text reading, gunzipping ``*.gz`` paths.

    Decoding errors are replaced, not raised — archive logs occasionally
    carry stray bytes in comment fields. A path that cannot be opened,
    or whose contents cannot be decompressed or decoded while the block
    reads them, raises :class:`~repro.util.errors.InputError` naming it.
    """
    try:
        if str(path).endswith(".gz"):
            handle = gzip.open(path, "rt", encoding="utf-8", errors="replace")
        else:
            handle = open(path, encoding="utf-8", errors="replace")
    except OSError as exc:
        raise InputError(f"{path}: cannot read: {exc.strerror or exc}") \
            from None
    with handle:
        try:
            yield handle
        except _DECODE_ERRORS as exc:
            raise InputError(f"{path}: cannot decode: {exc}") from None

#: Archive sentinel for "unknown / not applicable".
UNKNOWN = -1.0


@dataclass(frozen=True)
class RawJobRecord:
    """One job as the archive recorded it (times in seconds).

    Field semantics follow the Standard Workload Format; the columnar
    adapter maps its columns onto the same names. ``-1`` means the
    archive did not record the value.
    """

    job_id: int
    submit_time: float          # seconds since trace start
    wait_time: float = UNKNOWN  # seconds in queue
    run_time: float = UNKNOWN   # seconds of execution
    processors: int = -1        # processors actually allocated
    requested_time: float = UNKNOWN   # user runtime estimate (seconds)
    requested_processors: int = -1
    status: int = -1            # SWF: 1 completed, 0 failed, 5 cancelled
    user: int = -1
    group: int = -1

    def usable(self) -> bool:
        """Whether the record carries enough signal to become a job."""
        return self.submit_time >= 0 and self.run_time > 0 and self.width() > 0

    def width(self) -> int:
        """Best-known processor count (allocated, else requested)."""
        if self.processors > 0:
            return self.processors
        if self.requested_processors > 0:
            return self.requested_processors
        return -1


@dataclass(frozen=True)
class TraceMeta:
    """Provenance and header information for one parsed archive."""

    source: str                      # file name or label
    format: str                      # "swf" | "columnar"
    max_procs: int = -1              # header MaxProcs, if present
    unix_start_time: int = -1        # header UnixStartTime, if present
    n_records: int = 0               # records parsed
    n_skipped: int = 0               # lines/records dropped while parsing
    n_unusable: int = 0              # parsed records failing usable()
    header: Tuple[Tuple[str, str], ...] = ()   # raw header key/value pairs


def record_stats(records: Sequence[RawJobRecord]) -> Dict[str, float]:
    """Summary statistics of a raw record stream (for ``trace stats``)."""
    if not records:
        return {"n_jobs": 0}
    usable = [r for r in records if r.usable()]
    submits = [r.submit_time for r in records]
    span = max(submits) - min(submits)
    runtimes = sorted(r.run_time for r in usable) or [0.0]
    widths = sorted(r.width() for r in usable) or [0]
    total_core_seconds = sum(r.run_time * r.width() for r in usable)

    def pct(values, q):
        if not values:
            return 0.0
        idx = min(len(values) - 1, int(q * (len(values) - 1)))
        return float(values[idx])

    return {
        "n_jobs": len(records),
        "n_usable": len(usable),
        "n_unusable": len(records) - len(usable),
        "n_zero_runtime": sum(1 for r in records if r.run_time == 0),
        "span_seconds": float(span),
        "mean_interarrival_s": float(span / max(1, len(records) - 1)),
        "runtime_p50_s": pct(runtimes, 0.5),
        "runtime_p95_s": pct(runtimes, 0.95),
        "mean_runtime_s": float(sum(runtimes) / len(runtimes)),
        "width_p50": pct(widths, 0.5),
        "width_max": float(max(widths)),
        "total_core_seconds": float(total_core_seconds),
    }
