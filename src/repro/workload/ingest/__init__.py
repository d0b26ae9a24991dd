"""Real-trace ingestion: archive logs -> simulator jobs.

The subsystem turns public cluster archives into first-class workloads:

* :mod:`~repro.workload.ingest.swf` — Standard Workload Format parser
  (Parallel Workloads Archive logs, gzip-aware, sentinel-tolerant);
* :mod:`~repro.workload.ingest.columnar` — configurable columnar-CSV
  adapter for Google/Alibaba-style cluster tables;
* :mod:`~repro.workload.ingest.normalize` — the seeded, deterministic
  mapping from raw records to :class:`~repro.sim.job.Job` (work units,
  fitted speedup, elasticity window, platform eligibility, deadline &
  class synthesis, load rescaling);
* :mod:`~repro.workload.ingest.calibrate` — fit a
  :class:`~repro.workload.generator.WorkloadConfig` to an imported
  trace so the synthetic generator extrapolates beyond the archive.

Two hermetic fixtures are bundled (``fixtures/``) so tests, benchmarks,
and CI exercise the full pipeline without network access; see
:func:`swf_fixture_path` / :func:`columnar_fixture_path`.
"""

from __future__ import annotations

import os

from repro.workload.ingest.calibrate import calibrate_workload, fitted_arrival_rate
from repro.workload.ingest.columnar import (
    ALIBABA_LIKE_SPEC,
    GOOGLE_LIKE_SPEC,
    ColumnarSpec,
    parse_columnar,
    parse_columnar_lines,
    read_columnar,
)
from repro.workload.ingest.normalize import (
    BE_CLASS,
    TC_CLASS,
    IngestConfig,
    IngestStats,
    count_clamps,
    measured_load,
    normalize_records,
)
from repro.workload.ingest.records import RawJobRecord, TraceMeta, record_stats
from repro.workload.ingest.stream import (
    UnsortedStreamError,
    stream_normalize,
    stream_normalize_columnar,
    stream_normalize_swf,
)
from repro.workload.ingest.swf import parse_swf, parse_swf_lines, read_swf

__all__ = [
    "RawJobRecord", "TraceMeta", "record_stats",
    "parse_swf", "parse_swf_lines", "read_swf",
    "ColumnarSpec", "parse_columnar", "parse_columnar_lines", "read_columnar",
    "GOOGLE_LIKE_SPEC", "ALIBABA_LIKE_SPEC",
    "IngestConfig", "IngestStats", "normalize_records", "measured_load",
    "count_clamps",
    "stream_normalize", "stream_normalize_swf", "stream_normalize_columnar",
    "UnsortedStreamError",
    "TC_CLASS", "BE_CLASS",
    "calibrate_workload", "fitted_arrival_rate",
    "swf_fixture_path", "columnar_fixture_path",
]

_FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def swf_fixture_path() -> str:
    """Path of the bundled hermetic SWF fixture trace."""
    return os.path.join(_FIXTURES, "sample.swf")


def columnar_fixture_path() -> str:
    """Path of the bundled hermetic gzipped columnar-CSV fixture trace."""
    return os.path.join(_FIXTURES, "sample_jobs.csv.gz")
