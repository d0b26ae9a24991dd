"""Named scenario library: real-trace-backed scenarios + a registry.

Two :class:`~repro.harness.scenario.Scenario` subclasses make imported
archive traces first-class experimental settings:

* :class:`TraceBackedScenario` holds the parsed raw records and an
  :class:`~repro.workload.ingest.normalize.IngestConfig`;
  ``trace(seed)`` re-runs the seeded normalization, so different trace
  seeds draw *paired variants* of the same archive (identical arrivals
  and demands, fresh class/deadline synthesis) exactly as the synthetic
  generator draws paired traces from one workload config. Its
  ``workload`` field is the archive's *calibrated* surrogate
  (:func:`~repro.workload.ingest.calibrate.calibrate_workload`), so the
  inherited ``train_env`` samples synthetic extrapolations of the trace.
* :class:`FixedTraceScenario` replays one pinned trace file verbatim
  (every seed yields the same jobs) — the setting for "run every
  scheduler on exactly this imported trace".

Both are plain dataclasses over structural, picklable state (records /
payload dicts — never live :class:`~repro.sim.job.Job` objects, whose
runtime state would poison the digest), so the persistent
:class:`~repro.harness.cache.ResultCache` fingerprint and the sharded
parallel runner work on them **unchanged**: same file + same ingest
config => same fingerprint, in every process, forever.

The module also keeps the *named scenario registry* the CLI's
``--scenario`` flag resolves against; :func:`register_scenario` lets
experiment code add entries.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.harness.scenario import Scenario, standard_scenario
from repro.sim.job import Job
from repro.sim.platform import Platform
from repro.workload.ingest.calibrate import calibrate_workload
from repro.workload.ingest.columnar import ColumnarSpec, parse_columnar
from repro.workload.ingest.normalize import (
    IngestConfig,
    measured_load,
    normalize_records,
)
from repro.workload.ingest.records import RawJobRecord
from repro.workload.ingest.swf import parse_swf
from repro.workload.traces import (
    canonical_line,
    iter_trace_lines,
    job_payload,
    jobs_from_payload,
    load_trace,
    trace_payload,
)

__all__ = [
    "TraceBackedScenario",
    "FixedTraceScenario",
    "TraceWindowScenario",
    "plan_trace_windows",
    "trace_payloads",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "TRACE_DIR_ENV",
]

#: Environment variable attaching registry-style names to local trace
#: archives: ``get_scenario("kit-fh2")`` resolves
#: ``$REPRO_TRACE_DIR/kit-fh2[.json[.gz]|.jsonl[.gz]|/]`` when the name
#: is not a registered scenario.
TRACE_DIR_ENV = "REPRO_TRACE_DIR"


def _default_platforms() -> List[Platform]:
    return [Platform("cpu", 24, 1.0), Platform("gpu", 8, 1.0)]


def _spec_without_source(scenario) -> dict:
    """A scenario's dataclass fields minus provenance (``source``)."""
    import dataclasses

    return {f.name: getattr(scenario, f.name)
            for f in dataclasses.fields(scenario) if f.name != "source"}


@dataclass
class TraceBackedScenario(Scenario):
    """A scenario whose traces are seeded normalizations of one archive.

    Construct via :meth:`from_swf`, :meth:`from_columnar`, or
    :meth:`from_records`; the constructors parse the archive once,
    normalize it with ``config.seed`` to calibrate the synthetic
    surrogate and measure the offered load, and store only structural
    state (records + config) so the instance pickles cheaply and
    fingerprints stably.
    """

    records: Tuple[RawJobRecord, ...] = ()
    ingest: IngestConfig = field(default_factory=IngestConfig)
    source: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.records:
            raise ValueError(
                "TraceBackedScenario needs at least one raw record; "
                "use from_swf/from_columnar/from_records")

    def cache_spec(self) -> dict:
        """Canonical parameterization for the persistent result cache.

        Everything that determines an evaluation result — but not
        ``source``, which is provenance: the same records and config
        parsed from differently-named (or differently-containered)
        copies of an archive must share a cache key.
        """
        return _spec_without_source(self)

    def trace(self, seed: int) -> List[Job]:
        """A paired variant of the archive trace for ``seed``.

        Arrivals, demands, and elasticity windows come from the archive
        (identical across seeds); class membership, platform
        eligibility, and deadlines are re-synthesized from ``seed``.
        """
        return normalize_records(self.records, self.ingest, self.platforms,
                                 seed=seed)

    def with_target_load(self, load: float) -> "TraceBackedScenario":
        """The same archive re-normalized to a different offered load.

        Re-runs the seeded normalization with ``target_load`` replaced —
        the real-trace analogue of :meth:`Scenario.with_load`, and what
        lets the load-sweep experiments dial a trace-backed scenario
        through the paper's load axis. ``max_ticks`` is recomputed for
        the rescaled arrival axis (lowering the load stretches it), so
        every swept point simulates the whole trace rather than
        silently truncating at the original horizon.
        """
        from dataclasses import replace as dc_replace

        return type(self).from_records(
            self.records, dc_replace(self.ingest, target_load=load),
            self.platforms, source=self.source, core=self.core,
            max_ticks=None, engine=self.engine)

    # --- constructors --------------------------------------------------
    @classmethod
    def from_records(
        cls,
        records: Sequence[RawJobRecord],
        ingest: Optional[IngestConfig] = None,
        platforms: Optional[Sequence[Platform]] = None,
        source: str = "<records>",
        core=None,
        max_ticks: Optional[int] = None,
        engine: str = "tick",
    ) -> "TraceBackedScenario":
        from repro.core.config import CoreConfig

        ingest = ingest if ingest is not None else IngestConfig()
        platforms = list(platforms) if platforms is not None \
            else _default_platforms()
        jobs = normalize_records(records, ingest, platforms)
        if not jobs:
            raise ValueError(
                f"no usable jobs after normalizing {source!r} "
                f"(records={len(records)}); loosen the ingest config")
        load = measured_load(jobs, platforms)
        horizon = max(j.arrival_time for j in jobs) + 1
        if max_ticks is None:
            # Leave tail room past the last arrival: longest plausible
            # run plus slack, bounded below for very short windows.
            max_ticks = max(4 * horizon, horizon + 200)
        return cls(
            platforms=platforms,
            workload=calibrate_workload(jobs, horizon=horizon),
            load=load,
            core=core if core is not None else CoreConfig(),
            max_ticks=max_ticks,
            engine=engine,
            records=tuple(records),
            ingest=ingest,
            source=source,
        )

    @classmethod
    def from_swf(cls, path: str, ingest: Optional[IngestConfig] = None,
                 platforms: Optional[Sequence[Platform]] = None,
                 **kwargs) -> "TraceBackedScenario":
        """Build from a Standard Workload Format file (plain or ``.gz``)."""
        _, records = parse_swf(path)
        return cls.from_records(records, ingest, platforms,
                                source=str(path), **kwargs)

    @classmethod
    def from_columnar(cls, path: str, spec: ColumnarSpec,
                      ingest: Optional[IngestConfig] = None,
                      platforms: Optional[Sequence[Platform]] = None,
                      **kwargs) -> "TraceBackedScenario":
        """Build from a columnar CSV trace file (plain or ``.gz``)."""
        _, records = parse_columnar(path, spec)
        return cls.from_records(records, ingest, platforms,
                                source=str(path), **kwargs)


@dataclass
class FixedTraceScenario(Scenario):
    """A scenario that replays one pinned trace verbatim for every seed.

    The trace is stored as its canonical static payload
    (:func:`~repro.workload.traces.trace_payload`), so the fingerprint
    covers exactly the job definitions — not ids or runtime state —
    and ``trace(seed)`` rebuilds fresh ``Job`` objects
    each call (the evaluation driver clones per simulation anyway).
    """

    payload: Tuple[dict, ...] = ()
    source: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.payload:
            raise ValueError("FixedTraceScenario needs a non-empty payload; "
                             "use from_file or from_jobs")

    def cache_spec(self) -> dict:
        """Canonical parameterization for the persistent result cache.

        The payload — not the file path it came from — defines the
        evaluation, so the same trace yields the same cache key whether
        it was imported streamed or materialized, and whichever
        container format (``.json``, ``.jsonl.gz``, shards) holds it.
        """
        return _spec_without_source(self)

    def trace(self, seed: int) -> List[Job]:  # noqa: ARG002 - pinned trace
        return jobs_from_payload(list(self.payload))

    @classmethod
    def from_jobs(cls, jobs: Sequence[Job],
                  platforms: Optional[Sequence[Platform]] = None,
                  source: str = "<jobs>", core=None,
                  max_ticks: Optional[int] = None,
                  engine: str = "tick") -> "FixedTraceScenario":
        from repro.core.config import CoreConfig

        if not jobs:
            raise ValueError(f"trace {source!r} contains no jobs")
        platforms = list(platforms) if platforms is not None \
            else _default_platforms()
        horizon = max(j.arrival_time for j in jobs) + 1
        if max_ticks is None:
            max_ticks = max(4 * horizon, horizon + 200)
        return cls(
            platforms=platforms,
            workload=calibrate_workload(jobs, horizon=horizon),
            load=measured_load(jobs, platforms),
            core=core if core is not None else CoreConfig(),
            max_ticks=max_ticks,
            engine=engine,
            payload=tuple(trace_payload(jobs)),
            source=source,
        )

    @classmethod
    def from_file(cls, path: str,
                  platforms: Optional[Sequence[Platform]] = None,
                  **kwargs) -> "FixedTraceScenario":
        """Build from any saved trace container
        (``.json[.gz]``, ``.jsonl[.gz]``, or a shard directory)."""
        return cls.from_jobs(load_trace(path), platforms,
                             source=str(path), **kwargs)


def trace_payloads(jobs: Sequence[Job]) -> List[dict]:
    """Canonical wire payloads for a trace, in batch submission order.

    Stably sorted by ``arrival_time`` (equal arrivals keep their trace
    order) — the order the batch path consumes jobs in, and therefore
    the order the serving replay client must submit them in for the
    served run to be byte-identical to batch (`repro.serve` re-exports
    this).
    """
    ordered = sorted(jobs, key=lambda j: j.arrival_time)
    return [job_payload(job) for job in ordered]


def _window_digest(lines: Iterable[str]) -> str:
    """SHA-256 over a window's lines, each followed by a newline."""
    h = hashlib.sha256()
    for line in lines:
        h.update(f"{line}\n".encode())
    return h.hexdigest()


@dataclass
class TraceWindowScenario(Scenario):
    """One contiguous segment of a trace container, as an independent cell.

    The windowed form of :class:`FixedTraceScenario`: instead of
    materializing the whole archive into a payload tuple, the scenario
    stores only *coordinates* — container path, ``[start, start+count)``
    job range and two digests of the window's content — and
    ``trace(seed)`` streams exactly its window's jobs
    (:func:`~repro.workload.traces.iter_trace_lines`, shard-skipping on
    manifested directories). Peak memory per cell is bounded by the
    window size, whatever the archive size. The serial windowed
    evaluation never calls it: it simulates the jobs
    :func:`plan_trace_windows` hands its ``on_window`` callback.

    ``digest`` hashes the window's canonical lines
    (:func:`~repro.workload.traces.canonical_line`), so it names the
    content wherever and however it is stored; the cache key pins it.
    ``line_digest`` hashes the lines as the container stores them, so a
    window checks what it streams without re-encoding a job; only when
    the stored lines differ (a re-sharded, re-formatted or converted
    container) does it fall back to the canonical digest.

    Each window is an **independent episode on a re-based clock**: the
    window's first arrival (``offset``) is subtracted from every
    arrival/deadline before simulation, and :meth:`evaluate_segment`
    shifts finish times and horizon back onto the global axis in the
    :class:`~repro.sim.metrics.SegmentMetrics` it returns — slowdown,
    JCT, tardiness, and miss decisions are shift-invariant, so
    :func:`~repro.sim.metrics.merge_segments` over all windows
    reproduces the single-pass reduction over the same decomposition
    exactly.

    The cache fingerprint covers the canonical digest (content), never
    the path or the line digest (storage): re-sharding or moving the
    archive keeps cache keys.
    """

    path: str = ""
    start: int = 0
    count: int = 0
    offset: int = 0                 # global arrival tick re-based to 0
    digest: str = ""                # sha256 over canonical payload lines
    line_digest: str = ""           # sha256 over the lines as stored
    window_index: int = 0
    n_windows: int = 1
    source: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.count <= 0:
            raise ValueError("TraceWindowScenario needs a non-empty window; "
                             "use plan_trace_windows")

    def cache_spec(self) -> dict:
        """Canonical parameterization for the persistent result cache.

        Excludes provenance and bookkeeping: the container ``path``,
        ``line_digest`` and ``source`` (the canonical digest pins the
        content wherever and however it is stored) and the window's
        position in the plan (``window_index`` / ``n_windows``), which
        cannot affect its result.
        """
        import dataclasses

        skip = {"path", "line_digest", "source", "window_index", "n_windows"}
        return {f.name: getattr(self, f.name)
                for f in dataclasses.fields(self) if f.name not in skip}

    def trace(self, seed: int) -> List[Job]:  # noqa: ARG002 - pinned window
        """Stream this window's jobs, verified and re-based to tick 0."""
        stored = hashlib.sha256()
        jobs = []
        for line, job in iter_trace_lines(self.path, self.start, self.count):
            stored.update(f"{line}\n".encode())
            jobs.append(job)
        if len(jobs) != self.count:
            raise ValueError(
                f"trace container {self.path!r} returned {len(jobs)} jobs "
                f"for window [{self.start}, {self.start + self.count}); "
                "the container changed since the window plan was built")
        if stored.hexdigest() != self.line_digest:
            digest = _window_digest(canonical_line(j) for j in jobs)
            if digest != self.digest:
                raise ValueError(
                    f"trace container {self.path!r} content changed since "
                    f"the window plan was built (window {self.window_index}: "
                    f"digest {digest[:12]} != planned {self.digest[:12]})")
        if self.offset:
            for j in jobs:
                j.arrival_time = j.arrival_time - self.offset
                j.deadline = j.deadline - self.offset
        return jobs

    def evaluate_segment(self, policy, trace_seed: int,
                         trace: Optional[List[Job]] = None,
                         max_ticks: Optional[int] = None) -> "object":
        """Simulate this window and return its mergeable accumulator.

        ``trace`` is the window's jobs as :meth:`trace` streams them (a
        batch's shared template, only cloned); ``None`` streams them
        here. ``max_ticks`` is the cell's tick budget (``None``: this
        window's own). The finished simulation reduces its columns once
        (:meth:`~repro.sim.simulation.Simulation.segment`), with finish
        times and the horizon shifted back onto the global time axis
        (``+offset``); see :class:`SegmentMetrics`.
        """
        from repro.core.training import evaluate_scheduler_runs

        if trace is None:
            trace = self.trace(trace_seed)
        sim = evaluate_scheduler_runs(
            policy, self.platforms, [trace],
            max_ticks=self.max_ticks if max_ticks is None else max_ticks,
            engine=self.engine)[0]
        return sim.segment(self.offset)


def plan_trace_windows(
    path: str,
    window_jobs: int,
    platforms: Optional[Sequence[Platform]] = None,
    core=None,
    max_ticks: Optional[int] = None,
    engine: str = "tick",
    *,
    on_window: Optional[
        Callable[[TraceWindowScenario, List[Job]], None]] = None,
) -> List[TraceWindowScenario]:
    """Split a trace container into contiguous window scenarios.

    One streaming pass: at most ``window_jobs`` jobs are held in memory
    while each window's digests, offset, calibrated workload surrogate,
    and measured load are computed; the jobs themselves are then
    discarded, and a window's :meth:`~TraceWindowScenario.trace`
    streams and checks them again when it is evaluated. Both digests
    are fed line by line as the jobs stream.

    ``on_window(window, jobs)``, when given, is called with each window
    as soon as it is full, before the next one is read, together with
    its jobs re-based to tick 0 — what its ``trace()`` would stream
    back. The serial windowed evaluation runs the window's cells there,
    so each job is decoded once; the planner drops the list when the
    call returns. ``n_windows`` is set only when the pass ends.

    Requires non-decreasing arrival times (the contract of the streamed
    ingest path, which external-merge-sorts out-of-order archives);
    a violation raises :class:`ValueError` naming the job index, since
    windows of an unsorted trace would not be contiguous time segments.

    ``max_ticks`` overrides the per-window tick budget; by default each
    window gets the :class:`FixedTraceScenario` heuristic budget on its
    re-based horizon.
    """
    from repro.core.config import CoreConfig

    if window_jobs <= 0:
        raise ValueError("window_jobs must be positive")
    platforms = list(platforms) if platforms is not None \
        else _default_platforms()
    core = core if core is not None else CoreConfig()

    windows: List[TraceWindowScenario] = []
    buffer: List[Job] = []
    canonical = hashlib.sha256()
    stored = hashlib.sha256()
    start = 0
    last_arrival = None
    total = 0

    def flush() -> None:
        nonlocal buffer, start, canonical, stored
        if not buffer:
            return
        offset = buffer[0].arrival_time
        for j in buffer:            # re-based, as trace() returns them
            j.arrival_time = j.arrival_time - offset
            j.deadline = j.deadline - offset
        horizon = buffer[-1].arrival_time + 1
        ticks = max_ticks if max_ticks is not None \
            else max(4 * horizon, horizon + 200)
        window = TraceWindowScenario(
            platforms=platforms,
            workload=calibrate_workload(buffer, horizon=horizon),
            load=measured_load(buffer, platforms),
            core=core,
            max_ticks=ticks,
            engine=engine,
            path=str(path),
            start=start,
            count=len(buffer),
            offset=offset,
            digest=canonical.hexdigest(),
            line_digest=stored.hexdigest(),
            window_index=len(windows),
            source=str(path),
        )
        windows.append(window)
        if on_window is not None:
            on_window(window, buffer)
        start += len(buffer)
        buffer = []
        canonical = hashlib.sha256()
        stored = hashlib.sha256()

    for line, job in iter_trace_lines(path):
        if last_arrival is not None and job.arrival_time < last_arrival:
            raise ValueError(
                f"trace container {path!r} is not sorted by arrival time "
                f"(job {total} arrives at {job.arrival_time} after "
                f"{last_arrival}); windowed evaluation needs contiguous "
                "time segments — re-import via the streamed ingest path")
        last_arrival = job.arrival_time
        canonical.update(f"{canonical_line(job)}\n".encode())
        stored.update(f"{line}\n".encode())
        buffer.append(job)
        total += 1
        if len(buffer) >= window_jobs:
            flush()
    flush()
    if not windows:
        raise ValueError(f"trace container {path!r} contains no jobs")
    for w in windows:
        w.n_windows = len(windows)
    return windows


# --- named scenario registry ---------------------------------------------

_REGISTRY: Dict[str, Tuple[Callable[..., Scenario], str]] = {}


def register_scenario(name: str, builder: Callable[..., Scenario],
                      description: str = "") -> None:
    """Register ``builder`` under ``name`` for ``get_scenario``.

    ``builder`` is called with the keyword overrides passed to
    :func:`get_scenario`. Registering an existing name replaces it.
    """
    if not name:
        raise ValueError("scenario name must be non-empty")
    _REGISTRY[name] = (builder, description)


def list_scenarios() -> Dict[str, str]:
    """Registered scenario names -> one-line descriptions."""
    return {name: desc for name, (_, desc) in sorted(_REGISTRY.items())}


def _fuzz_archive_names() -> List[str]:
    """Sorted archived fuzz-scenario names, for resolution and errors."""
    from repro.workload.fuzz.archive import archived_names

    return archived_names()


def _trace_dir_candidates(name: str) -> Tuple[Optional[str], List[str]]:
    """Paths ``$REPRO_TRACE_DIR`` could attach ``name`` to, in order.

    Returns ``(trace_dir, candidates)``; ``trace_dir`` is ``None`` when
    the environment variable is unset or empty.
    """
    root = os.environ.get(TRACE_DIR_ENV, "").strip()
    if not root:
        return None, []
    base = os.path.join(root, name)
    suffixes = ("", ".json", ".json.gz", ".jsonl", ".jsonl.gz")
    return root, [base + suffix for suffix in suffixes]


def get_scenario(name: str, **overrides) -> Scenario:
    """Resolve a scenario by registry name or trace-container path.

    A ``name`` that looks like a saved trace container (``*.json[.gz]``,
    ``*.jsonl[.gz]``, or a shard directory with a ``MANIFEST.json``) is
    loaded as a :class:`FixedTraceScenario` — the CLI route from
    ``repro.cli trace import --out t.jsonl.gz`` straight into
    ``sweep --scenario t.jsonl.gz``. The fingerprint covers the decoded
    job payload, so the same trace yields the same cache key no matter
    which container format (or import path — streamed or materialized)
    produced it.

    Names under ``fuzz/`` resolve through the adversarial-scenario
    archive (:mod:`repro.workload.fuzz.archive`): the scenario is
    rebuilt from the archived knob vector and its fingerprint is
    re-verified, so ``--scenario fuzz/<name>`` replays exactly the
    stress workload the fuzzer archived.

    With ``REPRO_TRACE_DIR`` set, any other name is treated as a local
    archive attachment: ``<dir>/<name>`` with each container suffix (or
    as a shard directory) is tried in order, so imported archives become
    addressable by bare name — ``--scenario kit-fh2`` — without
    registering code. A set-but-unresolvable name is an explicit error
    naming every path that was tried, never a silent fallback.
    """
    from repro.workload.traces import looks_like_trace_path

    if name in _REGISTRY:
        builder, _ = _REGISTRY[name]
        return builder(**overrides)
    if str(name).startswith("fuzz/"):
        from repro.workload.fuzz.archive import load_archived_scenario

        return load_archived_scenario(str(name), **overrides)
    if looks_like_trace_path(str(name)):
        return FixedTraceScenario.from_file(name, **overrides)
    trace_dir, candidates = _trace_dir_candidates(str(name))
    fuzz_names = _fuzz_archive_names()
    if trace_dir is not None:
        for path in candidates:
            # A readable container only: a suffixed file, or a bare name
            # that is a shard directory (MANIFEST.json present).
            if looks_like_trace_path(path) and \
                    (os.path.isfile(path) or os.path.isdir(path)):
                return FixedTraceScenario.from_file(path, **overrides)
        raise KeyError(
            f"unknown scenario {name!r}: not in the registry "
            f"({sorted(_REGISTRY)}), not an archived fuzz scenario "
            f"({fuzz_names}), and no trace container found under "
            f"{TRACE_DIR_ENV}={trace_dir!r} (tried "
            f"{', '.join(sorted(os.path.basename(c) or c for c in candidates))})")
    raise KeyError(
        f"unknown scenario {name!r}; choose from {sorted(_REGISTRY)} or the "
        f"archived fuzz scenarios ({fuzz_names}), pass a saved trace "
        "container (*.json[.gz], *.jsonl[.gz], or a shard directory), or "
        f"set {TRACE_DIR_ENV} to attach names to local trace archives")


# --- built-in entries -----------------------------------------------------

def _standard(**kw) -> Scenario:
    return standard_scenario(**kw)


def _quick(**kw) -> Scenario:
    from repro.harness.experiments import quick_scenario

    return quick_scenario(**kw)


def _swf_fixture(**kw) -> TraceBackedScenario:
    from repro.workload.ingest import swf_fixture_path

    ingest = kw.pop("ingest", IngestConfig(tick_seconds=120.0,
                                           target_load=0.75,
                                           max_parallelism_cap=8))
    return TraceBackedScenario.from_swf(swf_fixture_path(), ingest=ingest,
                                        platforms=[Platform("cpu", 16, 1.0),
                                                   Platform("gpu", 6, 1.0)],
                                        max_ticks=400, **kw)


def _columnar_fixture(**kw) -> TraceBackedScenario:
    from repro.workload.ingest import columnar_fixture_path
    from repro.workload.ingest.columnar import ALIBABA_LIKE_SPEC

    ingest = kw.pop("ingest", IngestConfig(tick_seconds=60.0,
                                           target_load=0.7,
                                           max_parallelism_cap=8))
    return TraceBackedScenario.from_columnar(
        columnar_fixture_path(), ALIBABA_LIKE_SPEC, ingest=ingest,
        platforms=[Platform("cpu", 16, 1.0), Platform("gpu", 6, 1.0)],
        max_ticks=400, **kw)


register_scenario("standard", _standard,
                  "canonical synthetic two-platform scenario")
register_scenario("quick", _quick,
                  "bench-sized synthetic scenario (16 CPU + 6 GPU)")
register_scenario("swf-fixture", _swf_fixture,
                  "bundled SWF archive trace, normalized to load 0.75")
register_scenario("columnar-fixture", _columnar_fixture,
                  "bundled columnar CSV trace, normalized to load 0.7")
