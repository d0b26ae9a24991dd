"""Two-pass streaming normalization: invariances, stats, ordering.

Acceptance properties pinned here (the output itself is pinned by the
frozen digests in ``test_ingest_digests.py``):

* the normalizer's output does not depend on the order of records held
  in memory (``normalize_records`` sorts them) or on the chunk size:
  reversed in-memory records and the file streamed 7 records per chunk
  give **byte-identical** job payloads on both bundled fixtures, across
  seeds and every selection knob (window, subsample, max_jobs,
  target_load, status filter) — and identical
  :class:`~repro.workload.ingest.IngestStats`;
* emission is chunk-size invariant and genuinely lazy (bounded memory);
* out-of-order record streams are rejected with a clear error, while
  the materialized path (which sorts) normalizes shuffled duplicates of
  the same records to the same output — the tie-ordering fix;
* clamp and skip counts surface what selection and the stage-5 floors
  previously did silently.
"""

import json

import pytest

from repro.sim.platform import Platform
from repro.workload.ingest import (
    ALIBABA_LIKE_SPEC,
    IngestConfig,
    IngestStats,
    RawJobRecord,
    columnar_fixture_path,
    count_clamps,
    normalize_records,
    parse_columnar,
    parse_swf,
    stream_normalize,
    stream_normalize_columnar,
    stream_normalize_swf,
    swf_fixture_path,
)
from repro.workload.traces import trace_payload


@pytest.fixture
def platforms():
    return [Platform("cpu", 16, 1.0), Platform("gpu", 6, 1.0)]


def rec(job_id, submit, run=600.0, procs=4, status=1, **kw):
    return RawJobRecord(job_id=job_id, submit_time=submit, run_time=run,
                        processors=procs, status=status, **kw)


RECORDS = [rec(i, i * 120.0, run=300.0 + 60 * (i % 5), procs=1 << (i % 5))
           for i in range(40)]

CONFIGS = [
    IngestConfig(tick_seconds=120.0, target_load=0.8),
    IngestConfig(tick_seconds=60.0, subsample=0.5, target_load=0.7, seed=2),
    IngestConfig(tick_seconds=30.0, window=(1000.0, 60000.0), max_jobs=20),
    IngestConfig(include_statuses=(1,), max_parallelism_cap=8),
    IngestConfig(tick_seconds=60.0, subsample=0.3, window=(500.0, 90000.0),
                 max_jobs=15, target_load=0.9, seed=5),
]


def payload_bytes(jobs) -> str:
    return json.dumps(trace_payload(jobs))


class TestByteIdentity:
    """Reversed records in memory vs the archive file streamed in
    chunks of 7: input order and chunking leave no trace."""

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("seed", [None, 0, 1, 7, 123])
    def test_swf_fixture_identical(self, platforms, config, seed):
        _, records = parse_swf(swf_fixture_path())
        mat_stats, st_stats = IngestStats(), IngestStats()
        mat = normalize_records(records[::-1], config, platforms, seed=seed,
                                stats=mat_stats)
        streamed = list(stream_normalize_swf(swf_fixture_path(), config,
                                             platforms, seed=seed,
                                             stats=st_stats, chunk_size=7))
        assert payload_bytes(mat) == payload_bytes(streamed)
        assert mat_stats == st_stats

    @pytest.mark.parametrize("config", CONFIGS)
    def test_columnar_fixture_identical(self, platforms, config):
        _, records = parse_columnar(columnar_fixture_path(),
                                    ALIBABA_LIKE_SPEC)
        mat = normalize_records(records[::-1], config, platforms, seed=4)
        streamed = list(stream_normalize_columnar(
            columnar_fixture_path(), ALIBABA_LIKE_SPEC, config, platforms,
            seed=4, chunk_size=7))
        assert payload_bytes(mat) == payload_bytes(streamed)

    def test_chunk_size_invariance(self, platforms):
        config = IngestConfig(tick_seconds=60.0, subsample=0.5,
                              target_load=0.7)
        reference = None
        for chunk in (1, 3, 7, 4096):
            jobs = list(stream_normalize(lambda: iter(RECORDS), config,
                                         platforms, chunk_size=chunk))
            got = payload_bytes(jobs)
            if reference is None:
                reference = got
            assert got == reference, f"chunk_size={chunk} diverged"

    def test_in_memory_records_identical(self, platforms):
        config = IngestConfig(tick_seconds=60.0, target_load=0.7)
        mat = normalize_records(RECORDS[::-1], config, platforms, seed=3)
        streamed = list(stream_normalize(lambda: iter(RECORDS), config,
                                         platforms, seed=3, chunk_size=7))
        assert payload_bytes(mat) == payload_bytes(streamed)


class TestStreamBehavior:
    def test_lazy_emission(self, platforms):
        """Without whole-stream aggregates the normalizer is single-pass
        and emits before the stream is exhausted (bounded memory)."""
        config = IngestConfig(tick_seconds=60.0)   # no target_load/stats
        seen = []

        def records():
            for r in RECORDS:
                seen.append(r.job_id)
                yield r

        it = stream_normalize(lambda: records(), config, platforms,
                              chunk_size=4)
        first = next(it)
        assert first.arrival_time == 0
        assert len(seen) <= 8       # at most two chunks pulled, not all 40

    def test_max_jobs_stops_the_scan(self, platforms):
        """Pass 2 stops reading once the cap is reached."""
        config = IngestConfig(tick_seconds=60.0, max_jobs=5)
        seen = []

        def records():
            for r in RECORDS:
                seen.append(r.job_id)
                yield r

        jobs = list(stream_normalize(lambda: records(), config, platforms))
        assert len(jobs) == 5
        assert len(seen) < len(RECORDS)

    def test_unsorted_stream_rejected(self, platforms):
        shuffled = [RECORDS[3], RECORDS[1], RECORDS[2]]
        config = IngestConfig(tick_seconds=60.0)
        with pytest.raises(ValueError, match="not sorted"):
            list(stream_normalize(lambda: iter(shuffled), config, platforms))

    def test_needs_platforms_and_positive_chunk(self):
        with pytest.raises(ValueError, match="platform"):
            stream_normalize(lambda: iter(RECORDS), IngestConfig(), [])
        with pytest.raises(ValueError, match="chunk_size"):
            stream_normalize(lambda: iter(RECORDS), IngestConfig(),
                             [Platform("cpu", 4, 1.0)], chunk_size=0)

    def test_empty_stream_yields_nothing(self, platforms):
        stats = IngestStats()
        jobs = list(stream_normalize(lambda: iter(()), IngestConfig(),
                                     platforms, stats=stats))
        assert jobs == []
        assert stats.n_selected == 0


class TestTieOrdering:
    """Duplicate archive rows normalize deterministically (the fix for
    equal ``(submit_time, job_id)`` rows depending on input order)."""

    DUPES = [
        rec(1, 0.0, run=600.0, procs=4),
        rec(2, 100.0, run=300.0, procs=2),
        rec(2, 100.0, run=900.0, procs=8),    # same (submit, id), diff body
        rec(3, 200.0, run=450.0, procs=1),
    ]

    def test_shuffled_input_same_output(self, platforms):
        config = IngestConfig(tick_seconds=60.0, target_load=0.7)
        reference = payload_bytes(
            normalize_records(self.DUPES, config, platforms, seed=1))
        reordered = [self.DUPES[2], self.DUPES[3], self.DUPES[0],
                     self.DUPES[1]]
        assert payload_bytes(
            normalize_records(reordered, config, platforms, seed=1)) \
            == reference

    def test_streamed_accepts_tie_sorted_duplicates(self, platforms):
        """Equal-key rows in tie-break order stream fine and match."""
        config = IngestConfig(tick_seconds=60.0)
        mat = normalize_records(self.DUPES, config, platforms)
        streamed = list(stream_normalize(lambda: iter(self.DUPES), config,
                                         platforms))
        assert payload_bytes(mat) == payload_bytes(streamed)


class TestClampAndSkipCounts:
    def test_clamped_work_counted(self, platforms):
        # 30 s on 1 proc at 3600 s/tick: work << 1 => floored and counted.
        records = [rec(1, 0.0, run=30.0, procs=1),
                   rec(2, 3600.0, run=7200.0, procs=1)]
        config = IngestConfig(tick_seconds=3600.0)
        stats = IngestStats()
        jobs = normalize_records(records, config, platforms, stats=stats)
        assert stats.n_clamped_work == 1
        assert jobs[0].work == 1.0

    def test_clamped_duration_counted(self, platforms):
        records = [rec(1, 0.0, run=1e-8, procs=1),
                   rec(2, 60.0, run=600.0, procs=2)]
        config = IngestConfig(tick_seconds=60.0)
        stats = IngestStats()
        normalize_records(records, config, platforms, stats=stats)
        assert stats.n_clamped_duration == 1
        assert stats.n_clamped_work == 1     # floored duration => tiny work

    def test_selection_counts_partition_the_stream(self, platforms):
        records = RECORDS + [rec(99, 100.0, run=-1.0),        # unusable
                             rec(98, 50.0, status=5)]          # filtered
        config = IngestConfig(include_statuses=(1,),
                              window=(0.0, 120.0 * 20), subsample=0.8,
                              max_jobs=10)
        stats = IngestStats()
        jobs = normalize_records(records, config, platforms, stats=stats)
        assert stats.n_records == len(records)
        assert stats.n_unusable == 1
        assert stats.n_status_filtered == 1
        assert stats.n_selected == len(jobs) == 10
        assert (stats.n_unusable + stats.n_status_filtered
                + stats.n_windowed_out + stats.n_subsampled_out
                + stats.n_over_cap + stats.n_selected) == stats.n_records

    def test_count_clamps_scan(self):
        records = [rec(1, 0.0, run=30.0, procs=1),
                   rec(2, 100.0, run=7200.0, procs=1),
                   rec(3, 200.0, run=-1.0)]                   # unusable
        n_dur, n_work = count_clamps(records,
                                     IngestConfig(tick_seconds=3600.0))
        assert n_dur == 0
        assert n_work == 1

    def test_stats_as_dict(self):
        stats = IngestStats(n_records=3, n_selected=2)
        d = stats.as_dict()
        assert d["n_records"] == 3 and d["n_selected"] == 2
