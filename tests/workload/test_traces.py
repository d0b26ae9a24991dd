"""Trace persistence round-trips."""

import numpy as np
import pytest

from repro.sim import AmdahlSpeedup, LinearSpeedup, PowerLawSpeedup
from repro.workload import (
    WorkloadConfig,
    default_job_classes,
    generate_trace,
    jobs_from_payload,
    load_trace,
    save_trace,
    trace_payload,
)
from tests.conftest import make_job


def test_roundtrip_preserves_static_fields(platforms, rng, tmp_path):
    cfg = WorkloadConfig(classes=default_job_classes(), horizon=50)
    jobs = generate_trace(cfg, platforms, rng, load=0.7)
    path = str(tmp_path / "trace.json")
    save_trace(jobs, path)
    loaded = load_trace(path)
    assert len(loaded) == len(jobs)
    for a, b in zip(jobs, loaded):
        assert a.arrival_time == b.arrival_time
        assert a.work == b.work
        assert a.deadline == b.deadline
        assert a.min_parallelism == b.min_parallelism
        assert a.max_parallelism == b.max_parallelism
        assert a.affinity == b.affinity
        assert a.job_class == b.job_class
        assert a.weight == b.weight


def test_loaded_jobs_have_fresh_runtime_state(tmp_path):
    job = make_job(work=5.0)
    job.progress = 3.0                    # dirty runtime state
    path = str(tmp_path / "t.json")
    save_trace([job], path)
    loaded = load_trace(path)[0]
    assert loaded.progress == 0.0
    assert loaded is not job and loaded.job_id is None  # fresh, unheld


@pytest.mark.parametrize(
    "model",
    [LinearSpeedup(), AmdahlSpeedup(0.25), PowerLawSpeedup(0.8)],
    ids=["linear", "amdahl", "powerlaw"],
)
def test_speedup_models_roundtrip(model, tmp_path):
    job = make_job(speedup=model)
    path = str(tmp_path / "t.json")
    save_trace([job], path)
    loaded = load_trace(path)[0]
    assert type(loaded.speedup_model) is type(model)
    for k in (1, 2, 4):
        assert loaded.speedup_model.speedup(k) == pytest.approx(model.speedup(k))


def test_empty_trace_roundtrip(tmp_path):
    path = str(tmp_path / "empty.json")
    save_trace([], path)
    assert load_trace(path) == []


class TestGzip:
    """``.json.gz`` traces round-trip with deterministic bytes."""

    def test_gzip_roundtrip(self, platforms, rng, tmp_path):
        cfg = WorkloadConfig(classes=default_job_classes(), horizon=30)
        jobs = generate_trace(cfg, platforms, rng, load=0.7)
        path = str(tmp_path / "trace.json.gz")
        save_trace(jobs, path)
        loaded = load_trace(path)
        assert trace_payload(loaded) == trace_payload(jobs)

    def test_gzip_and_plain_decode_identically(self, tmp_path):
        jobs = [make_job(work=7.5), make_job(arrival=3, work=2.0)]
        plain = str(tmp_path / "t.json")
        packed = str(tmp_path / "t.json.gz")
        save_trace(jobs, plain)
        save_trace(jobs, packed)
        assert trace_payload(load_trace(plain)) == \
            trace_payload(load_trace(packed))

    def test_gzip_bytes_deterministic(self, tmp_path):
        """The compressed header is pinned (mtime=0): same jobs => same bytes."""
        jobs = [make_job(work=4.0)]
        a, b = tmp_path / "a.json.gz", tmp_path / "b.json.gz"
        save_trace(jobs, str(a))
        import time
        time.sleep(0.05)                 # would change a default gzip mtime
        save_trace(jobs, str(b))
        assert a.read_bytes() == b.read_bytes()


class TestChunkedContainers:
    """JSONL / sharded-JSONL containers: round trips, streams, determinism."""

    def jobs(self, platforms, rng, n_horizon=40):
        cfg = WorkloadConfig(classes=default_job_classes(), horizon=n_horizon)
        return generate_trace(cfg, platforms, rng, load=0.8)

    @pytest.mark.parametrize("name", ["t.jsonl", "t.jsonl.gz"])
    def test_jsonl_roundtrip(self, platforms, rng, tmp_path, name):
        jobs = self.jobs(platforms, rng)
        path = str(tmp_path / name)
        n = save_trace(jobs, path)
        assert n == len(jobs)
        assert trace_payload(load_trace(path)) == trace_payload(jobs)

    def test_json_and_jsonl_decode_identically(self, platforms, rng, tmp_path):
        jobs = self.jobs(platforms, rng)
        a, b = str(tmp_path / "t.json.gz"), str(tmp_path / "t.jsonl.gz")
        save_trace(jobs, a)
        save_trace(jobs, b)
        assert trace_payload(load_trace(a)) == trace_payload(load_trace(b))

    def test_jsonl_gz_bytes_deterministic(self, tmp_path):
        jobs = [make_job(work=4.0), make_job(arrival=2, work=2.5)]
        a, b = tmp_path / "a.jsonl.gz", tmp_path / "b.jsonl.gz"
        save_trace(jobs, str(a))
        import time

        time.sleep(0.05)
        save_trace(jobs, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_save_consumes_a_generator(self, platforms, rng, tmp_path):
        jobs = self.jobs(platforms, rng)
        path = str(tmp_path / "gen.jsonl.gz")
        n = save_trace(iter(jobs), path)
        assert n == len(jobs)
        assert trace_payload(load_trace(path)) == trace_payload(jobs)

    def test_iter_trace_streams_jsonl(self, platforms, rng, tmp_path):
        from repro.workload.traces import iter_trace

        jobs = self.jobs(platforms, rng)
        path = str(tmp_path / "t.jsonl")
        save_trace(jobs, path)
        it = iter_trace(path)
        first = next(it)                    # lazily readable
        assert first.arrival_time == jobs[0].arrival_time
        assert 1 + sum(1 for _ in it) == len(jobs)

    def test_shard_roundtrip_and_manifest(self, platforms, rng, tmp_path):
        from repro.workload.traces import MANIFEST_NAME, save_trace_shards

        jobs = self.jobs(platforms, rng)
        out = tmp_path / "shards"
        manifest = save_trace_shards(iter(jobs), str(out), jobs_per_shard=7)
        assert manifest["n_jobs"] == len(jobs)
        assert len(manifest["shards"]) == -(-len(jobs) // 7)
        assert sum(manifest["shard_jobs"]) == len(jobs)
        assert (out / MANIFEST_NAME).is_file()
        assert trace_payload(load_trace(str(out))) == trace_payload(jobs)

    def test_shard_bytes_deterministic(self, tmp_path):
        from repro.workload.traces import save_trace_shards

        jobs = [make_job(work=float(i + 1)) for i in range(5)]
        m1 = save_trace_shards(jobs, str(tmp_path / "a"), jobs_per_shard=2)
        m2 = save_trace_shards(jobs, str(tmp_path / "b"), jobs_per_shard=2)
        for name in m1["shards"]:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()
        assert m1 == m2

    @staticmethod
    def failing(jobs, after):
        """``jobs`` as a stream that fails after ``after`` of them, as an
        unusable record mid-archive does."""
        from repro.util.errors import InputError

        yield from jobs[:after]
        raise InputError("record 8: unusable")

    def test_failed_shard_write_creates_nothing(self, tmp_path):
        from repro.util.errors import InputError
        from repro.workload.traces import save_trace_shards

        jobs = [make_job(work=float(i + 1)) for i in range(12)]
        with pytest.raises(InputError):
            save_trace_shards(self.failing(jobs, 8), str(tmp_path / "new"),
                              jobs_per_shard=5)
        assert list(tmp_path.iterdir()) == []

    def test_failed_shard_write_keeps_the_existing_directory(self, tmp_path):
        from repro.util.errors import InputError
        from repro.workload.traces import save_trace_shards

        jobs = [make_job(work=float(i + 1)) for i in range(12)]
        out = tmp_path / "shards"
        save_trace_shards(jobs, str(out), jobs_per_shard=5)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        with pytest.raises(InputError):
            save_trace_shards(self.failing(jobs[::-1], 8), str(out),
                              jobs_per_shard=3)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert list(tmp_path.iterdir()) == [out]
        # A write that succeeds replaces the container in place.
        save_trace_shards(jobs[::-1], str(out), jobs_per_shard=5)
        assert trace_payload(load_trace(str(out))) == \
            trace_payload(jobs[::-1])

    def test_shorter_rewrite_deletes_the_old_surplus_parts(self, tmp_path):
        from repro.workload.traces import MANIFEST_NAME, save_trace_shards

        jobs = [make_job(work=float(i + 1)) for i in range(12)]
        out = tmp_path / "shards"
        first = save_trace_shards(jobs, str(out), jobs_per_shard=3)
        assert len(first["shards"]) == 4
        # Files the old manifest does not name are not the writer's.
        (out / "README").write_text("kept")
        (out / "part-00009.jsonl.gz").write_bytes(b"kept")
        second = save_trace_shards(jobs[:6], str(out), jobs_per_shard=3)
        assert second["shards"] == first["shards"][:2]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            second["shards"] + [MANIFEST_NAME, "README", "part-00009.jsonl.gz"])
        assert trace_payload(load_trace(str(out))) == trace_payload(jobs[:6])
        # Switching compression replaces every part of the old manifest.
        third = save_trace_shards(jobs[:6], str(out), jobs_per_shard=3,
                                  compress=False)
        assert sorted(p.name for p in out.iterdir()) == sorted(
            third["shards"] + [MANIFEST_NAME, "README", "part-00009.jsonl.gz"])

    def test_rewrite_deletes_only_names_it_writes(self, tmp_path):
        from repro.workload.traces import MANIFEST_NAME, save_trace_shards

        out = tmp_path / "shards"
        out.mkdir()
        (out / MANIFEST_NAME).write_text('{"format": "repro-trace-shards/1", '
                                         '"shards": ["../victim", "part-1"]}')
        (tmp_path / "victim").write_text("kept")
        (out / "part-1").write_text("kept")
        jobs = [make_job(work=float(i + 1)) for i in range(4)]
        manifest = save_trace_shards(jobs, str(out), jobs_per_shard=3)
        assert (tmp_path / "victim").read_text() == "kept"
        assert sorted(p.name for p in out.iterdir()) == sorted(
            manifest["shards"] + [MANIFEST_NAME, "part-1"])

    def test_shard_rejects_bad_chunk(self, tmp_path):
        from repro.workload.traces import save_trace_shards

        with pytest.raises(ValueError, match="jobs_per_shard"):
            save_trace_shards([], str(tmp_path / "s"), jobs_per_shard=0)

    def test_looks_like_trace_path(self, tmp_path):
        from repro.workload.traces import looks_like_trace_path, save_trace_shards

        assert looks_like_trace_path("x.json")
        assert looks_like_trace_path("x.jsonl.gz")
        assert not looks_like_trace_path("x.csv")
        assert not looks_like_trace_path(str(tmp_path))    # no manifest
        save_trace_shards([make_job()], str(tmp_path / "s"))
        assert looks_like_trace_path(str(tmp_path / "s"))

    def test_malformed_jsonl_line_named(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = trace_payload([make_job()])[0]
        import json as _json

        path.write_text(_json.dumps(good) + "\n{not json\n")
        with pytest.raises(ValueError, match="line 2"):
            load_trace(str(path))

    def test_jsonl_missing_field_named(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        record = trace_payload([make_job()])[0]
        del record["work"]
        import json as _json

        path.write_text(_json.dumps(record) + "\n")
        with pytest.raises(ValueError, match="missing field 'work'"):
            load_trace(str(path))

    def test_non_manifest_dir_rejected(self, tmp_path):
        from repro.workload.traces import MANIFEST_NAME, iter_trace

        (tmp_path / MANIFEST_NAME).write_text('{"format": "other"}')
        with pytest.raises(ValueError, match="shard manifest"):
            list(iter_trace(str(tmp_path)))


class TestMalformedTraces:
    """Malformed JSON raises ValueError naming the offending field."""

    def write(self, tmp_path, payload) -> str:
        import json

        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_not_a_list(self, tmp_path):
        with pytest.raises(ValueError, match="JSON array"):
            load_trace(self.write(tmp_path, {"jobs": []}))

    def test_non_object_record(self, tmp_path):
        with pytest.raises(ValueError, match="trace record 0"):
            load_trace(self.write(tmp_path, [42]))

    @pytest.mark.parametrize("field", ["arrival_time", "work", "deadline",
                                       "min_parallelism", "max_parallelism",
                                       "speedup", "affinity", "job_class"])
    def test_missing_field_named(self, tmp_path, field):
        record = trace_payload([make_job()])[0]
        del record[field]
        with pytest.raises(ValueError, match=f"missing field '{field}'"):
            load_trace(self.write(tmp_path, [record]))

    def test_record_index_in_error(self, tmp_path):
        good = trace_payload([make_job()])[0]
        bad = dict(good)
        del bad["work"]
        with pytest.raises(ValueError, match="trace record 1"):
            load_trace(self.write(tmp_path, [good, bad]))

    def test_unknown_speedup_kind(self, tmp_path):
        record = trace_payload([make_job()])[0]
        record["speedup"] = {"kind": "quantum"}
        with pytest.raises(ValueError, match="unknown speedup kind"):
            load_trace(self.write(tmp_path, [record]))

    def test_amdahl_missing_sigma(self, tmp_path):
        record = trace_payload([make_job()])[0]
        record["speedup"] = {"kind": "amdahl"}
        with pytest.raises(ValueError, match="missing field 'sigma'"):
            load_trace(self.write(tmp_path, [record]))

    def test_empty_affinity_rejected(self, tmp_path):
        record = trace_payload([make_job()])[0]
        record["affinity"] = {}
        with pytest.raises(ValueError, match="affinity"):
            load_trace(self.write(tmp_path, [record]))

    def test_invalid_values_wrapped_with_context(self, tmp_path):
        record = trace_payload([make_job()])[0]
        record["work"] = -3.0
        with pytest.raises(ValueError, match="trace record 0"):
            load_trace(self.write(tmp_path, [record]))

    def test_invalid_json_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_trace(str(path))

    @pytest.mark.parametrize("field", ["arrival_time", "work", "deadline",
                                       "min_parallelism", "max_parallelism",
                                       "weight"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_numbers_rejected(self, tmp_path, field, value):
        # json.dumps writes NaN/Infinity, which json.loads accepts.
        record = trace_payload([make_job()])[0]
        record[field] = value
        with pytest.raises(ValueError, match="trace record 0"):
            load_trace(self.write(tmp_path, [record]))

    @pytest.mark.parametrize("speedup", [{"kind": "amdahl", "sigma": "NaN"},
                                         {"kind": "powerlaw",
                                          "alpha": float("inf")}])
    def test_non_finite_speedup_rejected(self, tmp_path, speedup):
        record = trace_payload([make_job()])[0]
        record["speedup"] = speedup
        with pytest.raises(ValueError, match="must be a finite number"):
            load_trace(self.write(tmp_path, [record]))

    @pytest.mark.parametrize("field, bounds", [
        ("max_parallelism", {"max_parallelism": 10**30}),
        ("min_parallelism", {"min_parallelism": 10**30,
                             "max_parallelism": 10**30}),
    ], ids=["max", "both"])
    def test_parallelism_past_int64_rejected(self, field, bounds):
        # A Job accepts these bounds; the simulation's int64 columns
        # cannot store them, so the payload boundary refuses them.
        record = {**trace_payload([make_job()])[0], **bounds}
        with pytest.raises(ValueError, match=f"trace record 0: field "
                                             f"'{field}' must be at most"):
            jobs_from_payload([record])

    def test_parallelism_at_int64_max_accepted(self):
        record = {**trace_payload([make_job()])[0],
                  "max_parallelism": 2**63 - 1}
        assert jobs_from_payload([record])[0].max_parallelism == 2**63 - 1

    def test_non_finite_affinity_rejected(self, tmp_path):
        record = trace_payload([make_job()])[0]
        record["affinity"] = {"cpu": float("inf")}
        with pytest.raises(ValueError, match="affinity\\['cpu'\\]"):
            load_trace(self.write(tmp_path, [record]))
