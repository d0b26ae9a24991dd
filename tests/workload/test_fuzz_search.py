"""Fuzz search: archive byte-identity, re-runs, and name resolution."""

import dataclasses
import json
import os

import pytest

from repro.harness.cache import ResultCache
from repro.harness.library import get_scenario
from repro.harness.parallel import BaselineFactory
from repro.workload.fuzz import (
    FuzzConfig,
    FuzzScenario,
    load_archive,
    load_archived_scenario,
    run_fuzz,
)
from repro.util.errors import InputError
from repro.workload.fuzz.archive import FUZZ_DIR_ENV, archive_path

#: A heuristic stands in for a trained policy: picklable, instant, and
#: the search dynamics (gap objective, selection, archive) are identical.
POLICY = BaselineFactory("fifo")
LABEL = "fifo"
FINGERPRINT = "f" * 64

MICRO = FuzzConfig(population=3, generations=2, elites=1, n_traces=1,
                   base_seed=1000, seed=0, baselines=("edf",),
                   max_archive=3, horizon=16, max_ticks=100)


def _run(out_dir, config=MICRO, **kw):
    return run_fuzz(POLICY, LABEL, FINGERPRINT, str(out_dir),
                    config=config, **kw)


def _bytes(out_dir) -> bytes:
    with open(archive_path(str(out_dir)), "rb") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def baseline_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz-baseline")
    result = _run(out)
    return out, result


class TestSearch:
    def test_archive_written_and_nonempty(self, baseline_run):
        out, result = baseline_run
        assert result.generations == MICRO.generations
        assert result.evaluated >= MICRO.population
        assert 1 <= len(result.archive) <= MICRO.max_archive
        assert load_archive(str(out))

    def test_entries_carry_full_provenance(self, baseline_run):
        _, result = baseline_run
        for entry in result.archive:
            assert entry["name"].startswith("fuzz/")
            assert len(entry["name"]) == len("fuzz/") + 12
            for key in ("vector", "knobs", "space", "build", "gap",
                        "metric", "policy_metric", "baseline_metric",
                        "best_baseline", "baseline_metrics", "policy",
                        "seeds", "search_seed", "generation"):
                assert key in entry, f"entry lacks {key}"
            assert entry["policy"] == {"label": LABEL,
                                       "fingerprint": FINGERPRINT}
            assert entry["seeds"] == [1000]

    def test_out_dir_holds_only_the_archive(self, baseline_run):
        out, _ = baseline_run
        assert os.listdir(out) == ["archive.json"]

    def test_archive_is_canonical_json(self, baseline_run):
        out, _ = baseline_run
        payload = json.loads(_bytes(out))
        names = [e["name"] for e in payload["entries"]]
        assert names == sorted(names)


class TestByteIdentity:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_workers_do_not_change_bytes(self, baseline_run, tmp_path,
                                         workers):
        out, _ = baseline_run
        _run(tmp_path / "w", workers=workers)
        assert _bytes(tmp_path / "w") == _bytes(out)

    def test_cache_state_does_not_change_bytes(self, baseline_run,
                                               tmp_path):
        out, _ = baseline_run
        cache = ResultCache(tmp_path / "cache")
        _run(tmp_path / "cold", cache=cache)
        assert cache.stats["misses"] > 0
        _run(tmp_path / "warm", cache=cache)
        assert cache.stats["hits"] > 0
        assert _bytes(tmp_path / "cold") == _bytes(out)
        assert _bytes(tmp_path / "warm") == _bytes(out)

    def test_rerun_after_cut_resumes_from_cache(self, baseline_run,
                                                tmp_path):
        """A search cut before its archive write, run again on its cache,
        writes the uninterrupted archive and re-evaluates nothing the
        first run finished."""
        out, _ = baseline_run
        cut = tmp_path / "cut"
        first = ResultCache(tmp_path / "cache")
        _run(cut, config=dataclasses.replace(MICRO, generations=1),
             cache=first)
        os.unlink(cut / "archive.json")
        second = ResultCache(tmp_path / "cache")
        _run(cut, cache=second)
        assert _bytes(cut) == _bytes(out)
        assert first.stats["misses"] > 0
        assert second.stats["hits"] >= first.stats["misses"]


class TestArchiveMerge:
    def test_second_run_merges_entries(self, tmp_path):
        _run(tmp_path)
        first = set(load_archive(str(tmp_path)))
        _run(tmp_path, config=FuzzConfig(**{
            **{f.name: getattr(MICRO, f.name)
               for f in MICRO.__dataclass_fields__.values()},
            "seed": 1}))
        merged = set(load_archive(str(tmp_path)))
        assert first <= merged
        assert len(merged) > len(first)


class TestResolution:
    def test_load_archived_scenario_round_trips(self, baseline_run):
        out, result = baseline_run
        name = result.archive[0]["name"]
        scenario = load_archived_scenario(name, root=str(out))
        assert isinstance(scenario, FuzzScenario)
        assert "fuzz/" + scenario.fingerprint()[:12] == name
        report = scenario.evaluate_segment(
            BaselineFactory("edf")(scenario), trace_seed=1000)
        assert report.miss_rate == pytest.approx(
            result.archive[0]["baseline_metrics"]["edf"])

    def test_overrides_applied_after_integrity_check(self, baseline_run):
        out, result = baseline_run
        name = result.archive[0]["name"]
        scenario = load_archived_scenario(name, root=str(out),
                                          engine="event")
        assert scenario.engine == "event"

    def test_get_scenario_resolves_fuzz_names(self, baseline_run,
                                              monkeypatch):
        out, result = baseline_run
        monkeypatch.setenv(FUZZ_DIR_ENV, str(out))
        name = result.archive[0]["name"]
        assert isinstance(get_scenario(name), FuzzScenario)

    def test_unknown_fuzz_name_lists_archive(self, baseline_run):
        out, result = baseline_run
        with pytest.raises(KeyError) as err:
            load_archived_scenario("fuzz/000000000000", root=str(out))
        message = str(err.value)
        assert result.archive[0]["name"] in message
        assert FUZZ_DIR_ENV in message

    def test_registry_error_mentions_fuzz_names(self, baseline_run,
                                                monkeypatch):
        out, result = baseline_run
        monkeypatch.setenv(FUZZ_DIR_ENV, str(out))
        with pytest.raises(KeyError) as err:
            get_scenario("nonexistent-scenario-xyz")
        assert result.archive[0]["name"] in str(err.value)

    def test_generator_drift_is_a_hard_error(self, baseline_run,
                                             tmp_path):
        out, _ = baseline_run
        entries = load_archive(str(out))
        name, entry = sorted(entries.items())[0]
        tampered = dict(entry)
        tampered["vector"] = list(tampered["vector"])
        tampered["vector"][0] = 0.987654  # load knob no longer matches
        drift_dir = tmp_path / "drift"
        drift_dir.mkdir()
        with open(drift_dir / "archive.json", "w", encoding="utf-8") as fh:
            json.dump({"format": "repro-fuzz-archive/1",
                       "entries": [tampered]}, fh)
        with pytest.raises(ValueError, match="re-run the fuzzer"):
            load_archived_scenario(name, root=str(drift_dir))

    def test_entry_from_before_the_knob_removal_is_refused(
            self, baseline_run, tmp_path):
        """An entry written with the ``energy_idle`` knob and an
        ``engine`` build parameter no longer builds: one InputError
        naming the archive file and the entry."""
        out, _ = baseline_run
        name, entry = sorted(load_archive(str(out)).items())[0]
        old = dict(entry)
        old["space"] = {"knobs": entry["space"]["knobs"] + [
            {"name": "energy_idle", "lo": 0.05, "hi": 0.8, "kind": "float",
             "choices": []}]}
        old["vector"] = entry["vector"] + [0.2]
        old["build"] = {**entry["build"], "engine": "tick"}
        old_dir = tmp_path / "old"
        old_dir.mkdir()
        with open(old_dir / "archive.json", "w", encoding="utf-8") as fh:
            json.dump({"format": "repro-fuzz-archive/1",
                       "entries": [old]}, fh)
        with pytest.raises(InputError, match="re-run the fuzzer") as err:
            load_archived_scenario(name, root=str(old_dir))
        assert str(err.value).startswith(archive_path(str(old_dir)))
        assert repr(name) in str(err.value)

    def test_bad_archive_format_rejected(self, tmp_path):
        with open(tmp_path / "archive.json", "w", encoding="utf-8") as fh:
            json.dump({"format": "other/9", "entries": []}, fh)
        with pytest.raises(ValueError, match="format"):
            load_archive(str(tmp_path))

    def test_missing_archive_is_empty_not_error(self, tmp_path):
        assert load_archive(str(tmp_path / "nothing")) == {}
