"""SchedulerService: the serving invariant, transport-free.

The load-bearing property: a served run — jobs submitted one at a time,
the sim advanced to each arrival, drained at the end — produces final
metrics *byte-identical* (canonical JSON) to the batch path holding the
whole trace up front. Pinned with and without a mid-stream crash
(service dropped between checkpoints, restarted from the state dir),
including a stochastic policy whose RNG stream must survive the
restart.
"""

import json

import pytest

from repro.baselines import baseline_roster
from repro.harness.library import get_scenario
from repro.harness.scenario import standard_scenario
from repro.serve import (
    SchedulerService,
    batch_reference,
    decode_line,
    dumps_metrics,
    load_checkpoint,
    trace_payloads,
)
from repro.serve.checkpoint import CHECKPOINT_FORMAT, journal_path
from repro.sim import StateTables
from repro.util.errors import InputError


def fresh_policy(name):
    return dict(baseline_roster())[name]


@pytest.fixture(scope="module")
def scenario():
    return get_scenario("quick")


@pytest.fixture(scope="module")
def payloads(scenario):
    return trace_payloads(scenario.trace(1000))


def make_service(scenario, name, **kw):
    return SchedulerService(scenario.platforms, fresh_policy(name),
                            max_ticks=scenario.max_ticks,
                            policy_desc=name, **kw)


def batch_bytes(scenario, payloads, name):
    return batch_reference(scenario.platforms, payloads, fresh_policy(name),
                           max_ticks=scenario.max_ticks)


class TestServedEqualsBatch:
    @pytest.mark.parametrize("name", ["fifo", "edf", "greedy-elastic",
                                      "random"])
    def test_straight_through(self, scenario, payloads, name):
        svc = make_service(scenario, name)
        for i, payload in enumerate(payloads):
            response = svc.submit(payload, index=i)
            assert response["ok"]
        served = dumps_metrics(svc.drain()["metrics"])
        assert served == batch_bytes(scenario, payloads, name)

    @pytest.mark.parametrize("name", ["greedy-elastic", "random"])
    def test_crash_restart_mid_stream(self, scenario, payloads, name,
                                      tmp_path):
        state = str(tmp_path)
        first = make_service(scenario, name, state_dir=state,
                             checkpoint_every=8)
        for i in range(20):
            first.submit(payloads[i], index=i)
        del first  # kill -9 stand-in: no drain, no final checkpoint

        second = make_service(scenario, name, state_dir=state,
                              checkpoint_every=8)
        assert second.resumed
        # The rolling checkpoint lags the crash point by < cadence: the
        # client resubmits the gap idempotently from the server's index.
        assert second.n_submitted == 16
        for i in range(second.n_submitted, len(payloads)):
            second.submit(payloads[i], index=i)
        served = dumps_metrics(second.drain()["metrics"])
        assert served == batch_bytes(scenario, payloads, name)

    def test_restart_after_drain_replays_metrics(self, scenario, payloads,
                                                 tmp_path):
        state = str(tmp_path)
        svc = make_service(scenario, "edf", state_dir=state)
        for i, payload in enumerate(payloads):
            svc.submit(payload, index=i)
        expected = dumps_metrics(svc.drain()["metrics"])

        again = make_service(scenario, "edf", state_dir=state)
        assert again.resumed and again.drained
        assert dumps_metrics(again.metrics()["metrics"]) == expected
        # drain is idempotent: the run is complete, re-draining is a read
        assert dumps_metrics(again.drain()["metrics"]) == expected


class TestProtocolContract:
    def test_out_of_order_arrival_rejected(self, scenario, payloads):
        svc = make_service(scenario, "fifo")
        later = max(payloads, key=lambda p: p["arrival_time"])
        svc.submit(later, index=0)
        earlier = min(payloads, key=lambda p: p["arrival_time"])
        response = svc.handle({"op": "submit", "index": 1, "job": earlier})
        assert not response["ok"]
        assert "non-decreasing" in response["error"]

    def test_index_mismatch_rejected(self, scenario, payloads):
        svc = make_service(scenario, "fifo")
        svc.submit(payloads[0], index=0)
        response = svc.handle({"op": "submit", "index": 0,
                               "job": payloads[1]})
        assert not response["ok"]
        assert "expected submission index 1" in response["error"]

    def test_submit_after_drain_rejected(self, scenario, payloads):
        svc = make_service(scenario, "fifo")
        svc.submit(payloads[0], index=0)
        svc.drain()
        response = svc.handle({"op": "submit", "index": 1,
                               "job": payloads[1]})
        assert not response["ok"]
        assert "drained" in response["error"]

    def test_decisions_use_submission_indices(self, scenario, payloads):
        svc = make_service(scenario, "fifo")
        decisions = []
        for i, payload in enumerate(payloads[:10]):
            decisions += svc.submit(payload, index=i)["decisions"]
        decisions += svc.drain()["decisions"]
        assert decisions, "a full run must produce decisions"
        for d in decisions:
            assert d["kind"] not in ("tick", "arrival")
            if d["job"] is not None:
                assert 0 <= d["job"] < svc.n_submitted
        started = {d["job"] for d in decisions if d["kind"] == "start"}
        assert started  # indices, not raw job ids

    def test_advance_moves_time_without_jobs(self, scenario):
        svc = make_service(scenario, "fifo")
        response = svc.handle({"op": "advance", "to": 7})
        assert response["ok"] and response["now"] == 7
        backwards = svc.handle({"op": "advance", "to": 3})
        assert not backwards["ok"]

    def test_unknown_op_is_an_error_response(self, scenario):
        svc = make_service(scenario, "fifo")
        response = svc.handle({"op": "frobnicate"})
        assert not response["ok"] and "unknown op" in response["error"]

    def test_latency_stats_populated(self, scenario, payloads):
        svc = make_service(scenario, "fifo")
        for i, payload in enumerate(payloads[:5]):
            svc.submit(payload, index=i)
        svc.drain()
        latency = svc.stats()["latency"]
        assert latency["decisions"] > 0
        assert 0 < latency["p50_us"] <= latency["p99_us"] <= latency["max_us"]

    def test_decode_line_rejects_non_objects(self):
        with pytest.raises(ValueError):
            decode_line(b"[1, 2, 3]\n")


#: Submit frames that used to be accepted and then poison the session:
#: every later drain failed, or the frame raised out of ``handle()``.
POISON = {
    "nan-work": ("work", float("nan")),
    "unserved-affinity": ("affinity", {"tpu": 1.0}),
    "infinite-deadline": ("deadline", float("inf")),
    "infinite-arrival": ("arrival_time", float("inf")),
}


@pytest.fixture(scope="module")
def clean_edf_bytes(scenario, payloads):
    svc = make_service(scenario, "edf")
    for i, payload in enumerate(payloads):
        svc.submit(payload, index=i)
    return dumps_metrics(svc.drain()["metrics"])


class TestPoisonedSubmits:
    """A poisoned submit is refused before any state changes: the
    session then drains exactly as one that never saw the frame."""

    @pytest.mark.parametrize("field, value", list(POISON.values()),
                             ids=list(POISON))
    def test_rejected_without_harm(self, scenario, payloads, clean_edf_bytes,
                                   field, value):
        svc = make_service(scenario, "edf")
        cut = len(payloads) // 2
        for i in range(cut):
            svc.submit(payloads[i], index=i)
        now = svc.sim.now
        line = json.dumps({"op": "submit", "index": cut,
                           "job": {**payloads[cut], field: value}})
        response = svc.handle(decode_line(line))
        assert response["ok"] is False
        assert svc.n_submitted == cut and svc.sim.now == now
        for i in range(cut, len(payloads)):
            assert svc.handle({"op": "submit", "index": i,
                               "job": payloads[i]})["ok"]
        drained = svc.handle({"op": "drain"})
        assert drained["ok"]
        assert dumps_metrics(drained["metrics"]) == clean_edf_bytes


#: Parallelism bounds past int64. A ``Job`` accepts them, but storing
#: one in the simulation's int64 columns raised ``OverflowError`` out of
#: ``handle()``.
HUGE_PARALLELISM = {
    "max": ("max_parallelism", {"max_parallelism": 10**30}),
    "both": ("min_parallelism", {"min_parallelism": 10**30,
                                 "max_parallelism": 10**30}),
}


class TestParallelismBounds:
    """A submit whose parallelism bound overflows int64 gets an error
    reply naming the field; the session then accepts the same index."""

    @pytest.mark.parametrize("field, bounds", list(HUGE_PARALLELISM.values()),
                             ids=list(HUGE_PARALLELISM))
    def test_rejected_naming_the_field(self, scenario, payloads, field,
                                       bounds):
        svc = make_service(scenario, "edf")
        svc.submit(payloads[0], index=0)
        now = svc.sim.now
        line = json.dumps({"op": "submit", "index": 1,
                           "job": {**payloads[1], **bounds}})
        response = svc.handle(decode_line(line))
        assert response["ok"] is False
        assert f"field '{field}'" in response["error"]
        assert svc.n_submitted == 1 and svc.sim.now == now
        assert svc.handle({"op": "submit", "index": 1,
                           "job": payloads[1]})["ok"]


#: ``advance`` frames that used to raise out of ``handle()`` (Infinity)
#: or be coerced through ``int()`` into a tick nobody asked for.
BAD_ADVANCE = {
    "infinity": '{"op": "advance", "to": Infinity}',
    "bool": '{"op": "advance", "to": true}',
    "float": '{"op": "advance", "to": 12.7}',
    "string": '{"op": "advance", "to": "30"}',
}


class TestAdvanceValidation:
    """A malformed ``advance`` is refused before the kernel moves and
    before anything reaches the journal."""

    @pytest.mark.parametrize("line", list(BAD_ADVANCE.values()),
                             ids=list(BAD_ADVANCE))
    def test_rejected_without_harm(self, scenario, payloads, tmp_path, line):
        svc = make_service(scenario, "fifo", state_dir=str(tmp_path),
                           checkpoint_every=1)
        for i in range(2):
            svc.submit(payloads[i], index=i)
        now = svc.sim.now
        with open(journal_path(str(tmp_path)), "rb") as handle:
            journal = handle.read()
        response = svc.handle(decode_line(line))
        assert response["ok"] is False
        assert "integer tick" in response["error"]
        assert svc.sim.now == now
        assert svc._pending == []
        with open(journal_path(str(tmp_path)), "rb") as handle:
            assert handle.read() == journal


#: ``submit`` indices that ``int()`` used to coerce to 1, the index the
#: session expects next, so the parent accepted each of them.
BAD_INDEX = {"float": 1.7, "integral_float": 1.0, "string": "1", "bool": True}


class TestSubmitIndexValidation:
    """A ``submit`` whose index is not exactly an int is refused before
    the kernel moves and before anything reaches the journal."""

    @pytest.mark.parametrize("index", list(BAD_INDEX.values()),
                             ids=list(BAD_INDEX))
    def test_rejected_without_harm(self, scenario, payloads, tmp_path, index):
        svc = make_service(scenario, "edf", state_dir=str(tmp_path),
                           checkpoint_every=1)
        svc.submit(payloads[0], index=0)
        assert svc.handle({"op": "advance", "to": svc.sim.now})["ok"]
        now, n_submitted = svc.sim.now, svc.n_submitted
        with open(journal_path(str(tmp_path)), "rb") as handle:
            journal = handle.read()
        assert journal  # the advance above is journaled
        line = json.dumps({"op": "submit", "index": index,
                           "job": payloads[1]})
        response = svc.handle(decode_line(line))
        assert response["ok"] is False
        assert "must be an integer" in response["error"]
        assert svc.sim.now == now and svc.n_submitted == n_submitted == 1
        with open(journal_path(str(tmp_path)), "rb") as handle:
            assert handle.read() == journal


class TestCheckpointFile:
    def test_wrong_format_rejected(self, tmp_path):
        import json

        (tmp_path / "CHECKPOINT.json").write_text(
            json.dumps({"format": "something-else/9"}))
        with pytest.raises(ValueError, match="not a repro-serve-checkpoint"):
            load_checkpoint(str(tmp_path))

    @pytest.mark.parametrize("text", [
        '{"format": "%s", "sim": {"form' % CHECKPOINT_FORMAT,
        "[1, 2]",
        '{"format": "%s"}' % CHECKPOINT_FORMAT,
    ], ids=["truncated", "array", "without-sim"])
    def test_unusable_base_is_an_input_error(self, scenario, tmp_path, text):
        """A base that cannot be restored stops the service before it
        serves, with an error naming the file."""
        (tmp_path / "CHECKPOINT.json").write_text(text)
        with pytest.raises(InputError, match="CHECKPOINT.json"):
            make_service(scenario, "edf", state_dir=str(tmp_path))

    def test_base_with_job_id_map_is_refused(self, scenario, payloads,
                                             tmp_path):
        """A ``/2`` base (process-wide job ids plus a ``job_ids`` map) is
        refused by its format string before anything is restored."""
        svc = make_service(scenario, "edf", state_dir=str(tmp_path))
        svc.submit(payloads[0], index=0)
        svc.checkpoint()
        path = tmp_path / "CHECKPOINT.json"
        base = json.loads(path.read_text())
        base.update(format="repro-serve-checkpoint/2", job_ids=[68])
        path.write_text(json.dumps(base))
        with pytest.raises(InputError,
                           match="not a repro-serve-checkpoint/3"):
            make_service(scenario, "edf", state_dir=str(tmp_path))

    def test_missing_reads_as_none(self, tmp_path):
        assert load_checkpoint(str(tmp_path)) is None

    def test_checkpoint_written_on_cadence(self, scenario, payloads,
                                           tmp_path):
        svc = make_service(scenario, "fifo", state_dir=str(tmp_path),
                           checkpoint_every=4)
        for i in range(3):
            svc.submit(payloads[i], index=i)
        assert load_checkpoint(str(tmp_path)) is None
        svc.submit(payloads[3], index=3)
        checkpoint = load_checkpoint(str(tmp_path))
        assert checkpoint is not None
        assert checkpoint["n_submitted"] == 4


class TestSimulationLocalIds:
    """A served job's id is its slot, which is its submission index, so
    the bytes a session writes depend on what it was sent and on nothing
    else this process did before."""

    def final_base(self, scenario, payloads, state, start=0, svc=None):
        svc = svc or make_service(scenario, "greedy-elastic",
                                  state_dir=state, checkpoint_every=8)
        for i in range(start, len(payloads)):
            svc.submit(payloads[i], index=i)
        svc.drain()
        svc.handle({"op": "shutdown"})
        with open(f"{state}/CHECKPOINT.json", "rb") as handle:
            return handle.read()

    def test_identical_sessions_write_identical_bases(self, scenario,
                                                      payloads, tmp_path):
        first = self.final_base(scenario, payloads, str(tmp_path / "a"))
        second = self.final_base(scenario, payloads, str(tmp_path / "b"))
        assert first == second

    def test_restored_session_ends_on_the_uninterrupted_base(self, tmp_path):
        scenario = get_scenario("swf-fixture")
        payloads = trace_payloads(scenario.trace(0))
        state = str(tmp_path / "killed")
        killed = make_service(scenario, "greedy-elastic", state_dir=state,
                              checkpoint_every=8)
        for i in range(20):
            killed.submit(payloads[i], index=i)
        del killed  # kill -9 stand-in: submits 17-20 were never flushed

        restored = make_service(scenario, "greedy-elastic", state_dir=state,
                                checkpoint_every=8)
        assert restored.resumed and restored.n_submitted == 16
        served = self.final_base(scenario, payloads, state, start=16,
                                 svc=restored)
        assert served == self.final_base(scenario, payloads,
                                         str(tmp_path / "whole"))
        assert restored.sim._all_jobs[16].job_id == 16  # the next slot


class TestMissWatchWork:
    """A submit's miss-watch work follows the live jobs, not the
    session's history: each recompute of the miss scan's deadline bound
    reads exactly the pending and running slots."""

    def test_bound_reads_only_the_live_set(self, monkeypatch):
        scenario = standard_scenario(horizon=300)
        payloads = trace_payloads(scenario.trace(1000))
        svc = make_service(scenario, "edf")
        reads = []
        min_deadline = StateTables.min_deadline

        def counted(tables, slots):
            sim = svc.sim
            reads.append((len(slots), len(sim.pending) + tables.run_count))
            return min_deadline(tables, slots)

        monkeypatch.setattr(StateTables, "min_deadline", counted)
        for i, payload in enumerate(payloads):
            svc.submit(payload, index=i)
        svc.drain()
        assert len(payloads) > 400 and len(reads) > len(payloads) // 2
        assert all(read == live for read, live in reads)
        assert max(read for read, _ in reads) < len(payloads) // 10
