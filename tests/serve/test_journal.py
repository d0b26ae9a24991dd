"""The serving checkpoint as base snapshot plus hash-chained op journal.

Pinned properties:

* a crash at any byte of any journal append restarts at the
  complete-line prefix, and the resumed session still drains
  byte-identical to the batch path;
* a journal left over from an older base is ignored, a corrupt line
  stops startup with an error naming it, and the chain continues across
  repeated restarts;
* ``advance`` frames are journaled and replayed, not only submits;
* a cadence checkpoint appends its own lines and nothing else: the
  session is snapshotted once, however long it runs;
* ``checkpoint_every=0`` journals nothing.
"""

import pytest

from repro.baselines import baseline_roster
from repro.harness.library import get_scenario
from repro.serve import (
    SchedulerService,
    batch_reference,
    dumps_metrics,
    load_checkpoint,
    trace_payloads,
)
from repro.serve import service as service_module
from repro.serve.checkpoint import (
    JOURNAL_NAME,
    append_journal,
    journal_path,
    recover_journal,
)


@pytest.fixture(scope="module")
def scenario():
    return get_scenario("quick")


@pytest.fixture(scope="module")
def payloads(scenario):
    return trace_payloads(scenario.trace(1000))


@pytest.fixture(scope="module")
def expected(scenario, payloads):
    return batch_reference(scenario.platforms, payloads,
                           baseline_roster()["greedy-elastic"],
                           max_ticks=scenario.max_ticks)


def make_service(scenario, state_dir, checkpoint_every=4):
    return SchedulerService(scenario.platforms,
                            baseline_roster()["greedy-elastic"],
                            max_ticks=scenario.max_ticks,
                            state_dir=str(state_dir),
                            checkpoint_every=checkpoint_every)


def submit_range(svc, payloads, stop=None):
    for i in range(svc.n_submitted, len(payloads) if stop is None else stop):
        assert svc.submit(payloads[i], index=i)["ok"]


def finish(svc, payloads):
    submit_range(svc, payloads)
    return dumps_metrics(svc.drain()["metrics"])


def journal_bytes(state_dir):
    with open(journal_path(str(state_dir)), "rb") as handle:
        return handle.read()


def crashed_session(scenario, payloads, state_dir, n):
    """A session killed after ``n`` submits (no drain, no final flush):
    base at 4, then journal lines for submits 4 .. 4*(n//4)-1."""
    svc = make_service(scenario, state_dir)
    submit_range(svc, payloads, n)
    return load_checkpoint(str(state_dir))["n_submitted"]


class TestCrashAtEveryJournalWrite:
    def test_every_cut_resumes_at_complete_line_prefix(
            self, scenario, payloads, expected, tmp_path):
        source = tmp_path / "source"
        base_n = crashed_session(scenario, payloads, source, 18)
        base = (source / "CHECKPOINT.json").read_bytes()
        journal = journal_bytes(source)
        lines = journal.splitlines(keepends=True)
        assert base_n == 4 and len(lines) == 12

        cuts = [(0, 0)]     # (byte offset, complete lines before it)
        offset = 0
        for complete, line in enumerate(lines):
            cuts += [(offset + len(line) // 2, complete),
                     (offset + len(line) - 1, complete),  # no newline yet
                     (offset + len(line), complete + 1)]
            offset += len(line)
        for cut, complete in cuts:
            state = tmp_path / f"cut-{cut}"
            state.mkdir()
            (state / "CHECKPOINT.json").write_bytes(base)
            (state / JOURNAL_NAME).write_bytes(journal[:cut])
            resumed = make_service(scenario, state)
            assert resumed.n_submitted == base_n + complete, cut
            # A torn tail is cut off, so new lines chain on after the
            # last complete one and a further restart replays them.
            assert journal_bytes(state) == b"".join(lines[:complete])
            assert finish(resumed, payloads) == expected, cut
            again = make_service(scenario, state)
            assert again.drained
            assert dumps_metrics(again.metrics()["metrics"]) == expected


class TestRecovery:
    def test_stale_journal_is_ignored(self, scenario, payloads, expected,
                                      tmp_path):
        svc = make_service(scenario, tmp_path)
        submit_range(svc, payloads, 12)
        stale = journal_bytes(tmp_path)
        assert stale.count(b"\n") == 8
        svc.checkpoint()            # new base at 12, empty journal
        # A crash between installing the base and emptying the journal
        # leaves the old journal beside the new base.
        (tmp_path / JOURNAL_NAME).write_bytes(stale)
        resumed = make_service(scenario, tmp_path)
        assert resumed.n_submitted == 12
        assert journal_bytes(tmp_path) == b""
        assert finish(resumed, payloads) == expected
        again = make_service(scenario, tmp_path)
        assert again.drained and again.n_submitted == len(payloads)

    @pytest.mark.parametrize("damage, message", [
        (lambda line: line[:10] + b"#" + line[11:], ":3: unparsable"),
        (lambda line: line.replace(b'"submit"', b'"advance"'),
         ":4: broken hash chain"),
    ], ids=["garbled", "rewritten"])
    def test_corrupt_middle_line_names_it(self, scenario, payloads, tmp_path,
                                          damage, message):
        crashed_session(scenario, payloads, tmp_path, 12)
        lines = journal_bytes(tmp_path).splitlines(keepends=True)
        lines[2] = damage(lines[2])
        (tmp_path / JOURNAL_NAME).write_bytes(b"".join(lines))
        with pytest.raises(ValueError, match=JOURNAL_NAME + message):
            make_service(scenario, tmp_path)

    def test_replayed_frame_that_fails_names_its_line(self, scenario,
                                                      payloads, tmp_path):
        crashed_session(scenario, payloads, tmp_path, 8)
        _, head = recover_journal(str(tmp_path))
        append_journal(str(tmp_path), [{"op": "advance", "to": 0}], head)
        with pytest.raises(ValueError, match=JOURNAL_NAME + ":5: .*cannot "
                                             "advance to 0"):
            make_service(scenario, tmp_path)

    def test_chain_continues_across_two_restarts(self, scenario, payloads,
                                                 expected, tmp_path):
        crashed_session(scenario, payloads, tmp_path, 10)
        first = make_service(scenario, tmp_path)
        assert first.n_submitted == 8
        submit_range(first, payloads, 19)
        del first                   # crash again: 16 durable
        second = make_service(scenario, tmp_path)
        assert second.n_submitted == 16
        frames, _ = recover_journal(str(tmp_path))
        assert [f["index"] for f in frames] == list(range(4, 16))
        assert finish(second, payloads) == expected


class TestAdvanceIsJournaled:
    def test_submit_advance_submit_recovers_now_and_metrics(
            self, scenario, payloads, tmp_path):
        target = payloads[3]["arrival_time"] + 1
        later = [p for p in payloads[3:] if p["arrival_time"] >= target]

        def frames():
            yield from ({"op": "submit", "index": i, "job": payloads[i]}
                        for i in range(3))
            yield {"op": "advance", "to": target}
            yield from ({"op": "submit", "index": 3 + i, "job": p}
                        for i, p in enumerate(later))

        reference = SchedulerService(scenario.platforms,
                                     baseline_roster()["greedy-elastic"],
                                     max_ticks=scenario.max_ticks)
        for frame in frames():
            assert reference.handle(frame)["ok"]
        expected = dumps_metrics(reference.drain()["metrics"])

        # Cadence 2: base after two submits, then the third submit and
        # the advance are journaled; the next submit dies in the buffer.
        svc = make_service(scenario, tmp_path, checkpoint_every=2)
        stream = frames()
        for _ in range(5):
            assert svc.handle(next(stream))["ok"]
        del svc
        resumed = make_service(scenario, tmp_path, checkpoint_every=2)
        assert (resumed.n_submitted, resumed.sim.now) == (3, target)
        skipped = payloads[3]       # arrives before the advanced-to tick
        assert not resumed.handle({"op": "submit", "index": 3,
                                   "job": skipped})["ok"]
        for i, payload in enumerate(later):
            assert resumed.handle({"op": "submit", "index": 3 + i,
                                   "job": payload})["ok"]
        assert dumps_metrics(resumed.drain()["metrics"]) == expected


class TestCheckpointCost:
    def test_submit_only_session_snapshots_once(self, scenario, payloads,
                                                monkeypatch, tmp_path):
        calls = []
        real = service_module.snapshot_simulation
        monkeypatch.setattr(service_module, "snapshot_simulation",
                            lambda sim: calls.append(1) or real(sim))
        svc = make_service(scenario, tmp_path)
        journal = b""
        for i, payload in enumerate(payloads):
            svc.submit(payload, index=i)
            if i >= 4 and (i + 1) % 4 == 0:
                grown = journal_bytes(tmp_path)
                assert grown.startswith(journal)
                assert grown[len(journal):].count(b"\n") == 4
                journal = grown
        assert len(calls) == 1
        assert load_checkpoint(str(tmp_path))["n_submitted"] == 4


class TestCadenceZero:
    def test_nothing_is_buffered(self, scenario, payloads, expected,
                                 tmp_path):
        svc = make_service(scenario, tmp_path, checkpoint_every=0)
        submit_range(svc, payloads, 5)
        assert load_checkpoint(str(tmp_path)) is None
        assert svc.handle({"op": "checkpoint"})["ok"]
        submit_range(svc, payloads, 10)
        assert svc.handle({"op": "advance", "to": svc.sim.now + 1})["ok"]
        assert svc._pending == []
        assert journal_bytes(tmp_path) == b""
        resumed = make_service(scenario, tmp_path, checkpoint_every=0)
        assert resumed.n_submitted == 5
        assert finish(resumed, payloads) == expected
        again = make_service(scenario, tmp_path, checkpoint_every=0)
        assert again.drained and again.n_submitted == len(payloads)
