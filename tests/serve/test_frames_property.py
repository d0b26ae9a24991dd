"""Any frame gets a reply, and a refused frame changes nothing.

A derandomized hypothesis property over short frame sequences sent to
:meth:`SchedulerService.handle`: ops from the protocol plus unknown
ones, job payloads with fields dropped or replaced by arbitrary JSON
values, and ``index``/``to`` of any JSON type. Every reply is a
JSON-serializable dict carrying ``ok``; a reply with ``ok: false``
leaves the simulation snapshot and the submission count as they were.
The service has a horizon, so an accepted ``advance`` to a huge ``to``
is bounded work.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import baseline_roster
from repro.harness.library import get_scenario
from repro.serve import SchedulerService, trace_payloads
from repro.sim.snapshot import snapshot_simulation

SCENARIO = get_scenario("quick")
PAYLOADS = trace_payloads(SCENARIO.trace(1000))[:8]

OPS = ("hello", "submit", "advance", "drain", "metrics", "stats",
       "checkpoint", "shutdown")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6)


@st.composite
def job_payloads(draw):
    """A trace payload with some fields dropped and some replaced."""
    payload = dict(draw(st.sampled_from(PAYLOADS)))
    fields = sorted(payload)
    for name in draw(st.sets(st.sampled_from(fields), max_size=2)):
        del payload[name]
    payload.update(draw(st.dictionaries(st.sampled_from(fields), json_values,
                                        max_size=2)))
    return payload


#: A protocol op eight times in nine, otherwise any JSON value.
ops = st.sampled_from(OPS + (None,)).flatmap(
    lambda op: json_values if op is None else st.just(op))

frames = st.fixed_dictionaries(
    {"op": ops},
    optional={"job": st.sampled_from(PAYLOADS) | job_payloads() | json_values,
              "index": st.integers(0, 3) | json_values,
              "to": st.integers(0, 300) | json_values})


def state(svc) -> tuple:
    return (json.dumps(snapshot_simulation(svc.sim), sort_keys=True),
            svc.n_submitted)


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(frames, min_size=1, max_size=4))
def test_refused_frames_change_nothing(sequence):
    svc = SchedulerService(SCENARIO.platforms, baseline_roster()["edf"],
                           max_ticks=SCENARIO.max_ticks)
    for frame in sequence:
        before = state(svc)
        reply = svc.handle(frame)
        assert isinstance(reply, dict) and isinstance(reply["ok"], bool)
        json.dumps(reply)
        if not reply["ok"]:
            assert state(svc) == before, (frame, reply)
