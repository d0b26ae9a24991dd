"""FuzzScenario: knob mapping, arrival anchoring, evaluation hook."""

import pytest

from repro.workload.arrivals import (
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
)
from repro.workload.fuzz.scenario import FuzzScenario, scenario_from_knobs
from repro.workload.fuzz.space import default_space
from repro.workload.generator import arrival_rate_for_load

BASE_KNOBS = {
    "load": 0.9, "arrival": "poisson", "burstiness": 0.4,
    "switch_prob": 0.1, "tightness": 1.0, "tc_share": 0.5,
    "width_scale": 1.0, "fault_rate": 0.0,
}


def _scenario(**knob_overrides):
    return scenario_from_knobs({**BASE_KNOBS, **knob_overrides},
                               horizon=16, max_ticks=100)


class TestKnobMapping:
    def test_base_fields(self):
        s = _scenario()
        assert isinstance(s, FuzzScenario)
        assert s.load == 0.9
        assert s.workload.tightness_scale == 1.0
        assert [p.name for p in s.platforms] == ["cpu", "gpu"]

    def test_tc_share_reweights_class_mix(self):
        heavy = _scenario(tc_share=0.8)
        tc = sum(c.mix_weight for c in heavy.workload.classes
                 if c.name.startswith("tc-"))
        assert tc == pytest.approx(0.8, abs=1e-5)
        assert sum(c.mix_weight for c in heavy.workload.classes) == \
            pytest.approx(1.0, abs=1e-5)

    def test_width_scale_scales_parallelism_ceilings(self):
        narrow = _scenario(width_scale=0.5)
        wide = _scenario(width_scale=2.0)
        for n_cls, w_cls in zip(narrow.workload.classes,
                                wide.workload.classes):
            assert w_cls.parallelism_range[1] >= n_cls.parallelism_range[1]
            assert n_cls.parallelism_range[1] >= n_cls.parallelism_range[0]

    def test_same_knobs_same_fingerprint(self):
        assert _scenario().fingerprint() == _scenario().fingerprint()
        assert _scenario().fingerprint() != \
            _scenario(load=1.1).fingerprint()

    def test_decoded_default_space_sample_builds(self):
        space = default_space()
        for slot in range(5):
            scenario = scenario_from_knobs(
                space.decode(space.sample(0, 0, slot)),
                horizon=16, max_ticks=100)
            assert scenario.trace(0) is not None


class TestArrivalAnchoring:
    def test_families(self):
        assert isinstance(_scenario().arrival_process(), PoissonArrivals)
        assert isinstance(_scenario(arrival="bursty").arrival_process(),
                          BurstyArrivals)
        assert isinstance(_scenario(arrival="diurnal").arrival_process(),
                          DiurnalArrivals)

    def test_mean_rate_anchored_at_load(self):
        """The arrival knob changes shape, not offered load."""
        s = _scenario(arrival="bursty", burstiness=0.6)
        rate = arrival_rate_for_load(s.load, s.workload, s.platforms)
        proc = s.arrival_process()
        assert (proc.rate_low + proc.rate_high) / 2 == \
            pytest.approx(rate, rel=1e-9)
        diurnal = _scenario(arrival="diurnal").arrival_process()
        assert diurnal.base_rate == pytest.approx(rate, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError, match="arrival"):
            _scenario(arrival="lognormal")
        with pytest.raises(ValueError, match="burstiness"):
            _scenario(burstiness=1.0)
        with pytest.raises(ValueError, match="fault_rate"):
            _scenario(fault_rate=-0.1)


class TestEvaluationHook:
    def test_traces_are_seed_deterministic(self):
        s = _scenario(arrival="bursty")
        t1, t2 = s.trace(5), s.trace(5)
        assert len(t1) == len(t2)
        assert all(a.arrival_time == b.arrival_time and a.work == b.work
                   for a, b in zip(t1, t2))

    def test_evaluate_segment_attaches_faults(self):
        from repro.baselines import baseline_roster

        policy = dict(baseline_roster())["edf"]
        calm = _scenario().evaluate_segment(policy, trace_seed=0)
        assert calm.miss_rate >= 0.0
        faulty = _scenario(fault_rate=0.01).evaluate_segment(
            policy, trace_seed=0)
        # Same trace, same policy: fault injection can only hurt.
        assert faulty.miss_rate >= calm.miss_rate
