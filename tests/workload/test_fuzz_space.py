"""Knob space: counter-based determinism, bounds, serialization."""

import json

import pytest

from repro.workload.fuzz.space import (
    VALUE_DECIMALS,
    Knob,
    ScenarioSpace,
    default_space,
)


class TestKnob:
    def test_validation(self):
        with pytest.raises(ValueError, match="lo < hi"):
            Knob("x", 1.0, 1.0)
        with pytest.raises(ValueError, match="kind"):
            Knob("x", 0.0, 1.0, kind="enum")
        with pytest.raises(ValueError, match="choices"):
            Knob("x", 0.0, 1.0, kind="choice")
        with pytest.raises(ValueError, match="span"):
            Knob("x", 0.0, 1.0, kind="choice", choices=("a", "b"))

    def test_decode_kinds(self):
        assert Knob("f", 0.0, 1.0).decode(0.25) == 0.25
        assert Knob("i", 1.0, 9.0, kind="int").decode(3.6) == 4
        assert Knob("i", 1.0, 9.0, kind="int").decode(99.0) == 9
        choice = Knob("c", 0.0, 3.0, kind="choice",
                      choices=("a", "b", "c"))
        assert choice.decode(0.0) == "a"
        assert choice.decode(2.999999) == "c"
        assert choice.decode(3.0) == "c"  # clamped, never IndexError

    def test_payload_round_trip(self):
        knob = Knob("c", 0.0, 2.0, kind="choice", choices=("x", "y"))
        assert Knob.from_payload(knob.payload()) == knob


class TestSpaceOperations:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            ScenarioSpace(knobs=())
        with pytest.raises(ValueError, match="duplicate"):
            ScenarioSpace(knobs=(Knob("a", 0, 1), Knob("a", 0, 2)))
        with pytest.raises(ValueError, match="components"):
            default_space().decode((0.5,))

    def test_operations_are_pure_functions_of_coordinates(self):
        """Same (seed, generation, slot) => same draw; no hidden cursor."""
        space = default_space()
        first = space.sample(7, 0, 3)
        # Interleave unrelated draws; the coordinate draw must not move.
        space.sample(7, 1, 0)
        space.mutate(first, 7, 2, 1)
        assert space.sample(7, 0, 3) == first
        assert space.mutate(first, 7, 2, 1) == space.mutate(first, 7, 2, 1)
        a, b = space.sample(7, 0, 0), space.sample(7, 0, 1)
        assert space.crossover(a, b, 7, 1, 2) == space.crossover(a, b, 7, 1, 2)
        assert space.select(5, 7, 1, 2) == space.select(5, 7, 1, 2)

    def test_distinct_coordinates_differ(self):
        space = default_space()
        assert space.sample(7, 0, 0) != space.sample(7, 0, 1)
        assert space.sample(7, 0, 0) != space.sample(8, 0, 0)

    def test_vectors_stay_in_bounds_and_rounded(self):
        space = default_space()
        for slot in range(20):
            vec = space.mutate(space.sample(11, 0, slot), 11, 1, slot,
                               scale=5.0)  # huge scale forces clipping
            for knob, value in zip(space.knobs, vec):
                assert knob.lo <= value <= knob.hi
                assert value == round(value, VALUE_DECIMALS)
            space.decode(vec)  # decodes without error after clipping

    def test_vectors_survive_json_round_trip(self):
        space = default_space()
        vec = space.sample(3, 0, 0)
        assert tuple(json.loads(json.dumps(list(vec)))) == vec

    def test_select_indices_valid_and_biased_to_top(self):
        space = default_space()
        picks = [space.select(10, 0, g, s)
                 for g in range(20) for s in range(20)]
        assert all(0 <= a < 10 and 0 <= b < 10 and 0.0 <= u <= 1.0
                   for a, b, u in picks)
        # Min-of-two-uniforms: mean parent index must sit below uniform's.
        mean_idx = sum(a for a, _, _ in picks) / len(picks)
        assert mean_idx < 4.0

    def test_space_payload_round_trip(self):
        space = default_space()
        rebuilt = ScenarioSpace.from_payload(
            json.loads(json.dumps(space.payload())))
        assert rebuilt == space
        assert rebuilt.sample(5, 0, 0) == space.sample(5, 0, 0)


def test_default_space_covers_the_documented_knobs():
    assert default_space().names() == [
        "load", "arrival", "burstiness", "switch_prob", "tightness",
        "tc_share", "width_scale", "fault_rate",
    ]
