"""Bounded knob space the scenario fuzzer searches.

A :class:`ScenarioSpace` is an ordered tuple of :class:`Knob` ranges; a
candidate is a vector of floats, one per knob, rounded to
:data:`VALUE_DECIMALS` decimals so candidate vectors serialize to JSON
byte-identically everywhere (archive entries and fingerprint feeds
never see excess float precision).

Every stochastic operation — initial sampling, mutation, crossover,
parent selection — draws from a *counter-based* Philox stream keyed on
``(seed, op, generation, slot)``, the same idiom the ingest normalizer
uses (:mod:`repro.workload.ingest.normalize`): a draw is a pure function
of its coordinates, never of how many draws happened before it. That is
what makes the search byte-identical across worker counts, cache states
and re-runs — no shared RNG cursor exists to drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["Knob", "ScenarioSpace", "default_space", "VALUE_DECIMALS"]

#: Candidate-vector values are rounded to this many decimals at every
#: operation boundary, so vectors survive a JSON round-trip exactly.
VALUE_DECIMALS = 6

_SEED_MASK = (1 << 64) - 1

# Operation codes keying the counter-based streams (SeedSequence
# entropy must be integers).
OP_SAMPLE = 1
OP_MUTATE = 2
OP_CROSSOVER = 3
OP_SELECT = 4


def _rng(seed: int, op: int, generation: int, slot: int) -> np.random.Generator:
    """The Philox generator for one (op, generation, slot) coordinate."""
    ss = np.random.SeedSequence(
        (int(seed) & _SEED_MASK, int(op), int(generation), int(slot)))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class Knob:
    """One bounded dimension of the fuzz search space.

    ``kind`` selects how the raw float value decodes:

    * ``"float"`` — used as-is.
    * ``"int"``   — rounded to the nearest integer.
    * ``"choice"`` — ``lo``/``hi`` must span ``[0, len(choices))``; the
      value floors to an index into ``choices``.
    """

    name: str
    lo: float
    hi: float
    kind: str = "float"
    choices: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("knob name must be non-empty")
        if self.kind not in ("float", "int", "choice"):
            raise ValueError(f"unknown knob kind {self.kind!r}")
        if self.kind == "choice":
            if not self.choices:
                raise ValueError(f"choice knob {self.name!r} needs choices")
            if (self.lo, self.hi) != (0.0, float(len(self.choices))):
                raise ValueError(
                    f"choice knob {self.name!r} must span [0, n_choices)")
        elif self.hi <= self.lo:
            raise ValueError(f"knob {self.name!r} needs lo < hi")

    def decode(self, value: float):
        """The scenario-facing value for a raw vector component."""
        if self.kind == "choice":
            idx = min(int(value), len(self.choices) - 1)
            return self.choices[max(idx, 0)]
        if self.kind == "int":
            return int(round(min(max(value, self.lo), self.hi)))
        return float(value)

    def payload(self) -> dict:
        return {"name": self.name, "lo": self.lo, "hi": self.hi,
                "kind": self.kind, "choices": list(self.choices)}

    @classmethod
    def from_payload(cls, payload: dict) -> "Knob":
        return cls(name=payload["name"], lo=float(payload["lo"]),
                   hi=float(payload["hi"]), kind=payload["kind"],
                   choices=tuple(payload["choices"]))


@dataclass(frozen=True)
class ScenarioSpace:
    """An ordered, bounded knob space; candidates are float vectors.

    All sampling operations are counter-based (see module docstring):
    the caller supplies ``(seed, generation, slot)`` coordinates and the
    result is a pure function of them plus the operands.
    """

    knobs: Tuple[Knob, ...]

    def __post_init__(self) -> None:
        if not self.knobs:
            raise ValueError("ScenarioSpace needs at least one knob")
        names = [k.name for k in self.knobs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate knob names in {names}")

    # --- vector helpers ------------------------------------------------
    def names(self) -> List[str]:
        return [k.name for k in self.knobs]

    def _clip_round(self, values: Sequence[float]) -> Tuple[float, ...]:
        out = []
        for knob, v in zip(self.knobs, values):
            hi = knob.hi
            if knob.kind == "choice":
                # Keep strictly below hi so the floor index stays valid.
                hi = np.nextafter(knob.hi, knob.lo)
            out.append(round(float(min(max(v, knob.lo), hi)), VALUE_DECIMALS))
        return tuple(out)

    def decode(self, vector: Sequence[float]) -> Dict[str, object]:
        """Knob-name -> scenario-facing value for a candidate vector."""
        self._check(vector)
        return {k.name: k.decode(v) for k, v in zip(self.knobs, vector)}

    def _check(self, vector: Sequence[float]) -> None:
        if len(vector) != len(self.knobs):
            raise ValueError(
                f"vector has {len(vector)} components, space has "
                f"{len(self.knobs)} knobs")

    # --- counter-based operations --------------------------------------
    def sample(self, seed: int, generation: int, slot: int) -> Tuple[float, ...]:
        """A fresh uniform candidate for one population slot."""
        u = _rng(seed, OP_SAMPLE, generation, slot).random(len(self.knobs))
        vals = [k.lo + ui * (k.hi - k.lo) for k, ui in zip(self.knobs, u)]
        return self._clip_round(vals)

    def mutate(self, vector: Sequence[float], seed: int, generation: int,
               slot: int, scale: float = 0.25) -> Tuple[float, ...]:
        """Gaussian perturbation of every knob, scaled by its range."""
        self._check(vector)
        noise = _rng(seed, OP_MUTATE, generation, slot).normal(
            size=len(self.knobs))
        vals = [v + n * scale * (k.hi - k.lo)
                for k, v, n in zip(self.knobs, vector, noise)]
        return self._clip_round(vals)

    def crossover(self, a: Sequence[float], b: Sequence[float], seed: int,
                  generation: int, slot: int) -> Tuple[float, ...]:
        """Uniform per-knob crossover of two parents."""
        self._check(a)
        self._check(b)
        u = _rng(seed, OP_CROSSOVER, generation, slot).random(len(self.knobs))
        vals = [av if ui < 0.5 else bv for av, bv, ui in zip(a, b, u)]
        return self._clip_round(vals)

    def select(self, n_ranked: int, seed: int, generation: int,
               slot: int) -> Tuple[int, int, bool]:
        """Rank-biased parent picks for one child slot.

        Returns ``(parent_a, parent_b, do_crossover_draw)`` where the
        parent indices index a best-first ranking (the min-of-two-uniforms
        trick biases toward the top) and the third component is the
        uniform draw deciding crossover, returned raw so the caller can
        compare it against its own crossover probability.
        """
        u = _rng(seed, OP_SELECT, generation, slot).random(5)
        a = int(min(u[0], u[1]) * n_ranked)
        b = int(min(u[2], u[3]) * n_ranked)
        return min(a, n_ranked - 1), min(b, n_ranked - 1), float(u[4])

    # --- serialization -------------------------------------------------
    def payload(self) -> dict:
        return {"knobs": [k.payload() for k in self.knobs]}

    @classmethod
    def from_payload(cls, payload: dict) -> "ScenarioSpace":
        return cls(knobs=tuple(Knob.from_payload(p)
                               for p in payload["knobs"]))


def default_space() -> ScenarioSpace:
    """The stock fuzz space over the synthetic generator's dials.

    Spans the regimes the paper's experiments sweep one at a time —
    offered load, arrival burstiness, deadline tightness, class mix,
    elasticity width — plus the fault rate, so the fuzzer
    can find *combinations* no hand-written sweep visits.
    """
    return ScenarioSpace(knobs=(
        Knob("load", 0.5, 1.25),
        Knob("arrival", 0.0, 3.0, kind="choice",
             choices=("poisson", "bursty", "diurnal")),
        Knob("burstiness", 0.1, 0.9),
        Knob("switch_prob", 0.02, 0.3),
        Knob("tightness", 0.55, 1.6),
        Knob("tc_share", 0.2, 0.85),
        Knob("width_scale", 0.5, 2.0),
        Knob("fault_rate", 0.0, 0.012),
    ))
