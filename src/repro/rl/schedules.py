"""The linear schedule DQN anneals its exploration rate and PER's ``beta`` by.

A schedule maps a non-negative integer step to a float. It is immutable
and holds no step counter: the caller owns the step.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["LinearSchedule"]


@dataclass(frozen=True)
class LinearSchedule:
    """Linear interpolation ``start -> end`` over ``steps``, then flat."""

    start: float
    end: float
    steps: int

    def __post_init__(self) -> None:
        if self.steps <= 0:
            raise ValueError("steps must be positive")

    def __call__(self, step: int) -> float:
        if step < 0:
            raise ValueError("step must be non-negative")
        frac = min(1.0, step / self.steps)
        return self.start + frac * (self.end - self.start)
