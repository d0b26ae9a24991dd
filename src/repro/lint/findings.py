"""Finding records emitted by the determinism-contract linter."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SEVERITIES", "Finding"]

#: Recognized severities, most severe first. Both fail the lint gate —
#: a ``warning`` marks a site that may be *correct by contract* (e.g. a
#: deliberately fixed RNG seed) but must say so in an inline waiver.
SEVERITIES = ("error", "warning")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location.

    Ordering is (path, line, col, rule_id) so reports are deterministic.
    """

    path: str
    line: int
    col: int
    rule_id: str
    severity: str
    message: str

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"severity must be one of {SEVERITIES}, "
                             f"got {self.severity!r}")

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col + 1}: "
                f"{self.rule_id} {self.severity}: {self.message}")
