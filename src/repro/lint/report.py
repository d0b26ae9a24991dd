"""The text report of a lint run.

Deterministic: findings arrive pre-sorted by (path, line, col, rule),
one per line, followed by one summary line.
"""

from __future__ import annotations

from typing import Sequence

from repro.lint.findings import Finding

__all__ = ["render_text"]


def render_text(findings: Sequence[Finding], n_files: int,
                n_waived: int = 0) -> str:
    lines = [f.render() for f in findings]
    n_err = sum(1 for f in findings if f.severity == "error")
    n_warn = len(findings) - n_err
    tail = (f"{n_files} file(s) checked: "
            f"{n_err} error(s), {n_warn} warning(s)")
    if n_waived:
        tail += f" ({n_waived} waived)"
    lines.append(tail)
    return "\n".join(lines)
