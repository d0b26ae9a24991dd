"""Grandfathered-findings baseline for the determinism linter.

A baseline lets the lint gate turn on *today* while pre-existing
findings are burned down: recorded findings stop failing the gate, any
**new** finding still fails it, and a fixed finding makes the stale
baseline entry visible (reported as unmatched so it can be pruned with
``--update-baseline``).

Matching is a multiset over :meth:`Finding.key` — ``(rule_id, path,
message)``, deliberately excluding line numbers so unrelated edits that
shift a file don't churn the baseline. Two identical findings in one
file need two baseline entries.

The shipped ``lint-baseline.json`` is **empty**: every true positive in
``src/`` was either fixed or waived inline with a justification. The
mechanism stays for downstream forks and for staging future rules.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Iterable, List, Optional, Tuple

from repro.lint.findings import Finding
from repro.util.errors import InputError
from repro.util.io import atomic_write_json

__all__ = [
    "BASELINE_FORMAT",
    "DEFAULT_BASELINE_NAME",
    "load_baseline",
    "save_baseline",
    "apply_baseline",
]

BASELINE_FORMAT = "repro-lint-baseline/1"

#: Auto-loaded from the working directory when ``--baseline`` is absent.
DEFAULT_BASELINE_NAME = "lint-baseline.json"


def load_baseline(path: Path) -> Counter:
    """Load a baseline file into a Counter of finding keys.

    Raises :class:`~repro.util.errors.InputError` naming ``path`` when it
    cannot be read or is not a baseline file, so a corrupted baseline
    fails the gate loudly instead of silently admitting findings.
    """
    import json

    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if isinstance(data, dict) and data.get("format") == BASELINE_FORMAT:
            return Counter((entry["rule_id"], entry["path"], entry["message"])
                           for entry in data.get("findings", []))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InputError(f"{path}: cannot load baseline ({exc!r})") from None
    raise InputError(f"{path} is not a {BASELINE_FORMAT} baseline file")


def save_baseline(path: Path, findings: Iterable[Finding]) -> None:
    """Write ``findings`` as the new baseline (sorted, atomic)."""
    entries = [
        {"rule_id": f.rule_id, "path": f.path, "message": f.message}
        for f in sorted(findings)
    ]
    atomic_write_json(path, {"format": BASELINE_FORMAT,
                             "findings": entries}, indent=2)


def apply_baseline(
    findings: List[Finding],
    baseline: Optional[Counter],
) -> Tuple[List[Finding], int, List[Tuple[str, str, str]]]:
    """Split findings against the baseline.

    Returns ``(new_findings, n_baselined, stale_keys)`` where
    ``stale_keys`` are baseline entries no current finding matched —
    evidence the baseline should be regenerated.
    """
    if not baseline:
        return list(findings), 0, []
    remaining = Counter(baseline)
    new: List[Finding] = []
    n_baselined = 0
    for finding in findings:
        key = finding.key()
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
            n_baselined += 1
        else:
            new.append(finding)
    stale = sorted(key for key, count in remaining.items()
                   for _ in range(count))
    return new, n_baselined, stale
