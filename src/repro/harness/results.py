"""Result persistence and aggregation for experiment rows.

The interchange unit across the harness is the *row*: a flat dict of
scalars, one table line or one series point. Experiments, sweeps, and
the CLI's ``--out`` flags all produce rows; :class:`ResultStore` holds
named collections of them and round-trips to a single JSON document
(NumPy scalars coerced to plain Python, so artifacts never depend on
NumPy's repr), and :func:`aggregate_rows` reduces repeated-seed rows
into mean/std summary lines grouped on key columns — the step between
raw per-trace results and the paper-style tables of
:mod:`repro.harness.tables`.

Row contents are deterministic given the inputs (no timestamps, no
run-local state), which is what lets the CLI byte-compare ``--out``
artifacts across worker counts and cache states.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.util.io import atomic_write_json

__all__ = ["ResultStore", "aggregate_rows"]

Row = Dict[str, Any]


@dataclass
class ResultStore:
    """Named collections of result rows, serializable to JSON.

    A *row* is a flat dict of scalars (one table line / one series point).
    """

    tables: Dict[str, List[Row]] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)

    def add_row(self, table: str, row: Row) -> None:
        self.tables.setdefault(table, []).append(dict(row))

    def add_rows(self, table: str, rows: Sequence[Row]) -> None:
        for row in rows:
            self.add_row(table, row)

    def get(self, table: str) -> List[Row]:
        return self.tables.get(table, [])

    def save(self, path: str) -> None:
        """Write the store to JSON (NumPy scalars coerced to Python).

        The write is atomic: a row that cannot be serialized raises
        ``TypeError`` and leaves any existing file at ``path`` intact.
        """
        atomic_write_json(path, {"tables": self.tables, "meta": self.meta},
                          sort_keys=False, indent=1, default=_coerce)

    @classmethod
    def load(cls, path: str) -> "ResultStore":
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        return cls(tables=data.get("tables", {}), meta=data.get("meta", {}))


def _coerce(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def aggregate_rows(
    rows: Sequence[Row],
    group_by: Sequence[str],
    metrics: Optional[Sequence[str]] = None,
) -> List[Row]:
    """Group rows by key columns; emit mean and std of each numeric metric.

    Output columns: the group keys, then ``<metric>`` (mean) and
    ``<metric>_std`` per metric, plus ``n`` (group size). Groups are
    emitted in first-seen order.
    """
    if not rows:
        return []
    if metrics is None:
        metrics = [
            k for k, v in rows[0].items()
            if k not in group_by and isinstance(v, (int, float, np.integer, np.floating))
        ]
    groups: Dict[tuple, List[Row]] = {}
    order: List[tuple] = []
    for row in rows:
        key = tuple(row[g] for g in group_by)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)
    out: List[Row] = []
    for key in order:
        members = groups[key]
        agg: Row = dict(zip(group_by, key))
        agg["n"] = len(members)
        for metric in metrics:
            values = np.array([float(m[metric]) for m in members if metric in m])
            if values.size:
                agg[metric] = float(values.mean())
                agg[f"{metric}_std"] = float(values.std())
        out.append(agg)
    return out
