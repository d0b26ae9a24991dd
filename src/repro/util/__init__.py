"""Shared low-level utilities (atomic writes, durable appends)."""

from repro.util.io import (
    append_text,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    atomic_writer,
)

__all__ = [
    "append_text",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "atomic_writer",
]
