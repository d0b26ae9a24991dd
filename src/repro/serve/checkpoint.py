"""Crash-consistent serving state: a base snapshot plus an op journal.

Two files in the state dir hold a session:

* ``CHECKPOINT.json``, the *base*: the canonical simulation snapshot
  (:func:`repro.sim.snapshot.snapshot_simulation`) bundled with the
  serving-layer state that must survive a restart: the submission count
  (the client's resume index, and the number of jobs, since a served
  job's ``job_id`` is its submission index), the decision log cursor,
  and the policy's RNG state when it carries one (stochastic policies;
  heuristics with tie-breaking randomness). It is written through a temp file + ``fsync`` +
  ``os.replace`` in the same directory, so a ``kill -9`` mid-write
  leaves either the previous complete base or the new one.
* ``JOURNAL.ndjson``, every accepted state-changing frame after that
  base, one canonical JSON line each: ``submit`` with its index and the
  job payload as received, ``advance`` with its ``to``, and ``drain``.
  Each line carries in ``prev`` the SHA-256 of the line before it; the
  first line carries the SHA-256 of the base file's bytes. Lines are
  appended and fsynced in batches (:func:`append_journal`), so a
  cadence checkpoint costs the frames since the previous one, not the
  session's history.

Writing a base (:func:`write_checkpoint`) starts an empty journal. A
restart restores the base and replays :func:`recover_journal`'s frames
through the service's own ``submit``/``advance``/``drain``. Recovery
rules:

* a final line with no trailing newline is a torn append and is
  dropped;
* a journal whose first line does not chain from the current base is
  stale (a crash between installing a new base and emptying the
  journal) and is ignored;
* any other broken link or unparsable line is an
  :class:`~repro.util.errors.InputError` naming the file and line.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import List, Optional, Sequence, Tuple

from repro.util.errors import InputError
from repro.util.io import append_text, atomic_write_bytes, atomic_write_text

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_NAME",
    "JOURNAL_NAME",
    "ENDPOINT_NAME",
    "checkpoint_path",
    "journal_path",
    "write_checkpoint",
    "load_checkpoint",
    "base_digest",
    "append_journal",
    "recover_journal",
    "write_endpoint",
    "load_endpoint",
]

#: ``/2`` bases are incomplete without their journal; a ``/1`` reader
#: would silently drop every journaled submission, so it must refuse them.
#: ``/3`` bases name jobs by submission index and carry no id map; a
#: ``/2`` base's process-wide ids cannot be read as slots.
CHECKPOINT_FORMAT = "repro-serve-checkpoint/3"
CHECKPOINT_NAME = "CHECKPOINT.json"
JOURNAL_NAME = "JOURNAL.ndjson"
#: Where a running server advertises its bound host and port (written on
#: startup, also atomically), so clients and scripts can discover the
#: actual port after ``--port 0`` and across restarts.
ENDPOINT_NAME = "ENDPOINT.json"


def _write_atomic(path: str, text: str) -> None:
    # fsync: a checkpoint must survive power loss, not just kill -9.
    atomic_write_text(path, text, fsync=True)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def checkpoint_path(state_dir: str) -> str:
    return os.path.join(state_dir, CHECKPOINT_NAME)


def journal_path(state_dir: str) -> str:
    return os.path.join(state_dir, JOURNAL_NAME)


def write_checkpoint(state_dir: str, payload: dict) -> str:
    """Atomically install ``payload`` as the base and start an empty
    journal; returns the base's path."""
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"checkpoint payload must carry format={CHECKPOINT_FORMAT!r}")
    path = checkpoint_path(state_dir)
    _write_atomic(path, json.dumps(payload, sort_keys=True))
    # A crash here leaves the previous base's journal beside the new
    # base; its first line no longer chains, so recovery ignores it.
    _write_atomic(journal_path(state_dir), "")
    return path


def load_checkpoint(state_dir: str) -> Optional[dict]:
    """The current base, or None when the state dir has none; an
    unusable base is an :class:`~repro.util.errors.InputError`."""
    path = checkpoint_path(state_dir)
    try:
        with open(path, "r") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        raise InputError(f"{path}: cannot read checkpoint ({exc})") from None
    fmt = payload.get("format") if isinstance(payload, dict) else None
    if fmt != CHECKPOINT_FORMAT:
        raise InputError(
            f"{path}: not a {CHECKPOINT_FORMAT} checkpoint (format={fmt!r})")
    return payload


def base_digest(state_dir: str) -> str:
    """SHA-256 of the base file's bytes: the first journal line's ``prev``."""
    with open(checkpoint_path(state_dir), "rb") as handle:
        return _sha256(handle.read())


def append_journal(state_dir: str, frames: Sequence[dict], head: str) -> str:
    """Chain ``frames`` on from ``head``, append them and fsync; returns
    the digest the next line chains from."""
    lines = []
    for frame in frames:
        line = json.dumps({**frame, "prev": head}, sort_keys=True,
                          separators=(",", ":"))
        head = _sha256(line.encode("utf-8"))
        lines.append(line + "\n")
    append_text(journal_path(state_dir), "".join(lines))
    return head


def recover_journal(state_dir: str) -> Tuple[List[dict], str]:
    """The frames journaled after the current base, and the chain head.

    Applies the recovery rules of the module docstring. A dropped torn
    tail or stale journal is also cut from the file, so the next append
    continues the chain after the last recovered line.
    """
    head = base_digest(state_dir)
    path = journal_path(state_dir)
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return [], head
    lines = data.split(b"\n")
    torn = lines.pop()          # bytes after the last newline
    frames: List[dict] = []
    for number, line in enumerate(lines, 1):
        try:
            frame = json.loads(line)
            prev = frame.pop("prev")
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise InputError(
                f"{path}:{number}: unparsable journal line") from exc
        if prev != head:
            if number == 1:     # stale: chains from an older base
                _write_atomic(path, "")
                return [], head
            raise InputError(
                f"{path}:{number}: broken hash chain (prev does not match "
                f"line {number - 1})")
        head = _sha256(line)
        frames.append(frame)
    if torn:
        atomic_write_bytes(path, data[:-len(torn)], fsync=True)
    return frames, head


def write_endpoint(state_dir: str, endpoint: dict) -> str:
    path = os.path.join(state_dir, ENDPOINT_NAME)
    _write_atomic(path, json.dumps(endpoint, sort_keys=True))
    return path


def load_endpoint(state_dir: str) -> Optional[dict]:
    try:
        with open(os.path.join(state_dir, ENDPOINT_NAME), "r") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None
