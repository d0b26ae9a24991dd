"""The failure archive: surviving stress scenarios, with provenance.

Fuzz candidates that beat the policy worst survive into
``<dir>/archive.json`` (default :data:`DEFAULT_FUZZ_DIR`, overridable
via :data:`FUZZ_DIR_ENV`), one entry per scenario under the stable
derived name ``fuzz/<fingerprint12>`` — the first 12 hex digits of the
candidate scenario's structural fingerprint, so the name survives
re-runs, machines, and archive merges. Each entry records full
provenance in the cases-JSON discipline: the raw knob vector and its
decoded values, the knob-space definition, the build parameters, the
trace seeds, the policy label + fingerprint it stressed, and the
measured transfer gap.

Archived names resolve through the ordinary scenario registry path:
``get_scenario("fuzz/<name>")`` (and therefore ``--scenario
fuzz/<name>`` everywhere in the CLI) rebuilds the scenario from its
archived knobs and verifies the fingerprint still matches — a changed
generator would silently redefine every archived stress test, so drift
is a hard error, not a shrug.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from typing import Dict, List, Optional

from repro.util.errors import InputError
from repro.util.io import atomic_write_json
from repro.workload.fuzz.scenario import FuzzScenario, scenario_from_knobs
from repro.workload.fuzz.space import ScenarioSpace

__all__ = [
    "FUZZ_DIR_ENV",
    "DEFAULT_FUZZ_DIR",
    "ARCHIVE_FORMAT",
    "FUZZ_PREFIX",
    "fuzz_dir",
    "archive_path",
    "scenario_name",
    "load_archive",
    "save_archive",
    "archived_names",
    "load_archived_scenario",
]

#: Environment variable pointing ``fuzz/<name>`` resolution at a
#: specific archive directory (the ``--out-dir`` of a fuzz run).
FUZZ_DIR_ENV = "REPRO_FUZZ_DIR"

#: Default archive directory, next to the result cache / policy store.
DEFAULT_FUZZ_DIR = ".repro-fuzz"

ARCHIVE_FORMAT = "repro-fuzz-archive/1"
_ARCHIVE_FILENAME = "archive.json"

#: Namespace prefix separating archived fuzz scenarios from registry
#: names and trace paths in ``get_scenario``.
FUZZ_PREFIX = "fuzz/"


def fuzz_dir(root: Optional[str] = None) -> str:
    """Resolve the archive directory: argument > env var > default."""
    if root:
        return os.fspath(root)
    env = os.environ.get(FUZZ_DIR_ENV, "").strip()
    return env or DEFAULT_FUZZ_DIR


def archive_path(root: Optional[str] = None) -> str:
    return os.path.join(fuzz_dir(root), _ARCHIVE_FILENAME)


def scenario_name(scenario: FuzzScenario) -> str:
    """The stable archive name for a candidate: ``fuzz/<fingerprint12>``."""
    return FUZZ_PREFIX + scenario.fingerprint()[:12]


def load_archive(root: Optional[str] = None) -> Dict[str, dict]:
    """Archive entries by name; ``{}`` when no archive file exists."""
    path = archive_path(root)
    if not os.path.isfile(path):
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        fmt = payload.get("format")
        if fmt == ARCHIVE_FORMAT:
            return {entry["name"]: entry for entry in payload["entries"]}
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise InputError(f"{path}: cannot read fuzz archive ({exc!r})") \
            from None
    raise InputError(f"{path}: fuzz archive has format {fmt!r}, expected "
                     f"{ARCHIVE_FORMAT!r}")


def save_archive(entries: Dict[str, dict],
                 root: Optional[str] = None) -> str:
    """Atomically install the archive file (entries sorted by name)."""
    path = archive_path(root)
    payload = {
        "format": ARCHIVE_FORMAT,
        "entries": [entries[name] for name in sorted(entries)],
    }
    atomic_write_json(path, payload, indent=2)
    return path


def archived_names(root: Optional[str] = None) -> List[str]:
    """Sorted archived scenario names (``fuzz/...``), possibly empty.

    Unreadable/absent archives yield ``[]``: this feeds error messages
    and listings, which must not themselves raise.
    """
    try:
        return sorted(load_archive(root))
    except InputError:
        return []


def _rebuild(entry: dict) -> FuzzScenario:
    space = ScenarioSpace.from_payload(entry["space"])
    knobs = space.decode(entry["vector"])
    return scenario_from_knobs(knobs, **entry["build"])


def load_archived_scenario(name: str, root: Optional[str] = None,
                           **overrides) -> FuzzScenario:
    """Rebuild an archived stress scenario from its provenance entry.

    The rebuilt scenario's fingerprint must still match the archived
    name: a mismatch means the generator or knob mapping changed since
    the archive was written, so the entry no longer denotes the
    workload it was archived for — re-run the fuzzer rather than
    silently evaluating something else. ``overrides`` replace scenario
    fields after the integrity check (e.g. ``engine=...``; both engines
    evaluate bit-identically).
    """
    entries = load_archive(root)
    if name not in entries:
        raise KeyError(
            f"unknown fuzz scenario {name!r}: archive "
            f"{archive_path(root)!r} has {sorted(entries) or '[no entries]'}; "
            f"set {FUZZ_DIR_ENV} (or pass --fuzz-dir) to the fuzz run's "
            "--out-dir, or run `repro.cli fuzz run` first")
    scenario = _rebuild(entries[name])
    rebuilt = scenario_name(scenario)
    if rebuilt != name:
        raise ValueError(
            f"fuzz archive entry {name!r} rebuilds to fingerprint "
            f"{rebuilt!r}: the scenario generator changed since this "
            "archive was written; re-run the fuzzer to refresh it")
    if overrides:
        scenario = replace(scenario, **overrides)
    return scenario
