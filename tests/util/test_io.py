"""Atomic-write helper: durability semantics every subsystem leans on."""

import json
import os

import pytest

from repro.util.io import (
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    atomic_writer,
)


def test_text_round_trip(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(target, "hello\n")
    assert target.read_text() == "hello\n"


def test_bytes_round_trip(tmp_path):
    target = tmp_path / "out.bin"
    atomic_write_bytes(target, b"\x00\x01")
    assert target.read_bytes() == b"\x00\x01"


def test_replaces_existing_content(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old")
    atomic_write_text(target, "new")
    assert target.read_text() == "new"


def test_makes_parent_directories(tmp_path):
    target = tmp_path / "a" / "b" / "out.txt"
    atomic_write_text(target, "x")
    assert target.read_text() == "x"


def test_exception_leaves_target_untouched_and_no_temp(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("pristine")
    with pytest.raises(RuntimeError):
        with atomic_writer(target) as fh:
            fh.write("partial")
            raise RuntimeError("mid-write crash")
    assert target.read_text() == "pristine"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


def test_rejects_read_modes(tmp_path):
    with pytest.raises(ValueError, match="mode"):
        with atomic_writer(tmp_path / "x", mode="r"):
            pass


def test_json_sorts_keys_by_default(tmp_path):
    target = tmp_path / "out.json"
    atomic_write_json(target, {"zebra": 1, "alpha": 2})
    assert target.read_text() == '{"alpha": 2, "zebra": 1}'


def test_json_sort_keys_opt_out(tmp_path):
    target = tmp_path / "out.json"
    atomic_write_json(target, {"zebra": 1, "alpha": 2}, sort_keys=False)
    assert json.loads(target.read_text()) == {"zebra": 1, "alpha": 2}


def test_json_default_coercion(tmp_path):
    target = tmp_path / "out.json"
    atomic_write_json(target, {"p": os.sep}, default=str)
    assert json.loads(target.read_text()) == {"p": os.sep}


def test_fsync_path_still_atomic(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(target, "durable", fsync=True)
    assert target.read_text() == "durable"


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
def test_new_artifact_mode_follows_umask(tmp_path, umask, mode):
    target = tmp_path / "out.bin"
    old = os.umask(umask)
    try:
        atomic_write_bytes(target, b"x")
    finally:
        os.umask(old)
    assert target.stat().st_mode & 0o777 == mode
