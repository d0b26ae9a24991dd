"""``repro.cli lint``: exit codes, the text report and its refusals."""

import json
from pathlib import Path

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

CLEAN = "x = 1\n"
VIOLATION = ("import numpy as np\n\n"
             "rng = np.random.default_rng()\n")


def write_pkg(tmp_path, source):
    target = tmp_path / "mod.py"
    target.write_text(source)
    return target


def test_clean_tree_exits_zero(tmp_path, capsys):
    write_pkg(tmp_path, CLEAN)
    assert main(["lint", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "1 file(s) checked" in out and "0 error(s)" in out


def test_violation_exits_one(tmp_path, capsys):
    write_pkg(tmp_path, VIOLATION)
    assert main(["lint", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out and "unseeded RNG" in out


def test_rules_subset_filters(tmp_path):
    write_pkg(tmp_path, VIOLATION)
    assert main(["lint", str(tmp_path), "--rules", "DET002"]) == 0


def test_unknown_rule_exits_two(tmp_path, capsys):
    assert main(["lint", str(tmp_path), "--rules", "NOPE"]) == 2
    assert "unknown lint rule" in capsys.readouterr().err


def test_missing_path_exits_two(tmp_path, capsys):
    assert main(["lint", str(tmp_path / "absent")]) == 2
    assert "no such path" in capsys.readouterr().err


def test_list_rules_covers_all(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.splitlines()] == \
        ["ATOM001", "DET001", "DET002", "DET003", "DET004"]


def test_paths_without_python_files_exit_two(tmp_path, capsys):
    # A gate that checked nothing must not pass: an empty directory and
    # a non-Python file are refused by name, in one stderr line.
    (tmp_path / "README.md").write_text("# not python\n")
    empty = tmp_path / "empty"
    empty.mkdir()
    for paths in ([str(empty)], [str(tmp_path / "README.md")],
                  [str(empty), str(tmp_path / "README.md")]):
        assert main(["lint", *paths]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert "no Python file" in err
        assert all(p in err for p in paths)


def test_baseline_file_in_cwd_suppresses_nothing(tmp_path, capsys,
                                                 monkeypatch):
    # Inline waivers are the only way past the gate: a grandfathered-
    # findings file in the working directory that names the violation
    # changes neither the exit code nor the report.
    monkeypatch.chdir(tmp_path)
    write_pkg(tmp_path, VIOLATION)
    assert main(["lint", str(tmp_path)]) == 1
    report = capsys.readouterr().out
    path, message = report.splitlines()[0].split(": DET001 error: ")
    (tmp_path / "lint-baseline.json").write_text(json.dumps({
        "format": "repro-lint-baseline/1",
        "findings": [{"rule_id": "DET001", "path": path.split(":")[0],
                      "message": message}],
    }))
    assert main(["lint", str(tmp_path)]) == 1
    assert capsys.readouterr().out == report


def test_shipped_tree_is_clean(monkeypatch, capsys):
    # The acceptance invariant: `repro.cli lint src` from the repo root
    # exits 0.
    monkeypatch.chdir(REPO_ROOT)
    assert main(["lint", "src"]) == 0
    assert "0 error(s), 0 warning(s)" in capsys.readouterr().out
