"""Golden-fixture tests: each rule fires on its positives and stays
silent on its negatives."""

from pathlib import Path

import pytest

from repro.lint import lint_file, resolve_rules

FIXTURES = Path(__file__).parent / "fixtures"


def run_fixture(name, rule_id):
    rules = resolve_rules([rule_id])
    kept, n_waived, parse_error = lint_file(FIXTURES / name, rules)
    assert parse_error is None, parse_error
    return kept, n_waived


# ---------------------------------------------------------------- DET001

def test_det001_positives():
    kept, _ = run_fixture("det001_bad.py", "DET001")
    assert [(f.line, f.severity) for f in kept] == [
        (10, "error"),   # np.random.default_rng()
        (14, "error"),   # aliased default_rng()
        (18, "error"),   # np.random.seed(7)
        (19, "error"),   # np.random.randint(...)
        (23, "error"),   # random.random()
        (27, "warning"),  # default_rng(0)
        (31, "warning"),  # default_rng(seed=42)
    ]
    assert all(f.rule_id == "DET001" for f in kept)


def test_det001_negatives():
    kept, n_waived = run_fixture("det001_good.py", "DET001")
    assert kept == []
    assert n_waived == 1  # the justified fixed-stream waiver


def test_det001_literal_seed_message_names_the_seed():
    kept, _ = run_fixture("det001_bad.py", "DET001")
    warnings = [f for f in kept if f.severity == "warning"]
    assert "seed 0" in warnings[0].message
    assert "seed 42" in warnings[1].message


# ---------------------------------------------------------------- DET002

def test_det002_positives():
    kept, _ = run_fixture("det002_bad.py", "DET002")
    assert len(kept) == 4
    targets = " ".join(f.message for f in kept)
    for name in ("os.listdir", "Path.iterdir", "glob.glob", "Path.glob"):
        assert name in targets


def test_det002_negatives():
    kept, n_waived = run_fixture("det002_good.py", "DET002")
    assert kept == []
    assert n_waived == 0


# ---------------------------------------------------------------- DET003

def test_det003_positives():
    kept, _ = run_fixture("det003_bad.py", "DET003")
    assert len(kept) == 4
    targets = " ".join(f.message for f in kept)
    for name in ("time.time", "time.perf_counter",
                 "datetime.datetime.now", "datetime.date.today"):
        assert name in targets


def test_det003_negatives():
    kept, n_waived = run_fixture("det003_good.py", "DET003")
    assert kept == []
    assert n_waived == 1  # the justified measurement-site waiver


def test_det003_allowlisted_module_is_skipped(tmp_path):
    # The same wall-clock read inside an allowlisted module path is fine.
    mod = tmp_path / "repro" / "serve" / "latency.py"
    mod.parent.mkdir(parents=True)
    mod.write_text("import time\n\nT = time.time()\n")
    kept, _, err = lint_file(mod, resolve_rules(["DET003"]))
    assert err is None
    assert kept == []


def test_det003_experiments_module_is_checked(tmp_path):
    # The module that builds result rows may not read the wall clock.
    mod = tmp_path / "repro" / "harness" / "experiments.py"
    mod.parent.mkdir(parents=True)
    mod.write_text("import time\n\nT = time.time()\n")
    kept, _, err = lint_file(mod, resolve_rules(["DET003"]))
    assert err is None
    assert [f.rule_id for f in kept] == ["DET003"]


# ---------------------------------------------------------------- DET004

def test_det004_positives():
    kept, _ = run_fixture("det004_bad.py", "DET004")
    assert [f.line for f in kept] == [6, 12, 16, 21]


def test_det004_negatives():
    kept, n_waived = run_fixture("det004_good.py", "DET004")
    assert kept == []
    assert n_waived == 0


# --------------------------------------------------------------- ATOM001

def test_atom001_positives():
    kept, _ = run_fixture("atom001_bad.py", "ATOM001")
    assert len(kept) == 6
    messages = " ".join(f.message for f in kept)
    assert "tempfile.mkstemp" in messages
    assert "os.replace" in messages
    assert "O_CREAT" in messages
    assert "sort_keys" in messages


def test_atom001_negatives():
    kept, n_waived = run_fixture("atom001_good.py", "ATOM001")
    assert kept == []
    assert n_waived == 1  # the O_EXCL claim-file waiver


def test_atom001_out_of_scope_without_marker(tmp_path):
    # Identical violations outside a managed-dir module are not ATOM001's
    # business: scoping is by content marker.
    mod = tmp_path / "plain.py"
    mod.write_text(
        "import json\n\n"
        "def f(path, payload):\n"
        "    with open(path, 'w') as fh:\n"
        "        json.dump(payload, fh)\n")
    kept, _, err = lint_file(mod, resolve_rules(["ATOM001"]))
    assert err is None
    assert kept == []


def test_atom001_exempt_for_util_io(tmp_path):
    # repro/util/io.py *is* the sanctioned implementation.
    mod = tmp_path / "repro" / "util" / "io.py"
    mod.parent.mkdir(parents=True)
    mod.write_text(
        "import os, tempfile\n"
        "MARK = '.repro-cache'\n"
        "def w(p, d):\n"
        "    fd, t = tempfile.mkstemp()\n"
        "    os.replace(t, p)\n")
    kept, _, err = lint_file(mod, resolve_rules(["ATOM001"]))
    assert err is None
    assert kept == []


# ------------------------------------------------------------- framework

def test_unknown_rule_name_raises():
    with pytest.raises(ValueError, match="unknown lint rule"):
        resolve_rules(["NOPE999"])


def test_parse_error_is_reported_not_raised(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    kept, n_waived, err = lint_file(bad, resolve_rules(["DET001"]))
    assert kept == [] and n_waived == 0
    assert err is not None and err.rule_id == "PARSE"
