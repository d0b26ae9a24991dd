"""Autofix round-trips: mechanical rewrites are correct, idempotent,
and respect waivers."""

import ast
import textwrap
from pathlib import Path

from repro.lint import FIXABLE_RULES, fix_file, fix_source, lint_file, resolve_rules

FIXTURES = Path(__file__).parent / "fixtures"


def test_det002_wraps_in_sorted():
    src = "import os\n\nfor n in os.listdir(root):\n    print(n)\n"
    fixed, n = fix_source(src, rules=["DET002"])
    assert n == 2  # open + close insertion
    assert "for n in sorted(os.listdir(root)):" in fixed


def test_det002_multiline_call_is_wrapped():
    src = textwrap.dedent("""\
        import glob

        names = glob.glob(
            pattern,
        )
    """)
    fixed, _ = fix_source(src, rules=["DET002"])
    assert fixed.startswith("import glob\n\nnames = sorted(glob.glob(")
    assert fixed.rstrip().endswith("))")
    ast.parse(fixed)


def test_det004_wraps_set_expression():
    src = "out = [n for n in {'b', 'a'}]\n"
    fixed, _ = fix_source(src, rules=["DET004"])
    assert "sorted({'b', 'a'})" in fixed


def test_atom001_sort_keys_inserted():
    src = ("import json\nMARK = '.repro-cache'\n"
           "def f(d, fh):\n    json.dump(d, fh)\n")
    fixed, _ = fix_source(src, rules=["ATOM001"])
    assert "json.dump(d, fh, sort_keys=True)" in fixed


def test_atom001_sort_keys_after_trailing_comma():
    src = ("import json\nMARK = '.repro-policies'\n"
           "def f(d, fh):\n    json.dump(\n        d,\n        fh,\n    )\n")
    fixed, _ = fix_source(src, rules=["ATOM001"])
    assert "sort_keys=True" in fixed
    ast.parse(fixed)
    # No doubled comma from the trailing-comma call shape.
    assert ",," not in fixed.replace(" ", "").replace("\n", "")


def test_atom001_out_of_scope_untouched():
    src = "import json\ndef f(d, fh):\n    json.dump(d, fh)\n"
    fixed, n = fix_source(src, rules=["ATOM001"])
    assert n == 0 and fixed == src


def test_waived_line_is_not_rewritten():
    src = ("import os\n\n"
           "for n in os.listdir(root):  # repro: allow[DET002]\n"
           "    print(n)\n")
    fixed, n = fix_source(src, rules=["DET002"])
    assert n == 0 and fixed == src


def test_fix_is_idempotent_on_fixtures():
    for name in ("det002_bad.py", "det004_bad.py", "atom001_bad.py"):
        src = (FIXTURES / name).read_text()
        once, n1 = fix_source(src, module=name)
        again, n2 = fix_source(once, module=name)
        assert n1 > 0, name
        assert n2 == 0 and again == once, name
        ast.parse(once)


def test_fixed_fixture_has_no_fixable_findings(tmp_path):
    # After --fix, the mechanical findings are gone; structural ATOM001
    # findings (mkstemp/os.replace/open-w) remain by design.
    for name in ("det002_bad.py", "det004_bad.py"):
        target = tmp_path / name
        target.write_text((FIXTURES / name).read_text())
        n = fix_file(target, rules=FIXABLE_RULES)
        assert n > 0
        rule_id = name.split("_")[0].upper()
        kept, _, err = lint_file(target, resolve_rules([rule_id]))
        assert err is None and kept == [], name


def test_fix_file_noop_leaves_mtime_content(tmp_path):
    target = tmp_path / "clean.py"
    src = "x = 1\n"
    target.write_text(src)
    assert fix_file(target, rules=FIXABLE_RULES) == 0
    assert target.read_text() == src
