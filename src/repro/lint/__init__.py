"""Determinism-contract linter (``repro.cli lint``).

AST-based static analysis enforcing the invariants the rest of the repo
is built on: seeded RNG threaded from configuration (DET001), sorted
filesystem enumeration (DET002), wall-clock confinement (DET003),
no ordered output derived from set iteration (DET004), and atomic
canonical writes into managed state dirs (ATOM001). Every rule is a
per-file AST visitor, and every finding fails the gate unless an inline
waiver (``# repro: allow[RULE]``) at its site says why it is correct by
contract. See ARCHITECTURE.md for the rule table.
"""

from repro.lint.findings import SEVERITIES, Finding
from repro.lint.framework import (
    FileContext,
    FileRule,
    LintResult,
    iter_python_files,
    lint_file,
    lint_paths,
    module_key,
    register,
    resolve_rules,
    rule_registry,
)
from repro.lint.report import render_text
from repro.lint.waivers import collect_waivers

__all__ = [
    "SEVERITIES",
    "Finding",
    "FileContext",
    "FileRule",
    "LintResult",
    "register",
    "rule_registry",
    "resolve_rules",
    "iter_python_files",
    "module_key",
    "lint_file",
    "lint_paths",
    "collect_waivers",
    "render_text",
]
