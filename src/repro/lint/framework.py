"""AST-walking analysis framework for the determinism-contract linter.

Every rule is a :class:`FileRule`: it contributes an
``ast.NodeVisitor`` per file. The framework parses each file once,
annotates every node with its parent (``node.repro_parent``), runs all
requested visitors, then filters findings through the file's inline
waivers (:mod:`repro.lint.waivers`), the one way a finding stops
failing the gate.

Everything is deterministic: files are visited in sorted order,
findings are reported in (path, line, col, rule) order, and no rule
consults wall-clock, environment, or randomness — the linter holds
itself to the contracts it enforces.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.lint.findings import Finding
from repro.lint.waivers import collect_waivers
from repro.util.errors import InputError

__all__ = [
    "FileContext",
    "FileRule",
    "LintResult",
    "register",
    "rule_registry",
    "resolve_rules",
    "iter_python_files",
    "module_key",
    "annotate_parents",
    "lint_file",
    "lint_paths",
]


def module_key(path: Path) -> str:
    """Repo-normalized module path: the suffix from the last ``repro``
    package component (``repro/harness/cache.py``), or the bare file
    name for files outside the package (test fixtures).

    Rules scope on this key, so the same source file lints identically
    from any checkout location.
    """
    parts = path.as_posix().split("/")
    if "repro" in parts:
        idx = len(parts) - 1 - parts[::-1].index("repro")
        return "/".join(parts[idx:])
    return parts[-1]


@dataclass
class FileContext:
    """Everything a file rule's visitor needs about the current file."""

    path: Path
    display_path: str
    module: str
    source: str
    tree: ast.AST
    findings: List[Finding] = field(default_factory=list)

    def add(self, rule_id: str, node: ast.AST, severity: str,
            message: str) -> None:
        self.findings.append(Finding(
            path=self.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=rule_id,
            severity=severity,
            message=message,
        ))


class FileRule:
    """Base class for per-file AST rules."""

    rule_id: str = ""
    description: str = ""

    def visitor(self, ctx: FileContext) -> Optional[ast.NodeVisitor]:
        """A visitor over ``ctx.tree``, or None to skip this file."""
        raise NotImplementedError


_REGISTRY: Dict[str, FileRule] = {}


def register(rule_cls):
    """Class decorator adding a rule instance to the global registry."""
    rule = rule_cls()
    if not rule.rule_id:
        raise ValueError(f"{rule_cls.__name__} must define rule_id")
    if rule.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.rule_id}")
    _REGISTRY[rule.rule_id] = rule
    return rule_cls


def rule_registry() -> Dict[str, FileRule]:
    """rule_id -> rule instance, importing the built-in rule module."""
    # Importing registers via the @register decorator; idempotent.
    import repro.lint.rules  # noqa: F401

    return dict(sorted(_REGISTRY.items()))


def resolve_rules(names: Optional[Iterable[str]] = None) -> Dict[str, FileRule]:
    """Subset the registry by rule id; unknown names raise
    :class:`~repro.util.errors.InputError`."""
    registry = rule_registry()
    if names is None:
        return registry
    wanted = {}
    for name in names:
        name = name.strip()
        if not name:
            continue
        if name not in registry:
            known = ", ".join(registry)
            raise InputError(f"unknown lint rule {name!r}; known rules: {known}")
        wanted[name] = registry[name]
    if not wanted:
        raise InputError("no rules selected")
    return wanted


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    """Every ``.py`` file under ``paths``, each exactly once, sorted.

    Sorted traversal keeps reports independent of filesystem
    enumeration order — the linter obeys its own DET002.
    """
    seen: Set[Path] = set()
    out: List[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            candidates = []
        for cand in candidates:
            resolved = cand.resolve()
            if resolved not in seen:
                seen.add(resolved)
                out.append(cand)
    return out


def annotate_parents(tree: ast.AST) -> None:
    """Set ``node.repro_parent`` on every node (None at the root)."""
    tree.repro_parent = None  # type: ignore[attr-defined]
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child.repro_parent = node  # type: ignore[attr-defined]


@dataclass
class LintResult:
    """Outcome of a lint run, pre-filtered and counted."""

    findings: List[Finding] = field(default_factory=list)
    n_files: int = 0
    n_waived: int = 0
    parse_errors: List[Finding] = field(default_factory=list)

    @property
    def all_findings(self) -> List[Finding]:
        return sorted(self.parse_errors + self.findings)


def lint_file(path: Path, rules: Dict[str, FileRule],
              display_path: Optional[str] = None):
    """Lint one file; returns (kept_findings, n_waived, parse_error).

    ``parse_error`` is a Finding (rule ``PARSE``) when the file cannot
    be read or parsed; the file contributes nothing else in that case.
    """
    display = display_path if display_path is not None else str(path)
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError, ValueError) as exc:
        err = Finding(path=display, line=getattr(exc, "lineno", 1) or 1,
                      col=0, rule_id="PARSE", severity="error",
                      message=f"cannot lint: {exc}")
        return [], 0, err
    annotate_parents(tree)
    ctx = FileContext(path=path, display_path=display,
                      module=module_key(path), source=source, tree=tree)
    for rule in rules.values():
        visitor = rule.visitor(ctx)
        if visitor is not None:
            visitor.visit(tree)
    waivers = collect_waivers(source)
    kept: List[Finding] = []
    n_waived = 0
    for finding in ctx.findings:
        if finding.rule_id in waivers.get(finding.line, ()):
            n_waived += 1
        else:
            kept.append(finding)
    return kept, n_waived, None


def lint_paths(
    paths: Sequence[Path],
    rules: Optional[Dict[str, FileRule]] = None,
    root: Optional[Path] = None,
) -> LintResult:
    """Lint every Python file under ``paths`` with ``rules``.

    ``root`` (default: current directory) anchors the display paths so
    findings use stable repo-relative locations. A path that does not
    exist, or paths that hold no Python file, raise
    :class:`~repro.util.errors.InputError`: a gate that checked nothing
    must not pass.
    """
    if rules is None:
        rules = rule_registry()
    root = Path(root) if root is not None else Path(".")
    paths = [Path(p) for p in paths]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        raise InputError(f"no such path(s): {', '.join(missing)}")
    files = iter_python_files(paths)
    if not files:
        raise InputError(f"{', '.join(str(p) for p in paths)}: "
                         "no Python file to lint")
    result = LintResult(n_files=len(files))
    for f in files:
        try:
            display = f.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            display = f.as_posix()
        kept, n_waived, parse_error = lint_file(f, rules, display)
        result.findings.extend(kept)
        result.n_waived += n_waived
        if parse_error is not None:
            result.parse_errors.append(parse_error)
    result.findings.sort()
    return result
