"""Per-file determinism-contract rules (DET001–DET004, ATOM001).

Each rule is a small ``ast.NodeVisitor`` registered with the framework.
Rules resolve call targets through the file's import aliases (``import
numpy as np`` makes ``np.random.default_rng`` and
``numpy.random.default_rng`` the same site), so renaming an import
cannot smuggle a violation past the gate.

The contracts being enforced (see ARCHITECTURE.md):

* **DET001** — randomness must flow from an explicit, threaded seed.
  Unseeded generators and module-global RNG state are errors; a
  hard-coded literal seed is a *warning* that must either be threaded
  from configuration or waived with a comment explaining why the fixed
  stream is itself the contract (e.g. a published artifact).
* **DET002** — filesystem enumeration order is not part of any
  contract; every ``listdir``/``iterdir``/``glob`` feeding program
  logic must pass through ``sorted(...)``.
* **DET003** — simulated time is the only clock. Wall-clock reads are
  confined to an allowlist of measurement modules (latency recorder,
  trace replayer).
* **DET004** — iterating a set yields hash-seed-dependent order;
  anything ordered derived from a set must sort first.
* **ATOM001** — modules that write into managed state directories
  (cache, policy store, serve checkpoints, fuzz state) must route durable
  writes through :mod:`repro.util.io` and emit canonical
  (``sort_keys``) JSON.
"""

from __future__ import annotations

import ast
from typing import Dict, Optional

from repro.lint.framework import FileContext, FileRule, register

__all__ = [
    "build_aliases",
    "dotted_name",
    "is_sorted_wrapped",
    "fs_iteration_target",
    "is_set_valued",
    "atom001_in_scope",
    "json_dump_without_sort_keys",
    "MANAGED_DIR_MARKERS",
    "DET003_ALLOWLIST",
]


def build_aliases(tree: ast.AST) -> Dict[str, str]:
    """Local name -> canonical dotted prefix, from the file's imports."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    aliases[top] = top
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}")
    return aliases


def dotted_name(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Canonical dotted name of an attribute chain rooted at a Name.

    ``np.random.default_rng`` with ``import numpy as np`` resolves to
    ``numpy.random.default_rng``. Returns None for anything not a plain
    Name/Attribute chain (subscripts, call results, lambdas).
    """
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = aliases.get(node.id, node.id)
    parts.append(root)
    return ".".join(reversed(parts))


def is_sorted_wrapped(node: ast.AST) -> bool:
    """True if ``node`` sits (at any depth) inside a ``sorted(...)``
    call within the same statement — ``sorted(d.iterdir())`` and
    ``sorted(p.name for p in d.iterdir())`` both qualify.
    """
    parent = getattr(node, "repro_parent", None)
    while parent is not None and not isinstance(parent, ast.stmt):
        if (isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Name)
                and parent.func.id == "sorted"):
            return True
        parent = getattr(parent, "repro_parent", None)
    return False


# ---------------------------------------------------------------------------
# DET001 — unseeded / global RNG
# ---------------------------------------------------------------------------

_NUMPY_GLOBAL_RNG = frozenset({
    "seed", "rand", "randn", "randint", "random", "random_sample",
    "choice", "shuffle", "permutation", "uniform", "normal",
    "standard_normal", "poisson", "exponential", "binomial",
})

_STDLIB_GLOBAL_RNG = frozenset({
    "seed", "random", "randint", "randrange", "choice", "choices",
    "shuffle", "sample", "uniform", "gauss", "betavariate",
    "expovariate", "getrandbits",
})

_SEEDED_CONSTRUCTORS = frozenset({
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "random.Random",
})


def _literal_seed(call: ast.Call) -> Optional[object]:
    """The literal seed constant passed to an RNG constructor, if any."""
    candidates = list(call.args[:1])
    candidates.extend(kw.value for kw in call.keywords
                      if kw.arg == "seed")
    for expr in candidates:
        if isinstance(expr, ast.Constant) and isinstance(expr.value, int):
            return expr.value
        if (isinstance(expr, ast.UnaryOp)
                and isinstance(expr.operand, ast.Constant)):
            return expr.operand.value
    return None


@register
class UnseededRNGRule(FileRule):
    rule_id = "DET001"
    description = ("RNG must be an explicitly seeded generator threaded "
                   "from configuration; no global RNG state, no "
                   "unjustified literal seeds.")

    def visitor(self, ctx: FileContext) -> ast.NodeVisitor:
        rule = self
        aliases = build_aliases(ctx.tree)

        class Visitor(ast.NodeVisitor):
            def visit_Call(self, node: ast.Call) -> None:
                full = dotted_name(node.func, aliases)
                if full is None:
                    self.generic_visit(node)
                    return
                if full in _SEEDED_CONSTRUCTORS:
                    if not node.args and not node.keywords:
                        ctx.add(rule.rule_id, node, "error",
                                f"unseeded RNG: {full}() without a seed "
                                "— thread an explicit seed from "
                                "configuration")
                    elif _literal_seed(node) is not None:
                        ctx.add(rule.rule_id, node, "warning",
                                f"hard-coded literal seed "
                                f"{_literal_seed(node)} in {full}(); "
                                "thread the seed from configuration or "
                                "waive with a comment explaining why the "
                                "fixed stream is the contract")
                elif (full.startswith("numpy.random.")
                        and full.rsplit(".", 1)[1] in _NUMPY_GLOBAL_RNG):
                    ctx.add(rule.rule_id, node, "error",
                            f"{full}() mutates/reads global numpy RNG "
                            "state; use a seeded Generator passed from "
                            "the caller")
                elif (full.startswith("random.")
                        and full.rsplit(".", 1)[1] in _STDLIB_GLOBAL_RNG):
                    ctx.add(rule.rule_id, node, "error",
                            f"{full}() uses the process-global stdlib "
                            "RNG; use a seeded random.Random or numpy "
                            "Generator passed from the caller")
                self.generic_visit(node)

        return Visitor()


# ---------------------------------------------------------------------------
# DET002 — unsorted filesystem iteration
# ---------------------------------------------------------------------------

_FS_MODULE_FUNCS = frozenset({
    "os.listdir", "os.scandir", "glob.glob", "glob.iglob",
})

_FS_PATH_METHODS = frozenset({"iterdir", "glob", "rglob"})


def fs_iteration_target(node: ast.Call,
                        aliases: Dict[str, str]) -> Optional[str]:
    """Display name of the fs-enumeration call, or None if not one."""
    full = dotted_name(node.func, aliases)
    if full in _FS_MODULE_FUNCS:
        return full
    if (isinstance(node.func, ast.Attribute)
            and node.func.attr in _FS_PATH_METHODS):
        return f"Path.{node.func.attr}"
    return None


@register
class UnsortedFSIterationRule(FileRule):
    rule_id = "DET002"
    description = ("Filesystem enumeration (os.listdir, Path.iterdir, "
                   "glob) must be wrapped in sorted(...) — directory "
                   "order is not deterministic.")

    def visitor(self, ctx: FileContext) -> ast.NodeVisitor:
        rule = self
        aliases = build_aliases(ctx.tree)

        class Visitor(ast.NodeVisitor):
            def visit_Call(self, node: ast.Call) -> None:
                target = fs_iteration_target(node, aliases)
                if target is not None and not is_sorted_wrapped(node):
                    ctx.add(rule.rule_id, node, "error",
                            f"{target}(...) enumeration order is "
                            "filesystem-dependent; wrap in sorted(...)")
                self.generic_visit(node)

        return Visitor()


# ---------------------------------------------------------------------------
# DET003 — wall-clock reads outside measurement modules
# ---------------------------------------------------------------------------

#: Modules whose *job* is measuring real time: the serve latency
#: recorder and trace replayer. Everything else must run on simulated
#: time; a one-off measurement elsewhere (``repro.cli run``'s elapsed
#: line) reads the clock under an inline waiver.
DET003_ALLOWLIST = frozenset({
    "repro/serve/latency.py",
    "repro/serve/replay.py",
})

_WALLCLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})


@register
class WallClockRule(FileRule):
    rule_id = "DET003"
    description = ("Wall-clock reads (time.time, datetime.now) are "
                   "confined to the measurement-module allowlist; "
                   "simulation logic runs on simulated time only.")

    def visitor(self, ctx: FileContext) -> Optional[ast.NodeVisitor]:
        if ctx.module in DET003_ALLOWLIST:
            return None
        rule = self
        aliases = build_aliases(ctx.tree)

        class Visitor(ast.NodeVisitor):
            def visit_Call(self, node: ast.Call) -> None:
                full = dotted_name(node.func, aliases)
                if full in _WALLCLOCK_CALLS:
                    ctx.add(rule.rule_id, node, "error",
                            f"{full}() reads the wall clock outside the "
                            "measurement-module allowlist; use simulated "
                            "time, or waive if this is a genuine "
                            "measurement site")
                self.generic_visit(node)

        return Visitor()


# ---------------------------------------------------------------------------
# DET004 — iterating a set where order can leak into output
# ---------------------------------------------------------------------------

_SET_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference",
})


def is_set_valued(expr: ast.AST, aliases: Dict[str, str]) -> bool:
    """True for expressions that are sets by construction."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        full = dotted_name(expr.func, aliases)
        if full in ("set", "frozenset"):
            return True
        if (isinstance(expr.func, ast.Attribute)
                and expr.func.attr in _SET_METHODS):
            return True
    if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return (is_set_valued(expr.left, aliases)
                or is_set_valued(expr.right, aliases))
    return False


@register
class SetIterationRule(FileRule):
    rule_id = "DET004"
    description = ("Iterating a set yields hash-seed-dependent order; "
                   "sort before any ordered consumption.")

    def visitor(self, ctx: FileContext) -> ast.NodeVisitor:
        rule = self
        aliases = build_aliases(ctx.tree)

        def check_iter(iter_expr: ast.AST) -> None:
            if (is_set_valued(iter_expr, aliases)
                    and not is_sorted_wrapped(iter_expr)):
                ctx.add(rule.rule_id, iter_expr, "error",
                        "iteration over a set-valued expression has "
                        "hash-seed-dependent order; wrap in sorted(...)")

        class Visitor(ast.NodeVisitor):
            def visit_For(self, node: ast.For) -> None:
                check_iter(node.iter)
                self.generic_visit(node)

            def visit_comprehension(self,
                                    node: ast.comprehension) -> None:
                check_iter(node.iter)
                self.generic_visit(node)

        return Visitor()


# ---------------------------------------------------------------------------
# ATOM001 — durable writes into managed state dirs
# ---------------------------------------------------------------------------

#: A file is in ATOM001 scope when its source mentions one of the
#: managed on-disk locations. Content-marker scoping (rather than a
#: hard-coded module list) means a new module that starts writing into
#: the cache or policy directory is pulled into scope automatically.
MANAGED_DIR_MARKERS = (
    ".repro-cache",
    ".repro-policies",
    ".repro-serve",
    ".repro-fuzz",
    "CHECKPOINT.json",
    "STATS.json",
)

#: The helper itself and this linter are outside scope: io.py *is* the
#: sanctioned implementation, and lint modules quote the markers.
_ATOM_EXEMPT_PREFIXES = ("repro/util/", "repro/lint/")

_WRITE_MODES = ("w", "a")


def atom001_in_scope(module: str, source: str) -> bool:
    if module.startswith(_ATOM_EXEMPT_PREFIXES):
        return False
    return any(marker in source for marker in MANAGED_DIR_MARKERS)


def _open_write_mode(call: ast.Call) -> Optional[str]:
    """The literal write mode of an ``open(...)`` call, or None."""
    mode_expr: Optional[ast.AST] = None
    if len(call.args) >= 2:
        mode_expr = call.args[1]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode_expr = kw.value
    if (isinstance(mode_expr, ast.Constant)
            and isinstance(mode_expr.value, str)
            and mode_expr.value.rstrip("b+t").startswith(_WRITE_MODES)):
        return mode_expr.value
    return None


def json_dump_without_sort_keys(call: ast.Call,
                                aliases: Dict[str, str]) -> bool:
    """True for ``json.dump``/``json.dumps`` lacking a sort_keys kwarg."""
    full = dotted_name(call.func, aliases)
    if full not in ("json.dump", "json.dumps"):
        return False
    return not any(kw.arg == "sort_keys" for kw in call.keywords)


def _has_o_creat(call: ast.Call, aliases: Dict[str, str]) -> bool:
    for arg in ast.walk(ast.Module(body=[ast.Expr(value=call)],
                                   type_ignores=[])):
        if (isinstance(arg, ast.Attribute)
                and arg.attr in ("O_CREAT", "O_EXCL")):
            return True
    return False


@register
class AtomicWriteRule(FileRule):
    rule_id = "ATOM001"
    description = ("Writes into managed state dirs (.repro-cache, "
                   ".repro-policies, .repro-serve, .repro-fuzz) must "
                   "route through repro.util.io and emit sort_keys "
                   "canonical JSON.")

    def visitor(self, ctx: FileContext) -> Optional[ast.NodeVisitor]:
        if not atom001_in_scope(ctx.module, ctx.source):
            return None
        rule = self
        aliases = build_aliases(ctx.tree)

        class Visitor(ast.NodeVisitor):
            def visit_Call(self, node: ast.Call) -> None:
                full = dotted_name(node.func, aliases)
                if full in ("tempfile.mkstemp", "os.replace"):
                    ctx.add(rule.rule_id, node, "error",
                            f"hand-rolled atomic write ({full}); route "
                            "through repro.util.io.atomic_writer / "
                            "atomic_write_json")
                elif full == "os.open" and _has_o_creat(node, aliases):
                    ctx.add(rule.rule_id, node, "error",
                            "direct os.open(O_CREAT...) in a managed "
                            "state dir; use repro.util.io, or waive if "
                            "this is an O_EXCL lock/claim file whose "
                            "creation must NOT be an atomic replace")
                elif full == "open" and _open_write_mode(node):
                    ctx.add(rule.rule_id, node, "error",
                            "non-atomic open(..., "
                            f"{_open_write_mode(node)!r}) write in a "
                            "module managing durable state; use "
                            "repro.util.io.atomic_write_text/json")
                elif json_dump_without_sort_keys(node, aliases):
                    ctx.add(rule.rule_id, node, "error",
                            f"{full}(...) without sort_keys in a "
                            "canonical writer; pass sort_keys=True so "
                            "artifact bytes are independent of dict "
                            "construction order")
                self.generic_visit(node)

        return Visitor()
