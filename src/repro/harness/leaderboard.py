"""Trained-policy leaderboard over the scenario registry.

The paper's central claim — a trained DRL scheduler beats heuristic
baselines across workload regimes — needs a single artifact that answers
*which policy wins where, and does a policy trained on one scenario
transfer to the others?* This module builds that artifact:

1. **Train once per (scenario, agent)** — every requested agent is
   trained on every named scenario, seeded, and persisted to a
   content-addressed :class:`PolicyStore` keyed by the same structural
   fingerprint discipline as the result cache
   (:mod:`repro.harness.cache`): same scenario spec + same training spec
   => same key, so a re-run is a *store hit* and retrains nothing.
2. **Evaluate every policy against every scenario** — the full
   cross-scenario generalization matrix, one
   :func:`~repro.harness.parallel.evaluate_grid` call, so rows are
   byte-identical for ``workers`` 1/2/4 and previously computed cells
   come from the persistent :class:`~repro.harness.cache.ResultCache`.
3. **Rank** — per-scenario mean + bootstrap CI of the primary metric,
   per-scenario rank, pairwise win rate, and a *transfer gap* for each
   trained policy (how much worse it is away from home than the policy
   natively trained there).

Heuristic baselines join the table as untrained entries, so the
leaderboard directly renders the paper's DRL-vs-heuristics comparison
across every registered workload regime.

Everything in the output artifact is deterministic — no timestamps, no
run-local state — so ``leaderboard.json`` is byte-identical across
worker counts and across cold/warm cache runs (the CI smoke asserts
exactly that).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.training import ALGOS
from repro.harness.cache import ResultCache, fingerprint
from repro.harness.parallel import BaselineFactory, evaluate_grid
from repro.harness.scenario import Scenario
from repro.harness.stats import bootstrap_ci
from repro.harness.tables import format_table
from repro.util.errors import InputError

__all__ = [
    "DEFAULT_POLICY_DIR",
    "AgentSpec",
    "PolicyStore",
    "StoredPolicyFactory",
    "LeaderboardResult",
    "build_leaderboard",
]

#: Default policy-store location, a sibling of ``.repro-cache/``.
DEFAULT_POLICY_DIR = ".repro-policies"

#: Bump to invalidate every stored policy when training or encoding
#: semantics change incompatibly.
_STORE_SCHEMA = "1"


@dataclass(frozen=True)
class AgentSpec:
    """One trainable leaderboard entry: algorithm + training budget.

    Structural and picklable, so it fingerprints into the policy-store
    key: any change (more iterations, different seed, another algo
    config) yields a new key and therefore a retrain — invalidation by
    construction, exactly like the result cache.
    """

    algo: str = "ppo"
    iterations: int = 40
    seed: int = 0
    warm_start: bool = True
    num_envs: int = 1
    n_train_traces: int = 8
    n_val_traces: int = 3
    algo_config: Optional[object] = None

    def __post_init__(self) -> None:
        if self.algo not in ALGOS:
            raise InputError(
                f"leaderboard agents must be one of {tuple(ALGOS)} "
                f"(got {self.algo!r})")
        if self.iterations < 1:
            raise InputError("iterations must be >= 1")
        if self.n_train_traces < 1:
            raise InputError("n_train_traces must be >= 1")

    def entry_name(self, scenario_name: str) -> str:
        """Leaderboard entry label for this agent trained on a scenario."""
        return f"{self.algo}@{scenario_name}"


class PolicyStore:
    """Content-addressed on-disk store of trained scheduler policies.

    Entries are policy files (:meth:`DRLScheduler.save
    <repro.core.agent.DRLScheduler.save>`, the format ``train --out``
    writes) under the same two-level fan-out as the result cache
    (``<root>/<key[:2]>/<key>.npz``). The key is a structural
    fingerprint of (scenario spec, agent spec), so *what would be
    trained* addresses *what was trained*: a second leaderboard run
    resolves every (scenario, agent) pair to an existing file and trains
    nothing.
    """

    def __init__(self, root: os.PathLike = DEFAULT_POLICY_DIR) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.trained: List[str] = []

    def key(self, scenario: Scenario, spec: AgentSpec) -> str:
        """Fingerprint addressing the policy ``spec`` trains on ``scenario``."""
        return fingerprint("policy-store", _STORE_SCHEMA, scenario, spec)

    def path(self, key: str) -> Path:
        """Where the policy file stored under ``key`` lives."""
        return self.root / key[:2] / f"{key}.npz"

    def __contains__(self, key: str) -> bool:
        return self.path(key).is_file()

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in sorted(self.root.glob("*/*.npz")))

    def save(self, key: str, scheduler) -> None:
        """Persist a trained :class:`DRLScheduler` under ``key`` (atomic)."""
        scheduler.save(self.path(key))

    def load_scheduler(self, key: str):
        """The policy stored under ``key``, rebuilt as trained
        (:meth:`DRLScheduler.load <repro.core.agent.DRLScheduler.load>`)."""
        from repro.core.agent import DRLScheduler

        if key not in self:
            raise KeyError(f"no stored policy for key {key}; train it first")
        return DRLScheduler.load(self.path(key))

    def get_or_train(self, scenario_name: str, scenario: Scenario,
                     spec: AgentSpec) -> str:
        """The store key for (scenario, spec), training on a miss.

        Training runs in the calling process (seeded, deterministic) and
        the result is saved before the key is returned, so evaluation
        always reads the *stored bytes* — cold and warm runs evaluate
        the exact same policy.
        """
        key = self.key(scenario, spec)
        if key in self:
            self.hits += 1
            return key
        self.misses += 1
        from repro.harness.experiments import train_drl

        scheduler = train_drl(
            scenario,
            iterations=spec.iterations,
            seed=spec.seed,
            algo=spec.algo,
            algo_config=spec.algo_config,
            warm_start=spec.warm_start,
            n_train_traces=spec.n_train_traces,
            n_val_traces=spec.n_val_traces,
            num_envs=spec.num_envs,
        )
        self.save(key, scheduler)
        self.trained.append(spec.entry_name(scenario_name))
        return key

    @property
    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "trained": len(self.trained)}


@dataclass(frozen=True)
class StoredPolicyFactory:
    """Picklable scheduler factory reading a :class:`PolicyStore` entry.

    Crosses the ``spawn`` boundary as (root, key) — workers reload the
    policy from disk, so shipping a cell stays cheap and every process
    evaluates bit-identical weights. The ``scenario`` argument is part
    of the factory protocol but unused: a stored policy carries its own
    training-time config.
    """

    root: str
    key: str

    def __call__(self, scenario: Scenario):  # noqa: ARG002 - protocol
        return PolicyStore(self.root).load_scheduler(self.key)


@dataclass
class LeaderboardResult:
    """The leaderboard artifact: ranking rows + cross-scenario matrix.

    ``rows`` has one line per entry (trained policy or baseline) with
    the overall mean of the primary metric, its bootstrap CI, pairwise
    win rate, mean per-scenario rank, and (for trained policies) the
    transfer gap. ``matrix`` has one line per (entry, scenario) cell.
    Both are plain scalar dicts, deterministic given the inputs — no
    timestamps or run-local state — so the serialized artifact is
    byte-identical across worker counts and cache states.
    """

    metric: str
    scenario_names: List[str]
    rows: List[dict]
    matrix: List[dict]
    policies: Dict[str, str] = field(default_factory=dict)
    store_stats: Dict[str, int] = field(default_factory=dict)
    cache_stats: Dict[str, int] = field(default_factory=dict)

    def to_json(self) -> str:
        """Deterministic JSON serialization (the ``--out *.json`` artifact).

        Run-local statistics (store/cache hit counts) are deliberately
        excluded: they differ between cold and warm runs while the
        leaderboard content does not.
        """
        payload = {
            "schema": 1,
            "metric": self.metric,
            "scenarios": self.scenario_names,
            "rows": self.rows,
            "matrix": self.matrix,
            "policies": self.policies,
        }
        return json.dumps(payload, sort_keys=True, indent=1) + "\n"

    def to_markdown(self) -> str:
        """GitHub-flavored markdown rendering (the ``--out *.md`` artifact)."""
        lines = [f"# Trained-policy leaderboard ({self.metric})", ""]
        columns = ["rank", "entry", "trained_on", self.metric,
                   "ci_lo", "ci_hi", "win_rate", "mean_rank", "transfer_gap"]
        lines += _markdown_table(self.rows, columns)
        lines += ["", f"## Cross-scenario matrix (mean {self.metric})", ""]
        by_entry: Dict[str, Dict[str, float]] = {}
        for cell in self.matrix:
            by_entry.setdefault(cell["entry"], {})[cell["scenario"]] = \
                cell[self.metric]
        matrix_rows = [
            {"entry": row["entry"],
             **{s: by_entry[row["entry"]].get(s, "") for s in self.scenario_names}}
            for row in self.rows
        ]
        lines += _markdown_table(matrix_rows, ["entry", *self.scenario_names])
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        """Aligned monospace tables for terminal output."""
        columns = ["rank", "entry", "trained_on", self.metric,
                   "ci_lo", "ci_hi", "win_rate", "mean_rank", "transfer_gap"]
        out = format_table(self.rows, columns=columns,
                           title=f"leaderboard ({self.metric})")
        out += "\n\n" + format_table(
            self.matrix,
            columns=["entry", "scenario", self.metric, "ci_lo", "ci_hi",
                     "mean_slowdown", "mean_utilization"],
            title="cross-scenario matrix")
        return out


def _markdown_table(rows: Sequence[dict], columns: Sequence[str],
                    precision: int = 4) -> List[str]:
    def fmt(v) -> str:
        if isinstance(v, float):
            return f"{v:.{precision}f}"
        return str(v)

    lines = ["| " + " | ".join(columns) + " |",
             "|" + "|".join(" --- " for _ in columns) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(fmt(row.get(c, "")) for c in columns)
                     + " |")
    return lines


def _resolve_specs(agents: Sequence[Union[str, AgentSpec]],
                   train_iterations: Optional[int],
                   seed: int) -> List[AgentSpec]:
    specs: List[AgentSpec] = []
    for agent in agents:
        if isinstance(agent, AgentSpec):
            specs.append(agent)
        else:
            kwargs = {"algo": str(agent), "seed": seed}
            if train_iterations is not None:
                kwargs["iterations"] = train_iterations
            specs.append(AgentSpec(**kwargs))
    names = [s.algo for s in specs]
    if len(set(names)) != len(names):
        raise InputError(f"duplicate agent algorithms in {names}; entry "
                         "names (algo@scenario) must be unique")
    return specs


def _check_platforms(scenarios: Dict[str, Scenario]) -> None:
    """Cross-scenario evaluation needs one shared platform-name set."""
    names = {name: tuple(sorted(p.name for p in s.platforms))
             for name, s in scenarios.items()}
    distinct = set(names.values())
    if len(distinct) > 1:
        raise InputError(
            "leaderboard scenarios must share platform names so policies "
            f"transfer across them; got {names}")


def build_leaderboard(
    scenarios: Dict[str, Scenario],
    agents: Sequence[Union[str, AgentSpec]] = ("ppo",),
    baselines: Sequence[str] = ("edf", "tetris", "greedy-elastic", "fifo"),
    n_traces: int = 3,
    base_seed: int = 1000,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    store: Optional[PolicyStore] = None,
    train_iterations: Optional[int] = None,
    seed: int = 0,
    metric: str = "miss_rate",
) -> LeaderboardResult:
    """Train-once-per-scenario, evaluate-everywhere, rank.

    ``scenarios`` maps each scenario's name to the scenario (resolved,
    for instance, by :func:`repro.harness.library.get_scenario`).
    ``agents`` are algorithm names or full :class:`AgentSpec`\\ s; each
    is trained once per scenario through ``store`` (default
    ``.repro-policies/``). ``baselines`` join as untrained entries.
    Evaluation cells fan out over ``workers`` processes and memoize in
    ``cache``; the returned rows are independent of both.

    The primary ``metric`` (lower is better) drives ranking, win rate,
    and the transfer gap; the matrix additionally records slowdown and
    utilization per cell.
    """
    if n_traces < 1:
        raise InputError("n_traces must be >= 1")
    if not scenarios:
        raise InputError("need at least one scenario")
    _check_platforms(scenarios)
    specs = _resolve_specs(agents, train_iterations, seed)
    if not specs and not baselines:
        raise InputError("need at least one agent or baseline entry")
    store = store if store is not None else PolicyStore()

    # --- phase 1: train (or resolve) one policy per (scenario, agent) ----
    policies: Dict[str, str] = {}
    entries: List[Tuple[str, Optional[str], object]] = []  # (entry, home, factory)
    for scen_name, scenario in scenarios.items():
        for spec in specs:
            entry = spec.entry_name(scen_name)
            key = store.get_or_train(scen_name, scenario, spec)
            policies[entry] = key
            entries.append((entry, scen_name,
                            StoredPolicyFactory(str(store.root), key)))
    for name in baselines:
        entries.append((str(name), None, BaselineFactory(str(name))))

    # --- phase 2: the full scenario x entry x trace evaluation grid ------
    grid = evaluate_grid(
        scenarios, {entry: factory for entry, _, factory in entries},
        n_traces=n_traces, base_seed=base_seed, workers=workers,
        cache=cache)

    # --- phase 3: aggregate, rank, and measure transfer ------------------
    values: Dict[Tuple[str, str], List[float]] = {
        (entry, scen_name): [float(getattr(r, metric)) for r in reports]
        for (scen_name, entry), reports in grid.items()
    }

    scen_order = list(scenarios)
    entry_names = [entry for entry, _, _ in entries]
    means = {cell_id: float(np.mean(vals)) for cell_id, vals in values.items()}

    matrix: List[dict] = []
    for entry, _, _ in entries:
        for scen_name in scen_order:
            vals = values[(entry, scen_name)]
            # Fixed resample stream: leaderboard CIs are part of the
            # published artifact and must be identical on every rebuild.
            # repro: allow[DET001]
            ci = bootstrap_ci(vals, rng=np.random.default_rng(0))
            matrix.append({
                "entry": entry,
                "scenario": scen_name,
                metric: ci.mean,
                "ci_lo": ci.lo,
                "ci_hi": ci.hi,
                "mean_slowdown": float(np.mean(
                    [r.mean_slowdown for r in grid[(scen_name, entry)]])),
                "mean_utilization": float(np.mean(
                    [r.mean_utilization for r in grid[(scen_name, entry)]])),
                "n_traces": len(vals),
            })

    # Per-scenario ranks (1 = best); ties break on entry name so the
    # ranking is deterministic.
    ranks: Dict[Tuple[str, str], int] = {}
    for scen_name in scen_order:
        ordered = sorted(entry_names,
                         key=lambda e: (means[(e, scen_name)], e))
        for r, entry in enumerate(ordered, start=1):
            ranks[(entry, scen_name)] = r

    rows: List[dict] = []
    for entry, home, _ in entries:
        pooled = [v for s in scen_order for v in values[(entry, s)]]
        # Same fixed resample stream as the per-scenario CIs above.
        # repro: allow[DET001]
        ci = bootstrap_ci(pooled, rng=np.random.default_rng(0))
        overall = float(np.mean([means[(entry, s)] for s in scen_order]))
        wins = 0.0
        comparisons = 0
        for s in scen_order:
            for other in entry_names:
                if other == entry:
                    continue
                comparisons += 1
                if means[(entry, s)] < means[(other, s)]:
                    wins += 1.0
                elif means[(entry, s)] == means[(other, s)]:
                    wins += 0.5
        row = {
            "entry": entry,
            "trained_on": home if home is not None else "",
            metric: overall,
            "ci_lo": ci.lo,
            "ci_hi": ci.hi,
            "win_rate": wins / comparisons if comparisons else 0.0,
            "mean_rank": float(np.mean([ranks[(entry, s)]
                                        for s in scen_order])),
        }
        if home is not None:
            # Transfer gap: how much worse this policy is away from home
            # than the same-algorithm policy natively trained there
            # (positive = transfer costs something; 0 with one scenario).
            algo = entry.split("@", 1)[0]
            gaps = [
                means[(entry, s)] - means[(f"{algo}@{s}", s)]
                for s in scen_order
                if s != home and f"{algo}@{s}" in policies
            ]
            row["transfer_gap"] = float(np.mean(gaps)) if gaps else 0.0
        rows.append(row)

    rows.sort(key=lambda r: (r["mean_rank"], r[metric], r["entry"]))
    for i, row in enumerate(rows, start=1):
        row["rank"] = i

    return LeaderboardResult(
        metric=metric,
        scenario_names=scen_order,
        rows=rows,
        matrix=matrix,
        policies=policies,
        store_stats=dict(store.stats),
        cache_stats=dict(cache.stats) if cache is not None else {},
    )
