"""Task-graph model: stages, precedence edges, critical-path analysis."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.sim.platform import Platform
from repro.sim.speedup import LinearSpeedup, SpeedupModel

__all__ = ["StageSpec", "TaskGraph"]


@dataclass(frozen=True)
class StageSpec:
    """Static description of one stage of a task graph.

    A stage is a malleable unit of work with the same execution model as
    a flat :class:`~repro.sim.Job` (work, elasticity range, affinity,
    speedup law); its *release time* is dynamic — the tick its last
    parent finishes.
    """

    name: str
    work: float
    min_parallelism: int = 1
    max_parallelism: int = 1
    affinity: Mapping[str, float] = field(default_factory=dict)
    speedup_model: SpeedupModel = field(default_factory=LinearSpeedup)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("stage name must be non-empty")
        if self.work <= 0:
            raise ValueError("stage work must be positive")
        if self.min_parallelism < 1:
            raise ValueError("min_parallelism must be >= 1")
        if self.max_parallelism < self.min_parallelism:
            raise ValueError("max_parallelism must be >= min_parallelism")
        if not self.affinity:
            raise ValueError("stage must be runnable on at least one platform")
        for name, factor in self.affinity.items():
            if factor <= 0:
                raise ValueError(f"affinity for {name!r} must be positive")

    def best_rate(self, platforms: Sequence[Platform]) -> float:
        """Best progress/tick across runnable platforms at max parallelism."""
        rates = [
            self.affinity[p.name] * p.base_speed
            * self.speedup_model.speedup(self.max_parallelism)
            for p in platforms
            if p.name in self.affinity
        ]
        if not rates:
            raise ValueError(f"stage {self.name!r} runs on no given platform")
        return max(rates)

    def best_duration(self, platforms: Sequence[Platform]) -> float:
        """Best-case ticks to run this stage in isolation."""
        return self.work / self.best_rate(platforms)


class TaskGraph:
    """One deadline-carrying submission structured as a DAG of stages.

    Parameters
    ----------
    stages:
        The stage specs; names must be unique within the graph.
    edges:
        ``(parent, child)`` precedence pairs by stage name. The resulting
        graph must be acyclic.
    arrival_time:
        Tick at which the graph is submitted (its source stages become
        releasable).
    deadline:
        Absolute tick by which *all* stages should finish.
    graph_class:
        Workload-class label (propagated to stage jobs for metrics).

    A graph's ``graph_id`` is its position in the trace of the
    :class:`~repro.dag.simulation.DAGSimulation` that took it (``None``
    until then), as a job's ``job_id`` is its slot.
    """

    def __init__(
        self,
        stages: Sequence[StageSpec],
        edges: Iterable[Tuple[str, str]],
        arrival_time: int,
        deadline: float,
        graph_class: str = "dag",
    ) -> None:
        if not stages:
            raise ValueError("task graph needs at least one stage")
        names = [s.name for s in stages]
        if len(set(names)) != len(names):
            raise ValueError("duplicate stage names")
        if arrival_time < 0:
            raise ValueError("arrival_time must be non-negative")
        if deadline <= arrival_time:
            raise ValueError("deadline must be after arrival")
        self.stages: Dict[str, StageSpec] = {s.name: s for s in stages}
        self.g = nx.DiGraph()
        self.g.add_nodes_from(names)
        for parent, child in edges:
            if parent not in self.stages or child not in self.stages:
                raise ValueError(f"edge ({parent!r}, {child!r}) references unknown stage")
            self.g.add_edge(parent, child)
        if not nx.is_directed_acyclic_graph(self.g):
            raise ValueError("precedence edges contain a cycle")
        self.arrival_time = arrival_time
        self.deadline = deadline
        self.graph_class = graph_class
        self.graph_id: Optional[int] = None
        self._downstream_cp: Optional[Dict[str, float]] = None

    # --- structure queries ---------------------------------------------------
    @property
    def num_stages(self) -> int:
        """Number of stages in the graph."""
        return len(self.stages)

    def sources(self) -> List[str]:
        """Stages with no parents (releasable at arrival)."""
        return [n for n in self.g.nodes if self.g.in_degree(n) == 0]

    def sinks(self) -> List[str]:
        """Stages with no children."""
        return [n for n in self.g.nodes if self.g.out_degree(n) == 0]

    def parents(self, stage: str) -> List[str]:
        """Immediate predecessors of a stage."""
        return list(self.g.predecessors(stage))

    def children(self, stage: str) -> List[str]:
        """Immediate successors of a stage."""
        return list(self.g.successors(stage))

    def total_work(self) -> float:
        """Sum of stage work."""
        return sum(s.work for s in self.stages.values())

    def ready_stages(self, finished: Set[str]) -> List[str]:
        """Stages whose parents are all in ``finished`` and that are not
        themselves finished — the currently releasable frontier."""
        return [
            n for n in self.g.nodes
            if n not in finished
            and all(p in finished for p in self.g.predecessors(n))
        ]

    # --- critical path ----------------------------------------------------------
    def downstream_critical_path(self, platforms: Sequence[Platform]) -> Dict[str, float]:
        """For each stage: the best-case duration of the longest chain
        starting at (and including) that stage.

        This is the CP-first priority — a stage heading a long chain is
        urgent regardless of its own size. Cached after the first call
        (specs are immutable).
        """
        if self._downstream_cp is None:
            dist: Dict[str, float] = {}
            for node in reversed(list(nx.topological_sort(self.g))):
                tail = max((dist[c] for c in self.g.successors(node)), default=0.0)
                dist[node] = self.stages[node].best_duration(platforms) + tail
            self._downstream_cp = dist
        return self._downstream_cp

    def critical_path_length(self, platforms: Sequence[Platform]) -> float:
        """Best-case duration of the whole graph (its makespan lower bound)."""
        cp = self.downstream_critical_path(platforms)
        return max(cp[s] for s in self.sources())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TaskGraph(id={self.graph_id}, cls={self.graph_class}, "
            f"stages={self.num_stages}, arr={self.arrival_time}, "
            f"ddl={self.deadline:.0f})"
        )
