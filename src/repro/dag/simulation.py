"""Simulation subclass that releases DAG stages as dependencies finish.

Stage jobs flow through the ordinary :class:`~repro.sim.Simulation`
machinery — the pending queue, the cluster ledger, elastic grow/shrink,
metrics — so every flat-workload scheduler works on DAG workloads
unchanged. The subclass adds exactly one behaviour: when a stage job
completes, children whose parents are all finished are materialized as
new pending jobs at the current tick.

Stage jobs inherit the *graph* deadline (the graph, not the stage, is
the time-critical unit); the graph-level outcome is summarized by
:meth:`DAGSimulation.graph_miss_rate`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.dag.graph import TaskGraph
from repro.sim.job import Job, JobState
from repro.sim.platform import Platform
from repro.sim.simulation import Simulation, SimulationConfig

__all__ = ["DAGSimulation"]


class DAGSimulation(Simulation):
    """Drives a trace of :class:`TaskGraph` submissions."""

    def __init__(
        self,
        platforms: Sequence[Platform],
        graphs: Sequence[TaskGraph],
        config: SimulationConfig = SimulationConfig(),
        fault_injector=None,
        energy_meter=None,
    ) -> None:
        self.graphs: List[TaskGraph] = list(graphs)
        if len(set(self.graphs)) != len(self.graphs):
            raise ValueError("duplicate graph ids: one graph at two trace "
                             "positions")
        for position, graph in enumerate(self.graphs):
            graph.graph_id = position
        # Per graph, indexed by graph_id.
        self._finished_stages: List[Set[str]] = [set() for _ in self.graphs]
        self._released: List[Set[str]] = [set() for _ in self.graphs]
        # Stage job -> (graph_id, stage); keyed by the job because the
        # sources are built before the simulation adopts (and ids) them.
        self._job_stage: Dict[Job, Tuple[int, str]] = {}
        self._platforms = list(platforms)
        initial = [self._make_stage_job(g, s, g.arrival_time)
                   for g in self.graphs for s in g.sources()]
        super().__init__(platforms, initial, config,
                         fault_injector=fault_injector, energy_meter=energy_meter)

    # --- stage-job plumbing --------------------------------------------------
    def _make_stage_job(self, graph: TaskGraph, stage: str, release: int) -> Job:
        spec = graph.stages[stage]
        # A stage released after the graph deadline is already hopeless;
        # Job requires deadline > arrival, so clamp — graph_miss_rate()
        # judges against the true graph deadline regardless.
        deadline = max(graph.deadline, release + 1.0)
        job = Job(
            arrival_time=release,
            work=spec.work,
            deadline=deadline,
            min_parallelism=spec.min_parallelism,
            max_parallelism=spec.max_parallelism,
            speedup_model=spec.speedup_model,
            affinity=dict(spec.affinity),
            job_class=graph.graph_class,
        )
        self._job_stage[job] = (graph.graph_id, stage)
        self._released[graph.graph_id].add(stage)
        return job

    def stage_of(self, job: Job) -> Optional[Tuple[int, str]]:
        """``(graph_id, stage_name)`` of a stage job, or None."""
        return self._job_stage.get(job)

    def stage_priority(self, job: Job) -> float:
        """Downstream critical-path length of the job's stage (CP-first key).

        Larger means more urgent. Non-stage jobs get 0.
        """
        mapping = self._job_stage.get(job)
        if mapping is None:
            return 0.0
        graph_id, stage = mapping
        graph = self.graphs[graph_id]
        return graph.downstream_critical_path(self._platforms)[stage]

    # --- tick protocol override -------------------------------------------------
    def advance_tick(self) -> List[Job]:
        finished = super().advance_tick()
        for job in finished:
            mapping = self._job_stage.get(job)
            if mapping is None:
                continue
            graph_id, stage = mapping
            graph = self.graphs[graph_id]
            done = self._finished_stages[graph_id]
            done.add(stage)
            for child in graph.ready_stages(done):
                if child in self._released[graph_id]:
                    continue
                child_job = self._make_stage_job(graph, child, self.now)
                self._register_job(child_job)  # adopt into the SoA tables
                self.pending.append(child_job)
        return finished

    # --- graph-level outcomes ------------------------------------------------------
    def graph_finish_time(self, graph: TaskGraph) -> Optional[float]:
        """Tick the graph's last stage finished, or None while incomplete."""
        if self._finished_stages[graph.graph_id] != set(graph.stages):
            return None
        finishes = [
            j.finish_time for j in self._all_jobs
            if self._job_stage.get(j, (None,))[0] == graph.graph_id
            and j.finish_time is not None
        ]
        return float(max(finishes)) if finishes else None

    def graph_missed(self, graph: TaskGraph) -> bool:
        """Whether the graph is (already) a deadline miss.

        Finished late, or unfinished with the deadline in the past.
        """
        finish = self.graph_finish_time(graph)
        if finish is not None:
            return finish > graph.deadline
        return self.now > graph.deadline

    def graph_miss_rate(self) -> float:
        """Fraction of arrived graphs that missed (the E15 headline)."""
        arrived = [g for g in self.graphs if g.arrival_time <= self.now]
        if not arrived:
            return 0.0
        return sum(self.graph_missed(g) for g in arrived) / len(arrived)

    def graphs_completed(self) -> int:
        """Number of graphs whose stages have all finished."""
        return sum(
            1 for g in self.graphs
            if self._finished_stages[g.graph_id] == set(g.stages)
        )
