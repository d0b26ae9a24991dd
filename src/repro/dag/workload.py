"""Random layered-DAG workload generation.

Stands in for the production DAG traces (Spark/TPC-style query plans)
the paper's domain implies: each graph is a layered random DAG — every
non-source stage depends on 1-2 stages from earlier layers, so the
graphs have genuine fan-out/fan-in and non-trivial critical paths.
Deadlines derive from the graph's critical-path lower bound times a
tightness factor, mirroring how the flat generator derives deadlines
from ideal durations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.dag.graph import StageSpec, TaskGraph
from repro.sim.platform import Platform
from repro.sim.speedup import AmdahlSpeedup

__all__ = ["DAGWorkloadConfig", "generate_dag_trace"]


@dataclass(frozen=True)
class DAGWorkloadConfig:
    """Knobs of the random-DAG generator.

    Parameters
    ----------
    n_dags:
        Graphs per trace.
    horizon:
        Arrival window: graph arrivals are uniform over ``[0, horizon)``.
    stages_range:
        Inclusive (min, max) number of stages per graph.
    layers_range:
        Inclusive (min, max) number of layers the stages are spread over.
    work_range:
        (low, high) of the per-stage work, sampled log-uniformly.
    max_parallelism_range:
        Inclusive (min, max) stage elasticity ceiling (min parallelism is 1).
    tightness:
        Deadline = arrival + tightness * critical_path_length. Values
        near 1 are brutally tight (no queueing slack at all).
    gpu_fraction:
        Probability a graph's stages prefer the accelerator platform.
    serial_fraction:
        Amdahl sigma of every stage's speedup law.
    """

    n_dags: int = 10
    horizon: int = 40
    stages_range: Tuple[int, int] = (3, 8)
    layers_range: Tuple[int, int] = (2, 4)
    work_range: Tuple[float, float] = (4.0, 40.0)
    max_parallelism_range: Tuple[int, int] = (2, 4)
    tightness: float = 2.5
    gpu_fraction: float = 0.35
    serial_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.n_dags <= 0:
            raise ValueError("n_dags must be positive")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.stages_range[0] < 1 or self.stages_range[1] < self.stages_range[0]:
            raise ValueError("invalid stages_range")
        if self.layers_range[0] < 1 or self.layers_range[1] < self.layers_range[0]:
            raise ValueError("invalid layers_range")
        if self.work_range[0] <= 0 or self.work_range[1] < self.work_range[0]:
            raise ValueError("invalid work_range")
        if self.tightness <= 0:
            raise ValueError("tightness must be positive")
        if not 0.0 <= self.gpu_fraction <= 1.0:
            raise ValueError("gpu_fraction must be in [0, 1]")
        if not 0.0 <= self.serial_fraction < 1.0:
            raise ValueError("serial_fraction must be in [0, 1)")


def _sample_affinity(rng: np.random.Generator, platforms: Sequence[Platform],
                     gpu_fraction: float) -> dict:
    """Per-graph platform affinities: every platform runnable, one preferred."""
    names = [p.name for p in platforms]
    prefer_accel = len(names) > 1 and rng.random() < gpu_fraction
    affinity = {}
    for i, name in enumerate(names):
        fast = (i == len(names) - 1) if prefer_accel else (i == 0)
        affinity[name] = float(rng.uniform(2.0, 4.0)) if fast else float(rng.uniform(0.6, 1.2))
    return affinity


def generate_dag_graph(
    config: DAGWorkloadConfig,
    platforms: Sequence[Platform],
    rng: np.random.Generator,
    arrival_time: int,
    graph_class: str = "dag",
) -> TaskGraph:
    """One random layered task graph arriving at ``arrival_time``."""
    n_stages = int(rng.integers(config.stages_range[0], config.stages_range[1] + 1))
    n_layers = int(rng.integers(config.layers_range[0], config.layers_range[1] + 1))
    n_layers = min(n_layers, n_stages)
    # Assign each stage to a layer; layer 0 gets at least one stage.
    layers: List[List[str]] = [[] for _ in range(n_layers)]
    affinity = _sample_affinity(rng, platforms, config.gpu_fraction)
    speedup = AmdahlSpeedup(config.serial_fraction)
    stages: List[StageSpec] = []
    for i in range(n_stages):
        layer = i if i < n_layers else int(rng.integers(n_layers))
        name = f"s{i}"
        layers[layer].append(name)
        # libm, not numpy: numpy's AVX-512 exp/log round differently.
        lo, hi = math.log(config.work_range[0]), math.log(config.work_range[1])
        work = math.exp(rng.uniform(lo, hi))
        max_k = int(rng.integers(config.max_parallelism_range[0],
                                 config.max_parallelism_range[1] + 1))
        stages.append(StageSpec(
            name=name, work=work, min_parallelism=1, max_parallelism=max_k,
            affinity=affinity, speedup_model=speedup,
        ))
    edges: List[Tuple[str, str]] = []
    for li in range(1, n_layers):
        pool = [s for lay in layers[:li] for s in lay]
        for child in layers[li]:
            n_parents = int(rng.integers(1, min(2, len(pool)) + 1))
            parents = rng.choice(len(pool), size=n_parents, replace=False)
            edges.extend((pool[int(p)], child) for p in parents)
    graph = TaskGraph(stages, edges, arrival_time, deadline=arrival_time + 1.0,
                      graph_class=graph_class)
    cp = graph.critical_path_length(platforms)
    graph.deadline = arrival_time + config.tightness * cp
    return graph


def generate_dag_trace(
    config: DAGWorkloadConfig,
    platforms: Sequence[Platform],
    rng: np.random.Generator,
) -> List[TaskGraph]:
    """A trace of ``config.n_dags`` graphs with uniform arrivals.

    Graphs are returned sorted by arrival time; roughly ``gpu_fraction``
    of them carry accelerator-preferring affinities (class ``"dag-gpu"``,
    the rest ``"dag-cpu"``).
    """
    arrivals = sorted(int(a) for a in rng.integers(0, config.horizon, size=config.n_dags))
    graphs = []
    for arrival in arrivals:
        g = generate_dag_graph(config, platforms, rng, arrival)
        # classify by which platform the (graph-shared) affinity prefers
        any_stage = next(iter(g.stages.values()))
        best = max(any_stage.affinity, key=any_stage.affinity.get)
        g.graph_class = f"dag-{best}"
        graphs.append(g)
    return graphs
