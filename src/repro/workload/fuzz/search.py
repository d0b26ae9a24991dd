"""The adversarial search loop: population, objective, selection.

A small evolutionary search over a :class:`ScenarioSpace`: every
generation, each candidate knob vector is built into a
:class:`~repro.workload.fuzz.scenario.FuzzScenario` and scored by the
**transfer gap** — the trained policy's mean primary metric minus the
best (lowest) mean among the heuristic baselines, over the same paired
trace seeds. Positive gap = the policy loses to a heuristic there; the
fuzzer climbs toward the candidates where it loses worst.

All evaluation fans out through one
:func:`~repro.harness.parallel.evaluate_grid` call per generation —
(candidate x scheduler x trace-seed) cells — so the search parallelizes
across worker processes, hits the persistent
:class:`~repro.harness.cache.ResultCache`, and inherits the harness's
byte-identity guarantees: scores depend only on per-cell reports, which
are independent of worker count and the cache hit/miss split.
Selection draws every random number from the counter-based streams in
:mod:`~repro.workload.fuzz.space`, keyed on (seed, generation, slot),
so the whole trajectory — and therefore the final archive bytes — is a
pure function of the config.

The search keeps no checkpoint of its own. Every cell is a pure
function of its key, so the result cache is what a cut search recovers
from: running it again with the same config and cache replays every
finished generation from cache hits and re-enters the loop at the first
unfinished one, and a higher ``generations`` extends a finished search
from the cache too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.harness.parallel import BaselineFactory, evaluate_grid
from repro.util.errors import InputError
from repro.workload.fuzz.archive import (
    load_archive,
    save_archive,
    scenario_name,
)
from repro.workload.fuzz.scenario import FuzzScenario, scenario_from_knobs
from repro.workload.fuzz.space import ScenarioSpace, default_space

__all__ = ["FuzzConfig", "FuzzResult", "run_fuzz"]


@dataclass(frozen=True)
class FuzzConfig:
    """Search budget, objective, and candidate build parameters.

    Frozen and structural: the config (with the space and the policy
    under attack) fully determines the search trajectory.
    """

    population: int = 8
    generations: int = 3
    elites: int = 2
    mutation_scale: float = 0.25
    crossover_prob: float = 0.5
    n_traces: int = 2
    base_seed: int = 1000
    seed: int = 0
    metric: str = "miss_rate"
    baselines: Tuple[str, ...] = ("edf", "greedy-elastic", "tetris")
    max_archive: int = 8
    min_gap: Optional[float] = None
    horizon: int = 60
    max_ticks: int = 400
    cpu_capacity: int = 24
    gpu_capacity: int = 8

    def __post_init__(self) -> None:
        if self.population < 2:
            raise InputError("population must be >= 2")
        if self.generations < 1:
            raise InputError("generations must be >= 1")
        if not 0 <= self.elites < self.population:
            raise InputError("elites must be in [0, population)")
        if self.n_traces < 1:
            raise InputError("n_traces must be >= 1")
        if self.max_archive < 1:
            raise InputError("max_archive must be >= 1")
        if not self.baselines:
            raise InputError("need at least one baseline to gap against")

    def build_params(self) -> dict:
        """Keyword arguments for :func:`scenario_from_knobs`."""
        return {"horizon": self.horizon, "max_ticks": self.max_ticks,
                "cpu_capacity": self.cpu_capacity,
                "gpu_capacity": self.gpu_capacity}


@dataclass
class FuzzResult:
    """What a fuzz run produced: archive entries + bookkeeping."""

    archive: List[dict]
    archive_file: str
    evaluated: int
    generations: int


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _evaluate_generation(
    vectors: Sequence[Tuple[float, ...]],
    space: ScenarioSpace,
    config: FuzzConfig,
    policy_factory: Callable,
    policy_label: str,
    results: Dict[str, dict],
    generation: int,
    workers: int,
    cache=None,
) -> List[str]:
    """Score every not-yet-scored vector; returns this generation's names.

    One ``evaluate_grid`` call covers all (new candidate, scheduler,
    trace seed) cells, so within-generation work saturates the workers.
    """
    scenarios: Dict[str, FuzzScenario] = {}
    names: List[str] = []
    for vector in vectors:
        scenario = scenario_from_knobs(space.decode(vector),
                                       **config.build_params())
        name = scenario_name(scenario)
        names.append(name)
        if name in results or name in scenarios:
            continue
        scenarios[name] = scenario
        results[name] = {"name": name, "vector": list(vector),
                         "knobs": space.decode(vector),
                         "generation": generation}
    policy_name = f"policy:{policy_label}"
    schedulers = {policy_name: policy_factory}
    schedulers.update((b, BaselineFactory(b)) for b in config.baselines)
    grid = evaluate_grid({name: scenarios[name] for name in sorted(scenarios)},
                         schedulers, n_traces=config.n_traces,
                         base_seed=config.base_seed, workers=workers,
                         cache=cache)
    for name in sorted(scenarios):
        means = {sched_name: _mean([getattr(rep, config.metric)
                                    for rep in grid[(name, sched_name)]])
                 for sched_name in schedulers}
        policy_mean = means[policy_name]
        best_baseline = min(config.baselines,
                            key=lambda b: (means[b], b))
        results[name].update({
            "policy_metric": policy_mean,
            "baseline_metric": means[best_baseline],
            "best_baseline": best_baseline,
            "baseline_metrics": {b: means[b] for b in config.baselines},
            "gap": policy_mean - means[best_baseline],
        })
    return names


def _rank(names: Sequence[str], results: Dict[str, dict]) -> List[str]:
    """Names best-first: largest gap, name as the deterministic tie-break."""
    return sorted(dict.fromkeys(names),
                  key=lambda n: (-results[n]["gap"], n))


def _next_population(
    ranked: Sequence[str],
    results: Dict[str, dict],
    space: ScenarioSpace,
    config: FuzzConfig,
    generation: int,
) -> List[Tuple[float, ...]]:
    """Elites carried over + rank-selected, crossed, mutated children."""
    vectors = [tuple(results[n]["vector"]) for n in ranked]
    population: List[Tuple[float, ...]] = vectors[:config.elites]
    for slot in range(config.population - config.elites):
        a, b, u_cross = space.select(len(vectors), config.seed,
                                     generation, slot)
        child = vectors[a]
        if u_cross < config.crossover_prob:
            child = space.crossover(vectors[a], vectors[b], config.seed,
                                    generation, slot)
        population.append(space.mutate(child, config.seed, generation, slot,
                                       scale=config.mutation_scale))
    return population


def _archive_entries(results: Dict[str, dict], space: ScenarioSpace,
                     config: FuzzConfig, policy: dict) -> Dict[str, dict]:
    """The surviving stress scenarios, full provenance attached."""
    ranked = _rank(list(results), results)
    if config.min_gap is not None:
        ranked = [n for n in ranked if results[n]["gap"] > config.min_gap]
    entries: Dict[str, dict] = {}
    for name in ranked[:config.max_archive]:
        res = results[name]
        entries[name] = {
            "name": name,
            "vector": res["vector"],
            "knobs": res["knobs"],
            "space": space.payload(),
            "build": config.build_params(),
            "gap": res["gap"],
            "metric": config.metric,
            "policy_metric": res["policy_metric"],
            "baseline_metric": res["baseline_metric"],
            "best_baseline": res["best_baseline"],
            "baseline_metrics": res["baseline_metrics"],
            "policy": policy,
            "seeds": [config.base_seed + t for t in range(config.n_traces)],
            "search_seed": config.seed,
            "generation": res["generation"],
        }
    return entries


def run_fuzz(
    policy_factory: Callable,
    policy_label: str,
    policy_fingerprint: str,
    out_dir: str,
    space: Optional[ScenarioSpace] = None,
    config: Optional[FuzzConfig] = None,
    workers: int = 1,
    cache=None,
    progress: Optional[Callable[[str], None]] = None,
) -> FuzzResult:
    """Run the adversarial search and install the archive.

    ``policy_factory`` must be picklable for ``workers > 1`` (e.g.
    :class:`~repro.harness.leaderboard.StoredPolicyFactory`);
    ``policy_fingerprint`` is recorded as provenance. The archive under
    ``out_dir`` is *merged*: entries from earlier runs with different
    configs survive, same-name entries are refreshed. Returns the
    entries this run archived.
    """
    say = progress if progress is not None else (lambda _msg: None)
    policy = {"label": policy_label, "fingerprint": policy_fingerprint}
    config = config if config is not None else FuzzConfig()
    space = space if space is not None else default_space()
    population = [space.sample(config.seed, 0, slot)
                  for slot in range(config.population)]
    results: Dict[str, dict] = {}
    for generation in range(config.generations):
        names = _evaluate_generation(
            population, space, config, policy_factory, policy_label,
            results, generation, workers, cache=cache)
        ranked = _rank(names, results)
        say(f"generation {generation}: best gap "
            f"{results[ranked[0]]['gap']:+.4f} ({ranked[0]})")
        population = _next_population(ranked, results, space, config,
                                      generation)

    entries = _archive_entries(results, space, config, policy)
    merged = dict(load_archive(out_dir))
    merged.update(entries)
    archive_file = save_archive(merged, root=out_dir)
    return FuzzResult(
        archive=[entries[name] for name in sorted(entries)],
        archive_file=archive_file,
        evaluated=len(results),
        generations=config.generations,
    )
