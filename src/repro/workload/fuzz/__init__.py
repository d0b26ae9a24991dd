"""Adversarial scenario fuzzing: search the generator for policy failures.

The fuzzer widens the scenario space along the axis the registry cannot:
instead of hand-naming settings, it *searches* the synthetic generator's
knob space (load, arrival shape, deadline tightness, class mix,
elasticity width, fault rate) for the candidates where a trained
policy's transfer gap against the best heuristic baseline blows up, and
archives the survivors as named stress scenarios (``fuzz/<fingerprint>``)
usable anywhere ``--scenario`` is accepted.

Layout:

* :mod:`~repro.workload.fuzz.space` — bounded knob ranges + counter-based
  Philox sampling/mutation/crossover.
* :mod:`~repro.workload.fuzz.scenario` — knob vector -> runnable
  :class:`FuzzScenario` (arrival and fault knobs included).
* :mod:`~repro.workload.fuzz.search` — the generation loop, scored
  through ``run_cells`` (parallel + cached); a re-run on the same cache
  resumes a cut search.
* :mod:`~repro.workload.fuzz.archive` — the provenance-complete failure
  archive and the ``fuzz/<name>`` resolution hook.
"""

from repro.workload.fuzz.archive import (
    DEFAULT_FUZZ_DIR,
    FUZZ_DIR_ENV,
    FUZZ_PREFIX,
    archived_names,
    load_archive,
    load_archived_scenario,
    save_archive,
    scenario_name,
)
from repro.workload.fuzz.scenario import FuzzScenario, scenario_from_knobs
from repro.workload.fuzz.search import FuzzConfig, FuzzResult, run_fuzz
from repro.workload.fuzz.space import Knob, ScenarioSpace, default_space

__all__ = [
    "DEFAULT_FUZZ_DIR",
    "FUZZ_DIR_ENV",
    "FUZZ_PREFIX",
    "Knob",
    "ScenarioSpace",
    "FuzzScenario",
    "FuzzConfig",
    "FuzzResult",
    "archived_names",
    "default_space",
    "load_archive",
    "load_archived_scenario",
    "run_fuzz",
    "save_archive",
    "scenario_from_knobs",
    "scenario_name",
]
