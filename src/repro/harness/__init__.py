"""Experiment harness: scenarios, sweeps, tables, plots, persistence.

``repro.harness.experiments`` contains one entry point per table/figure
of the reconstructed evaluation (``e01``–``e18``); the modules under
``benchmarks/`` call these with bench-sized parameters. Every
comparison runs through the one evaluation grid of
:mod:`repro.harness.parallel`.
"""

from repro.harness.scenario import Scenario, standard_scenario
from repro.harness.library import (
    FixedTraceScenario,
    TraceBackedScenario,
    TraceWindowScenario,
    get_scenario,
    list_scenarios,
    plan_trace_windows,
    register_scenario,
)
from repro.harness.results import ResultStore, aggregate_rows
from repro.harness.tables import format_table, rows_to_csv
from repro.harness.plots import ascii_line_plot
from repro.harness.sweeps import evaluate_windowed, sweep_schedulers, sweep_windowed
from repro.harness.cache import ResultCache, fingerprint
from repro.harness.leaderboard import (
    AgentSpec,
    LeaderboardResult,
    PolicyStore,
    StoredPolicyFactory,
    build_leaderboard,
)
from repro.harness.parallel import (
    BaselineFactory,
    CellFailure,
    EvalCell,
    FixedScheduler,
    evaluate_grid,
    run_cells,
)
from repro.harness.stats import (
    MeanCI,
    bootstrap_ci,
    paired_permutation_test,
    summarize,
)
from repro.harness import experiments

__all__ = [
    "Scenario", "standard_scenario",
    "TraceBackedScenario", "FixedTraceScenario",
    "register_scenario", "get_scenario", "list_scenarios",
    "TraceWindowScenario", "plan_trace_windows",
    "ResultStore", "aggregate_rows",
    "format_table", "rows_to_csv",
    "ascii_line_plot",
    "sweep_schedulers", "sweep_windowed", "evaluate_windowed",
    "ResultCache", "fingerprint",
    "AgentSpec", "LeaderboardResult", "PolicyStore", "StoredPolicyFactory",
    "build_leaderboard",
    "BaselineFactory", "CellFailure", "EvalCell", "FixedScheduler",
    "evaluate_grid", "run_cells",
    "MeanCI", "bootstrap_ci", "paired_permutation_test", "summarize",
    "experiments",
]
