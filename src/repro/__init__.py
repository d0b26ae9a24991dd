"""repro — elasticity-compatible heterogeneous DRL resource management
for time-critical computing (ICPP 2020 reproduction).

Subpackages
-----------
``repro.sim``
    Discrete-time heterogeneous cluster simulator (malleable deadline
    jobs, faults, energy, migration).
``repro.workload``
    Arrival processes, job classes, synthetic trace generation.
``repro.dag``
    Dependency-structured (task-graph) workloads and scheduling.
``repro.nn``
    From-scratch NumPy neural-network stack.
``repro.rl``
    RL substrate: env protocol, REINFORCE / A2C / PPO.
``repro.core``
    The paper's contribution: the DRL scheduler MDP, agent, training.
``repro.baselines``
    Heuristic scheduler roster (FIFO/SJF/EDF/LLF/Tetris/elastic/
    backfill/admission-control/migration).
``repro.harness``
    Experiments e01-e18, sweeps, tables, plots, statistics.
``repro.cli``
    ``python -m repro.cli`` — list/run experiments, train/evaluate.

See README.md for a quickstart and ARCHITECTURE.md for the system
inventory.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
