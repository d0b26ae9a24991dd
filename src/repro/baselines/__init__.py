"""Heuristic scheduling baselines.

All baselines implement the ``schedule(sim)`` protocol used by
:meth:`repro.sim.Simulation.run_policy` — exactly the interface the
trained :class:`~repro.core.agent.DRLScheduler` exposes, so every
comparison in the experiment suite runs both sides under identical
simulator dynamics.

The roster mirrors the comparison set of the DeepRM/Decima/elastic-
scheduling literature:

==================  ==========================================================
FIFOScheduler       arrival order, no elasticity
SJFScheduler        shortest remaining work first
EDFScheduler        earliest deadline first (classic time-critical baseline)
LLFScheduler        least laxity (slack) first
TetrisScheduler     dot-product packing score (Tetris, SIGCOMM'14 flavour)
RandomScheduler     random admissible decisions (sanity floor)
GreedyElasticScheduler  EDF admission + slack-driven grow/shrink heuristic
BackfillScheduler   EASY backfilling (reservation-protected queue jumping)
AdmissionControlScheduler  wrapper shedding provably hopeless jobs
==================  ==========================================================

Every scheduler takes ``platform_choice`` (``"best"`` affinity-aware or
``"blind"`` heterogeneity-blind — experiment E6's ablation) and
``parallelism`` (``"min"``, ``"max"``, or ``"fit"``: the largest level
that fits the free capacity).
"""

from repro.baselines.base import HeuristicScheduler
from repro.baselines.policies import (
    ROSTER_CLASSES,
    EDFScheduler,
    FIFOScheduler,
    GreedyElasticScheduler,
    LLFScheduler,
    MigratingElasticScheduler,
    RandomScheduler,
    SJFScheduler,
    TetrisScheduler,
    baseline_roster,
)
from repro.baselines.backfill import BackfillScheduler
from repro.baselines.admission import AdmissionControlScheduler

__all__ = [
    "HeuristicScheduler",
    "FIFOScheduler", "SJFScheduler", "EDFScheduler", "LLFScheduler",
    "TetrisScheduler", "RandomScheduler", "GreedyElasticScheduler",
    "MigratingElasticScheduler",
    "BackfillScheduler", "AdmissionControlScheduler",
    "ROSTER_CLASSES", "baseline_roster",
]
