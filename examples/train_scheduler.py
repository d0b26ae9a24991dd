#!/usr/bin/env python
"""Domain scenario 3: full training run, saved as a policy file.

Trains the elasticity-compatible DRL manager at a configurable budget,
prints the training curve, evaluates against the heuristic roster, and
saves the policy file for reuse::

    python examples/train_scheduler.py --iterations 80 --out policy.npz

The file rebuilds the scheduler as trained (weights, layer sizes, MDP
config, platform names), so reloading it takes only its path::

    from repro.core import DRLScheduler
    scheduler = DRLScheduler.load("policy.npz")

``python -m repro.cli evaluate --policy policy.npz`` reads the same
file.
"""

import argparse

import numpy as np

from repro.baselines import baseline_roster
from repro.core import evaluate_scheduler, train_scheduler
from repro.harness.experiments import _ppo_config, quick_scenario
from repro.harness.plots import ascii_line_plot
from repro.harness.tables import format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iterations", type=int, default=60)
    parser.add_argument("--load", type=float, default=0.7)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=str, default="")
    args = parser.parse_args()

    scenario = quick_scenario(load=args.load)
    train_traces = scenario.traces(8, base_seed=500)
    val_traces = scenario.traces(3, base_seed=700)
    eval_traces = scenario.traces(4)
    env = scenario.eval_env(train_traces, seed=args.seed)

    print(f"obs_dim={env.encoder.obs_dim}  actions={env.actions.n}  "
          f"train_traces={len(train_traces)}")
    print(f"training: imitation warm start + {args.iterations} PPO iterations ...")
    result = train_scheduler(
        env, algo="ppo", iterations=args.iterations, episodes_per_iter=4,
        algo_config=_ppo_config(warm_start=True), seed=args.seed,
        warm_start=True, val_traces=val_traces, eval_every=10,
    )
    returns = result.returns()
    print(ascii_line_plot({"return": returns}, title="training curve",
                          x_label="iteration", y_label="episode return"))
    print(f"best validation miss rate: {result.best_val_miss:.3f}\n")

    rows = []
    for name, sched in {**baseline_roster(), "drl": result.scheduler}.items():
        reports = evaluate_scheduler(sched, scenario.platforms, eval_traces,
                                     max_ticks=scenario.max_ticks)
        rows.append({
            "scheduler": name,
            "miss_rate": float(np.mean([r.miss_rate for r in reports])),
            "mean_slowdown": float(np.mean([r.mean_slowdown for r in reports])),
            "mean_tardiness": float(np.mean([r.mean_tardiness for r in reports])),
        })
    rows.sort(key=lambda r: r["miss_rate"])
    print(format_table(rows, title="held-out evaluation (4 unseen traces)"))

    if args.out:
        result.scheduler.save(args.out)
        print(f"\npolicy file saved to {args.out}")


if __name__ == "__main__":
    main()
