#!/usr/bin/env python
"""Leaderboard study: train once per scenario, rank everywhere.

Builds the trained-policy leaderboard over two registry scenarios (the
synthetic ``quick`` setting and the bundled real-trace ``swf-fixture``),
with the heuristic roster as anchors, then re-runs it to show that the
content-addressed policy store and result cache make the second pass
free — nothing retrains, nothing re-simulates, and the artifact is
byte-identical.

Runs offline in well under a minute at this bench-sized training
budget::

    python examples/leaderboard_study.py

Scale ``iterations`` (and drop the explicit ``AgentSpec`` overrides)
for a real study, or drive the same flow from the command line::

    python -m repro.cli leaderboard --scenarios quick swf-fixture \\
        --agents ppo,a2c --workers 4 \\
        --out leaderboard.json --out leaderboard.md
"""

import tempfile
from pathlib import Path

from repro.harness import (
    AgentSpec,
    PolicyStore,
    ResultCache,
    build_leaderboard,
    get_scenario,
)


def main() -> None:
    scenarios = {name: get_scenario(name) for name in ("quick", "swf-fixture")}
    # Bench-sized budget: a short PPO fine-tune on top of the
    # behavior-cloning warm start. Raise iterations for a real study.
    agent = AgentSpec(algo="ppo", iterations=4, n_train_traces=4,
                      n_val_traces=2)

    with tempfile.TemporaryDirectory() as tmp:
        store = PolicyStore(Path(tmp) / "policies")
        cache = ResultCache(Path(tmp) / "cache")
        result = build_leaderboard(
            scenarios,
            agents=(agent,),
            baselines=("edf", "tetris", "greedy-elastic", "fifo"),
            n_traces=3,
            cache=cache,
            store=store,
        )
        print(result.to_text())
        print(f"\ncold run: trained {store.stats['trained']} policies, "
              f"{cache.stats['misses']} cells simulated")

        # The second pass resolves every policy in the store and every
        # cell in the cache: zero training, zero simulation, identical
        # bytes.
        store2 = PolicyStore(Path(tmp) / "policies")
        cache2 = ResultCache(Path(tmp) / "cache")
        result2 = build_leaderboard(
            scenarios,
            agents=(agent,),
            baselines=("edf", "tetris", "greedy-elastic", "fifo"),
            n_traces=3,
            cache=cache2,
            store=store2,
        )
        identical = result2.to_json() == result.to_json()
        print(f"warm run: trained {store2.stats['trained']}, "
              f"cache misses {cache2.stats['misses']}, "
              f"artifact byte-identical: {identical}")

        artifact = Path(tmp) / "leaderboard.md"
        artifact.write_text(result.to_markdown())
        print(f"\nmarkdown artifact ({artifact.stat().st_size} bytes):\n")
        print("\n".join(result.to_markdown().splitlines()[:8]))

    # Reading the table: `transfer_gap` is each trained policy's mean
    # away-from-home excess miss rate over the policy natively trained
    # there — the paper's generalization question in one column.


if __name__ == "__main__":
    main()
