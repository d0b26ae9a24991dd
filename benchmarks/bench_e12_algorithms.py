"""E12 (table): RL algorithm comparison under an equal budget.

REINFORCE, A2C and PPO train on the same traces for the same number of
iterations, with no warm start; each row reports the first and final
training return and the greedy-decode miss rate of the trained policy.
"""

import math

from repro.harness import experiments as E


def test_e12_algorithms(once):
    out = once(E.e12_algorithms, algos=("reinforce", "a2c", "ppo"),
               iterations=15)
    print("\n" + out.text)
    by_algo = {r["algo"]: r for r in out.rows}
    # Every algorithm runs and reports finite returns and a miss rate.
    assert set(by_algo) == {"reinforce", "a2c", "ppo"}
    for row in out.rows:
        assert math.isfinite(row["first_return"])
        assert math.isfinite(row["final_return"])
        assert 0.0 <= row["miss_rate"] <= 1.0
