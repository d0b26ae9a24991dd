"""E8 (table): reward-component ablation.

Expected shape: miss-aware reward variants, *as a group*, beat the
slowdown-only reward on the time-critical objective — the best
miss-aware variant has a lower miss rate, and the full reward cuts mean
tardiness. Individual intermediate variants fluctuate within training
noise at bench budgets, so the claim is made at the group level.
"""

from repro.harness import experiments as E


def test_e08_reward_ablation(once):
    out = once(E.e08_reward_ablation, train_iterations=40, load=0.9,
               n_traces=3)
    print("\n" + out.text)
    miss = {r["reward"]: r["miss_rate"] for r in out.rows}
    tardy = {r["reward"]: r["mean_tardiness"] for r in out.rows}
    miss_aware = ["+miss", "+miss+tardy", "full"]
    # Group claim: the best miss-aware variant beats slowdown-only.
    assert min(miss[v] for v in miss_aware) <= miss["slowdown-only"] + 0.02
    # The full reward itself is no worse than slowdown-only.
    assert miss["full"] <= miss["slowdown-only"] + 0.05
    # Tardiness-priced variants clear late work faster.
    assert min(tardy[v] for v in miss_aware) <= tardy["slowdown-only"]
