"""E9 (figure): generalization across loads.

Expected shape: a policy trained at load 0.7 remains competitive with
EDF on unseen trace seeds at and below the training load. At the
off-distribution overload point (1.0) bench-scale policies degrade —
they never saw saturated queues — so the assertion there is *bounded*
degradation, not parity (the known weak spot of the lineage;
training across a load range closes it).
"""

from repro.harness import experiments as E


def test_e09_generalization(once):
    out = once(E.e09_generalization, train_load=0.7,
               eval_loads=(0.5, 0.7, 1.0), train_iterations=60, n_traces=3)
    print("\n" + out.text)

    def get(load, scheduler):
        return [r for r in out.rows
                if r["scheduler"] == scheduler and r["eval_load"] == load][0]

    # Competitive at and below the training load (unseen seeds).
    for load in (0.5, 0.7):
        assert get(load, "drl")["miss_rate"] <= \
            get(load, "edf")["miss_rate"] + 0.12, f"load {load}"
    # Bounded degradation when extrapolating to overload.
    assert get(1.0, "drl")["miss_rate"] <= get(1.0, "edf")["miss_rate"] + 0.25
    # The policy transfers *monotonicity*: harder loads => more misses.
    drl_curve = [get(l, "drl")["miss_rate"] for l in (0.5, 0.7, 1.0)]
    assert drl_curve == sorted(drl_curve)
