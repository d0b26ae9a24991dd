#!/usr/bin/env bash
# CI smoke steps, runnable locally from any checkout:
#
#     bash scripts/ci_smoke.sh                 # every quick step
#     bash scripts/ci_smoke.sh sweep trace     # a subset, in order
#     bash scripts/ci_smoke.sh leaderboard
#
# Steps: lint, sweep, eval, trace, stream, leaderboard, serve, fuzz,
# docs, parity, perfbench, refusals, numerics, nightly-leaderboard.
# Each step is exactly what .github/workflows/ci.yml runs, so a failure
# reproduces locally with the same command. Scratch state lives in
# .ci-cache/ (result cache), .ci-policies/ (policy store), and
# .ci-trace/ (imported traces + logs); delete them for a cold run.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

CACHE_DIR=.ci-cache
POLICY_DIR=.ci-policies
TRACE_DIR=.ci-trace

step_lint() {
    # Determinism-contract gate. Three parts:
    #  1. the shipped tree lints clean — an inline waiver is the only
    #     exception, so any new RNG/ordering/wall-clock/atomic-write/
    #     snapshot-surface violation fails the build;
    #  2. the gate is proven *red-capable*: a seeded violation must make
    #     the linter exit non-zero, so a silently-green linter cannot
    #     pass CI;
    #  3. ruff (style/pyflakes tier), skipped gracefully where it is not
    #     installed — CI installs it via requirements-ci.txt.
    python -m repro.cli lint src
    mkdir -p "$TRACE_DIR"
    local vdir="$TRACE_DIR/lint-violation"
    rm -rf "$vdir" && mkdir -p "$vdir"
    cat > "$vdir/seeded_violation.py" <<'EOF'
import numpy as np

rng = np.random.default_rng()
EOF
    if python -m repro.cli lint "$vdir" > "$TRACE_DIR/lint-red.log"; then
        echo "lint gate FAILED to flag a seeded DET001 violation" >&2
        exit 1
    fi
    grep -q "DET001" "$TRACE_DIR/lint-red.log"
    rm -rf "$vdir"
    if command -v ruff >/dev/null 2>&1; then
        ruff check src
    else
        echo "ruff not installed; skipping style tier (CI installs it)"
    fi
    echo "lint smoke: tree clean, gate red-capable"
}

expect_refusal() {
    # Runs `repro.cli "$@"` and fails unless it exits 2 with exactly one
    # stderr line and no traceback: the one way a command refuses an
    # input it cannot use.
    mkdir -p "$TRACE_DIR"
    local status=0 err="$TRACE_DIR/refusal.err"
    python -m repro.cli "$@" > /dev/null 2> "$err" || status=$?
    if [ "$status" -ne 2 ] || [ "$(wc -l < "$err")" -ne 1 ] \
            || grep -q Traceback "$err"; then
        echo "repro.cli $*: want exit 2 and one stderr line, got exit" \
             "$status:" >&2
        cat "$err" >&2
        exit 1
    fi
    cat "$err"
}

sweep_twice() {
    # Runs one sweep twice against the persistent result cache: the
    # second run must miss nothing and write rows byte-identical to the
    # first run's. $1 names the logs and rows under $TRACE_DIR; the
    # rest are sweep arguments.
    local name=$1 run
    shift
    mkdir -p "$TRACE_DIR"
    for run in cold warm; do
        python -m repro.cli sweep "$@" --cache-dir "$CACHE_DIR" \
            --out "$TRACE_DIR/$name-$run.json" \
            | tee "$TRACE_DIR/$name-$run.log"
    done
    cmp "$TRACE_DIR/$name-cold.json" "$TRACE_DIR/$name-warm.json"
    if ! grep -q ", 0 misses" "$TRACE_DIR/$name-warm.log"; then
        echo "$name: the warm run was not served from the result cache" >&2
        exit 1
    fi
}

step_sweep() {
    # Parallel scheduler sweep, cold then warm: the warm run must be
    # served from the persistent result cache, and an uncached
    # one-worker run of the same sweep must write the pooled cold rows
    # byte for byte (the pool shares traces within each batch it hands
    # a worker, the in-process loop across the whole sweep).
    local sweep_args=(--loads 0.6 --schedulers edf,fifo --traces 2
                      --max-ticks 120 --workers 2)
    sweep_twice sweep "${sweep_args[@]}"
    python -m repro.cli sweep "${sweep_args[@]}" --no-cache \
        --workers 1 --out "$TRACE_DIR/sweep-serial-nocache.json"
    cmp "$TRACE_DIR/sweep-cold.json" "$TRACE_DIR/sweep-serial-nocache.json"
}

step_eval() {
    # One evaluation grid: the experiments' tables (the elapsed line
    # aside) and `evaluate`'s table must be byte-identical between the
    # serial path and a 2-worker process pool. e13's cells return more
    # than a report (their fault injectors' preemption counts).
    # `evaluate` includes the stateful `random` baseline, and 8 traces
    # put several of its cells in one pool batch: every cell starts
    # from a fresh copy of its scheduler, so batching cannot move its
    # row.
    mkdir -p "$TRACE_DIR"
    local w e
    for w in 1 2; do
        for e in e04_tightness_sweep e13_fault_robustness; do
            python -m repro.cli run "$e" --workers "$w" \
                | grep -v "elapsed:" > "$TRACE_DIR/$e-workers$w.txt"
        done
        python -m repro.cli evaluate --traces 8 --workers "$w" \
            > "$TRACE_DIR/evaluate-workers$w.txt"
    done
    for e in e04_tightness_sweep e13_fault_robustness; do
        cmp "$TRACE_DIR/$e-workers1.txt" "$TRACE_DIR/$e-workers2.txt"
    done
    cmp "$TRACE_DIR/evaluate-workers1.txt" "$TRACE_DIR/evaluate-workers2.txt"
    cat "$TRACE_DIR/evaluate-workers2.txt"
    # Train -> evaluate round trip through the policy file: it rebuilds
    # the scheduler as trained, so a policy trained on quick runs on
    # standard, whose own config encodes more features. The suffixless
    # --out is written as given, so evaluate must find it under the
    # same name.
    rm -f "$TRACE_DIR/a2c-policy"
    python -m repro.cli train --algo a2c --scenario quick --iterations 1 \
        --out "$TRACE_DIR/a2c-policy"
    python -m repro.cli evaluate --policy "$TRACE_DIR/a2c-policy" \
        --scenario standard --traces 1
    # A file that is not a policy is refused: exit 2, one stderr line.
    echo "not a policy" > "$TRACE_DIR/not-a-policy.txt"
    expect_refusal evaluate --policy "$TRACE_DIR/not-a-policy.txt" --traces 1
    echo "eval smoke: e04, e13 and evaluate tables byte-identical at 1 and 2" \
         "workers; a2c policy from quick evaluated on standard; text file" \
         "refused"
}

step_trace() {
    # Trace ingestion: import + stats on the bundled hermetic fixture.
    mkdir -p "$TRACE_DIR"
    python -m repro.cli trace import --format swf \
        --input src/repro/workload/ingest/fixtures/sample.swf \
        --out "$TRACE_DIR/fixture.json.gz" --tick-seconds 120 \
        --target-load 0.8
    python -m repro.cli trace stats --input "$TRACE_DIR/fixture.json.gz"
    python -m repro.cli trace stats --format swf \
        --input src/repro/workload/ingest/fixtures/sample.swf
    # Real-trace scenario sweep (cold + warm) through the registry.
    sweep_twice trace-sweep --scenario swf-fixture --schedulers edf,fifo \
        --traces 2 --max-ticks 200 --workers 2
}

step_stream() {
    # Streamed archive-scale ingest: 50k generated SWF rows must import
    # under a hard 2 GB address-space cap and normalize in < 16 MB of
    # traced allocations (materializing the record list alone is ~60 MB).
    # Then the same log, sharded, is evaluated as contiguous bounded
    # windows under the same cap, and the merged rows must be
    # byte-identical at 1 and 2 workers.
    mkdir -p "$TRACE_DIR"
    python -c "import sys; sys.path.insert(0, 'benchmarks'); \
        from bench_micro import write_synthetic_swf; \
        write_synthetic_swf('$TRACE_DIR/big.swf', n_rows=50_000)"
    bash -c "ulimit -v 2097152; python -m repro.cli \
        trace import --stream --format swf --input $TRACE_DIR/big.swf \
        --out $TRACE_DIR/big.jsonl.gz --tick-seconds 60 \
        --max-jobs 400 --target-load 0.8"
    python -c "import tracemalloc; \
        from repro.sim import Platform; \
        from repro.workload.ingest import IngestConfig, stream_normalize_swf; \
        tracemalloc.start(); \
        n = sum(1 for _ in stream_normalize_swf('$TRACE_DIR/big.swf', \
            IngestConfig(tick_seconds=60.0, target_load=0.8), \
            [Platform('cpu', 24, 1.0), Platform('gpu', 8, 1.0)])); \
        peak = tracemalloc.get_traced_memory()[1]; \
        print(f'{n} jobs, peak {peak/1e6:.1f} MB'); \
        assert n == 50_000 and peak < 16 * 1024 * 1024, (n, peak)"
    for _ in 1 2; do
        python -m repro.cli sweep \
            --scenario "$TRACE_DIR/big.jsonl.gz" --schedulers edf,fifo \
            --traces 1 --max-ticks 150 --workers 2 \
            --cache-dir "$CACHE_DIR" --cache-max-mb 64
    done
    rm -rf "$TRACE_DIR/big-shards"
    bash -c "ulimit -v 2097152; python -m repro.cli trace import --stream \
        --format swf --input $TRACE_DIR/big.swf \
        --out $TRACE_DIR/big-shards --shard-jobs 500 --tick-seconds 60 \
        --max-jobs 2000 --target-load 0.8"
    local w
    for w in 1 2; do
        bash -c "ulimit -v 2097152; python -m repro.cli sweep \
            --scenario $TRACE_DIR/big-shards --window-jobs 500 \
            --schedulers edf,fifo --engine event --no-cache \
            --workers $w --out $TRACE_DIR/windowed-workers$w.json"
    done
    cmp "$TRACE_DIR/windowed-workers1.json" "$TRACE_DIR/windowed-workers2.json"
    # Keys and windows do not depend on the container layout: the same
    # jobs as a flat .jsonl.gz and as a .json.gz array hit every cell
    # the shard run cached, and evaluate to the shard run's metrics. At
    # 1 worker a windowed sweep decodes each job once, in one streaming
    # pass; the pool re-streams each window in its processes, so each
    # layout's rows are also cmp'd across worker counts.
    local layout_cache="$TRACE_DIR/layout-cache" container
    local window_args=(--window-jobs 500 --schedulers edf,fifo
                       --engine event)
    rm -rf "$layout_cache"
    python -m repro.cli sweep --scenario "$TRACE_DIR/big-shards" \
        "${window_args[@]}" --workers 1 --cache-dir "$layout_cache"
    for container in big-flat.jsonl.gz big-array.json.gz; do
        rm -f "$TRACE_DIR/$container"
        python -m repro.cli trace convert --input "$TRACE_DIR/big-shards" \
            --out "$TRACE_DIR/$container"
        python -m repro.cli sweep --scenario "$TRACE_DIR/$container" \
            "${window_args[@]}" --workers 1 --cache-dir "$layout_cache" \
            | tee "$TRACE_DIR/layout-$container.log"
        if ! grep -q ", 0 misses" "$TRACE_DIR/layout-$container.log"; then
            echo "$container: windows missed the shard run's cache keys" >&2
            exit 1
        fi
        for w in 1 2; do
            python -m repro.cli sweep --scenario "$TRACE_DIR/$container" \
                "${window_args[@]}" --workers "$w" --no-cache \
                --out "$TRACE_DIR/layout-$container-workers$w.json"
        done
        cmp "$TRACE_DIR/layout-$container-workers1.json" \
            "$TRACE_DIR/layout-$container-workers2.json"
        python - "$TRACE_DIR/windowed-workers1.json" \
            "$TRACE_DIR/layout-$container-workers1.json" <<'PY'
import json
import sys


def metric_rows(path):
    with open(path, encoding="utf-8") as fh:
        rows = json.load(fh)["tables"]["sweep"]
    return [{k: v for k, v in row.items() if k != "scenario"} for row in rows]


shards, other = (metric_rows(path) for path in sys.argv[1:])
if shards != other:
    sys.exit(f"{sys.argv[2]}: metrics differ from the shard run's")
PY
    done
    echo "stream smoke: import and windowed sweep under the 2 GB cap;" \
         "windowed rows byte-identical at 1 and 2 workers for shards, flat" \
         "and array containers, which hit the shard run's keys and match" \
         "its metrics"
}

step_leaderboard() {
    # Trained-policy leaderboard over a quick registry subset: two
    # agents, minimal training, 2 workers. Cold run trains and fills the
    # policy store + result cache; the warm run must retrain nothing,
    # miss nothing, and emit a byte-identical leaderboard.json.
    mkdir -p "$TRACE_DIR"
    local args=(--scenarios quick swf-fixture --agents ppo,a2c
                --baselines edf,tetris,greedy-elastic,fifo
                --train-iterations 2 --train-traces 2 --val-traces 1
                --traces 2 --workers 2
                --cache-dir "$CACHE_DIR" --policy-dir "$POLICY_DIR")
    python -m repro.cli leaderboard "${args[@]}" \
        --out leaderboard.json --out leaderboard.md \
        | tee "$TRACE_DIR/leaderboard-cold.log"
    python -m repro.cli leaderboard "${args[@]}" \
        --out "$TRACE_DIR/leaderboard-warm.json" \
        | tee "$TRACE_DIR/leaderboard-warm.log"
    cmp leaderboard.json "$TRACE_DIR/leaderboard-warm.json"
    grep -q "policy store: 0 trained" "$TRACE_DIR/leaderboard-warm.log"
    grep -q ", 0 misses" "$TRACE_DIR/leaderboard-warm.log"
    echo "leaderboard smoke: warm run reused every policy and cell," \
         "rows byte-identical"
}

step_serve() {
    # Online serving invariant, end to end with a real kill -9: pump
    # the swf-fixture trace into a live server, SIGKILL it mid-stream,
    # restart from the rolling checkpoint, finish the replay, and
    # require the served metrics byte-identical to the offline batch
    # reference on the same payloads. The policy goes to the server and
    # to the offline reference; a served replay refuses it.
    mkdir -p "$TRACE_DIR"
    local sdir="$TRACE_DIR/serve-state"
    local policy=(--policy greedy-elastic)
    local serve_args=(--scenario swf-fixture --state-dir "$sdir")
    rm -rf "$sdir"
    python -m repro.cli serve "${serve_args[@]}" "${policy[@]}" \
        --checkpoint-every 8 > "$TRACE_DIR/serve-1.log" 2>&1 &
    local spid=$!
    python -m repro.cli replay "${serve_args[@]}" --stop-after 20
    kill -9 "$spid"
    wait "$spid" 2>/dev/null || true
    python -m repro.cli serve "${serve_args[@]}" "${policy[@]}" \
        --checkpoint-every 8 > "$TRACE_DIR/serve-2.log" 2>&1 &
    spid=$!
    python -m repro.cli replay "${serve_args[@]}" --shutdown \
        --out "$TRACE_DIR/served.json"
    wait "$spid"
    cat "$TRACE_DIR/serve-1.log" "$TRACE_DIR/serve-2.log"
    grep -q "resumed from checkpoint" "$TRACE_DIR/serve-2.log"
    python -m repro.cli replay "${serve_args[@]}" "${policy[@]}" --offline \
        --out "$TRACE_DIR/batch.json"
    cmp "$TRACE_DIR/served.json" "$TRACE_DIR/batch.json"
    # A server never killed, fed the same trace at the same cadence,
    # ends on the same base bytes: a job's id is its submission index,
    # so the restart leaves no trace in the state.
    local wdir="$TRACE_DIR/serve-state-whole"
    local whole_args=(--scenario swf-fixture --state-dir "$wdir")
    rm -rf "$wdir"
    python -m repro.cli serve "${whole_args[@]}" "${policy[@]}" \
        --checkpoint-every 8 > "$TRACE_DIR/serve-whole.log" 2>&1 &
    spid=$!
    python -m repro.cli replay "${whole_args[@]}" --shutdown \
        --out "$TRACE_DIR/served-whole.json"
    wait "$spid"
    cmp "$sdir/CHECKPOINT.json" "$wdir/CHECKPOINT.json"
    # The synthetic quick scenario at load 1.5, where greedy-elastic
    # finds the cluster exhausted on most decisions with jobs waiting:
    # served against batch there covers the heuristics' early exits.
    local qdir="$TRACE_DIR/serve-quick-state"
    local quick_args=(--load 1.5 --state-dir "$qdir")
    rm -rf "$qdir"
    python -m repro.cli serve "${quick_args[@]}" "${policy[@]}" \
        > "$TRACE_DIR/serve-quick.log" 2>&1 &
    spid=$!
    python -m repro.cli replay "${quick_args[@]}" --shutdown \
        --out "$TRACE_DIR/served-quick.json"
    wait "$spid"
    python -m repro.cli replay "${quick_args[@]}" "${policy[@]}" --offline \
        --out "$TRACE_DIR/batch-quick.json"
    cmp "$TRACE_DIR/served-quick.json" "$TRACE_DIR/batch-quick.json"
    echo "serve smoke: served metrics byte-identical to the batch" \
         "reference across a kill -9 restart and on quick at load 1.5;" \
         "the restarted server's final base equals an uninterrupted one's"
}

step_fuzz() {
    # Adversarial scenario fuzzer at a tiny budget: the stress-scenario
    # archive must be byte-identical at 1 and 2 workers; a run cut
    # after its first generation (its archive deleted, as if it died
    # before the write) and run again on its own cache must write the
    # same archive and hit that cache; and an archived `fuzz/<name>`
    # scenario must resolve through the registry for a plain sweep.
    mkdir -p "$TRACE_DIR"
    local fdir="$TRACE_DIR/fuzz"
    local fuzz_args=(--train-scenario quick --train-iterations 2
                     --population 3 --elites 1
                     --traces 1 --horizon 16 --max-ticks 100
                     --baselines edf --max-archive 3
                     --policy-dir "$POLICY_DIR")
    rm -rf "$fdir-serial" "$fdir-pool" "$fdir-cut" "$fdir-cut-cache"
    python -m repro.cli fuzz run "${fuzz_args[@]}" --generations 2 \
        --cache-dir "$CACHE_DIR" --workers 1 --out-dir "$fdir-serial"
    python -m repro.cli fuzz run "${fuzz_args[@]}" --generations 2 \
        --cache-dir "$CACHE_DIR" --workers 2 --out-dir "$fdir-pool"
    cmp "$fdir-serial/archive.json" "$fdir-pool/archive.json"
    python -m repro.cli fuzz run "${fuzz_args[@]}" --generations 1 \
        --cache-dir "$fdir-cut-cache" --out-dir "$fdir-cut"
    rm "$fdir-cut/archive.json"
    python -m repro.cli fuzz run "${fuzz_args[@]}" --generations 2 \
        --cache-dir "$fdir-cut-cache" --out-dir "$fdir-cut"
    cmp "$fdir-serial/archive.json" "$fdir-cut/archive.json"
    python -m repro.cli cache stats --cache-dir "$fdir-cut-cache" \
        > "$fdir-cut-stats.txt"
    local hits
    hits=$(sed -n 's/^lifetime: \([0-9]*\) hits.*/\1/p' \
        "$fdir-cut-stats.txt")
    if [ "${hits:-0}" -eq 0 ]; then
        echo "fuzz re-run after a cut hit nothing in its cache:" >&2
        cat "$fdir-cut-stats.txt" >&2
        exit 1
    fi
    python -m repro.cli fuzz archive --out-dir "$fdir-serial"
    local name
    name=$(python -c "import json; \
        print(json.load(open('$fdir-serial/archive.json'))\
            ['entries'][0]['name'])")
    REPRO_FUZZ_DIR="$fdir-serial" python -m repro.cli sweep \
        --scenario "$name" --schedulers edf,fifo --traces 1 \
        --max-ticks 100 --cache-dir "$CACHE_DIR"
    echo "fuzz smoke: archive byte-identical at 1 and 2 workers and" \
         "after a cut run was re-run on its cache; $name resolvable"
}

step_docs() {
    # Documentation gates: the CLI reference must cover every real
    # subcommand and flag (drift test walks the live argparse tree) and
    # every relative markdown link must resolve.
    python -m pytest tests/docs -q
}

step_parity() {
    # Scaled-down (128-unit, 10k-job) column-vs-loop kernel parity gate:
    # with the cutoff pinned to 0 (columns) and to infinity (loop path),
    # the run must be bit-identical on the same deterministic trace
    # (event log, utilization series, MetricsReport, per-job state),
    # once at a job size where no job's progress ever equals its work
    # and once where every job's does. The case is slow-marked, so the
    # quick tier-1 run skips it.
    python -m pytest -q \
        "tests/sim/test_kernel_equivalence.py::TestSoAObjectPathParity::test_large_cluster"
}

step_perfbench() {
    # The end-to-end benchmark's own tests at tiny sizes: every workload
    # runs untraced and traced through perfbench/run.py, passes its
    # oracle (served metrics equal batch_reference among them) and
    # records a span for each probe target it exercises, so a rename of
    # a probed function or a broken serve path fails here, not in the
    # next benchmark run.
    python3 -m pytest perfbench/tests -q
}

step_refusals() {
    # Unusable inputs are refused before any work: exit 2, one stderr
    # line naming the input, no traceback. A refused `cache prune` keeps
    # the cache's entry, a refused `trace convert` leaves its existing
    # --out byte-identical and creates no shard directory, and a serve
    # state dir from before job ids were submission indices (format /2)
    # is refused at startup, and `lint` refuses paths that hold no
    # Python file rather than pass having checked nothing. A `replay`
    # that finds no server ends in one line, not a traceback, and so do
    # flags the mode never reads: a served `replay` given a policy or a
    # horizon, a `--window-jobs` sweep given `--traces`. A fuzz
    # archive entry that no longer rebuilds to its name is refused where
    # it is read. A closed stdout pipe ends a command with exit 1 and
    # nothing on stderr.
    local rdir="$TRACE_DIR/refusals"
    rm -rf "$rdir" && mkdir -p "$rdir/state" "$rdir/no-python" \
        "$rdir/no-server"
    echo '{"jobs": []}' > "$rdir/object.json"
    echo '1 0 0 10 2' > "$rdir/plain.swf.gz"
    printf '{"format": "repro-serve-ch' > "$rdir/state/CHECKPOINT.json"
    expect_refusal evaluate --scenario "$rdir/missing.json"
    expect_refusal trace stats --input "$rdir/object.json"
    expect_refusal trace import --format swf --input "$rdir/plain.swf.gz" \
        --out "$rdir/plain.jsonl"
    expect_refusal sweep --workers 0
    expect_refusal sweep --schedulers nope
    expect_refusal lint "$rdir/no-python"
    expect_refusal serve --state-dir "$rdir/state"
    expect_refusal replay --state-dir "$rdir/no-server" --connect-timeout 1
    expect_refusal replay --policy nope --max-ticks 3 \
        --state-dir "$rdir/no-server" --connect-timeout 1 | grep -- --policy
    # A hand-made archive entry whose name is not the fingerprint its
    # knobs rebuild to, as a generator change leaves every old entry.
    python -c 'import sys
from repro.workload.fuzz import default_space, save_archive
space = default_space()
entry = {"name": "fuzz/0123456789ab", "space": space.payload(),
         "vector": list(space.sample(0, 0, 0)),
         "build": {"horizon": 16, "max_ticks": 100}}
save_archive({entry["name"]: entry}, root=sys.argv[1])' "$rdir/fuzz"
    REPRO_FUZZ_DIR="$rdir/fuzz" expect_refusal sweep \
        --scenario fuzz/0123456789ab
    python -c 'import sys
from repro.baselines import EDFScheduler
from repro.harness.library import get_scenario
from repro.serve import SchedulerService, trace_payloads
scenario = get_scenario("quick")
service = SchedulerService(scenario.platforms, EDFScheduler(),
                           max_ticks=scenario.max_ticks, state_dir=sys.argv[1])
service.submit(trace_payloads(scenario.trace(1000))[0], index=0)
service.checkpoint()' "$rdir/old-state"
    sed 's#"repro-serve-checkpoint/3"#"repro-serve-checkpoint/2"#' \
        "$rdir/old-state/CHECKPOINT.json" > "$rdir/old-base.json"
    grep -q '"repro-serve-checkpoint/2"' "$rdir/old-base.json"
    mv "$rdir/old-base.json" "$rdir/old-state/CHECKPOINT.json"
    expect_refusal serve --state-dir "$rdir/old-state"
    python -m repro.cli sweep --loads 0.6 --schedulers edf --traces 1 \
        --max-ticks 60 --cache-dir "$rdir/cache" > /dev/null
    expect_refusal cache prune --cache-dir "$rdir/cache" --max-mb -1
    # Through a file, not a pipe: `grep -q` exits at its match, and an
    # unbuffered writer's next line would meet a closed pipe (exit 1).
    python -m repro.cli cache stats --cache-dir "$rdir/cache" \
        > "$rdir/cache-stats.txt"
    grep -q ": 1 entries," "$rdir/cache-stats.txt"
    # A reader that leaves early ends the command quietly: exit 1 and an
    # empty stderr. `true` exits long before the CLI has imported enough
    # to write, so its first line meets a closed pipe.
    local status
    set +e
    PYTHONUNBUFFERED=1 python -m repro.cli cache stats \
        --cache-dir "$rdir/cache" 2> "$rdir/pipe.err" | true
    status=${PIPESTATUS[0]}
    set -e
    if [ "$status" -ne 1 ] || [ -s "$rdir/pipe.err" ]; then
        echo "cache stats into a closed pipe: want exit 1 and an empty" \
             "stderr, got exit $status:" >&2
        cat "$rdir/pipe.err" >&2
        exit 1
    fi
    python -m repro.cli trace import --format swf \
        --input src/repro/workload/ingest/fixtures/sample.swf \
        --out "$rdir/good.jsonl" > /dev/null
    expect_refusal sweep --scenario "$rdir/good.jsonl" --window-jobs 10 \
        --traces 5
    cp "$rdir/good.jsonl" "$rdir/good.jsonl.before"
    expect_refusal trace convert --input "$rdir/object.json" \
        --out "$rdir/good.jsonl"
    cmp "$rdir/good.jsonl" "$rdir/good.jsonl.before"
    expect_refusal trace convert --input "$rdir/object.json" \
        --out "$rdir/shards" --shard-jobs 5
    test ! -e "$rdir/shards"
    echo "refusals smoke: every probe exited 2 in one line; the cache" \
         "kept its entry, the convert --out its bytes, and no shard" \
         "directory was left behind; a closed stdout pipe exited 1 quietly"
}

step_numerics() {
    # Every frozen-digest suite under two numeric profiles. Run 1 is the
    # default environment. Run 2 forces OpenBLAS's Haswell kernels and
    # turns off the AVX-512 targets this host's numpy dispatches (none
    # on a host without AVX-512), so a digest that holds only where
    # numpy takes its AVX-512 loops fails here, not on the first CI
    # runner without them. Run 2 deselects the two trained-weight
    # digests: trained weights follow the GEMM kernel OpenBLAS picks,
    # so they hold only under the default profile until one portable
    # numeric profile computes them (ROADMAP item 10). Tier-1 and run 1
    # still check them.
    local suites=(
        tests/core/test_policy_digests.py
        tests/baselines/test_decision_digests.py
        tests/sim/test_metrics_digests.py
        tests/harness/test_grid_digests.py
        tests/harness/test_experiment_digests.py
        tests/harness/test_cell_key_digests.py
        tests/workload/test_ingest_digests.py
        tests/integration/test_bench_inputs.py
        tests/harness/test_cell_purity.py
    )
    python -m pytest -q "${suites[@]}"
    local avx512
    avx512=$(python -c 'from numpy._core._multiarray_umath import (
    __cpu_dispatch__, __cpu_features__)
print(" ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t)
               and (t == "X86_V4" or t.startswith("AVX512"))))')
    echo "numerics: run 2 with OPENBLAS_CORETYPE=Haswell," \
         "NPY_DISABLE_CPU_FEATURES='$avx512'"
    OPENBLAS_CORETYPE=Haswell NPY_DISABLE_CPU_FEATURES="$avx512" \
        python -m pytest -q "${suites[@]}" \
        --deselect "tests/core/test_policy_digests.py::test_trained_weight_digest[1]" \
        --deselect "tests/core/test_policy_digests.py::test_trained_weight_digest[4]"
}

step_nightly_leaderboard() {
    # Full-registry leaderboard at a real (still bench-sized) training
    # budget; the nightly artifact tracks policy-vs-baseline rankings
    # across every bundled scenario.
    python -m repro.cli leaderboard \
        --scenarios standard quick swf-fixture columnar-fixture \
        --agents ppo --train-iterations 40 --traces 3 --workers 2 \
        --cache-dir "$CACHE_DIR" --policy-dir "$POLICY_DIR" \
        --out leaderboard-nightly.json --out leaderboard-nightly.md
}

run_step() {
    case "$1" in
        lint)                step_lint ;;
        sweep)               step_sweep ;;
        eval)                step_eval ;;
        trace)               step_trace ;;
        stream)              step_stream ;;
        leaderboard)         step_leaderboard ;;
        serve)               step_serve ;;
        fuzz)                step_fuzz ;;
        docs)                step_docs ;;
        parity)              step_parity ;;
        perfbench)           step_perfbench ;;
        refusals)            step_refusals ;;
        numerics)            step_numerics ;;
        nightly-leaderboard) step_nightly_leaderboard ;;
        *) echo "unknown step '$1' (lint|sweep|eval|trace|stream|" \
                "leaderboard|serve|fuzz|docs|parity|perfbench|refusals|" \
                "numerics|nightly-leaderboard)" >&2
           exit 2 ;;
    esac
}

if [ "$#" -eq 0 ]; then
    set -- lint sweep eval trace stream leaderboard serve fuzz docs \
           parity perfbench refusals numerics
fi
for step in "$@"; do
    echo "=== ci_smoke: $step ==="
    run_step "$step"
done
