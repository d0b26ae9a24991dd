"""The benchmark's four workloads: ``train``, ``sweep``, ``serve``, ``archive``.

Each workload builds its inputs from the benchmark seed in ``setup``,
runs one fixed amount of user-visible work per ``run_round`` and checks
what the program returned against its oracle in ``check``, outside the
timed region. A round reports the seconds it spent in timed work, the
*items* that work completed (the unit of the ``throughput`` metric) and
the *operations* it attempted (the unit of ``error_rate``). Every round
of a run repeats the same inputs, so how many rounds fit in the time
budget -- which depends on the machine's speed -- changes how often the
inputs are measured, never which inputs are.

Every input derives from the one benchmark seed through :func:`derive`;
the program sees only the generated inputs.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

__all__ = ["WORKLOADS", "Round", "derive"]

ROOT = Path(__file__).resolve().parent.parent


def derive(seed: int, label: str) -> int:
    """A stable sub-seed for one named input of the benchmark seed."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % 1_000_000


def _bench_micro():
    """``benchmarks/bench_micro.py``, for its archive and cluster shapes."""
    spec = importlib.util.spec_from_file_location(
        "bench_micro", ROOT / "benchmarks" / "bench_micro.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass
class Round:
    """One round of a workload: timed seconds, items done, ops attempted.

    ``speed`` is the machine's speed during the round relative to the
    reference (:mod:`speed`); ``seconds * speed`` is reference seconds.
    """

    seconds: float
    items: int
    ops: int
    failed: int = 0
    messages: List[str] = field(default_factory=list)        # why it failed
    phases: Dict[str, float] = field(default_factory=dict)   # phase -> s
    counters: Dict[str, int] = field(default_factory=dict)   # layer counters
    samples: Dict[str, List[int]] = field(default_factory=dict)  # name -> ns
    speed: float = 1.0
    wall: float = 0.0


class Workload:
    name = ""
    item = ""
    SIZES: Dict[str, dict] = {}

    def __init__(self, seed: int, size: str, scratch: str) -> None:
        self.seed = seed
        self.sizes = dict(self.SIZES[size])
        self.scratch = scratch

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self) -> Round:
        """One round over every input of the run."""
        raise NotImplementedError

    def check(self) -> List[str]:
        """Oracle mismatches found after the rounds, one line each.

        Mismatches a round can see on its own (rejected submits, warm
        rows, import counts) are counted in that round instead.
        """
        raise NotImplementedError

    def report(self, rounds: List[Round]) -> Dict[str, float]:
        """This workload's own end-to-end figures, named as in the docs."""
        raise NotImplementedError

    def _tempdir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=f"{self.name}-{prefix}-",
                                dir=self.scratch)


def _rate(rounds: List[Round], items_of, phase: str) -> float:
    """Items per reference second spent in ``phase``."""
    return (sum(items_of(r) for r in rounds)
            / sum(r.phases[phase] * r.speed for r in rounds))


class Train(Workload):
    """``train_drl`` on ``quick``: the ``repro.cli train`` path.

    A round trains ``policies`` policies at a fixed iteration budget, each
    from its own training, trace and validation seeds derived from the
    benchmark seed. How fast PPO runs depends on the episodes a seed
    draws -- one policy's rate sits about 9% from another's -- so a round
    averages over many. The repeat oracle retrains the first policy after
    the rounds.
    """

    name = "train"
    item = "PPO iteration"
    SIZES = {
        "full": {"scenario": "quick", "policies": 10, "iterations": 4,
                 "num_envs": 4, "train_traces": 8, "val_traces": 3},
        "tiny": {"scenario": "quick", "policies": 2, "iterations": 2,
                 "num_envs": 2, "train_traces": 2, "val_traces": 1},
    }

    def setup(self) -> None:
        from repro.harness.library import get_scenario

        self.scenario = get_scenario(self.sizes["scenario"])
        self.digests: Dict[tuple, List[str]] = {}
        self._train((0, 0, 0), iterations=1, train_traces=1, val_traces=1,
                    num_envs=1)

    def _seeds(self, policy: int) -> tuple:
        return tuple(derive(self.seed, f"train.{policy}.{part}")
                     for part in ("seed", "traces", "val"))

    def _train(self, seeds, iterations, train_traces, val_traces, num_envs):
        from repro.harness.experiments import train_drl

        seed, trace_base, val_base = seeds
        return train_drl(
            self.scenario, iterations=iterations, seed=seed,
            n_train_traces=train_traces, train_seed_base=trace_base,
            n_val_traces=val_traces, val_seed_base=val_base,
            num_envs=num_envs)

    def _trained_digest(self, seeds) -> tuple:
        """(seconds, weight digest) of one training run at full budget."""
        from repro.nn.serialize import get_flat_params

        s = self.sizes
        t0 = time.perf_counter()
        sched = self._train(seeds, s["iterations"], s["train_traces"],
                            s["val_traces"], s["num_envs"])
        seconds = time.perf_counter() - t0
        weights = get_flat_params(sched.policy.net)
        return seconds, hashlib.sha256(weights.tobytes()).hexdigest()

    def run_round(self) -> Round:
        seconds = 0.0
        for policy in range(self.sizes["policies"]):
            seeds = self._seeds(policy)
            dt, digest = self._trained_digest(seeds)
            seconds += dt
            self.digests.setdefault(seeds, []).append(digest)
        n = self.sizes["policies"] * self.sizes["iterations"]
        return Round(seconds, items=n, ops=n, phases={"train": seconds})

    def check(self) -> List[str]:
        seeds = self._seeds(0)
        self.digests[seeds].append(self._trained_digest(seeds)[1])
        return [f"train: trained-weight digests of seeds {key} differ "
                f"across {len(found)} repeats"
                for key, found in self.digests.items() if len(set(found)) > 1]

    def report(self, rounds):
        return {"train_iters_per_s": _rate(rounds, lambda r: r.items, "train"),
                "policies_trained": sum(map(len, self.digests.values()))}


class Sweep(Workload):
    """Registry scenarios x heuristic roster x K seeds, cold then warm."""

    name = "sweep"
    item = "cell (cold or warm)"
    SCENARIOS = ("standard", "quick", "swf-fixture", "columnar-fixture")
    SIZES = {
        "full": {"traces": 4, "warm_passes": 4},
        "tiny": {"traces": 1, "warm_passes": 1},
    }

    def setup(self) -> None:
        from repro.baselines import baseline_roster
        from repro.harness.library import get_scenario
        from repro.harness.parallel import BaselineFactory

        self.scenarios = {name: get_scenario(name) for name in self.SCENARIOS}
        self.schedulers = {name: BaselineFactory(name)
                           for name in baseline_roster()}
        self.base_seed = derive(self.seed, "sweep.traces")
        self.cells = (len(self.scenarios) * len(self.schedulers)
                      * self.sizes["traces"])
        self.sizes.update(scenarios=len(self.scenarios),
                          schedulers=len(self.schedulers), cells=self.cells)
        self.cold_rows: List[str] = []
        self._sweep(None, n_traces=1, base_seed=0)

    def _sweep(self, cache, n_traces=None, base_seed=None):
        from repro.harness.sweeps import sweep_schedulers

        t0 = time.perf_counter()
        rows = sweep_schedulers(
            self.scenarios, self.schedulers,
            n_traces=n_traces or self.sizes["traces"],
            base_seed=self.base_seed if base_seed is None else base_seed,
            cache=cache, backend="serial")
        return rows, time.perf_counter() - t0

    def run_round(self) -> Round:
        from repro.harness.cache import ResultCache

        root = self._tempdir("cache")
        cache = ResultCache(root)
        cold, cold_s = self._sweep(cache)
        written = cache.size_bytes()
        cold_text = json.dumps(cold, sort_keys=True)
        self.cold_rows.append(cold_text)
        warm_s = 0.0
        messages = []
        for i in range(self.sizes["warm_passes"]):
            warm, dt = self._sweep(cache)
            warm_s += dt
            if json.dumps(warm, sort_keys=True) != cold_text:
                messages.append(
                    f"sweep: warm pass {i} rows differ from the cold rows")
        stats = dict(cache.stats)
        del cache
        shutil.rmtree(root)
        passes = 1 + self.sizes["warm_passes"]
        return Round(cold_s + warm_s, items=self.cells * passes,
                     ops=self.cells * passes, failed=len(messages),
                     messages=messages, phases={"cold": cold_s, "warm": warm_s},
                     counters={"harness.cache_hits": stats["hits"],
                               "harness.cache_misses": stats["misses"],
                               "harness.cache_evictions": stats["evictions"],
                               "harness.cache_bytes_written": written})

    def check(self) -> List[str]:
        if len(set(self.cold_rows)) > 1:
            return ["sweep: cold rows differ across repeats"]
        return []

    def report(self, rounds):
        return {
            "sweep_cold_cells_per_s": _rate(rounds, lambda r: self.cells, "cold"),
            "sweep_warm_cells_per_s": _rate(
                rounds, lambda r: self.cells * self.sizes["warm_passes"], "warm"),
        }


class Serve(Workload):
    """One closed-loop client replaying traces through ``handle``.

    A round replays each of ``traces`` traces derived from the benchmark
    seed, one service per trace: one trace's submit rate sits about 4%
    from another's, so a round averages over several.
    """

    name = "serve"
    item = "submit"
    POLICY = "greedy-elastic"
    WARM_UP_JOBS = 200
    SIZES = {
        "full": {"scenario": "standard", "horizon": 1200, "cadence": 16,
                 "traces": 3},
        "tiny": {"scenario": "standard", "horizon": 40, "cadence": 8,
                 "traces": 2},
    }

    def setup(self) -> None:
        from repro.harness.library import get_scenario, trace_payloads

        horizon = self.sizes["horizon"]
        self.scenario = get_scenario(self.sizes["scenario"], horizon=horizon,
                                     max_ticks=2 * horizon + 500)
        self.traces = [
            trace_payloads(self.scenario.trace(derive(self.seed, f"serve.{i}")))
            for i in range(self.sizes["traces"])]
        self.sizes.update(jobs=[len(t) for t in self.traces],
                          max_ticks=self.scenario.max_ticks)
        self.served: List[tuple] = []       # (trace index, drained metrics)
        warm_up = trace_payloads(self.scenario.trace(0))[:self.WARM_UP_JOBS]
        self._warm_up(warm_up)

    def _warm_up(self, payloads) -> None:
        """The submit path once over a prefix, without checkpoints."""
        from repro.serve import SchedulerService

        service = SchedulerService(self.scenario.platforms, self._policy(),
                                   max_ticks=self.scenario.max_ticks)
        for index, payload in enumerate(payloads):
            service.handle({"op": "submit", "index": index, "job": payload})
        service.handle({"op": "drain"})

    def _policy(self):
        from repro.baselines import baseline_roster

        return baseline_roster()[self.POLICY]

    def run_round(self) -> Round:
        done = Round(0.0, items=0, ops=0, phases={"serve": 0.0},
                     samples={"submit_ns": [], "decide_ns": []},
                     counters=dict.fromkeys(
                         ("serve.rejected", "serve.decisions",
                          "sim.decision_ticks", "sim.spans"), 0))
        for which in range(len(self.traces)):
            self._replay(which, done)
        done.phases["serve"] = done.seconds
        done.failed = len(done.messages)
        done.counters["serve.rejected"] = done.failed
        return done

    def _replay(self, which: int, done: Round) -> None:
        """Trace ``which``, first submit to drain, added to ``done``."""
        from repro.serve import SchedulerService
        from repro.serve.protocol import decode_line, dumps_metrics, encode_message

        payloads = self.traces[which]
        state_dir = self._tempdir("state")
        service = SchedulerService(
            self.scenario.platforms, self._policy(),
            max_ticks=self.scenario.max_ticks, state_dir=state_dir,
            checkpoint_every=self.sizes["cadence"], policy_desc=self.POLICY)
        latencies = done.samples["submit_ns"]
        clock = time.perf_counter_ns
        start = clock()
        for i, payload in enumerate(payloads):
            t0 = clock()
            frame = encode_message({"op": "submit", "index": i,
                                    "job": payload})
            reply = encode_message(service.handle(decode_line(frame)))
            latencies.append(clock() - t0)
            answer = decode_line(reply)
            if not answer.get("ok"):
                done.messages.append(f"serve: submit #{i} of trace {which} "
                                     f"rejected: {answer.get('error')}")
        drained = decode_line(encode_message(
            service.handle(decode_line(encode_message({"op": "drain"})))))
        done.seconds += (clock() - start) / 1e9
        if drained.get("ok"):
            self.served.append((which, dumps_metrics(drained["metrics"])))
        else:
            self.served.append((which, None))
            done.messages.append(f"serve: drain of trace {which} failed: "
                                 f"{drained.get('error')}")
        shutil.rmtree(state_dir)
        stats = service.stats()
        done.samples["decide_ns"].extend(service.recorder.samples_ns)
        done.items += len(payloads)
        done.ops += len(payloads)
        done.counters["serve.decisions"] += stats["latency"]["decisions"]
        done.counters["sim.decision_ticks"] += stats["kernel"]["decision_ticks"]
        done.counters["sim.spans"] += stats["kernel"]["spans"]

    def check(self) -> List[str]:
        from repro.serve import batch_reference

        out = []
        references = {}
        for which, served in self.served:
            if which not in references:
                references[which] = batch_reference(
                    self.scenario.platforms, self.traces[which],
                    self._policy(), max_ticks=self.scenario.max_ticks)
            if served is not None and served != references[which]:
                out.append(f"serve: served metrics differ from "
                           f"batch_reference on trace {which}")
        return out

    def report(self, rounds):
        from tracing import nearest_rank

        submit = [ns for r in rounds for ns in r.samples["submit_ns"]]
        decide = [ns for r in rounds for ns in r.samples["decide_ns"]]
        return {
            "serve_jobs_per_s": _rate(rounds, lambda r: r.items, "serve"),
            "serve_submit_p50_us": nearest_rank(submit, 50) / 1e3,
            "serve_submit_p99_us": nearest_rank(submit, 99) / 1e3,
            "serve_submit_samples": len(submit),
            "serve_decide_p50_us": nearest_rank(decide, 50) / 1e3,
            "serve_decide_p99_us": nearest_rank(decide, 99) / 1e3,
            "serve_decide_samples": len(decide),
            "checkpoint_cadence": self.sizes["cadence"],
        }


class Archive(Workload):
    """Streamed SWF import into shards, then windowed EDF evaluation."""

    name = "archive"
    item = "job (imported and evaluated)"
    WARM_UP_ROWS = 1000
    SIZES = {
        "full": {"rows": 6000, "scale": 64, "window_jobs": 1000,
                 "jobs_per_shard": 2000, "target_load": 0.8,
                 "tick_seconds": 60.0},
        "tiny": {"rows": 300, "scale": 64, "window_jobs": 100,
                 "jobs_per_shard": 100, "target_load": 0.8,
                 "tick_seconds": 60.0},
    }

    def setup(self) -> None:
        from repro.harness.parallel import BaselineFactory
        from repro.workload.ingest import IngestConfig

        bench = _bench_micro()
        s = self.sizes
        self.platforms = bench.large_cluster_platforms(s["scale"])
        self.swf = os.path.join(self.scratch, "archive.swf")
        bench.write_synthetic_swf(self.swf, s["rows"],
                                  seed=derive(self.seed, "archive.swf"))
        self.config = IngestConfig(tick_seconds=s["tick_seconds"],
                                   target_load=s["target_load"],
                                   seed=derive(self.seed, "archive.ingest"))
        self.schedulers = {"edf": BaselineFactory("edf")}
        self.trace_seed = derive(self.seed, "archive.eval")
        self.sizes.update(units=sum(p.capacity for p in self.platforms))
        self.merged: List[str] = []
        warm_up = os.path.join(self.scratch, "warm-up.swf")
        bench.write_synthetic_swf(warm_up, self.WARM_UP_ROWS, seed=0)
        self._import_and_evaluate(warm_up)

    def _import_and_evaluate(self, swf: str):
        """Import ``swf`` into shards, evaluate EDF over its windows."""
        from repro.harness.sweeps import evaluate_windowed
        from repro.workload.ingest import IngestStats, stream_normalize_swf
        from repro.workload.traces import save_trace_shards

        s = self.sizes
        shards = os.path.join(self._tempdir("shards"), "trace")
        stats = IngestStats()
        t0 = time.perf_counter()
        manifest = save_trace_shards(
            stream_normalize_swf(swf, self.config, self.platforms,
                                 stats=stats),
            shards, jobs_per_shard=s["jobs_per_shard"])
        t1 = time.perf_counter()
        reports = evaluate_windowed(shards, self.schedulers, s["window_jobs"],
                                    platforms=self.platforms, engine="event",
                                    trace_seed=self.trace_seed,
                                    backend="serial")
        t2 = time.perf_counter()
        shutil.rmtree(os.path.dirname(shards))
        return manifest["n_jobs"], stats, reports["edf"], t1 - t0, t2 - t1

    def run_round(self) -> Round:
        from repro.serve.protocol import dumps_metrics

        jobs, stats, merged, import_s, eval_s = \
            self._import_and_evaluate(self.swf)
        self.merged.append(dumps_metrics(merged))
        messages = []
        if jobs != stats.n_selected:
            messages.append(f"archive: imported {jobs} jobs but IngestStats "
                            f"kept {stats.n_selected}")
        windows = -(-jobs // self.sizes["window_jobs"])
        self.sizes.update(jobs=jobs, windows=windows)
        return Round(import_s + eval_s, items=jobs, ops=windows,
                     failed=len(messages), messages=messages,
                     phases={"import": import_s, "eval": eval_s},
                     counters={"ingest.records": stats.n_records,
                               "ingest.jobs": stats.n_selected,
                               "ingest.unusable": stats.n_unusable})

    def check(self) -> List[str]:
        if len(set(self.merged)) > 1:
            return ["archive: merged rows differ across repeats"]
        return []

    def report(self, rounds):
        return {
            "import_jobs_per_s": _rate(rounds, lambda r: r.items, "import"),
            "window_eval_jobs_per_s": _rate(rounds, lambda r: r.items, "eval"),
        }


WORKLOADS = {w.name: w for w in (Train, Sweep, Serve, Archive)}
