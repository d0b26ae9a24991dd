"""Command-line interface: list/run experiments, train and save policies.

Usage::

    python -m repro.cli list
    python -m repro.cli run e02_main_table --out results.json
    python -m repro.cli run e03_load_sweep --csv e03.csv --workers 4
    python -m repro.cli sweep --loads 0.5 0.8 --workers 4
    python -m repro.cli sweep --scenario swf-fixture --workers 2
    python -m repro.cli train --load 0.7 --iterations 60 --out policy.npz
    python -m repro.cli evaluate --policy policy.npz --load 0.7 --traces 4
    python -m repro.cli trace import --format swf --input log.swf.gz \
        --out trace.json.gz --target-load 0.8
    python -m repro.cli trace import --preset kit-fh2 --input fh2.swf.gz \
        --out fh2.json.gz
    python -m repro.cli trace import --stream --format swf \
        --input huge.swf.gz --out trace.jsonl.gz --target-load 0.8
    python -m repro.cli trace stats --input trace.json.gz
    python -m repro.cli scenarios
    python -m repro.cli fuzz run --train-scenario swf-fixture --workers 4
    python -m repro.cli fuzz archive
    python -m repro.cli sweep --scenario fuzz/0123456789ab
    python -m repro.cli leaderboard --scenarios quick swf-fixture \
        --agents ppo --workers 4 --out leaderboard.json --out leaderboard.md
    python -m repro.cli sweep --scenario shards/ --window-jobs 5000 --workers 2
    python -m repro.cli cache stats

``leaderboard`` trains each requested agent once per named scenario
(policies persist in a content-addressed store, ``.repro-policies/`` by
default, so re-runs retrain nothing), evaluates every trained policy and
heuristic baseline on every scenario, and ranks them — the
cross-scenario generalization matrix of :mod:`repro.harness.leaderboard`.

``sweep`` runs its (scenario x scheduler x trace) evaluation cells in
process at ``--workers 1`` and over a spawn-safe process pool above it,
merging results in deterministic cell order, so the artifacts are
byte-identical at every worker count. It memoizes each cell in a
persistent on-disk cache (``.repro-cache/`` by default), so repeated
sweeps only pay for cells whose inputs changed. ``--window-jobs N``
evaluates a trace container as contiguous windows of at most ``N`` jobs
(independent cells, exact merge), bounding peak memory however large
the archive.

``trace`` ingests real cluster archives (Standard Workload Format logs
or columnar CSV tables, gzip-aware) into the repo's trace JSON via the
:mod:`repro.workload.ingest` pipeline; ``--scenario`` on ``sweep`` /
``evaluate`` / ``train`` then selects a named scenario from the
registry (:mod:`repro.harness.library`) — or an imported trace file
directly.

``fuzz`` runs the adversarial scenario search of
:mod:`repro.workload.fuzz`: it hunts the synthetic generator's knob
space for settings where a trained policy loses worst to the best
heuristic baseline, and archives the survivors as named
``fuzz/<fingerprint>`` stress scenarios that every ``--scenario`` flag
accepts. ``trace import --preset`` resolves the full ingest
configuration for a well-known public archive (KIT FH2, SDSC SP2,
Google 2019) and fits arrival/speedup structure from the records.

``run`` accepts any registered experiment name (the ``eXX_*`` functions
of :mod:`repro.harness.experiments`); sizes default to the bench-scale
parameters so a laptop regenerates every table/figure in minutes.
"""

from __future__ import annotations

import argparse
import inspect
import math
import os
import sys
from typing import Callable, Dict, List, NoReturn, Optional

import numpy as np

from repro.util.errors import InputError

__all__ = ["experiment_registry", "main"]

#: The trainable algorithms, ``tuple(repro.core.training.ALGOS)`` (a
#: tier-1 test holds them equal). Spelled here so that building the
#: parser does not import the learning stack.
TRAINABLE = ("reinforce", "a2c", "ppo")


def experiment_registry() -> Dict[str, Callable]:
    """Name -> callable for every ``eXX_*`` experiment entry point."""
    from repro.harness import experiments as E

    registry: Dict[str, Callable] = {}
    for name in E.__all__:
        if name[0] == "e" and name[1:3].isdigit():
            registry[name] = getattr(E, name)
    return registry


def _cmd_list(_args: argparse.Namespace) -> int:
    registry = experiment_registry()
    width = max(len(n) for n in registry)
    for name, fn in sorted(registry.items()):
        doc = (inspect.getdoc(fn) or "").splitlines()
        summary = doc[0] if doc else ""
        print(f"{name:<{width}}  {summary}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    registry = experiment_registry()
    if args.experiment not in registry:
        raise InputError(f"unknown experiment {args.experiment!r}; run `list` "
                         "to see choices")
    fn = registry[args.experiment]
    params = inspect.signature(fn).parameters
    kwargs = {"workers": args.workers}
    if args.seed is not None:
        if "seed" not in params:
            raise InputError(f"{args.experiment} does not accept --seed")
        kwargs["seed"] = args.seed
    if args.scenario:
        if "scenario" not in params:
            raise InputError(f"{args.experiment} does not accept --scenario")
        kwargs["scenario"] = _scenario(args.scenario)
    out = fn(**kwargs)
    print(out.text)
    print(f"\n[{out.name}] elapsed: {out.elapsed_s:.1f}s")
    if args.out:
        from repro.harness.results import ResultStore

        store = ResultStore()
        store.add_rows(out.name, out.rows)
        store.save(args.out)
        print(f"rows saved to {args.out}")
    if args.csv:
        from repro.harness.tables import rows_to_csv
        from repro.util.io import atomic_write_text

        atomic_write_text(args.csv, rows_to_csv(out.rows))
        print(f"csv saved to {args.csv}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.harness.cache import DEFAULT_CACHE_DIR, ResultCache
    from repro.harness.experiments import quick_scenario
    from repro.harness.parallel import BaselineFactory
    from repro.harness.sweeps import sweep_schedulers
    from repro.harness.tables import format_table

    schedulers = {name: BaselineFactory(name) for name in args.schedulers}
    if not schedulers:
        raise InputError("--schedulers: no schedulers given")
    if args.window_jobs is not None:
        if not args.scenario:
            raise InputError("--window-jobs requires --scenario trace "
                             "container path(s)")
        missing = [p for p in args.scenario if not os.path.exists(p)]
        if missing:
            raise InputError(f"trace container(s) not found: "
                             f"{', '.join(missing)}")
    elif args.scenario:
        scenarios = {
            name: _scenario(name).with_engine(args.engine)
            for name in args.scenario
        }
    else:
        scenarios = {
            f"load-{load:g}": quick_scenario(load=load).with_engine(args.engine)
            for load in args.loads
        }
    cache = None
    if not args.no_cache:
        max_bytes = None
        if args.cache_max_mb is not None:
            max_bytes = int(args.cache_max_mb * 1024 * 1024)
        cache = ResultCache(args.cache_dir or DEFAULT_CACHE_DIR,
                            max_bytes=max_bytes)
    if args.window_jobs is not None:
        from repro.harness.sweeps import sweep_windowed

        rows = []
        for path in args.scenario:
            rows.extend(sweep_windowed(
                path, schedulers, args.window_jobs, engine=args.engine,
                max_ticks=args.max_ticks, trace_seed=args.base_seed,
                workers=args.workers, cache=cache,
            ))
    else:
        rows = sweep_schedulers(
            scenarios, schedulers, n_traces=args.traces,
            base_seed=args.base_seed, max_ticks=args.max_ticks,
            workers=args.workers, cache=cache,
        )
    print(format_table(rows, title=f"sweep ({args.workers} workers)"))
    if cache is not None:
        evicted = f", {cache.stats['evictions']} evicted" \
            if cache.stats["evictions"] else ""
        print(f"cache: {cache.stats['hits']} hits, "
              f"{cache.stats['misses']} misses{evicted} -> {cache.root}")
    if args.out:
        from repro.harness.results import ResultStore

        store = ResultStore()
        store.add_rows("sweep", rows)
        store.save(args.out)
        print(f"rows saved to {args.out}")
    return 0


def _cmd_leaderboard(args: argparse.Namespace) -> int:
    from repro.harness.cache import DEFAULT_CACHE_DIR, ResultCache
    from repro.harness.leaderboard import (
        DEFAULT_POLICY_DIR,
        AgentSpec,
        PolicyStore,
        build_leaderboard,
    )

    specs = [
        AgentSpec(algo=name.strip(), iterations=args.train_iterations,
                  seed=args.seed, warm_start=not args.no_warm_start,
                  n_train_traces=args.train_traces,
                  n_val_traces=args.val_traces)
        for name in args.agents.split(",") if name.strip()
    ]
    # Reject artifact-path typos up front: training can take hours and
    # must not complete before a bad --out suffix surfaces.
    for path in args.out or []:
        if not path.endswith((".json", ".md")):
            raise InputError(f"--out must end in .json or .md, got {path!r}")
    scenarios = {name: _scenario(name) for name in args.scenarios}
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or DEFAULT_CACHE_DIR)
    store = PolicyStore(args.policy_dir or DEFAULT_POLICY_DIR)
    result = build_leaderboard(
        scenarios, agents=specs, baselines=args.baselines,
        n_traces=args.traces, base_seed=args.base_seed, workers=args.workers,
        cache=cache, store=store, seed=args.seed,
    )
    print(result.to_text())
    print(f"\npolicy store: {store.stats['trained']} trained, "
          f"{store.stats['hits']} reused -> {store.root}")
    if cache is not None:
        print(f"result cache: {cache.stats['hits']} hits, "
              f"{cache.stats['misses']} misses -> {cache.root}")
    from repro.util.io import atomic_write_text

    for path in args.out or []:
        text = result.to_markdown() if path.endswith(".md") \
            else result.to_json()
        atomic_write_text(path, text)
        print(f"leaderboard -> {path}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.harness.cache import DEFAULT_CACHE_DIR, ResultCache

    cache = ResultCache(args.cache_dir or DEFAULT_CACHE_DIR)
    if args.cache_command == "stats":
        entries = len(cache)
        size_mb = cache.size_bytes() / (1024 * 1024)
        totals = cache.counters()
        lookups = totals["hits"] + totals["misses"]
        rate = f"{totals['hits'] / lookups:.1%}" if lookups else "n/a"
        print(f"cache {cache.root}: {entries} entries, {size_mb:.2f} MiB")
        print(f"lifetime: {totals['hits']} hits, {totals['misses']} misses "
              f"(hit rate {rate}), {totals['evictions']} evictions")
        return 0
    # prune
    before = len(cache)
    cache.prune(int(args.max_mb * 1024 * 1024))
    cache.flush_counters()
    size_mb = cache.size_bytes() / (1024 * 1024)
    print(f"pruned {before - len(cache)} of {before} entries -> "
          f"{len(cache)} remain, {size_mb:.2f} MiB <= {args.max_mb:g} MiB")
    return 0


def _scenario(name: str):
    """The scenario ``name`` names: a registry entry, an archived fuzz
    scenario or a trace container. An unknown name is an
    :class:`InputError` with ``get_scenario``'s message."""
    from repro.harness.library import get_scenario

    try:
        return get_scenario(name)
    except KeyError as exc:
        raise InputError(exc.args[0]) from None


def _resolve_scenario(args: argparse.Namespace):
    """The scenario a train/evaluate/serve/replay command operates on.

    ``--scenario`` selects a registry name (or imported trace file);
    otherwise the synthetic quick scenario at ``--load`` is used.
    """
    from repro.harness.experiments import quick_scenario

    if getattr(args, "scenario", None):
        return _scenario(args.scenario).with_engine(args.engine)
    return quick_scenario(load=args.load).with_engine(args.engine)


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.harness.experiments import train_drl

    scenario = _resolve_scenario(args)
    sched = train_drl(scenario, iterations=args.iterations, seed=args.seed,
                      algo=args.algo, num_envs=args.num_envs)
    sched.save(args.out)
    what = args.scenario if args.scenario else f"load={args.load}"
    print(f"trained {args.algo} policy ({what}, "
          f"{args.iterations} iters, {args.num_envs} envs, "
          f"{args.engine} engine) -> {args.out}")
    return 0


def _load_policy(scenario, path: Optional[str] = None,
                 key: Optional[str] = None, policy_dir: Optional[str] = None):
    """The trained policy a command runs on ``scenario``, rebuilt as trained.

    It comes from the policy file at ``path`` (``train --out``) or the
    one stored under ``key`` in the policy store at ``policy_dir``. A
    missing or unreadable file, a file that is not a policy file, an
    unknown key, or a policy trained for other platform names than the
    scenario's is an :class:`InputError`.
    """
    from repro.core import DRLScheduler

    if key is not None:
        from repro.harness.leaderboard import DEFAULT_POLICY_DIR, PolicyStore

        store = PolicyStore(policy_dir or DEFAULT_POLICY_DIR)
        if key not in store:
            raise InputError(f"no stored policy for key {key!r} in "
                             f"{store.root}")
        path = store.path(key)
    policy = DRLScheduler.load(path)
    platforms = [p.name for p in scenario.platforms]
    if sorted(policy.encoder.platform_names) != sorted(platforms):
        raise InputError(f"policy {path} was trained for platforms "
                         f"{policy.encoder.platform_names}, the scenario "
                         f"has {platforms}")
    return policy


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.baselines import baseline_roster
    from repro.harness.parallel import FixedScheduler, evaluate_grid
    from repro.harness.tables import format_table

    scenario = _resolve_scenario(args)
    schedulers = {name: FixedScheduler(sched)
                  for name, sched in baseline_roster().items()}
    if args.policy:
        schedulers["drl"] = FixedScheduler(
            _load_policy(scenario, path=args.policy))
    grid = evaluate_grid({"evaluate": scenario}, schedulers,
                         n_traces=args.traces, workers=args.workers)
    rows: List[dict] = []
    for (_, name), reports in grid.items():
        rows.append({
            "scheduler": name,
            "miss_rate": float(np.mean([r.miss_rate for r in reports])),
            "mean_slowdown": float(np.mean([r.mean_slowdown for r in reports])),
            "mean_utilization": float(np.mean([r.mean_utilization for r in reports])),
        })
    rows.sort(key=lambda r: r["miss_rate"])
    what = args.scenario if args.scenario else f"load={args.load}"
    print(format_table(rows, title=f"evaluation ({what})"))
    return 0


# --- online serving -------------------------------------------------------

def _serve_policy(args: argparse.Namespace, scenario):
    """Resolve the serving policy and its human-readable description.

    Three sources, in precedence order: ``--policy-npz`` (a policy file
    saved by ``repro train``), ``--policy-store`` (a content-addressed
    key in the leaderboard :class:`PolicyStore`), and ``--policy`` (a
    baseline name from the heuristic roster).
    """
    from repro.baselines import baseline_roster

    if getattr(args, "policy_npz", None):
        return (_load_policy(scenario, path=args.policy_npz),
                f"npz:{args.policy_npz}")
    if getattr(args, "policy_store", None):
        return (_load_policy(scenario, key=args.policy_store,
                             policy_dir=args.policy_dir),
                f"store:{args.policy_store[:12]}")
    roster = dict(baseline_roster())
    if args.policy not in roster:
        raise InputError(f"unknown baseline {args.policy!r}; choose from "
                         f"{sorted(roster)}")
    return roster[args.policy], args.policy


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import SchedulerService, run_server

    scenario = _resolve_scenario(args)
    policy, desc = _serve_policy(args, scenario)
    max_ticks = (args.max_ticks if args.max_ticks is not None
                 else scenario.max_ticks)
    service = SchedulerService(
        scenario.platforms, policy,
        max_ticks=max_ticks,
        drop_on_miss=args.drop_on_miss,
        state_dir=args.state_dir or None,
        checkpoint_every=args.checkpoint_every,
        policy_desc=desc,
    )
    return run_server(service, host=args.host, port=args.port,
                      http_port=args.http_port)


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.serve import (
        ReplayClient,
        batch_reference,
        dumps_metrics,
        trace_payloads,
    )

    scenario = _resolve_scenario(args)
    payloads = trace_payloads(scenario.trace(args.trace_seed))
    max_ticks = (args.max_ticks if args.max_ticks is not None
                 else scenario.max_ticks)

    if args.offline:
        # Batch half of the serving invariant: same payloads, same
        # canonical bytes, no server involved.
        policy, desc = _serve_policy(args, scenario)
        text = batch_reference(scenario.platforms, payloads, policy,
                               max_ticks=max_ticks,
                               drop_on_miss=args.drop_on_miss,
                               engine=args.engine)
        if args.out:
            from repro.util.io import atomic_write_text

            atomic_write_text(args.out, text)
            print(f"offline reference ({desc}, {len(payloads)} jobs) "
                  f"-> {args.out}")
        else:
            print(text, end="")
        return 0

    client = ReplayClient(
        state_dir=args.state_dir or None, host=args.host, port=args.port,
        tick_seconds=args.tick_seconds, compression=args.compression,
        connect_timeout=args.connect_timeout,
    )
    with client:
        metrics = client.pump(
            payloads,
            stop_after=args.stop_after,
            drain=not args.no_drain,
            shutdown=args.shutdown,
            log=lambda m: print(f"replay: {m}", flush=True),
        )
    if metrics is None:
        print(f"replay: stopped mid-stream after {client.submitted} "
              f"of {len(payloads)} submissions")
        return 0
    text = dumps_metrics(metrics)
    if args.out:
        from repro.util.io import atomic_write_text

        atomic_write_text(args.out, text)
        print(f"replayed {len(payloads)} jobs "
              f"({client.decisions} decisions) -> {args.out}")
    else:
        print(text, end="")
    return 0


# --- trace ingestion ------------------------------------------------------

def _ingest_config(args: argparse.Namespace):
    """Resolve the import's :class:`IngestConfig` through the preset chain.

    Precedence (lowest to highest): built-in ``IngestConfig`` defaults,
    the ``--preset`` field table, explicit CLI flags. Flags default to
    ``None`` ("not given"), so a preset's values survive unless the user
    actually typed the flag.
    """
    from repro.workload.ingest.presets import resolve_ingest

    overrides = {
        key: value
        for key, value in (
            ("tick_seconds", args.tick_seconds),
            ("max_jobs", args.max_jobs),
            ("subsample", args.subsample),
            ("target_load", args.target_load),
            ("max_parallelism_cap", args.max_parallelism),
            ("time_critical_fraction", args.tc_fraction),
            ("accel_fraction", args.accel_fraction),
            ("seed", args.seed),
        )
        if value is not None
    }
    if args.window is not None:
        overrides["window"] = tuple(args.window)
    return resolve_ingest(getattr(args, "preset", None), overrides=overrides)


def _columnar_spec(args: argparse.Namespace):
    import dataclasses

    from repro.workload.ingest import ALIBABA_LIKE_SPEC, GOOGLE_LIKE_SPEC, ColumnarSpec

    presets = {"alibaba": ALIBABA_LIKE_SPEC, "google": GOOGLE_LIKE_SPEC}
    spec_name = args.spec or "alibaba"
    # Explicitly-passed layout flags override the preset; None/False means
    # "not given" (argparse defaults), so presets keep their own values.
    overrides = {}
    if args.delimiter is not None:
        overrides["delimiter"] = args.delimiter
    if args.time_unit is not None:
        overrides["time_unit"] = args.time_unit
    if args.end_time_column is not None:
        overrides["end_time_column"] = args.end_time_column
    if args.no_header:
        overrides["has_header"] = False
    if args.columns:
        pairs = []
        for item in args.columns.split(","):
            field_name, _, column = item.partition("=")
            if not column:
                raise InputError(f"--columns entries must look like "
                                 f"field=column, got {item!r}")
            pairs.append((field_name.strip(), column.strip()))
        return ColumnarSpec(columns=tuple(pairs), **overrides)
    return dataclasses.replace(presets[spec_name], **overrides)


def _parse_archive(args: argparse.Namespace):
    from repro.workload.ingest import parse_columnar, parse_swf

    if args.format == "swf":
        return parse_swf(args.input)
    return parse_columnar(args.input, _columnar_spec(args))


def _platforms_for_import(args: argparse.Namespace, preset=None):
    from repro.sim.platform import Platform

    cpu = args.cpu_capacity if args.cpu_capacity is not None \
        else (preset.cpu_capacity if preset is not None else 24)
    gpu = args.gpu_capacity if args.gpu_capacity is not None \
        else (preset.gpu_capacity if preset is not None else 8)
    platforms = [Platform("cpu", cpu, 1.0)]
    if gpu > 0:
        platforms.append(Platform("gpu", gpu, 1.0))
    return platforms


def _apply_preset(args: argparse.Namespace):
    """Resolve ``--preset`` into format/spec defaults; returns the preset.

    Explicit ``--format`` / ``--spec`` flags win over the preset's
    values; without either a preset or ``--format``, the import cannot
    proceed (argparse can't express the either-or, so it is checked
    here).
    """
    from repro.workload.ingest.presets import get_preset

    preset = get_preset(args.preset) if getattr(args, "preset", None) else None
    if args.format is None:
        if preset is None:
            raise InputError("trace import needs --format (swf|columnar) or "
                             "--preset")
        args.format = preset.format
    if preset is not None and args.spec is None and preset.spec is not None:
        args.spec = preset.spec
    return preset


def _preset_fit_report(records, config):
    """Fitted arrival-process / Amdahl-sigma lines for a preset import.

    Returns ``(lines, sigma_range)``: the human-readable fit summary and
    the narrowed ``sigma_range`` when multi-width resubmission families
    exist (``None`` otherwise).
    """
    from repro.workload.ingest.presets import (
        fit_arrival_process,
        fit_family_sigmas,
        fitted_sigma_range,
    )

    lines = []
    submits = sorted(r.submit_time for r in records if r.usable())
    if len(submits) >= 2 and submits[-1] > submits[0]:
        lines.append("  fitted arrivals: "
                     f"{fit_arrival_process(submits, config.tick_seconds)}")
    families = fit_family_sigmas(records)
    sigma_range = None
    if families:
        sigma_range = fitted_sigma_range(records, default=config.sigma_range)
        lines.append(f"  fitted Amdahl sigma: {len(families)} multi-width "
                     f"families -> sigma_range {sigma_range}")
    else:
        lines.append("  fitted Amdahl sigma: no multi-width resubmission "
                     f"families; keeping sigma_range {config.sigma_range}")
    return lines, sigma_range


def _clamp_note(stats) -> str:
    """One-line clamp/skip summary of an :class:`IngestStats`."""
    return (f"  selection: {stats.n_selected} kept of {stats.n_records} "
            f"({stats.n_unusable} unusable, "
            f"{stats.n_status_filtered} status-filtered, "
            f"{stats.n_windowed_out} outside window, "
            f"{stats.n_subsampled_out} subsampled out, "
            f"{stats.n_over_cap} over cap); "
            f"clamped: {stats.n_clamped_duration} durations, "
            f"{stats.n_clamped_work} works")


def _cmd_trace_import(args: argparse.Namespace) -> int:
    from repro.workload.ingest import (
        IngestStats,
        UnsortedStreamError,
        measured_load,
        normalize_records,
        stream_normalize_columnar,
        stream_normalize_swf,
    )
    from repro.workload.traces import save_trace, save_trace_shards

    preset = _apply_preset(args)
    platforms = _platforms_for_import(args, preset)
    config = _ingest_config(args)
    stats = IngestStats()

    def write(jobs) -> int:
        """Persist ``jobs`` (list or stream) to ``--out``; returns count."""
        if args.shard_jobs:
            manifest = save_trace_shards(jobs, args.out,
                                         jobs_per_shard=args.shard_jobs)
            return manifest["n_jobs"]
        return save_trace(jobs, args.out)

    if args.stream:
        # Two-pass streaming normalization: records are never
        # materialized, so archive-scale logs import in bounded memory.
        # Output is byte-identical to the materialized path. Pass 1 runs
        # here, before ``write`` opens --out, so an archive out of submit
        # order or without a usable job is refused with nothing written.
        try:
            if args.format == "swf":
                jobs_iter = stream_normalize_swf(args.input, config,
                                                 platforms, stats=stats)
            else:
                jobs_iter = stream_normalize_columnar(
                    args.input, _columnar_spec(args), config, platforms,
                    stats=stats)
        except UnsortedStreamError as exc:
            raise InputError(
                f"{args.input} is not in submit order: job {exc.job_id} "
                f"(submit {exc.submit_time}) follows a later record; import "
                "without --stream, which sorts the records in memory") \
                from None
        if not stats.n_selected:
            raise InputError(f"no usable jobs in {args.input!r} after "
                             f"filtering ({stats.n_records} records scanned)")
        if not args.shard_jobs and args.out.endswith((".json", ".json.gz")):
            print("note: --out *.json holds one JSON array, so the payload "
                  "is materialized; use *.jsonl[.gz] or --shard-jobs for "
                  "bounded memory", file=sys.stderr)
        if preset is not None:
            print(f"note: --stream skips the --preset arrival/sigma fits "
                  "(they need the materialized record set)", file=sys.stderr)
        n_jobs = write(jobs_iter)
        print(f"imported {n_jobs} jobs from {args.input} "
              f"(streamed, {config.tick_seconds:g}s/tick)")
        print(_clamp_note(stats))
        print(f"trace -> {args.out}")
        return 0

    meta, records = _parse_archive(args)
    fit_lines: List[str] = []
    if preset is not None:
        # The preset fits: arrival-process shape from the submit series,
        # per-family Amdahl sigma from multi-width resubmissions (the
        # narrowed range feeds the normalization below).
        fit_lines, sigma_range = _preset_fit_report(records, config)
        if sigma_range is not None:
            import dataclasses

            config = dataclasses.replace(config, sigma_range=sigma_range)
    jobs = normalize_records(records, config, platforms, stats=stats)
    if not jobs:
        raise InputError(f"no usable jobs in {args.input!r} after filtering "
                         f"({meta.n_records} records parsed, "
                         f"{meta.n_skipped} skipped)")
    n_jobs = write(jobs)
    load = measured_load(jobs, platforms)
    horizon = max(j.arrival_time for j in jobs) + 1
    n_tc = sum(1 for j in jobs if j.job_class.startswith("tc"))
    preset_note = f"; preset {args.preset}" if preset is not None else ""
    print(f"imported {n_jobs} jobs from {args.input} ({meta.format}; "
          f"{meta.n_skipped} lines skipped{preset_note})")
    print(f"  horizon: {horizon} ticks ({config.tick_seconds:g}s/tick), "
          f"offered load: {load:.3f}, "
          f"classes: {n_tc} time-critical / {len(jobs) - n_tc} best-effort")
    for line in fit_lines:
        print(line)
    print(_clamp_note(stats))
    print(f"trace -> {args.out}")
    return 0


def _cmd_trace_stats(args: argparse.Namespace) -> int:
    from repro.harness.tables import format_table
    from repro.workload.traces import looks_like_trace_path

    if args.format == "json" or looks_like_trace_path(args.input):
        from collections import Counter

        from repro.workload.traces import load_trace

        jobs = load_trace(args.input)
        if not jobs:
            print("trace is empty")
            return 0
        horizon = max(j.arrival_time for j in jobs) + 1
        classes = Counter(j.job_class for j in jobs)
        works = sorted(j.work for j in jobs)
        rows = [{
            "jobs": len(jobs),
            "horizon_ticks": horizon,
            "classes": " ".join(f"{k}:{v}" for k, v in sorted(classes.items())),
            "work_p50": round(works[len(works) // 2], 2),
            "work_max": round(works[-1], 2),
            "max_k_max": max(j.max_parallelism for j in jobs),
        }]
        print(format_table(rows, title=f"trace {args.input}"))
        return 0

    from repro.workload.ingest import IngestConfig, count_clamps, record_stats

    meta, records = _parse_archive(args)
    stats = record_stats(records)
    # Previously-silent drops and floors, surfaced: how many records a
    # normalization at --tick-seconds would skip or clamp.
    n_dur, n_work = count_clamps(
        records, IngestConfig(tick_seconds=args.tick_seconds))
    stats["clamped_duration"] = n_dur
    stats["clamped_work"] = n_work
    rows = [{k: (round(v, 2) if isinstance(v, float) else v)
             for k, v in stats.items()}]
    print(format_table(rows, title=f"{meta.format} archive {args.input} "
                                   f"({meta.n_skipped} lines skipped, "
                                   f"{meta.n_unusable} unusable; clamps at "
                                   f"{args.tick_seconds:g}s/tick)"))
    return 0


def _cmd_trace_convert(args: argparse.Namespace) -> int:
    from repro.workload.traces import iter_trace, save_trace, save_trace_shards

    # Stream job-by-job: converting between containers (.json <-> .jsonl
    # <-> shards) never materializes the trace, so archive-scale traces
    # re-encode in bounded memory (except into .json, which is one array).
    jobs = iter_trace(args.input)
    if args.shard_jobs:
        n = save_trace_shards(jobs, args.out,
                              jobs_per_shard=args.shard_jobs)["n_jobs"]
    else:
        n = save_trace(jobs, args.out)
    print(f"converted {n} jobs: {args.input} -> {args.out}")
    return 0


# --- determinism-contract linter -----------------------------------------

def _cmd_lint(args: argparse.Namespace) -> int:
    from repro import lint as L

    if args.list_rules:
        registry = L.rule_registry()
        width = max(len(r) for r in registry)
        for rule_id, rule in registry.items():
            print(f"{rule_id:<{width}}  {rule.description}")
        return 0
    result = L.lint_paths(args.paths, L.resolve_rules(args.rules))
    findings = result.all_findings
    print(L.render_text(findings, result.n_files, result.n_waived))
    return 1 if findings else 0


def _cmd_scenarios(_args: argparse.Namespace) -> int:
    from repro.harness.library import list_scenarios
    from repro.workload.fuzz.archive import archived_names, load_archive

    entries = dict(list_scenarios())
    names = archived_names()
    fuzz = load_archive() if names else {}
    for name in names:
        entry = fuzz.get(name, {})
        gap = entry.get("gap")
        desc = "fuzz-archive stress scenario"
        if isinstance(gap, (int, float)):
            desc += (f" (gap {gap:+.4f} vs "
                     f"{entry.get('best_baseline', '?')})")
        entries[name] = desc
    width = max(len(n) for n in entries)
    for name, desc in entries.items():
        print(f"{name:<{width}}  {desc}")
    return 0


# --- adversarial scenario fuzzing ----------------------------------------

def _fuzz_policy(args: argparse.Namespace):
    """Resolve the policy under attack -> (factory, label, fingerprint).

    ``--policy-store KEY`` attacks an existing store entry; otherwise a
    policy is trained (or reused — the store is content-addressed) on
    ``--train-scenario`` with the requested budget. Either way the
    search evaluates the *stored bytes* through a picklable
    :class:`StoredPolicyFactory`, so workers and re-runs see
    bit-identical weights.
    """
    from repro.harness.leaderboard import (
        DEFAULT_POLICY_DIR,
        AgentSpec,
        PolicyStore,
        StoredPolicyFactory,
    )

    store = PolicyStore(args.policy_dir or DEFAULT_POLICY_DIR)
    if args.policy_store:
        key = args.policy_store
        if key not in store:
            raise InputError(f"policy {key[:12]}... not in store "
                             f"{store.root}; train one with `repro.cli "
                             "leaderboard` or drop --policy-store")
        label = f"store:{key[:12]}"
    else:
        scenario = _scenario(args.train_scenario)
        spec = AgentSpec(algo=args.agent, iterations=args.train_iterations,
                         seed=args.train_seed)
        key = store.get_or_train(args.train_scenario, scenario, spec)
        label = f"{args.agent}@{args.train_scenario}"
    return StoredPolicyFactory(str(store.root), key), label, key


def _cmd_fuzz_run(args: argparse.Namespace) -> int:
    from repro.harness.cache import DEFAULT_CACHE_DIR, ResultCache
    from repro.workload.fuzz import FuzzConfig, run_fuzz
    from repro.workload.fuzz.archive import fuzz_dir

    config = FuzzConfig(
        population=args.population, generations=args.generations,
        elites=args.elites, mutation_scale=args.mutation_scale,
        crossover_prob=args.crossover_prob, n_traces=args.traces,
        base_seed=args.base_seed, seed=args.search_seed,
        metric=args.metric, baselines=tuple(args.baselines),
        max_archive=args.max_archive, min_gap=args.min_gap,
        horizon=args.horizon, max_ticks=args.max_ticks,
        cpu_capacity=args.cpu_capacity, gpu_capacity=args.gpu_capacity,
    )
    factory, label, key = _fuzz_policy(args)
    cache = (None if args.no_cache
             else ResultCache(args.cache_dir or DEFAULT_CACHE_DIR))
    result = run_fuzz(
        factory, label, key, fuzz_dir(args.out_dir), config=config,
        workers=args.workers, cache=cache,
        progress=lambda m: print(f"fuzz: {m}", flush=True),
    )
    print(f"fuzz: {result.evaluated} candidate(s) over "
          f"{result.generations} generation(s) against {label}")
    for entry in sorted(result.archive,
                        key=lambda e: (-e["gap"], e["name"])):
        print(f"  {entry['name']}  gap {entry['gap']:+.4f} "
              f"({entry['metric']}: policy {entry['policy_metric']:.4f} "
              f"vs {entry['best_baseline']} "
              f"{entry['baseline_metric']:.4f})")
    print(f"archive -> {result.archive_file}")
    return 0


def _cmd_fuzz_archive(args: argparse.Namespace) -> int:
    from repro.harness.tables import format_table
    from repro.workload.fuzz.archive import archive_path, load_archive

    entries = load_archive(args.out_dir)
    if not entries:
        print(f"no fuzz archive at {archive_path(args.out_dir)}; "
              "create one with `repro.cli fuzz run`")
        return 0
    rows = [
        {
            "scenario": e["name"],
            "gap": e["gap"],
            "metric": e["metric"],
            "policy": e["policy"]["label"],
            "best_baseline": e["best_baseline"],
            "generation": e["generation"],
        }
        for e in entries.values()
    ]
    rows.sort(key=lambda r: (-r["gap"], r["scenario"]))
    print(format_table(rows, title=f"fuzz archive ({len(rows)} entries)"))
    print(f"use any name via --scenario (set REPRO_FUZZ_DIR="
          f"{os.path.dirname(archive_path(args.out_dir)) or '.'} "
          "if not the default archive)")
    return 0


def _at_least(minimum: float, kind: type = int,
              above: bool = False) -> Callable[[str], float]:
    """An argparse ``type``: a finite ``kind`` no smaller than ``minimum``
    (greater than it, with ``above``)."""
    def number(text: str) -> float:
        value = kind(text)
        if not minimum <= value < math.inf or (above and value == minimum):
            raise argparse.ArgumentTypeError(
                f"must be {'above' if above else 'at least'} {minimum}, "
                f"got {value}")
        return value
    return number


#: An argparse ``type``: an offered load or a cache cap in MiB.
_positive = _at_least(0.0, float, above=True)


def _roster_names(text: str) -> List[str]:
    """An argparse ``type``: comma-separated baseline roster names."""
    from repro.baselines import ROSTER_CLASSES

    names = [name.strip() for name in text.split(",") if name.strip()]
    unknown = [name for name in names if name not in ROSTER_CLASSES]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown baseline(s) {unknown}; choose from "
            f"{sorted(ROSTER_CLASSES)}")
    return names


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one stderr line (the
    usage itself is under ``-h``); subcommand parsers inherit it."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = _Parser(
        prog="repro",
        description="Elasticity-compatible heterogeneous DRL resource "
                    "management for time-critical computing — reproduction CLI.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(
        func=_cmd_list)

    run = sub.add_parser("run", help="run one experiment and print its table")
    run.add_argument("experiment", help="experiment name, e.g. e02_main_table")
    run.add_argument("--out", help="save rows as JSON (ResultStore format)")
    run.add_argument("--csv", help="save rows as CSV")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--workers", type=_at_least(1), default=1,
                     help="process-pool shards for evaluation cells")
    run.add_argument("--scenario", default=None,
                     help="run on a named scenario (or imported trace "
                          "container) for experiments that accept one "
                          "(e.g. e02_main_table, e03_load_sweep)")
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser(
        "sweep", help="sharded scheduler-comparison sweep with result cache")
    sweep.add_argument("--loads", type=_positive, nargs="+", default=[0.5, 0.8],
                       help="offered loads, one scenario each")
    sweep.add_argument("--scenario", nargs="+", default=None,
                       help="named scenario(s) from the registry (or imported "
                            "trace files); overrides --loads")
    sweep.add_argument("--schedulers", type=_roster_names,
                       default="fifo,edf,tetris,greedy-elastic",
                       help="comma-separated baseline names")
    sweep.add_argument("--traces", type=_at_least(1), default=3,
                       help="paired trace seeds per scenario")
    sweep.add_argument("--base-seed", type=int, default=1000)
    sweep.add_argument("--max-ticks", type=_at_least(1), default=None)
    sweep.add_argument("--engine", default="tick", choices=["tick", "event"])
    sweep.add_argument("--workers", type=_at_least(1), default=1,
                       help="process-pool shards for evaluation cells")
    sweep.add_argument("--no-cache", action="store_true",
                       help="recompute every cell (skip the result cache)")
    sweep.add_argument("--cache-dir", default=None,
                       help="result-cache directory (default .repro-cache)")
    sweep.add_argument("--cache-max-mb", type=_positive, default=None,
                       help="cap the cache directory at this size; "
                            "least-recently-used entries are evicted")
    sweep.add_argument("--out", help="save rows as JSON (ResultStore format)")
    sweep.add_argument("--window-jobs", type=_at_least(1), default=None,
                       help="windowed evaluation: split each --scenario "
                            "trace container into segments of at most this "
                            "many jobs, evaluate them as independent cells, "
                            "and merge exactly (bounds peak memory)")
    sweep.set_defaults(func=_cmd_sweep)

    lb = sub.add_parser(
        "leaderboard",
        help="train each agent once per scenario; rank every policy and "
             "baseline on every scenario (cross-scenario matrix)")
    lb.add_argument("--scenarios", nargs="+",
                    default=["quick", "swf-fixture", "columnar-fixture"],
                    help="registry names (or trace-container paths)")
    lb.add_argument("--agents", default="ppo",
                    help="comma-separated trainable algorithms "
                         f"({', '.join(TRAINABLE)})")
    lb.add_argument("--baselines", type=_roster_names,
                    default="edf,tetris,greedy-elastic,fifo",
                    help="comma-separated heuristic anchors ('' for none)")
    lb.add_argument("--train-iterations", type=int, default=40,
                    help="training iterations per (scenario, agent)")
    lb.add_argument("--train-traces", type=int, default=8,
                    help="fixed training traces per scenario")
    lb.add_argument("--val-traces", type=int, default=3,
                    help="validation traces for best-checkpoint selection")
    lb.add_argument("--no-warm-start", action="store_true",
                    help="skip the behavior-cloning warm start")
    lb.add_argument("--traces", type=int, default=3,
                    help="paired evaluation trace seeds per scenario")
    lb.add_argument("--base-seed", type=int, default=1000)
    lb.add_argument("--seed", type=int, default=0,
                    help="training seed")
    lb.add_argument("--workers", type=_at_least(1), default=1,
                    help="process-pool shards for evaluation cells")
    lb.add_argument("--no-cache", action="store_true",
                    help="recompute every evaluation cell")
    lb.add_argument("--cache-dir", default=None,
                    help="result-cache directory (default .repro-cache)")
    lb.add_argument("--policy-dir", default=None,
                    help="policy-store directory (default .repro-policies)")
    lb.add_argument("--out", action="append", default=None,
                    help="write the leaderboard artifact (*.json or *.md; "
                         "repeatable)")
    lb.set_defaults(func=_cmd_leaderboard)

    train = sub.add_parser("train", help="train a DRL policy and save it")
    train.add_argument("--load", type=_positive, default=0.7)
    train.add_argument("--scenario", default=None,
                       help="train on a named scenario instead of the "
                            "synthetic quick scenario at --load")
    train.add_argument("--iterations", type=_at_least(0), default=60,
                       help="training iterations after the warm start "
                            "(0 keeps the behaviour-cloned policy)")
    train.add_argument("--algo", default="ppo", choices=TRAINABLE)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--out", default="policy.npz")
    train.add_argument("--num-envs", type=_at_least(1), default=1,
                       help="parallel environments for batched rollouts")
    train.add_argument("--engine", default="tick", choices=["tick", "event"],
                       help="simulation driver (event = idle fast-forward)")
    train.set_defaults(func=_cmd_train)

    ev = sub.add_parser("evaluate",
                        help="compare baselines (and a saved policy) on traces")
    ev.add_argument("--policy", default=None,
                    help="policy file saved by `train --out` (any --algo, "
                         "any scenario with the same platform names)")
    ev.add_argument("--load", type=_positive, default=0.7)
    ev.add_argument("--scenario", default=None,
                    help="evaluate on a named scenario instead of the "
                         "synthetic quick scenario at --load")
    ev.add_argument("--traces", type=_at_least(1), default=3)
    ev.add_argument("--engine", default="tick", choices=["tick", "event"],
                    help="simulation driver (event = idle fast-forward)")
    ev.add_argument("--workers", type=_at_least(1), default=1,
                    help="process-pool shards for evaluation cells")
    ev.set_defaults(func=_cmd_evaluate)

    sub.add_parser(
        "scenarios", help="list the named scenario registry"
    ).set_defaults(func=_cmd_scenarios)

    fuzz = sub.add_parser(
        "fuzz",
        help="adversarial scenario search: find generator settings where a "
             "trained policy loses to the best heuristic baseline, and "
             "archive them as named fuzz/<fingerprint> stress scenarios")
    fsub = fuzz.add_subparsers(dest="fuzz_command", required=True)

    frun = fsub.add_parser(
        "run", help="run an adversarial search (re-running it on the same "
                    "--cache-dir resumes a cut one from cache)")
    frun.add_argument("--policy-store", default=None, metavar="KEY",
                      help="attack an existing policy-store entry instead "
                           "of training one")
    frun.add_argument("--train-scenario", default="swf-fixture",
                      help="scenario the attacked policy is trained on "
                           "when --policy-store is not given (the store "
                           "is content-addressed: re-runs retrain nothing)")
    frun.add_argument("--agent", default="ppo", choices=TRAINABLE)
    frun.add_argument("--train-iterations", type=int, default=12)
    frun.add_argument("--train-seed", type=int, default=0)
    frun.add_argument("--population", type=int, default=8,
                      help="candidate scenarios per generation")
    frun.add_argument("--generations", type=int, default=3)
    frun.add_argument("--elites", type=int, default=2,
                      help="top candidates carried over unchanged")
    frun.add_argument("--mutation-scale", type=float, default=0.25,
                      help="gaussian mutation scale, fraction of each "
                           "knob's range")
    frun.add_argument("--crossover-prob", type=float, default=0.5)
    frun.add_argument("--traces", type=int, default=2,
                      help="paired trace seeds per candidate evaluation")
    frun.add_argument("--base-seed", type=int, default=1000)
    frun.add_argument("--search-seed", type=int, default=0,
                      help="root seed of the counter-based search streams "
                           "(sampling, mutation, crossover, selection)")
    frun.add_argument("--metric", default="miss_rate",
                      help="MetricsReport attribute the transfer gap is "
                           "measured on (lower = better)")
    frun.add_argument("--baselines", type=_roster_names,
                      default="edf,greedy-elastic,tetris",
                      help="comma-separated heuristic anchors; the gap is "
                           "policy minus the best of these")
    frun.add_argument("--max-archive", type=int, default=8,
                      help="archive at most this many top candidates")
    frun.add_argument("--min-gap", type=float, default=None,
                      help="archive only candidates whose gap exceeds this "
                           "(default: keep the top --max-archive "
                           "regardless of sign)")
    frun.add_argument("--horizon", type=int, default=60,
                      help="arrival horizon in ticks for candidate traces")
    frun.add_argument("--max-ticks", type=_at_least(1), default=400)
    frun.add_argument("--cpu-capacity", type=int, default=24)
    frun.add_argument("--gpu-capacity", type=int, default=8)
    frun.add_argument("--out-dir", default=None,
                      help="archive directory (default .repro-fuzz, or "
                           "$REPRO_FUZZ_DIR)")
    frun.add_argument("--policy-dir", default=None,
                      help="policy-store root (default .repro-policies)")
    frun.add_argument("--workers", type=_at_least(1), default=1,
                      help="process-pool shards for evaluation cells")
    frun.add_argument("--no-cache", action="store_true",
                      help="recompute every evaluation cell")
    frun.add_argument("--cache-dir", default=None,
                      help="result-cache directory (default .repro-cache)")
    frun.set_defaults(func=_cmd_fuzz_run)

    farchive = fsub.add_parser(
        "archive", help="list the archived stress scenarios with their "
                        "measured gaps")
    farchive.add_argument("--out-dir", default=None,
                          help="fuzz archive directory (default "
                               ".repro-fuzz, or $REPRO_FUZZ_DIR)")
    farchive.set_defaults(func=_cmd_fuzz_archive)

    lint_p = sub.add_parser(
        "lint",
        help="determinism-contract linter: AST checks for unseeded RNG, "
             "unsorted filesystem iteration, wall-clock reads, set-order "
             "leaks, non-atomic/non-canonical writes, and snapshot-"
             "surface completeness (exit 1 on findings)")
    lint_p.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    lint_p.add_argument("--rules", nargs="+", default=None,
                        help="run only these rule ids (default: all)")
    lint_p.add_argument("--list-rules", action="store_true",
                        help="list registered rules and exit")
    lint_p.set_defaults(func=_cmd_lint)

    def _add_serve_policy_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--policy", default="edf",
                       help="baseline scheduler name (see `repro scenarios`)")
        p.add_argument("--policy-npz", default=None,
                       help="policy file saved by `repro train --out` "
                            "(any --algo)")
        p.add_argument("--policy-store", default=None,
                       help="content-addressed key in the leaderboard "
                            "policy store")
        p.add_argument("--policy-dir", default=None,
                       help="policy-store root (default .repro-policies)")

    def _add_serve_scenario_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scenario", default=None,
                       help="named scenario from the registry (default: "
                            "the synthetic quick scenario at --load)")
        p.add_argument("--load", type=_positive, default=0.7)
        p.add_argument("--engine", default="tick", choices=["tick", "event"])
        p.add_argument("--max-ticks", type=_at_least(1), default=None,
                       help="horizon override (default: the scenario's)")
        p.add_argument("--drop-on-miss", action="store_true")

    serve = sub.add_parser(
        "serve",
        help="run the scheduling service: accept live job submissions over "
             "an NDJSON socket, answer with policy decisions, checkpoint "
             "for crash-consistent restart")
    _add_serve_scenario_args(serve)
    _add_serve_policy_args(serve)
    serve.add_argument("--state-dir", default=".repro-serve",
                       help="checkpoint (base snapshot + op journal) and "
                            "endpoint directory ('' disables checkpointing)")
    serve.add_argument("--checkpoint-every", type=int, default=16,
                       help="accepted submit/advance frames per durable "
                            "journal flush (0: journal nothing, persist "
                            "only on drain/checkpoint/shutdown)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="NDJSON socket port (0 picks an ephemeral one, "
                            "advertised in <state-dir>/ENDPOINT.json)")
    serve.add_argument("--http-port", type=int, default=None,
                       help="also expose the HTTP shim on this port "
                            "(0 for ephemeral)")
    serve.set_defaults(func=_cmd_serve)

    replay = sub.add_parser(
        "replay",
        help="pump a scenario trace into a running server at configurable "
             "time compression (or compute the offline batch reference)")
    _add_serve_scenario_args(replay)
    _add_serve_policy_args(replay)
    replay.add_argument("--trace-seed", type=int, default=1000,
                        help="trace seed (matches the evaluate base seed)")
    replay.add_argument("--state-dir", default=".repro-serve",
                        help="server state dir for endpoint discovery")
    replay.add_argument("--host", default=None,
                        help="explicit server host (skips endpoint discovery)")
    replay.add_argument("--port", type=int, default=None)
    replay.add_argument("--tick-seconds", type=float, default=0.0,
                        help="real seconds per sim tick before compression "
                             "(0 = as fast as possible)")
    replay.add_argument("--compression", type=float, default=1.0,
                        help="time-compression factor (pacing divides by it)")
    replay.add_argument("--connect-timeout", type=float, default=15.0,
                        help="seconds to wait for a (re)started server")
    replay.add_argument("--stop-after", type=int, default=None,
                        help="exit once the server holds this many "
                             "submissions, without draining (CI kill hook)")
    replay.add_argument("--no-drain", action="store_true",
                        help="fetch current metrics instead of running the "
                             "workload to completion")
    replay.add_argument("--shutdown", action="store_true",
                        help="ask the server to checkpoint and exit after "
                             "the replay")
    replay.add_argument("--offline", action="store_true",
                        help="no server: run the batch reference on the "
                             "same payloads and emit canonical metrics")
    replay.add_argument("--out", default=None,
                        help="write canonical metrics JSON here")
    replay.set_defaults(func=_cmd_replay)

    cache_p = sub.add_parser(
        "cache", help="inspect or prune the persistent result cache")
    csub = cache_p.add_subparsers(dest="cache_command", required=True)
    cstats = csub.add_parser(
        "stats", help="entry count, size, lifetime hit/miss/eviction totals")
    cstats.add_argument("--cache-dir", default=None,
                        help="result-cache directory (default .repro-cache)")
    cstats.set_defaults(func=_cmd_cache)
    cprune = csub.add_parser(
        "prune", help="evict least-recently-used entries down to a size cap")
    cprune.add_argument("--cache-dir", default=None,
                        help="result-cache directory (default .repro-cache)")
    cprune.add_argument("--max-mb", type=_at_least(0.0, float), required=True,
                        help="target cache size in MiB")
    cprune.set_defaults(func=_cmd_cache)

    trace = sub.add_parser(
        "trace", help="ingest and inspect real cluster traces")
    tsub = trace.add_subparsers(dest="trace_command", required=True)

    def add_archive_args(p, need_format_default=None, format_required=True):
        p.add_argument("--input", required=True,
                       help="archive file (SWF or CSV; *.gz transparently)")
        p.add_argument("--format", default=need_format_default,
                       choices=["swf", "columnar"] +
                               (["json"] if need_format_default == "json" else []),
                       required=format_required and need_format_default is None,
                       help="archive format"
                            + ("" if format_required
                               else " (default: the --preset's format)"))
        p.add_argument("--spec", default=None,
                       choices=["alibaba", "google"],
                       help="columnar preset (start/end second pairs vs "
                            "microsecond event layout)")
        p.add_argument("--columns", default=None,
                       help="custom columnar mapping field=column,... "
                            "(overrides --spec)")
        p.add_argument("--delimiter", default=None,
                       help="override the spec's delimiter")
        p.add_argument("--time-unit", default=None, choices=["s", "ms", "us"],
                       help="override the spec's time unit")
        p.add_argument("--end-time-column", default=None,
                       help="derive run_time = end - start from this column")
        p.add_argument("--no-header", action="store_true",
                       help="columns are 0-based indices, not header names")

    timport = tsub.add_parser(
        "import", help="normalize an archive into a repo trace container")
    add_archive_args(timport, format_required=False)
    timport.add_argument("--preset", default=None,
                         choices=["google-2019", "kit-fh2", "sdsc-sp2"],
                         help="archive preset: resolves format, columnar "
                              "spec, platform capacities, and every ingest "
                              "field for a well-known public archive; any "
                              "flag below still overrides its field")
    timport.add_argument("--out", required=True,
                         help="output trace (*.json[.gz], *.jsonl[.gz], or "
                              "a shard directory with --shard-jobs)")
    timport.add_argument("--stream", action="store_true",
                         help="two-pass streaming normalization: archive-"
                              "scale logs import in bounded memory, output "
                              "byte-identical to the materialized path "
                              "(requires submit-time-sorted archives)")
    timport.add_argument("--shard-jobs", type=_at_least(1), default=None,
                         help="write --out as a sharded JSONL directory "
                              "with this many jobs per shard")
    timport.add_argument("--tick-seconds", type=float, default=None,
                         help="archive seconds per simulator tick "
                              "(default 60, or the preset's)")
    timport.add_argument("--max-jobs", type=int, default=None)
    timport.add_argument("--subsample", type=float, default=None,
                         help="seeded keep-fraction in (0, 1] (default 1)")
    timport.add_argument("--window", type=float, nargs=2, default=None,
                         metavar=("START", "END"),
                         help="seconds window relative to first submit")
    timport.add_argument("--target-load", type=float, default=None,
                         help="rescale arrivals to this offered load")
    timport.add_argument("--max-parallelism", type=int, default=None,
                         help="clip archive widths to this cap "
                              "(default 16, or the preset's)")
    timport.add_argument("--tc-fraction", type=float, default=None,
                         help="share of jobs synthesized time-critical "
                              "(default 0.4, or the preset's)")
    timport.add_argument("--accel-fraction", type=float, default=None,
                         help="share of jobs eligible for the accelerator "
                              "(default 0.25, or the preset's)")
    timport.add_argument("--seed", type=int, default=None,
                         help="synthesis seed (class/deadline/subsample; "
                              "default 0)")
    timport.add_argument("--cpu-capacity", type=int, default=None,
                         help="simulator CPU pool size (default 24, or "
                              "the preset's)")
    timport.add_argument("--gpu-capacity", type=int, default=None,
                         help="0 disables the accelerator platform "
                              "(default 8, or the preset's)")
    timport.set_defaults(func=_cmd_trace_import)

    tstats = tsub.add_parser(
        "stats", help="summarize an archive or an imported trace")
    add_archive_args(tstats, need_format_default="json")
    tstats.add_argument("--tick-seconds", type=float, default=60.0,
                        help="tick size used to report how many records a "
                             "normalization would clamp (archive formats)")
    tstats.set_defaults(func=_cmd_trace_stats)

    tconvert = tsub.add_parser(
        "convert", help="re-encode a trace between containers "
                        "(.json[.gz] <-> .jsonl[.gz] <-> shard directory)")
    tconvert.add_argument("--input", required=True)
    tconvert.add_argument("--out", required=True)
    tconvert.add_argument("--shard-jobs", type=_at_least(1), default=None,
                          help="write --out as a sharded JSONL directory "
                               "with this many jobs per shard")
    tconvert.set_defaults(func=_cmd_trace_convert)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code.

    An input the command cannot use (:class:`InputError`) ends it with
    its message as one stderr line and exit status 2. A reader of
    stdout that goes away (``repro.cli ... | head``) ends it quietly
    with exit status 1, as the Python docs' SIGPIPE recipe does: stdout
    is pointed at ``os.devnull`` so the flush at exit cannot fail again.
    """
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a broken pipe surfaces here, not at exit
        return code
    except InputError as exc:
        print(exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
