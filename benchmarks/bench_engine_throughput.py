#!/usr/bin/env python
"""Engine throughput benchmark: events/s and simulated-requests/s.

Runs the paper's three standard workloads (w-40 / w-120 / w-200) against
the AWS serverless deployment — the cell the seed engine was profiled on
— and reports wall-clock, simulated requests per second, and calendar
events per second.  Results are written to ``BENCH_engine.json`` so
future PRs can track the perf trajectory.

Usage::

    python benchmarks/bench_engine_throughput.py              # full sweep
    python benchmarks/bench_engine_throughput.py --scale 0.2  # quicker sweep
    python benchmarks/bench_engine_throughput.py --check      # CI smoke gate

``--check`` runs only the small fixed probe cell (well under a second),
compares its throughput against the probe entry recorded in
``BENCH_engine.json``, gates three deterministic counters of that
cell (calendar events must equal the recorded count exactly; cProfile
calls per request may exceed the recorded value by at most 2 %; the
bytes its outcome table stores per row may not exceed the recorded
value), the calendar events of the fault-injection and hybrid probes,
the routing probe's breaker trips and the search probe's simulated
cells and rungs (all exactly, like the probe cell), the routed and
hybrid probes' cProfile calls per request (within 2 %, like the probe
cell) and the routed probe's calendar events (exactly), and also
smokes the whole-table fold (``OutcomeSummary.of_table`` over the
probe's rows), the serving control plane (instance-pool transitions,
scaling-policy decisions, work-queue ticket cycling), the study layer
(``ResultFrame`` build over per-cell reductions + where/pivot/to_rows
queries), and the hybrid spill front door (the probe cell on an
undersized provisioned fleet, both billing paths metering).  It exits non-zero if any recorded probe regressed by more
than 30 % — a cheap guard against accidentally pessimising the hot
paths.

The recorded numbers are machine-relative: absolute req/s on a CI
runner differs from the dev box the JSON was generated on.  For a
trustworthy gate, regenerate the baseline on the machine that will run
``--check`` (run the full sweep once there); the committed file mainly
documents the perf trajectory across PRs.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.core.benchmark import ServingBenchmark  # noqa: E402
from repro.core.planner import Planner  # noqa: E402
from repro.core.scenario import get_scenario  # noqa: E402
from repro.workload.generator import standard_workload  # noqa: E402

#: Where the trajectory file lives (repo root, next to CHANGES.md).
DEFAULT_OUTPUT = os.path.join(ROOT, "BENCH_engine.json")

#: Throughput of the seed engine on a full w-40 serverless run
#: (profiled before the fast-path rework: ~4.2 s for 15 171 requests).
SEED_BASELINE_RPS = 3600.0

#: The --check probe: one fixed compressed cell, repeatable in seconds.
CHECK_WORKLOAD = "w-40"
CHECK_SCALE = 0.3

#: The run-cache probe's study scale (fig05, AWS half).
RUN_CACHE_SCALE = 0.02

#: Allowed throughput regression before --check fails.
CHECK_TOLERANCE = 0.30

#: Allowed growth of the probe's cProfile calls per request.  The count
#: is deterministic, so this gate is tight where wall-clock cannot be.
CALLS_TOLERANCE = 0.02

WORKLOADS = ("w-40", "w-120", "w-200")
SEED = 7


def run_cell(workload_name: str, scale: float, repeats: int = 1,
             keep_result: list | None = None,
             config: dict | None = None) -> dict:
    """Run one serverless cell and report its throughput (best of N);
    ``config`` overrides the deployment's service knobs."""
    deployment = Planner().plan("aws", "mobilenet", "tf1.15", "serverless",
                                **(config or {}))
    workload = standard_workload(workload_name, seed=SEED, scale=scale)
    best = None
    result = None
    for _ in range(max(repeats, 1)):
        bench = ServingBenchmark(seed=SEED)
        started = time.perf_counter()
        result = bench.run(deployment, workload)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    if keep_result is not None:
        keep_result.append(result)
    events = int(result.metadata.get("events_processed", 0))
    return {
        "workload": workload_name,
        "scale": scale,
        "requests": result.total_requests,
        "events": events,
        "wall_s": round(best, 3),
        "requests_per_s": round(result.total_requests / best, 1),
        "events_per_s": round(events / best, 1),
        "success_ratio": round(result.success_ratio, 4),
    }


def probe_calls_per_request(config: dict | None = None) -> float:
    """cProfile calls (Python and builtin) per request on the probe cell
    (with ``config``'s service knobs, if given)."""
    return calls_per_request(Planner().plan(
        "aws", "mobilenet", "tf1.15", "serverless", **(config or {})))


def calls_per_request(deployment) -> float:
    """cProfile calls (Python and builtin) per request of ``deployment``
    on the probe workload.

    A deterministic work count: one untimed run first, so lazy imports
    and one-off caches stay out of the profiled run.
    """
    workload = standard_workload(CHECK_WORKLOAD, seed=SEED, scale=CHECK_SCALE)
    ServingBenchmark(seed=SEED).run(deployment, workload)
    profiler = cProfile.Profile()
    result = profiler.runcall(ServingBenchmark(seed=SEED).run, deployment,
                              workload)
    return round(pstats.Stats(profiler).total_calls
                 / result.total_requests, 2)


def run_columnar_probe(result) -> dict:
    """Time the whole-table fold on one run's rows.

    ``OutcomeSummary.of_table`` is the one reducer: every result that
    keeps its rows folds its summary with it as the cell finishes
    (column hash, latency percentiles, cold/warm breakdown sums, the
    row-order arrays).  Reported as rows/s so the ``--check`` gate can
    flag a regression; one fold of the probe's 4,500 rows takes about a
    millisecond.
    Also counts the bytes the run's table stores per row
    (``OutcomeTable.resident_bytes``), an exact, host-independent count.
    """
    from repro.serving.streaming import OutcomeSummary  # noqa: E402

    table = result.rows
    # Best-of-N timing (like run_cell): these loops are millisecond-scale,
    # so a single scheduler stall would otherwise read as a regression.
    reduce_s = None
    for _ in range(5):
        started = time.perf_counter()
        for _ in range(20):
            OutcomeSummary.of_table(table)
        elapsed = (time.perf_counter() - started) / 20
        reduce_s = elapsed if reduce_s is None else min(reduce_s, elapsed)
    return {
        "requests": table.count,
        "reduce_rows_per_s": round(table.count / reduce_s, 1),
        "resident_bytes_per_row": round(table.resident_bytes()
                                        / table.count, 2),
    }


def run_frame_probe(result, cells: int = 64) -> dict:
    """Smoke the study layer's ResultFrame build and query paths.

    Times (a) assembling a ``cells``-row frame from per-cell results —
    which reads every standard column off each cell's summary, the hot
    half of ``Study.run`` once simulations are cached — and (b) the
    relational verbs (``where`` + ``pivot`` + ``to_rows``) over the
    built frame.  Reported as cells/s and query-ops/s for the
    ``--check`` gate.
    """
    from repro.core.study import ResultFrame  # noqa: E402

    pairs = [({"provider": "aws", "model": "mobilenet",
               "memory_gb": float(index)}, result)
             for index in range(cells)]
    build_s = None
    for _ in range(3):
        started = time.perf_counter()
        frame = ResultFrame.from_results(pairs)
        elapsed = time.perf_counter() - started
        build_s = elapsed if build_s is None else min(build_s, elapsed)

    query_s = None
    for _ in range(3):
        started = time.perf_counter()
        for _ in range(10):
            frame.where(model="mobilenet")
            frame.pivot(index="provider", columns="memory_gb",
                        values="cost_usd")
            frame.to_rows()
        elapsed = (time.perf_counter() - started) / 10
        query_s = elapsed if query_s is None else min(query_s, elapsed)
    return {
        "cells": cells,
        "build_cells_per_s": round(cells / build_s, 1),
        "query_ops_per_s": round(3 / query_s, 1),
    }


def run_replicated_frame_probe(result, cells: int = 16,
                               replicates: int = 8) -> dict:
    """Smoke the replication path: frame build + grouped reductions.

    Builds a ``cells x replicates``-row frame (each row carries
    ``replicate`` / ``seed`` labels the way a replicated sweep emits
    them) and times ``replicate_summary`` — the ``group_by`` collapse
    into per-cell mean/std/ci95 columns that every error-bar report
    runs.  Reported as collapsed cells/s for the ``--check`` gate.
    """
    from repro.core.study import ResultFrame  # noqa: E402

    pairs = [({"provider": "aws", "model": "mobilenet",
               "memory_gb": float(index), "replicate": replicate,
               "seed": 7 + replicate}, result)
             for index in range(cells) for replicate in range(replicates)]
    frame = ResultFrame.from_results(pairs)
    collapse_s = None
    for _ in range(3):
        started = time.perf_counter()
        for _ in range(10):
            summary = frame.replicate_summary()
        elapsed = (time.perf_counter() - started) / 10
        collapse_s = elapsed if collapse_s is None else min(collapse_s,
                                                            elapsed)
    assert len(summary) == cells
    return {
        "rows": len(frame),
        "cells": cells,
        "replicates": replicates,
        "collapse_cells_per_s": round(cells / collapse_s, 1),
    }


#: Fault schedule for the fault-injection probe: crashes, transient
#: errors, and client retries all active on the probe cell, so the
#: injector, the kill/requeue path, and the retry loop are all timed.
FAULT_PROBE_CONFIG = {
    "crash_mtbf_s": 60.0,
    "request_error_rate": 0.02,
    "retry_attempts": 3,
    "retry_base_delay_s": 0.05,
}


def run_fault_probe(repeats: int = 1) -> dict:
    """Smoke the fault-injection subsystem on the probe cell.

    Runs the same fixed probe cell as ``check_probe`` but with an
    active fault schedule (``FAULT_PROBE_CONFIG``), so the injector's
    crash timers, the pull-queue requeue path, and the executor's retry
    loop are all on the clock.  Reported as requests/s for the
    ``--check`` gate; the *no-fault* path's zero overhead is guarded
    separately by the golden-hash tests and the unchanged
    ``check_probe``.
    """
    deployment = Planner().plan("aws", "mobilenet", "tf1.15", "serverless",
                                **FAULT_PROBE_CONFIG)
    workload = standard_workload(CHECK_WORKLOAD, seed=SEED,
                                 scale=CHECK_SCALE)
    best = None
    result = None
    for _ in range(max(repeats, 1)):
        bench = ServingBenchmark(seed=SEED)
        started = time.perf_counter()
        result = bench.run(deployment, workload)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return {
        "workload": CHECK_WORKLOAD,
        "scale": CHECK_SCALE,
        "faults": dict(FAULT_PROBE_CONFIG),
        "requests": result.total_requests,
        "events": int(result.metadata["events_processed"]),
        "wall_s": round(best, 3),
        "requests_per_s": round(result.total_requests / best, 1),
        "success_ratio": round(result.success_ratio, 4),
    }


def run_control_probe(iterations: int = 50_000) -> dict:
    """Smoke the control-plane hot paths in isolation.

    Exercises the per-request operations the refactored platforms put on
    the hot path — work-queue ticket enqueue/take/recycle (interned
    allocations), scaling-policy decisions, and the instance pool's
    launch / ready / busy / idle / retire transitions — in a tight loop
    with no simulation around them.  Reported as cycles/s so the
    ``--check`` gate catches a control-plane pessimisation even when the
    end-to-end probe hides it behind event-calendar costs.  Runs in well
    under a second.
    """
    from repro.platforms.admission import WorkQueue  # noqa: E402
    from repro.platforms.policies import (  # noqa: E402
        ConcurrencyScalingPolicy,
        TargetUtilisationPolicy,
    )
    from repro.platforms.pool import InstancePool  # noqa: E402
    from repro.sim import Environment  # noqa: E402

    best = None
    for _ in range(3):
        env = Environment()
        pool = InstancePool(env, gauge_name="probe")
        queue = WorkQueue(env)
        router = ConcurrencyScalingPolicy(
            max_concurrency=1_000, max_starts_per_second=200.0,
            interval_s=1.0, overprovision=1.6)
        tracker = TargetUtilisationPolicy(
            target_per_instance=4.0, min_instances=1, max_instances=32)
        started = time.perf_counter()
        for index in range(iterations):
            ticket = queue.enqueue(0, 1)
            pinned, budget, headroom = router.plan_starts(queue.backlog,
                                                          pool.alive)
            router.speculative_starts(pinned, budget, headroom)
            tracker.launches(float(index & 63), 8)
            instance = pool.launch(warm=False)
            pool.mark_ready(instance)
            pool.mark_busy(instance)
            pool.mark_idle(instance)
            queue.take()
            queue.recycle(ticket)
            pool.retire(instance)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return {
        "iterations": iterations,
        "cycles_per_s": round(iterations / best, 1),
    }


def run_routing_probe(iterations: int = 50_000) -> dict:
    """Smoke the multi-region router's decision cycle in isolation.

    Exercises one full routing decision per iteration — snapshot
    assembly over three backends, both pure policies
    (:func:`choose_priority` and :func:`choose_weighted`), the EWMA
    health fold, the streaming latency-quantile update, and the circuit
    breakers — with a failure pattern that keeps region 0's breaker
    actively tripping, cooling down, and re-closing through half-open
    probes.  Reported as cycles/s so the ``--check`` gate catches a
    router pessimisation without simulating a full failover cell.
    """
    from repro.platforms.routing import (  # noqa: E402
        BackendHealth,
        BackendSnapshot,
        CircuitBreaker,
        LatencyQuantile,
        choose_priority,
        choose_weighted,
    )

    regions = 3
    best = None
    for _ in range(3):
        health = [BackendHealth(alpha=0.2) for _ in range(regions)]
        breakers = [CircuitBreaker(threshold=5, cooldown_s=2.0)
                    for _ in range(regions)]
        quantile = LatencyQuantile(percentile=95.0, min_samples=32)
        started = time.perf_counter()
        for index in range(iterations):
            now = index * 0.01
            snapshots = [
                BackendSnapshot(index=region,
                                region_latency_s=0.01 * region,
                                admits=breakers[region].admits(now),
                                success_rate=health[region].success_rate,
                                latency_s=health[region].latency_s)
                for region in range(regions)
            ]
            chosen = choose_priority(snapshots)
            if chosen is None:
                chosen = choose_weighted(snapshots,
                                         (index % 97) / 97.0) or 0
            # Region 0 always fails, and every 8th decision retries it
            # while its breaker admits (hedge/probe-style traffic), so
            # the breaker keeps tripping, cooling down, and probing
            # half-open instead of health-based failover hiding it.
            if (index & 7) == 0 and snapshots[0].admits:
                chosen = 0
            breakers[chosen].on_route(now)
            success = chosen != 0
            latency = 0.05 + 0.001 * (index & 7)
            health[chosen].observe(success, latency)
            if success:
                breakers[chosen].record_success()
                quantile.observe(latency)
            else:
                breakers[chosen].record_failure(now)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return {
        "iterations": iterations,
        "regions": regions,
        "breaker_trips": sum(b.trips for b in breakers),
        "cycles_per_s": round(iterations / best, 1),
    }


#: Routed probe cell: the probe cell behind failover-crash's front door
#: (two weighted regions, breakers, p95 hedging, crashes, retries).
ROUTED_PROBE_CONFIG = dict(get_scenario("failover-crash").config)


def run_routed_probe(repeats: int = 1) -> dict:
    """Smoke the multi-region router end to end on the probe cell.

    Unlike the routing probe, which times the decision functions alone,
    this runs every routed request: snapshots and the weighted choice,
    attempt rows and their merge, the hedge timer on every request once
    the latency estimate is ready (the primary attempt runs inline under
    it; a hedge that fires runs as a process of its own), and the
    regional serverless backends, with crash timers, breakers and client
    retries armed.  On this short cell no request fails (7 hedges fire,
    no breaker trips, no retry), so it times the routed path itself.
    Reports calendar events and cProfile calls per request, the counts
    ``--check`` gates, and requests/s, which it only prints.
    """
    probe = run_cell(CHECK_WORKLOAD, CHECK_SCALE, repeats,
                     config=ROUTED_PROBE_CONFIG)
    probe["config"] = dict(ROUTED_PROBE_CONFIG)
    probe["calls_per_req"] = probe_calls_per_request(ROUTED_PROBE_CONFIG)
    return probe


#: Hybrid probe cell: a one-server fleet under the probe workload, so
#: the spill decision runs per request and both billing paths meter.
HYBRID_PROBE_CONFIG = {
    "hybrid_provisioned_instances": 1,
    "hybrid_spill_watermark": 0.85,
    "hybrid_sticky_spill_s": 3.0,
}


def run_hybrid_probe(repeats: int = 1) -> dict:
    """Smoke the hybrid spill front door on the probe cell.

    Runs the fixed probe cell on ``PlatformKind.HYBRID`` with a
    deliberately undersized provisioned fleet (``HYBRID_PROBE_CONFIG``),
    so the per-request spill decision, both backends' admission paths,
    and the merged ``provisioned.`` / ``spill.`` usage ledger are all on
    the clock.  Reported as requests/s (plus the observed spill ratio,
    as a behavioural canary) and cProfile calls per request (the spill
    path parks serverless instances on its idle line) for the
    ``--check`` gate.
    """
    deployment = Planner().plan("aws", "mobilenet", "tf1.15", "hybrid",
                                **HYBRID_PROBE_CONFIG)
    workload = standard_workload(CHECK_WORKLOAD, seed=SEED,
                                 scale=CHECK_SCALE)
    best = None
    result = None
    for _ in range(max(repeats, 1)):
        bench = ServingBenchmark(seed=SEED)
        started = time.perf_counter()
        result = bench.run(deployment, workload)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return {
        "workload": CHECK_WORKLOAD,
        "scale": CHECK_SCALE,
        "config": dict(HYBRID_PROBE_CONFIG),
        "requests": result.total_requests,
        "events": int(result.metadata["events_processed"]),
        "wall_s": round(best, 3),
        "requests_per_s": round(result.total_requests / best, 1),
        "spill_ratio": round(result.table.spill_ratio(), 4),
        "success_ratio": round(result.success_ratio, 4),
        "calls_per_req": calls_per_request(deployment),
    }


def run_streaming_probe(rows: int = 200_000) -> dict:
    """Smoke the trace-scale streaming plane in isolation.

    Times the structure that lets 10M-request cells run at flat RSS:
    the chunked recorder's write/fold cycle — ``rows`` synthetic
    outcomes registered, committed, and sealed through recycled chunks
    into an :class:`OutcomeSummary`.  Also reports the fold's peak
    resident chunk count and the RSS growth (``ru_maxrss`` delta)
    across the fold repeats, both flat by design, so the ``--check``
    gate catches a residency leak as well as a throughput regression.
    """
    import resource

    from repro.serving.streaming import ChunkedOutcomeRecorder  # noqa: E402

    chunk_rows = 8_192
    rss_before_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    fold_s = None
    recorder = None
    for _ in range(3):
        recorder = ChunkedOutcomeRecorder(chunk_rows=chunk_rows,
                                          seal_lag_s=1.0)
        columns = recorder.columns
        started = time.perf_counter()
        for index in range(rows):
            send = index * 0.001
            row = recorder.register(index, index & 7, send)
            columns.completion_time[row] = send + 0.05
            columns.success[row] = True
            recorder.commit(row)
        summary = recorder.finalize(rows * 0.001 + 1.0)
        elapsed = time.perf_counter() - started
        fold_s = elapsed if fold_s is None else min(fold_s, elapsed)
    assert summary.count == rows
    rss_after_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_growth_mb = max(rss_after_kb - rss_before_kb, 0) / 1024.0
    return {
        "rows": rows,
        "chunk_rows": chunk_rows,
        "fold_rows_per_s": round(rows / fold_s, 1),
        "peak_resident_chunks": recorder.peak_resident_chunks,
        "fold_rss_growth_mb": round(rss_growth_mb, 1),
    }


def run_search_probe(candidates: int = 512) -> dict:
    """Smoke the successive-halving schedule machinery in isolation.

    Runs a budgeted halving search over ``candidates`` synthetic
    serverless designs with a closed-form evaluator (no simulation), so
    the schedule itself — candidate normalisation, per-rung seeding and
    fidelity pinning, ranking, promotion, budget sizing, and the
    result-frame assembly — is all that's on the clock.  Reported as
    evaluated cells/s for the ``--check`` gate, plus the rung count and
    simulated-cell total as behavioural canaries.
    """
    from repro.core.scenario import ScenarioSpec  # noqa: E402
    from repro.core.study import Sweep  # noqa: E402
    from repro.tools.navigator import NavigationConstraints  # noqa: E402
    from repro.tools.search import SuccessiveHalvingSearch  # noqa: E402

    side = max(2, round(candidates ** (1.0 / 3.0)))
    sweep = Sweep(
        name="search-probe",
        base=ScenarioSpec(name="search-probe", provider="aws",
                          model="mobilenet"),
        axes={"memory_gb": tuple(1.0 + index for index in range(side)),
              "batch_size": tuple(1 + index for index in range(side)),
              "target_per_instance": tuple(4.0 + 2 * index
                                           for index in range(side))})
    cells = sweep.cells()

    def evaluator(spec):
        memory = spec.overrides["memory_gb"]
        batch = spec.overrides["batch_size"]
        target = spec.overrides["target_per_instance"]
        fidelity = spec.fidelity if spec.fidelity is not None else 1.0
        cost = ((memory - 3.0) ** 2 + (batch - 2) ** 2
                + 0.1 * (target - 8.0) ** 2 + 0.01 / fidelity)
        return {"avg_latency_s": 0.1, "success_ratio": 1.0,
                "cost_usd": cost}

    budget = len(cells) // 4
    best = None
    result = None
    for _ in range(3):
        search = SuccessiveHalvingSearch(eta=3, budget_cells=budget)
        started = time.perf_counter()
        result = search.search(
            cells, NavigationConstraints(), evaluator=evaluator,
            scorer=lambda spec: evaluator(spec)["cost_usd"])
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return {
        "candidates": len(cells),
        "budget_cells": budget,
        "rungs": len(result.rungs),
        "simulated": result.total_simulated,
        "cells_per_s": round(result.total_evaluations / best, 1),
    }


def run_cache_probe() -> dict:
    """Count what the run cache keeps per cell after a study.

    Runs the registered ``fig05`` study (AWS half, serially) at
    ``RUN_CACHE_SCALE`` and reports the array bytes its cached results
    hold per cell: each summary's ``OutcomeSummary.resident_bytes``,
    plus ``OutcomeTable.resident_bytes`` of any rows a result kept (a
    cell reduced where it finishes keeps none) — an exact,
    host-independent count, gated exactly by ``--check``.  ``fig05``
    declares no ``reads``, so its cells keep none of their row-order
    arrays either: 216 bytes per cell, all fixed-size sums and counts
    (14,374 while every cached summary kept those arrays).
    """
    from repro.core.study import get_study  # noqa: E402
    from repro.experiments.base import (  # noqa: E402
        ExperimentContext,
        load_registered_studies,
    )

    load_registered_studies()
    context = ExperimentContext(seed=SEED, scale=RUN_CACHE_SCALE,
                                providers=("aws",))
    get_study("fig05").run(context)
    cached = list(context._runs.values())
    resident = sum(result.table.resident_bytes()
                   + (0 if result.rows is None
                      else result.rows.resident_bytes())
                   for result in cached)
    return {
        "study": "fig05",
        "scale": RUN_CACHE_SCALE,
        "cells": len(cached),
        "resident_bytes_per_cell": round(resident / len(cached), 1),
    }


def run_sweep(scale: float, repeats: int) -> dict:
    """The full sweep plus the --check probe; returns the report payload."""
    results = []
    for name in WORKLOADS:
        entry = run_cell(name, scale, repeats)
        entry["speedup_vs_seed"] = round(
            entry["requests_per_s"] / SEED_BASELINE_RPS, 2)
        results.append(entry)
        print(f"{name:>6} x{scale:<5g} {entry['wall_s']:>8.3f}s "
              f"{entry['requests_per_s']:>10,.0f} req/s "
              f"{entry['events_per_s']:>12,.0f} ev/s "
              f"({entry['speedup_vs_seed']:.2f}x vs seed)")
    keep: list = []
    probe = run_cell(CHECK_WORKLOAD, CHECK_SCALE, repeats, keep_result=keep)
    probe["calls_per_req"] = probe_calls_per_request()
    columnar = run_columnar_probe(keep[0])
    control = run_control_probe()
    frame = run_frame_probe(keep[0])
    replicated = run_replicated_frame_probe(keep[0])
    fault = run_fault_probe(repeats)
    routing = run_routing_probe()
    routed = run_routed_probe(repeats)
    hybrid = run_hybrid_probe(repeats)
    streaming = run_streaming_probe()
    search = run_search_probe()
    run_cache = run_cache_probe()
    print(f" probe x{CHECK_SCALE:<5g} {probe['wall_s']:>8.3f}s "
          f"{probe['requests_per_s']:>10,.0f} req/s "
          f"({probe['events']} events, {probe['calls_per_req']:g} "
          f"calls/request)")
    print(f" faults x{CHECK_SCALE:<5g} {fault['wall_s']:>8.3f}s "
          f"{fault['requests_per_s']:>10,.0f} req/s "
          f"({fault['events']} events, chaos schedule on)")
    print(f" hybrid x{CHECK_SCALE:<5g} {hybrid['wall_s']:>8.3f}s "
          f"{hybrid['requests_per_s']:>10,.0f} req/s "
          f"({hybrid['events']} events, spill ratio "
          f"{hybrid['spill_ratio']:g}, {hybrid['calls_per_req']:g} "
          f"calls/request)")
    print(f" routing       {routing['cycles_per_s']:>13,.0f} cycles/s "
          f"({routing['breaker_trips']} breaker trips)")
    print(f" routed x{CHECK_SCALE:<5g} {routed['wall_s']:>8.3f}s "
          f"{routed['requests_per_s']:>10,.0f} req/s "
          f"({routed['events']} events, {routed['calls_per_req']:g} "
          f"calls/request)")
    print(f" columnar fold  {columnar['reduce_rows_per_s']:>12,.0f} rows/s "
          f"({columnar['resident_bytes_per_row']:g} table bytes/row)")
    print(f" control plane {control['cycles_per_s']:>13,.0f} cycles/s")
    print(f" result frame  {frame['build_cells_per_s']:>10,.0f} cells/s "
          f"query {frame['query_ops_per_s']:>10,.0f} ops/s")
    print(f" replicated    {replicated['collapse_cells_per_s']:>10,.0f} "
          f"cells/s (group_by collapse)")
    print(f" streaming fold {streaming['fold_rows_per_s']:>12,.0f} rows/s "
          f"(peak {streaming['peak_resident_chunks']} chunks, "
          f"+{streaming['fold_rss_growth_mb']:g} MB RSS)")
    print(f" halving search {search['cells_per_s']:>12,.0f} cells/s "
          f"({search['candidates']} candidates, "
          f"{search['simulated']} simulated over {search['rungs']} rungs)")
    print(f" run cache      {run_cache['resident_bytes_per_cell']:>12,.1f} "
          f"bytes/cell (fig05 x{RUN_CACHE_SCALE:g}, "
          f"{run_cache['cells']} cells)")
    return {
        "bench": "engine-throughput",
        "cell": "aws/mobilenet/tf1.15/serverless",
        "seed": SEED,
        "seed_baseline_requests_per_s": SEED_BASELINE_RPS,
        "results": results,
        "check_probe": probe,
        "columnar_probe": columnar,
        "control_probe": control,
        "frame_probe": frame,
        "replicated_frame_probe": replicated,
        "fault_injection_probe": fault,
        "routing_probe": routing,
        "routed_probe": routed,
        "hybrid_probe": hybrid,
        "streaming_probe": streaming,
        "search_probe": search,
        "run_cache_probe": run_cache,
    }


def exact_gate(label: str, measured: dict, recorded: dict,
               key: str = "events") -> bool:
    """Print one exact counter gate line; True when it holds."""
    verdict = "OK" if measured[key] == recorded[key] else "REGRESSION"
    print(f"{label}: {measured[key]} (recorded {recorded[key]}, must "
          f"match) -> {verdict}")
    return verdict == "OK"


def calls_gate(label: str, calls: float, recorded: float) -> bool:
    """Print one calls-per-request gate line (at most CALLS_TOLERANCE
    above the recorded count); True when it holds."""
    limit = recorded * (1.0 + CALLS_TOLERANCE)
    verdict = "OK" if calls <= limit else "REGRESSION"
    print(f"{label} cProfile calls/request: {calls:g} (recorded "
          f"{recorded:g}, limit {limit:.2f}) -> {verdict}")
    return verdict == "OK"


def run_check(path: str) -> int:
    """CI smoke gate: fail if any probe regressed > CHECK_TOLERANCE.

    Gates both the simulation hot path (requests/s on the fixed probe
    cell) and the whole-table fold (``OutcomeSummary.of_table`` rows/s),
    plus the probe cell's counters: calendar events exactly, cProfile
    calls per request within CALLS_TOLERANCE, and
    resident table bytes per row at most the recorded value.  The
    fault-injection and hybrid probes' calendar events, the routing
    probe's breaker trips, and the search probe's simulated cells and
    rungs must match their recorded counts exactly too, the routed
    probe's calendar events exactly and its calls per request within
    CALLS_TOLERANCE (its req/s is printed, not gated), the hybrid
    probe's calls per request within CALLS_TOLERANCE, and the
    streaming probe's peak resident chunks may not exceed the recorded
    count.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            recorded = json.load(handle)
    except FileNotFoundError:
        print(f"error: no {path}; run the full benchmark first",
              file=sys.stderr)
        return 2
    reference = recorded.get("check_probe")
    if not reference:
        print(f"error: {path} has no check_probe entry", file=sys.stderr)
        return 2
    keep: list = []
    probe = run_cell(CHECK_WORKLOAD, CHECK_SCALE, repeats=2,
                     keep_result=keep)
    checks = [("engine req/s", probe["requests_per_s"],
               reference["requests_per_s"])]
    # Work counters: deterministic, so they gate far tighter than time.
    failed = not exact_gate("probe calendar events", probe, reference)
    if "calls_per_req" in reference:
        failed = not calls_gate("probe", probe_calls_per_request(),
                                reference["calls_per_req"]) or failed
    else:
        print("note: no calls_per_req recorded; rerun the full sweep "
              "to extend the gate")
    columnar_reference = recorded.get("columnar_probe")
    if columnar_reference:
        columnar = run_columnar_probe(keep[0])
        checks.append(("columnar reduce rows/s",
                       columnar["reduce_rows_per_s"],
                       columnar_reference["reduce_rows_per_s"]))
        # Memory counter: exact like the events gate (any growth in the
        # bytes a table stores per row fails).
        recorded_bytes = columnar_reference.get("resident_bytes_per_row")
        if recorded_bytes is not None:
            resident = columnar["resident_bytes_per_row"]
            verdict = "OK" if resident <= recorded_bytes else "REGRESSION"
            failed = failed or verdict != "OK"
            print(f"probe table resident bytes/row: {resident:g} "
                  f"(recorded {recorded_bytes:g}, must not exceed) "
                  f"-> {verdict}")
    else:
        print("note: no columnar_probe recorded; rerun the full sweep "
              "to extend the gate")
    control_reference = recorded.get("control_probe")
    if control_reference:
        control = run_control_probe()
        checks.append(("control-plane cycles/s",
                       control["cycles_per_s"],
                       control_reference["cycles_per_s"]))
    else:
        print("note: no control_probe recorded; rerun the full sweep "
              "to extend the gate")
    frame_reference = recorded.get("frame_probe")
    if frame_reference:
        frame = run_frame_probe(keep[0])
        checks.append(("frame build cells/s",
                       frame["build_cells_per_s"],
                       frame_reference["build_cells_per_s"]))
        checks.append(("frame query ops/s",
                       frame["query_ops_per_s"],
                       frame_reference["query_ops_per_s"]))
    else:
        print("note: no frame_probe recorded; rerun the full sweep "
              "to extend the gate")
    replicated_reference = recorded.get("replicated_frame_probe")
    if replicated_reference:
        replicated = run_replicated_frame_probe(keep[0])
        checks.append(("replicated collapse cells/s",
                       replicated["collapse_cells_per_s"],
                       replicated_reference["collapse_cells_per_s"]))
    else:
        print("note: no replicated_frame_probe recorded; rerun the full "
              "sweep to extend the gate")
    fault_reference = recorded.get("fault_injection_probe")
    if fault_reference:
        fault = run_fault_probe(repeats=2)
        failed = not exact_gate("fault-injection probe calendar events",
                                fault, fault_reference) or failed
        checks.append(("fault-injection req/s",
                       fault["requests_per_s"],
                       fault_reference["requests_per_s"]))
    else:
        print("note: no fault_injection_probe recorded; rerun the full "
              "sweep to extend the gate")
    routing_reference = recorded.get("routing_probe")
    if routing_reference:
        routing = run_routing_probe()
        failed = not exact_gate("routing probe breaker trips", routing,
                                routing_reference, "breaker_trips") or failed
        checks.append(("routing cycles/s",
                       routing["cycles_per_s"],
                       routing_reference["cycles_per_s"]))
    else:
        print("note: no routing_probe recorded; rerun the full sweep "
              "to extend the gate")
    routed_reference = recorded.get("routed_probe")
    if routed_reference:
        routed = run_routed_probe(repeats=2)
        failed = not exact_gate("routed probe calendar events", routed,
                                routed_reference) or failed
        failed = not calls_gate("routed probe", routed["calls_per_req"],
                                routed_reference["calls_per_req"]) or failed
        # Printed, not gated: wall-clock alone swings past 30% on a
        # shared host, while the two counts above are deterministic.
        print(f"routed probe req/s: {routed['requests_per_s']:,.0f} "
              f"(recorded {routed_reference['requests_per_s']:,.0f}, "
              f"not gated)")
    else:
        print("note: no routed_probe recorded; rerun the full sweep "
              "to extend the gate")
    hybrid_reference = recorded.get("hybrid_probe")
    if hybrid_reference:
        hybrid = run_hybrid_probe(repeats=2)
        failed = not exact_gate("hybrid probe calendar events", hybrid,
                                hybrid_reference) or failed
        if "calls_per_req" in hybrid_reference:
            failed = not calls_gate("hybrid probe", hybrid["calls_per_req"],
                                    hybrid_reference["calls_per_req"]
                                    ) or failed
        checks.append(("hybrid req/s",
                       hybrid["requests_per_s"],
                       hybrid_reference["requests_per_s"]))
    else:
        print("note: no hybrid_probe recorded; rerun the full sweep "
              "to extend the gate")
    search_reference = recorded.get("search_probe")
    if search_reference:
        search = run_search_probe()
        for key in ("simulated", "rungs"):
            failed = not exact_gate(f"search probe {key}", search,
                                    search_reference, key) or failed
        checks.append(("halving search cells/s",
                       search["cells_per_s"],
                       search_reference["cells_per_s"]))
    else:
        print("note: no search_probe recorded; rerun the full sweep "
              "to extend the gate")
    streaming_reference = recorded.get("streaming_probe")
    if streaming_reference:
        streaming = run_streaming_probe()
        checks.append(("streaming fold rows/s",
                       streaming["fold_rows_per_s"],
                       streaming_reference["fold_rows_per_s"]))
        # Residency gates: lower is better, so they sit outside the
        # throughput loop.  The RSS allowance is absolute (allocator
        # noise dwarfs any ratio at these sizes); the chunk gate is
        # exact — a chunk-ring leak shows up as a count, not a margin.
        rss_limit = streaming_reference["fold_rss_growth_mb"] + 64.0
        rss = streaming["fold_rss_growth_mb"]
        verdict = "OK" if rss <= rss_limit else "REGRESSION"
        failed = failed or verdict != "OK"
        print(f"streaming fold RSS growth: {rss:g} MB "
              f"(recorded {streaming_reference['fold_rss_growth_mb']:g}, "
              f"limit {rss_limit:g}) -> {verdict}")
        chunk_limit = streaming_reference["peak_resident_chunks"]
        chunks = streaming["peak_resident_chunks"]
        verdict = "OK" if chunks <= chunk_limit else "REGRESSION"
        failed = failed or verdict != "OK"
        print(f"streaming peak resident chunks: {chunks} "
              f"(recorded {streaming_reference['peak_resident_chunks']}, "
              f"limit {chunk_limit}) -> {verdict}")
    else:
        print("note: no streaming_probe recorded; rerun the full sweep "
              "to extend the gate")
    run_cache_reference = recorded.get("run_cache_probe")
    if run_cache_reference:
        failed = not exact_gate("run cache resident bytes/cell",
                                run_cache_probe(), run_cache_reference,
                                "resident_bytes_per_cell") or failed
    else:
        print("note: no run_cache_probe recorded; rerun the full sweep "
              "to extend the gate")
    for label, measured, baseline in checks:
        floor = baseline * (1.0 - CHECK_TOLERANCE)
        verdict = "OK" if measured >= floor else "REGRESSION"
        failed = failed or verdict != "OK"
        print(f"{label}: {measured:,.0f} "
              f"(recorded {baseline:,.0f}, floor {floor:,.0f}) -> {verdict}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the simulation engine's throughput.")
    parser.add_argument("--check", action="store_true",
                        help="fast CI gate: compare the probe cell against "
                             "the recorded BENCH_engine.json")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="time-compression for the sweep workloads "
                             "(1.0 = the paper's full 15-minute runs)")
    parser.add_argument("--repeats", type=int, default=2,
                        help="timing repeats per cell (best is kept)")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help="where to write / read the JSON report")
    args = parser.parse_args(argv)

    if args.check:
        return run_check(args.output)

    payload = run_sweep(args.scale, args.repeats)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
