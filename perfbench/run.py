"""Benchmark of the serving simulator, measured from outside ``src/``.

Run from the repository root::

    python3 perfbench/run.py --workload serial-cells --seed 7 --seconds 40 --trace 0

The simulator is a batch program: each workload is a fixed input whose
simulated clients replay seeded MMPP arrival traces open-loop in
simulated time.  The benchmark therefore reports work done per
wall-clock second at a stated input size.  Simulated latency, success
ratio and cost are program outputs, checked per cell against the
digests in ``reference.json`` (recorded at seed 7 by ``record.py``).
On any other seed each cell's digest is printed so two commits can be
compared, and every repetition of a cell must reproduce the first.

``--trace 0`` prints the end-to-end metrics: ``sim_req_per_s`` (median
over repetitions of simulated requests per second of the timed run,
after one untimed warm-up run at a fifth of the scale),
``setup_s`` (median wall time of fresh processes doing everything before
the timed run) and ``peak_rss_mb``.  ``--trace 1`` does one untraced
run, one run with every layer's entry points wrapped (see ``tracing.py``)
and one cProfile pass, and prints the per-layer metrics; layers a
workload never enters read 0.  ``layers.json`` names the end-to-end
metric and workload each of them should move.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; ``attempted`` and ``failed``
count simulated cells.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, cell_digest  # noqa: E402 - needs src

REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"
DEFAULT_SEED = 7
#: Fresh processes timed per run for ``setup_s`` (median reported).
SETUP_PROBES = 5
#: Share of the workload's scale the untimed warm-up run uses.
WARMUP_SHARE = 0.2


def load_reference() -> dict:
    """The recorded per-cell digests and costs."""
    return json.loads(REFERENCE.read_text())


def metric_units(kind: str) -> Dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``."""
    spec = json.loads(SPEC.read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


class Checker:
    """Checks every cell of every run and counts attempts and failures.

    A cell fails when its run raises, when it is missing, when its
    outputs are not sane, when it differs from the reference (if one
    applies), or when it differs from the same cell in the first run.
    """

    def __init__(self, expected: Optional[Dict[str, dict]]):
        self.expected = expected
        self.first: Optional[Dict[str, Tuple[str, float]]] = None
        self.attempted = 0
        self.failed = 0

    def _fail(self, key: str, why: str) -> None:
        self.failed += 1
        print(f"perfbench: cell {key} failed: {why}", file=sys.stderr)

    def check(self, cells: List[Tuple[str, object]]) -> None:
        """Check one run's cells."""
        outputs: Dict[str, Tuple[str, float]] = {}
        for key, result in cells:
            self.attempted += 1
            try:
                output = (cell_digest(result), float(result.cost))
                sane = (result.total_requests > 0
                        and 0.0 <= result.success_ratio <= 1.0
                        and math.isfinite(output[1]) and output[1] >= 0.0)
            except Exception:  # noqa: BLE001 - a broken cell is a failure
                self._fail(key, traceback.format_exc())
                continue
            outputs[key] = output
            if not sane:
                self._fail(key, "outputs out of range")
                continue
            if self.expected is not None:
                reference = self.expected.get(key)
                if (reference is None or reference["digest"] != output[0]
                        or not math.isclose(reference["cost"], output[1],
                                            rel_tol=1e-9)):
                    self._fail(key, f"{output} differs from reference "
                                    f"{reference}")
                    continue
            if self.first is not None and self.first.get(key) != output:
                self._fail(key, f"{output} differs from the first run's "
                                f"{self.first.get(key)}")
        for key in set(self.expected or ()) - {key for key, _ in cells}:
            self.attempted += 1
            self._fail(key, "missing from the run")
        if self.first is None:
            self.first = outputs
            for key, (digest, cost) in sorted(outputs.items()):
                print(f"cell {key} digest={digest} cost={cost!r}")

    def run_failed(self) -> None:
        """Count every cell of a run that raised as failed."""
        cells = max(len(self.expected or self.first or {}), 1)
        self.attempted += cells
        self.failed += cells
        print(f"perfbench: run failed:\n{traceback.format_exc()}",
              file=sys.stderr)


def _requests(cells) -> int:
    return sum(result.total_requests for _key, result in cells)


def _peak_rss_mb(include_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def setup_probe_s(name: str, seed: int, scale_factor: float) -> float:
    """Wall time from starting a fresh process to the end of its set-up.

    The probe prints the system-wide monotonic clock when its set-up is
    done, so neither its exit nor the parent's wait is counted.
    """
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--scale-factor", repr(scale_factor),
               "--setup-probe"]
    start = time.monotonic()
    probe = subprocess.run(command, cwd=ROOT, check=True, timeout=120,
                           stdout=subprocess.PIPE, text=True)
    return float(probe.stdout.split()[-1]) - start


def _run_checked(workload, prepared, checker: Checker) -> Optional[float]:
    """One checked run; its simulated requests per second, or None if
    it raised."""
    start = time.perf_counter()
    try:
        cells = workload.run(prepared)
    except Exception:  # noqa: BLE001 - counted, the benchmark goes on
        checker.run_failed()
        return None
    wall = time.perf_counter() - start
    checker.check(cells)
    rate = _requests(cells) / wall
    del cells
    # Free the run's cyclic garbage now, so it neither lands in the next
    # run's timing nor stacks up in the peak RSS.
    gc.collect()
    return rate


def timed_run(workload, seed: int, seconds: float, scale_factor: float,
              checker: Checker) -> Dict[str, float]:
    """Repeat the workload for about ``seconds`` and report end-to-end
    metrics.  The run that ends closest to the deadline is the last,
    and at least two are timed (``seconds`` 0 times one)."""
    scale = workload.base_scale * scale_factor
    # The first run in a fresh process is markedly slower (lazy imports,
    # cold caches, allocator growth); an untimed run at a fraction of
    # the scale keeps that out of the timed runs.
    try:
        workload.run(workload.setup(seed, scale * WARMUP_SHARE))
    except Exception:  # noqa: BLE001 - counted, the benchmark goes on
        checker.run_failed()
    gc.collect()
    prepared = workload.setup(seed, scale)
    rates: List[float] = []
    setup: List[float] = []
    elapsed = last = 0.0
    runs = 0
    while runs < (2 if seconds else 1) or elapsed + last / 2 < seconds:
        runs += 1
        start = time.perf_counter()
        rate = _run_checked(workload, prepared, checker)
        last = time.perf_counter() - start
        elapsed += last
        if rate is not None:
            rates.append(rate)
        # Probes between the timed runs sample the host at several
        # moments; a probe (import and set-up only) never outgrows a
        # study worker, so it cannot raise the children's peak RSS.
        setup.append(setup_probe_s(workload.name, seed, scale_factor))
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe_s(workload.name, seed, scale_factor))
    peak = _peak_rss_mb(include_children=workload.workers > 1)
    print(f"perfbench: {len(rates)} timed runs, req/s "
          + " ".join(f"{rate:.0f}" for rate in rates), file=sys.stderr)
    return {"sim_req_per_s": statistics.median(rates) if rates else 0.0,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak}


def _output_counts(cells) -> Dict[str, float]:
    """Work counts read off the cells' outputs."""
    counts = dict.fromkeys(
        ("requests", "events", "chunks_folded", "peak_resident_chunks",
         "cold_starts", "instances", "attempts", "hedges",
         "breaker_trips", "spilled"), 0.0)
    for _key, result in cells:
        requests = result.total_requests
        counts["requests"] += requests
        metadata = result.metadata
        counts["events"] += metadata["events_processed"]
        counts["chunks_folded"] += metadata.get("chunks_folded", 0.0)
        counts["peak_resident_chunks"] = max(
            counts["peak_resident_chunks"],
            metadata.get("peak_resident_chunks", 0.0))
        counts["cold_starts"] += result.usage.cold_starts
        counts["instances"] += result.usage.instances_created
        counts["attempts"] += result.table.attempts_mean() * requests
        counts["spilled"] += result.table.spill_ratio() * requests
        counts["hedges"] += result.usage.notes.get("hedges", 0.0)
        counts["breaker_trips"] += result.usage.notes.get("breaker_trips",
                                                          0.0)
    return counts


def traced_run(workload, seed: int, scale_factor: float,
               checker: Checker) -> Dict[str, float]:
    """One cProfile pass, one untraced run, one wrapped run.

    The cProfile pass goes first and also warms the process up, so the
    untraced run (the base of ``trace.overhead`` and
    ``sim.events_per_s``) and the wrapped run both start warm.
    """
    from tracing import LayerTrace, profile_shares

    scale = workload.base_scale * scale_factor
    prepared = workload.setup(seed, scale)
    cells, calls, shares = profile_shares(
        lambda: workload.run_serial(prepared))
    checker.check(cells)
    del cells
    gc.collect()

    start = time.perf_counter()
    prepared = workload.setup(seed, scale)
    middle = time.perf_counter()
    cells = workload.run(prepared)
    untraced_run_s = time.perf_counter() - middle
    untraced_s = time.perf_counter() - start
    checker.check(cells)
    counts = _output_counts(cells)
    del cells
    gc.collect()

    trace = LayerTrace().install()
    try:
        start = time.perf_counter()
        prepared = workload.setup(seed, scale)
        cells = workload.run(prepared)
        traced_s = time.perf_counter() - start
    finally:
        trace.uninstall()
    checker.check(cells)
    del cells

    gen_s = (trace.get("workload.gen_s")
             + (workload.generation_s(prepared) or 0.0))
    requests = counts["requests"]
    run_cells_s = trace.get("parallel.run_cells_s")
    transported = trace.get("transport.cells")
    metrics = {
        "workload.gen_s": gen_s,
        "sim.events_per_req": counts["events"] / requests,
        "sim.events_per_s": counts["events"] / untraced_run_s,
        "rng.draws_per_req": trace.get("rng.draws") / requests,
        "executor.execute_s": trace.get("executor.execute_s"),
        "serving.table_s": trace.get("serving.table_s"),
        "serving.commits_per_req": trace.get("serving.commits") / requests,
        "serving.chunks_folded": counts["chunks_folded"],
        "serving.peak_resident_chunks": counts["peak_resident_chunks"],
        "platform.build_s": trace.get("platform.build_s"),
        "platform.finalize_s": trace.get("platform.finalize_s"),
        "platform.cold_starts_per_req": counts["cold_starts"] / requests,
        "platform.instances_created": counts["instances"],
        "resilience.attempts_per_req": counts["attempts"] / requests,
        "router.hedges_per_req": counts["hedges"] / requests,
        "router.breaker_trips": counts["breaker_trips"],
        "hybrid.spill_ratio": counts["spilled"] / requests,
        "study.expand_s": trace.get("study.expand_s"),
        "study.frame_s": trace.get("study.frame_s"),
        "parallel.run_cells_s": run_cells_s,
        # Cell time inside the workers over the pool's capacity.
        "parallel.efficiency": (
            trace.get("cell_s") / (workload.workers * run_cells_s)
            if run_cells_s else 0.0),
        "transport.bytes_per_cell": (
            trace.get("transport.bytes") / transported
            if transported else 0.0),
        "transport.shm_cells": trace.get("transport.shm_cells"),
        "transport.pack_s": trace.get("transport.pack_s"),
        "transport.unpack_s": trace.get("transport.unpack_s"),
        "profile.calls_per_req": calls / requests,
        "trace.overhead": traced_s / untraced_s,
    }
    metrics.update({f"profile.self_share.{name}": share
                    for name, share in shares.items()})
    return metrics


def run_benchmark(name: str, seed: int = DEFAULT_SEED, seconds: float = 10,
                  trace: bool = False, scale_factor: float = 1.0,
                  reference: Optional[dict] = None) -> dict:
    """Run one workload and return the result object the CLI prints."""
    workload = WORKLOADS[name]
    if reference is None:
        reference = load_reference()
    entry = reference["workloads"].get(name)
    scale = workload.base_scale * scale_factor
    expected = (entry["cells"] if entry is not None
                and reference["seed"] == seed and entry["scale"] == scale
                else None)
    checker = Checker(expected)
    if trace:
        values = traced_run(workload, seed, scale_factor, checker)
        units = metric_units("per_layer")
    else:
        values = timed_run(workload, seed, seconds, scale_factor, checker)
        units = metric_units("end_to_end")
    return {"correct": checker.failed == 0,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {metric: {"value": float(values[metric]),
                                 "unit": unit}
                        for metric, unit in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale-factor", type=float, default=1.0,
                        help="shrink every workload (the self-test's "
                             "tiny scale); 1 is the benchmark")
    parser.add_argument("--setup-probe", action="store_true",
                        help="only do the set-up, then exit (timed by the "
                             "parent for setup_s)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        workload.setup(args.seed, workload.base_scale * args.scale_factor)
        print(time.monotonic())
        return 0
    with shared_resource_tracker(workload.workers > 1):
        result = run_benchmark(args.workload, args.seed, args.seconds,
                               bool(args.trace), args.scale_factor)
    print(json.dumps(result))
    return 0


@contextlib.contextmanager
def shared_resource_tracker(enabled: bool):
    """Run the block with this process's shared-memory resource tracker
    up, and stop it (waiting for its exit) on the way out.

    A forked worker that creates a shared-memory segment starts a
    tracker of its own unless its parent's tracker was already running
    when it was forked; such a tracker is nobody's child and outlives
    the benchmark.  Starting it here first makes every worker share it.
    """
    if not enabled:
        yield
        return
    from multiprocessing import resource_tracker
    tracker = resource_tracker._resource_tracker
    tracker.ensure_running()
    try:
        yield
    finally:
        tracker._stop()  # closes the tracker's pipe and waits for its exit


if __name__ == "__main__":
    sys.exit(main())
