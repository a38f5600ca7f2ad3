"""Parallel fan-out of independent experiment cells.

Every (deployment, workload) cell of the paper's grids is an independent
simulation: :meth:`~repro.core.benchmark.ServingBenchmark.run` builds a
fresh :class:`~repro.sim.Environment` and seeds a fresh
:class:`~repro.sim.RandomStreams` from the benchmark's seed, so no state
leaks between cells.  That makes the figure matrices embarrassingly
parallel — this module fans them out over a ``ProcessPoolExecutor``.

Because each cell derives all of its randomness from its own
``(benchmark seed, workload)`` pair, parallel execution is **bit-identical**
to serial execution: the same cells produce the same traces, the same
outcomes, and the same costs regardless of worker count or completion
order (``Executor.map`` preserves submission order).

Every cell is reduced where it finishes: :func:`run_cells` returns
:meth:`~repro.core.results.RunResult.reduced` results, which keep their
whole-table :class:`~repro.serving.streaming.OutcomeSummary` and drop
their rows and the summary's row-order arrays, keeping only the SLO
and timeline answers the caller's ``reads`` declares — in the worker
before transport, or in-process right after a serial cell simulates.
No outcome table outlives its cell, and every reduction a study reads
is the summary's, exact.

Transport is kept lean in both directions:

* **parent -> worker**: the benchmark and the (deduplicated) workloads —
  the heavy shared state — ship **once per worker** via the pool
  initializer; each task payload is then just a deployment, a workload
  index, a scale, a seed and the declared reads.
* **worker -> parent**: a worker returns its reduced result, pickled,
  with the deployment dropped — the summary's fixed-size counters and
  sums, one answer per declared read, and small dicts, a few kilobytes
  whatever the run's length — and the parent re-attaches the
  deployment object it submitted.  The hand-off goes through
  :func:`repro.core.shm.pack_arrays` and
  :func:`~repro.core.shm.unpack_arrays`, looked up at call time so a
  patch of either takes effect.

If worker processes cannot be spawned (restricted sandboxes, missing
semaphores), or a worker dies mid-batch, the fan-out keeps every cell a
worker finished and reruns only the unfinished cells in-process, with a
``RuntimeWarning`` — cells are pure functions, so a rerun is always
safe and the results stay bit-identical.  A cell that raises in a
worker raises the same exception in the parent.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core import shm

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.benchmark import ServingBenchmark
    from repro.core.results import RunResult
    from repro.serving.deployment import Deployment
    from repro.workload.generator import Workload

__all__ = ["resolve_workers", "run_cells"]

#: One resolved cell: ``(deployment, workload, scale, seed)``.
Cell = Tuple["Deployment", "Workload", float, Optional[int]]

#: Worker-process state installed by the pool initializer.
_WORKER_STATE: Dict[str, object] = {}


def resolve_workers(workers: int | None) -> int:
    """Normalise a ``workers`` request to an actual worker count.

    ``None`` or ``0`` means serial; a negative value means "one worker
    per available core"; any positive value is used as-is (it is safe,
    just pointless, to exceed the core count).
    """
    if not workers:
        return 1
    if workers < 0:
        return max(os.cpu_count() or 1, 1)
    return int(workers)


def _init_worker(benchmark: "ServingBenchmark",
                 workloads: List["Workload"]) -> None:
    """Pool initializer: receive the shared state once per worker."""
    _WORKER_STATE["benchmark"] = benchmark
    _WORKER_STATE["workloads"] = workloads


def _run_cell_pooled(payload: Tuple["Deployment", int, float, object,
                                    Tuple]):
    """Worker entry point: run one cell against the initializer state."""
    deployment, workload_index, scale, seed, reads = payload
    benchmark: "ServingBenchmark" = _WORKER_STATE["benchmark"]
    workload: "Workload" = _WORKER_STATE["workloads"][workload_index]
    result = benchmark.run(deployment, workload, scale, seed=seed)
    return shm.pack_arrays(replace(result.reduced(reads), deployment=None))


def run_cells(benchmark: "ServingBenchmark",
              cells: Sequence[Cell],
              workers: int, reads: Tuple = ()) -> List["RunResult"]:
    """Run every cell, fanning out over ``workers`` processes.

    Each cell is ``(deployment, workload, scale, seed)``; a ``None``
    seed runs at the benchmark's seed.  Results come back
    :meth:`~repro.core.results.RunResult.reduced` to the answers
    ``reads`` declares (``Study.reads`` pairs), in the order of
    ``cells``, and are bit-identical to serial execution at any worker
    count.  With ``workers <= 1`` (or a single cell) everything runs
    in-process.
    """
    workers = min(resolve_workers(workers), len(cells))
    if workers <= 1:
        return [_run_serial(benchmark, cell, reads) for cell in cells]
    try:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
    except ImportError:
        return [_run_serial(benchmark, cell, reads) for cell in cells]

    # Deduplicate the shared workloads (by identity: the experiment layer
    # caches and reuses Workload objects) so each ships once per worker.
    workloads: List["Workload"] = []
    indices: Dict[int, int] = {}
    payloads: List[Tuple["Deployment", int, float, object, Tuple]] = []
    for deployment, workload, scale, seed in cells:
        index = indices.get(id(workload))
        if index is None:
            index = len(workloads)
            indices[id(workload)] = index
            workloads.append(workload)
        payloads.append((deployment, index, scale, seed, reads))

    futures = []
    failure: Optional[BaseException] = None
    try:
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_init_worker,
                                 initargs=(benchmark, workloads)) as pool:
            for payload in payloads:
                futures.append(pool.submit(_run_cell_pooled, payload))
    except (BrokenProcessPool, NotImplementedError, OSError,
            PermissionError) as exc:
        # The pool could not be created, or broke while cells were
        # still being submitted.
        failure = exc
    # The pool has shut down, so every submitted cell is settled.
    results: List[Optional["RunResult"]] = [None] * len(cells)
    error: Optional[BaseException] = None
    for index, future in enumerate(futures):
        exc = future.exception()
        if exc is None:
            results[index] = replace(shm.unpack_arrays(future.result()),
                                     deployment=cells[index][0])
        elif isinstance(exc, BrokenProcessPool):
            failure = failure or exc
        elif error is None:
            error = exc
    if error is not None:
        raise error
    unfinished = [index for index, result in enumerate(results)
                  if result is None]
    if unfinished:
        # A worker died mid-batch (or never started).  Cells are pure,
        # so rerunning the unfinished ones in-process cannot change
        # results — but say so, because the serial rerun can be much
        # slower than the user asked for.
        warnings.warn(f"worker pool unavailable ({failure!r}); running "
                      f"{len(unfinished)} of {len(cells)} cells serially",
                      RuntimeWarning, stacklevel=2)
        for index in unfinished:
            results[index] = _run_serial(benchmark, cells[index], reads)
    return results


def _run_serial(benchmark: "ServingBenchmark", cell: Cell,
                reads: Tuple) -> "RunResult":
    deployment, workload, scale, seed = cell
    return benchmark.run(deployment, workload, scale,
                         seed=seed).reduced(reads)
