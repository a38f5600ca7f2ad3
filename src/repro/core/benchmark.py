"""ServingBenchmark: the one-call façade over the evaluation framework.

Typical use::

    from repro import Planner, ServingBenchmark, standard_workload

    planner = Planner()
    deployment = planner.plan("aws", "mobilenet", "tf1.15", "serverless")
    workload = standard_workload("w-40", scale=0.2)

    bench = ServingBenchmark(seed=7)
    result = bench.run(deployment, workload)
    print(result.average_latency, result.success_ratio, result.cost)

:meth:`ServingBenchmark.run` runs one already-resolved cell.  Declarative
cells (:class:`~repro.core.scenario.ScenarioSpec`) resolve and run
through :meth:`~repro.experiments.base.ExperimentContext.run_specs`
(:func:`repro.api.run` for one spec), which fans the cells out over
:func:`repro.core.parallel.run_cells`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.executor import Executor
from repro.core.results import RunResult
from repro.models.profiles import LatencyProfiles
from repro.platforms.base import build_platform
from repro.serving.deployment import Deployment
from repro.serving.outcome_table import OutcomeRecorder
from repro.serving.streaming import DEFAULT_CHUNK_ROWS, ChunkedOutcomeRecorder
from repro.sim import Environment, RandomStreams
from repro.workload.generator import Workload
from repro.workload.requests import RequestPool

__all__ = ["ServingBenchmark"]


@dataclass
class ServingBenchmark:
    """Runs (deployment, workload) experiments on the simulated cloud."""

    seed: int = 7
    profiles: LatencyProfiles = field(default_factory=LatencyProfiles)
    #: Extra simulated time after the last arrival to let requests drain.
    drain_timeout_s: float = 400.0
    #: Random-stream block size (None = RandomStreams' default; 1 disables
    #: buffering).  Any value yields bit-identical draws — the knob exists
    #: for the determinism tests that prove exactly that.
    rng_block_size: Optional[int] = None
    #: Request count at or above which a cell records outcomes through the
    #: streaming chunk ring (flat RSS) instead of one preallocated table.
    #: Workloads that declare themselves streamed always stream.  Every
    #: registered workload below trace scale sits far under the default,
    #: so existing cells keep the bit-identical preallocated fast path.
    streaming_threshold: int = 500_000
    #: Rows per column chunk on the streaming path.
    chunk_rows: int = DEFAULT_CHUNK_ROWS

    def run(self, deployment: Deployment, workload: Workload,
            workload_scale: float = 1.0,
            seed: Optional[int] = None) -> RunResult:
        """Run one experiment and return its result.

        ``seed`` overrides the benchmark's own seed for this cell only —
        the replication path: a replicate cell carries its seed through
        the run cache and the worker pool, and ``seed=self.seed`` is
        bit-identical to passing nothing.
        """
        if seed is None:
            seed = self.seed
        if getattr(workload, "streamed", False):
            # A streamed workload is an immutable description; each run
            # opens its own generation session (blocks are drawn lazily).
            workload = workload.open()
        env = Environment()
        rng = RandomStreams(seed, block_size=self.rng_block_size)
        platform = build_platform(env, deployment, self.profiles, rng)
        pool = RequestPool(
            sample_payload_mb=deployment.model.input_payload_mb,
            pool_size=workload.spec.request_pool_size,
            seed=seed,
        )
        total_requests = sum(len(trace)
                             for trace in workload.client_traces)
        streaming = (getattr(workload, "streamed", False)
                     or total_requests >= self.streaming_threshold)
        if streaming:
            recorder = ChunkedOutcomeRecorder(
                chunk_rows=self.chunk_rows,
                seal_lag_s=self.drain_timeout_s + 50.0,
            )
        else:
            recorder = OutcomeRecorder(total_requests)
        executor = Executor(env=env, platform=platform, workload=workload,
                            request_pool=pool, rng=rng, recorder=recorder)
        horizon = workload.spec.duration_s + self.drain_timeout_s
        executor.execute(until=horizon)
        end_time = max(executor.last_completion_time, workload.trace.duration)
        usage = platform.finalize(end_time=end_time)
        metadata = {"events_processed": float(env.events_processed),
                    "rng_draws": float(rng.draws)}
        if streaming:
            # Fold the tail (failing still-open requests at the horizon,
            # exactly like fail_unfinished on the full path).
            table = recorder.finalize(horizon)
            metadata["peak_resident_chunks"] = float(
                recorder.peak_resident_chunks)
            metadata["chunks_folded"] = float(table.chunks_folded)
        else:
            table = recorder.table()
            # Requests still open when the horizon was reached failed,
            # in bulk.
            table.fail_unfinished(horizon)
        return RunResult(
            deployment=deployment,
            workload_name=workload.name,
            table=table,
            usage=usage,
            duration_s=end_time,
            workload_scale=workload_scale,
            metadata=metadata,
        )
