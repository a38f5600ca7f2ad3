"""Adaptive client-side batching (the BATCH-style policy of Section 5.5).

The paper observes that a fixed batch size trades latency for cost
roughly linearly and suggests an adaptive strategy instead: pick the
largest batch size whose expected latency penalty still fits the SLO,
given the current request rate.  :class:`AdaptiveBatchingPolicy`
implements that decision analytically (expected batch-fill time for a
Poisson arrival stream plus the batched execution time) and can also be
evaluated end-to-end on the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.benchmark import ServingBenchmark
from repro.core.planner import Planner
from repro.models.profiles import LatencyProfiles
from repro.serving.deployment import PlatformKind
from repro.workload.generator import Workload

__all__ = ["BatchDecision", "AdaptiveBatchingPolicy"]


@dataclass(frozen=True)
class BatchDecision:
    """The batch size chosen for a given request rate."""

    batch_size: int
    expected_latency_s: float
    request_rate: float

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class AdaptiveBatchingPolicy:
    """Chooses a batch size that respects a latency SLO."""

    provider: str
    model: str
    runtime: str
    latency_slo_s: float
    profiles: LatencyProfiles = field(default_factory=LatencyProfiles)
    memory_gb: float = 2.0
    candidate_sizes: Sequence[int] = (1, 2, 4, 8, 16)
    #: Number of clients the workload is split across (batch filling is
    #: per client, so the per-client rate is what matters).
    num_clients: int = 8

    def __post_init__(self) -> None:
        if self.latency_slo_s <= 0:
            raise ValueError("latency_slo_s must be positive")
        if not self.candidate_sizes:
            raise ValueError("candidate_sizes must not be empty")

    # -- analytic decision -------------------------------------------------------
    def expected_latency(self, batch_size: int, request_rate: float) -> float:
        """Expected end-to-end latency of a request at the given batch size.

        A request waits on average ``(batch_size - 1) / (2 * client_rate)``
        for its batch to fill (Poisson arrivals), then the whole batch is
        executed in one invocation (one prediction per batched sample).
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if request_rate <= 0:
            raise ValueError("request_rate must be positive")
        client_rate = request_rate / self.num_clients
        fill_wait = (batch_size - 1) / (2.0 * client_rate) if client_rate else 0.0
        predict = self.profiles.warm_predict_time(
            self.provider, self.runtime, self.model, self.memory_gb)
        handler = self.profiles.handler_overhead_s("serverless")
        return fill_wait + handler + predict * batch_size

    def decide(self, request_rate: float) -> BatchDecision:
        """The largest candidate batch size whose latency fits the SLO."""
        best = 1
        best_latency = self.expected_latency(1, request_rate)
        for size in sorted(self.candidate_sizes):
            latency = self.expected_latency(size, request_rate)
            if latency <= self.latency_slo_s:
                best, best_latency = size, latency
        return BatchDecision(batch_size=best, expected_latency_s=best_latency,
                             request_rate=request_rate)

    # -- simulation-backed evaluation ----------------------------------------------
    def evaluate(self, workload: Workload, batch_size: Optional[int] = None,
                 benchmark: Optional[ServingBenchmark] = None) -> dict:
        """Measure one batch size end-to-end on the simulator.

        Without an explicit ``batch_size`` the policy decides one from the
        workload's mean request rate.
        """
        benchmark = benchmark or ServingBenchmark(seed=7)
        if batch_size is None:
            batch_size = self.decide(max(workload.trace.mean_rate, 1e-6)).batch_size
        deployment = Planner().plan(self.provider, self.model, self.runtime,
                                    PlatformKind.SERVERLESS,
                                    memory_gb=self.memory_gb,
                                    batch_size=batch_size)
        result = benchmark.run(deployment, workload)
        return {
            "batch_size": batch_size,
            "avg_latency_s": result.average_latency,
            "success_ratio": result.success_ratio,
            "cost_usd": result.cost,
            "met_slo": result.average_latency <= self.latency_slo_s,
        }
