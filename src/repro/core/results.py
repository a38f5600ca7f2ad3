"""Run results: the raw material the analyzer works on.

Every metric of a :class:`RunResult` reads one
:class:`~repro.serving.streaming.OutcomeSummary`, :attr:`RunResult.table`:

* :meth:`~repro.core.benchmark.ServingBenchmark.run` (and
  :func:`repro.api.run`) folds it from the run's per-request rows
  (:meth:`OutcomeSummary.of_table`) and keeps the rows, an
  :class:`~repro.serving.outcome_table.OutcomeTable`, in
  :attr:`RunResult.rows` for callers that read them;
* every cell that runs through the run cache (:meth:`~repro.experiments.
  base.ExperimentContext.run_specs`) is :meth:`RunResult.reduced` where
  it finishes, so the cache and the worker pipe hold its summary alone,
  and of the summary's row-order arrays only the answers its studies
  declare (:attr:`~repro.core.study.Study.reads`); a pooled cell
  crosses the pipe as that reduced result, pickled, with its
  :attr:`~RunResult.deployment` set to None, and the parent re-attaches
  the deployment it submitted;
* trace-scale (streaming) runs carry the summary of the chunks folded
  during the run; their per-request rows never exist at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Optional, Tuple

from repro.core.metrics import LatencyStats
from repro.platforms.base import PlatformUsage
from repro.serving.deployment import Deployment
from repro.serving.outcome_table import OutcomeTable
from repro.serving.streaming import OutcomeSummary

__all__ = ["RunResult"]


@dataclass
class RunResult:
    """Everything produced by one (deployment, workload) experiment."""

    deployment: Deployment
    workload_name: str
    #: The run's summary: folded from :attr:`rows`, or for streaming
    #: (trace-scale) runs the summary their folded chunks reduced into.
    table: OutcomeSummary
    usage: PlatformUsage
    #: Simulated wall-clock length of the experiment (last completion).
    duration_s: float
    #: Fraction of the paper's full workload that was replayed (1.0 = full).
    workload_scale: float = 1.0
    metadata: Dict[str, float] = field(default_factory=dict)
    #: The run's per-request rows (``ServingBenchmark.run`` keeps them);
    #: None on chunk-ring, cached and shipped results.
    rows: Optional[OutcomeTable] = None

    @property
    def streaming(self) -> bool:
        """True when :attr:`table` is a chunk-ring summary (streaming
        reductions), not a whole-table one."""
        return self.table.streamed

    def reduced(self, reads: Iterable[Tuple[str, float]] = ()
                ) -> "RunResult":
        """This result without its :attr:`rows`, its summary
        :meth:`~repro.serving.streaming.OutcomeSummary.reduced` to the
        answers ``reads`` declares: every metric and every declared
        answer equals the original's."""
        return replace(self, rows=None, table=self.table.reduced(reads))

    # -- headline metrics -----------------------------------------------------
    @property
    def total_requests(self) -> int:
        """Number of client requests issued."""
        return self.table.count

    @property
    def success_ratio(self) -> float:
        """Fraction of requests that succeeded (the paper's SR metric)."""
        return self.table.success_ratio

    @property
    def average_latency(self) -> float:
        """Mean end-to-end latency of the *successful* requests (paper metric)."""
        return self.table.average_latency

    @property
    def cost(self) -> float:
        """Total cost of the experiment in dollars."""
        return self.usage.cost

    @property
    def cold_start_ratio(self) -> float:
        """Fraction of successful requests served by a cold instance."""
        return self.table.cold_start_ratio

    def latency_stats(self) -> LatencyStats:
        """Distributional statistics over successful-request latencies.

        Streaming results serve quantiles from the latency sketch
        (accurate to ~0.4 %); a whole-table summary keeps its rows' exact
        statistics.
        """
        return self.table.latency_stats()

    # -- presentation ---------------------------------------------------------
    @property
    def label(self) -> str:
        """Short identifier: deployment label plus workload name."""
        return f"{self.deployment.label}@{self.workload_name}"

    def as_row(self) -> Dict[str, object]:
        """A flat dictionary suitable for result tables."""
        return {
            "provider": self.deployment.provider.name,
            "platform": self.deployment.config.platform,
            "model": self.deployment.model.name,
            "runtime": self.deployment.runtime.key,
            "workload": self.workload_name,
            "requests": self.total_requests,
            "avg_latency_s": round(self.average_latency, 4),
            "success_ratio": round(self.success_ratio, 4),
            "cost_usd": round(self.cost, 4),
            "cold_starts": self.usage.cold_starts,
            "instances": self.usage.instances_created,
            "workload_scale": self.workload_scale,
        }
