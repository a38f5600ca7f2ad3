"""Run results: the raw material the analyzer works on.

A :class:`RunResult` carries its outcomes as one of two backends with
the same reduction API:

* a columnar :class:`~repro.serving.outcome_table.OutcomeTable`, whose
  metrics are vectorised masked reductions over its arrays
  (:meth:`OutcomeTable.to_outcomes` rebuilds per-request objects on
  demand).  :meth:`~repro.core.benchmark.ServingBenchmark.run` and
  :func:`repro.api.run` return tables, for callers that read rows;
* an :class:`~repro.serving.streaming.OutcomeSummary`.  Every cell that
  runs through the run cache (:meth:`~repro.experiments.base.
  ExperimentContext.run_specs`) is :meth:`RunResult.reduced` where it
  finishes, so the cache and the worker pipe hold a whole-table summary,
  which answers every reduction exactly as its table would.  Trace-scale
  (streaming) runs carry the online reduction of the chunks folded
  during the run; their per-request rows never exist at once.

The headline metrics delegate to whichever backend the result carries.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Tuple, Union

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
    #: Columnar per-request outcomes, or an :class:`OutcomeSummary`: the
    #: table's whole-table summary (:meth:`reduced`), or for streaming
    #: (trace-scale) runs the summary their folded chunks reduced into.
    table: Union[OutcomeTable, OutcomeSummary]
    usage: PlatformUsage
    #: Simulated wall-clock length of the experiment (last completion).
    duration_s: float
    #: Fraction of the paper's full workload that was replayed (1.0 = full).
    workload_scale: float = 1.0
    metadata: Dict[str, float] = field(default_factory=dict)

    # -- backend ---------------------------------------------------------------
    @property
    def streaming(self) -> bool:
        """True when this result carries a chunk-ring
        :class:`OutcomeSummary` (streaming reductions): neither a table
        nor a whole-table summary."""
        table = self.table
        return isinstance(table, OutcomeSummary) and table.streamed

    def reduced(self) -> "RunResult":
        """This result with its table replaced by the table's whole-table
        :class:`OutcomeSummary` (:meth:`OutcomeSummary.of_table`), or the
        result itself when it already carries a summary.  Every metric
        of the reduced result equals the original's."""
        if isinstance(self.table, OutcomeSummary):
            return self
        return replace(self, table=OutcomeSummary.of_table(self.table))

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
        (accurate to ~0.4 %); full tables compute them exactly, and a
        whole-table summary keeps its table's.
        """
        return self.table.latency_stats()

    # -- transport -------------------------------------------------------------
    def to_transport(self) -> Tuple:
        """Compact worker-to-parent payload (everything but the deployment).

        The deployment object is the one piece of a result the parent
        already holds (it shipped it to the worker in the first place),
        and the only piece that is an arbitrary object graph; everything
        else is the :meth:`reduced` result's summary, as its
        :meth:`OutcomeSummary.state` dict (whose arrays
        :mod:`repro.core.shm` may lift), and small dicts.
        """
        return (self.workload_name, self.reduced().table.state(),
                self.usage, self.duration_s, self.workload_scale,
                self.metadata)

    @classmethod
    def from_transport(cls, payload: Tuple,
                       deployment: Deployment) -> "RunResult":
        """Rebuild a result from :meth:`to_transport` plus the local deployment."""
        workload_name, state, usage, duration_s, scale, metadata = payload
        return cls(deployment=deployment, workload_name=workload_name,
                   table=OutcomeSummary.from_state(state), usage=usage,
                   duration_s=duration_s, workload_scale=scale,
                   metadata=metadata)

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
