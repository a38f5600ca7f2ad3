"""Analyzer: the paper's three metrics plus figure-level derived series.

The analyzer turns a :class:`~repro.core.results.RunResult` (or several)
into the numbers the paper reports:

* headline metrics — average response latency of successful requests,
  request success ratio, and cost (Figure 5 / Table 1);
* latency and success-ratio time-series (Figures 6, 8, 9);
* cold-start / warm-up sub-stage breakdowns (Figures 10 and 14);
* instance-count time-series (Figures 7 and 11);
* comparison tables across systems.

Every number reads the result's
:class:`~repro.serving.streaming.OutcomeSummary` (``result.table``).
The timeline and the breakdown need a whole-table summary, which
answers them exactly; on a streamed (trace-scale) result, whose
chunk-ring summary keeps no per-request rows, they raise
``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.results import RunResult
from repro.serving.records import Stage

__all__ = ["Analyzer", "TimelinePoint", "BreakdownSummary"]


@dataclass(frozen=True)
class TimelinePoint:
    """One bin of a latency / success-ratio timeline."""

    time: float
    requests: int
    average_latency: float
    success_ratio: float


@dataclass(frozen=True)
class BreakdownSummary:
    """Average sub-stage latencies, split by cold-start vs warm requests.

    Mirrors Figure 10 / Figure 14: for cold-start requests the end-to-end
    latency plus the import / download / load / predict sub-stages; for
    warm requests the end-to-end latency and the predict time.
    """

    cold_e2e: float
    cold_import: float
    cold_download: float
    cold_load: float
    cold_predict: float
    warm_e2e: float
    warm_predict: float
    cold_requests: int
    warm_requests: int

    def as_dict(self) -> Dict[str, float]:
        """The breakdown as a flat dictionary (keys match the figure labels)."""
        return {
            "E2E (cs)": self.cold_e2e,
            "import": self.cold_import,
            "download": self.cold_download,
            "load": self.cold_load,
            "predict (cs)": self.cold_predict,
            "E2E (wu)": self.warm_e2e,
            "predict (wu)": self.warm_predict,
        }


def _reject_streamed(result: RunResult, reduction: str) -> None:
    """Raise for a streamed result: ``reduction`` reads what only a
    whole-table summary keeps."""
    if result.streaming:
        raise ValueError(
            f"{reduction} reads per-request rows, but {result.label} is a "
            f"streamed result, which keeps only an OutcomeSummary")


class Analyzer:
    """Computes metrics, timelines, and breakdowns from run results."""

    # -- headline metrics -----------------------------------------------------
    def summarize(self, result: RunResult) -> Dict[str, object]:
        """The paper's three metrics plus context, as a flat dictionary."""
        stats = result.latency_stats()
        row = result.as_row()
        row.update({
            "p50_latency_s": round(stats.p50, 4),
            "p99_latency_s": round(stats.p99, 4),
            "cold_start_ratio": round(result.cold_start_ratio, 4),
        })
        return row

    # -- timelines ------------------------------------------------------------
    def latency_timeline(self, result: RunResult,
                         bin_seconds: float = 20.0) -> List[TimelinePoint]:
        """Average latency and success ratio per time bin (Figures 6, 8, 9).

        The bins and their request / success counts are the summary's
        :meth:`~repro.serving.streaming.OutcomeSummary.success_timeline`
        and the per-bin latency sums its
        :meth:`~repro.serving.streaming.OutcomeSummary.latency_sums`.
        Empty bins are skipped.
        """
        _reject_streamed(result, "latency_timeline")
        summary = result.table
        edges, requests, successes = summary.success_timeline(bin_seconds)
        latency_sums = summary.latency_sums(bin_seconds, len(edges))
        points: List[TimelinePoint] = []
        for index in np.flatnonzero(requests):
            n_requests = int(requests[index])
            n_success = int(successes[index])
            avg = latency_sums[index] / n_success if n_success else 0.0
            points.append(TimelinePoint(
                time=float(edges[index]),
                requests=n_requests,
                average_latency=float(avg),
                success_ratio=n_success / n_requests,
            ))
        return points

    def instance_timeline(self, result: RunResult,
                          bin_seconds: float = 60.0) -> List[Tuple[float, float]]:
        """Number of active instances over time (Figures 7 and 11)."""
        series = result.usage.instance_count
        if len(series) == 0:
            return []
        horizon = max(series.times[-1], result.duration_s)
        grid = np.arange(0.0, horizon + bin_seconds, bin_seconds)
        return list(zip(grid.tolist(), series.resample(grid.tolist())))

    # -- breakdowns -------------------------------------------------------------
    def coldstart_breakdown(self, result: RunResult) -> BreakdownSummary:
        """Average cold-start and warm-up sub-stages (Figures 10 and 14).

        Successful requests split by the ``cold_start`` flag, each
        stage averaged: the summary's
        :meth:`~repro.serving.streaming.OutcomeSummary.breakdown_means`,
        equal to the rows' masked column means.
        """
        _reject_streamed(result, "coldstart_breakdown")
        summary = result.table
        cold = summary.breakdown_means(cold=True)
        warm = summary.breakdown_means(cold=False)
        return BreakdownSummary(
            cold_e2e=cold["e2e"],
            cold_import=cold[Stage.IMPORT],
            cold_download=cold[Stage.DOWNLOAD],
            cold_load=cold[Stage.LOAD],
            cold_predict=cold[Stage.PREDICT],
            warm_e2e=warm["e2e"],
            warm_predict=warm[Stage.PREDICT],
            cold_requests=summary.cold_on_success,
            warm_requests=summary.success_count - summary.cold_on_success,
        )

    # -- cross-run helpers -------------------------------------------------------
    def speedup(self, baseline: RunResult, improved: RunResult) -> float:
        """Latency ratio baseline / improved (">1" means improved is faster)."""
        if improved.average_latency == 0:
            return 0.0
        return baseline.average_latency / improved.average_latency
