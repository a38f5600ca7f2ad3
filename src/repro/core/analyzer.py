"""Analyzer: the paper's three metrics plus figure-level derived series.

The analyzer turns a :class:`~repro.core.results.RunResult` (or several)
into the numbers the paper reports:

* headline metrics — average response latency of successful requests,
  request success ratio, and cost (Figure 5 / Table 1);
* latency and success-ratio time-series (Figures 6, 8, 9);
* cold-start / warm-up sub-stage breakdowns (Figures 10 and 14);
* instance-count time-series (Figures 7 and 11);
* comparison tables across systems.

The timeline and breakdown read per-request rows, so they raise
``ValueError`` on a streamed (trace-scale) result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.core.results import RunResult
from repro.serving.outcome_table import OutcomeTable
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


def _rows(result: RunResult, reduction: str) -> OutcomeTable:
    """The result's outcome table, for a reduction that reads its rows."""
    if result.streaming:
        raise ValueError(
            f"{reduction} reads per-request rows, but {result.label} is a "
            f"streamed result, which keeps only an OutcomeSummary")
    return result.table


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

    def comparison_table(self, results: Iterable[RunResult]) -> List[Dict[str, object]]:
        """Summaries of several runs, sorted for stable presentation."""
        rows = [self.summarize(result) for result in results]
        return sorted(rows, key=lambda row: (row["provider"], row["model"],
                                             row["workload"], row["platform"]))

    # -- timelines ------------------------------------------------------------
    def latency_timeline(self, result: RunResult,
                         bin_seconds: float = 20.0) -> List[TimelinePoint]:
        """Average latency and success ratio per time bin (Figures 6, 8, 9).

        The bins and their request / success counts are the table's
        :meth:`~repro.serving.outcome_table.OutcomeTable.success_timeline`;
        only the per-bin latency sum of the successful requests is
        computed here.  Empty bins are skipped.
        """
        table = _rows(result, "latency_timeline")
        edges, requests, successes = table.success_timeline(bin_seconds)
        success = table.success
        latency_sums = np.bincount(table.send_bins(bin_seconds)[success],
                                   weights=table.latency[success],
                                   minlength=len(edges))
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

        Masked column means over the outcome table: successful requests
        split by the ``cold_start`` flag, stage columns averaged directly.
        """
        table = _rows(result, "coldstart_breakdown")
        cold = table.success & table.cold_start
        warm = table.success & ~table.cold_start
        n_cold = int(cold.sum())
        n_warm = int(warm.sum())
        latency = table.latency

        def avg(column: np.ndarray, mask: np.ndarray, n: int) -> float:
            return float(column[mask].mean()) if n else 0.0

        return BreakdownSummary(
            cold_e2e=avg(latency, cold, n_cold),
            cold_import=avg(table.stage_column(Stage.IMPORT), cold, n_cold),
            cold_download=avg(table.stage_column(Stage.DOWNLOAD), cold, n_cold),
            cold_load=avg(table.stage_column(Stage.LOAD), cold, n_cold),
            cold_predict=avg(table.stage_column(Stage.PREDICT), cold, n_cold),
            warm_e2e=avg(latency, warm, n_warm),
            warm_predict=avg(table.stage_column(Stage.PREDICT), warm, n_warm),
            cold_requests=n_cold,
            warm_requests=n_warm,
        )

    # -- cross-run helpers -------------------------------------------------------
    def speedup(self, baseline: RunResult, improved: RunResult) -> float:
        """Latency ratio baseline / improved (">1" means improved is faster)."""
        if improved.average_latency == 0:
            return 0.0
        return baseline.average_latency / improved.average_latency
