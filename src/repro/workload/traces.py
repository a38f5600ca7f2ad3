"""Arrival traces: the fundamental workload data structure.

An :class:`ArrivalTrace` is an ordered sequence of request arrival times
(seconds from the start of the experiment).  Everything downstream — the
splitter, the executor, the analyzer's time-series — operates on traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

__all__ = ["ArrivalTrace"]


@dataclass
class ArrivalTrace:
    """A sorted sequence of request arrival times."""

    times: np.ndarray
    name: str = ""
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        if self.times.ndim != 1:
            raise ValueError("arrival times must be one-dimensional")
        if self.times.size and np.any(np.diff(self.times) < 0):
            raise ValueError("arrival times must be sorted")
        if self.times.size and self.times[0] < 0:
            raise ValueError("arrival times must be non-negative")

    # -- basic properties ---------------------------------------------------
    def __len__(self) -> int:
        return int(self.times.size)

    def __iter__(self):
        return iter(self.times.tolist())

    @property
    def count(self) -> int:
        """Number of requests in the trace."""
        return len(self)

    @property
    def duration(self) -> float:
        """Time of the last arrival (0 for an empty trace)."""
        return float(self.times[-1]) if self.times.size else 0.0

    @property
    def mean_rate(self) -> float:
        """Average request rate over the trace duration."""
        if self.times.size < 2 or self.duration == 0:
            return 0.0
        return self.count / self.duration

    # -- derived series -----------------------------------------------------
    def rate_series(self, bin_seconds: float = 1.0,
                    duration: float | None = None) -> Tuple[np.ndarray, np.ndarray]:
        """Request rate per ``bin_seconds`` bin: ``(bin_start_times, rates)``.

        This is the series plotted in Figure 4 of the paper.
        """
        if bin_seconds <= 0:
            raise ValueError("bin_seconds must be positive")
        horizon = duration if duration is not None else self.duration
        if horizon <= 0:
            if not self.times.size:
                return np.array([]), np.array([])
            # All arrivals at t=0: one bin still has to report them.
            horizon = bin_seconds
        edges = np.arange(0.0, max(horizon, bin_seconds) + bin_seconds,
                          bin_seconds)
        counts, _ = np.histogram(self.times, bins=edges)
        return edges[:-1], counts / bin_seconds

    def peak_rate(self, bin_seconds: float = 1.0) -> float:
        """Maximum request rate observed over any bin."""
        _, rates = self.rate_series(bin_seconds)
        return float(rates.max()) if rates.size else 0.0

    def summary(self) -> dict:
        """A small dictionary of descriptive statistics."""
        return {
            "name": self.name,
            "requests": self.count,
            "duration_s": round(self.duration, 3),
            "mean_rate": round(self.mean_rate, 3),
            "peak_rate_1s": round(self.peak_rate(1.0), 3),
        }
