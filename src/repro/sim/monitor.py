"""Measurement helpers used throughout the simulated platforms.

Platforms record their observable state (number of active instances, queue
lengths, cold starts, billed seconds, ...) into monitors; the analyzer in
:mod:`repro.core.analyzer` later turns them into the series the paper
plots (e.g. Figure 7 and Figure 11, "number of instances over time").
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import List, Sequence

__all__ = ["TimeSeriesMonitor", "GaugeMonitor"]


@dataclass
class TimeSeriesMonitor:
    """Records explicit ``(time, value)`` observations.

    Both series are ``array("d")``: 8 bytes per entry, where a list of
    Python floats costs about 32, and a platform's instance gauge keeps
    one entry per pool change for as long as its result lives.
    """

    name: str = ""
    times: "array[float]" = field(default_factory=lambda: array("d"))
    values: "array[float]" = field(default_factory=lambda: array("d"))

    def record(self, time: float, value: float) -> None:
        """Append an observation; times must be non-decreasing."""
        if self.times and time < self.times[-1]:
            raise ValueError("observations must be recorded in time order")
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def value_at(self, time: float) -> float:
        """The most recent value recorded at or before ``time`` (0 if none)."""
        index = bisect_right(self.times, time) - 1
        if index < 0:
            return 0.0
        return self.values[index]

    def resample(self, times: Sequence[float]) -> List[float]:
        """Step-interpolate the series onto the given time grid."""
        return [self.value_at(t) for t in times]

    def max(self) -> float:
        """Maximum observed value (0 for an empty series)."""
        return max(self.values) if self.values else 0.0


class GaugeMonitor:
    """A gauge that also keeps its full history as a time series."""

    def __init__(self, name: str = "", initial: float = 0.0):
        self.name = name
        self._value = float(initial)
        self.history = TimeSeriesMonitor(name=name)

    @property
    def value(self) -> float:
        """Current gauge value."""
        return self._value

    def set(self, time: float, value: float) -> None:
        """Set the gauge and record the change."""
        self._value = float(value)
        self.history.record(time, self._value)

    def add(self, time: float, delta: float) -> None:
        """Adjust the gauge by ``delta`` and record the change."""
        self.set(time, self._value + delta)
