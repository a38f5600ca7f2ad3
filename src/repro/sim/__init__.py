"""Discrete-event simulation kernel.

This package is the substrate that every simulated cloud component is
built on.  It provides a small, generator-based process model in the
spirit of SimPy:

* :class:`~repro.sim.engine.Environment` — the event loop and clock.
* :class:`~repro.sim.engine.Event` / :class:`~repro.sim.engine.Timeout` /
  :class:`~repro.sim.engine.Process` — the things a process can ``yield``
  (besides a plain non-negative number: a bare sleep).
* :class:`~repro.sim.engine.Lane` — fixed-delay guard timers raced
  against an event (request deadlines) that share one calendar slot.
* :class:`~repro.sim.engine.IdleLine` — items waiting first-in
  first-out that each expire a fixed delay after joining (keep-alives),
  with one alarm on the calendar for the oldest.
* :class:`~repro.sim.resources.Resource` — a capacity-limited pool of
  identical slots with a FIFO wait queue, used to model server workers.
* :class:`~repro.sim.monitor.TimeSeriesMonitor` and friends — measurement
  helpers used by the analyzer.
* :class:`~repro.sim.randomness.RandomStreams` — reproducible, purpose-keyed
  random number streams.

The engine is deterministic: given the same seed and the same sequence of
scheduled events it always produces the same trajectory, which is what
makes the paper's experiments reproducible in CI.
"""

from repro.sim.engine import (
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.monitor import GaugeMonitor, TimeSeriesMonitor
from repro.sim.randomness import RandomStreams
from repro.sim.resources import Request, Resource

__all__ = [
    "Environment",
    "Event",
    "GaugeMonitor",
    "Interrupt",
    "Process",
    "RandomStreams",
    "Request",
    "Resource",
    "SimulationError",
    "TimeSeriesMonitor",
    "Timeout",
]
