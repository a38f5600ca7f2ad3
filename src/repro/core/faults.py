"""Deterministic fault injection: chaos specs and the injector engine.

The paper evaluates every serving platform under clean conditions; the
ROADMAP's production north-star needs the opposite — how does each
platform behave when instances crash, a failure domain goes dark, or a
cold-start storm flushes every warm sandbox?  This module provides the
declarative layer (:class:`FaultSpec`, :class:`OutageWindow`,
:class:`RetryPolicy`) and the engine process (:class:`FaultInjector`)
that drives injections through the simulation calendar.

Determinism is the design constraint.  Every fault decision draws from
*dedicated* named :class:`~repro.sim.randomness.RandomStreams` streams
(``fault-crash``, ``fault-domain``, ``fault-request``,
``retry-backoff``) so that a run with every fault knob at its default is
bit-identical to a run of a build without this module at all, and a run
*with* faults is reproducible across worker counts: the same seed gives
the same crash times, the same doomed instances, and the same backoff
delays whether cells run serially or fanned out.

The spec travels as plain data on
:class:`~repro.serving.deployment.ServiceConfig`, which makes every
fault knob a sweepable axis: ``Sweep(axes={"crash_mtbf_s": (60, 120)})``
grids over hazard rates exactly like it grids over memory sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.sim import Environment, RandomStreams

__all__ = ["OutageWindow", "FaultSpec", "RetryPolicy", "FaultInjector",
           "CRASH_STREAM", "DOMAIN_STREAM", "REQUEST_FAULT_STREAM",
           "BACKOFF_STREAM"]

#: Stream feeding per-instance crash lifetimes (exponential hazard).
CRASH_STREAM = "fault-crash"
#: Stream assigning instances to the outage failure domain.
DOMAIN_STREAM = "fault-domain"
#: Stream deciding transient per-request errors.
REQUEST_FAULT_STREAM = "fault-request"
#: Stream jittering retry backoff delays.
BACKOFF_STREAM = "retry-backoff"


@dataclass(frozen=True)
class OutageWindow:
    """A correlated failure-domain outage: a start, a duration, a blast radius.

    Instances are assigned to the failure domain with probability
    ``fraction`` (one ``fault-domain`` draw per launch).  At
    ``start_s`` every assigned instance is killed; instances launched
    *during* the window that land in the domain die immediately, which
    models a zone that stays dark rather than a one-shot kill.
    """

    #: Simulated second the domain goes dark.
    start_s: float
    #: How long the domain stays dark, seconds.
    duration_s: float
    #: Fraction of the fleet living in the failed domain (0..1].
    fraction: float = 1.0

    @property
    def end_s(self) -> float:
        """Simulated second the domain comes back."""
        return self.start_s + self.duration_s


@dataclass(frozen=True)
class FaultSpec:
    """Declarative chaos schedule for one deployment (all knobs optional).

    Built from a :class:`~repro.serving.deployment.ServiceConfig` via
    :meth:`from_config`; a config with every fault knob at its default
    yields ``None`` so the no-fault hot path never consults the spec.
    """

    #: Mean time between crashes per instance (exponential hazard);
    #: ``None`` disables crash injection.
    crash_mtbf_s: Optional[float] = None
    #: Correlated failure-domain outage, or ``None``.
    outage: Optional[OutageWindow] = None
    #: Simulated seconds at which a cold-start storm flushes every idle
    #: keep-alive sandbox (serverless platforms only).
    storm_times_s: Tuple[float, ...] = ()
    #: Probability a request fails at admission with a transient error.
    request_error_rate: float = 0.0

    @classmethod
    def from_config(cls, config) -> Optional["FaultSpec"]:
        """The config's fault knobs as a spec, or ``None`` when all are off."""
        outage = None
        if config.outage_start_s is not None:
            outage = OutageWindow(start_s=config.outage_start_s,
                                  duration_s=config.outage_duration_s,
                                  fraction=config.outage_fraction)
        spec = cls(crash_mtbf_s=config.crash_mtbf_s,
                   outage=outage,
                   storm_times_s=tuple(config.storm_times_s),
                   request_error_rate=config.request_error_rate)
        return spec if spec.active else None

    @property
    def active(self) -> bool:
        """Whether any fault mechanism is configured."""
        return (self.crash_mtbf_s is not None
                or self.outage is not None
                or bool(self.storm_times_s)
                or self.request_error_rate > 0.0)


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side resilience: capped exponential backoff with full jitter.

    ``attempts`` is the *total* number of tries (1 = no retry).  The
    delay before retry ``k`` (1-based) is drawn uniformly from
    ``[0, min(max_delay_s, base_delay_s * 2**(k-1))]`` — AWS-style full
    jitter — on the dedicated ``retry-backoff`` stream, so enabling
    retries never perturbs any other draw in the run.
    """

    #: Total attempts per request, including the first (>= 1).
    attempts: int = 1
    #: Backoff base: the cap of the first retry's jitter window, seconds.
    base_delay_s: float = 0.05
    #: Ceiling on the exponential backoff window, seconds.
    max_delay_s: float = 1.0

    @classmethod
    def from_config(cls, config) -> Optional["RetryPolicy"]:
        """The config's retry knobs as a policy, or ``None`` when off."""
        if config.retry_attempts <= 1:
            return None
        return cls(attempts=config.retry_attempts,
                   base_delay_s=config.retry_base_delay_s,
                   max_delay_s=config.retry_max_delay_s)

    def backoff(self, rng: RandomStreams, attempt: int) -> float:
        """Jittered delay before the retry following ``attempt`` (1-based)."""
        window = min(self.max_delay_s,
                     self.base_delay_s * (2.0 ** (attempt - 1)))
        return rng.uniform(BACKOFF_STREAM, 0.0, window)


class FaultInjector:
    """Drives a :class:`FaultSpec` through the simulation calendar.

    The injector is platform-agnostic: the owning platform hands it a
    ``kill`` callable (take this instance down now, aborting or
    re-queueing its in-flight work per the platform's admission model)
    and optionally a ``flush`` callable (reclaim every idle keep-alive
    sandbox — the cold-start storm).  The platform calls :meth:`watch`
    once per launched instance; the injector draws that instance's fate
    up front from the dedicated fault streams and schedules the kills as
    ordinary calendar entries.

    Kill timers are fire-and-forget: each callback re-checks
    ``instance.alive`` so a timer for an instance that already retired
    (or was killed by an earlier fault) is a no-op, and platforms
    de-register their kill targets before interrupting so coinciding
    faults can never interrupt the same process twice.
    """

    __slots__ = ("env", "spec", "rng", "_kill", "_flush")

    def __init__(self, env: Environment, spec: FaultSpec, rng: RandomStreams,
                 kill: Callable, flush: Optional[Callable] = None):
        self.env = env
        self.spec = spec
        self.rng = rng
        self._kill = kill
        self._flush = flush

    def start(self) -> None:
        """Launch the schedule-driven processes (storms)."""
        if self.spec.storm_times_s and self._flush is not None:
            self.env.process(self._storm_loop())

    def watch(self, instance) -> None:
        """Draw and schedule the fate of one freshly launched instance."""
        spec = self.spec
        if spec.crash_mtbf_s is not None:
            lifetime = self.rng.exponential(CRASH_STREAM, spec.crash_mtbf_s)
            self._schedule_kill(instance, lifetime)
        outage = spec.outage
        if outage is not None:
            doomed = (self.rng.uniform(DOMAIN_STREAM, 0.0, 1.0)
                      < outage.fraction)
            if doomed:
                now = self.env.now
                if now < outage.start_s:
                    self._schedule_kill(instance, outage.start_s - now)
                elif now < outage.end_s:
                    self._schedule_kill(instance, 0.0)

    # -- internal ----------------------------------------------------------
    def _schedule_kill(self, instance, delay_s: float) -> None:
        timer = self.env.timeout(delay_s)
        timer.callbacks.append(
            lambda _event, instance=instance: self._maybe_kill(instance))

    def _maybe_kill(self, instance) -> None:
        if instance.alive:
            self._kill(instance)

    def _storm_loop(self):
        for at in sorted(self.spec.storm_times_s):
            delay = at - self.env.now
            if delay > 0:
                yield delay
            self._flush()
