"""Multi-region routing front door: failover, breakers, hedging, brownout.

PR 6 added the *injection* half of fault tolerance (crashes, outages,
cold-start storms); this module adds the *recovery* half.  A
:class:`MultiRegionPlatform` stands in front of ``region_count``
regional replicas of an ordinary serving platform — each one a full
composition of the existing control plane (`InstancePool` /
`AdmissionQueue` / `BillingMeter`) — and routes every client request
through the resilience toolkit:

* **health checking** — a :class:`BackendHealth` EWMA success/latency
  tracker per region, fed from every attempt's completion, drives the
  routing decision;
* **routing policies** — :func:`choose_priority` (first healthy region
  in configured order, deterministic failover) and
  :func:`choose_weighted` (health/latency-weighted random spread), pure
  decision functions in the style of :mod:`repro.platforms.policies`;
* **circuit breakers** — a :class:`CircuitBreaker` per region
  (closed → open → half-open) stops hammering a dead fleet after
  ``breaker_failure_threshold`` consecutive failures and re-closes via
  a single half-open probe request after ``breaker_cooldown_s``;
* **hedged requests** — once the router's streaming
  :class:`LatencyQuantile` estimate of the ``hedge_percentile`` latency
  is exceeded, a second attempt is issued on another region and the
  first successful completion wins.  The primary attempt runs inline
  in the request's process under one cancellable hedge timer, so a
  request that never hedges costs that timer and nothing else; only a
  hedge that fires starts a process of its own;
* **brownout degradation** — past a fleet-utilisation watermark the
  router serves requests from a cheaper ``brownout_model`` backend
  instead of shedding; such completions are *successes* labelled
  ``"degraded"``.

Correlated fault schedules (``outage_start_s``, ``storm_times_s``)
model a failure *domain* and strike region 0 only — surviving exactly
those is why the front door exists — while uncorrelated hazards
(``crash_mtbf_s``, ``request_error_rate``) apply to every region.

Every resilience knob lives on :class:`~repro.serving.deployment.
ServiceConfig`, so each one is a sweep axis.  All router randomness
draws from the dedicated ``router-route`` / ``router-breaker`` streams:
enabling the front door never perturbs the draws of the underlying
platforms, and runs stay bit-identical serially vs ``workers=N``.

The router keeps its own :class:`RouterMeter` conservation ledger over
*client* requests; each regional backend keeps its ledger over the
attempts routed to it.  A hedged request contributes one client-ledger
entry and two regional-ledger entries, so hedges and degraded
completions never double-count (property-tested in
``tests/test_routing.py``).
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import partial
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.platforms.base import PlatformUsage, ServingPlatform, build_platform
from repro.platforms.billing import BillingMeter
from repro.serving.deployment import Deployment
from repro.serving.outcome_table import (
    _BLOCK_COLUMNS,
    _STAGE_NAMES,
    OutcomeColumns,
)
from repro.serving.records import Stage
from repro.sim import TimeSeriesMonitor
from repro.sim.engine import Timeout

__all__ = [
    "ROUTE_STREAM",
    "BREAKER_STREAM",
    "BackendHealth",
    "CircuitBreaker",
    "LatencyQuantile",
    "BackendSnapshot",
    "choose_priority",
    "choose_weighted",
    "FrontDoorMeter",
    "RouterMeter",
    "MultiRegionPlatform",
]

#: RNG stream feeding the weighted routing policy's choice draws.
ROUTE_STREAM = "router-route"
#: RNG stream feeding circuit-breaker cooldown jitter.
BREAKER_STREAM = "router-breaker"

#: Error label of requests the router sheds because no backend admits.
CIRCUIT_OPEN_ERROR = "circuit_open"
#: Reserved error label carried by successful brownout completions.
DEGRADED_LABEL = "degraded"
#: Inter-region latency assumed for remote regions with no configured value.
DEFAULT_REGION_LATENCY_S = 0.03
#: EWMA success rate below which the priority policy prefers to fail over.
MIN_HEALTHY_SUCCESS_RATE = 0.5

#: Error strings that classify as admission rejections in the router ledger.
_REJECT_ERRORS = frozenset({"connection_refused", "throttled"})
#: Backend index of the brownout (degraded-service) backend.
_DEGRADED = -1


class BackendHealth:
    """EWMA success-rate and latency tracker for one routed backend.

    Starts optimistic (success rate 1.0) so fresh backends receive
    traffic; every completed attempt moves both trackers by
    ``health_alpha``.  Latency only updates on successes — failure
    latencies (fast sheds, timeouts) say nothing about serving speed.
    """

    __slots__ = ("alpha", "success_rate", "latency_s", "samples")

    def __init__(self, alpha: float = 0.2):
        self.alpha = alpha
        self.success_rate = 1.0
        self.latency_s = 0.0
        self.samples = 0

    def observe(self, success: bool, latency_s: float) -> None:
        """Fold one completed attempt into the trackers."""
        alpha = self.alpha
        self.samples += 1
        self.success_rate += alpha * ((1.0 if success else 0.0)
                                      - self.success_rate)
        if success:
            if self.latency_s == 0.0:
                self.latency_s = latency_s
            else:
                self.latency_s += alpha * (latency_s - self.latency_s)


class CircuitBreaker:
    """Per-backend closed → open → half-open circuit breaker.

    ``breaker_failure_threshold`` consecutive failures trip the breaker
    open; after a (jittered) ``cooldown_s`` the next routed request is
    admitted as a single half-open *probe* — its success re-closes the
    breaker, its failure re-opens it for another cooldown.  A threshold
    of 0 disables the breaker entirely (it always admits).

    Cooldown jitter draws from the dedicated ``router-breaker`` stream
    so breaker activity never perturbs other subsystems' draws.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    __slots__ = ("threshold", "cooldown_s", "rng", "state", "failures",
                 "open_until", "probe_in_flight", "trips")

    def __init__(self, threshold: int, cooldown_s: float, rng=None):
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.rng = rng
        self.state = self.CLOSED
        self.failures = 0
        self.open_until = 0.0
        self.probe_in_flight = False
        #: Number of closed/half-open → open transitions (telemetry).
        self.trips = 0

    def admits(self, now: float) -> bool:
        """Whether a request may be routed to this backend right now."""
        if self.threshold == 0 or self.state == self.CLOSED:
            return True
        if self.state == self.OPEN:
            return now >= self.open_until
        return not self.probe_in_flight

    def on_route(self, now: float) -> None:
        """Note that a request was routed here (may start the probe)."""
        if self.threshold == 0 or self.state == self.CLOSED:
            return
        if self.state == self.OPEN and now >= self.open_until:
            self.state = self.HALF_OPEN
            self.probe_in_flight = True
        elif self.state == self.HALF_OPEN:
            self.probe_in_flight = True

    def record_success(self) -> None:
        """A routed attempt succeeded: reset (re-close after a probe)."""
        self.failures = 0
        if self.state != self.CLOSED:
            self.state = self.CLOSED
            self.probe_in_flight = False

    def record_failure(self, now: float) -> None:
        """A routed attempt failed: count it, trip when over threshold."""
        if self.threshold == 0:
            return
        self.failures += 1
        if self.state == self.HALF_OPEN or self.failures >= self.threshold:
            self._trip(now)

    def _trip(self, now: float) -> None:
        cooldown = self.cooldown_s
        if self.rng is not None:
            cooldown *= self.rng.uniform(BREAKER_STREAM, 0.9, 1.1)
        self.state = self.OPEN
        self.open_until = now + cooldown
        self.failures = 0
        self.probe_in_flight = False
        self.trips += 1


class LatencyQuantile:
    """Streaming latency-percentile estimate (Robbins–Monro update).

    Tracks the ``percentile``-th latency of successful attempts without
    storing samples: each observation nudges the estimate up by
    ``step * p`` when the sample exceeds it and down by ``step * (1-p)``
    otherwise, with the step sized from the running mean.  The hedge
    timer arms only once ``min_samples`` observations have been folded
    in (``ready``), so early cold-start noise cannot trigger hedge
    storms.
    """

    __slots__ = ("q", "min_samples", "samples", "mean", "estimate")

    #: Step size as a fraction of the running-mean latency.
    STEP_FRACTION = 0.05

    def __init__(self, percentile: float, min_samples: int = 32):
        self.q = percentile / 100.0
        self.min_samples = min_samples
        self.samples = 0
        self.mean = 0.0
        self.estimate = 0.0

    def observe(self, sample: float) -> None:
        """Fold one latency observation into the estimate."""
        self.samples += 1
        self.mean += (sample - self.mean) / self.samples
        if self.samples == 1:
            self.estimate = sample
            return
        step = self.STEP_FRACTION * max(self.mean, 1e-9)
        if sample > self.estimate:
            self.estimate += step * self.q
        else:
            self.estimate -= step * (1.0 - self.q)
        if self.estimate < 0.0:
            self.estimate = 0.0

    @property
    def ready(self) -> bool:
        """Whether enough samples have accumulated to trust the estimate."""
        return self.samples >= self.min_samples

    @property
    def value(self) -> float:
        """The current percentile estimate in seconds."""
        return self.estimate


class BackendSnapshot(NamedTuple):
    """Immutable per-backend state a routing policy decides from.

    A named tuple, because the router builds one per region on every
    routing decision: built by position, it costs about a third of a
    frozen dataclass.  Keyword construction works too.
    """

    #: Region index of the backend.
    index: int
    #: Configured one-way inter-region latency to this backend.
    region_latency_s: float
    #: Whether the backend's circuit breaker currently admits traffic.
    admits: bool
    #: EWMA success rate from the health tracker.
    success_rate: float
    #: EWMA latency of successful attempts, seconds.
    latency_s: float


def choose_priority(snapshots: Sequence[BackendSnapshot],
                    min_success: float = MIN_HEALTHY_SUCCESS_RATE
                    ) -> Optional[int]:
    """First *healthy* admitting backend in region order (pure function).

    Prefers backends whose breaker admits and whose EWMA success rate
    meets ``min_success``; when none qualify, falls back to the first
    backend the breaker still admits (traffic keeps flowing while
    health recovers).  Returns ``None`` only when every breaker is
    open.
    """
    fallback = None
    for snap in snapshots:
        if not snap.admits:
            continue
        if snap.success_rate >= min_success:
            return snap.index
        if fallback is None:
            fallback = snap.index
    return fallback


def choose_weighted(snapshots: Sequence[BackendSnapshot],
                    draw: float) -> Optional[int]:
    """Health/latency-weighted choice among admitting backends.

    Weights each admitting backend by ``success_rate / (region latency
    + EWMA latency)``, then picks with the caller-supplied uniform
    ``draw`` in [0, 1) — the draw stays outside the pure function so
    the decision is unit-testable and the RNG stream stays the
    router's.  Unhealthy backends keep a small floor weight, so a
    recovered region is re-discovered without explicit probing.
    Returns ``None`` when every breaker is open.
    """
    candidates = [snap for snap in snapshots if snap.admits]
    if not candidates:
        return None
    weights: List[float] = []
    for snap in candidates:
        # The floors, without max(): the same values, NaN included.
        success = snap.success_rate
        if success < 0.01:
            success = 0.01
        latency = snap.latency_s
        if latency < 1e-3:
            latency = 1e-3
        weights.append(success / (snap.region_latency_s + latency))
    target = draw * sum(weights)
    acc = 0.0
    for snap, weight in zip(candidates, weights):
        acc += weight
        if target < acc:
            return snap.index
    return candidates[-1].index


class FrontDoorMeter(BillingMeter):
    """A front door's conservation ledger over *client* requests.

    Extends the shared 5-bucket ledger (``submitted == completed +
    failed + rejected + timed_out + shed``) with the ``rejected`` bucket
    (admission spills surfaced by a backend); :meth:`classify` puts a
    finished client request in exactly one bucket.
    """

    __slots__ = ("rejected",)

    def __init__(self) -> None:
        super().__init__()
        self.rejected = 0

    def classify(self, success: bool, error: str) -> None:
        """Put one finished client request in exactly one ledger bucket."""
        if success:
            self.completed += 1
        elif error == "timeout":
            self.timed_out += 1
        elif error == "shed" or error == CIRCUIT_OPEN_ERROR:
            self.shed += 1
        elif error in _REJECT_ERRORS:
            self.rejected += 1
        else:
            self.failed += 1


class RouterMeter(FrontDoorMeter):
    """The router's ledger: a :class:`FrontDoorMeter` plus router-only
    tallies — ``hedges`` (second attempts issued) and ``degraded``
    (brownout completions, a subset of ``completed``, never a sixth
    bucket, so hedged and degraded requests cannot double-count)."""

    __slots__ = ("hedges", "degraded")

    def __init__(self) -> None:
        super().__init__()
        self.hedges = 0
        self.degraded = 0

    def record_hedge(self) -> None:
        """Count one hedged (duplicate) attempt issued by the router."""
        self.hedges += 1

    def classify(self, success: bool, error: str,
                 degraded: bool = False) -> None:
        """Ledger one finished client request (a degraded success also
        counts as ``degraded``)."""
        super().classify(success, error)
        if success and degraded:
            self.degraded += 1

    def notes(self) -> Dict[str, float]:
        """The extended ledger as ``PlatformUsage.notes`` entries."""
        notes = self.conservation_notes(rejected=self.rejected)
        notes["hedges"] = float(self.hedges)
        notes["degraded"] = float(self.degraded)
        return notes


def _region_latencies(config) -> Tuple[float, ...]:
    """Resolve the per-region latency tuple to ``region_count`` entries.

    Region 0 defaults to 0 (the local region); remote regions inherit
    the last configured value, or ``DEFAULT_REGION_LATENCY_S`` when the
    tuple is empty.
    """
    configured = config.region_latency_s
    latencies = []
    for region in range(config.region_count):
        if region < len(configured):
            latencies.append(configured[region])
        elif region == 0:
            latencies.append(0.0)
        elif configured:
            latencies.append(configured[-1])
        else:
            latencies.append(DEFAULT_REGION_LATENCY_S)
    return tuple(latencies)


def _regional_overrides(config, region: int) -> dict:
    """Config changes that turn the router's config into one region's.

    Routing knobs reset (a region is a plain single-region platform;
    retries stay client-side against the router).  Correlated fault
    schedules — outage windows and cold-start storms model a failure
    *domain* — strike region 0 only; uncorrelated hazards (crashes,
    transient request errors) apply everywhere.
    """
    overrides = dict(
        region_count=1, region_latency_s=(), breaker_failure_threshold=0,
        hedge_percentile=0.0, brownout_watermark=0.0, brownout_model="",
        retry_attempts=1,
    )
    if region > 0:
        overrides.update(outage_start_s=None, storm_times_s=())
    return overrides


def _degraded_deployment(deployment: Deployment) -> Deployment:
    """The brownout backend: the cheap emergency pool.

    Serves ``brownout_model`` (the deployment's own model when unset)
    on an otherwise identical single-region platform, fault-free — it
    is the pool of last resort, not part of any failure domain.
    """
    config = deployment.config
    overrides = _regional_overrides(config, region=1)
    overrides.update(crash_mtbf_s=None, request_error_rate=0.0,
                     shed_watermark=0)
    model = deployment.model
    if config.brownout_model:
        from repro.models.zoo import get_model
        model = get_model(config.brownout_model)
    return replace(deployment, model=model,
                   config=config.replace(**overrides))


def _merge_gauges(monitors: Sequence[TimeSeriesMonitor]) -> TimeSeriesMonitor:
    """Sum regional instance-gauge step functions into one timeline.

    The merged series keeps ``peak_instances == max(instance_count)``
    true by construction for the router, same as for single platforms.
    """
    merged = TimeSeriesMonitor(name="router-instances")
    times = sorted({time for monitor in monitors for time in monitor.times})
    for time in times:
        merged.record(time, sum(monitor.value_at(time)
                                for monitor in monitors))
    return merged


class _AttemptRows(OutcomeColumns):
    """The rows the router's attempts run on, one per live attempt.

    Each attempt writes a row of its own, so the winner can merge into
    the client row and a losing hedge runs on undisturbed.  A row opens
    with every stage at -0.0, which no serve writes (durations are
    non-negative and ``-0.0 + x == x``): the merge tells a stage the
    attempt never entered from one it spent 0 s in.  Opening a row is
    one scalar store per column through the block's row views, not a
    slice reset per column.  The block grows on demand; closed rows are
    reused, and a row a backend holds for a late serve is reused only
    once that serve lands, its billed seconds and instance forwarded to
    the (held) client row.
    """

    __slots__ = ("client", "_free", "_fresh", "_held", "_closed", "_blank",
                 "_pairs")

    def __init__(self, client: OutcomeColumns):
        OutcomeColumns.__init__(self, 0)
        #: The client rows the router writes.
        self.client = client
        self._free: List[int] = []
        self._fresh = 0
        self._held: Set[int] = set()
        #: Held rows the router is done with -> client row (-1: none).
        self._closed: Dict[int, int] = {}

    def resize(self, rows: int) -> None:
        """Resize the block, then point the opening stores at the new
        row views."""
        OutcomeColumns.resize(self, rows)
        #: (row view, value an opened row holds) for every column but
        #: ``inferences``, which :meth:`open` sets.
        self._blank = [
            (getattr(self, name), -0.0 if name in _STAGE_NAMES else default)
            for name, (_dtype, default) in _BLOCK_COLUMNS.items()
            if name != "inferences"]
        self._pairs = None

    def stage_pairs(self) -> List[Tuple[memoryview, memoryview, bool]]:
        """Per stage: (attempt view, client view, whether the client
        value accumulates), for the views both blocks hold now.

        A resize replaces every view of its block, so the pairs are
        rebuilt after this block resized or the client's did (the chunk
        ring grows its block).
        """
        pairs = self._pairs
        client = self.client
        # Any one view tells whether the client's block was replaced.
        if pairs is None or pairs[0][1] is not client.queue_s:
            self._pairs = pairs = [
                (column, client.stages[name], name == Stage.NETWORK)
                for name, column in self.stages.items()]
        return pairs

    def open(self, inferences: int) -> int:
        """A fresh attempt row for a request of ``inferences``."""
        if self._free:
            row = self._free.pop()
        else:
            row = self._fresh
            self._fresh = row + 1
            if row == self.rows:
                self.resize(max(2 * self.rows, 16))
        for view, default in self._blank:
            view[row] = default
        self.inferences[row] = inferences
        self.errors.pop(row, None)
        return row

    def close(self, row: int, client_row: int = -1) -> None:
        """The router is done with ``row``; a late serve still pending on
        it will land in ``client_row`` (when >= 0)."""
        if row in self._held:
            self._closed[row] = client_row
            if client_row >= 0:
                self.client.hold(client_row)
        else:
            self._free.append(row)

    def hold(self, row: int) -> None:
        """A backend will write ``row`` after its attempt gave up."""
        self._held.add(row)

    def release(self, row: int) -> None:
        """The late serve landed: forward it if the router already closed
        the row, then reuse the row."""
        self._held.discard(row)
        client_row = self._closed.pop(row, None)
        if client_row is None:
            return      # still open: the router merges it
        if client_row >= 0:
            client = self.client
            client.billed_duration_s[client_row] = (
                self.billed_duration_s[row])
            instance = self.instance_id[row]
            if instance >= 0:
                client.instance_id[client_row] = instance
            client.release(client_row)
        self._free.append(row)


class _HedgeTimer(Timeout):
    """A routed request's hedge timer, carrying what its hedge needs.

    The request (``row``, payloads) and its primary backend ``index``
    ride in slots, so the timer's one callback, bound once per router,
    can start the hedge.  Once it has, ``hedge`` is the hedge attempt's
    process, ``primary_ok`` the primary's outcome once it ends before
    the hedge does (None while it runs), and ``won`` whether the hedge
    finished the client request.
    """

    __slots__ = ("index", "row", "payload_mb", "response_mb", "hedge",
                 "primary_ok", "won")


class MultiRegionPlatform(ServingPlatform):
    """A resilient routing front door over regional platform replicas.

    Built by :func:`~repro.platforms.base.build_platform` whenever
    ``config.region_count >= 2``; each region is a full platform of the
    configured kind (its own pool, queue, meter, and fault injector),
    and routed requests pay the configured one-way inter-region latency
    in each direction (recorded in the ``network`` stage).  See the
    module docstring for the resilience toolkit.
    """

    def __init__(self, env, deployment, profiles=None, rng=None):
        super().__init__(env, deployment, profiles, rng)
        config = self.config
        self._latencies = _region_latencies(config)
        #: Regional platform replicas, index = region.
        self.backends: List[ServingPlatform] = []
        for region in range(config.region_count):
            regional = deployment.with_config(
                **_regional_overrides(config, region))
            self.backends.append(
                build_platform(env, regional, self.profiles, self.rng))
        #: Brownout (degraded-service) backend; ``None`` unless enabled.
        self.degraded_backend: Optional[ServingPlatform] = None
        if config.brownout_watermark > 0.0:
            self.degraded_backend = build_platform(
                env, _degraded_deployment(deployment), self.profiles,
                self.rng)
        self.meter = RouterMeter()
        #: Per-region EWMA health trackers.
        self.health = [BackendHealth(config.health_alpha)
                       for _ in self.backends]
        #: Per-region circuit breakers.
        self.breakers = [
            CircuitBreaker(config.breaker_failure_threshold,
                           config.breaker_cooldown_s, self.rng)
            for _ in self.backends]
        self._weighted = config.routing_policy == "weighted"
        self._hedge = (config.hedge_percentile > 0.0
                       and len(self.backends) >= 2)
        self._quantile = LatencyQuantile(config.hedge_percentile,
                                         config.hedge_min_samples)
        self._watermark = config.brownout_watermark
        #: What a snapshot reads, per region: built once, not per request.
        self._regions = list(zip(range(len(self.backends)), self._latencies,
                                 self.breakers, self.health))
        #: Attempt rows every backend writes (see :meth:`bind`).
        self._attempts: Optional[_AttemptRows] = None
        #: Every hedge timer's callback, bound once.
        self._hedge_hook = self._hedge_fired

    # ------------------------------------------------------------------ API
    def bind(self, rows, commit=None) -> None:
        """The router writes the client rows; its backends write attempt
        rows."""
        super().bind(rows, commit)
        self._attempts = _AttemptRows(rows)
        for backend in self._all_backends():
            backend.bind(self._attempts)

    def start(self) -> None:
        """Start every regional backend (and the brownout backend)."""
        for backend in self._all_backends():
            backend.start()

    def finalize(self, end_time: Optional[float] = None) -> PlatformUsage:
        """Merge every backend's usage under the router's ledger.

        Costs, cold starts and billed seconds sum across backends;
        cost-breakdown and conservation-note entries are prefixed
        ``regionN.`` / ``brownout.`` so per-region ledgers stay
        auditable next to the router's client-level ledger.
        """
        usages = [(f"region{index}", backend.finalize(end_time))
                  for index, backend in enumerate(self.backends)]
        if self.degraded_backend is not None:
            usages.append(("brownout",
                           self.degraded_backend.finalize(end_time)))
        breakdown: Dict[str, float] = {}
        notes = self.meter.notes()
        for label, usage in usages:
            for key, value in usage.cost_breakdown.items():
                breakdown[f"{label}.{key}"] = value
            for key, value in usage.notes.items():
                notes[f"{label}.{key}"] = value
        notes["breaker_trips"] = float(
            sum(breaker.trips for breaker in self.breakers))
        merged = _merge_gauges([usage.instance_count for _, usage in usages])
        return PlatformUsage(
            cost=sum(usage.cost for _, usage in usages),
            cost_breakdown=breakdown,
            cold_starts=sum(usage.cold_starts for _, usage in usages),
            instances_created=sum(usage.instances_created
                                  for _, usage in usages),
            peak_instances=int(merged.max()),
            instance_count=merged,
            billed_seconds=sum(usage.billed_seconds for _, usage in usages),
            instance_seconds=sum(usage.instance_seconds
                                 for _, usage in usages),
            notes=notes,
        )

    # ------------------------------------------------------------- routing
    def _all_backends(self):
        if self.degraded_backend is None:
            return list(self.backends)
        return list(self.backends) + [self.degraded_backend]

    def _snapshots(self, now: float) -> List[BackendSnapshot]:
        return [BackendSnapshot(index, latency, breaker.admits(now),
                                health.success_rate, health.latency_s)
                for index, latency, breaker, health in self._regions]

    def _choose(self, snapshots: Sequence[BackendSnapshot],
                exclude: Optional[int] = None) -> Optional[int]:
        if exclude is not None:
            snapshots = [snap for snap in snapshots
                         if snap.index != exclude]
            if not snapshots:
                return None
        if self._weighted:
            draw = self.rng.uniform(ROUTE_STREAM, 0.0, 1.0)
            return choose_weighted(snapshots, draw)
        return choose_priority(snapshots)

    def _utilisation(self) -> float:
        """Busy fraction of the serving capacity, across all regions.

        Slot-model backends (endpoints) report worker-slot occupancy;
        backlog-model backends (serverless) report the busy fraction of
        the ready sandbox fleet, plus any backlog waiting for one.
        """
        busy = capacity = 0.0
        for backend in self.backends:
            queue = getattr(backend, "queue", None)
            workers = getattr(queue, "workers", None)
            if workers is not None:
                busy += workers.count + workers.queue_length
                capacity += max(workers.capacity, 1)
            else:
                pool = backend.pool
                busy += pool.busy + queue.backlog
                capacity += max(pool.ready, 1)
        if capacity == 0:
            return 0.0
        return busy / capacity

    def request(self, row: int, payload_mb: float, response_mb: float):
        """Route one client request through the front door."""
        self.meter.record_submitted()
        env = self.env
        degraded = False
        index: Optional[int] = None
        if (self.degraded_backend is not None
                and self._utilisation() >= self._watermark):
            degraded = True
        else:
            index = self._choose(self._snapshots(env.now))
            if index is None:
                if self.degraded_backend is not None:
                    # Brownout as last resort: every breaker is open,
                    # serve degraded instead of shedding.
                    degraded = True
                else:
                    # Shed at the front door. The yield keeps a process
                    # running this request alive past its inline first
                    # step.
                    yield 0.0
                    self._finish(row, False, CIRCUIT_OPEN_ERROR)
                    self.meter.record_shed()
                    return

        if degraded:
            final = yield from self._attempt(_DEGRADED, row, payload_mb,
                                             response_mb)
        else:
            self.breakers[index].on_route(env.now)
            if self._hedge and self._quantile.ready:
                final = yield from self._hedged(index, row, payload_mb,
                                                response_mb)
                if final < 0:
                    return      # the hedge won and finished the request
            else:
                final = yield from self._attempt(index, row, payload_mb,
                                                 response_mb)
        self._complete(row, final, degraded)

    def _complete(self, row: int, attempt: int,
                  degraded: bool = False) -> None:
        """The client request in ``row`` finishes now with ``attempt``'s
        outcome: merge it, close the attempt row, commit and ledger."""
        attempts = self._attempts
        success = attempts.success[attempt]
        if success:
            error = DEGRADED_LABEL if degraded else ""
        else:
            error = attempts.errors.get(attempt, "")
        self._merge(row, attempt)
        # A backend still serving the attempt after its deadline writes
        # its late billing into this client row.
        attempts.close(attempt, row)
        self._finish(row, success, error)
        self.meter.classify(success, error, degraded)

    def _hedged(self, index: int, row: int, payload_mb: float,
                response_mb: float):
        """Run the primary attempt inline under the hedge timer.

        The primary ending first withdraws the timer (no dead calendar
        entry).  The timer firing first starts a hedge attempt on
        another admitting backend (:meth:`_hedge_fired`), the only
        attempt that runs as a process of its own.  The first
        completion wins if it succeeded; otherwise the other attempt's
        success is preferred (a hedge doubles as a failover retry), and
        if both fail the first completion is reported.  A hedge that
        wins finishes the client request when it lands
        (:meth:`_hedge_landed`) and the primary runs on, billed by its
        region: this then returns -1 when the primary ends.  Otherwise
        it returns the attempt row to report; the other attempt's row
        closes once that attempt is over.
        """
        timer = _HedgeTimer(self.env, self._quantile.value)
        timer.callbacks.append(self._hedge_hook)
        timer.index = index
        timer.row = row
        timer.payload_mb = payload_mb
        timer.response_mb = response_mb
        timer.hedge = None
        primary = yield from self._attempt(index, row, payload_mb,
                                           response_mb)
        hedge = timer.hedge
        if hedge is None:
            # Still pending (withdrawn here), or fired with no alternate.
            timer.cancel()
            return primary
        attempts = self._attempts
        if timer.won:
            attempts.close(primary)
            return -1
        success = attempts.success[primary]
        if not hedge.is_alive:
            # The hedge landed first and failed.
            first = hedge.value
            if success:
                attempts.close(first)
                return primary
            attempts.close(primary)
            return first
        timer.primary_ok = success
        if success:
            return primary      # the hedge's row closes when it lands
        second = yield hedge
        if attempts.success[second]:
            attempts.close(primary)
            return second
        attempts.close(second)
        return primary

    def _hedge_fired(self, timer: _HedgeTimer) -> None:
        """The hedge timer fired while the primary attempt runs: start
        the hedge on another admitting backend, if one admits."""
        env = self.env
        alternate = self._choose(self._snapshots(env.now),
                                 exclude=timer.index)
        if alternate is None:
            return
        self.meter.record_hedge()
        self.breakers[alternate].on_route(env.now)
        timer.primary_ok = None
        timer.won = False
        hedge = env.process(self._attempt(alternate, timer.row,
                                          timer.payload_mb,
                                          timer.response_mb))
        hedge.callbacks.append(partial(self._hedge_landed, timer))
        timer.hedge = hedge

    def _hedge_landed(self, timer: _HedgeTimer, hedge) -> None:
        """The hedge attempt ended.  While the primary still runs, a
        success wins: the client request finishes now.  After the
        primary succeeded, the hedge's row is free.  (After the primary
        failed, :meth:`_hedged` waits for this attempt and decides.)"""
        attempt = hedge.value
        primary_ok = timer.primary_ok
        if primary_ok is None:
            if self._attempts.success[attempt]:
                timer.won = True
                self._complete(timer.row, attempt)
        elif primary_ok:
            self._attempts.close(attempt)

    def _attempt(self, index: int, row: int, payload_mb: float,
                 response_mb: float):
        """One routed attempt on an attempt row of its own; returns it.

        The attempt row starts from the client row's inference count;
        the winner's serve-side fields are merged into the client row
        and the loser of a hedge simply runs to completion and is
        discarded — its region still bills it.
        """
        env = self.env
        attempts = self._attempts
        attempt = attempts.open(self._rows.inferences[row])
        started = env.now
        if index == _DEGRADED:
            backend, latency = self.degraded_backend, 0.0
        else:
            backend, latency = self.backends[index], self._latencies[index]
        if latency > 0.0:
            attempts.network_s[attempt] += latency
            yield latency
        yield from backend.request(attempt, payload_mb, response_mb)
        if latency > 0.0:
            attempts.network_s[attempt] += latency
            yield latency
        if index != _DEGRADED:
            self._observe(index, attempts.success[attempt],
                          env.now - started)
        return attempt

    def _observe(self, index: int, success: bool, latency: float) -> None:
        """Feed one completed attempt into health, breaker, and hedging."""
        self.health[index].observe(success, latency)
        breaker = self.breakers[index]
        if success:
            breaker.record_success()
            if self._hedge:
                self._quantile.observe(latency)
        else:
            breaker.record_failure(self.env.now)

    def _merge(self, row: int, attempt: int) -> None:
        """Copy the winning attempt's serve-side fields into the client row.

        Mirrors the retry layer's stage semantics: per-attempt stages
        plain-overwrite, accumulate-style stages (network) sum across
        attempts of the same client request.  A stage the attempt never
        entered (still -0.0) leaves the client's value alone.
        """
        rows, attempts = self._rows, self._attempts
        rows.cold_start[row] = attempts.cold_start[attempt]
        rows.instance_id[row] = attempts.instance_id[attempt]
        rows.billed_duration_s[row] = attempts.billed_duration_s[attempt]
        rows.served_by[row] = attempts.served_by[attempt]
        for column, target, accumulates in attempts.stage_pairs():
            seconds = column[attempt]
            if seconds == 0.0 and math.copysign(1.0, seconds) < 0.0:
                continue
            if accumulates:
                target[row] += seconds
            else:
                target[row] = seconds
