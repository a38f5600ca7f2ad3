"""Hybrid serving: a provisioned fleet spilling burst overflow to serverless.

The paper's economic argument (Section 6, Figure 14) is a *planning*
argument: rent servers for the sustained load, pay per-request serverless
prices only for the bursts.  :class:`~repro.tools.hybrid.HybridPlanner`
answers it in closed form; this module answers it *in the simulator*, so
the two can be checked against each other (``tests/test_hybrid.py``).

A :class:`HybridServingPlatform` is a front door over two full platform
compositions built from the same deployment:

* the **provisioned** path — a fixed fleet of
  ``hybrid_provisioned_instances`` CPU servers (a
  :class:`~repro.platforms.vm.VmPlatform`: slot admission, instance-hour
  billing, autoscaling off);
* the **spill** path — an ordinary serverless deployment
  (:class:`~repro.platforms.serverless.ServerlessPlatform`: backlog
  admission, per-request billing).

Every client request is routed to exactly one path.  The decision is a
pure function of the provisioned fleet's slot occupancy: when busy slots
plus queued work reach ``hybrid_spill_watermark`` of the slot capacity,
the request spills to serverless.  Two knobs shape the spill stream —
``hybrid_max_spill_fraction`` caps the running fraction of submissions
allowed to spill (the serverless budget guard), and
``hybrid_sticky_spill_s`` keeps a spill decision sticky for a jittered
window so bursts spill as a contiguous stream instead of flapping
per-request around the watermark.

Fault schedules model what each path is actually exposed to: a
correlated outage window (``outage_start_s``) strikes the provisioned
fleet only — surviving it via spill is half the point of the hybrid —
while cold-start storms (``storm_times_s``) strike the serverless path
only (there are no sandboxes to flush on an always-on VM).  Uncorrelated
hazards (``crash_mtbf_s``, ``request_error_rate``) apply to both.

Each backend keeps its own conservation ledger over the requests routed
to it; the front door keeps a :class:`HybridMeter` ledger over client
requests and tags every outcome's ``served_by`` column (see
:mod:`repro.serving.records`), from which the run's
:class:`~repro.serving.streaming.OutcomeSummary` reports the spill
ratio and per-path latencies.  All spill randomness draws from the
dedicated ``hybrid-spill`` stream — and only when stickiness is enabled
— so hybrid runs stay bit-identical serially vs ``workers=N`` and the
backends' own draws are never perturbed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.platforms.base import PlatformUsage, ServingPlatform, build_platform
from repro.platforms.routing import FrontDoorMeter, _merge_gauges
from repro.serving.deployment import PlatformKind
from repro.serving.records import SERVED_BY_PROVISIONED, SERVED_BY_SPILL

__all__ = ["SPILL_STREAM", "HybridMeter", "HybridServingPlatform"]

#: RNG stream feeding the sticky-spill window jitter (the only hybrid
#: randomness; zero draws unless ``hybrid_sticky_spill_s`` is enabled).
SPILL_STREAM = "hybrid-spill"


class HybridMeter(FrontDoorMeter):
    """The front door's conservation ledger over client requests.

    A :class:`~repro.platforms.routing.FrontDoorMeter` plus the
    hybrid-only ``spilled`` tally — requests routed to the serverless
    path.  ``spilled`` is a routing count, never a sixth outcome bucket,
    so spilled requests cannot double-count.
    """

    __slots__ = ("spilled",)

    def __init__(self) -> None:
        super().__init__()
        self.spilled = 0

    def record_spill(self) -> None:
        """Count one request routed to the serverless spill path."""
        self.spilled += 1

    def notes(self) -> Dict[str, float]:
        """The extended ledger as ``PlatformUsage.notes`` entries."""
        notes = self.conservation_notes(rejected=self.rejected)
        notes["spilled"] = float(self.spilled)
        return notes


def _provisioned_overrides(config) -> dict:
    """Config changes that turn the hybrid config into the fleet's.

    The provisioned path is a fixed fleet of CPU servers sized by
    ``hybrid_provisioned_instances`` — autoscaling off, so the planner's
    server count is exactly what the simulation rents.  Hybrid and
    routing knobs reset (a backend is a plain single platform; retries
    stay client-side against the front door); cold-start storms cannot
    strike an always-on VM fleet.
    """
    overrides = _backend_overrides()
    overrides.update(
        platform=PlatformKind.CPU_SERVER,
        initial_instances=config.hybrid_provisioned_instances,
        max_instances=config.hybrid_provisioned_instances,
        autoscaling=False,
        storm_times_s=(),
    )
    return overrides


def _spill_overrides(config) -> dict:
    """Config changes that turn the hybrid config into the spill path's.

    The spill path is an ordinary serverless deployment.  The correlated
    outage window models the provisioned fleet's failure domain and does
    not strike the (provider-managed, many-AZ) serverless service —
    spilling through an outage is half the point of the hybrid.
    """
    overrides = _backend_overrides()
    overrides.update(
        platform=PlatformKind.SERVERLESS,
        outage_start_s=None,
    )
    return overrides


def _backend_overrides() -> dict:
    """Knob resets shared by both paths: each backend is a plain
    single-region platform with hybrid and routing knobs neutralised."""
    return dict(
        hybrid_provisioned_instances=1, hybrid_spill_watermark=0.85,
        hybrid_max_spill_fraction=1.0, hybrid_sticky_spill_s=0.0,
        region_count=1, region_latency_s=(), breaker_failure_threshold=0,
        hedge_percentile=0.0, brownout_watermark=0.0, brownout_model="",
        retry_attempts=1,
    )


class HybridServingPlatform(ServingPlatform):
    """A spill front door over a provisioned fleet and a serverless pool.

    Built by :func:`~repro.platforms.base.build_platform` whenever
    ``config.platform == PlatformKind.HYBRID`` (and, like any platform
    kind, wrapped by the multi-region router when ``region_count >= 2``).
    See the module docstring for the routing rule and the fault-domain
    asymmetry.
    """

    family = "vm"

    def __init__(self, env, deployment, profiles=None, rng=None):
        super().__init__(env, deployment, profiles, rng)
        config = self.config
        #: The fixed provisioned CPU fleet (slot admission, instance hours).
        self.provisioned_backend: ServingPlatform = build_platform(
            env, deployment.with_config(**_provisioned_overrides(config)),
            self.profiles, self.rng)
        #: The serverless spill path (backlog admission, per-request
        #: billing).
        self.spill_backend: ServingPlatform = build_platform(
            env, deployment.with_config(**_spill_overrides(config)),
            self.profiles, self.rng)
        self.meter = HybridMeter()
        self._watermark = config.hybrid_spill_watermark
        self._max_spill = config.hybrid_max_spill_fraction
        self._sticky_s = config.hybrid_sticky_spill_s
        self._sticky_until = 0.0
        # The provisioned SlotQueue, hoisted for the per-request
        # occupancy read in _should_spill.
        self._slots = self.provisioned_backend.queue.workers

    # ------------------------------------------------------------------ API
    def bind(self, rows, commit=None) -> None:
        """Both paths write the client's rows; the front door commits."""
        super().bind(rows, commit)
        self.provisioned_backend.bind(rows)
        self.spill_backend.bind(rows)

    def start(self) -> None:
        """Start both backends."""
        self.provisioned_backend.start()
        self.spill_backend.start()

    def finalize(self, end_time: Optional[float] = None) -> PlatformUsage:
        """Merge both paths' usage under the front door's ledger.

        Costs, cold starts, billed and instance seconds sum across the
        paths; cost-breakdown and conservation-note entries are prefixed
        ``provisioned.`` / ``spill.`` so each path's ledger stays
        auditable next to the front door's client-level ledger (which
        carries the ``spilled`` routing tally).
        """
        usages: List[Tuple[str, PlatformUsage]] = [
            ("provisioned", self.provisioned_backend.finalize(end_time)),
            ("spill", self.spill_backend.finalize(end_time)),
        ]
        breakdown: Dict[str, float] = {}
        notes = self.meter.notes()
        for label, usage in usages:
            for key, value in usage.cost_breakdown.items():
                breakdown[f"{label}.{key}"] = value
            for key, value in usage.notes.items():
                notes[f"{label}.{key}"] = value
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
    def _utilisation(self) -> float:
        """Slot occupancy of the provisioned fleet: busy workers plus
        queued work over slot capacity.  May exceed 1.0 — queued work
        counts, so a deep backlog reads as heavily saturated."""
        slots = self._slots
        return (slots.count + slots.queue_length) / max(slots.capacity, 1)

    def _should_spill(self) -> bool:
        """The routing decision for the request being submitted now.

        Saturation (occupancy at or past the watermark, or a still-open
        sticky window) makes the request *want* to spill; the running
        spill-fraction cap then has the last word.  The sticky window is
        (re)armed only when a non-sticky saturation reading spills, and
        its length is jittered from the dedicated ``hybrid-spill``
        stream — with stickiness off the hybrid makes zero draws.
        """
        if self._max_spill <= 0.0:
            return False
        meter = self.meter
        now = self.env.now
        sticky = self._sticky_s > 0.0 and now < self._sticky_until
        if not sticky and self._utilisation() < self._watermark:
            return False
        # Running-fraction cap, counting the request being decided: with
        # the cap at 1.0 the spill path is never budget-blocked.
        if (self._max_spill < 1.0
                and meter.spilled + 1 > self._max_spill * meter.submitted):
            return False
        if self._sticky_s > 0.0 and not sticky:
            self._sticky_until = now + self._sticky_s * self.rng.uniform(
                SPILL_STREAM, 0.9, 1.1)
        return True

    def request(self, row: int, payload_mb: float, response_mb: float):
        """Route one client request to exactly one path, then ledger it.

        Unlike the multi-region router (attempts on rows of their own,
        the winner merged back), the front door hands the *client's* row
        to the backend: exactly one backend serves each attempt and
        writes the row, so a spilled request served after its client
        gave up lands in that row too.
        """
        self.meter.record_submitted()
        rows = self._rows
        if self._should_spill():
            rows.served_by[row] = SERVED_BY_SPILL
            self.meter.record_spill()
            backend = self.spill_backend
        else:
            rows.served_by[row] = SERVED_BY_PROVISIONED
            backend = self.provisioned_backend
        yield from backend.request(row, payload_mb, response_mb)
        self.meter.classify(rows.success[row], rows.errors.get(row, ""))
        if self._commit is not None:
            self._commit(row)
