"""Declarative scenario specifications: experiment cells as data.

A :class:`ScenarioSpec` names everything one experiment cell needs —
provider, model, runtime, platform, workload, and service-config /
scaling-policy overrides — as plain data.  It is the single construction
path for cells: :meth:`~repro.experiments.base.ExperimentContext.
run_specs` resolves each spec into a cell (its deployment, its workload
at :meth:`ScenarioSpec.cell_scale`, its pinned seed) and runs the batch
through its run cache; :func:`repro.api.run`, every study and figure
experiment, and the search tools all go through it, and the analysis
tools (navigator, hybrid planner, cost estimator) resolve their
deployments from a spec.

Because platform behaviour is itself composed from the control plane
(pool / policy / queue / meter — see ARCHITECTURE.md), a *new* scenario
is configuration, not code.  The registry below ships a library of
named scenarios, including two that exist purely as data:

* ``provisioned-serverless`` — Lambda with reserved warm capacity
  (Section 5.4's provisioned-concurrency study as a standing scenario);
* ``burst-storm`` — serverless under ``w-storm``, a registered workload
  whose three short, violent demand storms are far spikier than the
  paper's w-200;

plus ``burst-storm-managed`` (the same storm against the slow-scaling
managed endpoint) and ``eager-managed`` (a managed endpoint whose
scaling *policy* is overridden to evaluate 4x faster with half the
per-instance target — policy as data).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Union

from repro.serving.deployment import Deployment, PlatformKind, ServiceConfig
from repro.workload.generator import (
    Workload,
    WorkloadSpec,
    register_workload_spec,
    standard_workload,
    workload_spec,
)

__all__ = [
    "ScenarioSpec",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "scenario_library",
]

#: The ``ServiceConfig`` knobs a spec may override (the platform is a
#: spec field of its own).
_CONFIG_KNOBS = frozenset(field.name for field in fields(ServiceConfig)
                          if field.name != "platform")


@dataclass(frozen=True)
class ScenarioSpec:
    """One experiment cell — deployment x workload x policy — as data.

    A spec is hashable, serialisable, and cheap: nothing simulates until
    it is run.  The minimal spec names a provider and a model; runtime,
    platform, workload, config overrides, and a pinned per-cell ``seed``
    all default sensibly::

        from repro.api import ScenarioSpec, run

        spec = ScenarioSpec(name="demo", provider="aws", model="mobilenet",
                            platform="serverless", workload="w-120",
                            config={"memory_gb": 4.0})
        result = run(spec, scale=0.2)
        print(result.average_latency, result.cost)

    Args (dataclass fields):
        name: Free-form identifier used in reports and registries.
        provider: Cloud provider key (``"aws"`` / ``"gcp"``).
        model: Model-zoo name (``"mobilenet"``, ``"albert"``, ``"vgg"``).
        runtime: Serving runtime key (default ``"tf1.15"``).
        platform: Platform kind (default serverless).
        workload: Standard or registered workload name (default ``"w-40"``).
        config: :class:`~repro.serving.deployment.ServiceConfig` overrides.
        description: Optional human-readable note.
        seed: Optional pinned random seed (see :meth:`with_seed`).
        fidelity: Optional short-horizon fraction (see :meth:`with_fidelity`).
    """

    name: str
    provider: str
    model: str
    runtime: str = "tf1.15"
    platform: str = PlatformKind.SERVERLESS
    workload: str = "w-40"
    #: :class:`~repro.serving.deployment.ServiceConfig` overrides
    #: (including the scaling-policy knobs ``scale_interval_s`` /
    #: ``target_per_instance``).  Accepts a mapping; stored as a sorted
    #: item tuple so specs stay hashable.
    config: Union[Mapping[str, object], Tuple[Tuple[str, object], ...]] = ()
    description: str = ""
    #: Per-cell random seed.  ``None`` (the default) means "use the
    #: runner's seed" — the :class:`~repro.core.benchmark.ServingBenchmark`
    #: / :class:`~repro.experiments.base.ExperimentContext` seed — which
    #: keeps every existing spec bit-identical to before this field
    #: existed.  A replicated sweep sets it explicitly per replicate, so
    #: the seed travels with the cell through the run cache and the
    #: worker fan-out.
    seed: Optional[int] = None
    #: Short-horizon evaluation fraction in ``(0, 1]``.  ``None`` (and
    #: the equivalent ``1.0``, normalised away) means full length; a
    #: fractional value multiplies into the runner's workload scale, so
    #: the cell replays the same request rates over a proportionally
    #: shorter trace.  The successive-halving search pins it per rung;
    #: like :attr:`seed`, it travels with the cell through the run cache
    #: and the worker fan-out.
    fidelity: Optional[float] = None

    def __post_init__(self) -> None:
        if isinstance(self.config, Mapping):
            object.__setattr__(self, "config",
                               tuple(sorted(self.config.items())))
        else:
            object.__setattr__(self, "config",
                               tuple(sorted(tuple(self.config))))
        if self.platform not in PlatformKind.ALL:
            raise ValueError(f"unknown platform {self.platform!r}")
        self._validate_names()
        if self.fidelity is not None:
            if not 0.0 < self.fidelity <= 1.0:
                raise ValueError("fidelity must be in (0, 1]")
            if self.fidelity == 1.0:
                # Full fidelity is the plain cell: normalising keeps the
                # cell_key identical to a spec that never set the field.
                object.__setattr__(self, "fidelity", None)

    def _validate_names(self) -> None:
        """Reject an unknown config knob, provider, model or runtime now,
        naming the valid choices, rather than when the cell runs.

        Workload names are checked when the cell runs: scenario modules
        register their workloads on import.
        """
        from repro.cloud.providers import get_provider
        from repro.models.zoo import get_model
        from repro.runtimes.registry import get_runtime

        unknown = sorted(key for key, _value in self.config
                         if key not in _CONFIG_KNOBS)
        if unknown:
            raise ValueError(
                f"unknown config knob(s) {', '.join(map(repr, unknown))}; "
                f"known: {sorted(_CONFIG_KNOBS)}")
        for lookup, name in ((get_provider, self.provider),
                             (get_model, self.model),
                             (get_runtime, self.runtime)):
            try:
                lookup(name)
            except KeyError as error:
                raise ValueError(error.args[0]) from None

    # -- data access ---------------------------------------------------------
    @property
    def overrides(self) -> Dict[str, object]:
        """The config overrides as a plain dict."""
        return dict(self.config)

    def __getitem__(self, key: str):
        """Mapping-style access to spec fields and config overrides."""
        if key in {f.name for f in fields(self)}:
            return getattr(self, key)
        return self.overrides[key]

    def with_config(self, **changes) -> "ScenarioSpec":
        """A copy with additional / changed config overrides."""
        return replace(self, config={**self.overrides, **changes})

    def with_seed(self, seed: Optional[int],
                  name: str = "") -> "ScenarioSpec":
        """A copy pinned to ``seed`` (``None`` unpins it again).

        The replicated-sweep expansion uses this to mint one seeded cell
        per replicate; ``name`` optionally renames the copy so replicate
        rows stay identifiable in reports.
        """
        return replace(self, seed=seed, name=name or self.name)

    def with_fidelity(self, fidelity: Optional[float],
                      name: str = "") -> "ScenarioSpec":
        """A copy pinned to a short-horizon ``fidelity`` fraction.

        ``None`` (or ``1.0``) restores the full-length cell.  The
        successive-halving search mints its rung cells through this, the
        same way replicated sweeps mint seeded cells via
        :meth:`with_seed`.
        """
        return replace(self, fidelity=fidelity, name=name or self.name)

    def cell_scale(self, scale: float) -> float:
        """The workload scale this cell runs at under a runner's ``scale``.

        ``scale`` itself, or ``scale * fidelity`` when a short-horizon
        :attr:`fidelity` is pinned.  The one place fidelity meets scale:
        :meth:`build_workload` and the experiment context's run path
        both resolve a cell's effective scale here.
        """
        return scale if self.fidelity is None else scale * self.fidelity

    @property
    def cell_key(self) -> str:
        """Stable identifier for result labelling: it names rows and
        breaks the halving search's ties.  The run cache keys by the
        resolved cell instead
        (:meth:`~repro.experiments.base.ExperimentContext.run_key`)."""
        overrides = ",".join(f"{key}={value}" for key, value in self.config)
        key = (f"{self.provider}/{self.model}/{self.runtime}/"
               f"{self.platform}/{self.workload}"
               + (f"/{overrides}" if overrides else ""))
        if self.seed is not None:
            key += f"/seed={self.seed}"
        if self.fidelity is not None:
            key += f"/fidelity={self.fidelity:g}"
        return key

    def as_row(self) -> Dict[str, object]:
        """The spec's dimensions as a flat result-table row."""
        row: Dict[str, object] = {
            "scenario": self.name,
            "provider": self.provider,
            "model": self.model,
            "runtime": self.runtime,
            "platform": self.platform,
            "workload": self.workload,
        }
        if self.seed is not None:
            row["seed"] = self.seed
        if self.fidelity is not None:
            row["fidelity"] = self.fidelity
        row.update(self.overrides)
        return row

    # -- construction --------------------------------------------------------
    def deployment(self, planner=None) -> Deployment:
        """Resolve the spec into a fully specified deployment."""
        if planner is None:
            from repro.core.planner import Planner
            planner = Planner()
        return planner.plan(self.provider, self.model, self.runtime,
                            self.platform, **self.overrides)

    def workload_spec(self) -> WorkloadSpec:
        """The referenced workload's spec (standard or registered)."""
        return workload_spec(self.workload)

    def build_workload(self, seed: Optional[int] = None,
                       scale: float = 1.0) -> Workload:
        """Generate the referenced workload at the given seed / scale.

        The spec's own :attr:`seed` wins over the caller's ``seed``
        argument (a pinned cell *is* its seed); with neither set, the
        project-wide default seed 7 applies.  The workload is generated
        at :meth:`cell_scale` of ``scale``, so a short-horizon cell
        generates the exact workload its runner will replay.
        """
        if self.seed is not None:
            seed = self.seed
        return standard_workload(self.workload,
                                 seed=7 if seed is None else seed,
                                 scale=self.cell_scale(scale))


# ---------------------------------------------------------------------------
# Scenario registry
# ---------------------------------------------------------------------------

_SCENARIOS: Dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec,
                      overwrite: bool = False) -> ScenarioSpec:
    """Add ``spec`` to the named scenario library."""
    existing = _SCENARIOS.get(spec.name)
    if existing is not None and existing != spec and not overwrite:
        raise ValueError(f"scenario {spec.name!r} is already registered "
                         f"with a different spec (pass overwrite=True)")
    _SCENARIOS[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a registered scenario by name."""
    if name not in _SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; "
                       f"known: {list_scenarios()}")
    return _SCENARIOS[name]


def list_scenarios() -> List[str]:
    """Names of every registered scenario."""
    return sorted(_SCENARIOS)


def scenario_library() -> Iterator[ScenarioSpec]:
    """Iterate over the registered scenarios."""
    for name in list_scenarios():
        yield _SCENARIOS[name]


# ---------------------------------------------------------------------------
# Built-in library
# ---------------------------------------------------------------------------

#: A burst-storm workload: three short windows of violent fast-switching
#: demand (peak 8x the w-40 high rate) separated by near-idle valleys —
#: spikier than anything in the paper, and exactly the shape serverless
#: absorbs while slow-scaling endpoints collapse.  Registered as data;
#: resolvable anywhere a standard workload name is.
BURST_STORM_WORKLOAD = register_workload_spec(WorkloadSpec(
    name="w-storm",
    high_rate=320.0,
    low_rate=4.0,
    target_requests=36_000,
    duration_s=600.0,
    burst_windows=((60.0, 120.0), (260.0, 330.0), (470.0, 540.0)),
    burst_high_dwell_s=9.0,
    burst_low_dwell_s=4.0,
))

register_scenario(ScenarioSpec(
    name="provisioned-serverless",
    provider="aws", model="mobilenet", runtime="tf1.15",
    platform=PlatformKind.SERVERLESS, workload="w-40",
    config={"provisioned_concurrency": 8},
    description="Lambda with 8 provisioned-concurrency instances: "
                "reserved-warm billing and the paradoxical extra cold "
                "starts of Section 5.4.",
))

register_scenario(ScenarioSpec(
    name="burst-storm",
    provider="aws", model="mobilenet", runtime="tf1.15",
    platform=PlatformKind.SERVERLESS, workload="w-storm",
    description="Serverless under three short demand storms (peak 320 "
                "req/s out of a 4 req/s valley).",
))

register_scenario(ScenarioSpec(
    name="burst-storm-managed",
    provider="aws", model="mobilenet", runtime="tf1.15",
    platform=PlatformKind.MANAGED_ML, workload="w-storm",
    description="The same storm against the minutes-late managed "
                "autoscaler: queue collapse instead of cold starts.",
))

#: A diurnal workload: a one-hour horizon (4x the paper's runs) with two
#: broad day-time demand plateaus separated by long near-idle valleys —
#: the shape that makes scale-*in* matter.  A fleet sized for the peaks
#: wastes most of its instance-hours unless the autoscaler retires the
#: surplus when the valley arrives.
DIURNAL_WORKLOAD = register_workload_spec(WorkloadSpec(
    name="w-diurnal",
    high_rate=60.0,
    low_rate=2.0,
    target_requests=48_000,
    duration_s=3600.0,
    burst_windows=((500.0, 1100.0), (2200.0, 2900.0)),
    burst_high_dwell_s=60.0,
    burst_low_dwell_s=15.0,
))

register_scenario(ScenarioSpec(
    name="diurnal-scalein",
    provider="aws", model="mobilenet", runtime="tf1.15",
    platform=PlatformKind.MANAGED_ML, workload="w-diurnal",
    config={"scale_in_cooldown_s": 240.0, "scale_interval_s": 120.0,
            "max_instances": 8},
    description="Managed endpoint over a one-hour diurnal workload with "
                "scale-in enabled as data: surplus idle instances retire "
                "240 s after the last scaling action, so the valleys "
                "stop billing for the peaks.",
))

# -- chaos library: declarative fault schedules as scenarios ---------------
# The fault knobs are plain ServiceConfig data, so a chaos scenario is a
# registration, not code (see docs/chaos.md).  Fault times are absolute
# simulation seconds and are *not* compressed by the workload scale, so
# these schedules sit in the first ~100 s where they fit any scale the
# test and CLI smoke runs use.

register_scenario(ScenarioSpec(
    name="chaos-crash",
    provider="aws", model="mobilenet", runtime="tf1.15",
    platform=PlatformKind.SERVERLESS, workload="w-storm",
    config={"crash_mtbf_s": 120.0, "retry_attempts": 3,
            "retry_base_delay_s": 0.1, "request_timeout_s": 60.0},
    description="Serverless under the burst storm with seeded random "
                "instance crashes (120 s mean lifetime); clients retry "
                "up to 3 times with jittered backoff.",
))

register_scenario(ScenarioSpec(
    name="chaos-outage",
    provider="aws", model="mobilenet", runtime="tf1.15",
    platform=PlatformKind.MANAGED_ML, workload="w-40",
    config={"outage_start_s": 40.0, "outage_duration_s": 30.0,
            "outage_fraction": 1.0, "shed_watermark": 1,
            "retry_attempts": 3, "retry_base_delay_s": 0.1,
            "request_timeout_s": 30.0},
    description="Managed endpoint hit by a full-fleet failure-domain "
                "outage 40 s in: load is shed while no instance is "
                "ready, then the autoscaler relaunches the fleet.",
))

register_scenario(ScenarioSpec(
    name="chaos-cold-storm",
    provider="aws", model="mobilenet", runtime="tf1.15",
    platform=PlatformKind.SERVERLESS, workload="w-40",
    config={"storm_times_s": (45.0, 90.0)},
    description="Serverless with two keep-alive flushes: every idle "
                "warm sandbox is evicted at t=45 s and t=90 s, forcing "
                "cold-start storms on the traffic that follows.",
))

register_scenario(ScenarioSpec(
    name="chaos-transient",
    provider="aws", model="mobilenet", runtime="tf1.15",
    platform=PlatformKind.SERVERLESS, workload="w-40",
    config={"request_error_rate": 0.05, "retry_attempts": 4,
            "retry_base_delay_s": 0.05, "retry_max_delay_s": 0.5},
    description="Serverless with a 5 % transient per-request error "
                "rate; 4 retry attempts push the delivered success "
                "ratio back toward one.",
))

# -- failover library: multi-region resilience as scenarios ----------------
# Routing knobs (regions, health policy, breakers, hedging, brownout) are
# ServiceConfig data like the fault knobs above, so a failover scenario is
# a chaos scenario plus routing overrides.  Correlated fault schedules
# (outages, keep-alive storms) strike region 0 only — that asymmetry is
# what gives the front door somewhere to fail over *to* (see
# docs/failover.md).

register_scenario(ScenarioSpec(
    name="failover-outage",
    provider="aws", model="mobilenet", runtime="tf1.15",
    platform=PlatformKind.MANAGED_ML, workload="w-40",
    config={"outage_start_s": 40.0, "outage_duration_s": 30.0,
            "outage_fraction": 1.0, "shed_watermark": 1,
            "retry_attempts": 3, "retry_base_delay_s": 0.1,
            "request_timeout_s": 30.0,
            "region_count": 2, "region_latency_s": (0.0, 0.03),
            "routing_policy": "priority",
            "breaker_failure_threshold": 5, "breaker_cooldown_s": 10.0},
    description="The chaos-outage schedule behind a two-region front "
                "door: when region 0's fleet dies, breakers trip and "
                "priority routing fails over to the 30 ms-remote "
                "replica instead of shedding.",
))

register_scenario(ScenarioSpec(
    name="failover-crash",
    provider="aws", model="mobilenet", runtime="tf1.15",
    platform=PlatformKind.SERVERLESS, workload="w-storm",
    config={"crash_mtbf_s": 120.0, "retry_attempts": 3,
            "retry_base_delay_s": 0.1, "request_timeout_s": 60.0,
            "region_count": 2, "region_latency_s": (0.0, 0.04),
            "routing_policy": "weighted",
            "breaker_failure_threshold": 8, "breaker_cooldown_s": 5.0,
            "hedge_percentile": 95.0},
    description="Seeded instance crashes under the burst storm, "
                "weighted-routed across two serverless regions with "
                "p95 request hedging on top of client retries.",
))

register_scenario(ScenarioSpec(
    name="failover-hedged-transient",
    provider="aws", model="mobilenet", runtime="tf1.15",
    platform=PlatformKind.SERVERLESS, workload="w-40",
    config={"request_error_rate": 0.05, "retry_attempts": 2,
            "retry_base_delay_s": 0.05, "retry_max_delay_s": 0.5,
            "region_count": 3, "region_latency_s": (0.0, 0.02, 0.05),
            "routing_policy": "weighted",
            "hedge_percentile": 90.0, "hedge_min_samples": 24},
    description="A 5 % transient error rate across three regions with "
                "aggressive p90 hedging: the second attempt races the "
                "slow or failing first one, first completion wins.",
))

register_scenario(ScenarioSpec(
    name="failover-brownout",
    provider="aws", model="albert", runtime="tf1.15",
    platform=PlatformKind.MANAGED_ML, workload="w-storm",
    config={"max_instances": 2, "shed_watermark": 4,
            "request_timeout_s": 30.0,
            "region_count": 2, "region_latency_s": (0.0, 0.03),
            "routing_policy": "priority",
            "brownout_watermark": 0.8, "brownout_model": "mobilenet"},
    description="An under-provisioned ALBERT endpoint under the storm: "
                "past 80 % fleet utilisation the front door degrades "
                "to a MobileNet variant instead of queueing or "
                "shedding (answers get worse, availability does not).",
))

# -- hybrid library: provisioned fleets spilling burst overflow -------------
# The hybrid spill knobs are ServiceConfig data like the fault and
# routing knobs above, so a hybrid scenario is a registration, not code
# (see docs/hybrid.md).  The front door routes on provisioned slot
# occupancy: these three cover the burst case the economics argument is
# about, a steady cell with a capped serverless budget, and an outage
# the spill path absorbs.

register_scenario(ScenarioSpec(
    name="hybrid-burst",
    provider="aws", model="mobilenet", runtime="tf1.15",
    platform=PlatformKind.HYBRID, workload="w-storm",
    config={"hybrid_provisioned_instances": 2,
            "hybrid_spill_watermark": 0.85,
            "hybrid_sticky_spill_s": 3.0},
    description="A two-server provisioned fleet under the burst storm: "
                "the valleys stay on the rented servers, the 320 req/s "
                "storms spill to serverless as sticky 3 s windows.",
))

register_scenario(ScenarioSpec(
    name="hybrid-steady",
    provider="aws", model="mobilenet", runtime="tf1.15",
    platform=PlatformKind.HYBRID, workload="w-120",
    config={"hybrid_provisioned_instances": 4,
            "hybrid_spill_watermark": 0.9,
            "hybrid_max_spill_fraction": 0.5},
    description="A four-server fleet sized near the w-120 base load "
                "with the serverless budget capped: at most half of all "
                "requests may spill, so saturation beyond the cap "
                "queues on the provisioned fleet instead of billing.",
))

register_scenario(ScenarioSpec(
    name="hybrid-outage",
    provider="aws", model="mobilenet", runtime="tf1.15",
    platform=PlatformKind.HYBRID, workload="w-40",
    config={"hybrid_provisioned_instances": 2,
            "hybrid_spill_watermark": 0.85,
            "outage_start_s": 40.0, "outage_duration_s": 30.0,
            "outage_fraction": 1.0, "retry_attempts": 3,
            "retry_base_delay_s": 0.1, "request_timeout_s": 30.0},
    description="The chaos-outage schedule against a hybrid front door: "
                "the outage kills the provisioned fleet only, its slot "
                "occupancy saturates, and the spill path carries the "
                "traffic until the fleet relaunches.",
))

register_scenario(ScenarioSpec(
    name="eager-managed",
    provider="aws", model="mobilenet", runtime="tf1.15",
    platform=PlatformKind.MANAGED_ML, workload="w-120",
    config={"scale_interval_s": 105.0, "target_per_instance": 2.0,
            "max_instances": 8},
    description="Managed endpoint with the scaling policy overridden as "
                "data: 4x faster evaluation, half the per-instance "
                "target, a higher ceiling.",
))
