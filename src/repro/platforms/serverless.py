"""Simulated serverless (FaaS) model serving: AWS Lambda / Cloud Functions.

The model follows Section 2.3 of the paper.  Requests reach the serverless
proxy; the proxy hands each request to a warm idle instance if one exists,
otherwise the request waits while the platform scales out.  A new instance
runs the cold-start pipeline — sandbox setup (occasionally including a
container-image pull), runtime import, model download from object storage,
model load — and its first prediction is slower than steady state because
of lazy runtime initialisation.  Warm instances serve requests one at a
time (concurrency = 1 per instance, as on Lambda and Cloud Functions) and
are reclaimed after a keep-alive period of idleness.

The platform is a thin composition of the serving control plane:

* an :class:`~repro.platforms.pool.InstancePool` tracks the execution
  environments (cold -> warming -> idle -> busy -> retired) with O(1)
  accounting and the Figure 11 instance gauge;
* a :class:`~repro.platforms.policies.ConcurrencyScalingPolicy` turns
  the unserved backlog into pinned + speculative launches every
  ``scale_interval_s`` (the provider's
  :class:`~repro.cloud.providers.ServerlessTraits`), which is the
  mechanism behind GCP creating far more instances than needed
  (Figure 11, Section 5.1);
* a :class:`~repro.platforms.admission.WorkQueue` buffers pending
  requests as interned tickets that idle instances pull;
* a :class:`~repro.platforms.billing.ServerlessMeter` owns the bill
  (GB-seconds plus per-request fees, AWS excluding initialisation from
  the billed duration and GCP including it, provisioned concurrency as
  reserved GB-seconds — Section 5.4) and assembles the final
  :class:`~repro.platforms.base.PlatformUsage`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.faults import REQUEST_FAULT_STREAM, FaultInjector, FaultSpec
from repro.platforms.admission import PendingRequest, WorkQueue
from repro.platforms.base import PlatformUsage, ServingPlatform
from repro.platforms.billing import ServerlessMeter
from repro.platforms.policies import ConcurrencyScalingPolicy
from repro.platforms.pool import InstancePool, InstanceState, PoolInstance
from repro.serving.records import RequestOutcome, Stage
from repro.sim import Interrupt

__all__ = ["ServerlessPlatform"]

#: Relative jitter applied to cold-start stage durations.
_STAGE_JITTER_CV = 0.06
#: Relative jitter applied to prediction durations.
_PREDICT_JITTER_CV = 0.08
#: Hard cap a function invocation may run before the platform kills it.
_FUNCTION_TIMEOUT_S = 300.0


@dataclass
class _ColdStages:
    """Realised cold-start stage durations of one instance."""

    sandbox_s: float = 0.0
    import_s: float = 0.0
    download_s: float = 0.0
    load_s: float = 0.0

    def total(self) -> float:
        return self.sandbox_s + self.import_s + self.download_s + self.load_s


class ServerlessPlatform(ServingPlatform):
    """Serverless model serving on AWS Lambda or Google Cloud Functions."""

    family = "serverless"
    late_commits = True

    def __init__(self, env, deployment, profiles=None, rng=None):
        super().__init__(env, deployment, profiles, rng)
        traits = self.provider.serverless
        self._traits = traits
        self.queue = WorkQueue(env)
        self.pool = InstancePool(env, gauge_name="serverless-instances",
                                 auto_gauge=True)
        # Provisioned concurrency makes the platform scale more aggressively
        # (Section 5.4 observes *more* cold starts with provisioned
        # concurrency enabled).
        overprovision = traits.overprovision_factor
        if self.config.provisioned_concurrency > 0:
            overprovision *= 1.35
        self.policy = ConcurrencyScalingPolicy(
            max_concurrency=traits.max_concurrency,
            max_starts_per_second=traits.max_starts_per_second,
            interval_s=(self.config.scale_interval_s
                        or traits.scale_interval_s),
            overprovision=overprovision,
        )
        self.meter = ServerlessMeter(
            memory_gb=self.config.memory_gb,
            pricing=self.provider.pricing.serverless)
        self._scaler_started = False
        self._start_time = env.now
        # Fault injection (all knobs default-off: spec is None and the
        # per-request guards below reduce to falsy attribute checks).
        spec = FaultSpec.from_config(self.config)
        self._injector = (FaultInjector(env, spec, self.rng,
                                        kill=self._kill_instance,
                                        flush=self._flush_idle)
                          if spec is not None else None)
        #: Live instance registry (id -> (instance, loop process)); only
        #: populated when faults are active — kill targets come from here.
        self._live = {}
        self._error_rate = spec.request_error_rate if spec else 0.0
        self._shed_watermark = self.config.shed_watermark
        # One falsy check per request on the no-fault path, not two.
        self._admission_faults = bool(self._error_rate
                                      or self._shed_watermark)
        # Fixed-delay guard lanes: the client deadline on every request,
        # the keep-alive on every idle period.
        self._deadlines = env.lane(min(
            _FUNCTION_TIMEOUT_S,
            self.config.request_timeout_s or _FUNCTION_TIMEOUT_S))
        self._keep_alives = env.lane(traits.keep_alive_s)
        # Per-run constants, hoisted off the per-request path: the profile
        # lookups are pure functions of the (fixed) deployment, and the
        # method chains cost more than the arithmetic they guard.
        profiles = self.profiles
        self._handler_s = self._handler_overhead()
        self._warm_predict_s = profiles.warm_predict_time(
            self.provider.name, self.runtime.key, self.model.name,
            self.config.memory_gb)
        self._warm_predict = self.rng.lognormal_draw(
            "predict", self._warm_predict_s, _PREDICT_JITTER_CV)
        self._cold_predict_s = profiles.cold_predict_time(
            self.provider.name, self.runtime.key, self.model.name,
            self.config.memory_gb)
        self._import_time_s = profiles.import_time(
            self.provider.name, self.runtime.key, self.model.name)
        self._load_time_s = profiles.load_time(
            self.provider.name, self.runtime.key, self.model.name,
            self.config.memory_gb)
        self._image_mb = (self.runtime.image_size_mb(self.provider.name)
                          + self.config.extra_container_mb)
        self._download_mb = (self.model.download_mb
                             + self.config.extra_download_mb)

    # ------------------------------------------------------------------ API
    def start(self) -> None:
        """Pre-warm provisioned instances and start the scaling loop."""
        for _ in range(self.config.provisioned_concurrency):
            self._launch_instance(prewarmed=True)
        if not self._scaler_started:
            self.env.process(self._scaler_loop())
            self._scaler_started = True
        if self._injector is not None:
            self._injector.start()

    def finalize(self, end_time: Optional[float] = None) -> PlatformUsage:
        """Close the books: the meter assembles the usage record."""
        end = end_time if end_time is not None else self.env.now
        duration = max(end - self._start_time, 0.0)
        return self.meter.finalize(
            pool=self.pool, duration_s=duration,
            provisioned_concurrency=self.config.provisioned_concurrency)

    # --------------------------------------------------------------- client
    def request(self, outcome: RequestOutcome, payload_mb: float,
                response_mb: float):
        """Serve one request on the serverless endpoint."""
        self.meter.record_submitted()
        yield self._network_leg(outcome, payload_mb)
        if self._admission_faults:
            if (self._shed_watermark
                    and self.pool.ready < self._shed_watermark):
                # Graceful degradation: ready capacity is below the
                # watermark, so fail fast instead of piling onto the
                # backlog.
                outcome.finish(self.env.now, success=False, error="shed")
                self.meter.record_shed()
                return outcome
            if self._error_rate and self.rng.uniform(
                    REQUEST_FAULT_STREAM, 0.0, 1.0) < self._error_rate:
                outcome.finish(self.env.now, success=False,
                               error="transient_error")
                self.meter.record_failed()
                return outcome
        pending = self.queue.enqueue(outcome)
        self._scale_out()
        # The client waits for the response under its deadline guard; a
        # response that arrives first withdraws the guard from its lane.
        if (yield self._deadlines.guard(pending.response_event)) is None:
            outcome.finish(self.env.now, success=False, error="timeout")
            self.meter.record_timed_out()
            return outcome
        yield self._network_leg(outcome, response_mb)
        outcome.finish(self.env.now, success=True)
        self.meter.record_completed()
        return outcome

    # --------------------------------------------------------------- scaling
    def _scaler_loop(self):
        while True:
            yield self.policy.interval_s
            self._scale_out()

    def _scale_out(self) -> None:
        """Execute the policy's decision for the current backlog.

        Requests that are not covered by an already-starting instance are
        *pinned* to the new instance launched for them — exactly how a
        FaaS router assigns an incoming request to a fresh execution
        environment, which is what makes that request a "cold-start
        request" in the paper's terminology.
        """
        backlog = self.queue.backlog
        if not backlog:
            # Nothing to pin, and the policy plans no starts.
            return
        to_start, budget, headroom = self.policy.plan_starts(
            backlog, self.pool.alive)
        pinned = 0
        for _ in range(to_start):
            pending = self.queue.take()
            if pending is None:
                # The backlog emptied while we were launching.
                break
            self._launch_instance(prewarmed=False, first_request=pending)
            pinned += 1
        for _ in range(self.policy.speculative_starts(pinned, budget,
                                                      headroom)):
            self._launch_instance(prewarmed=False)

    def _launch_instance(self, prewarmed: bool,
                         first_request: Optional[PendingRequest] = None
                         ) -> None:
        instance = self.pool.launch(warm=prewarmed, provisioned=prewarmed)
        process = self.env.process(self._instance_loop(instance, prewarmed,
                                                       first_request))
        if self._injector is not None:
            self._live[instance.instance_id] = (instance, process)
            self._injector.watch(instance)

    # ----------------------------------------------------------- fault hooks
    def _kill_instance(self, instance: PoolInstance) -> None:
        """Fault-injection kill: interrupt the instance's serving loop.

        The registry entry is popped *before* the interrupt so two
        faults landing on the same instance at the same timestamp can
        never interrupt its (by then finished) loop twice.
        """
        entry = self._live.pop(instance.instance_id, None)
        if entry is not None and entry[1].is_alive:
            entry[1].interrupt("fault")
        elif instance.alive:
            self.pool.kill(instance)

    def _flush_idle(self) -> None:
        """Cold-start storm: reclaim every idle non-provisioned sandbox."""
        for instance, _process in list(self._live.values()):
            if (instance.state == InstanceState.IDLE
                    and not instance.provisioned):
                self._kill_instance(instance)

    def _crash(self, instance: PoolInstance,
               pending: Optional[PendingRequest]) -> None:
        """The loop's interrupt handler: account the kill, save the work.

        An in-flight ticket goes back to the work queue (the pull
        model's re-dispatch: another instance will serve it, or the
        client's deadline guard fires) before the pool counters are
        fixed up.
        """
        self._live.pop(instance.instance_id, None)
        if pending is not None:
            self.queue.requeue(pending)
        self.pool.kill(instance)

    # -------------------------------------------------------------- instance
    def _jitter(self, value: float, cv: float, stream: str) -> float:
        if value <= 0:
            return 0.0
        return self.rng.lognormal_around(stream, value, cv)

    def _cold_start_pipeline(self, instance: PoolInstance):
        """Run the sandbox / import / download / load pipeline."""
        stages = _ColdStages()
        pull = self.provider.registry.pull_time(self._image_mb, self.rng)
        stages.sandbox_s = pull + self._jitter(
            self._traits.sandbox_setup_s, _STAGE_JITTER_CV, "sandbox")
        yield stages.sandbox_s

        stages.import_s = self._jitter(
            self._import_time_s, _STAGE_JITTER_CV, "import")
        yield stages.import_s

        if self._download_mb > 0:
            stages.download_s = self.provider.storage.download_time(
                self._download_mb, self.rng)
            yield stages.download_s

        stages.load_s = self._jitter(
            self._load_time_s, _STAGE_JITTER_CV, "load")
        yield stages.load_s
        instance.cold_stages = stages

    def _instance_loop(self, instance: PoolInstance, prewarmed: bool,
                       first_request: Optional[PendingRequest] = None):
        # Fault injection interrupts this loop to kill the instance; each
        # yield region has a handler that re-queues any in-flight ticket
        # and withdraws its pending waits before the loop exits (the
        # interrupt already detached the loop from its sleep or guard,
        # but cancelled gets must leave the store and a withdrawn
        # keep-alive must leave its lane).
        try:
            if not prewarmed:
                yield from self._cold_start_pipeline(instance)
                self.pool.mark_ready(instance)
                self.meter.record_cold_start()
            if first_request is not None:
                yield from self._serve(instance, first_request,
                                       is_cold_trigger=True)
                first_request = None
        except Interrupt:
            self._crash(instance, first_request)
            return
        while instance.alive:
            get_event = self.queue.get()
            keep_alive = self._keep_alives.guard(get_event)
            try:
                yield keep_alive
            except Interrupt:
                if not get_event.triggered:
                    self.queue.cancel_get(get_event)
                keep_alive.cancel()
                self._crash(instance, None)
                return
            if not get_event.triggered:
                self.queue.cancel_get(get_event)
                if instance.provisioned:
                    # Provisioned instances stay reserved for the whole run.
                    continue
                self._live.pop(instance.instance_id, None)
                self.pool.retire(instance)
                return
            # A request arrived (the keep-alive guard withdrew itself).
            try:
                yield from self._serve(instance, get_event.value)
            except Interrupt:
                self._crash(instance, get_event.value)
                return

    def _serve(self, instance: PoolInstance, pending: PendingRequest,
               is_cold_trigger: bool = False):
        outcome = pending.outcome
        outcome.instance_id = instance.instance_id
        wait = self.env.now - pending.enqueue_time
        self.pool.mark_busy(instance)

        init_billable = 0.0
        breakdown = outcome.breakdown
        if is_cold_trigger and instance.cold_stages is not None:
            # This request triggered the instance: it paid for the whole
            # cold-start pipeline, so attribute the sub-stages to it (this
            # is how the paper measures Figure 10).  Each stage is set
            # exactly once per outcome, so plain dict writes replace the
            # accumulate-style add_stage calls on this hot path.
            stages = instance.cold_stages
            outcome.cold_start = True
            breakdown[Stage.SANDBOX] = stages.sandbox_s
            breakdown[Stage.IMPORT] = stages.import_s
            breakdown[Stage.DOWNLOAD] = stages.download_s
            breakdown[Stage.LOAD] = stages.load_s
            breakdown[Stage.QUEUE] = max(wait - stages.total(), 0.0)
            init_billable = (stages.import_s + stages.download_s
                             + stages.load_s)
        else:
            breakdown[Stage.QUEUE] = wait

        handler = self._handler_s
        inferences = outcome.inferences
        # Only the very first inference on a fresh runtime pays the
        # lazy-initialisation penalty (Section 5.1); subsequent inferences
        # in the same (possibly batched) invocation run at the warm speed.
        if instance.first_predict_pending:
            instance.first_predict_pending = False
            predict = self._jitter(self._cold_predict_s, _PREDICT_JITTER_CV,
                                   "predict")
        else:
            predict = self._warm_predict()
        if inferences > 1:
            predict += self.rng.lognormal_sum(
                "predict", self._warm_predict_s, _PREDICT_JITTER_CV,
                inferences - 1)
        yield handler + predict

        breakdown[Stage.HANDLER] = handler
        breakdown[Stage.PREDICT] = predict

        billed = handler + predict
        if self._traits.billing_includes_init:
            billed += init_billable
        outcome.billed_duration_s = billed
        self.meter.record_invocation(billed, provisioned=instance.provisioned)

        self.pool.mark_idle(instance)
        if outcome.completion_time is not None and self.outcome_sink is not None:
            # The client already gave up on this request (the 300 s
            # deadline) and its row was committed without the serve-side
            # fields; re-record it now that the invocation actually ran
            # and was billed.
            self.outcome_sink(outcome)
        pending.response_event.succeed()
        self.queue.recycle(pending)
