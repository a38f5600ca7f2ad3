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
* an idle line (:class:`~repro.sim.engine.IdleLine`) holds the warm
  instances waiting for work in idle-since order: a request that finds
  one is served inline, in its own process, by the oldest.  A
  keep-alive is data, the entry's expiry: only the oldest entry's
  alarm is on the calendar, so an instance claimed before its
  keep-alive ends costs no timer object.  An expiry retires the
  instance, or re-parks a provisioned one;
* a :class:`~repro.platforms.admission.WorkQueue` buffers the requests
  that found no idle instance as interned tickets; the scaler pins them
  to fresh instances, and an instance that finishes its work takes the
  oldest one directly;
* an instance loop runs only while an instance has work (its cold
  start, a pinned or requeued ticket, the backlog) and parks the
  instance when the backlog is empty, so idle instances run no process;
* a :class:`~repro.platforms.billing.ServerlessMeter` owns the bill
  (GB-seconds plus per-request fees, the cold start's initialisation
  billed as part of the triggering invocation on both providers —
  ``billing_includes_init``, since Lambda bills the init of
  container-image functions — provisioned concurrency as reserved
  GB-seconds — Section 5.4) and assembles the final
  :class:`~repro.platforms.base.PlatformUsage`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.faults import REQUEST_FAULT_STREAM, FaultInjector, FaultSpec
from repro.platforms.admission import PendingRequest, WorkQueue
from repro.platforms.base import PlatformUsage, ServingPlatform
from repro.platforms.billing import ServerlessMeter
from repro.platforms.policies import ConcurrencyScalingPolicy
from repro.platforms.pool import InstancePool, InstanceState, PoolInstance
from repro.sim import Interrupt, Process
from repro.sim.engine import IdleLine

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
        #: Live instance registry, only kept when faults are active (kill
        #: targets come from here): id -> (instance, runner), where the
        #: runner is the process serving the instance (its loop, or a
        #: request served inline); a parked instance maps to its
        #: idle-line entry ``(instance, expiry, sequence)`` instead.
        self._live: Optional[Dict[int, tuple]] = (
            {} if self._injector is not None else None)
        self._error_rate = spec.request_error_rate if spec else 0.0
        self._shed_watermark = self.config.shed_watermark
        # One falsy check per request on the no-fault path, not two.
        self._admission_faults = bool(self._error_rate
                                      or self._shed_watermark)
        # A fixed-delay guard lane: the client deadline on every request.
        self._deadlines = env.lane(min(
            _FUNCTION_TIMEOUT_S,
            self.config.request_timeout_s or _FUNCTION_TIMEOUT_S))
        #: The idle line: parked instances, oldest idle first, each
        #: expiring after the keep-alive.
        self._idle = IdleLine(env, traits.keep_alive_s,
                              self._keep_alive_expired)
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
    def request(self, row: int, payload_mb: float, response_mb: float):
        """Serve one request on the serverless endpoint.

        A request that finds a warm instance idle is served right here,
        in the request's own process.  Otherwise it waits in the backlog
        for an instance: a fresh one the scaler pins to it, or one that
        finishes its work first.  A request whose client times out first
        stays in the backlog: an instance still serves (and bills) it
        later, into the same row, which stays held until then.
        """
        env = self.env
        self.meter.record_submitted()
        yield self._network_leg(row, payload_mb)
        if self._admission_faults:
            if (self._shed_watermark
                    and self.pool.ready < self._shed_watermark):
                # Graceful degradation: ready capacity is below the
                # watermark, so fail fast instead of piling onto the
                # backlog.
                self._finish(row, False, "shed")
                self.meter.record_shed()
                return
            if self._error_rate and self.rng.uniform(
                    REQUEST_FAULT_STREAM, 0.0, 1.0) < self._error_rate:
                self._finish(row, False, "transient_error")
                self.meter.record_failed()
                return
        idle = self._idle
        inferences = self._rows.inferences[row]
        if not idle.entries:
            pending = self.queue.enqueue(row, inferences)
            self._scale_out()
            # The client waits for the response under its deadline guard;
            # a response that arrives first withdraws the guard.
            served = (yield self._deadlines.guard(pending.response_event)
                      ) is not None
        else:
            # The oldest idle instance serves the request inline.
            instance = idle.claim()
            enqueue = env.now
            predict = self._claim(instance, row, inferences, 0.0)
            duration = self._handler_s + predict
            deadline = enqueue + self._deadlines.delay
            if enqueue + duration >= deadline:
                # The serve overruns the client deadline: hand it to an
                # instance loop as a ticket, so it runs (and bills) past
                # the deadline.  The guard comes first: it expires
                # before the serve ends.
                pending = self.queue.ticket(row, inferences, enqueue)
                guard = self._deadlines.guard(pending.response_event)
                env.process(self._instance_loop(instance, pending,
                                                predict=predict))
                served = (yield guard) is not None
            else:
                live = self._live
                if live is not None:
                    live[instance.instance_id] = (instance,
                                                  env.active_process)
                try:
                    yield duration
                except Interrupt:
                    # The instance was killed mid-serve: requeue the
                    # request under its original enqueue time and wait
                    # for another instance until the original deadline.
                    pending = self.queue.ticket(row, inferences, enqueue)
                    response = pending.response_event
                    self._crash(instance, pending)
                    timer = env.timeout_at(deadline)
                    served = (yield env.race(response, timer)) is response
                    timer.cancel()
                else:
                    self._release(instance, row, predict)
                    if not self.queue.tickets:
                        # _park, inlined: once per warm request.
                        entry = idle.park(instance)
                        if live is not None:
                            live[instance.instance_id] = entry
                    else:
                        env.process(self._instance_loop(
                            instance, self.queue.take()))
                    served = True
        if not served:
            # The ticket is still outstanding: an instance will serve it
            # after the client gave up, writing the row late.
            pending.late = True
            self._rows.hold(row)
            self._finish(row, False, "timeout")
            self.meter.record_timed_out()
            return
        yield self._network_leg(row, response_mb)
        self._finish(row, True)
        self.meter.record_completed()

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
        if prewarmed:
            self._park(instance)
        else:
            self.env.process(self._instance_loop(instance, first_request,
                                                 cold=True))
        if self._injector is not None:
            self._injector.watch(instance)

    # ------------------------------------------------------------ idle line
    def _park(self, instance: PoolInstance) -> None:
        """Put an idle instance at the tail of the idle line.

        Claiming it ends its keep-alive; expiring reclaims it.
        """
        entry = self._idle.park(instance)
        if self._live is not None:
            self._live[instance.instance_id] = entry

    def _keep_alive_expired(self, instance: PoolInstance) -> None:
        """The oldest idle instance's keep-alive expired: reclaim it."""
        if instance.provisioned:
            # Provisioned instances stay reserved for the whole run.
            self._park(instance)
            return
        if self._live is not None:
            del self._live[instance.instance_id]
        self.pool.retire(instance)

    def _requeue(self, pending: PendingRequest) -> None:
        """Re-dispatch a crashed instance's ticket.

        The oldest idle instance claims it at once and serves it after
        one zero-delay step; with no idle instance it goes back to the
        backlog.
        """
        idle = self._idle
        if idle.entries:
            self.env.process(self._instance_loop(idle.claim(), pending,
                                                 requeued=True))
        else:
            self.queue.requeue(pending)

    # ----------------------------------------------------------- fault hooks
    def _kill_instance(self, instance: PoolInstance) -> None:
        """Fault-injection kill.

        An idle instance leaves the idle line and dies at once.  A
        working one is interrupted in the process that runs it (its
        instance loop, or the request it serves inline), whose handler
        requeues the in-flight ticket.  The registry entry is popped
        *before* the interrupt so two faults landing on the same
        instance at the same timestamp can never interrupt twice.
        """
        entry = self._live.pop(instance.instance_id, None)
        if entry is not None:
            runner = entry[1]
            if isinstance(runner, Process):
                runner.interrupt("fault")
                return
            self._idle.remove(entry)
        if instance.alive:
            self.pool.kill(instance)

    def _flush_idle(self) -> None:
        """Cold-start storm: reclaim every idle non-provisioned sandbox."""
        for entry in list(self._live.values()):
            instance = entry[0]
            if (instance.state == InstanceState.IDLE
                    and not instance.provisioned):
                self._kill_instance(instance)

    def _crash(self, instance: PoolInstance,
               pending: Optional[PendingRequest]) -> None:
        """An interrupt handler: account the kill, save the work.

        An in-flight ticket is re-dispatched (another instance will
        serve it, or the client's deadline fires) before the pool
        counters are fixed up.
        """
        self._live.pop(instance.instance_id, None)
        if pending is not None:
            self._requeue(pending)
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

    def _instance_loop(self, instance: PoolInstance,
                       pending: Optional[PendingRequest], cold: bool = False,
                       predict: Optional[float] = None,
                       requeued: bool = False):
        """Run ``instance`` while it has work, then park it idle.

        The work is its cold start (``cold``), the ticket it starts with
        (the scaler's pinned request after a cold start, a requeued or an
        overrunning request otherwise), then backlog tickets until the
        backlog is empty.  ``predict`` is the predict time of a serve
        that already began; a ``requeued`` ticket, claimed by an idle
        instance, is served after one zero-delay step.
        Fault injection interrupts the loop to kill the instance; the
        handler re-dispatches the in-flight ticket.
        """
        if self._live is not None:
            self._live[instance.instance_id] = (instance,
                                                self.env.active_process)
        cold_trigger = cold and pending is not None
        try:
            if cold:
                yield from self._cold_start_pipeline(instance)
                self.pool.mark_ready(instance)
                self.meter.record_cold_start()
                if pending is None:
                    pending = self.queue.take()
            elif requeued:
                yield 0.0
            while pending is not None:
                row = pending.row
                if predict is None:
                    predict = self._claim(
                        instance, row, pending.inferences,
                        self.env.now - pending.enqueue_time, cold_trigger)
                yield self._handler_s + predict
                self._release(instance, row, predict, cold_trigger)
                if pending.late:
                    # The client gave up on this request (its deadline)
                    # and committed the row; the late serve has now
                    # written it.
                    self._rows.release(row)
                pending.response_event.succeed()
                self.queue.recycle(pending)
                cold_trigger = False
                predict = None
                pending = self.queue.take()
        except Interrupt:
            self._crash(instance, pending)
            return
        self._park(instance)

    def _claim(self, instance: PoolInstance, row: int, inferences: int,
               wait: float, cold_trigger: bool = False) -> float:
        """Start serving ``row`` on ``instance``; returns the predict time.

        Attributes the ``wait`` for an instance (and, for the request
        that triggered a cold start, the cold-start stages) and draws the
        predict time for the request's ``inferences``.  The serve lasts
        the handler overhead plus the predict time.
        """
        rows = self._rows
        rows.instance_id[row] = instance.instance_id
        self.pool.mark_busy(instance)
        if cold_trigger and instance.cold_stages is not None:
            # This request triggered the instance: it paid for the whole
            # cold-start pipeline, so attribute the sub-stages to it (this
            # is how the paper measures Figure 10).
            stages = instance.cold_stages
            rows.cold_start[row] = True
            rows.sandbox_s[row] = stages.sandbox_s
            rows.import_s[row] = stages.import_s
            rows.download_s[row] = stages.download_s
            rows.load_s[row] = stages.load_s
            rows.queue_s[row] = max(wait - stages.total(), 0.0)
        else:
            rows.queue_s[row] = wait

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
        return predict

    def _release(self, instance: PoolInstance, row: int, predict: float,
                 cold_trigger: bool = False) -> None:
        """Finish serving ``row``: book the stages and the bill.

        The instance goes back to idle (its caller decides what it does
        next).
        """
        handler = self._handler_s
        rows = self._rows
        rows.handler_s[row] = handler
        rows.predict_s[row] = predict

        billed = handler + predict
        if self._traits.billing_includes_init and cold_trigger:
            stages = instance.cold_stages
            if stages is not None:
                billed += stages.import_s + stages.download_s + stages.load_s
        rows.billed_duration_s[row] = billed
        self.meter.record_invocation(billed, provisioned=instance.provisioned)
        self.pool.mark_idle(instance)
