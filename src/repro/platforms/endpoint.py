"""Shared worker-pool endpoint: the base of the VM and managed platforms.

The paper's two server-based families — self-rented VMs (Section 4.3)
and managed ML endpoints (Section 4.2) — are the *same machine* with
different knobs: a fleet of identical instances whose worker slots form
one FIFO queue, a capacity-limited connection backlog in front of it, a
target-tracking autoscaler whose new instances only become ready
minutes after the decision, and per-instance-hour billing from launch.

:class:`PooledEndpointPlatform` implements that machine once as a
composition of the control plane — :class:`~repro.platforms.pool.
InstancePool`, :class:`~repro.platforms.admission.SlotQueue`,
:class:`~repro.platforms.policies.TargetUtilisationPolicy` (driven by
the shared :class:`~repro.platforms.autoscaling.TargetTrackingScaler`
loop), and :class:`~repro.platforms.billing.InstanceHourMeter` — and
the concrete platforms shrink to the knobs: traits, service times,
queue capacity, error vocabulary, and pricing table.
"""

from __future__ import annotations

from typing import Optional

from repro.cloud.instances import get_instance_type
from repro.core.faults import REQUEST_FAULT_STREAM, FaultInjector, FaultSpec
from repro.platforms.admission import SlotQueue
from repro.platforms.autoscaling import TargetTrackingScaler
from repro.platforms.base import PlatformUsage, ServingPlatform
from repro.platforms.billing import InstanceHourMeter
from repro.platforms.policies import TargetUtilisationPolicy
from repro.platforms.pool import InstancePool, InstanceState, PoolInstance
from repro.sim import Interrupt

__all__ = ["PooledEndpointPlatform"]

_SERVICE_JITTER_CV = 0.10


class PooledEndpointPlatform(ServingPlatform):
    """A fleet of identical server instances behind a slot queue.

    Subclasses configure the machine by overriding the ``_``-prefixed
    hooks (gauge name, streams, error strings, delays, capacities,
    pricing) — they contain no lifecycle, queueing, or billing logic of
    their own.
    """

    #: Gauge name recorded for the ready-instance timeline.
    gauge_name = "instances"
    #: Error string for requests rejected at admission.
    reject_error = "connection_refused"
    #: Latency of the rejection response.
    rejection_latency_s = 0.02
    #: RNG stream for the instance bring-up delay.
    scaleout_stream = "vm-scaleout"
    #: RNG stream for the per-request service time.
    predict_stream = "vm-predict"
    #: Whether HTTP handling runs off the worker (GPU accelerator model).
    handler_off_worker = False

    def __init__(self, env, deployment, profiles=None, rng=None):
        super().__init__(env, deployment, profiles, rng)
        self._instance_type = get_instance_type(deployment.instance_type())
        self._workers_per_instance = (self.config.workers_per_instance
                                      or self._default_workers())
        self.pool = InstancePool(env, gauge_name=self.gauge_name,
                                 auto_gauge=False, keep_records=True)
        # The client's per-request timeout budget tightens the
        # server-side queue deadline when it is the stricter of the two.
        deadline_s = self._request_timeout_s()
        if self.config.request_timeout_s is not None:
            deadline_s = min(deadline_s, self.config.request_timeout_s)
        self.queue = SlotQueue(env, deadline_s=deadline_s)
        self._start_time = env.now
        # Fault injection (spec is None with every knob at its default).
        spec = FaultSpec.from_config(self.config)
        self._injector = (FaultInjector(env, spec, self.rng,
                                        kill=self._kill_instance)
                          if spec is not None else None)
        #: In-service request handlers in admission order (oldest first);
        #: only populated when faults are active — a killed instance
        #: aborts its share of these.
        self._in_service = {}
        self._error_rate = spec.request_error_rate if spec else 0.0
        self._shed_watermark = self.config.shed_watermark
        # One falsy check per request on the no-fault path, not two.
        self._admission_faults = bool(self._error_rate
                                      or self._shed_watermark)
        #: Handler-process registry the injector picks kill victims
        #: from; None (skip the bookkeeping) when faults are off.
        self._track = self._in_service if self._injector is not None else None
        # Per-run constants hoisted off the per-request path.
        self._handler_s = self._handler_overhead()
        self._predict_s = self._service_time_s()
        # A one-inference request's service time (a one-term
        # lognormal_sum is the same float as one draw).
        self._predict = self.rng.lognormal_draw(
            self.predict_stream, self._predict_s, _SERVICE_JITTER_CV)
        self.policy = TargetUtilisationPolicy(
            target_per_instance=(self.config.target_per_instance
                                 or self._target_per_instance()),
            min_instances=self.config.initial_instances,
            max_instances=self._max_instances(),
            max_scale_step=self._max_scale_step(),
            scale_in_cooldown_s=self.config.scale_in_cooldown_s,
        )
        self._scaler = TargetTrackingScaler(
            env=env,
            evaluation_period_s=(self.config.scale_interval_s
                                 or self._evaluation_period_s()),
            policy=self.policy,
            demand=lambda: self.queue.demand,
            provisioned_total=lambda: self.pool.ready + self.pool.warming,
            launch=self._launch_instances,
            retire=self._retire_instances,
            idle=self._retirable_idle,
        )
        self.meter = InstanceHourMeter(instance_type=self._instance_type.name,
                                       pricing=self._pricing())

    # -- subclass knobs ------------------------------------------------------
    def _default_workers(self) -> int:
        """Worker slots per instance when the config does not override."""
        raise NotImplementedError

    def _service_time_s(self) -> float:
        """Mean per-inference service time for this endpoint."""
        raise NotImplementedError

    def _queue_capacity(self, ready: int) -> int:
        """Connection-backlog capacity with ``ready`` instances serving."""
        raise NotImplementedError

    def _request_timeout_s(self) -> float:
        """Server-side timeout for queued requests."""
        raise NotImplementedError

    def _target_per_instance(self) -> float:
        """Demand per instance the autoscaler tracks."""
        raise NotImplementedError

    def _max_instances(self) -> int:
        """Autoscaling ceiling."""
        raise NotImplementedError

    def _max_scale_step(self) -> int:
        """Maximum instances added per autoscaler evaluation."""
        return 1_000_000

    def _evaluation_period_s(self) -> float:
        """Autoscaler evaluation period."""
        raise NotImplementedError

    def _launch_delay_s(self) -> float:
        """Mean bring-up delay of a newly launched instance."""
        raise NotImplementedError

    def _pricing(self):
        """Per-instance-hour pricing table."""
        raise NotImplementedError

    # ------------------------------------------------------------------ API
    def start(self) -> None:
        """Bring up the initial fleet and, if requested, the autoscaler."""
        for _ in range(self.config.initial_instances):
            record = self.pool.launch(warm=True)
            if self._injector is not None:
                self._injector.watch(record)
        self._resize_workers()
        if self.config.autoscaling:
            self.env.process(self._scaler.run())
        if self._injector is not None:
            self._injector.start()

    def finalize(self, end_time: Optional[float] = None) -> PlatformUsage:
        """Close the books: the meter assembles the usage record."""
        end = end_time if end_time is not None else self.env.now
        return self.meter.finalize(pool=self.pool, end_time=end,
                                   queue=self.queue)

    # ------------------------------------------------------------- scaling
    def _launch_instances(self, count: int) -> None:
        for _ in range(count):
            record = self.pool.launch(warm=False)
            self.env.process(self._bring_up(record))
            if self._injector is not None:
                self._injector.watch(record)

    def _kill_instance(self, record: PoolInstance) -> None:
        """Fault-injection kill: drop the instance and abort its requests.

        The slot model does not bind requests to instances, so a kill
        of a *ready* instance aborts the oldest ``workers_per_instance``
        in-service requests — the share of the worker pool the dead
        instance was carrying.  Victims are de-registered before the
        interrupt so coinciding faults never abort the same handler
        twice, and the worker pool is resized to the surviving fleet
        (the autoscaler relaunches toward ``min_instances``, which is
        what the time-to-recover metric measures).
        """
        if not record.alive:
            return
        was_ready = record.state != InstanceState.WARMING
        self.pool.kill(record)
        if was_ready and self._in_service:
            victims = []
            for process in self._in_service:
                if len(victims) >= self._workers_per_instance:
                    break
                victims.append(process)
            for process in victims:
                del self._in_service[process]
                if process.is_alive:
                    process.interrupt("instance crash")
        self._resize_workers()

    def _retirable_idle(self) -> int:
        """Idle instances the scaler may retire right now.

        Zero while a scale-out is still actuating: `provisioned_total`
        counts warming instances, so retiring ready ones against that
        total could leave the endpoint with no ready instance until the
        warming ones arrive minutes later.  No scale-in during an
        in-flight scale-out, like the cloud autoscalers modelled here.
        """
        return 0 if self.pool.warming else self.pool.idle

    def _retire_instances(self, count: int) -> None:
        """Scale-in: reclaim the newest idle instances (billing stops).

        Newest-first keeps the longest-billed instances serving (the
        instance-hour meter accrues launch -> retire), and never touches
        a busy instance — the policy capped ``count`` by the idle pool.
        """
        idle = [record for record in self.pool.records
                if record.state == InstanceState.IDLE]
        for record in idle[-count:]:
            self.pool.retire(record)
        self._resize_workers()

    def _bring_up(self, record: PoolInstance):
        delay = self.rng.lognormal_around(
            self.scaleout_stream, self._launch_delay_s(), 0.15)
        yield delay
        if not record.alive:
            # Fault-injected kill landed while the instance was warming;
            # the bring-up completes into nothing.
            return
        self.pool.mark_ready(record)
        self._resize_workers()

    def _resize_workers(self) -> None:
        ready = max(self.pool.ready, 1)
        self.queue.resize(ready * self._workers_per_instance,
                          self._queue_capacity(ready))
        self.pool.sync_gauge()

    # ------------------------------------------------------------- serving
    def request(self, row: int, payload_mb: float, response_mb: float):
        """Serve one request through the endpoint's serving frontend.

        Stages accumulate into the row, so a request the client retries
        sums its queueing and service across attempts.
        """
        env = self.env
        rows = self._rows
        self.meter.record_submitted()
        yield self._network_leg(row, payload_mb)
        if self._admission_faults:
            if (self._shed_watermark
                    and self.pool.ready < self._shed_watermark):
                # Graceful degradation: ready capacity fell below the
                # watermark (e.g. an outage took the fleet down), so
                # fail fast instead of queueing into a pool that cannot
                # serve.
                yield self.rejection_latency_s
                self._finish(row, False, "shed")
                self.meter.record_shed()
                return
            if self._error_rate and self.rng.uniform(
                    REQUEST_FAULT_STREAM, 0.0, 1.0) < self._error_rate:
                self._finish(row, False, "transient_error")
                self.meter.record_failed()
                return
        if not self.queue.try_admit():
            # Spilled at admission: the queue's rejection tally (not the
            # meter's failure count) carries it in the conservation
            # ledger — submitted == completed + failed + rejected
            # + timed_out + shed.
            yield self.rejection_latency_s
            self._finish(row, False, self.reject_error)
            return

        enqueue = env.now
        claim = yield from self.queue.acquire()
        rows.queue_s[row] += env.now - enqueue
        if claim is None:
            self._finish(row, False, "timeout")
            self.meter.record_timed_out()
            return

        handler = self._handler_s
        track = self._track
        if track is not None:
            process = env.active_process
            track[process] = row
        try:
            inferences = rows.inferences[row]
            predict = (self._predict() if inferences <= 1
                       else self.rng.lognormal_sum(
                           self.predict_stream, self._predict_s,
                           _SERVICE_JITTER_CV, inferences))
            # With the handler off the worker (GPU servers) the HTTP
            # handling runs on the host CPUs and does not occupy the
            # accelerator; otherwise it competes with inference for the
            # same cores.
            held = predict if self.handler_off_worker else handler + predict
            yield held
            rows.handler_s[row] += handler
            rows.predict_s[row] += predict
        except Interrupt:
            # The serving instance was fault-killed mid-request: the
            # slot model has no ticket to re-queue, so the request fails
            # back to the client (which may retry it).
            self._finish(row, False, "instance_crash")
            self.meter.record_failed()
            return
        finally:
            if track is not None:
                track.pop(process, None)
            self.queue.release(claim)
        if self.handler_off_worker:
            yield handler
        yield self._network_leg(row, response_mb)
        self._finish(row, True)
        self.meter.record_completed()
