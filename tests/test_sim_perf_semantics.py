"""Semantics guarded by the fast-path engine optimisations.

The hot-path rework (tombstone cancellation, direct process resumption,
O(1) platform accounting, parallel cell fan-out) must not change any
observable behaviour.  These tests pin down the contracts:

* :meth:`Event.cancel` semantics before/after processing and inside
  a :class:`~repro.sim.engine.Race`, including tombstone reclamation.
* Every heap push on the profiled serverless cell is an event that
  runs: pushes equal ``events_processed`` up to the few stale guard
  and keep-alive alarm tokens and the entries still pending at the
  horizon.
* Every client request runs as one process through every layer
  (retry loop, router, hybrid front door, platform); only hedges that
  fire, instance loops and background loops add processes, and the
  router builds no race.
* A warm serverless request is served inside its own process: three
  calendar entries from arrival to response, and a kill mid-serve
  keeps the request's enqueue time and deadline.
* Keep-alives are idle-line data: parking an instance builds no guard,
  and only the oldest idle entry's alarm is on the calendar, under
  that entry's own key, across kills and heap compactions.
* The serverless platform's O(1) alive counter agrees with a
  brute-force scan over every instance ever created.
* ``run_cells(workers=N)`` returns results identical to serial mode.
"""

import sys
from collections import Counter
from dataclasses import astuple

import pytest

import repro.core.benchmark as benchmark_module
import repro.sim.engine as engine
from repro.cloud.providers import get_provider
from repro.core.analyzer import Analyzer
from repro.core.benchmark import ServingBenchmark
from repro.core.executor import Executor
from repro.core.parallel import run_cells
from repro.core.planner import Planner
from repro.core.scenario import get_scenario
from repro.core.study import _standard_metrics
from repro.experiments.base import load_registered_studies
from repro.platforms.admission import WorkQueue
from repro.platforms.pool import InstancePool, InstanceState
from repro.platforms.serverless import ServerlessPlatform
from repro.serving.outcome_table import OutcomeRecorder
from repro.serving.records import Stage
from repro.sim import Environment, RandomStreams, SimulationError
from repro.workload.generator import standard_workload
from repro.workload.requests import RequestPool

from outcome_rows import error_at


class TestCancellableTimers:
    def test_cancel_before_trigger_time_suppresses_callbacks(self, env):
        fired = []
        timeout = env.timeout(5.0)
        timeout.callbacks.append(lambda event: fired.append(env.now))
        assert timeout.cancel() is True
        assert timeout.cancelled
        env.timeout(10.0)  # keep the run going past the cancelled entry
        env.run()
        assert fired == []
        assert env.now == 10.0

    def test_cancel_after_processed_is_noop(self, env):
        timeout = env.timeout(1.0)
        env.run()
        assert timeout.processed
        assert timeout.cancel() is False
        assert not timeout.cancelled

    def test_cancel_returns_false_on_second_call(self, env):
        timeout = env.timeout(1.0)
        assert timeout.cancel() is True
        assert timeout.cancel() is False

    def test_cancelled_event_cannot_be_triggered(self, env):
        event = env.event()
        event.cancel()
        with pytest.raises(SimulationError):
            event.succeed()
        with pytest.raises(SimulationError):
            event.fail(RuntimeError("boom"))

    def test_cancel_loser_of_any_of_race(self, env):
        """The platform pattern: cancel the guard timer after winning."""
        log = []

        def proc():
            fast = env.timeout(1.0, value="fast")
            guard = env.timeout(300.0, value="guard")
            winner = yield env.race(fast, guard)
            assert winner is fast
            guard.cancel()
            log.append(env.now)

        env.process(proc())
        env.run()
        # The dead 300 s guard must not extend the run.
        assert log == [1.0]
        assert env.now < 300.0

    def test_cancel_member_before_any_of_fires(self, env):
        results = []

        def proc():
            early = env.timeout(2.0, value="early")
            late = env.timeout(8.0, value="late")
            early.cancel()
            winner = yield env.race(early, late)
            results.append((env.now, winner is early, winner is late))

        env.process(proc())
        env.run()
        # The cancelled member never counts as fired.
        assert results == [(8.0, False, True)]

    def test_yield_cancelled_event_rejected(self, env):
        timeout = env.timeout(1.0)
        timeout.cancel()

        def proc():
            yield timeout

        # The first step runs inline, so yielding a cancelled event as
        # the first yield is rejected at the env.process() call itself.
        with pytest.raises(SimulationError):
            env.process(proc())

    def test_yield_cancelled_event_rejected_mid_process(self, env):
        timeout = env.timeout(1.0)
        timeout.cancel()

        def proc():
            yield env.timeout(0.5)
            yield timeout

        env.process(proc())
        with pytest.raises(SimulationError):
            env.run()

    def test_tombstones_are_reclaimed(self, env):
        """Mass cancellation must not leave the heap full of corpses."""
        timeouts = [env.timeout(100.0 + i) for i in range(500)]
        for timeout in timeouts:
            timeout.cancel()
        # Compaction keeps the calendar proportional to live entries.
        assert len(env._queue) < 200
        env.timeout(1.0)
        env.run()
        assert env.now == pytest.approx(1.0)

    def test_run_until_pops_a_tombstone_uncounted(self, env):
        first = env.timeout(1.0)
        env.timeout(5.0)
        first.cancel()
        assert env._tombstones == 1
        env.run(until=1.0)
        assert env.now == 1.0
        assert env.events_processed == 0 and env._tombstones == 0

    def test_run_skips_tombstones(self, env):
        first = env.timeout(1.0)
        second = env.timeout(5.0)
        first.cancel()
        env.run()
        assert env.now == 5.0 and second.processed
        assert env.events_processed == 1 and env._tombstones == 0


class TestHeapPushesAreEvents:
    def test_profiled_cell_pushes_equal_events(self, monkeypatch, tiny_w40):
        """Deterministic counter gate: no dead entries on the hot path.

        Each request used to push ~8 heap entries of which ~6 ran (the
        client deadline and the keep-alive were raced, cancelled and
        compacted away).  Bare sleeps, guard lanes and the idle line's
        keep-alive alarm push only what runs; the withdrawn guard and
        alarm tokens are bounded per run, not per request.
        """
        pushes = [0]
        stale = [0]
        envs = []
        push = engine.heappush
        skip, alarm_skip = engine.Guard._skip, engine._Alarm._skip

        def counting_push(queue, entry):
            pushes[0] += 1
            push(queue, entry)

        def counting_skip(guard):
            stale[0] += 1
            skip(guard)

        def counting_alarm_skip(alarm):
            stale[0] += 1
            alarm_skip(alarm)

        class CapturedEnvironment(Environment):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                envs.append(self)

        monkeypatch.setattr(engine, "heappush", counting_push)
        monkeypatch.setattr(engine.Guard, "_skip", counting_skip)
        monkeypatch.setattr(engine._Alarm, "_skip", counting_alarm_skip)
        monkeypatch.setattr(benchmark_module, "Environment",
                            CapturedEnvironment)
        deployment = Planner().plan("aws", "mobilenet", "tf1.15",
                                    "serverless")
        result = ServingBenchmark(seed=5).run(deployment, tiny_w40)
        env, = envs
        events = env.events_processed
        assert result.metadata["events_processed"] == events
        pending = len(env._queue)
        assert pushes[0] == events + stale[0] + pending
        # A handful of lane and alarm tokens and pending entries per run
        # (the old guards left about two dead entries per request).
        assert stale[0] + pending <= 8, (stale[0], pending)


class TestOneProcessPerRequest:
    """Deterministic counter gate: one ``Process`` per client request.

    Nested layers (the retry loop, the router, the hybrid front door)
    run the next layer's ``request()`` with ``yield from``, so a request
    is one process end to end, a hedged one included: its primary
    attempt runs inline.  The only other processes are the client
    loops, the hedge attempts the router issues (one per hedge fired),
    instance loops while an instance has work, and background loops.
    A layer that goes back to a child process per request breaks the
    first, third or fourth count.
    """

    @pytest.mark.parametrize("name, hedges", [
        ("failover-crash", True),
        ("failover-outage", False),
        ("hybrid-burst", False),
    ])
    def test_process_constructions_are_structural(self, monkeypatch, name,
                                                  hedges):
        started = Counter()
        routed_races = [0]
        launched = [0]
        handoffs = [0]
        process_init, race_init = engine.Process.__init__, engine.Race.__init__
        launch, take = InstancePool.launch, WorkQueue.take
        requeue = ServerlessPlatform._requeue

        def counting_init(process, env, generator):
            started[generator.__name__] += 1
            process_init(process, env, generator)

        def counting_race(race, env, a, b):
            # A request killed mid-serve races its response against the
            # rest of its deadline; the router races nothing.
            caller = sys._getframe(1)
            if caller.f_code is engine.Environment.race.__code__:
                caller = caller.f_back
            routed_races[0] += (caller.f_globals["__name__"]
                                == "repro.platforms.routing")
            race_init(race, env, a, b)

        def counting_launch(pool, warm=False, provisioned=False):
            launched[0] += not warm
            return launch(pool, warm=warm, provisioned=provisioned)

        def counting_take(queue):
            pending = take(queue)
            if (pending is not None
                    and sys._getframe(1).f_code.co_name == "request"):
                # An instance that served a request inline takes the
                # next backlog ticket in a loop of its own.
                handoffs[0] += 1
            return pending

        def counting_requeue(platform, pending):
            # A requeued ticket claims an idle instance, if any.
            handoffs[0] += bool(platform._idle.entries)
            requeue(platform, pending)

        load_registered_studies()
        spec = get_scenario(name)
        workload = spec.build_workload(seed=5, scale=0.1)
        deployment = spec.deployment(Planner())
        monkeypatch.setattr(engine.Process, "__init__", counting_init)
        monkeypatch.setattr(engine.Race, "__init__", counting_race)
        monkeypatch.setattr(InstancePool, "launch", counting_launch)
        monkeypatch.setattr(WorkQueue, "take", counting_take)
        monkeypatch.setattr(ServerlessPlatform, "_requeue", counting_requeue)
        result = ServingBenchmark(seed=5).run(deployment, workload,
                                              seed=spec.seed)

        # One process per client request, retried or not.
        assert (started.pop("request", 0)
                + started.pop("_resilient_request", 0)
                == result.total_requests)
        assert started.pop("_client") == len(workload.client_traces)
        # A routed attempt is a process of its own only as a hedge the
        # timer issued; the primary runs inline, and nothing races.
        hedges_fired = result.usage.notes.get("hedges", 0.0)
        assert started.pop("_attempt", 0) == hedges_fired
        assert (hedges_fired > 0) == hedges
        assert routed_races[0] == 0
        # Instance loops: one per cold launch (serverless cold start or
        # endpoint bring-up), plus one per hand-off of a ticket to an
        # instance that had finished its work.  Idle instances run none.
        instance_loops = (started.pop("_instance_loop", 0)
                          + started.pop("_bring_up", 0))
        assert instance_loops == launched[0] + handoffs[0]
        # Scaler and storm loops: a few per platform, not per request.
        assert set(started) <= {"_scaler_loop", "run", "_storm_loop"}
        assert sum(started.values()) <= 4, started


class TestInlineWarmServe:
    """A warm request is served inside its own process.

    No ticket, no pull and no response event cross the calendar: a
    request that finds an idle instance costs three calendar entries
    (network up, serve, network down).  A kill during such a serve
    requeues the request under its original enqueue time and deadline.
    """

    @staticmethod
    def _run_next(env):
        """Run the calendar up to its next entry's time (every entry
        due then runs)."""
        env.run(until=env._queue[0][0])

    def _platform(self, seed=3, **overrides):
        deployment = Planner().plan("aws", "mobilenet", "tf1.15",
                                    "serverless", **overrides)
        env = Environment()
        platform = ServerlessPlatform(env, deployment,
                                      rng=RandomStreams(seed))
        recorder = OutcomeRecorder(1)
        platform.bind(recorder.columns, recorder.commit)
        platform.start()
        return env, platform, recorder

    def test_warm_request_costs_three_calendar_entries(self):
        # A slow scaler keeps its ticks out of the measured window.
        env, platform, recorder = self._platform(provisioned_concurrency=1,
                                                 scale_interval_s=1000.0)
        (instance, _expiry, parked), = platform._idle.entries
        row = recorder.register(0, 0, 0.0)
        process = env.process(platform.request(row, 0.1, 0.01))
        times = []
        while process.is_alive:
            self._run_next(env)
            times.append(env.now)
        table = recorder.table()
        assert table.success[row] and table.instance_id[row] == 0
        assert len(times) == env.events_processed == 3
        # The instance went back to the idle line when the serve ended
        # (the second entry), its keep-alive counted from then.
        (again, expiry, sequence), = platform._idle.entries
        assert again is instance and sequence > parked
        assert expiry == times[1] + platform.provider.serverless.keep_alive_s

    def test_warm_serve_takes_only_a_waiting_ticket(self, monkeypatch,
                                                    tiny_w40):
        """A warm serve checks the backlog before it takes from it: no
        ``WorkQueue.take()`` from the request path comes back empty."""
        import sys

        take = WorkQueue.take
        taken = {True: 0, False: 0}

        def spy(queue):
            pending = take(queue)
            if sys._getframe(1).f_code.co_name == "request":
                taken[pending is not None] += 1
            return pending

        monkeypatch.setattr(WorkQueue, "take", spy)
        deployment = Planner().plan("aws", "mobilenet", "tf1.15",
                                    "serverless")
        result = ServingBenchmark(seed=5).run(deployment, tiny_w40)
        assert result.success_ratio > 0.9
        assert taken[False] == 0

    def test_kill_mid_serve_requeues_under_the_original_enqueue_time(self):
        # A storm far beyond the window keeps the fault hooks armed.
        env, platform, recorder = self._platform(provisioned_concurrency=2,
                                                 storm_times_s=(1e5,))
        first, second = (entry[0] for entry in platform._idle.entries)
        row = recorder.register(0, 0, 0.0)
        process = env.process(platform.request(row, 0.1, 0.01))
        while first.state != InstanceState.BUSY:
            self._run_next(env)
        enqueue = env.now
        env.run(until=enqueue + 0.001)  # mid-serve: the handler alone is 8 ms
        killed_at = env.now
        platform._kill_instance(first)
        while process.is_alive:
            self._run_next(env)
        table = recorder.table()
        assert table.success[row]
        assert table.instance_id[row] == second.instance_id
        # The wait includes the time lost on the dead instance.
        assert (table.stage_column(Stage.QUEUE)[row]
                == killed_at - enqueue > 0.0)
        assert platform.pool.killed == 1

    def test_kill_mid_serve_times_out_at_the_original_deadline(self):
        # The outage kills the only instance mid-serve and every
        # instance launched for the next 50 s: no capacity comes back.
        env, platform, recorder = self._platform(
            seed=5, provisioned_concurrency=1, request_timeout_s=2.0,
            outage_start_s=10.0, outage_duration_s=50.0,
            outage_fraction=1.0)
        row = recorder.register(0, 0, 9.95)

        def client():
            yield 9.95
            yield from platform.request(row, 0.1, 0.01)

        env.process(client())
        env.run(until=40.0)
        table = recorder.table()
        enqueue = (table.send_time[row]
                   + table.stage_column(Stage.NETWORK)[row])
        # The instance was serving the request when the outage hit.
        assert table.instance_id[row] == 0 and enqueue < 10.0
        assert table.stage_column(Stage.PREDICT)[row] == 0.0
        assert error_at(table, row) == "timeout"
        assert table.completion_time[row] == enqueue + 2.0 < 10.0 + 2.0


class TestKeepAlives:
    """Keep-alives are idle-line data, not timers."""

    def test_parking_builds_no_guard(self, monkeypatch, tiny_w40):
        """Only a request that waits for an instance builds a guard (its
        client deadline); parking an idle instance builds none."""
        counts = Counter()
        park, enqueue = engine.IdleLine.park, WorkQueue.enqueue
        guard_init = engine.Guard.__init__

        def counting_park(line, item):
            counts["parked"] += 1
            return park(line, item)

        def counting_enqueue(queue, row, inferences):
            counts["waited"] += 1
            return enqueue(queue, row, inferences)

        def counting_guard(guard, lane, event):
            counts["guards"] += 1
            guard_init(guard, lane, event)

        monkeypatch.setattr(engine.IdleLine, "park", counting_park)
        monkeypatch.setattr(WorkQueue, "enqueue", counting_enqueue)
        monkeypatch.setattr(engine.Guard, "__init__", counting_guard)
        deployment = Planner().plan("aws", "mobilenet", "tf1.15",
                                    "serverless")
        result = ServingBenchmark(seed=5).run(deployment, tiny_w40)
        # Nearly every request re-parks the instance that served it.
        assert counts["parked"] > result.total_requests // 2
        assert counts["guards"] == counts["waited"] > 0

    def _platform(self):
        """Two provisioned instances parked at 0 s under a 5 s keep-alive
        (faults on, so kills work; a slow scaler stays out of the way)."""
        provider = get_provider("aws").with_serverless(keep_alive_s=5.0)
        deployment = Planner().plan(provider, "mobilenet", "tf1.15",
                                    "serverless", provisioned_concurrency=2,
                                    scale_interval_s=1000.0,
                                    storm_times_s=(1e5,))
        env = Environment()
        platform = ServerlessPlatform(env, deployment,
                                      rng=RandomStreams(3))
        recorder = OutcomeRecorder(1)
        platform.bind(recorder.columns, recorder.commit)
        platform.start()
        return env, platform

    @staticmethod
    def _alarm_keys(env, platform):
        alarm = platform._idle._alarm
        return [entry[:3] for entry in env._queue
                if len(entry) == 4 and entry[3] is alarm]

    def test_killing_the_oldest_arms_the_next_under_its_own_key(
            self, monkeypatch):
        env, platform = self._platform()
        (first, expiry, oldest), (second, next_expiry, sequence) = (
            platform._idle.entries)
        assert self._alarm_keys(env, platform) == [
            (expiry, engine.NORMAL, oldest)]
        platform._kill_instance(first)
        # Withdrawn: its entry stays until it pops, uncounted.
        assert [entry[0] for entry in platform._idle.entries] == [second]
        assert self._alarm_keys(env, platform) == [
            (expiry, engine.NORMAL, oldest)]
        armed = []
        arm = engine.IdleLine._arm

        def spy(line, entry):
            armed.append((entry[0], entry[1:]))
            arm(line, entry)

        monkeypatch.setattr(engine.IdleLine, "_arm", spy)
        env.run(until=next_expiry)
        # The withdrawn alarm popped and armed the survivor under the
        # survivor's own key.
        assert armed[0] == (second, (next_expiry, sequence))
        assert [item for item, _key in armed] == [second, second]
        # The provisioned survivor expired once and parked again.
        assert env.events_processed == 1
        (entry,) = platform._idle.entries
        assert entry[0] is second and entry[1] == next_expiry + 5.0
        assert platform.pool.killed == 1

    def test_compaction_while_the_alarm_is_withdrawn_keeps_the_next(self):
        env, platform = self._platform()
        first, second = (entry[0] for entry in platform._idle.entries)
        platform._kill_instance(first)
        timers = [env.timeout(50.0) for _ in range(200)]
        for timer in timers:
            timer.cancel()
        assert len(env._queue) < len(timers)  # the heap compacted
        env.run(until=5.0)
        (entry,) = platform._idle.entries
        assert entry[0] is second and entry[1] == 10.0


class TestAliveCounterConsistency:
    def _run_serverless(self, monkeypatch, workload):
        """Run one serverless experiment, capturing every instance."""
        tracked = []
        launch = InstancePool.launch

        def spy(pool, warm=False, provisioned=False):
            instance = launch(pool, warm=warm, provisioned=provisioned)
            tracked.append(instance)
            return instance

        monkeypatch.setattr(InstancePool, "launch", spy)
        env = Environment()
        deployment = Planner().plan("aws", "mobilenet", "tf1.15",
                                    "serverless")
        platform = ServerlessPlatform(env, deployment,
                                      rng=RandomStreams(3))
        pool = RequestPool(
            sample_payload_mb=deployment.model.input_payload_mb,
            pool_size=workload.spec.request_pool_size, seed=3)
        executor = Executor(env=env, platform=platform, workload=workload,
                            request_pool=pool, rng=RandomStreams(3),
                            recorder=OutcomeRecorder(workload.count))
        executor.execute(until=workload.spec.duration_s + 400.0)
        return platform, tracked

    def test_alive_counter_matches_brute_force_scan(self, monkeypatch,
                                                    tiny_w40):
        platform, tracked = self._run_serverless(monkeypatch, tiny_w40)
        assert tracked, "expected at least one instance"
        brute_force = sum(1 for instance in tracked if instance.alive)
        assert platform.pool.alive == brute_force
        assert platform.pool.created == len(tracked)
        # The gauge's last recorded value is the O(1) counter.
        assert platform.pool.gauge.value == platform.pool.alive

    def test_usage_counts_match_tracked_instances(self, monkeypatch,
                                                  tiny_w40):
        platform, tracked = self._run_serverless(monkeypatch, tiny_w40)
        usage = platform.finalize()
        assert usage.instances_created == len(tracked)
        assert usage.peak_instances <= len(tracked)
        assert usage.peak_instances >= 1


class TestParallelEquality:
    #: The answers :meth:`_key_metrics` reads off a reduced summary.
    READS = (("slo", 0.2), ("slo", 1.0), ("timeline", 5.0),
             ("timeline", 20.0))

    def _key_metrics(self, result):
        # The column hash covers completion_time and every other column;
        # the SLO attainments and timelines read the answers the
        # summary kept of its row-order arrays, which crossed the
        # worker pipe.
        summary = result.table
        return (_standard_metrics(result), result.latency_stats(),
                summary.column_hash(),
                [summary.slo_attainment(target) for target in (0.2, 1.0)],
                [column.tolist() for column in summary.success_timeline(5.0)],
                [astuple(point)
                 for point in Analyzer().latency_timeline(result, 20.0)])

    def test_run_matrix_parallel_identical_to_serial(self):
        """A deployment x workload grid of cells fans out bit-identically."""
        planner = Planner()
        deployments = [planner.plan("aws", "mobilenet", "tf1.15", platform)
                       for platform in ("serverless", "cpu_server")]
        workloads = [standard_workload("w-40", seed=11, scale=0.04),
                     standard_workload("w-120", seed=11, scale=0.02)]
        cells = [(deployment, workload, 1.0, None)
                 for workload in workloads for deployment in deployments]
        bench = ServingBenchmark(seed=11)
        serial = run_cells(bench, cells, workers=0, reads=self.READS)
        parallel = run_cells(bench, cells, workers=4, reads=self.READS)
        assert len(serial) == len(parallel) == len(cells)
        for left, right in zip(serial, parallel):
            assert self._key_metrics(left) == self._key_metrics(right)

    def test_run_many_parallel_identical_to_serial(self):
        planner = Planner()
        deployments = [planner.plan("gcp", "mobilenet", "tf1.15", platform)
                       for platform in ("serverless", "managed_ml")]
        workload = standard_workload("w-40", seed=13, scale=0.04)
        cells = [(deployment, workload, 1.0, None)
                 for deployment in deployments]
        bench = ServingBenchmark(seed=13)
        serial = run_cells(bench, cells, workers=0, reads=self.READS)
        parallel = run_cells(bench, cells, workers=2, reads=self.READS)
        for left, right in zip(serial, parallel):
            assert self._key_metrics(left) == self._key_metrics(right)

    def test_run_records_events_processed(self, tiny_w40):
        deployment = Planner().plan("aws", "mobilenet", "tf1.15",
                                    "serverless")
        result = ServingBenchmark(seed=5).run(deployment, tiny_w40)
        assert result.metadata["events_processed"] > 0
