"""Tests for the fault-injection subsystem (core/faults + platform wiring).

Four layers:

* **Spec**: `FaultSpec` / `RetryPolicy` construction from `ServiceConfig`
  knobs — inactive at the defaults, validated when set.
* **Pool**: `InstancePool.kill` semantics — any live state, O(1)
  counters exact, billing stopped at the kill, idempotent.
* **Platform**: crashes, outages, storms, transient errors, and load
  shedding on the real serverless / endpoint platforms, including the
  admission-model split (serverless re-queues in-flight work, endpoints
  fail it back to the client).
* **Determinism**: fault draws come from dedicated named streams, so a
  chaos cell is bit-identical across worker pools, and the SLO
  reductions read a known timeline correctly.
"""

import math
import pickle

import pytest

from repro.core.benchmark import ServingBenchmark
from repro.core.executor import Executor
from repro.core.faults import (
    BACKOFF_STREAM,
    FaultInjector,
    FaultSpec,
    OutageWindow,
    RetryPolicy,
)
from repro.core.parallel import run_cells
from repro.core.planner import Planner
from repro.platforms.base import build_platform
from repro.platforms.pool import InstancePool, InstanceState
from repro.serving.deployment import ServiceConfig
from repro.serving.outcome_table import OutcomeRecorder
from repro.serving.streaming import OutcomeSummary
from repro.sim import Environment, RandomStreams
from repro.workload.requests import RequestPool

from outcome_rows import error_at, errors

SEED = 5


def run_platform(deployment, workload, seed=SEED):
    """Run a cell and return (platform, table) for fleet introspection.

    `ServingBenchmark.run` does not expose the platform, and these
    tests assert on pool counters (`killed`, `ready`, ...) after the
    run, so they drive the executor directly the way the benchmark does.
    """
    env = Environment()
    rng = RandomStreams(seed)
    platform = build_platform(env, deployment, rng=rng)
    pool = RequestPool(sample_payload_mb=deployment.model.input_payload_mb,
                       pool_size=workload.spec.request_pool_size, seed=seed)
    executor = Executor(env=env, platform=platform, workload=workload,
                        request_pool=pool, rng=rng,
                        recorder=OutcomeRecorder(workload.count))
    table = executor.execute(until=workload.spec.duration_s + 400.0).table()
    table.fail_unfinished(workload.spec.duration_s + 400.0)
    return platform, table


def error_counts(table):
    counts = {}
    for error in errors(table):
        if error:
            counts[error] = counts.get(error, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# Spec layer
# ---------------------------------------------------------------------------

class TestFaultSpec:
    def test_default_config_builds_no_spec(self):
        assert FaultSpec.from_config(ServiceConfig()) is None

    def test_each_knob_activates_the_spec(self):
        for overrides in ({"crash_mtbf_s": 60.0},
                          {"outage_start_s": 10.0},
                          {"storm_times_s": (5.0,)},
                          {"request_error_rate": 0.1}):
            spec = FaultSpec.from_config(ServiceConfig(**overrides))
            assert spec is not None and spec.active, overrides

    def test_outage_window_covers_half_open_interval(self):
        """The injector applies the window as ``[start_s, end_s)``."""
        window = OutageWindow(start_s=10.0, duration_s=5.0)
        assert window.end_s == 15.0
        # launch time -> when the domain kills the instance (None: never)
        for launched_s, killed_s in ((9.999, 10.0), (10.0, 10.0),
                                     (14.999, 14.999), (15.0, None)):
            env = Environment()
            killed = []
            injector = FaultInjector(
                env, FaultSpec(outage=window), RandomStreams(SEED),
                kill=lambda instance: killed.append(env.now))
            env.run(until=launched_s)
            injector.watch(InstancePool(env).launch(warm=True))
            env.run(until=20.0)
            assert killed == ([] if killed_s is None else [killed_s]), (
                launched_s)

    def test_config_validates_fault_knobs(self):
        for bad in ({"crash_mtbf_s": 0.0},
                    {"outage_start_s": -1.0},
                    {"outage_fraction": 1.5},
                    {"request_error_rate": 1.0},
                    {"retry_attempts": 0},
                    {"request_timeout_s": 0.0},
                    {"shed_watermark": -1},
                    {"storm_times_s": (-5.0,)}):
            with pytest.raises(ValueError):
                ServiceConfig(**bad)

    def test_storm_times_are_hashable(self):
        config = ServiceConfig(storm_times_s=[5.0, 10.0])
        assert config.storm_times_s == (5.0, 10.0)
        hash(config)


class TestRetryPolicy:
    def test_disabled_below_two_attempts(self):
        assert RetryPolicy.from_config(ServiceConfig()) is None
        policy = RetryPolicy.from_config(ServiceConfig(retry_attempts=3))
        assert policy is not None and policy.attempts == 3

    def test_backoff_is_capped_jittered_exponential(self):
        policy = RetryPolicy(attempts=5, base_delay_s=0.1, max_delay_s=0.4)
        rng = RandomStreams(SEED)
        for attempt in range(1, 6):
            ceiling = min(0.4, 0.1 * 2 ** (attempt - 1))
            for _ in range(50):
                delay = policy.backoff(rng, attempt)
                assert 0.0 <= delay <= ceiling

    def test_backoff_uses_its_own_named_stream(self):
        policy = RetryPolicy(attempts=3, base_delay_s=0.1, max_delay_s=1.0)
        streams, reference = RandomStreams(SEED), RandomStreams(SEED)
        draws = [policy.backoff(streams, 2) for _ in range(5)]
        expected = [reference.uniform(BACKOFF_STREAM, 0.0, 0.2)
                    for _ in range(5)]
        assert draws == expected


# ---------------------------------------------------------------------------
# Pool kill semantics
# ---------------------------------------------------------------------------

class TestPoolKill:
    def _pool(self):
        return InstancePool(Environment(), keep_records=True)

    def test_kill_busy_instance_keeps_counters_exact(self):
        pool = self._pool()
        instance = pool.launch(warm=True)
        pool.mark_busy(instance)
        pool.env.run(until=10.0)
        pool.kill(instance)
        assert instance.state == InstanceState.RETIRED
        assert not instance.alive
        assert (pool.busy, pool.idle, pool.warming) == (0, 0, 0)
        assert (pool.alive, pool.ready) == (0, 0)
        assert (pool.retired, pool.killed) == (1, 1)

    def test_kill_covers_every_live_state(self):
        pool = self._pool()
        warming = pool.launch(warm=False)
        idle = pool.launch(warm=True)
        busy = pool.launch(warm=True)
        pool.mark_busy(busy)
        for instance in (warming, idle, busy):
            pool.kill(instance)
        assert (pool.warming, pool.idle, pool.busy, pool.alive) == (0, 0, 0, 0)
        assert pool.killed == 3

    def test_kill_stops_instance_hour_billing_at_kill_time(self):
        pool = self._pool()
        instance = pool.launch(warm=True)
        pool.env.run(until=30.0)
        pool.kill(instance)
        assert instance.retire_time == 30.0
        pool.env.run(until=100.0)
        assert pool.instance_seconds(end_time=100.0) == 30.0

    def test_kill_warming_instance_racing_concurrent_scale_out(self):
        # Chaos kills a warming instance while a second scale-out
        # launch is already in flight: the counters must track the two
        # instances independently and billing must stay exact for both.
        pool = self._pool()
        victim = pool.launch(warm=False)
        pool.env.run(until=1.0)
        replacement = pool.launch(warm=False)  # scale-out in flight
        pool.kill(victim)                      # strikes mid-bring-up
        assert (pool.warming, pool.alive) == (1, 1)
        assert (pool.killed, pool.retired) == (1, 1)
        pool.mark_ready(replacement)           # the in-flight launch lands
        assert (pool.warming, pool.idle, pool.ready) == (0, 1, 1)
        pool.env.run(until=10.0)
        pool.retire(replacement)
        # The victim billed [0 s, 1 s); the replacement [1 s, 10 s).
        assert pool.instance_seconds(end_time=10.0) == pytest.approx(10.0)

    def test_double_kill_and_kill_after_retire_are_noops(self):
        pool = self._pool()
        instance = pool.launch(warm=True)
        pool.kill(instance)
        pool.kill(instance)
        assert (pool.retired, pool.killed, pool.alive) == (1, 1, 0)
        retired = pool.launch(warm=True)
        pool.retire(retired)
        pool.kill(retired)
        assert pool.killed == 1


class TestInjectorUnits:
    def test_injector_skips_dead_instances(self):
        env = Environment()
        spec = FaultSpec(outage=OutageWindow(start_s=5.0, duration_s=5.0))
        pool = InstancePool(env, keep_records=True)
        killed = []
        injector = FaultInjector(env, spec, RandomStreams(SEED),
                                 kill=killed.append)
        instance = pool.launch(warm=True)
        injector.watch(instance)
        pool.retire(instance)  # dies of natural causes before the outage
        env.run(until=20.0)
        assert killed == []

    def test_storm_flushes_fire_in_order(self):
        env = Environment()
        spec = FaultSpec(storm_times_s=(4.0, 9.0))
        flushes = []
        injector = FaultInjector(env, spec, RandomStreams(SEED),
                                 kill=lambda instance: None,
                                 flush=lambda: flushes.append(env.now))
        injector.start()
        env.run(until=20.0)
        assert flushes == [4.0, 9.0]


# ---------------------------------------------------------------------------
# Platform integration
# ---------------------------------------------------------------------------

class TestServerlessFaults:
    def test_crashes_requeue_in_flight_work(self, tiny_w40):
        deployment = Planner().plan("aws", "mobilenet", "tf1.15",
                                    "serverless", crash_mtbf_s=20.0)
        platform, table = run_platform(deployment, tiny_w40)
        assert platform.pool.killed > 0
        # Backlog admission: the crashed sandbox's request is
        # re-dispatched, so no request is lost to the crash.
        notes = platform.meter.conservation_notes()
        assert notes["submitted"] == table.count
        assert notes["completed"] == int(table.success.sum())
        assert notes["submitted"] == (
            notes["completed"] + notes["failed"] + notes["rejected"]
            + notes["timed_out"] + notes["shed"])

    def test_requeued_ticket_survives_its_receiver_dying_at_once(self):
        """An outage kills the serving and the idle instance together.

        The serving instance's ticket is requeued onto the idle one,
        which the same outage kills in the same instant, before it
        starts serving.  Its own crash handler must requeue the ticket
        again, so the request is served once capacity comes back
        instead of waiting out its whole deadline.
        """
        deployment = Planner().plan("aws", "mobilenet", "tf1.15",
                                    "serverless", provisioned_concurrency=2,
                                    outage_start_s=10.0,
                                    outage_duration_s=5.0,
                                    outage_fraction=1.0)
        env = Environment()
        platform = build_platform(env, deployment, rng=RandomStreams(SEED))
        recorder = OutcomeRecorder(1)
        platform.bind(recorder.columns, recorder.commit)
        platform.start()
        row = recorder.register(0, 0, 9.95)

        def client():
            yield 9.95
            yield from platform.request(row, 0.1, 0.01)

        env.process(client())
        env.run(until=400.0)
        table = recorder.table()
        assert platform.pool.killed >= 2
        assert table.success[row], error_at(table, row)
        # Served by an instance launched after the outage window, long
        # before the 300 s deadline.
        assert table.instance_id[row] >= 2
        assert 15.0 < table.completion_time[row] < 60.0

    def test_storms_force_extra_cold_starts(self, tiny_w40):
        planner = Planner()
        quiet = planner.plan("aws", "mobilenet", "tf1.15", "serverless")
        stormy = planner.plan("aws", "mobilenet", "tf1.15", "serverless",
                              storm_times_s=(10.0, 25.0))
        _, quiet_table = run_platform(quiet, tiny_w40)
        stormy_platform, stormy_table = run_platform(stormy, tiny_w40)
        assert stormy_platform.pool.killed > 0
        assert (int(stormy_table.cold_start.sum())
                > int(quiet_table.cold_start.sum()))

    def test_transient_errors_surface_and_retries_absorb_them(self, tiny_w40):
        # Batched clients (batch_size 4) must go through the retry loop
        # too: each batch is one invocation, retried as a whole.
        planner = Planner()
        for batch_size in (1, 4):
            flaky = planner.plan("aws", "mobilenet", "tf1.15", "serverless",
                                 request_error_rate=0.1,
                                 batch_size=batch_size)
            _, flaky_table = run_platform(flaky, tiny_w40)
            flaky_errors = error_counts(flaky_table)
            assert flaky_errors.get("transient_error", 0) > 0, batch_size
            resilient = planner.plan("aws", "mobilenet", "tf1.15",
                                     "serverless", request_error_rate=0.1,
                                     retry_attempts=4, batch_size=batch_size)
            _, resilient_table = run_platform(resilient, tiny_w40)
            flaky_ratio = flaky_table.success.sum() / flaky_table.count
            resilient_ratio = (resilient_table.success.sum()
                               / resilient_table.count)
            assert resilient_ratio > flaky_ratio, batch_size
            assert resilient_ratio > 0.99, (batch_size, resilient_ratio)
            assert (OutcomeSummary.of_table(resilient_table).attempts_mean()
                    > 1.0), batch_size


class TestEndpointFaults:
    def test_outage_kills_fleet_and_sheds_load(self, tiny_w40):
        deployment = Planner().plan(
            "aws", "mobilenet", "tf1.15", "managed_ml",
            outage_start_s=10.0, outage_duration_s=15.0,
            outage_fraction=1.0, shed_watermark=1)
        platform, table = run_platform(deployment, tiny_w40)
        assert platform.pool.killed > 0
        errors = error_counts(table)
        # Slot-model admission: in-flight work on the dead instance
        # fails back to the client, and the watermark sheds while no
        # instance is ready.
        assert errors.get("instance_crash", 0) > 0
        assert errors.get("shed", 0) > 0
        notes = platform.meter.finalize(
            pool=platform.pool, end_time=platform.env.now,
            queue=platform.queue).notes
        assert notes["submitted"] == (
            notes["completed"] + notes["failed"] + notes["rejected"]
            + notes["timed_out"] + notes["shed"])
        assert notes["shed"] == errors["shed"]

    def test_killed_instance_stops_billing_at_the_kill(self, tiny_w40):
        deployment = Planner().plan(
            "aws", "mobilenet", "tf1.15", "cpu_server",
            outage_start_s=10.0, outage_duration_s=5.0, outage_fraction=1.0)
        platform, _table = run_platform(deployment, tiny_w40)
        killed = [record for record in platform.pool.records
                  if record.retire_time is not None]
        assert killed
        assert all(record.retire_time >= 10.0 for record in killed)
        # Accrual caps at the kill, not the end of the run.
        horizon = platform.env.now
        accrued = platform.pool.instance_seconds(end_time=horizon)
        naive = sum(horizon - record.launch_time
                    for record in platform.pool.records)
        assert accrued < naive

    def test_kill_during_warming_never_corrupts_counters(self, tiny_w40):
        # The outage window overlaps the autoscaler's relaunches, so
        # some kills land on WARMING instances whose bring-up completes
        # into nothing afterwards.
        deployment = Planner().plan(
            "aws", "mobilenet", "tf1.15", "managed_ml",
            outage_start_s=5.0, outage_duration_s=40.0, outage_fraction=1.0)
        platform, _table = run_platform(deployment, tiny_w40)
        pool = platform.pool
        states = {}
        for record in pool.records:
            states[record.state] = states.get(record.state, 0) + 1
        assert pool.warming == states.get(InstanceState.WARMING, 0)
        assert pool.idle == states.get(InstanceState.IDLE, 0)
        assert pool.busy == states.get(InstanceState.BUSY, 0)
        assert pool.retired == states.get(InstanceState.RETIRED, 0)
        assert pool.alive == pool.warming + pool.idle + pool.busy


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

class TestFaultDeterminism:
    def test_chaos_cells_identical_across_worker_pool(self, tiny_w40):
        planner = Planner()
        deployments = [
            planner.plan("aws", "mobilenet", "tf1.15", "serverless",
                         crash_mtbf_s=30.0, retry_attempts=3),
            planner.plan("aws", "mobilenet", "tf1.15", "managed_ml",
                         outage_start_s=10.0, outage_duration_s=15.0,
                         outage_fraction=1.0, shed_watermark=1,
                         retry_attempts=2),
            planner.plan("aws", "mobilenet", "tf1.15", "serverless",
                         storm_times_s=(10.0, 25.0),
                         request_error_rate=0.05),
        ]
        bench = ServingBenchmark(seed=SEED)
        cells = [(deployment, tiny_w40, 1.0, None)
                 for deployment in deployments]
        serial = run_cells(bench, cells, workers=0)
        parallel = run_cells(bench, cells, workers=3)
        for left, right in zip(serial, parallel):
            assert left.table.column_hash() == right.table.column_hash()
            assert left.cost == right.cost

    def test_same_seed_same_chaos_different_seed_different_chaos(self, tiny_w40):
        deployment = Planner().plan("aws", "mobilenet", "tf1.15",
                                    "serverless", crash_mtbf_s=30.0)
        bench = ServingBenchmark(seed=SEED)
        first = bench.run(deployment, tiny_w40).table.column_hash()
        again = bench.run(deployment, tiny_w40).table.column_hash()
        other = ServingBenchmark(seed=SEED + 1).run(
            deployment, tiny_w40).table.column_hash()
        assert first == again
        assert first != other


# ---------------------------------------------------------------------------
# SLO reductions
# ---------------------------------------------------------------------------

class TestSLOReductions:
    def _summary(self, rows):
        """The whole-table summary of a table built from (send_time,
        success) pairs, 0.5 s latency."""
        recorder = OutcomeRecorder(len(rows))
        columns = recorder.columns
        for index, (send, success) in enumerate(rows):
            row = recorder.register(index, 0, send)
            columns.completion_time[row] = send + 0.5
            if success:
                columns.success[row] = True
            else:
                columns.errors[row] = "instance_crash"
            recorder.commit(row)
        return OutcomeSummary.of_table(recorder.table())

    def test_slo_attainment_counts_failures_against_the_target(self):
        summary = self._summary([(0.0, True), (1.0, True),
                                 (2.0, False), (3.0, False)])
        assert summary.slo_attainment(1.0) == 0.5
        assert summary.slo_attainment(0.1) == 0.0

    def test_empty_table_is_vacuously_healthy(self):
        summary = self._summary([])
        assert summary.slo_attainment(1.0) == 1.0
        assert summary.availability() == 1.0

    def test_availability_counts_dark_bins(self):
        # Bins of 10 s over [0, 50): healthy, dead, empty, healthy, dead.
        rows = ([(1.0, True), (2.0, True)]
                + [(11.0, False), (12.0, False)]
                + [(31.0, True)]
                + [(41.0, False), (42.0, True), (43.0, False)])
        summary = self._summary(rows)
        assert summary.availability(bin_s=10.0) == pytest.approx(3 / 5)
        with pytest.raises(ValueError):
            summary.availability(bin_s=0.0)

    def test_time_to_recover_finds_first_healthy_bin(self):
        rows = [(5.0, True), (15.0, False), (25.0, False), (35.0, True)]
        summary = self._summary(rows)
        assert summary.time_to_recover(10.0, bin_s=10.0) == 20.0
        # Already healthy at the probe time.
        assert summary.time_to_recover(0.0, bin_s=10.0) == 0.0

    def test_time_to_recover_nan_when_never_healthy_again(self):
        rows = [(5.0, True), (15.0, False), (25.0, False)]
        summary = self._summary(rows)
        assert math.isnan(summary.time_to_recover(10.0, bin_s=10.0))

    def test_time_to_recover_at_the_last_recorded_bin_is_finite(self):
        # The only healthy bin is the final one of the horizon: the
        # scan must reach it and report a finite gap, not the NaN
        # never-recovered sentinel.
        rows = [(5.0, True), (15.0, False), (25.0, False),
                (35.0, False), (45.0, True)]
        summary = self._summary(rows)
        ttr = summary.time_to_recover(10.0, bin_s=10.0)
        assert not math.isnan(ttr)
        assert ttr == 30.0


class TestAttemptsColumn:
    def _table(self, attempts_per_row):
        recorder = OutcomeRecorder(len(attempts_per_row))
        columns = recorder.columns
        for index, attempts in enumerate(attempts_per_row):
            row = recorder.register(index, 0, float(index))
            columns.attempts[row] = attempts
            columns.completion_time[row] = index + 0.5
            columns.success[row] = True
            recorder.commit(row)
        return recorder.table()

    def test_recorder_commits_the_attempts_column(self):
        table = self._table([1, 3, 2])
        assert table.attempts.tolist() == [1, 3, 2]
        assert OutcomeSummary.of_table(table).attempts_mean() == \
            pytest.approx(2.0)
        assert table.attempts[1] == 3

    def test_retry_free_attempts_preserve_historical_hashes(self):
        # An all-ones attempts column is the pre-column default: it
        # must hash identically to a table that never touched it.
        explicit = self._table([1, 1, 1])
        implicit_recorder = OutcomeRecorder(3)
        for index in range(3):
            row = implicit_recorder.register(index, 0, float(index))
            implicit_recorder.columns.completion_time[row] = index + 0.5
            implicit_recorder.columns.success[row] = True
            implicit_recorder.commit(row)
        assert explicit.column_hash() == implicit_recorder.table().column_hash()

    def test_retried_attempts_are_part_of_the_digest(self):
        assert (self._table([1, 1]).column_hash()
                != self._table([1, 2]).column_hash())

    def test_packed_roundtrip_preserves_and_elides_attempts(self):
        """The whole-table summary a worker ships keeps the attempts
        reduction and the table's hash, and no attempts column: past its
        fixed-size fields it holds 16 bytes per successful request."""
        fixed = OutcomeSummary.of_table(self._table([])).resident_bytes()
        for attempts in ([1, 4, 2], [1, 1, 1]):
            table = self._table(attempts)
            summary = pickle.loads(pickle.dumps(
                OutcomeSummary.of_table(table)))
            assert summary.attempts_total == sum(attempts)
            assert summary.attempts_mean() == float(table.attempts.mean())
            assert summary.column_hash() == table.column_hash()
            assert summary.resident_bytes() == fixed + 16 * len(attempts)

    def test_retry_wrapper_commits_attempts_end_to_end(self, tiny_w40):
        deployment = Planner().plan(
            "aws", "mobilenet", "tf1.15", "serverless",
            request_error_rate=0.2, retry_attempts=4)
        _, table = run_platform(deployment, tiny_w40)
        assert int(table.attempts.max()) > 1
        summary = OutcomeSummary.of_table(table)
        assert summary.attempts_mean() > 1.0
        # The headline reduction matches the raw column.
        assert summary.attempts_mean() == pytest.approx(
            float(table.attempts.mean()))
