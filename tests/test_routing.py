"""Tests for the multi-region routing front door (platforms/routing).

Five layers:

* **Config**: the routing knobs validate on `ServiceConfig` and stay
  hashable sweep axes.
* **Units**: `BackendHealth`, `CircuitBreaker`, `LatencyQuantile`, the
  pure routing policies, and the router's attempt rows in isolation.
* **Ledger**: `RouterMeter` classification and the extended
  conservation identity, property-tested across fault schedules x
  routing policies.
* **Composition**: regional replicas strip routing knobs and correlated
  fault schedules strike region 0 only; the brownout backend serves the
  cheap model fault-free.
* **Hedge race**: with scripted backends (per-attempt latency and
  outcome), every way a hedged request can end — no hedge, the primary
  or the hedge first, a failure on either side or both, no admitting
  alternate — reports the right attempt at the right time, commits the
  client row once and frees every attempt row.
* **End to end**: failover strictly improves availability and recovery
  under the chaos-outage schedule, hedging fires, brownout degrades,
  runs stay bit-identical serial vs workers=N, and `region_count=1`
  never constructs a router.
"""

import math

import numpy as np
import pytest

from repro.core.benchmark import ServingBenchmark
from repro.core.executor import Executor
from repro.core.parallel import run_cells
from repro.core.planner import Planner
from repro.platforms.base import build_platform
from repro.platforms.routing import (
    BREAKER_STREAM,
    CIRCUIT_OPEN_ERROR,
    DEGRADED_LABEL,
    BackendHealth,
    BackendSnapshot,
    CircuitBreaker,
    LatencyQuantile,
    MultiRegionPlatform,
    RouterMeter,
    _AttemptRows,
    choose_priority,
    choose_weighted,
)
from repro.serving.deployment import ServiceConfig
from repro.serving.outcome_table import (
    _BLOCK_COLUMNS,
    _STAGE_NAMES,
    OutcomeColumns,
    OutcomeRecorder,
)
from repro.serving.streaming import OutcomeSummary
from repro.sim import Environment, RandomStreams
from repro.workload.requests import RequestPool

from outcome_rows import error_at, errors, row_values

SEED = 5


def run_platform(deployment, workload, seed=SEED):
    """Run a cell and return (platform, table) for router introspection."""
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


def snapshot(index, admits=True, success=1.0, latency=0.05, region_latency=0.0):
    return BackendSnapshot(index=index, region_latency_s=region_latency,
                           admits=admits, success_rate=success,
                           latency_s=latency)


# ---------------------------------------------------------------------------
# Config layer
# ---------------------------------------------------------------------------

class TestRoutingConfig:
    def test_defaults_are_single_region_no_router_knobs(self):
        config = ServiceConfig()
        assert config.region_count == 1
        assert config.breaker_failure_threshold == 0
        assert config.hedge_percentile == 0.0
        assert config.brownout_watermark == 0.0

    def test_config_validates_routing_knobs(self):
        for bad in ({"region_count": 0},
                    {"region_latency_s": (-0.01,)},
                    {"routing_policy": "roulette"},
                    {"health_alpha": 0.0},
                    {"health_alpha": 1.5},
                    {"breaker_failure_threshold": -1},
                    {"breaker_cooldown_s": 0.0},
                    {"hedge_percentile": 100.0},
                    {"hedge_min_samples": 0},
                    {"brownout_watermark": 1.5}):
            with pytest.raises(ValueError):
                ServiceConfig(**bad)

    def test_region_latencies_are_hashable_tuples(self):
        config = ServiceConfig(region_count=2, region_latency_s=[0.0, 0.03])
        assert config.region_latency_s == (0.0, 0.03)
        hash(config)


# ---------------------------------------------------------------------------
# Unit layer
# ---------------------------------------------------------------------------

class TestBackendHealth:
    def test_starts_optimistic(self):
        health = BackendHealth(alpha=0.2)
        assert health.success_rate == 1.0
        assert health.samples == 0

    def test_ewma_folds_toward_observations(self):
        health = BackendHealth(alpha=0.5)
        health.observe(False, 1.0)
        assert health.success_rate == pytest.approx(0.5)
        health.observe(False, 1.0)
        assert health.success_rate == pytest.approx(0.25)
        health.observe(True, 0.1)
        assert health.success_rate == pytest.approx(0.625)

    def test_failures_never_move_the_latency_tracker(self):
        health = BackendHealth(alpha=0.5)
        health.observe(True, 0.2)
        assert health.latency_s == pytest.approx(0.2)
        health.observe(False, 30.0)  # a timeout says nothing about speed
        assert health.latency_s == pytest.approx(0.2)


class TestCircuitBreaker:
    def test_threshold_zero_disables(self):
        breaker = CircuitBreaker(threshold=0, cooldown_s=1.0)
        for _ in range(50):
            breaker.record_failure(now=0.0)
        assert breaker.admits(0.0)
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.trips == 0

    def test_trips_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3, cooldown_s=10.0)
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        assert breaker.admits(0.0)
        breaker.record_failure(0.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.admits(5.0)
        assert breaker.trips == 1

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(threshold=3, cooldown_s=10.0)
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        breaker.record_success()
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_admits_a_single_probe(self):
        breaker = CircuitBreaker(threshold=1, cooldown_s=10.0)
        breaker.record_failure(0.0)
        assert not breaker.admits(5.0)
        assert breaker.admits(10.0)  # cooldown elapsed
        breaker.on_route(10.0)       # the probe goes out
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert not breaker.admits(10.0)  # only one probe at a time

    def test_probe_success_recloses_probe_failure_retrips(self):
        breaker = CircuitBreaker(threshold=1, cooldown_s=10.0)
        breaker.record_failure(0.0)
        breaker.on_route(10.0)
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.admits(10.0)
        breaker.record_failure(11.0)
        breaker.on_route(21.0)
        breaker.record_failure(21.5)
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips == 3

    def test_cooldown_jitter_draws_from_the_breaker_stream(self):
        rng, reference = RandomStreams(SEED), RandomStreams(SEED)
        breaker = CircuitBreaker(threshold=1, cooldown_s=10.0, rng=rng)
        breaker.record_failure(now=100.0)
        expected = 100.0 + 10.0 * reference.uniform(BREAKER_STREAM, 0.9, 1.1)
        assert breaker.open_until == pytest.approx(expected)
        assert 109.0 <= breaker.open_until <= 111.0


class TestLatencyQuantile:
    def test_not_ready_until_min_samples(self):
        quantile = LatencyQuantile(percentile=95.0, min_samples=4)
        for sample in (0.1, 0.2, 0.1):
            quantile.observe(sample)
        assert not quantile.ready
        quantile.observe(0.15)
        assert quantile.ready

    def test_estimate_tracks_the_upper_tail(self):
        p95 = LatencyQuantile(percentile=95.0, min_samples=1)
        p05 = LatencyQuantile(percentile=5.0, min_samples=1)
        for index in range(500):
            sample = 0.1 + 0.01 * (index % 10)
            p95.observe(sample)
            p05.observe(sample)
        assert p95.value > p05.value
        assert 0.1 <= p95.value <= 0.2

    def test_estimate_never_goes_negative(self):
        quantile = LatencyQuantile(percentile=5.0, min_samples=1)
        for _ in range(100):
            quantile.observe(0.0)
        assert quantile.value == 0.0


class TestRoutingPolicies:
    def test_priority_prefers_first_healthy_region(self):
        snaps = [snapshot(0), snapshot(1), snapshot(2)]
        assert choose_priority(snaps) == 0

    def test_priority_fails_over_past_unhealthy_and_open(self):
        snaps = [snapshot(0, admits=False),
                 snapshot(1, success=0.2),
                 snapshot(2, success=0.9)]
        assert choose_priority(snaps) == 2

    def test_priority_falls_back_to_unhealthy_admitting(self):
        snaps = [snapshot(0, admits=False), snapshot(1, success=0.1)]
        assert choose_priority(snaps) == 1

    def test_priority_none_when_every_breaker_is_open(self):
        snaps = [snapshot(0, admits=False), snapshot(1, admits=False)]
        assert choose_priority(snaps) is None

    def test_weighted_skips_open_breakers_and_covers_draw_range(self):
        snaps = [snapshot(0, admits=False), snapshot(1), snapshot(2)]
        chosen = {choose_weighted(snaps, draw / 100.0)
                  for draw in range(100)}
        assert 0 not in chosen
        assert chosen == {1, 2}

    def test_weighted_prefers_healthy_low_latency(self):
        snaps = [snapshot(0, success=0.9, latency=0.05),
                 snapshot(1, success=0.1, latency=0.05, region_latency=0.1)]
        picks = [choose_weighted(snaps, draw / 200.0) for draw in range(200)]
        assert picks.count(0) > picks.count(1)
        assert picks.count(1) > 0  # the floor weight keeps it discoverable

    def test_weighted_none_when_every_breaker_is_open(self):
        assert choose_weighted([snapshot(0, admits=False)], 0.5) is None

    def test_weighted_floors_success_and_latency(self):
        """Below the floors (1 % success, 1 ms latency) a backend weighs
        exactly what it weighs at them."""
        draws = [draw / 64.0 for draw in range(64)]
        at_floor = [snapshot(0, success=0.01, latency=1e-3),
                    snapshot(1, success=0.5, latency=0.02)]
        below = [snapshot(0, success=0.0, latency=0.0), at_floor[1]]
        assert ([choose_weighted(at_floor, draw) for draw in draws]
                == [choose_weighted(below, draw) for draw in draws])


class TestAttemptRows:
    """Opening a row writes every column of the block's column table,
    so a column added to ``_BLOCK_COLUMNS`` is covered here too."""

    INFERENCES = 3

    @staticmethod
    def dirty(rows, row):
        """Write a non-default value into every column of ``row``, and
        leave an error pending on it."""
        for name, (dtype, default) in _BLOCK_COLUMNS.items():
            rows.arrays[name][row] = (not default) if dtype is np.bool_ else 5
        rows.errors[row] = "timeout"

    def assert_opened(self, rows, row):
        """``row`` reads like a freshly opened row, byte for byte."""
        for name, (dtype, default) in _BLOCK_COLUMNS.items():
            if name in _STAGE_NAMES:
                default = -0.0
            elif name == "inferences":
                default = self.INFERENCES
            expected = np.array([default], dtype=dtype).tobytes()
            assert rows.arrays[name][row:row + 1].tobytes() == expected, name
        assert row not in rows.errors

    def test_reused_row_reads_like_a_fresh_one(self):
        rows = _AttemptRows(OutcomeColumns(0))
        first = rows.open(self.INFERENCES)
        self.assert_opened(rows, first)
        self.dirty(rows, first)
        rows.close(first)
        assert rows.open(self.INFERENCES) == first
        self.assert_opened(rows, first)
        fresh = rows.open(self.INFERENCES)
        assert fresh != first
        self.assert_opened(rows, fresh)

    def test_reused_rows_read_fresh_across_growth(self):
        """Rows written before the block grows from 16 to 32 rows are
        reset in the grown block, not in the storage it replaced."""
        rows = _AttemptRows(OutcomeColumns(0))
        opened = [rows.open(self.INFERENCES) for _ in range(16)]
        assert rows.rows == 16
        for row in opened:
            self.dirty(rows, row)
        grown = rows.open(self.INFERENCES)
        assert rows.rows == 32
        self.dirty(rows, grown)
        rows.close(opened[3])
        rows.close(grown)
        assert {rows.open(self.INFERENCES),
                rows.open(self.INFERENCES)} == {opened[3], grown}
        for row in (opened[3], grown):
            self.assert_opened(rows, row)

    def test_stage_pairs_follow_either_block_resizing(self):
        """The merge's (attempt, client) stage views are the views both
        blocks hold after either one resized."""
        client = OutcomeColumns(4)
        rows = _AttemptRows(client)
        rows.open(self.INFERENCES)
        rows.stage_pairs()
        for grow in (lambda: client.resize(8), lambda: rows.resize(32)):
            grow()
            pairs = rows.stage_pairs()
            assert len(pairs) == len(rows.stages)
            for (column, target, accumulates), name in zip(pairs,
                                                           rows.stages):
                assert column is rows.stages[name]
                assert target is client.stages[name]
                assert accumulates == (name == "network")


class TestRouterMeter:
    def _finished(self, success, error=""):
        """A finished request's ``(success, error)``."""
        return success, error

    def test_every_outcome_lands_in_exactly_one_bucket(self):
        meter = RouterMeter()
        cases = [
            (self._finished(True), False, "completed"),
            (self._finished(True, DEGRADED_LABEL), True, "completed"),
            (self._finished(False, "timeout"), False, "timed_out"),
            (self._finished(False, "shed"), False, "shed"),
            (self._finished(False, CIRCUIT_OPEN_ERROR), False, "shed"),
            (self._finished(False, "connection_refused"), False, "rejected"),
            (self._finished(False, "throttled"), False, "rejected"),
            (self._finished(False, "instance_crash"), False, "failed"),
            (self._finished(False, "transient_error"), False, "failed"),
        ]
        for (success, error), degraded, _bucket in cases:
            meter.record_submitted()
            meter.classify(success, error, degraded)
        notes = meter.notes()
        assert notes["submitted"] == len(cases)
        assert notes["submitted"] == (
            notes["completed"] + notes["failed"] + notes["rejected"]
            + notes["timed_out"] + notes["shed"])
        assert notes["completed"] == 2
        assert notes["degraded"] == 1  # a subset of completed, not a bucket
        assert notes["timed_out"] == 1
        assert notes["shed"] == 2
        assert notes["rejected"] == 2
        assert notes["failed"] == 2

    def test_hedges_are_telemetry_not_a_bucket(self):
        meter = RouterMeter()
        meter.record_submitted()
        meter.record_hedge()
        meter.classify(*self._finished(True), False)
        notes = meter.notes()
        assert notes["hedges"] == 1
        assert notes["submitted"] == notes["completed"] == 1


# ---------------------------------------------------------------------------
# Composition layer
# ---------------------------------------------------------------------------

class TestRegionalComposition:
    def _router(self, **overrides):
        deployment = Planner().plan(
            "aws", "mobilenet", "tf1.15", "managed_ml",
            region_count=2, **overrides)
        return build_platform(Environment(), deployment,
                              rng=RandomStreams(SEED))

    def test_correlated_faults_strike_region_zero_only(self):
        router = self._router(outage_start_s=40.0, outage_duration_s=30.0,
                              outage_fraction=1.0)
        assert isinstance(router, MultiRegionPlatform)
        assert router.backends[0].config.outage_start_s == 40.0
        assert router.backends[1].config.outage_start_s is None

    def test_uncorrelated_faults_strike_every_region(self):
        router = self._router(crash_mtbf_s=60.0, request_error_rate=0.05)
        for backend in router.backends:
            assert backend.config.crash_mtbf_s == 60.0
            assert backend.config.request_error_rate == 0.05

    def test_regions_are_plain_single_region_platforms(self):
        router = self._router(breaker_failure_threshold=5,
                              hedge_percentile=95.0, retry_attempts=3)
        for backend in router.backends:
            config = backend.config
            assert not isinstance(backend, MultiRegionPlatform)
            assert config.region_count == 1
            assert config.breaker_failure_threshold == 0
            assert config.hedge_percentile == 0.0
            assert config.retry_attempts == 1  # retries stay client-side

    def test_region_latencies_default_and_inherit(self):
        router = self._router()
        assert router._latencies == (0.0, 0.03)
        spread = Planner().plan("aws", "mobilenet", "tf1.15", "managed_ml",
                                region_count=3, region_latency_s=(0.0, 0.02))
        router = build_platform(Environment(), spread,
                                rng=RandomStreams(SEED))
        assert router._latencies == (0.0, 0.02, 0.02)

    def test_brownout_backend_serves_the_cheap_model_fault_free(self):
        deployment = Planner().plan(
            "aws", "albert", "tf1.15", "managed_ml", region_count=2,
            outage_start_s=40.0, outage_duration_s=30.0,
            brownout_watermark=0.8, brownout_model="mobilenet")
        router = build_platform(Environment(), deployment,
                                rng=RandomStreams(SEED))
        degraded = router.degraded_backend
        assert degraded is not None
        assert degraded.model.name == "mobilenet"
        assert degraded.config.outage_start_s is None
        assert degraded.config.brownout_watermark == 0.0

    def test_single_region_never_constructs_a_router(self):
        deployment = Planner().plan("aws", "mobilenet", "tf1.15",
                                    "managed_ml", region_count=1,
                                    breaker_failure_threshold=5)
        platform = build_platform(Environment(), deployment,
                                  rng=RandomStreams(SEED))
        assert not isinstance(platform, MultiRegionPlatform)


# ---------------------------------------------------------------------------
# Hedge race
# ---------------------------------------------------------------------------

class _ScriptedBackend:
    """A regional backend whose attempts follow a script: each
    ``request`` pops ``(latency, success, instance)``, waits the latency,
    and writes the attempt row (a failure writes ``failed-<instance>``)."""

    def __init__(self, env, script):
        self.env = env
        self.script = list(script)
        self.rows = None

    def bind(self, rows, commit=None):
        self.rows = rows

    def request(self, row, payload_mb, response_mb):
        latency, success, instance = self.script.pop(0)
        yield latency
        rows = self.rows
        rows.instance_id[row] = instance
        rows.billed_duration_s[row] = latency
        rows.predict_s[row] = latency
        rows.completion_time[row] = self.env.now
        if success:
            rows.success[row] = True
        else:
            rows.errors[row] = f"failed-{instance}"


class TestHedgeRace:
    """The hedge timer is primed at 1 s; region 0 takes the primary
    (priority routing), region 1 the hedge."""

    HEDGE_AT = 1.0

    def _run(self, primary, hedge=None, alternate_admits=True):
        """Serve one request; returns (router, recorder, row, commits,
        request process).  ``primary`` / ``hedge`` are
        ``(latency, success, instance)`` scripts for regions 0 and 1."""
        deployment = Planner().plan(
            "aws", "mobilenet", "tf1.15", "serverless", region_count=2,
            region_latency_s=(0.0, 0.0), routing_policy="priority",
            hedge_percentile=95.0, hedge_min_samples=1,
            breaker_failure_threshold=1)
        env = Environment()
        router = build_platform(env, deployment, rng=RandomStreams(SEED))
        router.backends = [_ScriptedBackend(env, [primary]),
                           _ScriptedBackend(env, [hedge] if hedge else [])]
        recorder = OutcomeRecorder(1)
        commits = []

        def commit(row):
            commits.append((row, env.now))
            recorder.commit(row)

        router.bind(recorder.columns, commit)
        router._quantile.observe(self.HEDGE_AT)
        assert router._quantile.ready
        if not alternate_admits:
            router.breakers[1].record_failure(0.0)
        row = recorder.register(0, 0, 0.0)
        process = env.process(router.request(row, 0.1, 0.01))
        return env, router, recorder, row, commits, process

    @staticmethod
    def _all_rows_free(router):
        attempts = router._attempts
        return sorted(attempts._free) == list(range(attempts._fresh))

    def test_no_hedge_when_the_primary_lands_first(self):
        env, router, recorder, row, commits, _ = self._run((0.5, True, 10))
        env.run()
        table = recorder.table()
        assert table.success[row] and table.instance_id[row] == 10
        assert table.completion_time[row] == 0.5
        assert commits == [(row, 0.5)]
        assert router.meter.hedges == 0 and router._attempts._fresh == 1
        # The withdrawn timer never ran.
        assert env.now == 0.5 and env.events_processed == 1
        assert self._all_rows_free(router)

    def test_primary_wins_after_the_hedge_fired(self):
        env, router, recorder, row, commits, process = self._run(
            (2.0, True, 10), (3.0, True, 20))
        env.run(until=2.5)
        table = recorder.table()
        assert table.success[row] and table.instance_id[row] == 10
        assert table.completion_time[row] == 2.0
        assert not process.is_alive
        assert router.meter.hedges == 1
        # The hedge still runs (and bills) on its row.
        assert not self._all_rows_free(router)
        env.run()
        assert env.now == 4.0
        assert commits == [(row, 2.0)]
        assert self._all_rows_free(router)

    def test_hedge_wins_and_finishes_the_client_row_when_it_lands(self):
        env, router, recorder, row, commits, process = self._run(
            (3.0, True, 10), (0.5, True, 20))
        env.run(until=2.0)
        table = recorder.table()
        assert table.success[row] and table.instance_id[row] == 20
        assert table.completion_time[row] == 1.5
        assert table.billed_duration_s[row] == 0.5
        finished = row_values(table, row)
        assert commits == [(row, 1.5)]
        assert router.meter.hedges == 1
        assert router.meter.completed == 1
        # The primary runs on inline in the request's process; its row
        # is freed when it lands.
        assert process.is_alive and not self._all_rows_free(router)
        env.run()
        assert env.now == 3.0 and not process.is_alive
        assert self._all_rows_free(router)
        assert commits == [(row, 1.5)]
        assert row_values(recorder.table(), row) == finished

    def test_primary_fails_first_and_the_hedge_succeeds(self):
        env, router, recorder, row, commits, _ = self._run(
            (1.5, False, 10), (1.0, True, 20))
        env.run()
        table = recorder.table()
        assert table.success[row] and table.instance_id[row] == 20
        assert table.completion_time[row] == 2.0
        assert error_at(table, row) == ""
        assert commits == [(row, 2.0)]
        assert self._all_rows_free(router)

    def test_hedge_fails_first_and_the_primary_succeeds(self):
        env, router, recorder, row, commits, _ = self._run(
            (2.0, True, 10), (0.2, False, 20))
        env.run()
        table = recorder.table()
        assert table.success[row] and table.instance_id[row] == 10
        assert table.completion_time[row] == 2.0
        assert commits == [(row, 2.0)]
        assert self._all_rows_free(router)

    @pytest.mark.parametrize("primary, hedge, first", [
        ((1.5, False, 10), (1.0, False, 20), 10),   # the primary first
        ((2.0, False, 10), (0.2, False, 20), 20),   # the hedge first
    ])
    def test_both_fail_and_the_first_completion_is_reported(
            self, primary, hedge, first):
        env, router, recorder, row, commits, _ = self._run(primary, hedge)
        env.run()
        table = recorder.table()
        assert not table.success[row]
        assert table.instance_id[row] == first
        assert error_at(table, row) == f"failed-{first}"
        # Reported once the other attempt failed too.
        assert commits == [(row, 2.0)]
        assert router.meter.failed == 1
        assert self._all_rows_free(router)

    def test_no_admitting_alternate_means_no_hedge(self):
        env, router, recorder, row, commits, _ = self._run(
            (2.0, True, 10), alternate_admits=False)
        env.run()
        table = recorder.table()
        assert table.success[row] and table.instance_id[row] == 10
        assert commits == [(row, 2.0)]
        assert router.meter.hedges == 0 and router._attempts._fresh == 1
        # The timer fired (counted) and found no backend to hedge on.
        assert env.events_processed == 2


# ---------------------------------------------------------------------------
# End to end
# ---------------------------------------------------------------------------

#: The chaos-outage schedule used by the failover study.
OUTAGE = dict(outage_start_s=40.0, outage_duration_s=30.0,
              outage_fraction=1.0, shed_watermark=1, retry_attempts=3,
              retry_base_delay_s=0.1, request_timeout_s=30.0)

#: Routing knobs of the failover-outage scenario.
ROUTED = dict(region_count=2, region_latency_s=(0.0, 0.03),
              routing_policy="priority", breaker_failure_threshold=5,
              breaker_cooldown_s=10.0)


@pytest.fixture(scope="module")
def outage_w40():
    from repro.workload.generator import standard_workload
    return standard_workload("w-40", seed=SEED, scale=0.3)


class TestFailoverEndToEnd:
    def test_multi_region_strictly_improves_availability_and_recovery(
            self, outage_w40):
        planner = Planner()
        single = planner.plan("aws", "mobilenet", "tf1.15", "managed_ml",
                              **OUTAGE)
        routed = planner.plan("aws", "mobilenet", "tf1.15", "managed_ml",
                              **OUTAGE, **ROUTED)
        _, single_table = run_platform(single, outage_w40)
        router, routed_table = run_platform(routed, outage_w40)
        single_summary = OutcomeSummary.of_table(single_table)
        routed_summary = OutcomeSummary.of_table(routed_table)
        single_avail = single_summary.availability(bin_s=5.0)
        routed_avail = routed_summary.availability(bin_s=5.0)
        assert routed_avail > single_avail
        single_ttr = single_summary.time_to_recover(70.0, bin_s=5.0)
        routed_ttr = routed_summary.time_to_recover(70.0, bin_s=5.0)
        # The single platform never recovers inside the horizon; the
        # routed one does — NaN orders after any finite recovery.
        assert not math.isnan(routed_ttr)
        assert math.isnan(single_ttr) or routed_ttr < single_ttr
        # Each retry attempt is its own platform submission, so the
        # client ledger's submitted count is the attempts total.
        assert (router.meter.notes()["submitted"]
                == int(routed_table.attempts.sum()))
        assert sum(breaker.trips for breaker in router.breakers) > 0

    def test_retry_pressure_drops_behind_the_router(self, outage_w40):
        planner = Planner()
        single = planner.plan("aws", "mobilenet", "tf1.15", "managed_ml",
                              **OUTAGE)
        routed = planner.plan("aws", "mobilenet", "tf1.15", "managed_ml",
                              **OUTAGE, **ROUTED)
        _, single_table = run_platform(single, outage_w40)
        _, routed_table = run_platform(routed, outage_w40)
        assert (OutcomeSummary.of_table(routed_table).attempts_mean()
                < OutcomeSummary.of_table(single_table).attempts_mean())

    def test_late_attempts_filed_only_for_late_committing_backends(
            self, outage_w40):
        """Managed-ML regions never serve after a deadline.

        No attempt row is left waiting for a late serve (only a
        serverless backend holds one), and every client row the router
        timed out keeps the billing it had when the router gave up:
        none, on a slot-model endpoint.
        """
        routed = Planner().plan("aws", "mobilenet", "tf1.15", "managed_ml",
                                **OUTAGE, **ROUTED)
        router, table = run_platform(routed, outage_w40)
        assert router.meter.notes()["timed_out"] > 0
        assert not router._attempts._held and not router._attempts._closed
        if "timeout" in table.error_names:
            timed_out = table.error_code == table.error_names.index("timeout")
            assert (table.billed_duration_s[timed_out] == 0.0).all()

    def test_late_recommit_matches_the_filed_attempt_by_identity(self):
        """A routed request that times out at the client and is served
        late ends with the late billed seconds and instance in its row.

        Each attempt runs on an attempt row of its own.  Both requests
        time out at the 1 s deadline (a cold start, then an instance's
        slow first predict) and are served late by different instances:
        each late serve's billing lands in its own client row.
        """
        deployment = Planner().plan("aws", "mobilenet", "tf1.15",
                                    "serverless", region_count=2,
                                    request_timeout_s=1.0)
        env = Environment()
        router = build_platform(env, deployment, rng=RandomStreams(SEED))
        recorder = OutcomeRecorder(2)
        router.bind(recorder.columns, recorder.commit)
        router.start()
        rows = [recorder.register(0, 0, 0.0), recorder.register(1, 0, 60.0)]

        def client():
            yield from router.request(rows[0], 0.1, 0.01)
            yield 60.0 - env.now
            yield from router.request(rows[1], 0.1, 0.01)

        env.process(client())
        env.run(until=120.0)
        table = recorder.table()
        for row in rows:
            assert error_at(table, row) == "timeout"
            assert not table.success[row]
            assert table.completion_time[row] < table.send_time[row] + 2.0
            assert table.instance_id[row] >= 0
            assert table.billed_duration_s[row] > 0.0
        first, second = rows
        assert table.instance_id[first] != table.instance_id[second]
        assert (table.billed_duration_s[first]
                != table.billed_duration_s[second])
        assert not router._attempts._held and not router._attempts._closed

    def test_hedging_fires_and_ledger_holds(self, tiny_w40):
        deployment = Planner().plan(
            "aws", "mobilenet", "tf1.15", "serverless",
            region_count=2, routing_policy="weighted",
            hedge_percentile=50.0, hedge_min_samples=8)
        router, table = run_platform(deployment, tiny_w40)
        notes = router.meter.notes()
        assert notes["hedges"] > 0
        assert notes["submitted"] == int(table.attempts.sum())
        assert notes["submitted"] == (
            notes["completed"] + notes["failed"] + notes["rejected"]
            + notes["timed_out"] + notes["shed"])

    def test_brownout_degrades_instead_of_queueing(self, tiny_w40):
        deployment = Planner().plan(
            "aws", "albert", "tf1.15", "managed_ml",
            region_count=2, initial_instances=1, max_instances=1,
            brownout_watermark=0.3, brownout_model="mobilenet")
        router, table = run_platform(deployment, tiny_w40)
        notes = router.meter.notes()
        assert notes["degraded"] > 0
        assert notes["degraded"] <= notes["completed"]
        assert OutcomeSummary.of_table(table).degraded_ratio() > 0.0
        # Degraded completions are successes labelled, not failures.
        assert DEGRADED_LABEL in errors(table)

    def test_conservation_property_across_schedules_and_policies(
            self, tiny_w40):
        """submitted == sum(buckets) for fault schedules x policies."""
        schedules = [
            dict(outage_start_s=10.0, outage_duration_s=15.0,
                 outage_fraction=1.0, shed_watermark=1),
            dict(crash_mtbf_s=20.0),
            dict(request_error_rate=0.1),
            dict(storm_times_s=(10.0, 25.0)),
            dict(crash_mtbf_s=30.0, request_error_rate=0.05,
                 retry_attempts=2),
        ]
        planner = Planner()
        for schedule in schedules:
            for policy in ("priority", "weighted"):
                kind = ("managed_ml" if "outage_start_s" in schedule
                        else "serverless")
                deployment = planner.plan(
                    "aws", "mobilenet", "tf1.15", kind,
                    region_count=2, routing_policy=policy,
                    breaker_failure_threshold=5, breaker_cooldown_s=5.0,
                    hedge_percentile=90.0, **schedule)
                router, table = run_platform(deployment, tiny_w40)
                notes = router.meter.notes()
                label = f"{schedule} x {policy}"
                assert notes["submitted"] == int(table.attempts.sum()), label
                assert notes["submitted"] == (
                    notes["completed"] + notes["failed"]
                    + notes["rejected"] + notes["timed_out"]
                    + notes["shed"]), label
                assert notes["degraded"] <= notes["completed"], label
                # Client rows match the router's client-level ledger.
                assert notes["completed"] == int(table.success.sum()), label

    def test_attempt_rows_open_without_slice_resets(self, monkeypatch,
                                                    tiny_w40):
        """A routed cell opens its attempt rows with scalar stores: the
        block's slice reset (the chunk ring's) never runs on them."""
        reset = OutcomeColumns.reset
        blocks = []

        def spy(block, start, stop):
            blocks.append(block)
            reset(block, start, stop)

        monkeypatch.setattr(OutcomeColumns, "reset", spy)
        deployment = Planner().plan(
            "aws", "mobilenet", "tf1.15", "serverless",
            region_count=2, routing_policy="weighted",
            breaker_failure_threshold=8, breaker_cooldown_s=5.0,
            hedge_percentile=95.0, crash_mtbf_s=30.0, retry_attempts=3)
        router, table = run_platform(deployment, tiny_w40)
        assert table.count > router._attempts.rows > 0
        assert not any(isinstance(block, _AttemptRows) for block in blocks)

    def test_streamed_routed_cell_agrees_with_the_full_table(self, tiny_w40):
        """The chunk ring grows its block mid-run, and the router's
        merges follow the client rows into the grown block."""
        deployment = Planner().plan(
            "aws", "mobilenet", "tf1.15", "serverless",
            region_count=2, routing_policy="weighted",
            hedge_percentile=90.0, hedge_min_samples=16, crash_mtbf_s=30.0,
            retry_attempts=2)
        full = ServingBenchmark(seed=SEED).run(deployment, tiny_w40).table
        streamed = ServingBenchmark(
            seed=SEED, streaming_threshold=0,
            chunk_rows=32).run(deployment, tiny_w40)
        assert streamed.streaming
        assert streamed.metadata["peak_resident_chunks"] > 1
        summary = streamed.table
        assert summary.count == full.count
        assert summary.success_ratio == full.success_ratio
        assert summary.cold_start_ratio == full.cold_start_ratio
        assert summary.attempts_mean() == full.attempts_mean()
        assert summary.average_latency == pytest.approx(full.average_latency)

    def test_routed_chaos_cells_identical_across_worker_pool(self, tiny_w40):
        planner = Planner()
        deployments = [
            planner.plan("aws", "mobilenet", "tf1.15", "managed_ml",
                         region_count=2, routing_policy="priority",
                         breaker_failure_threshold=5,
                         outage_start_s=10.0, outage_duration_s=15.0,
                         outage_fraction=1.0, shed_watermark=1,
                         retry_attempts=2),
            planner.plan("aws", "mobilenet", "tf1.15", "serverless",
                         region_count=2, routing_policy="weighted",
                         crash_mtbf_s=30.0, hedge_percentile=90.0,
                         hedge_min_samples=16),
            planner.plan("aws", "albert", "tf1.15", "managed_ml",
                         region_count=3, routing_policy="weighted",
                         request_error_rate=0.05, brownout_watermark=0.7,
                         brownout_model="mobilenet"),
        ]
        bench = ServingBenchmark(seed=SEED)
        cells = [(deployment, tiny_w40, 1.0, None)
                 for deployment in deployments]
        serial = run_cells(bench, cells, workers=0)
        parallel = run_cells(bench, cells, workers=3)
        for left, right in zip(serial, parallel):
            assert left.table.column_hash() == right.table.column_hash()
            assert left.cost == right.cost

    def test_region_count_one_is_bit_identical_to_no_routing(self, tiny_w40):
        planner = Planner()
        plain = planner.plan("aws", "mobilenet", "tf1.15", "serverless")
        pinned = planner.plan("aws", "mobilenet", "tf1.15", "serverless",
                              region_count=1, routing_policy="weighted",
                              breaker_failure_threshold=5,
                              hedge_percentile=95.0)
        bench = ServingBenchmark(seed=SEED)
        assert (bench.run(plain, tiny_w40).table.column_hash()
                == bench.run(pinned, tiny_w40).table.column_hash())

    def test_regional_billing_is_audited_in_the_merged_usage(self, tiny_w40):
        deployment = Planner().plan(
            "aws", "mobilenet", "tf1.15", "managed_ml",
            region_count=2, outage_start_s=10.0, outage_duration_s=15.0,
            outage_fraction=1.0, shed_watermark=1)
        env = Environment()
        rng = RandomStreams(SEED)
        platform = build_platform(env, deployment, rng=rng)
        pool = RequestPool(
            sample_payload_mb=deployment.model.input_payload_mb,
            pool_size=tiny_w40.spec.request_pool_size, seed=SEED)
        executor = Executor(env=env, platform=platform, workload=tiny_w40,
                            request_pool=pool, rng=rng,
                            recorder=OutcomeRecorder(tiny_w40.count))
        executor.execute(until=tiny_w40.spec.duration_s + 400.0)
        usage = platform.finalize(env.now)
        regional = [key for key in usage.notes if key.startswith("region")]
        assert any(key.startswith("region0.") for key in regional)
        assert any(key.startswith("region1.") for key in regional)
        assert usage.notes["breaker_trips"] >= 0
        assert usage.cost > 0
        assert usage.peak_instances == int(usage.instance_count.max())
