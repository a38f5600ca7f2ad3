"""Tests for the multi-region routing front door (platforms/routing).

Five layers:

* **Config**: the routing knobs validate on `ServiceConfig` and stay
  hashable sweep axes.
* **Units**: `BackendHealth`, `CircuitBreaker`, `LatencyQuantile`, and
  the pure routing policies in isolation.
* **Ledger**: `RouterMeter` classification and the extended
  conservation identity, property-tested across fault schedules x
  routing policies.
* **Composition**: regional replicas strip routing knobs and correlated
  fault schedules strike region 0 only; the brownout backend serves the
  cheap model fault-free.
* **End to end**: failover strictly improves availability and recovery
  under the chaos-outage schedule, hedging fires, brownout degrades,
  runs stay bit-identical serial vs workers=N, and `region_count=1`
  never constructs a router.
"""

import math

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
    choose_priority,
    choose_weighted,
)
from repro.serving.deployment import ServiceConfig
from repro.serving.outcome_table import OutcomeRecorder
from repro.serving.records import RequestOutcome
from repro.sim import Environment, RandomStreams
from repro.workload.requests import RequestPool

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
                        recorder=OutcomeRecorder(0))
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


class TestRouterMeter:
    def _finished(self, success, error=""):
        outcome = RequestOutcome(request_id=0, client_id=0, send_time=0.0)
        outcome.finish(1.0, success, error)
        return outcome

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
        for outcome, degraded, _bucket in cases:
            meter.record_submitted()
            meter.classify(outcome, degraded)
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
        meter.classify(self._finished(True), False)
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
        single_avail = single_table.availability(bin_s=5.0)
        routed_avail = routed_table.availability(bin_s=5.0)
        assert routed_avail > single_avail
        single_ttr = single_table.time_to_recover(70.0, bin_s=5.0)
        routed_ttr = routed_table.time_to_recover(70.0, bin_s=5.0)
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
        assert routed_table.attempts_mean() < single_table.attempts_mean()

    def test_late_attempts_filed_only_for_late_committing_backends(
            self, outage_w40):
        """Managed-ML regions never re-commit late: nothing is filed.

        A timed-out attempt is remembered only when its backend can
        re-record it after the deadline (serverless); anything else
        would stay in the router, and keep the client row alive, for
        the rest of the run.
        """
        routed = Planner().plan("aws", "mobilenet", "tf1.15", "managed_ml",
                                **OUTAGE, **ROUTED)
        router, _ = run_platform(routed, outage_w40)
        assert router.meter.notes()["timed_out"] > 0
        assert router._late_attempts == {}
        assert not any(backend.late_commits for backend in router.backends)

    def test_late_recommit_matches_the_filed_attempt_by_identity(self):
        deployment = Planner().plan("aws", "mobilenet", "tf1.15",
                                    "serverless", region_count=2)
        router = build_platform(Environment(), deployment,
                                rng=RandomStreams(SEED))
        recorded = []
        router.outcome_sink = recorded.append
        filed, impostor, client = (
            RequestOutcome(request_id=1, client_id=0, send_time=0.0)
            for _ in range(3))
        filed.billed_duration_s = 2.5
        # An entry under the impostor's id (as if a freed attempt's id
        # were reused) is not the impostor's to claim.
        router._late_attempts[id(impostor)] = (filed, client)
        router._late_attempt(impostor)
        assert recorded == [] and len(router._late_attempts) == 1
        router._late_attempts = {id(filed): (filed, client)}
        router._late_attempt(filed)
        assert recorded == [client] and router._late_attempts == {}
        assert client.billed_duration_s == 2.5

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
        assert table.degraded_ratio() > 0.0
        # Degraded completions are successes labelled, not failures.
        errors = set(table.error_strings())
        assert DEGRADED_LABEL in errors

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
                            recorder=OutcomeRecorder(0))
        executor.execute(until=tiny_w40.spec.duration_s + 400.0)
        usage = platform.finalize(env.now)
        regional = [key for key in usage.notes if key.startswith("region")]
        assert any(key.startswith("region0.") for key in regional)
        assert any(key.startswith("region1.") for key in regional)
        assert usage.notes["breaker_trips"] >= 0
        assert usage.cost > 0
        assert usage.peak_instances == int(usage.instance_count.max())
