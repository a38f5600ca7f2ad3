"""Tests for the serving control plane (pool / policy / queue / meter).

Three layers of guarantees:

* **Unit**: each :mod:`~repro.platforms.policies` policy against scripted
  demand traces, the :class:`~repro.platforms.pool.InstancePool` state
  machine, and the admission queues (including ticket interning).
* **Conservation**: for every platform family, the billing meter's
  ledger satisfies ``submitted == completed + failed + rejected +
  timed_out + shed`` and ``peak_instances == max(instance_count)`` —
  the meter is the single writer of
  :class:`~repro.platforms.base.PlatformUsage`.
* **Golden equivalence**: the refactored platforms reproduce the
  pre-refactor outcome columns bit-for-bit.  The hashes in
  ``tests/data/golden_hashes.json`` were recorded *before* the control
  plane existed (``scripts/record_golden.py``); any drift in a draw, a
  completion time, or a stage attribution fails these tests.  The same
  file pins every registered scenario (faults, routing, hybrid spill,
  scale-in) and one streamed ``w-1m`` cell by digest, cost, and
  ``events_processed``, four serverless cells whose keep-alives expire
  (a 5 s keep-alive, with provisioned instances, crashes and a storm)
  by column hash, cost, instances created and ``events_processed``,
  pins the study frames' unrounded rows (every summary reduction) and
  the timeline figures' series, and one short-horizon fidelity cell.
* **Summaries**: on every pinned cell, the whole-table
  :class:`~repro.serving.streaming.OutcomeSummary`, the one reducer,
  answers every reduction exactly as the row-level numpy references
  kept here (``==``, NaN equal to NaN), and the studies that read more
  than the standard columns print the same frames and series over the
  worker pool as serially.
"""

import hashlib
import json
import os
import pickle
from dataclasses import astuple, replace

import numpy as np
import pytest

from repro.api import run
from repro.cloud.providers import get_provider
from repro.core.analyzer import Analyzer
from repro.core.benchmark import ServingBenchmark
from repro.core.planner import Planner
from repro.core.scenario import ScenarioSpec, get_scenario
from repro.core.study import get_study
from repro.experiments.base import ExperimentContext, load_registered_studies
from repro.platforms.admission import SlotQueue, WorkQueue
from repro.platforms.policies import (
    ConcurrencyScalingPolicy,
    FixedFleetPolicy,
    TargetUtilisationPolicy,
)
from repro.platforms.pool import InstancePool, InstanceState
from repro.serving.outcome_table import OutcomeRecorder, OutcomeTable
from repro.serving.records import SERVED_BY_SPILL, Stage
from repro.serving.streaming import OutcomeSummary
from repro.workload.generator import standard_workload

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "golden_hashes.json")


# ---------------------------------------------------------------------------
# Scaling policies against scripted demand traces
# ---------------------------------------------------------------------------

class TestConcurrencyScalingPolicy:
    def _policy(self, **overrides):
        defaults = dict(max_concurrency=10, max_starts_per_second=2.0,
                        interval_s=1.0, overprovision=1.0)
        defaults.update(overrides)
        return ConcurrencyScalingPolicy(**defaults)

    def test_no_backlog_no_starts(self):
        assert self._policy().plan_starts(backlog=0, alive=0) == (0, 0, 0)

    def test_backlog_drives_pinned_starts(self):
        pinned, budget, headroom = self._policy().plan_starts(backlog=1,
                                                              alive=0)
        assert (pinned, budget, headroom) == (1, 2, 10)

    def test_start_rate_budget_caps_a_burst(self):
        """A 50-request spike cannot launch more than rate x interval."""
        pinned, budget, _ = self._policy().plan_starts(backlog=50, alive=0)
        assert budget == 2
        assert pinned == 2

    def test_concurrency_ceiling_caps_the_fleet(self):
        policy = self._policy(max_starts_per_second=100.0)
        pinned, _, headroom = policy.plan_starts(backlog=50, alive=8)
        assert headroom == 2
        assert pinned == 2
        assert policy.plan_starts(backlog=50, alive=10)[0] == 0

    def test_budget_is_at_least_one_per_round(self):
        policy = self._policy(max_starts_per_second=0.1)
        assert policy.plan_starts(backlog=5, alive=0)[0] == 1

    def test_overprovision_adds_speculative_starts(self):
        """GCP-style x3.2 over-provisioning: ceil(pinned * 2.2) extras."""
        policy = self._policy(max_concurrency=1000,
                              max_starts_per_second=100.0,
                              overprovision=3.2)
        pinned, budget, headroom = policy.plan_starts(backlog=10, alive=0)
        assert pinned == 10
        assert policy.speculative_starts(pinned, budget, headroom) == 22

    def test_speculative_starts_respect_budget_and_headroom(self):
        policy = self._policy(overprovision=4.0, max_starts_per_second=3.0)
        pinned, budget, headroom = policy.plan_starts(backlog=3, alive=8)
        assert (pinned, budget, headroom) == (2, 3, 2)
        # Headroom is exhausted by the pinned starts.
        assert policy.speculative_starts(pinned, budget, headroom) == 0

    def test_scripted_burst_trace(self):
        """Replay a backlog trace and check the launch schedule."""
        policy = self._policy(max_concurrency=6, max_starts_per_second=2.0)
        alive = 0
        launched = []
        for backlog in [0, 1, 4, 9, 9, 0]:
            pinned, budget, headroom = policy.plan_starts(backlog, alive)
            extra = policy.speculative_starts(pinned, budget, headroom)
            alive += pinned + extra
            launched.append(pinned + extra)
        assert launched == [0, 1, 2, 2, 1, 0]
        assert alive == 6  # pinned + speculative never exceed the ceiling

    def test_validation(self):
        with pytest.raises(ValueError):
            self._policy(max_concurrency=0)
        with pytest.raises(ValueError):
            self._policy(max_starts_per_second=0.0)
        with pytest.raises(ValueError):
            self._policy(overprovision=0.5)


class TestTargetUtilisationPolicy:
    def _policy(self, **overrides):
        defaults = dict(target_per_instance=4.0, min_instances=1,
                        max_instances=10)
        defaults.update(overrides)
        return TargetUtilisationPolicy(**defaults)

    def test_desired_tracks_demand_trace(self):
        policy = self._policy()
        trace = [0.0, 3.0, 4.0, 17.0, 39.0, 100.0]
        assert [policy.desired_instances(d) for d in trace] == [
            1, 1, 1, 5, 10, 10]

    def test_launches_only_the_missing_instances(self):
        policy = self._policy()
        assert policy.launches(demand=17.0, provisioned=1) == 4
        assert policy.launches(demand=17.0, provisioned=5) == 0
        assert policy.launches(demand=3.0, provisioned=5) == 0

    def test_max_scale_step_limits_each_round(self):
        policy = self._policy(max_scale_step=2)
        provisioned = 1
        rounds = []
        for _ in range(4):
            step = policy.launches(demand=40.0, provisioned=provisioned)
            provisioned += step
            rounds.append(step)
        assert rounds == [2, 2, 2, 2]  # climbs toward 10 two at a time

    def test_validation(self):
        with pytest.raises(ValueError):
            self._policy(target_per_instance=0.0)
        with pytest.raises(ValueError):
            self._policy(min_instances=5, max_instances=1)
        with pytest.raises(ValueError):
            self._policy(max_scale_step=0)
        with pytest.raises(ValueError):
            self._policy(scale_in_cooldown_s=-1.0)

    # -- scale-in ----------------------------------------------------------
    def test_scale_in_disabled_by_default(self):
        policy = self._policy()
        assert policy.plan_retires(demand=0.0, provisioned=10, idle=10,
                                   since_last_scale_s=1e9) == 0

    def test_scale_in_retires_the_surplus(self):
        policy = self._policy(scale_in_cooldown_s=120.0)
        # demand 4 -> desired 1; 5 provisioned, all idle -> retire 4.
        assert policy.plan_retires(demand=4.0, provisioned=5, idle=5,
                                   since_last_scale_s=300.0) == 4

    def test_scale_in_waits_for_the_cooldown(self):
        policy = self._policy(scale_in_cooldown_s=120.0)
        assert policy.plan_retires(demand=0.0, provisioned=5, idle=5,
                                   since_last_scale_s=119.9) == 0
        assert policy.plan_retires(demand=0.0, provisioned=5, idle=5,
                                   since_last_scale_s=120.0) == 4

    def test_scale_in_never_goes_below_min_instances(self):
        policy = self._policy(min_instances=2, scale_in_cooldown_s=0.0)
        assert policy.plan_retires(demand=0.0, provisioned=5, idle=5,
                                   since_last_scale_s=1.0) == 3

    def test_scale_in_never_retires_busy_instances(self):
        policy = self._policy(scale_in_cooldown_s=0.0)
        assert policy.plan_retires(demand=0.0, provisioned=5, idle=2,
                                   since_last_scale_s=1.0) == 2

    def test_scale_in_respects_max_scale_step(self):
        policy = self._policy(max_scale_step=1, scale_in_cooldown_s=0.0)
        assert policy.plan_retires(demand=0.0, provisioned=9, idle=9,
                                   since_last_scale_s=1.0) == 1

    def test_scale_in_scripted_diurnal_trace(self):
        """Out on the peak, in (only after the cooldown) on the valley."""
        policy = self._policy(scale_in_cooldown_s=180.0)
        fleet, since = 1, 1e9
        sizes = []
        for demand in [4.0, 20.0, 20.0, 4.0, 4.0, 4.0]:
            launched = policy.launches(demand, fleet)
            if launched:
                fleet += launched
                since = 0.0
            else:
                retired = policy.plan_retires(demand, fleet, idle=fleet,
                                              since_last_scale_s=since)
                fleet -= retired
                if retired:
                    since = 0.0
            since += 60.0
            sizes.append(fleet)
        # The valley starts at step 4, but the 180 s cooldown since the
        # step-2 launch holds the fleet one more round before it shrinks.
        assert sizes == [1, 5, 5, 5, 1, 1]


class TestFixedFleetPolicy:
    def test_never_launches(self):
        policy = FixedFleetPolicy(instances=3)
        for demand in (0.0, 10.0, 1e6):
            assert policy.desired_instances(demand) == 3
            assert policy.launches(demand, provisioned=3) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedFleetPolicy(instances=0)


# ---------------------------------------------------------------------------
# Instance pool state machine
# ---------------------------------------------------------------------------

class TestInstancePool:
    def test_cold_lifecycle(self, env):
        pool = InstancePool(env, gauge_name="test")
        instance = pool.launch(warm=False)
        assert instance.state == InstanceState.WARMING
        assert (pool.created, pool.alive, pool.warming) == (1, 1, 1)
        pool.mark_ready(instance)
        assert instance.state == InstanceState.IDLE
        assert (pool.warming, pool.idle) == (0, 1)
        pool.mark_busy(instance)
        assert instance.state == InstanceState.BUSY
        pool.mark_idle(instance)
        assert instance.served_requests == 1
        pool.retire(instance)
        assert instance.state == InstanceState.RETIRED
        assert not instance.alive
        assert (pool.alive, pool.retired) == (0, 1)

    def test_warm_launch_skips_warming(self, env):
        pool = InstancePool(env, gauge_name="test")
        instance = pool.launch(warm=True, provisioned=True)
        assert instance.state == InstanceState.IDLE
        assert instance.provisioned
        assert not instance.first_predict_pending
        assert pool.ready == 1

    def test_auto_gauge_tracks_alive(self, env):
        pool = InstancePool(env, gauge_name="test", auto_gauge=True)
        first = pool.launch()
        pool.launch()
        pool.mark_ready(first)
        pool.retire(first)
        assert list(pool.gauge.history.values) == [1.0, 2.0, 1.0]
        assert pool.peak == 2

    def test_manual_gauge_records_ready(self, env):
        pool = InstancePool(env, gauge_name="test", auto_gauge=False,
                            keep_records=True)
        pool.launch(warm=True)
        instance = pool.launch(warm=False)
        pool.sync_gauge()
        pool.mark_ready(instance)
        pool.sync_gauge()
        assert list(pool.gauge.history.values) == [1.0, 2.0]

    def test_instance_seconds_requires_records(self, env):
        pool = InstancePool(env, gauge_name="test")
        with pytest.raises(ValueError):
            pool.instance_seconds(1.0)

    def test_instance_seconds_accrue_from_launch(self, env):
        pool = InstancePool(env, gauge_name="test", keep_records=True)
        pool.launch(warm=True)
        env.timeout(10.0)
        env.run()
        pool.launch(warm=False)
        assert pool.instance_seconds(30.0) == pytest.approx(30.0 + 20.0)


# ---------------------------------------------------------------------------
# Admission queues
# ---------------------------------------------------------------------------

def _enqueue(queue, row=0):
    """Buffer the one-inference request in ``row``."""
    return queue.enqueue(row, 1)


class TestWorkQueue:
    def test_enqueue_take_fifo(self, env):
        queue = WorkQueue(env)
        first = _enqueue(queue, 1)
        _enqueue(queue, 2)
        assert queue.backlog == 2
        assert queue.take() is first
        assert queue.backlog == 1

    def test_take_on_empty_returns_none(self, env):
        assert WorkQueue(env).take() is None

    def test_tickets_are_interned(self, env):
        """A recycled ticket is reused for the next arrival."""
        queue = WorkQueue(env)
        ticket = _enqueue(queue, 1)
        queue.take()
        queue.recycle(ticket)
        assert ticket.response_event is None and not ticket.late
        reused = _enqueue(queue, 2)
        assert reused is ticket
        assert reused.row == 2

    def test_response_guard_served_in_time(self, env):
        """The serverless client's wait: response vs. deadline guard."""
        queue = WorkQueue(env)
        deadlines = env.lane(10.0)
        served = []

        def client():
            ticket = _enqueue(queue)
            winner = yield deadlines.guard(ticket.response_event)
            served.append((winner is ticket.response_event, env.now))

        def worker():
            yield 1.0
            queue.take().response_event.succeed()

        env.process(client())
        env.process(worker())
        env.run()
        assert served == [(True, 1.0)]
        assert env.now < 10.0  # the won guard withdrew from its lane

    def test_response_guard_deadline_fires(self, env):
        queue = WorkQueue(env)
        deadlines = env.lane(2.0)
        served = []

        def client():
            ticket = _enqueue(queue)
            winner = yield deadlines.guard(ticket.response_event)
            served.append((winner, env.now))

        env.process(client())
        env.run()
        assert served == [(None, 2.0)]


class TestSlotQueue:
    def test_rejects_when_backlog_full(self, env):
        queue = SlotQueue(env, deadline_s=10.0)
        queue.resize(1, 0)
        assert not queue.try_admit()
        assert queue.rejected == 1

    def test_dynamic_capacity_callable(self, env):
        """A managed platform's backlog follows its ready fleet: the
        platform resizes the queue whenever the fleet changes."""
        from repro.platforms.base import build_platform
        platform = build_platform(env, Planner().plan(
            "aws", "mobilenet", "tf1.15", "managed_ml"))
        per_instance = platform.provider.managed_ml.queue_capacity_per_instance
        # Bring up the initial fleet by hand (platform.start() would also
        # register the never-ending autoscaler process).
        platform.pool.launch(warm=True)
        platform._resize_workers()
        assert platform.queue.backlog == per_instance
        platform._launch_instances(2)
        # Warming instances serve nothing, so they add no backlog.
        assert platform.queue.backlog == per_instance
        env.run()
        assert platform.pool.ready == 3
        assert platform.queue.backlog == 3 * per_instance
        platform._retire_instances(1)
        assert platform.queue.backlog == 2 * per_instance

    def test_acquire_grants_and_times_out(self, env):
        queue = SlotQueue(env, deadline_s=5.0)
        queue.resize(1, 10)
        log = []

        def holder():
            claim = yield from queue.acquire()
            log.append(("holder", env.now))
            yield env.timeout(8.0)
            queue.release(claim)

        def waiter():
            claim = yield from queue.acquire()
            log.append(("waiter", claim, env.now))

        env.process(holder())
        env.process(waiter())
        env.run()
        # The holder got the single slot; the waiter timed out at 5 s.
        assert log[0] == ("holder", 0.0)
        assert log[1][1] is None and log[1][2] == 5.0
        assert queue.timed_out == 1
        assert queue.demand == 0


# ---------------------------------------------------------------------------
# Conservation: the meter's ledger balances for every platform
# ---------------------------------------------------------------------------

class TestConservation:
    #: Cells chosen so every family sees failures (rejections, timeouts)
    #: as well as successes.
    CELLS = [
        ("aws", "mobilenet", "tf1.15", "serverless", {}),
        ("gcp", "mobilenet", "tf1.15", "serverless", {}),
        ("aws", "albert", "tf1.15", "managed_ml", {}),
        ("aws", "vgg", "tf1.15", "cpu_server", {}),
        ("aws", "mobilenet", "tf1.15", "gpu_server", {}),
    ]

    @pytest.fixture(scope="class")
    def runs(self, small_w120):
        bench = ServingBenchmark(seed=5)
        planner = Planner()
        return [(platform, bench.run(
            planner.plan(provider, model, runtime, platform, **overrides),
            small_w120))
            for provider, model, runtime, platform, overrides in self.CELLS]

    def test_submitted_equals_completed_failed_rejected(self, runs):
        for platform, result in runs:
            notes = result.usage.notes
            assert notes["submitted"] == (
                notes["completed"] + notes["failed"] + notes["rejected"]
                + notes["timed_out"] + notes["shed"]
            ), platform
            assert notes["submitted"] > 0, platform
            # No faults are configured in these cells, so nothing sheds.
            assert notes["shed"] == 0, platform

    def test_ledger_matches_outcome_table(self, runs):
        for platform, result in runs:
            notes = result.usage.notes
            table = result.rows
            successes = int(table.success.sum())
            assert notes["completed"] == successes, platform
            # Client-side batching is off in these cells, so the table's
            # rows are exactly the platform's submissions.
            assert notes["submitted"] == table.count, platform

    def test_peak_is_max_of_instance_timeline(self, runs):
        """The meter writes both fields from the same gauge."""
        for platform, result in runs:
            usage = result.usage
            assert usage.peak_instances == int(usage.instance_count.max()), \
                platform

    def test_failures_present_under_overload(self, runs):
        failing = [platform for platform, result in runs
                   if result.usage.notes["failed"]
                   + result.usage.notes["rejected"] > 0]
        assert "managed_ml" in failing
        assert "cpu_server" in failing


# ---------------------------------------------------------------------------
# Golden equivalence: refactored platforms == pre-refactor columns
# ---------------------------------------------------------------------------

def _golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


_GOLDEN = _golden()


@pytest.fixture(scope="module")
def workloads():
    """The golden cells' workloads, by their key in the golden file."""
    return {key: standard_workload(entry["name"], seed=_GOLDEN["seed"],
                                   scale=entry["scale"])
            for key, entry in _GOLDEN["workloads"].items()}


def _run_golden_cell(key: str, workloads):
    """Run the golden base cell ``key`` (its overrides parsed back)."""
    parts = key.split("/")
    provider, model, runtime, platform, workload_key = parts[:5]
    overrides = {}
    if len(parts) > 5:
        for pair in parts[5].split(","):
            name, raw = pair.split("=")
            if raw in ("True", "False"):
                overrides[name] = raw == "True"
            elif "." in raw:
                overrides[name] = float(raw)
            else:
                overrides[name] = int(raw)
    deployment = Planner().plan(provider, model, runtime, platform,
                                **overrides)
    return ServingBenchmark(seed=_GOLDEN["seed"]).run(
        deployment, workloads[workload_key])


def _run_keep_alive_cell(key: str):
    """Run the pinned keep-alive cell ``key``."""
    expected = _GOLDEN["keep_alive"][key]
    provider = get_provider("aws").with_serverless(
        keep_alive_s=expected["keep_alive_s"])
    overrides = {name: tuple(value) if isinstance(value, list) else value
                 for name, value in expected["overrides"].items()}
    deployment = Planner().plan(provider, "mobilenet", "tf1.15",
                                "serverless", **overrides)
    workload = standard_workload(expected["workload"], seed=_GOLDEN["seed"],
                                 scale=expected["scale"])
    return ServingBenchmark(seed=_GOLDEN["seed"]).run(deployment, workload)


class TestGoldenEquivalence:
    @pytest.mark.parametrize("key", sorted(_GOLDEN["cells"]))
    def test_cell_reproduces_pre_refactor_columns(self, key, workloads):
        expected = _GOLDEN["cells"][key]
        result = _run_golden_cell(key, workloads)
        assert result.table.column_hash() == expected["column_hash"]
        assert result.total_requests == expected["requests"]
        assert result.cost == expected["cost"]
        assert result.usage.cold_starts == expected["cold_starts"]
        assert result.usage.instances_created == expected["instances_created"]
        assert result.usage.peak_instances == expected["peak_instances"]


def _assert_pin(result, digest: str, expected: dict) -> None:
    assert digest == expected["digest"]
    assert result.total_requests == expected["requests"]
    assert result.cost == expected["cost"]
    assert result.metadata["events_processed"] == expected["events_processed"]


class TestGoldenScenarios:
    """Absolute pins for the subsystems the 14 base cells never reach."""

    @pytest.mark.parametrize("name", sorted(_GOLDEN["scenarios"]))
    def test_scenario_reproduces_pin(self, name):
        result = run(get_scenario(name), seed=_GOLDEN["seed"],
                     scale=_GOLDEN["scenario_scale"])
        _assert_pin(result, result.table.column_hash(),
                    _GOLDEN["scenarios"][name])

    @pytest.mark.parametrize("key", sorted(_GOLDEN["streamed"]))
    def test_streamed_cell_reproduces_summary_digest(self, key):
        expected = _GOLDEN["streamed"][key]
        provider, model, runtime, platform, workload = key.split("/")
        seed, scale = _GOLDEN["seed"], expected["scale"]
        result = ServingBenchmark(
            seed=seed, chunk_rows=expected["chunk_rows"]).run(
                Planner().plan(provider, model, runtime, platform),
                standard_workload(workload, seed=seed, scale=scale),
                workload_scale=scale)
        assert result.streaming
        _assert_pin(result, result.table.digest(), expected)


class TestGoldenKeepAlive:
    """Absolute pins for keep-alive expiry: the registered runs never
    idle an instance past the providers' 600 s keep-alive."""

    @pytest.mark.parametrize("key", sorted(_GOLDEN["keep_alive"]))
    def test_keep_alive_cell_reproduces_pin(self, key):
        expected = _GOLDEN["keep_alive"][key]
        result = _run_keep_alive_cell(key)
        assert result.table.column_hash() == expected["column_hash"]
        assert result.total_requests == expected["requests"]
        assert result.cost == expected["cost"]
        assert (result.usage.instances_created
                == expected["instances_created"])
        assert (result.metadata["events_processed"]
                == expected["events_processed"])


class TestGoldenFrames:
    """Absolute pins for the reductions a study frame reads off cells."""

    @pytest.mark.parametrize("name", sorted(_GOLDEN["frames"]))
    def test_frame_rows_reproduce_pin(self, name):
        expected = _GOLDEN["frames"][name]
        load_registered_studies()
        context = ExperimentContext(seed=_GOLDEN["seed"],
                                    scale=expected["scale"],
                                    providers=("aws",), workers=0)
        frame = get_study(name).run(context)
        # Same encoding as scripts/record_golden.py: unrounded rows as
        # JSON with sorted keys (floats print round-trip exact).
        text = json.dumps(frame.to_rows(), sort_keys=True)
        assert len(frame) == expected["rows"]
        assert (hashlib.sha256(text.encode("utf-8")).hexdigest()
                == expected["digest"])

    @pytest.mark.parametrize("name", sorted(_GOLDEN["series"]))
    def test_series_reproduce_pin(self, name):
        expected = _GOLDEN["series"][name]
        load_registered_studies()
        context = ExperimentContext(seed=_GOLDEN["seed"],
                                    scale=expected["scale"],
                                    providers=("aws", "gcp"), workers=0)
        frame = get_study(name).run(context)
        # Same encoding as scripts/record_golden.py: the named series as
        # JSON with sorted keys.
        text = json.dumps(frame.series, sort_keys=True)
        assert len(frame.series) == expected["series"]
        assert (hashlib.sha256(text.encode("utf-8")).hexdigest()
                == expected["digest"])

    @pytest.mark.parametrize("key", sorted(_GOLDEN["fidelity"]))
    def test_fidelity_cell_reproduces_pin(self, key):
        expected = _GOLDEN["fidelity"][key]
        provider, model, runtime, platform, workload, fidelity = \
            key.split("/")
        spec = ScenarioSpec(name="", provider=provider, model=model,
                            runtime=runtime, platform=platform,
                            workload=workload).with_fidelity(
                                float(fidelity.split("=")[1]))
        assert spec.cell_key == key
        result = ExperimentContext(
            seed=_GOLDEN["seed"], scale=expected["scale"],
            providers=("aws",)).run_scenario(spec)
        assert result.table.column_hash() == expected["column_hash"]
        assert result.total_requests == expected["requests"]
        assert result.cost == expected["cost"]


# ---------------------------------------------------------------------------
# Whole-table summaries answer exactly like their tables
# ---------------------------------------------------------------------------

#: SLO targets, timeline bin widths and recovery starts the summary
#: reductions are checked at.
SLO_TARGETS_S = (0.2, 1.0, 5.0)
TIMELINE_BINS_S = (5.0, 20.0)
RECOVERY_AFTER_S = (0.0, 70.0)
#: The declarations (``Study.reads`` pairs) a reduced summary needs to
#: answer at exactly those targets and widths.
READS = (tuple(("slo", target) for target in SLO_TARGETS_S)
         + tuple(("timeline", bin_s) for bin_s in TIMELINE_BINS_S))


def _table_breakdown(table) -> tuple:
    """Figure 10's breakdown as masked column means over the rows."""
    cold = table.success & table.cold_start
    warm = table.success & ~table.cold_start

    def mean(column, mask):
        return float(column[mask].mean()) if mask.any() else 0.0

    return (mean(table.latency, cold),
            mean(table.stage_column(Stage.IMPORT), cold),
            mean(table.stage_column(Stage.DOWNLOAD), cold),
            mean(table.stage_column(Stage.LOAD), cold),
            mean(table.stage_column(Stage.PREDICT), cold),
            mean(table.latency, warm),
            mean(table.stage_column(Stage.PREDICT), warm),
            int(cold.sum()), int(warm.sum()))


def _table_timeline(table, bin_s: float) -> tuple:
    """Per-bin (left edges, requests, successes) over the rows, binned
    by send time from 0 to the last send."""
    index = (table.send_time / bin_s).astype(np.int64)
    requests = np.bincount(index)
    successes = np.bincount(index[table.success], minlength=len(requests))
    return np.arange(len(requests)) * bin_s, requests, successes


def _table_latency_timeline(table, bin_s: float) -> list:
    """Figures 6/8/9's latency timeline over the rows: non-empty bins'
    (edge, requests, mean successful latency, success ratio)."""
    edges, requests, successes = _table_timeline(table, bin_s)
    success = table.success
    sums = np.bincount((table.send_time[success] / bin_s).astype(np.int64),
                       weights=table.latency[success], minlength=len(edges))
    return [(float(edges[index]), int(requests[index]),
             float(sums[index] / successes[index]
                   if successes[index] else 0.0),
             int(successes[index]) / int(requests[index]))
            for index in np.flatnonzero(requests)]


def _table_availability(table, bin_s: float) -> float:
    """Share of bins in which at least half the requests succeeded
    (bins without requests count as available; no bins reads 1.0)."""
    _edges, requests, successes = _table_timeline(table, bin_s)
    if len(requests) == 0:
        return 1.0
    return float(np.mean((requests == 0) | (2 * successes >= requests)))


def _table_time_to_recover(table, after_s: float, bin_s: float) -> float:
    """Seconds from ``after_s`` to the left edge (at least 0) of the
    first bin ending after it in which at least half the requests
    succeeded; NaN when there is none."""
    edges, requests, successes = _table_timeline(table, bin_s)
    healthy = ((edges + bin_s > after_s) & (requests > 0)
               & (2 * successes >= requests))
    if not healthy.any():
        return float("nan")
    return max(float(edges[np.argmax(healthy)]) - after_s, 0.0)


def _reductions(table) -> list:
    """Every reduction a summary answers, computed from the rows with
    numpy: the reference for :func:`_summary_reductions` (compared with
    ``np.testing.assert_equal``, NaN equal to NaN)."""
    count = table.count
    success = table.success
    latency = table.latency
    ok = latency[success]
    if ok.size:
        stats = (ok.size, ok.mean(), ok.std(),
                 *np.percentile(ok, (50.0, 90.0, 95.0, 99.0)),
                 ok.min(), ok.max())
    else:
        stats = (0,) + (0.0,) * 8
    names = table.error_names
    degraded = (success & (table.error_code == names.index("degraded"))
                if "degraded" in names else np.zeros(count, dtype=bool))

    def path_mean(code):
        on_path = latency[success & (table.served_by == code)]
        return on_path.mean() if on_path.size else float("nan")

    return [
        count, success.sum() / count,
        table.cold_start[success].sum() / success.sum() if ok.size else 0.0,
        ok.mean() if ok.size else 0.0, stats,
        table.attempts.mean(), degraded.sum() / count,
        (table.served_by == SERVED_BY_SPILL).sum() / count,
        [path_mean(code) for code in range(3)],
        [(success & (latency <= target)).sum() / count
         for target in SLO_TARGETS_S],
        [[column.tolist() for column in _table_timeline(table, bin_s)]
         for bin_s in TIMELINE_BINS_S],
        [_table_availability(table, bin_s) for bin_s in TIMELINE_BINS_S],
        [_table_time_to_recover(table, after, bin_s)
         for after in RECOVERY_AFTER_S for bin_s in TIMELINE_BINS_S],
        table.column_hash(),
    ]


def _summary_reductions(summary: OutcomeSummary) -> list:
    """The reductions of :func:`_reductions`, read off a summary."""
    return [
        summary.count, summary.success_ratio, summary.cold_start_ratio,
        summary.average_latency, astuple(summary.latency_stats()),
        summary.attempts_mean(), summary.degraded_ratio(),
        summary.spill_ratio(),
        [summary.path_latency_mean(code) for code in range(3)],
        [summary.slo_attainment(target) for target in SLO_TARGETS_S],
        [[column.tolist() for column in summary.success_timeline(bin_s)]
         for bin_s in TIMELINE_BINS_S],
        [summary.availability(bin_s) for bin_s in TIMELINE_BINS_S],
        [summary.time_to_recover(after, bin_s)
         for after in RECOVERY_AFTER_S for bin_s in TIMELINE_BINS_S],
        summary.column_hash(),
    ]


def _assert_summary_answers_like_table(result) -> None:
    """The result's whole-table summary, as folded, as reduced to
    :data:`READS` and as a worker ships that (pickled, without its
    deployment), answers every reduction exactly as the row-level
    references over its rows."""
    table = result.rows
    assert isinstance(table, OutcomeTable)
    payload = replace(result.reduced(READS), deployment=None)
    analyzer = Analyzer()
    expected = _reductions(table)
    np.testing.assert_equal(_summary_reductions(result.table), expected)
    shipped = pickle.loads(pickle.dumps(payload))
    for reduced in (result.reduced(READS),
                    replace(shipped, deployment=result.deployment)):
        assert not reduced.streaming
        assert reduced.rows is None
        assert reduced.table.success_send is None
        np.testing.assert_equal(_summary_reductions(reduced.table), expected)
        breakdown = analyzer.coldstart_breakdown(reduced)
        np.testing.assert_equal(astuple(breakdown), _table_breakdown(table))
        np.testing.assert_equal(
            [astuple(point)
             for point in analyzer.latency_timeline(reduced, 20.0)],
            _table_latency_timeline(table, 20.0))


#: Rows on the edges no pinned cell reaches, as (send time, latency or
#: None for a request still open at the horizon, error, other column
#: writes): a bin at exactly half success (0-5 s), empty 5 s and 20 s
#: bins, latencies exactly at two SLO targets (0.2 s, 1.0 s), a healthy
#: bin that ends exactly at the 70 s recovery start, a degraded success,
#: retries, both hybrid paths and a cold start with its stages.
EDGE_ROWS = [
    (0.0, 0.2, "", {"cold_start": True, "import_s": 2.0, "load_s": 1.0,
                    "predict_s": 0.1}),
    (2.0, 3.0, "timeout", {}),
    (45.0, 1.0, "", {"served_by": 1, "predict_s": 0.05}),
    (66.0, 0.5, "", {"served_by": 2, "attempts": 3}),
    (71.0, 2.0, "instance_crash", {}),
    (76.0, 0.25, "degraded", {}),
    (77.0, None, "", {}),
]


def _edge_table() -> OutcomeTable:
    """:data:`EDGE_ROWS` as a finished table."""
    recorder = OutcomeRecorder(len(EDGE_ROWS))
    columns = recorder.columns
    for index, (send, latency, error, writes) in enumerate(EDGE_ROWS):
        row = recorder.register(index, 0, send)
        for name, value in writes.items():
            getattr(columns, name)[row] = value
        if latency is None:
            continue
        columns.completion_time[row] = send + latency
        columns.success[row] = error in ("", "degraded")
        if error:
            columns.errors[row] = error
        recorder.commit(row)
    table = recorder.table()
    table.fail_unfinished(80.0)
    return table


class TestSummaryAnswersLikeTable:
    """Every pinned cell's whole-table summary against its table."""

    def test_hand_built_edges(self):
        table = _edge_table()
        np.testing.assert_equal(
            _summary_reductions(OutcomeSummary.of_table(table)),
            _reductions(table))

    @pytest.mark.parametrize("key", sorted(_GOLDEN["cells"]))
    def test_golden_cell(self, key, workloads):
        _assert_summary_answers_like_table(_run_golden_cell(key, workloads))

    @pytest.mark.parametrize("name", sorted(_GOLDEN["scenarios"]))
    def test_scenario(self, name):
        _assert_summary_answers_like_table(
            run(get_scenario(name), seed=_GOLDEN["seed"],
                scale=_GOLDEN["scenario_scale"]))

    @pytest.mark.parametrize("key", sorted(_GOLDEN["keep_alive"]))
    def test_keep_alive_cell(self, key):
        _assert_summary_answers_like_table(_run_keep_alive_cell(key))


class TestDeclaredAnswers:
    """A reduced cell keeps exactly the answers declared for it: it
    raises for any other, the run cache runs a cell again for one it
    lacks, and the answers cross the worker pool bit for bit."""

    SPEC = ScenarioSpec(name="declared", provider="aws", model="mobilenet",
                        platform="managed_ml", workload="w-40")
    SCALE = 0.05

    def test_undeclared_answer_raises_naming_it(self):
        result = run(self.SPEC, seed=_GOLDEN["seed"], scale=self.SCALE)
        summary = result.reduced((("timeline", 20.0), ("slo", 5.0))).table
        assert summary.slo_attainment(5.0) == result.table.slo_attainment(5.0)
        for read in (lambda: summary.slo_attainment(1.0),
                     lambda: summary.success_timeline(5.0),
                     lambda: summary.latency_sums(5.0, 4),
                     lambda: summary.availability(bin_s=5.0),
                     lambda: summary.time_to_recover(70.0, bin_s=5.0)):
            with pytest.raises(ValueError, match=r"declare.*reads"):
                read()
        with pytest.raises(ValueError, match=r"\('slo', 1\.0\)"):
            summary.slo_attainment(1.0)
        with pytest.raises(ValueError, match=r"\('timeline', 5\.0\)"):
            summary.success_timeline(5.0)
        # No declaration at all: still an error, never the sketch's
        # approximation.
        with pytest.raises(ValueError, match=r"\('slo', 5\.0\)"):
            result.reduced().table.slo_attainment(5.0)
        with pytest.raises(ValueError, match="unknown read"):
            result.reduced((("p99", 1.0),))
        # One pair not wrapped in the tuple of reads.
        with pytest.raises(ValueError, match="unknown read 'timeline'"):
            result.reduced(("timeline", 20.0))

    def test_cached_cell_runs_again_for_a_missing_answer(self, monkeypatch):
        direct = run(self.SPEC, seed=_GOLDEN["seed"], scale=self.SCALE)
        simulated = []
        simulate = ServingBenchmark.run

        def counting(self, *args, **kwargs):
            simulated.append(args[0].label)
            return simulate(self, *args, **kwargs)

        monkeypatch.setattr(ServingBenchmark, "run", counting)
        context = ExperimentContext(seed=_GOLDEN["seed"], scale=self.SCALE,
                                    providers=("aws",))
        context.run_scenario(self.SPEC)
        timeline, = context.run_specs([self.SPEC], (("timeline", 20.0),))
        assert len(simulated) == 2
        analyzer = Analyzer()
        assert (analyzer.latency_timeline(timeline, 20.0)
                == analyzer.latency_timeline(direct, 20.0))
        assert ([astuple(point)
                 for point in analyzer.latency_timeline(timeline, 20.0)]
                == _table_latency_timeline(direct.rows, 20.0))
        # A kept answer is a cache hit; a new one runs the cell again
        # and keeps the answers it had as well.
        assert context.run_specs([self.SPEC],
                                 (("timeline", 20.0),))[0] is timeline
        both, = context.run_specs([self.SPEC], (("slo", 5.0),))
        assert len(simulated) == 3
        assert sorted(both.table.answers) == [("slo", 5.0),
                                              ("timeline", 20.0)]
        assert both.table.slo_attainment(5.0) == (
            direct.table.slo_attainment(5.0))

    def test_declared_answers_equal_serial_and_pooled(self):
        specs = [self.SPEC.with_seed(_GOLDEN["seed"] + replicate,
                                     name=f"declared/r{replicate}")
                 for replicate in range(2)]
        specs.append(replace(self.SPEC, name="declared/lambda",
                             platform="serverless"))

        def answers(workers: int):
            context = ExperimentContext(seed=_GOLDEN["seed"],
                                        scale=self.SCALE, providers=("aws",),
                                        workers=workers)
            return [result.table.answers
                    for result in context.run_specs(specs, READS)]

        serial = answers(workers=0)
        for kept in serial:
            assert sorted(kept) == sorted(READS)
        for left, right in zip(serial, answers(workers=2)):
            assert left.keys() == right.keys()
            for read, answer in left.items():
                if read[0] == "slo":
                    assert right[read] == answer
                else:
                    assert ([part.tobytes() for part in right[read]]
                            == [part.tobytes() for part in answer])


class TestStudiesOverTheWorkerPool:
    """Studies that read more than the standard columns print the same
    frames and series over the worker pool as serially, and the run
    cache keeps summaries, never rows."""

    SCALE = 0.02

    def _run(self, name: str, workers: int):
        load_registered_studies()
        context = ExperimentContext(seed=_GOLDEN["seed"], scale=self.SCALE,
                                    providers=("aws",), workers=workers)
        frame = get_study(name).run(context)
        assert context._runs
        for result in context._runs.values():
            assert isinstance(result.table, OutcomeSummary)
            assert result.rows is None
            assert not result.streaming
        return (json.dumps(frame.to_rows(), sort_keys=True),
                json.dumps(frame.series, sort_keys=True))

    @pytest.mark.parametrize("name", ["fig06", "fig10", "fig12",
                                      "chaos-recovery", "failover-recovery",
                                      "hybrid-economics"])
    def test_pooled_frame_and_series_match_serial(self, name):
        serial = self._run(name, workers=0)
        assert self._run(name, workers=2) == serial
