"""Tests for the hybrid spill front door (platforms/hybrid).

Six layers:

* **Config**: the four hybrid knobs validate on `ServiceConfig` and
  stay plain sweepable fields.
* **Ledger**: `HybridMeter` classification — every finished outcome in
  exactly one of the five buckets, `spilled` a routing tally on top.
* **Backends**: the sub-deployment overrides give each path the right
  fault domain (outages strike provisioned only, storms spill only)
  and neutralise hybrid/routing knobs.
* **End to end**: an undersized fleet spills, both paths serve, the
  merged usage keeps the per-path ledgers auditable under
  `provisioned.` / `spill.` prefixes, and the policy knobs
  (`hybrid_max_spill_fraction`, `hybrid_sticky_spill_s`) bind.
* **Determinism and encoding**: hybrid cells are bit-identical serial
  vs `workers=N`, `served_by` survives the packed round trip, and
  non-hybrid tables hash exactly as before the column existed.
* **Closed form**: the simulated blended cost and spill fraction agree
  with `HybridPlanner.routed_percentile` within the documented
  tolerances on three workloads (the planner-vs-simulation check).
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.api import run
from repro.core.benchmark import ServingBenchmark
from repro.core.executor import Executor
from repro.core.parallel import run_cells
from repro.core.planner import Planner
from repro.core.scenario import ScenarioSpec, get_scenario
from repro.platforms.base import build_platform
from repro.platforms.hybrid import (
    HybridMeter,
    HybridServingPlatform,
    _backend_overrides,
    _provisioned_overrides,
    _spill_overrides,
)
from repro.serving.deployment import PlatformKind, ServiceConfig
from repro.serving.outcome_table import OutcomeRecorder
from repro.serving.streaming import OutcomeSummary
from repro.serving.records import (
    SERVED_BY_DIRECT,
    SERVED_BY_NAMES,
    SERVED_BY_PROVISIONED,
    SERVED_BY_SPILL,
)
from repro.sim import Environment, RandomStreams
from repro.tools.hybrid import (
    ROUTED_COST_RTOL,
    ROUTED_SPILL_ATOL,
    validate_routed_plan,
)
from repro.workload.requests import RequestPool

from outcome_rows import error_at

SEED = 5

BUCKETS = ("completed", "failed", "rejected", "timed_out", "shed")


def run_platform(deployment, workload, seed=SEED):
    """Run a cell and return (platform, table) for front-door introspection."""
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


def assert_conserved(notes, label="", prefix=""):
    """Assert the 5-bucket identity on one (possibly prefixed) ledger."""
    assert notes[f"{prefix}submitted"] == sum(
        notes[f"{prefix}{bucket}"] for bucket in BUCKETS), label


def hybrid_plan(planner, instances=1, **overrides):
    return planner.plan(
        "aws", "mobilenet", "tf1.15", "hybrid",
        hybrid_provisioned_instances=instances, **overrides)


# ---------------------------------------------------------------------------
# Config layer
# ---------------------------------------------------------------------------

class TestHybridConfig:
    def test_defaults_never_spill_by_accident(self):
        config = ServiceConfig()
        assert config.hybrid_provisioned_instances == 1
        assert config.hybrid_spill_watermark == 0.85
        assert config.hybrid_max_spill_fraction == 1.0
        assert config.hybrid_sticky_spill_s == 0.0

    @pytest.mark.parametrize("bad", [
        dict(hybrid_provisioned_instances=0),
        dict(hybrid_spill_watermark=0.0),
        dict(hybrid_spill_watermark=-0.5),
        dict(hybrid_max_spill_fraction=-0.1),
        dict(hybrid_max_spill_fraction=1.5),
        dict(hybrid_sticky_spill_s=-1.0),
    ])
    def test_knobs_validate(self, bad):
        with pytest.raises(ValueError):
            ServiceConfig(**bad)

    def test_knobs_are_sweepable_axes(self):
        from repro.core.study import Sweep
        sweep = Sweep(
            name="knobs",
            base=ScenarioSpec(name="knobs", provider="aws",
                              model="mobilenet",
                              platform=PlatformKind.HYBRID),
            axes={"hybrid_provisioned_instances": (1, 2),
                  "hybrid_spill_watermark": (0.7, 0.9)})
        assert len(sweep.cells()) == 4


# ---------------------------------------------------------------------------
# Ledger layer
# ---------------------------------------------------------------------------

class TestHybridMeter:
    def finished(self, error=None):
        """A finished request's ``(success, error)``."""
        return error is None, error or ""

    @pytest.mark.parametrize("error,bucket", [
        (None, "completed"),
        ("timeout", "timed_out"),
        ("shed", "shed"),
        ("throttled", "rejected"),
        ("connection_refused", "rejected"),
        ("crash", "failed"),
        ("service_error", "failed"),
    ])
    def test_each_outcome_lands_in_exactly_one_bucket(self, error, bucket):
        meter = HybridMeter()
        meter.record_submitted()
        meter.classify(*self.finished(error))
        notes = meter.notes()
        assert notes[bucket] == 1.0
        assert sum(notes[b] for b in BUCKETS) == 1.0
        assert_conserved(notes)

    def test_spilled_is_a_tally_not_a_bucket(self):
        meter = HybridMeter()
        meter.record_submitted()
        meter.record_spill()
        meter.classify(*self.finished())
        notes = meter.notes()
        assert notes["spilled"] == 1.0
        assert notes["completed"] == 1.0
        assert_conserved(notes)


# ---------------------------------------------------------------------------
# Backend composition layer
# ---------------------------------------------------------------------------

class TestBackendOverrides:
    def config(self, **overrides):
        return ServiceConfig(platform=PlatformKind.HYBRID, **overrides)

    def test_outage_strikes_provisioned_fleet_only(self):
        config = self.config(outage_start_s=40.0, outage_duration_s=30.0,
                             outage_fraction=1.0)
        assert "outage_start_s" not in _provisioned_overrides(config)
        assert _spill_overrides(config)["outage_start_s"] is None

    def test_storms_strike_spill_path_only(self):
        config = self.config(storm_times_s=(10.0, 25.0))
        assert _provisioned_overrides(config)["storm_times_s"] == ()
        assert "storm_times_s" not in _spill_overrides(config)

    def test_fleet_size_pins_both_scaling_bounds(self):
        overrides = _provisioned_overrides(
            self.config(hybrid_provisioned_instances=4))
        assert overrides["initial_instances"] == 4
        assert overrides["max_instances"] == 4
        assert overrides["autoscaling"] is False

    def test_hybrid_and_routing_knobs_reset_on_both_paths(self):
        shared = _backend_overrides()
        defaults = ServiceConfig()
        for knob in ("hybrid_provisioned_instances", "hybrid_spill_watermark",
                     "hybrid_max_spill_fraction", "hybrid_sticky_spill_s",
                     "region_count", "breaker_failure_threshold",
                     "hedge_percentile", "brownout_watermark",
                     "retry_attempts"):
            assert shared[knob] == getattr(defaults, knob), knob

    def test_backends_are_plain_platforms(self, planner, env, rng):
        deployment = hybrid_plan(planner)
        platform = build_platform(env, deployment, rng=rng)
        assert isinstance(platform, HybridServingPlatform)
        assert platform.provisioned_backend.config.platform == \
            PlatformKind.CPU_SERVER
        assert platform.spill_backend.config.platform == \
            PlatformKind.SERVERLESS


# ---------------------------------------------------------------------------
# End-to-end layer
# ---------------------------------------------------------------------------

class TestHybridEndToEnd:
    @pytest.fixture(scope="class")
    def spilling_cell(self, request):
        """A one-server fleet under w-120: saturation guaranteed."""
        planner = Planner()
        deployment = hybrid_plan(planner, instances=1,
                                 hybrid_spill_watermark=0.85)
        workload = request.getfixturevalue("small_w120")
        platform, table = run_platform(deployment, workload)
        return platform, table, platform.finalize()

    def test_both_paths_serve(self, spilling_cell):
        _, table, _ = spilling_cell
        assert OutcomeSummary.of_table(table).spill_ratio() > 0.0
        served = table.served_by
        assert (served == SERVED_BY_PROVISIONED).any()
        assert (served == SERVED_BY_SPILL).any()
        # The front door tags every request with a hybrid path.
        assert not (served == SERVED_BY_DIRECT).any()

    def test_client_ledger_conserves_and_matches_table(self, spilling_cell):
        platform, table, _ = spilling_cell
        notes = platform.meter.notes()
        assert_conserved(notes)
        assert notes["submitted"] == table.count
        assert notes["completed"] == int(table.success.sum())
        assert notes["spilled"] == int(
            (table.served_by == SERVED_BY_SPILL).sum())

    def test_merged_usage_keeps_per_path_ledgers(self, spilling_cell):
        platform, table, usage = spilling_cell
        for prefix in ("provisioned.", "spill."):
            assert_conserved(usage.notes, label=prefix, prefix=prefix)
        # Each client request was routed to exactly one backend.
        assert (usage.notes["provisioned.submitted"]
                + usage.notes["spill.submitted"]) == table.count
        assert usage.notes["spill.submitted"] == usage.notes["spilled"]

    def test_blended_cost_is_the_sum_of_the_path_breakdowns(
            self, spilling_cell):
        _, _, usage = spilling_cell
        provisioned = sum(v for k, v in usage.cost_breakdown.items()
                          if k.startswith("provisioned."))
        spill = sum(v for k, v in usage.cost_breakdown.items()
                    if k.startswith("spill."))
        assert provisioned > 0.0
        assert spill > 0.0
        assert usage.cost == pytest.approx(provisioned + spill)

    def test_spill_path_pays_per_request_fleet_pays_rent(self, spilling_cell):
        _, _, usage = spilling_cell
        assert "spill.requests" in usage.cost_breakdown
        assert any(k.startswith("provisioned.") and "request" not in k
                   for k in usage.cost_breakdown)

    def test_large_fleet_spills_less_than_small_fleet(self, small_w120):
        planner = Planner()
        ratios = []
        for instances in (1, 8):
            _, table = run_platform(hybrid_plan(planner, instances),
                                    small_w120)
            ratios.append(OutcomeSummary.of_table(table).spill_ratio())
        assert ratios[1] < ratios[0]

    def test_max_spill_fraction_caps_the_running_ratio(self, small_w120):
        planner = Planner()
        cap = 0.2
        deployment = hybrid_plan(planner, instances=1,
                                 hybrid_max_spill_fraction=cap)
        platform, table = run_platform(deployment, small_w120)
        notes = platform.meter.notes()
        assert 0.0 < notes["spilled"] <= cap * notes["submitted"]
        assert OutcomeSummary.of_table(table).spill_ratio() <= cap

    def test_max_spill_fraction_zero_pins_everything_provisioned(
            self, small_w120):
        planner = Planner()
        deployment = hybrid_plan(planner, instances=1,
                                 hybrid_max_spill_fraction=0.0)
        platform, table = run_platform(deployment, small_w120)
        assert OutcomeSummary.of_table(table).spill_ratio() == 0.0
        assert platform.meter.spilled == 0

    def test_sticky_windows_spill_contiguous_runs(self, small_w120):
        """With stickiness on, spills arrive in longer consecutive runs."""
        planner = Planner()
        runs = {}
        for sticky in (0.0, 3.0):
            deployment = hybrid_plan(planner, instances=1,
                                     hybrid_sticky_spill_s=sticky)
            _, table = run_platform(deployment, small_w120)
            order = np.argsort(table.send_time, kind="stable")
            spill = (table.served_by[order] == SERVED_BY_SPILL)
            # Mean length of consecutive spill runs in submit order.
            edges = np.flatnonzero(np.diff(spill.astype(np.int8)))
            segments = np.split(spill, edges + 1)
            lengths = [len(seg) for seg in segments if seg[0]]
            runs[sticky] = float(np.mean(lengths)) if lengths else 0.0
        assert runs[3.0] > runs[0.0]

    def test_spill_survives_a_provisioned_outage(self):
        """The hybrid-outage scenario: spill absorbs the outage window."""
        result = run("hybrid-outage", seed=SEED, scale=0.1)
        assert result.table.spill_ratio() > 0.0
        assert float(result.rows.success.mean()) > 0.9
        # The outage struck only the provisioned path's fault injector.
        assert result.usage.notes["spill.completed"] > 0

    def test_batched_members_carry_the_path_and_billing(self):
        """A batch is one invocation: every member row records the path
        that served it and the invocation's billed seconds."""
        spec = get_scenario("hybrid-burst")
        single = run(spec, seed=7, scale=0.2)
        batched = run(spec.with_config(batch_size=4), seed=7, scale=0.2)
        spilled = batched.usage.notes["spilled"]
        assert spilled > 0
        table = batched.rows
        # Each spilled invocation carries four members (the last batch
        # of a client may carry fewer).
        assert (batched.table.spill_ratio()
                > 0.5 * single.table.spill_ratio())
        members = table.served_by == SERVED_BY_SPILL
        assert int(members.sum()) >= spilled
        assert (table.billed_duration_s[members] > 0).any()
        assert not (table.served_by == SERVED_BY_DIRECT).any()

    def test_routed_hybrid_keeps_the_path_column(self):
        """Behind the multi-region router each client row records the
        path its winning attempt took, so the table's spill ratio is the
        regions' spill tallies over the requests."""
        spec = get_scenario("hybrid-burst").with_config(
            region_count=2, region_latency_s=(0.0, 0.03))
        result = run(spec, seed=7, scale=0.1)
        notes = result.usage.notes
        spilled = notes["region0.spilled"] + notes["region1.spilled"]
        assert spilled > 0
        table = result.rows
        assert int((table.served_by == SERVED_BY_SPILL).sum()) == spilled
        assert result.table.spill_ratio() == spilled / table.count

    def test_spilled_request_served_late_lands_in_its_row(self, monkeypatch):
        """The spill path writes the client's own row: a spilled request
        that times out at its 1 s deadline while a sandbox cold-starts is
        served later, and its billing and instance land in that row."""
        deployment = hybrid_plan(Planner(), request_timeout_s=1.0)
        env = Environment()
        platform = build_platform(env, deployment, rng=RandomStreams(SEED))
        monkeypatch.setattr(platform, "_should_spill", lambda: True)
        recorder = OutcomeRecorder(1)
        platform.bind(recorder.columns, recorder.commit)
        platform.start()
        row = recorder.register(0, 0, 0.0)
        env.process(platform.request(row, 0.1, 0.01))
        env.run(until=120.0)
        table = recorder.table()
        assert table.served_by[row] == SERVED_BY_SPILL
        assert error_at(table, row) == "timeout"
        assert table.completion_time[row] < 2.0
        assert table.instance_id[row] >= 0
        assert table.billed_duration_s[row] > 0.0
        assert table.stage_column("predict")[row] > 0.0

    def test_registered_scenarios_run_end_to_end(self):
        for name in ("hybrid-burst", "hybrid-steady"):
            result = run(name, seed=SEED, scale=0.05)
            assert result.table.count > 0
            assert_conserved(result.usage.notes)


# ---------------------------------------------------------------------------
# Determinism and encoding layer
# ---------------------------------------------------------------------------

def _summary_reads(summary) -> list:
    """The path means, spill ratio, SLO attainment and success timeline
    a hybrid cell's summary answers from its transported sums and
    declared answers."""
    return [[summary.path_latency_mean(code) for code in range(3)],
            summary.spill_ratio(), summary.slo_attainment(1.0),
            [column.tolist() for column in summary.success_timeline(5.0)]]


class TestHybridDeterminism:
    def test_hybrid_cells_identical_across_worker_pool(self, tiny_w40):
        planner = Planner()
        deployments = [
            hybrid_plan(planner, instances=1,
                        hybrid_sticky_spill_s=3.0),
            hybrid_plan(planner, instances=2,
                        hybrid_max_spill_fraction=0.5,
                        outage_start_s=10.0, outage_duration_s=15.0,
                        outage_fraction=1.0, retry_attempts=2),
            hybrid_plan(planner, instances=1,
                        storm_times_s=(10.0, 25.0),
                        crash_mtbf_s=30.0),
        ]
        bench = ServingBenchmark(seed=SEED)
        cells = [(deployment, tiny_w40, 1.0, None)
                 for deployment in deployments]
        # The answers _summary_reads reads off the reduced summaries.
        reads = (("slo", 1.0), ("timeline", 5.0))
        serial = run_cells(bench, cells, workers=0, reads=reads)
        parallel = run_cells(bench, cells, workers=3, reads=reads)
        for left, right in zip(serial, parallel):
            assert left.table.column_hash() == right.table.column_hash()
            assert left.cost == right.cost
            # What reads the shipped summaries' answers agrees too.
            np.testing.assert_equal(_summary_reads(right.table),
                                    _summary_reads(left.table))

    def test_rerun_is_bit_identical(self, tiny_w40):
        deployment = hybrid_plan(Planner(), instances=1,
                                 hybrid_sticky_spill_s=2.0)
        bench = ServingBenchmark(seed=SEED)
        first = bench.run(deployment, tiny_w40)
        second = bench.run(deployment, tiny_w40)
        assert first.table.column_hash() == second.table.column_hash()

    def test_served_by_survives_the_packed_round_trip(self, tiny_w40):
        """A hybrid cell's worker payload, pickled, keeps the path
        reductions and the hash of its served_by column."""
        deployment = hybrid_plan(Planner(), instances=1)
        result = ServingBenchmark(seed=SEED).run(deployment, tiny_w40)
        table = result.rows
        assert table.served_by.any()
        payload = replace(result.reduced(), deployment=None)
        back = pickle.loads(pickle.dumps(payload)).table
        spilled = (table.served_by == SERVED_BY_SPILL).sum()
        assert back.spill_ratio() == spilled / table.count > 0.0
        on_path = [table.latency[table.success & (table.served_by == code)]
                   for code in range(3)]
        np.testing.assert_equal(
            [back.path_latency_mean(code) for code in range(3)],
            [path.mean() if path.size else float("nan")
             for path in on_path])
        assert back.column_hash() == table.column_hash()

    def test_non_hybrid_tables_elide_the_column(self, tiny_w40):
        """A non-hybrid table's hash skips its all-direct served_by
        column; its summary keeps that hash and every request direct."""
        deployment = Planner().plan("aws", "mobilenet", "tf1.15",
                                    "serverless")
        _, table = run_platform(deployment, tiny_w40)
        assert not table.served_by.any()
        summary = OutcomeSummary.of_table(table)
        assert summary.path_counts.tolist() == [table.count, 0, 0]
        assert summary.column_hash() == table.column_hash()

    def test_served_by_names_cover_the_codes(self):
        assert SERVED_BY_NAMES[SERVED_BY_DIRECT] == "direct"
        assert SERVED_BY_NAMES[SERVED_BY_PROVISIONED] == "provisioned"
        assert SERVED_BY_NAMES[SERVED_BY_SPILL] == "spill"


class TestHybridStreaming:
    def test_streaming_summary_agrees_with_the_full_table(self, tiny_w40):
        deployment = hybrid_plan(Planner(), instances=1)
        full = ServingBenchmark(seed=SEED).run(deployment, tiny_w40)
        streamed = ServingBenchmark(
            seed=SEED, streaming_threshold=0,
            chunk_rows=128).run(deployment, tiny_w40)
        assert streamed.streaming
        summary = streamed.table
        table = full.table
        assert summary.spill_ratio() == pytest.approx(table.spill_ratio())
        for code in (SERVED_BY_PROVISIONED, SERVED_BY_SPILL):
            assert summary.path_latency_mean(code) == pytest.approx(
                table.path_latency_mean(code))


# ---------------------------------------------------------------------------
# Closed-form validation layer (planner vs simulation)
# ---------------------------------------------------------------------------

class TestPlannerValidation:
    """The satellite check: simulation vs `routed_percentile` closed form.

    The tolerances are the documented ones (see ``repro.tools.hybrid``):
    the closed form clips a 1 s rate series at deterministic fleet
    capacity and bills warm serverless prices, the simulation routes on
    instantaneous slot occupancy and bills actual (cold-start-inflated)
    invocation durations.
    """

    CELLS = (
        ("w-40", 80.0, 0.3),
        ("w-120", 60.0, 0.15),
        ("w-200", 80.0, 0.1),
    )

    @pytest.mark.parametrize("workload,percentile,scale", CELLS)
    def test_simulation_matches_the_closed_form(self, workload, percentile,
                                                scale):
        spec = ScenarioSpec(name=f"hybrid-validate-{workload}",
                            provider="aws", model="mobilenet",
                            platform=PlatformKind.HYBRID,
                            workload=workload)
        check = validate_routed_plan(spec, routed_percentile=percentile,
                                     seed=7, scale=scale)
        label = (f"{workload} p{percentile}: cost_err={check.cost_error:.3f} "
                 f"spill_err={check.spill_error:.3f}")
        assert check.cost_error <= ROUTED_COST_RTOL, label
        assert check.spill_error <= ROUTED_SPILL_ATOL, label

    def test_validation_cell_actually_simulated(self):
        check = validate_routed_plan("hybrid-burst", routed_percentile=60.0,
                                     scale=0.05)
        assert check.plan.routed_cost is not None
        assert check.simulated_cost > 0.0
        assert 0.0 <= check.simulated_spill_fraction <= 1.0

    def test_economics_study_planner_notes_match_the_scenario(self):
        from repro.tools.hybrid import HybridPlanner
        scenario = get_scenario("hybrid-burst")
        planner = HybridPlanner.from_scenario(scenario)
        plan = planner.plan_scenario(scenario, seed=7, scale=0.1)
        assert plan.servers >= 1
        assert 0.0 <= plan.overflow_fraction <= 1.0
        assert plan.best_strategy() in ("hybrid", "serverless", "server")
