"""Golden-hash determinism tests for the columnar outcome pipeline.

The columnar rework leans on two exact-equivalence guarantees:

* block-buffered random draws serve the *same per-stream sequence* as
  scalar draws, at any block size (``RandomStreams`` pre-draws standard
  variates and scales them with the exact operations numpy applies
  internally);
* parallel cells are bit-identical to serial cells (every cell reseeds
  its own streams, and the worker transport of a cell's whole-table
  summary is lossless).

Both are asserted here as SHA-256 hashes over every outcome column of a
fixed-seed w-40 cell — if any draw, any completion time, or any stage
attribution shifts by one ULP, the hashes diverge.

A third guarantee is the table's storage rule: a table stores only what
its run produced (all-default columns are zero-byte views, sequential
request ids and unproduced stages are not stored), and every reader
sees exactly what it would see over dense columns.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.core.benchmark import ServingBenchmark
from repro.core.metrics import LatencyStats
from repro.core.parallel import run_cells
from repro.core.planner import Planner
from repro.core.results import RunResult
from repro.serving.outcome_table import OutcomeRecorder, OutcomeTable
from repro.serving.records import Stage
from repro.serving.streaming import OutcomeSummary
from repro.sim import RandomStreams
from repro.workload.generator import standard_workload

from outcome_rows import errors

SEED = 5


@pytest.fixture(scope="module")
def w40_cell():
    return (Planner().plan("aws", "mobilenet", "tf1.15", "serverless"),
            standard_workload("w-40", seed=SEED, scale=0.05))


def _run_digest(deployment, workload, block_size):
    """The cell's column hash and its count of served random variates."""
    bench = ServingBenchmark(seed=SEED, rng_block_size=block_size)
    result = bench.run(deployment, workload)
    return result.table.column_hash(), result.metadata["rng_draws"]


class TestBlockSizeInvariance:
    def test_buffered_draws_match_unbuffered_run(self, w40_cell):
        """Identical outcome columns before/after block-buffered draws.

        The draw count agrees too: counted per call when unbuffered,
        per block otherwise.
        """
        deployment, workload = w40_cell
        unbuffered = _run_digest(deployment, workload, block_size=1)
        assert unbuffered[1] > 0
        for block_size in (7, 1024):
            assert _run_digest(deployment, workload, block_size) == unbuffered

    def test_stream_sequences_identical_at_any_block_size(self):
        """Every draw path serves the block-size-1 scalar sequence.

        Pre-bound draws share their stream's block with the scalar
        methods, so bound draws interleaved with ``lognormal_around``,
        ``lognormal_sum`` and ``choice`` on one stream still match.
        """
        for block_size in (3, 256):
            reference = RandomStreams(SEED, block_size=1)
            streams = RandomStreams(SEED, block_size=block_size)
            jitter = streams.lognormal_draw("jitter", 0.05, 0.08)
            pick = streams.choice_draw("pick", 200)
            for step in range(600):
                assert (streams.lognormal_around("jitter", 0.05, 0.08)
                        == reference.lognormal_around("jitter", 0.05, 0.08))
                assert (streams.exponential("dwell", 2.0)
                        == reference.exponential("dwell", 2.0))
                assert (streams.uniform("pull", 0.0, 1.0)
                        == reference.uniform("pull", 0.0, 1.0))
                assert (streams.choice("pick", 200)
                        == reference.choice("pick", 200))
                assert jitter() == reference.lognormal_around(
                    "jitter", 0.05, 0.08)
                assert pick() == reference.choice("pick", 200)
                if step % 5 == 0:
                    assert (streams.lognormal_sum("jitter", 0.2, 0.08, 4)
                            == reference.lognormal_sum(
                                "jitter", 0.2, 0.08, 4))

    def test_lognormal_sum_matches_repeated_draws(self):
        summed = RandomStreams(SEED)
        repeated = RandomStreams(SEED)
        for count in (1, 2, 5):
            expected = sum(repeated.lognormal_around("x", 0.1, 0.2)
                           for _ in range(count))
            assert summed.lognormal_sum("x", 0.1, 0.2, count) == expected


class TestSerialParallelEquality:
    def test_worker_pool_produces_identical_columns(self, w40_cell):
        """Fixed-seed serial and workers=4 runs: bit-identical columns."""
        _deployment, workload = w40_cell
        planner = Planner()
        deployments = [planner.plan("aws", "mobilenet", "tf1.15", platform)
                       for platform in ("serverless", "cpu_server",
                                        "managed_ml", "gpu_server")]
        bench = ServingBenchmark(seed=SEED)
        cells = [(deployment, workload, 1.0, None)
                 for deployment in deployments]
        serial = run_cells(bench, cells, workers=0)
        parallel = run_cells(bench, cells, workers=4)
        for left, right in zip(serial, parallel):
            assert left.table.column_hash() == right.table.column_hash()
            assert left.cost == right.cost
            assert left.duration_s == right.duration_s
            assert left.usage.cold_starts == right.usage.cold_starts


class TestSeedAxisDeterminism:
    """The replication layer's exact-equivalence guarantees.

    A replicated sweep pins one seed per cell (``ScenarioSpec.seed``)
    and routes it through the run cache and the worker pool; these tests
    assert, via the same column hashes as above, that (a) pinning the
    runner's own seed changes nothing — replicate 0 of a K-replicate
    sweep is bit-identical to the unreplicated cell — and (b) fanning
    replicate cells over workers is bit-identical to running them
    serially.
    """

    def test_pinned_seed_matches_benchmark_seed_run(self, w40_cell):
        """seed=SEED override == the plain run at benchmark seed SEED."""
        deployment, workload = w40_cell
        bench = ServingBenchmark(seed=SEED)
        plain = bench.run(deployment, workload)
        pinned = bench.run(deployment, workload, seed=SEED)
        assert pinned.table.column_hash() == plain.table.column_hash()
        assert pinned.cost == plain.cost

    def test_replicate_zero_is_bit_identical_to_unreplicated_cell(self):
        """Sweep(seeds=(context seed,)) reproduces the plain study cell."""
        from repro.api import ScenarioSpec, Study, Sweep, run_study

        base = ScenarioSpec(name="det", provider="aws", model="mobilenet")
        plain = run_study(Study(name="plain", sweeps=Sweep(
            name="plain", base=base)), seed=SEED, scale=0.05)
        single = run_study(Study(name="single", sweeps=Sweep(
            name="single", base=base, seeds=(SEED,))), seed=SEED, scale=0.05)
        replicated = run_study(Study(name="rep", sweeps=Sweep(
            name="rep", base=base, replicates=3)), seed=SEED, scale=0.05)
        reference = plain.row(0)
        for frame in (single, replicated.where(replicate=0)):
            row = frame.row(0)
            assert row["seed"] == SEED
            for metric in ("requests", "success_ratio", "avg_latency_s",
                           "p99_latency_s", "cost_usd", "cold_starts",
                           "duration_s"):
                assert row[metric] == reference[metric], metric

    def test_replicated_worker_fanout_matches_serial(self):
        """workers=4 replicate cells: same golden hashes as serial."""
        from repro.core.scenario import ScenarioSpec
        from repro.experiments.base import ExperimentContext

        spec = ScenarioSpec(name="det", provider="aws", model="mobilenet")
        specs = [spec.with_seed(SEED + r, name=f"det/r{r}")
                 for r in range(4)]

        def run_all(workers):
            context = ExperimentContext(seed=SEED, scale=0.05,
                                        workers=workers)
            return context.run_specs(specs)

        serial = run_all(workers=0)
        parallel = run_all(workers=4)
        hashes = set()
        for left, right in zip(serial, parallel):
            assert left.table.column_hash() == right.table.column_hash()
            assert left.cost == right.cost
            hashes.add(left.table.column_hash())
        # The seeds genuinely vary the runs: all four hashes distinct.
        assert len(hashes) == len(specs)

    def test_seed_travels_in_cell_key(self):
        from repro.core.scenario import ScenarioSpec

        spec = ScenarioSpec(name="det", provider="aws", model="mobilenet")
        assert "seed=" not in spec.cell_key
        pinned = spec.with_seed(11)
        assert pinned.cell_key == spec.cell_key + "/seed=11"
        assert pinned.with_seed(None).cell_key == spec.cell_key
        assert pinned.as_row()["seed"] == 11

    def test_fidelity_travels_in_cell_key(self):
        from repro.core.scenario import ScenarioSpec

        spec = ScenarioSpec(name="det", provider="aws", model="mobilenet")
        assert "fidelity=" not in spec.cell_key
        short = spec.with_seed(11).with_fidelity(0.25)
        assert short.cell_key == spec.cell_key + "/seed=11/fidelity=0.25"
        assert short.as_row()["fidelity"] == 0.25
        # Full length normalises to None, so full-fidelity cell keys are
        # unchanged from before the knob existed.
        assert spec.with_fidelity(1.0).cell_key == spec.cell_key
        assert spec.with_fidelity(None).cell_key == spec.cell_key
        with pytest.raises(ValueError, match="fidelity"):
            spec.with_fidelity(0.0)
        with pytest.raises(ValueError, match="fidelity"):
            spec.with_fidelity(1.5)


class TestFidelityDeterminism:
    """Rung-0 short-horizon cells are ordinary cells, bit for bit.

    The halving search's cache-reuse story rests on this: a spec pinned
    to ``fidelity=f`` must produce byte-identical outcome columns to the
    same spec run through :func:`repro.api.run` with the scale folded by
    hand — serially and through the worker pool.
    """

    FIDELITY = 0.5
    SCALE = 0.1

    def test_rung0_cell_matches_api_run_at_same_fidelity(self):
        """spec@fidelity through api.run == hand-folded scale, same hashes."""
        from repro.api import ScenarioSpec, run

        spec = ScenarioSpec(name="det", provider="aws", model="mobilenet",
                            seed=SEED)
        rung0 = run(spec.with_fidelity(self.FIDELITY), seed=SEED,
                    scale=self.SCALE)
        folded = run(spec, seed=SEED, scale=self.SCALE * self.FIDELITY)
        assert rung0.table.column_hash() == folded.table.column_hash()
        assert rung0.cost == folded.cost
        assert rung0.workload_scale == folded.workload_scale

    def test_rung0_context_run_matches_api_run(self):
        """The context path (run cache, run_specs) == the api.run path."""
        from repro.api import ScenarioSpec, run
        from repro.experiments.base import ExperimentContext

        spec = ScenarioSpec(name="det", provider="aws", model="mobilenet",
                            seed=SEED).with_fidelity(self.FIDELITY)
        context = ExperimentContext(seed=SEED, scale=self.SCALE)
        via_context = context.run_scenario(spec)
        via_api = run(spec, seed=SEED, scale=self.SCALE)
        assert via_context.table.column_hash() == via_api.table.column_hash()
        assert via_context.cost == via_api.cost

    def test_rung0_worker_fanout_matches_serial(self):
        """Short-horizon cells over workers=2: same golden hashes."""
        from repro.core.scenario import ScenarioSpec
        from repro.experiments.base import ExperimentContext

        base = ScenarioSpec(name="det", provider="aws", model="mobilenet")
        specs = [base.with_seed(SEED + r, name=f"det/r{r}")
                 .with_fidelity(self.FIDELITY) for r in range(3)]

        def run_all(workers):
            context = ExperimentContext(seed=SEED, scale=self.SCALE,
                                        workers=workers)
            return context.run_specs(specs)

        serial = run_all(workers=0)
        parallel = run_all(workers=2)
        for left, right in zip(serial, parallel):
            assert left.table.column_hash() == right.table.column_hash()
            assert left.cost == right.cost
            # The pooled summaries' row-order arrays read as the serial.
            for target in (0.2, 1.0, 5.0):
                assert (left.table.slo_attainment(target)
                        == right.table.slo_attainment(target))
            np.testing.assert_equal(left.table.success_timeline(5.0),
                                    right.table.success_timeline(5.0))


class TestPackedTransport:
    def test_packed_round_trip_is_lossless(self, w40_cell):
        """The worker payload (the reduced result's summary) pickles and
        rebuilds with the table's column hash and exact statistics."""
        deployment, workload = w40_cell
        result = ServingBenchmark(seed=SEED).run(deployment, workload)
        wire = pickle.dumps(result.to_transport())
        restored = RunResult.from_transport(pickle.loads(wire), deployment)
        table, summary = result.rows, restored.table
        assert summary.column_hash() == table.column_hash()
        latencies = table.latency[table.success]
        assert restored.latency_stats() == LatencyStats.from_values(latencies)
        # The row-order arrays crossed as well: what reads them answers
        # as the rows do.
        for target in (0.2, 1.0, 5.0):
            assert (summary.slo_attainment(target)
                    == (latencies <= target).sum() / table.count)
        bins = (table.send_time / 5.0).astype(np.int64)
        requests = np.bincount(bins)
        np.testing.assert_equal(
            summary.success_timeline(5.0),
            (np.arange(len(requests)) * 5.0, requests,
             np.bincount(bins[table.success], minlength=len(requests))))

    def test_packed_payload_is_row_arrays_plus_a_fixed_header(self,
                                                              w40_cell):
        deployment, workload = w40_cell
        result = ServingBenchmark(seed=SEED).run(deployment, workload)
        packed = len(pickle.dumps(result.to_transport()))
        # The summary ships its row-order arrays (send time and latency
        # of each success, send time of each failure) and a header that
        # does not grow with the run: 19,241 B in all for these 750
        # successful requests.
        success = result.rows.success
        row_bytes = 16 * int(success.sum()) + 8 * int((~success).sum())
        assert packed <= row_bytes + 8 * 1024


class TestLateAndPartialCommits:
    def test_timed_out_requests_keep_serve_side_fields(self, monkeypatch,
                                                       w40_cell):
        """A request served *after* its client gave up still records the
        instance assignment, billed duration, and predict stage (the
        platform re-commits the row through the executor's sink)."""
        import repro.platforms.serverless as serverless_module
        monkeypatch.setattr(serverless_module, "_FUNCTION_TIMEOUT_S", 0.05)
        deployment, workload = w40_cell
        result = ServingBenchmark(seed=SEED).run(deployment, workload)
        table = result.rows
        timeout_code = table.error_names.index("timeout")
        timed_out = table.error_code == timeout_code
        assert timed_out.any()
        served_late = timed_out & (table.instance_id >= 0)
        assert served_late.any()
        assert (table.billed_duration_s[served_late] > 0).all()
        assert (table.stage_column("predict")[served_late] > 0).all()

    def test_unfinished_requests_keep_partial_stages(self):
        """Registered-but-never-completed rows keep what serving wrote."""
        from repro.serving.outcome_table import OutcomeRecorder
        from repro.serving.records import Stage

        recorder = OutcomeRecorder(capacity=2)
        row = recorder.register(0, 0, 1.0)
        recorder.columns.network_s[row] += 0.25
        recorder.columns.instance_id[row] = 3
        table = recorder.table()
        assert table.stage_column(Stage.NETWORK)[0] == 0.25
        assert table.instance_id[0] == 3
        assert table.completion_time[0] != table.completion_time[0]  # NaN


#: The dtype of every per-row column a run's table holds.
ROW_DTYPES = {"request_id": np.int64, "client_id": np.int32,
              "send_time": np.float64, "completion_time": np.float64,
              "success": np.bool_, "cold_start": np.bool_,
              "instance_id": np.int64, "billed_duration_s": np.float64,
              "inferences": np.int32, "error_code": np.int16,
              "attempts": np.int32, "served_by": np.int8}


class TestRowsStayColumnar:
    """Serving writes outcome rows in place: whatever layers a request
    path stacks, a run's rows come back as typed numpy columns with one
    entry per request, and the run's summary is their fold."""

    @pytest.mark.parametrize("cell", [
        "serverless", "managed_ml", "failover-crash", "hybrid-burst",
        "batched-retried"])
    def test_a_run_returns_typed_columns(self, cell):
        from repro.api import run
        from repro.core.scenario import get_scenario, list_scenarios

        workload = standard_workload("w-40", seed=SEED, scale=0.05)
        planner = Planner()
        if cell in list_scenarios():
            result = run(get_scenario(cell), seed=SEED, scale=0.05)
        elif cell == "batched-retried":
            deployment = planner.plan(
                "aws", "mobilenet", "tf1.15", "serverless", batch_size=4,
                request_error_rate=0.1, retry_attempts=3)
            result = ServingBenchmark(seed=SEED).run(deployment, workload)
            assert result.table.attempts_mean() > 1.0
        else:
            deployment = planner.plan("aws", "mobilenet", "tf1.15", cell)
            result = ServingBenchmark(seed=SEED).run(deployment, workload)
        rows = result.rows
        assert rows.count == result.total_requests > 0
        for name, dtype in ROW_DTYPES.items():
            column = getattr(rows, name)
            assert isinstance(column, np.ndarray), name
            assert column.dtype == dtype and column.shape == (rows.count,), \
                name
        for stage in Stage.ORDER:
            column = rows.stage_column(stage)
            assert column.dtype == np.float64, stage
            assert column.shape == (rows.count,), stage
        assert (OutcomeSummary.of_table(rows).column_hash()
                == result.table.column_hash())


class TestObjectViewConsistency:
    def test_metrics_match_object_view(self, w40_cell):
        """The summary's reductions agree with plain Python over the rows."""
        deployment, workload = w40_cell
        result = ServingBenchmark(seed=SEED).run(deployment, workload)
        rows = result.rows
        success = rows.success.tolist()
        latency = [completion - send for send, completion in zip(
            rows.send_time.tolist(), rows.completion_time.tolist())]
        cold_start = rows.cold_start.tolist()
        successes = [row for row, ok in enumerate(success) if ok]
        assert result.total_requests == len(success)
        assert result.success_ratio == len(successes) / len(success)
        assert result.average_latency == pytest.approx(
            sum(latency[row] for row in successes) / len(successes))
        cold = sum(1 for row in successes if cold_start[row])
        assert result.cold_start_ratio == cold / len(successes)
        for stage in Stage.ORDER:
            assert all(seconds >= 0.0
                       for seconds in rows.stage_column(stage).tolist()), stage


#: The recorder default of every column a run may leave untouched.
DEFAULTS = {"cold_start": False, "instance_id": -1, "billed_duration_s": 0.0,
            "inferences": 1, "error_code": 0, "attempts": 1, "served_by": 0}

#: Bytes per row of a table that stores every column (the dense layout).
DENSE_ROW_BYTES = 121


@pytest.fixture(scope="module")
def storage_tables():
    """A managed-ML and a serverless cell on w-40 (their tables)."""
    workload = standard_workload("w-40", seed=SEED, scale=0.1)
    planner = Planner()
    return {platform: ServingBenchmark(seed=SEED).run(
                planner.plan("aws", "mobilenet", "tf1.15", platform),
                workload).rows
            for platform in ("managed_ml", "serverless")}


def _zero_byte(column) -> bool:
    return column.strides == (0,) and not column.flags.writeable


def _dense(table: OutcomeTable) -> OutcomeTable:
    """The same table with every column stored dense: the reference."""
    dense = copy.copy(table)
    for name in DEFAULTS:
        setattr(dense, name, np.array(getattr(table, name)))
    dense._request_id = np.array(table.request_id)
    stages = table.stages
    dense._stages = {name: stages[:, index].copy()
                     for index, name in enumerate(Stage.ORDER)}
    assert dense.resident_bytes() == DENSE_ROW_BYTES * table.count
    return dense


def _reductions(table: OutcomeTable) -> list:
    """Every column the table offers and every reduction of its
    whole-table summary, in comparable form."""
    summary = OutcomeSummary.of_table(table)
    return [
        table.count, table.latency.tolist(),
        table.latency[table.success].tolist(), errors(table),
        summary.attempts_mean(), summary.degraded_ratio(),
        summary.spill_ratio(),
        [summary.path_latency_mean(code) for code in range(3)],
        summary.slo_attainment(0.5), summary.slo_attainment(5.0),
        [column.tolist() for column in summary.success_timeline(5.0)],
        summary.availability(5.0), summary.time_to_recover(10.0, 5.0),
        [table.stage_column(stage).tolist() for stage in Stage.ORDER],
        table.request_id.tolist(), table.stages.tolist(),
    ]


class TestStoredColumns:
    """Tables store only what the run produced; readers cannot tell."""

    def test_cells_store_only_produced_columns(self, storage_tables):
        expected_row_bytes = {"managed_ml": 55, "serverless": 102}
        for platform, table in storage_tables.items():
            count = table.count
            assert table.resident_bytes() == (expected_row_bytes[platform]
                                              * count), platform
            for name, default in DEFAULTS.items():
                column = getattr(table, name)
                assert column.shape == (count,)
                assert _zero_byte(column) == bool((column == default).all())
            for stage in Stage.ORDER:
                column = table.stage_column(stage)
                assert column.dtype == np.float64
                assert _zero_byte(column) == (not column.any())
            # Rebuilt columns keep their shapes and dtypes.
            assert table.request_id.dtype == np.int64
            assert table.request_id.tolist() == list(range(count))
            assert table.stages.shape == (count, len(Stage.ORDER))
            assert table.stages.dtype == np.float64
        managed = storage_tables["managed_ml"]
        assert [name for name in DEFAULTS
                if _zero_byte(getattr(managed, name))] == [
            "cold_start", "instance_id", "billed_duration_s", "inferences",
            "attempts", "served_by"]
        assert sum(_zero_byte(managed.stage_column(stage))
                   for stage in Stage.ORDER) == 4
        with pytest.raises(ValueError):
            managed.cold_start[0] = True      # views are read-only

    def test_readers_match_dense_reference(self, storage_tables):
        for platform, table in storage_tables.items():
            dense = _dense(table)
            assert table.column_hash() == dense.column_hash(), platform
            np.testing.assert_equal(_reductions(table), _reductions(dense))
            # The whole-table summary cannot tell the storage apart either.
            assert (pickle.dumps(OutcomeSummary.of_table(table).state())
                    == pickle.dumps(OutcomeSummary.of_table(dense).state()))
            folded, reference = OutcomeSummary(), OutcomeSummary()
            folded.fold(table)
            reference.fold(dense)
            assert folded.digest() == reference.digest()
            for name in ("client_id", "send_time", "completion_time",
                         "success", *DEFAULTS):
                np.testing.assert_equal(getattr(table, name),
                                        getattr(dense, name), err_msg=name)
                # Single-row reads of a zero-byte view see the default.
                assert ([getattr(table, name)[row] for row in range(20)]
                        == getattr(dense, name)[:20].tolist()), name

    def test_fail_unfinished_copies_a_zero_byte_error_column(self):
        recorder = OutcomeRecorder(capacity=4)
        rows = [recorder.register(i, 0, float(i)) for i in range(4)]
        for row in rows[:2]:
            recorder.columns.completion_time[row] = row + 0.5
            recorder.columns.success[row] = True
            recorder.commit(row)
        table, other = recorder.table(), recorder.table()
        assert _zero_byte(table.error_code)
        assert table.fail_unfinished(horizon=2.5) == 2
        assert errors(table) == ["", "", "unfinished", "unfinished"]
        assert table.success.tolist() == [True, True, False, False]
        assert table.completion_time.tolist() == [0.5, 1.5, 2.5, 3.0]
        assert _zero_byte(other.error_code)
        assert errors(other) == [""] * 4
