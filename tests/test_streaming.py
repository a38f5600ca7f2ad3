"""The trace-scale streaming plane: chunk ring, reductions, transport.

Three guarantees of the streaming engine are pinned here:

* **Chunk-ring equality** — the chunked recorder, at any chunk size,
  folds chunks whose columns, concatenated, are bit-identical to the
  preallocated ``OutcomeRecorder``'s, and every folded chunk's
  whole-table summary survives the worker transport losslessly.
* **Streaming reductions** — a cell run through the streaming path
  (``OutcomeSummary`` folds, no full table) reproduces every standard
  metric: counts, ratios, and timelines exactly; sketch quantiles within
  the sketch's documented resolution.
* **Worker transport** — a result pickled as a worker ships it keeps
  every array of its summary bit for bit, and a worker pool returns the
  serial summaries, streamed and whole-table, array for array, with
  the parent's own deployments, also when a worker dies mid-batch.

Plus the streamed workload generator (block-by-block arrivals equal to
the materialised trace) and the recorder's exact-capacity contract.
"""

from __future__ import annotations

import copy
import pickle
import re
from dataclasses import astuple, replace

import numpy as np
import pytest

from repro.core.benchmark import ServingBenchmark
from repro.core.parallel import run_cells
from repro.serving.outcome_table import OutcomeRecorder
from repro.serving.records import Stage
from repro.serving.streaming import (
    ChunkedOutcomeRecorder,
    LatencySketch,
    OutcomeSummary,
)
from repro.workload.generator import (
    WorkloadSpec,
    generate_workload,
    standard_workload,
    workload_spec,
)
from repro.workload.splitter import merge_traces
from repro.workload.streaming import PIECE_ARRIVALS, StreamedWorkload

from outcome_rows import errors

SEED = 5


@pytest.fixture(scope="module")
def reference_result(tiny_w40):
    """One preallocated-path cell shared by the equality tests."""
    from repro.core.planner import Planner
    deployment = Planner().plan("aws", "mobilenet", "tf1.15", "serverless")
    return ServingBenchmark(seed=SEED).run(deployment, tiny_w40), deployment


#: Every array column of a table, compared bit for bit across backends
#: (error codes are compared as their strings).
ARRAY_COLUMNS = ("request_id", "client_id", "send_time", "completion_time",
                 "success", "cold_start", "instance_id", "billed_duration_s",
                 "inferences", "attempts", "served_by", "stages")

#: SLO targets and timeline bin widths (seconds) a transported
#: whole-table summary is read at.
SLO_TARGETS_S = (0.2, 1.0, 5.0)
TIMELINE_BINS_S = (5.0, 20.0)

#: The declarations (``Study.reads`` pairs) a reduced summary needs to
#: answer at :data:`SLO_TARGETS_S` and :data:`TIMELINE_BINS_S`.
READS = (tuple(("slo", target) for target in SLO_TARGETS_S)
         + tuple(("timeline", bin_s) for bin_s in TIMELINE_BINS_S))


def _assert_reads_like_table(summary: OutcomeSummary, table) -> None:
    """``summary`` answers SLO attainment and success timelines off its
    row-order arrays as numpy over ``table``'s rows does, and keeps the
    table's hash."""
    success = table.success
    for target in SLO_TARGETS_S:
        assert summary.slo_attainment(target) == (
            (success & (table.latency <= target)).sum() / table.count)
    for bin_s in TIMELINE_BINS_S:
        bins = (table.send_time / bin_s).astype(np.int64)
        requests = np.bincount(bins)
        np.testing.assert_equal(
            summary.success_timeline(bin_s),
            (np.arange(len(requests)) * bin_s, requests,
             np.bincount(bins[success], minlength=len(requests))))
    assert summary.column_hash() == table.column_hash()


def _assert_same_bits(got, value, name: str) -> None:
    """``got`` is ``value``, every array (also inside a tuple) bit for
    bit, dtype and shape included."""
    if isinstance(value, np.ndarray):
        assert (got.dtype, got.shape) == (value.dtype, value.shape), name
        assert got.tobytes() == value.tobytes(), name
    elif isinstance(value, tuple):
        assert isinstance(got, tuple) and len(got) == len(value), name
        for got_part, part in zip(got, value):
            _assert_same_bits(got_part, part, name)
    else:
        assert type(got) is type(value) and got == value, name


def _assert_same_summary(rebuilt: OutcomeSummary,
                         original: OutcomeSummary) -> None:
    """``rebuilt`` holds ``original``'s fields, every array bit for bit
    (dtype and shape included; a reduced summary's kept answers too),
    and reads the same SLO attainment, success timelines, latency sums
    and breakdown off them."""
    state, expected = vars(rebuilt), vars(original)
    assert state.keys() == expected.keys()
    for name, value in expected.items():
        got = state[name]
        if isinstance(value, np.ndarray):
            _assert_same_bits(got, value, name)
        elif name == "answers" and value is not None:
            assert got.keys() == value.keys(), name
            for read, answer in value.items():
                _assert_same_bits(got[read], answer, str(read))
        elif isinstance(value, LatencySketch):
            for slot in LatencySketch.__slots__:
                np.testing.assert_equal(getattr(got, slot),
                                        getattr(value, slot), err_msg=slot)
        else:
            assert got == value, name
    for target in SLO_TARGETS_S:
        assert (rebuilt.slo_attainment(target)
                == original.slo_attainment(target))
    for bin_s in TIMELINE_BINS_S:
        timeline = rebuilt.success_timeline(bin_s)
        np.testing.assert_equal(timeline, original.success_timeline(bin_s))
        bins = len(timeline[0])
        np.testing.assert_equal(rebuilt.latency_sums(bin_s, bins),
                                original.latency_sums(bin_s, bins))
    for cold in (True, False):
        assert (rebuilt.breakdown_means(cold)
                == original.breakdown_means(cold))


#: The columns serving writes into a request's row, besides its stages
#: and its error.
SERVED_COLUMNS = ("completion_time", "success", "cold_start", "instance_id",
                  "billed_duration_s", "attempts", "served_by")


def _replay(table, chunk_rows: int):
    """Write ``table``'s rows through the streaming chunk ring, one row
    at a time as serving does.

    Returns every chunk the ring folded, in fold order, as a pair: the
    chunk's ``column_hash()`` at fold time, and a deep copy of the chunk
    (a table that outlives the ring).
    """
    recorder = ChunkedOutcomeRecorder(chunk_rows=chunk_rows)
    fold = recorder.summary.fold
    folded = []

    def keep_and_fold(view):
        folded.append((view.column_hash(), copy.deepcopy(view)))
        fold(view)

    recorder.summary.fold = keep_and_fold
    issued = zip(table.request_id.tolist(), table.client_id.tolist(),
                 table.send_time.tolist(), table.inferences.tolist())
    rows = [recorder.register(*values) for values in issued]
    served = {name: getattr(table, name).tolist() for name in SERVED_COLUMNS}
    stages = {stage: table.stage_column(stage).tolist()
              for stage in Stage.ORDER}
    row_errors = errors(table)
    for index, row in enumerate(rows):
        columns = recorder.columns
        for name, values in served.items():
            getattr(columns, name)[row] = values[index]
        for stage, values in stages.items():
            columns.stages[stage][row] = values[index]
        if row_errors[index]:
            columns.errors[row] = row_errors[index]
        recorder.commit(row)
    # Every replayed row is committed, so finalize fails none of them.
    recorder.finalize(horizon=0.0)
    return folded


class TestChunkRingEquality:
    @pytest.mark.parametrize("chunk_rows", [7, 256, 4096, 1_000_000])
    def test_any_chunk_size_matches_preallocated_hash(self,
                                                      reference_result,
                                                      chunk_rows):
        result, _deployment = reference_result
        table = result.rows
        chunks = [chunk for _hash, chunk in _replay(table, chunk_rows)]
        full, tail = divmod(table.count, chunk_rows)
        assert ([chunk.count for chunk in chunks]
                == [chunk_rows] * full + ([tail] if tail else []))
        for name in ARRAY_COLUMNS:
            expected = np.ascontiguousarray(getattr(table, name))
            joined = np.concatenate([getattr(chunk, name)
                                     for chunk in chunks])
            assert joined.dtype == expected.dtype, name
            assert joined.tobytes() == expected.tobytes(), name
        assert ([error for chunk in chunks for error in errors(chunk)]
                == errors(table))

    def test_sealed_chunks_survive_packed_round_trip(self,
                                                     reference_result):
        """Each sealed chunk's whole-table summary, pickled as a worker
        ships it, keeps the chunk's hash at fold time and answers as the
        chunk's rows do."""
        result, _deployment = reference_result
        folded = _replay(result.rows, chunk_rows=256)
        assert sum(chunk.count for _hash, chunk in folded) == (
            result.rows.count)
        for fold_hash, chunk in folded:
            wire = pickle.dumps(OutcomeSummary.of_table(chunk))
            rebuilt = pickle.loads(wire)
            assert rebuilt.column_hash() == fold_hash
            _assert_reads_like_table(rebuilt, chunk)

    def test_commit_after_fold_is_a_hard_error(self):
        recorder = ChunkedOutcomeRecorder(chunk_rows=4, seal_lag_s=0.0)
        columns = recorder.columns
        rows = [recorder.register(index, 0, float(index))
                for index in range(8)]
        for row in rows:
            columns.completion_time[row] = columns.send_time[row] + 100.0
            columns.success[row] = True
            recorder.commit(row)
        # Both chunks full+committed and aged past the (zero) lag: folded.
        assert recorder.summary.chunks_folded >= 1
        late = rows[0]
        with pytest.raises(RuntimeError, match="folded"):
            recorder.commit(late)


class TestStreamingReductions:
    @pytest.fixture(scope="class")
    def pair(self, tiny_w40):
        """The same cell through the preallocated and streaming paths."""
        from repro.core.planner import Planner
        deployment = Planner().plan("aws", "mobilenet", "tf1.15",
                                    "serverless")
        full = ServingBenchmark(seed=SEED).run(deployment, tiny_w40)
        streamed = ServingBenchmark(seed=SEED, streaming_threshold=0,
                                    chunk_rows=128).run(deployment,
                                                        tiny_w40)
        return full, streamed

    def test_streaming_flag_and_summary_type(self, pair):
        full, streamed = pair
        assert not full.streaming
        assert streamed.streaming
        assert isinstance(streamed.table, OutcomeSummary)

    def test_exact_reductions_match(self, pair):
        full, streamed = pair
        summary = streamed.table
        table = full.table
        assert summary.count == table.count
        assert streamed.success_ratio == full.success_ratio
        assert streamed.cold_start_ratio == full.cold_start_ratio
        assert summary.attempts_mean() == table.attempts_mean()
        assert summary.degraded_ratio() == table.degraded_ratio()

    def test_latency_within_sketch_resolution(self, pair):
        full, streamed = pair
        assert streamed.average_latency == pytest.approx(
            full.average_latency, rel=1e-9)
        sketch_stats = streamed.latency_stats()
        exact_stats = full.latency_stats()
        for name in ("p50", "p99"):
            assert getattr(sketch_stats, name) == pytest.approx(
                getattr(exact_stats, name), rel=0.02)
        assert abs(streamed.table.slo_attainment(1.0)
                   - full.table.slo_attainment(1.0)) <= 0.01

    def test_timeline_and_availability_exact(self, pair):
        full, streamed = pair
        edges, requests, successes = streamed.table.success_timeline(10.0)
        ref_edges, ref_requests, ref_successes = (
            full.table.success_timeline(10.0))
        # The streaming timeline spans the folded range, which may pad
        # past the reference's last bin; the shared prefix is exact.
        n = len(ref_requests)
        assert np.array_equal(edges[:n + 1], ref_edges[:n + 1])
        assert np.array_equal(requests[:n], ref_requests[:n])
        assert np.array_equal(successes[:n], ref_successes[:n])
        assert int(requests.sum()) == int(ref_requests.sum())
        assert int(successes.sum()) == int(ref_successes.sum())

    def test_non_integer_multiple_bin_rejected(self, pair):
        _full, streamed = pair
        with pytest.raises(ValueError):
            streamed.table.success_timeline(1.5)

    def test_row_reductions_reject_a_streamed_result(self, pair):
        from repro.core.analyzer import Analyzer
        from repro.experiments.base import breakdown_metrics
        _full, streamed = pair
        analyzer = Analyzer()
        for reduction, name in ((analyzer.latency_timeline,
                                 "latency_timeline"),
                                (analyzer.coldstart_breakdown,
                                 "coldstart_breakdown"),
                                (breakdown_metrics, "coldstart_breakdown")):
            with pytest.raises(ValueError,
                               match=f"{name} .*only an OutcomeSummary"):
                reduction(streamed)

    def test_mid_run_sealing_bounds_residency(self):
        rows = 128 * 36
        recorder = ChunkedOutcomeRecorder(chunk_rows=128, seal_lag_s=20.0)
        columns = recorder.columns
        for index in range(rows):
            send = index * 0.5  # one chunk spans 64 s >> the 20 s lag
            row = recorder.register(index, 0, send)
            columns.completion_time[row] = send + 0.05
            columns.success[row] = True
            recorder.commit(row)
        summary = recorder.finalize(rows * 0.5 + 1.0)
        assert summary.count == rows
        assert summary.chunks_folded == 36
        # Chunks recycled mid-run: residency stayed far under the total.
        assert recorder.peak_resident_chunks <= 4

    def test_transport_round_trip_preserves_digest(self, pair, tiny_w40):
        _full, streamed = pair
        rebuilt = pickle.loads(pickle.dumps(replace(streamed,
                                                    deployment=None)))
        assert rebuilt.streaming
        assert rebuilt.table.digest() == streamed.table.digest()
        assert rebuilt.success_ratio == streamed.success_ratio


class TestLatencySketch:
    def test_quantiles_within_bin_resolution(self):
        rng = np.random.default_rng(3)
        values = rng.lognormal(mean=-2.0, sigma=0.8, size=20_000)
        sketch = LatencySketch()
        sketch.add(values)
        for q in (50.0, 90.0, 99.0):
            assert sketch.quantile(q) == pytest.approx(
                float(np.percentile(values, q)), rel=0.01)
        assert sketch.mean == pytest.approx(float(values.mean()), rel=1e-9)
        assert sketch.std == pytest.approx(float(values.std()), rel=1e-6)

    def test_extremes_clamped_to_observed_range(self):
        sketch = LatencySketch()
        sketch.add(np.array([0.5]))
        assert sketch.quantile(0.0) == 0.5
        assert sketch.quantile(100.0) == 0.5


class TestWorkerTransport:
    def test_round_trip_is_bit_identical(self, reference_result, tiny_w40):
        """A result pickled as a worker ships it (without its deployment)
        keeps its summary's arrays bit for bit, and the rebuilt summary
        answers as the table's rows do: on the serverless cell (cold
        starts) and a managed cell that fails requests."""
        from repro.core.planner import Planner
        managed = Planner().plan("aws", "mobilenet", "tf1.15", "managed_ml")
        failing = ServingBenchmark(seed=SEED).run(managed, tiny_w40)
        assert failing.success_ratio < 1.0     # failed sends cross too
        for result in (reference_result[0], failing):
            table = result.rows
            wire = pickle.dumps(replace(result, rows=None, deployment=None))
            rebuilt = pickle.loads(wire).table
            _assert_same_summary(rebuilt, OutcomeSummary.of_table(table))
            _assert_reads_like_table(rebuilt, table)

    def test_worker_pool_matches_serial(self, tiny_w40):
        """Pooled cells return the serial summaries, array for array."""
        from repro.core.planner import Planner
        planner = Planner()
        deployments = [planner.plan("aws", "mobilenet", "tf1.15", platform)
                       for platform in ("serverless", "cpu_server")]
        bench = ServingBenchmark(seed=SEED)
        cells = [(deployment, tiny_w40, 1.0, None)
                 for deployment in deployments]
        serial = run_cells(bench, cells, workers=0, reads=READS)
        pooled = run_cells(bench, cells, workers=2, reads=READS)
        for left, right in zip(serial, pooled):
            _assert_same_summary(right.table, left.table)

    def test_streamed_and_whole_table_cells_cross_the_pool(self, tiny_w40):
        """A streamed cell, whose summary keeps a timeline as long as its
        trace, and a whole-table cell come back from the pool as they
        run in-process, each holding the deployment the parent passed
        in.  A streamed workload always streams, so one benchmark runs
        both kinds in one pooled batch."""
        from repro.core.planner import Planner
        planner = Planner()
        streamed = StreamedWorkload(spec=workload_spec("w-40").compressed(
            0.05), seed=SEED)
        cells = [(planner.plan("aws", "mobilenet", "tf1.15", "serverless"),
                  streamed, 1.0, None),
                 (planner.plan("aws", "mobilenet", "tf1.15", "cpu_server"),
                  tiny_w40, 1.0, None)]
        bench = ServingBenchmark(seed=SEED, chunk_rows=128)
        serial = run_cells(bench, cells, workers=0, reads=READS)
        pooled = run_cells(bench, cells, workers=2, reads=READS)
        assert [result.streaming for result in pooled] == [True, False]
        assert pooled[0].table.chunks_folded > 1
        assert pooled[0].table.digest() == serial[0].table.digest()
        assert (pooled[1].table.column_hash()
                == serial[1].table.column_hash())
        for cell, left, right in zip(cells, serial, pooled):
            assert right.deployment is cell[0]
            assert right.cost == left.cost
            np.testing.assert_equal(astuple(right.latency_stats()),
                                    astuple(left.latency_stats()))
            for bin_s in TIMELINE_BINS_S:
                np.testing.assert_equal(right.table.success_timeline(bin_s),
                                        left.table.success_timeline(bin_s))

    def test_worker_crash_keeps_finished_cells(self, monkeypatch, tiny_w40):
        """A worker dying mid-batch: the cells other workers finished are
        kept, only the unfinished cells rerun in-process with one
        warning, and the results equal the serial run."""
        import os
        import time

        from repro.core.planner import Planner

        planner = Planner()
        deployments = [planner.plan("aws", "mobilenet", "tf1.15", platform)
                       for platform in ("serverless", "cpu_server",
                                        "managed_ml", "gpu_server")]
        bench = ServingBenchmark(seed=SEED)
        cells = [(deployment, tiny_w40, 1.0, None)
                 for deployment in deployments]
        serial = run_cells(bench, cells, workers=0, reads=READS)

        # Patch the class, not the pool function: forked workers inherit
        # it, and a closure could not be pickled as the task.
        parent = os.getpid()
        run = ServingBenchmark.run

        def crash_managed_cell_in_worker(self, deployment, *args, **kwargs):
            if (os.getpid() != parent
                    and deployment.config.platform == "managed_ml"):
                time.sleep(0.5)  # let the other cells finish first
                os._exit(1)
            return run(self, deployment, *args, **kwargs)

        monkeypatch.setattr(ServingBenchmark, "run",
                            crash_managed_cell_in_worker)
        # The crashing worker sent back the cell it ran before, so at
        # least that one is kept.
        with pytest.warns(RuntimeWarning) as caught:
            pooled = run_cells(bench, cells, workers=2, reads=READS)
        reruns = [str(warning.message) for warning in caught
                  if issubclass(warning.category, RuntimeWarning)]
        assert len(reruns) == 1
        assert re.search("running [123] of 4 cells serially", reruns[0])
        for left, right in zip(serial, pooled):
            _assert_same_summary(right.table, left.table)
            assert left.cost == right.cost


class TestStreamedWorkload:
    def test_small_spec_matches_materialised_exactly(self):
        spec = workload_spec("w-40").compressed(0.3)
        materialised = generate_workload(spec, seed=SEED)
        session = StreamedWorkload(spec=spec, seed=SEED).open()
        for reference, streamed in zip(materialised.client_traces,
                                       session.client_traces):
            assert len(reference) == len(streamed)
            assert list(reference.times) == list(streamed)

    def test_oversized_intervals_keep_exact_counts(self):
        spec = WorkloadSpec(name="big", high_rate=400.0, low_rate=50.0,
                            target_requests=3 * PIECE_ARRIVALS,
                            duration_s=900.0)
        session = StreamedWorkload(spec=spec, seed=SEED).open()
        counts = [sum(1 for _ in trace) for trace in session.client_traces]
        assert sum(counts) == spec.target_requests

    def test_registered_scale_family(self):
        for name, total in (("w-1m", 1_000_000), ("w-10m", 10_000_000)):
            spec = workload_spec(name)
            assert spec.streamed and spec.family == "scale"
            assert spec.target_requests == total
            workload = standard_workload(name, seed=SEED)
            assert isinstance(workload, StreamedWorkload)
            assert workload.count == total

    def test_listing_groups_scale_family(self, capsys):
        from repro.experiments.runner import _print_listing
        _print_listing()
        output = capsys.readouterr().out
        assert "[scale]" in output
        scale_block = output.split("[scale]", 1)[1]
        assert "w-1m" in scale_block and "w-10m" in scale_block

    def test_streamed_cell_runs_end_to_end(self):
        from repro.core.planner import Planner
        deployment = Planner().plan("aws", "mobilenet", "tf1.15",
                                    "serverless")
        workload = standard_workload("w-1m", seed=SEED, scale=0.01)
        result = ServingBenchmark(seed=SEED).run(deployment, workload,
                                                 workload_scale=0.01)
        assert result.streaming
        assert result.total_requests == 10_000
        assert result.success_ratio > 0.5


class TestExactCapacity:
    def test_capacity_is_not_padded(self):
        for capacity in (0, 1, 7, 100):
            recorder = OutcomeRecorder(capacity)
            assert recorder.columns.rows == capacity
