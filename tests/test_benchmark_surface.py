"""The end-to-end benchmark's read surface over run results.

``perfbench/`` checks every cell it runs with ``workloads.cell_digest``
and the sanity reads of ``run.Checker``, and under ``--trace 1`` counts
work with ``run._output_counts``.  All of them read the public result
API: ``streaming``, ``table.digest()`` or ``table.column_hash()``,
``total_requests``, ``success_ratio``, ``cost``,
``table.attempts_mean()`` and ``table.spill_ratio()``.  These tests
import those functions from ``perfbench/`` as they are and feed them the
three kinds of result the benchmark meets: a result with rows
(``ServingBenchmark.run``), a streamed result, and a run-cache result.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.api import run
from repro.core.benchmark import ServingBenchmark
from repro.core.planner import Planner
from repro.core.scenario import get_scenario
from repro.experiments.base import ExperimentContext
from repro.serving.records import SERVED_BY_SPILL

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

SEED = 5

#: The run-cache cell: a hybrid scenario, so the spill count is read.
CACHED_SCENARIO = "hybrid-burst"
CACHED_SCALE = 0.05


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's ``run`` module, imported from its own directory (it
    imports ``workloads`` as a top-level module)."""
    saved = list(sys.path)
    sys.path.insert(0, str(PERFBENCH))
    try:
        import run as module
    finally:
        sys.path[:] = saved
    return module


@pytest.fixture(scope="module")
def results(tiny_w40):
    """A result with rows and a streamed result of one retried cell, and
    a run-cache result with its uncached twin (which keeps rows)."""
    deployment = Planner().plan("aws", "mobilenet", "tf1.15", "serverless",
                                request_error_rate=0.1, retry_attempts=3)
    spec = get_scenario(CACHED_SCENARIO)
    return {
        "rows": ServingBenchmark(seed=SEED).run(deployment, tiny_w40),
        "streamed": ServingBenchmark(
            seed=SEED, streaming_threshold=0,
            chunk_rows=128).run(deployment, tiny_w40),
        "cached": ExperimentContext(
            seed=SEED, scale=CACHED_SCALE).run_scenario(spec),
        "uncached": run(spec, seed=SEED, scale=CACHED_SCALE),
    }


def _cells(results):
    return [(kind, results[kind]) for kind in ("rows", "streamed", "cached")]


class TestPerfbenchReadSurface:
    def test_result_kinds(self, results):
        assert results["rows"].rows is not None
        assert not results["rows"].streaming
        assert results["streamed"].rows is None
        assert results["streamed"].streaming
        assert results["cached"].rows is None
        assert not results["cached"].streaming

    def test_cell_digest_reads_each_kind(self, perfbench, results):
        cell_digest = perfbench.cell_digest
        assert (cell_digest(results["rows"])
                == results["rows"].rows.column_hash())
        streamed = results["streamed"]
        assert cell_digest(streamed) == streamed.table.digest() != ""
        assert (cell_digest(results["cached"])
                == results["uncached"].rows.column_hash())

    def test_checker_passes_each_kind(self, perfbench, results, capsys):
        checker = perfbench.Checker(None)
        checker.check(_cells(results))
        checker.check(_cells(results))      # a repetition reproduces
        assert (checker.attempted, checker.failed) == (6, 0)
        assert capsys.readouterr().err == ""

    def test_output_counts_read_each_kind(self, perfbench, results):
        counts = perfbench._output_counts(_cells(results))
        rows = results["rows"].rows
        streamed = results["streamed"]
        uncached = results["uncached"].rows
        assert counts["requests"] == (rows.count + streamed.total_requests
                                      + uncached.count)
        assert counts["events"] == sum(
            result.metadata["events_processed"]
            for _kind, result in _cells(results))
        assert counts["chunks_folded"] == streamed.metadata["chunks_folded"]
        assert counts["chunks_folded"] > 0
        assert counts["attempts"] == pytest.approx(
            int(rows.attempts.sum()) + streamed.table.attempts_total
            + int(uncached.attempts.sum()))
        assert counts["attempts"] > counts["requests"]
        spilled = int((uncached.served_by == SERVED_BY_SPILL).sum())
        assert spilled > 0
        assert counts["spilled"] == pytest.approx(spilled)
