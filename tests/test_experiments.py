"""Tests for the experiment modules and the CLI runner.

The experiments are exercised at a very small workload scale so that the
whole file stays fast; the full-scale reproduction is exercised by the
benchmark harness under ``benchmarks/``.
"""

import pytest

from repro.core.benchmark import ServingBenchmark
from repro.core.scenario import ScenarioSpec
from repro.experiments import ExperimentContext, list_experiments, run_experiment
from repro.experiments.base import EXPERIMENTS, format_table
from repro.experiments.runner import build_parser, main, run_selected


@pytest.fixture(scope="module")
def tiny_context():
    """One shared, aggressively compressed context for all experiment tests."""
    return ExperimentContext(seed=3, scale=0.04, providers=("aws",))


def _spy_on_runs(monkeypatch) -> list:
    """Count simulations: the returned list gains the deployment of
    every ``ServingBenchmark.run`` call."""
    calls = []
    run = ServingBenchmark.run

    def counting(self, deployment, *args, **kwargs):
        calls.append(deployment)
        return run(self, deployment, *args, **kwargs)

    monkeypatch.setattr(ServingBenchmark, "run", counting)
    return calls


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {"fig04", "fig05", "fig06", "fig07", "fig08", "fig09",
                    "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
                    "fig16", "fig17", "table1", "table2", "chaos",
                    "failover", "hybrid", "navigator"}
        assert set(list_experiments()) == expected

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_modules_importable_and_expose_run(self):
        import importlib
        for module_name in EXPERIMENTS.values():
            module = importlib.import_module(module_name)
            assert callable(module.run)
            assert module.EXPERIMENT_ID in EXPERIMENTS


class TestContext:
    def test_scale_validation(self):
        with pytest.raises(ValueError):
            ExperimentContext(scale=0.0)
        with pytest.raises(ValueError):
            ExperimentContext(scale=1.5)

    def test_workload_cache(self, tiny_context):
        first = tiny_context.workload("w-40")
        second = tiny_context.workload("w-40")
        assert first is second

    def test_run_cache(self, tiny_context):
        spec = ScenarioSpec(name="", provider="aws", model="mobilenet",
                            runtime="ort1.4", platform="serverless",
                            workload="w-40")
        first = tiny_context.run_scenario(spec)
        second = tiny_context.run_scenario(spec)
        assert first is second

    def test_run_specs_dedups_by_cell_key_in_spec_order(self, tiny_context):
        base = ScenarioSpec(name="a", provider="aws", model="mobilenet",
                            workload="w-40")
        renamed = base.with_seed(None, name="b")  # same cell_key
        larger = base.with_config(memory_gb=4.0)
        results = tiny_context.run_specs([base, larger, renamed])
        assert results[0] is results[2]
        assert results[1] is not results[0]
        assert results[1].deployment.config.memory_gb == 4.0
        assert tiny_context.run_specs([larger])[0] is results[1]

    def test_default_valued_overrides_simulate_once(self, monkeypatch):
        """Specs that differ only by overrides set to their planned
        defaults resolve to one cell and simulate once; a knob moved off
        its default simulates again."""
        calls = _spy_on_runs(monkeypatch)
        context = ExperimentContext(seed=3, scale=0.04, providers=("aws",))
        base = ScenarioSpec(name="a", provider="aws", model="mobilenet",
                            workload="w-40")
        explicit = base.with_config(memory_gb=2.0, extra_container_mb=0.0,
                                    samples_per_request=1)
        assert explicit.cell_key != base.cell_key
        results = context.run_specs([base, explicit])
        assert results[0] is results[1]
        assert len(calls) == 1
        moved = context.run_scenario(base.with_config(memory_gb=4.0))
        assert moved.deployment.config.memory_gb == 4.0
        assert len(calls) == len(context._runs) == 2

    def test_fig12_simulates_each_resolved_cell_once(self, monkeypatch):
        """fig12's 64 cells resolve to 54: the default-valued point of
        each panel's knob (no extra container or download, one sample,
        one inference) is one cell per provider and model."""
        from repro.experiments.fig12_microbenchmarks import STUDY
        calls = _spy_on_runs(monkeypatch)
        context = ExperimentContext(seed=3, scale=0.01)
        frame = STUDY.run(context)
        assert len(list(frame.iter_rows())) == 64
        assert len(calls) == len(context._runs) == 54


class TestSelectedExperiments:
    def test_fig04_reports_three_workloads(self, tiny_context):
        result = run_experiment("fig04", tiny_context)
        assert {row["workload"] for row in result.rows} == {"w-40", "w-120",
                                                            "w-200"}
        assert set(result.series) == {"w-40", "w-120", "w-200"}
        # Rates keep the paper's ordering even at a compressed scale.
        rates = {row["workload"]: row["mean_rate"] for row in result.rows}
        assert rates["w-40"] < rates["w-120"] < rates["w-200"]

    def test_fig10_breakdown_rows(self, tiny_context):
        result = run_experiment("fig10", tiny_context)
        assert len(result.rows) == 2  # aws x {mobilenet, albert}
        for row in result.rows:
            assert row["E2E (cs)"] > row["E2E (wu)"]
            assert row["import"] > 0

    def test_fig14_ort_cuts_cold_start(self, tiny_context):
        result = run_experiment("fig14", tiny_context)
        by_runtime = {row["runtime"]: row for row in result.rows}
        assert by_runtime["ort1.4"]["E2E (cs)"] < by_runtime["tf1.15"]["E2E (cs)"]

    def test_fig15_memory_rows(self, tiny_context):
        result = run_experiment("fig15", tiny_context)
        mobilenet_tf = [row for row in result.rows
                        if row["model"] == "mobilenet" and row["runtime"] == "tf1.15"]
        assert [row["memory_gb"] for row in mobilenet_tf] == [2.0, 4.0, 6.0, 8.0]

    def test_fig17_batching_increases_latency(self, tiny_context):
        result = run_experiment("fig17", tiny_context)
        vgg_tf = {row["batch_size"]: row for row in result.rows
                  if row["model"] == "vgg" and row["runtime"] == "tf1.15"}
        assert vgg_tf[8]["avg_latency_s"] > vgg_tf[1]["avg_latency_s"]

    def test_experiment_result_rendering(self, tiny_context):
        result = run_experiment("fig04", tiny_context)
        text = result.to_text()
        assert "fig04" in text and "w-200" in text

    def test_format_table_handles_missing_keys(self):
        text = format_table([{"a": 1}, {"b": 2.5}])
        assert "a" in text and "b" in text
        assert format_table([]) == "(no rows)"


class TestRunnerCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["fig04"])
        assert args.experiments == ["fig04"]
        assert args.scale == 0.2

    def test_list_mode(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig05" in out

    def test_run_selected_records_elapsed(self, tiny_context):
        results = run_selected(["fig04"], tiny_context)
        assert results[0].notes["elapsed_s"] >= 0

    def test_main_runs_and_writes_output(self, tmp_path, capsys):
        output = tmp_path / "report.txt"
        code = main(["fig04", "--scale", "0.04", "--providers", "aws",
                     "--output", str(output)])
        assert code == 0
        assert output.exists()
        assert "fig04" in output.read_text()

    def test_main_rejects_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig99"])
        # An out-of-range --scale is a one-line usage error as well.
        for scale in ("0", "-1", "1.5"):
            with pytest.raises(SystemExit):
                main(["fig05", "--scale", scale])
            assert "--scale must be in (0, 1]" in capsys.readouterr().err
