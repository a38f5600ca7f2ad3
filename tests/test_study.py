"""Tests for the study layer: Sweep grids, ResultFrame, Study execution.

Four layers of guarantees:

* **Grid expansion** — axis ordering, zipped axes, override collisions,
  ``cell_key`` uniqueness: the flat unit-of-work list is exactly the
  declared product, in the declared order.
* **Frame algebra** — select / where / pivot / to_rows / to_csv over
  synthetic rows, independent of any simulation.
* **Reduction equivalence** — on the 14-cell golden matrix (the same
  cells ``tests/data/golden_hashes.json`` gates), every ResultFrame
  column equals the corresponding per-cell :class:`RunResult` metric,
  and the outcome-column hashes stay bit-identical through the frame
  path.
* **Execution** — Study.run uses the shared context cache, filters by
  provider, attaches named series, and the ``repro.api`` facade and CLI
  expose it all.
"""

import json
import os

import pytest

from repro.api import run, run_study
from repro.core.benchmark import ServingBenchmark
from repro.core.planner import Planner
from repro.core.scenario import ScenarioSpec, get_scenario
from repro.core.study import (
    ResultFrame,
    Study,
    Sweep,
    get_study,
    list_studies,
    register_study,
)
from repro.experiments.base import (
    ExperimentContext,
    instance_series,
    load_registered_studies,
)
from repro.workload.generator import standard_workload

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "golden_hashes.json")

with open(GOLDEN_PATH, "r", encoding="utf-8") as _handle:
    GOLDEN = json.load(_handle)


def _base(**overrides) -> ScenarioSpec:
    defaults = dict(name="t", provider="aws", model="mobilenet")
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


# ---------------------------------------------------------------------------
# Sweep grid expansion
# ---------------------------------------------------------------------------

class TestSweepExpansion:
    def test_axis_ordering_first_axis_outermost(self):
        sweep = Sweep(name="s", base=_base(),
                      axes={"runtime": ("tf1.15", "ort1.4"),
                            "memory_gb": (2.0, 4.0)})
        labels = [(c.labels["runtime"], c.labels["memory_gb"])
                  for c in sweep.cells()]
        assert labels == [("tf1.15", 2.0), ("tf1.15", 4.0),
                          ("ort1.4", 2.0), ("ort1.4", 4.0)]
        assert len(sweep) == 4
        assert sweep.axis_names == ("runtime", "memory_gb")

    def test_spec_axes_set_fields_config_axes_set_overrides(self):
        sweep = Sweep(name="s", base=_base(),
                      axes={"provider": ("aws", "gcp"),
                            "batch_size": (1, 2)})
        cells = sweep.cells()
        assert cells[0].spec.provider == "aws"
        assert cells[0].spec.overrides == {"batch_size": 1}
        assert cells[-1].spec.provider == "gcp"
        assert cells[-1].spec.overrides == {"batch_size": 2}

    def test_zipped_axis_moves_dimensions_together(self):
        sweep = Sweep(name="s", base=_base(),
                      axes={"provider,model": (("aws", "vgg"),
                                               ("gcp", "albert")),
                            "workload": ("w-40",)})
        cells = sweep.cells()
        assert len(cells) == 2
        assert (cells[0].spec.provider, cells[0].spec.model) == ("aws", "vgg")
        assert (cells[1].spec.provider, cells[1].spec.model) == ("gcp",
                                                                 "albert")
        assert sweep.axis_names == ("provider", "model", "workload")

    def test_zipped_axis_arity_checked(self):
        with pytest.raises(ValueError, match="2-tuples"):
            Sweep(name="s", base=_base(),
                  axes={"provider,model": ("aws",)})

    def test_constants_label_every_cell(self):
        sweep = Sweep(name="s", base=_base(), axes={"batch_size": (1, 2)},
                      constants={"panel": "12c"})
        assert all(c.labels["panel"] == "12c" for c in sweep.cells())
        assert sweep.axis_names[0] == "panel"

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep axis"):
            Sweep(name="s", base=_base(), axes={"frobnicate": (1,)})

    def test_duplicate_axis_rejected(self):
        with pytest.raises(ValueError, match="more than once"):
            Sweep(name="s", base=_base(),
                  axes={"provider": ("aws",),
                        "provider,model": (("gcp", "vgg"),)})

    def test_override_collision_with_base_rejected(self):
        with pytest.raises(ValueError, match="collides"):
            Sweep(name="s", base=_base(config={"memory_gb": 8.0}),
                  axes={"memory_gb": (2.0, 4.0)})

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            Sweep(name="s", base=_base(), axes={"memory_gb": ()})

    def test_cell_keys_unique_across_grid(self):
        sweep = Sweep(name="s", base=_base(),
                      axes={"provider": ("aws", "gcp"),
                            "runtime": ("tf1.15", "ort1.4"),
                            "memory_gb": (2.0, 4.0, 8.0)})
        keys = [c.spec.cell_key for c in sweep.cells()]
        assert len(keys) == len(set(keys)) == 12

    def test_duplicate_cell_key_rejected(self):
        # Two identical values on one axis expand to the same cell.
        with pytest.raises(ValueError, match="duplicate cell"):
            Sweep(name="s", base=_base(),
                  axes={"memory_gb": (2.0, 2.0)}).cells()

    def test_cell_spec_names_are_unique_and_identifiable(self):
        sweep = Sweep(name="nav", base=_base(),
                      axes={"runtime": ("tf1.15", "ort1.4"),
                            "memory_gb": (2.0, 4.0)})
        names = [c.spec.name for c in sweep.cells()]
        assert names[0] == "nav/tf1.15/2.0"
        assert len(set(names)) == 4  # rows / CSV exports stay identifiable
        # ...without splitting the run cache (cell_key ignores the name).
        assert "nav" not in sweep.cells()[0].spec.cell_key

    def test_from_specs_wraps_the_scenario_library(self):
        sweep = Sweep.from_specs("lib", [get_scenario("burst-storm"),
                                         get_scenario("eager-managed")])
        cells = sweep.cells()
        assert len(sweep) == len(cells) == 2
        assert cells[0].labels == {"scenario": "burst-storm"}
        assert cells[1].spec.workload == "w-120"
        # The explicit list is a declared field, not a hidden attribute.
        assert sweep.explicit_cells == tuple(cells)
        with pytest.raises(ValueError, match="not both"):
            Sweep(name="bad", base=_base(), axes={"memory_gb": (2.0,)},
                  explicit_cells=sweep.explicit_cells)

    def test_base_config_carries_into_every_cell(self):
        sweep = Sweep(name="s", base=_base(config={"batch_size": 4}),
                      axes={"memory_gb": (2.0, 4.0)})
        for cell in sweep.cells():
            assert cell.spec.overrides["batch_size"] == 4


# ---------------------------------------------------------------------------
# ResultFrame algebra (synthetic rows, no simulation)
# ---------------------------------------------------------------------------

class TestResultFrameAlgebra:
    @pytest.fixture
    def frame(self):
        return ResultFrame.from_rows([
            {"model": "mobilenet", "runtime": "tf1.15", "cost": 1.0},
            {"model": "mobilenet", "runtime": "ort1.4", "cost": 0.5},
            {"model": "vgg", "runtime": "tf1.15", "cost": 4.0},
            {"model": "vgg", "runtime": "ort1.4", "cost": 3.0},
        ], name="demo")

    def test_shape_and_columns(self, frame):
        assert len(frame) == 4
        assert frame.columns == ["model", "runtime", "cost"]
        assert list(frame["cost"]) == [1.0, 0.5, 4.0, 3.0]

    def test_select(self, frame):
        sub = frame.select("model", "cost")
        assert sub.columns == ["model", "cost"]
        with pytest.raises(KeyError):
            frame.select("nope")

    def test_where_equals_and_predicate(self, frame):
        assert len(frame.where(model="vgg")) == 2
        cheap = frame.where(lambda row: row["cost"] < 1.0)
        assert len(cheap) == 1 and cheap.row(0)["runtime"] == "ort1.4"
        assert len(frame.where(model="vgg", runtime="ort1.4")) == 1
        with pytest.raises(KeyError):
            frame.where(nope=1)

    def test_pivot_single_value(self, frame):
        wide = frame.pivot(index="model", columns="runtime", values="cost",
                           fmt="{}_usd")
        assert wide.columns == ["model", "tf1.15_usd", "ort1.4_usd"]
        assert wide.to_rows() == [
            {"model": "mobilenet", "tf1.15_usd": 1.0, "ort1.4_usd": 0.5},
            {"model": "vgg", "tf1.15_usd": 4.0, "ort1.4_usd": 3.0},
        ]

    def test_pivot_missing_cells_are_none(self):
        frame = ResultFrame.from_rows([
            {"model": "vgg", "runtime": "tf1.15", "cost": 4.0},
        ])
        wide = frame.pivot(index="model", columns="runtime", values="cost")
        assert wide.to_rows() == [{"model": "vgg", "tf1.15": 4.0}]

    def test_to_rows_rounding_and_column_order(self, frame):
        rows = frame.to_rows(columns=("cost", "model"), round_floats=0)
        assert rows[0] == {"cost": 1.0, "model": "mobilenet"}
        assert list(rows[0]) == ["cost", "model"]

    def test_to_csv_roundtrip(self, frame, tmp_path):
        path = tmp_path / "frame.csv"
        text = frame.to_csv(str(path))
        assert path.read_text() == text
        lines = text.strip().splitlines()
        assert lines[0] == "model,runtime,cost"
        assert len(lines) == 5

    def test_with_column_appends_and_validates(self, frame):
        tagged = frame.with_column("cheap", [c < 2.0 for c in frame["cost"]])
        assert list(tagged["cheap"]) == [True, True, False, False]
        assert "cheap" not in frame.columns  # original untouched
        with pytest.raises(ValueError):
            frame.with_column("bad", [1])

    def test_mismatched_column_lengths_rejected(self):
        with pytest.raises(ValueError):
            ResultFrame({"a": [1, 2], "b": [1]})

    def test_empty_frame_survives_the_relational_verbs(self):
        """A zero-cell study must render '(no rows)', not crash.

        Empty frames have no columns at all (the column union over zero
        rows), so select/where/pivot degrade gracefully instead of
        raising KeyError in the presentation shims.
        """
        empty = ResultFrame.from_rows([])
        assert len(empty) == 0 and empty.columns == []
        assert empty.select("provider", "cost_usd").to_rows() == []
        assert empty.to_rows(columns=("provider",), round_floats=4) == []
        assert len(empty.where(provider="aws")) == 0
        wide = empty.pivot(index=("provider", "model"), columns="workload",
                           values="cost_usd")
        assert wide.to_rows() == []
        assert empty.to_text() == "(no rows)"

    def test_series_attach_and_carry(self, frame):
        frame.add_series("timeline", [{"t": 0.0, "v": 1.0}])
        assert frame.select("model").series["timeline"][0]["v"] == 1.0

    def test_to_text_renders(self, frame):
        text = frame.to_text()
        assert "mobilenet" in text and "cost" in text


# ---------------------------------------------------------------------------
# Reduction equivalence on the 14-cell golden matrix
# ---------------------------------------------------------------------------

def _golden_spec(key: str) -> ScenarioSpec:
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
    return ScenarioSpec(name=key, provider=provider, model=model,
                        runtime=runtime, platform=platform,
                        workload=workload_key, config=overrides)


class TestGoldenMatrixFrame:
    """The acceptance gate: the frame path reproduces the golden matrix."""

    @pytest.fixture(scope="class")
    def matrix(self):
        """Run the 14 golden cells once; build the frame from the runs."""
        bench = ServingBenchmark(seed=GOLDEN["seed"])
        planner = Planner()
        workloads = {key: standard_workload(entry["name"],
                                            seed=GOLDEN["seed"],
                                            scale=entry["scale"])
                     for key, entry in GOLDEN["workloads"].items()}
        cells = []
        for key in sorted(GOLDEN["cells"]):
            spec = _golden_spec(key)
            result = bench.run(spec.deployment(planner),
                               workloads[spec.workload])
            cells.append((key, spec, result))
        frame = ResultFrame.from_results(
            [({"cell": key}, result) for key, _spec, result in cells],
            name="golden", specs=[spec for _key, spec, _result in cells])
        return cells, frame

    def test_frame_has_one_row_per_cell(self, matrix):
        cells, frame = matrix
        assert len(frame) == len(cells) == len(GOLDEN["cells"]) == 14

    def test_outcome_columns_bit_identical_to_golden(self, matrix):
        cells, _frame = matrix
        for key, _spec, result in cells:
            expected = GOLDEN["cells"][key]
            assert result.table.column_hash() == expected["column_hash"], key
            assert result.cost == expected["cost"], key

    def test_frame_reductions_equal_runresult_metrics(self, matrix):
        cells, frame = matrix
        for index, (key, _spec, result) in enumerate(cells):
            row = frame.row(index)
            assert row["cell"] == key
            assert row["requests"] == result.total_requests, key
            assert row["success_ratio"] == result.success_ratio, key
            assert row["avg_latency_s"] == result.average_latency, key
            assert row["cost_usd"] == result.cost, key
            assert row["cold_start_ratio"] == result.cold_start_ratio, key
            assert row["cold_starts"] == result.usage.cold_starts, key
            assert row["instances_created"] == \
                result.usage.instances_created, key
            assert row["peak_instances"] == result.usage.peak_instances, key
            stats = result.latency_stats()
            assert row["p50_latency_s"] == stats.p50, key
            assert row["p99_latency_s"] == stats.p99, key
            assert row["std_latency_s"] == stats.std, key
            assert row["duration_s"] == result.duration_s, key


# ---------------------------------------------------------------------------
# Study execution
# ---------------------------------------------------------------------------

class TestStudyExecution:
    @pytest.fixture(scope="class")
    def context(self):
        return ExperimentContext(seed=3, scale=0.04, providers=("aws",))

    def test_run_produces_one_row_per_cell(self, context):
        study = Study(name="exec-test", sweeps=Sweep(
            name="exec-test", base=_base(workload="w-40"),
            axes={"runtime": ("tf1.15", "ort1.4")}))
        frame = study.run(context)
        assert len(frame) == 2
        assert list(frame["runtime"]) == ["tf1.15", "ort1.4"]
        assert frame.specs is not None and len(frame.specs) == 2

    def test_cells_share_the_context_cache(self, context):
        study = Study(name="cache-test", sweeps=Sweep(
            name="cache-test", base=_base(workload="w-40"),
            axes={"runtime": ("tf1.15",)}))
        frame = study.run(context)
        direct = context.run_scenario(_base(workload="w-40"))
        assert frame.row(0)["cost_usd"] == direct.cost
        # Re-running the study is pure cache lookups: same values out.
        assert study.run(context).row(0) == frame.row(0)

    def test_provider_filter_drops_foreign_cells(self, context):
        study = Study(name="filter-test", sweeps=Sweep(
            name="filter-test", base=_base(workload="w-40"),
            axes={"provider": ("aws", "gcp")}))
        frame = study.run(context)
        assert list(frame["provider"]) == ["aws"]

    def test_series_templates_attach_per_cell(self, context):
        study = Study(
            name="series-test",
            sweeps=Sweep(name="series-test", base=_base(workload="w-40"),
                         axes={"runtime": ("tf1.15",)}),
            series={"{provider}/{runtime}": instance_series(60.0)})
        frame = study.run(context)
        assert "aws/tf1.15" in frame.series
        assert frame.series["aws/tf1.15"][0]["instances"] >= 0

    def test_metric_mappings_expand_to_columns(self, context):
        study = Study(
            name="metric-test",
            sweeps=Sweep(name="metric-test", base=_base(workload="w-40"),
                         axes={"runtime": ("tf1.15",)}),
            metrics={"extra": lambda r: {"double_cost": 2 * r.cost}})
        frame = study.run(context)
        assert frame.row(0)["double_cost"] == \
            pytest.approx(2 * frame.row(0)["cost_usd"])

    def test_registry_roundtrip(self):
        study = Study(name="reg-test", sweeps=Sweep(
            name="reg-test", base=_base(), axes={"memory_gb": (2.0,)}))
        register_study(study)
        assert get_study("reg-test") is study
        assert "reg-test" in list_studies()
        with pytest.raises(ValueError):
            register_study(Study(name="reg-test", sweeps=study.sweeps))
        with pytest.raises(KeyError):
            get_study("no-such-study")

    def test_experiment_studies_registered_on_load(self):
        names = load_registered_studies()
        for expected in ("fig05", "fig12", "table1"):
            assert expected in names


# ---------------------------------------------------------------------------
# The repro.api facade
# ---------------------------------------------------------------------------

class TestApiFacade:
    def test_run_single_scenario(self):
        result = run(_base(workload="w-40"), seed=3, scale=0.04)
        assert result.total_requests > 0

    def test_run_registered_scenario_by_name(self):
        result = run("burst-storm", seed=3, scale=0.03)
        assert result.workload_name == "w-storm"

    def test_run_study_accepts_a_bare_sweep(self):
        frame = run_study(Sweep(name="api-test", base=_base(workload="w-40"),
                                axes={"runtime": ("tf1.15", "ort1.4")}),
                          seed=3, scale=0.04)
        assert len(frame) == 2
        assert frame.row(0)["cost_usd"] > frame.row(1)["cost_usd"]

    def test_run_study_by_registered_name(self):
        frame = run_study("fig14", seed=3, scale=0.03, providers=("aws",))
        assert list(frame["runtime"]) == ["tf1.15", "ort1.4"]
        assert "E2E (cs)" in frame.columns

    def test_run_study_infers_providers_from_cells(self):
        frame = run_study(Sweep(name="api-prov", base=_base(workload="w-40"),
                                axes={"provider": ("aws",)}),
                          seed=3, scale=0.04)
        assert len(frame) == 1


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------

class TestCliStudySurface:
    def test_list_shows_studies_scenarios_and_workloads(self, capsys):
        from repro.experiments.runner import main
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig05" in out
        assert "burst-storm" in out
        assert "w-storm" in out
        assert "diurnal-scalein" in out

    def test_scenarios_listing_has_descriptions(self, capsys):
        from repro.experiments.runner import main
        assert main(["--scenarios"]) == 0
        out = capsys.readouterr().out
        assert "provisioned-serverless" in out
        assert "cell: aws/mobilenet" in out
        assert "w-diurnal" in out

    def test_unknown_experiment_names_near_misses(self, capsys):
        from repro.experiments.runner import main
        with pytest.raises(SystemExit):
            main(["fig5"])
        err = capsys.readouterr().err
        assert "did you mean" in err and "fig05" in err

    def test_sweep_unknown_name_names_near_misses(self, capsys):
        from repro.experiments.runner import main
        with pytest.raises(SystemExit):
            main(["sweep", "burst-strm"])
        err = capsys.readouterr().err
        assert "burst-storm" in err

    def test_sweep_runs_a_registered_scenario(self, capsys, tmp_path):
        from repro.experiments.runner import main
        csv_path = tmp_path / "sweep.csv"
        code = main(["sweep", "provisioned-serverless", "--scale", "0.04",
                     "--csv", str(csv_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep provisioned-serverless" in out
        header = csv_path.read_text().splitlines()[0]
        assert "cost_usd" in header

    def test_experiment_csv_export(self, capsys, tmp_path):
        from repro.experiments.runner import main
        csv_path = tmp_path / "fig04.csv"
        code = main(["fig04", "--scale", "0.04", "--providers", "aws",
                     "--csv", str(csv_path)])
        assert code == 0
        assert "workload" in csv_path.read_text().splitlines()[0]

    def test_csv_rejects_multiple_targets(self, capsys):
        from repro.experiments.runner import main
        with pytest.raises(SystemExit):
            main(["fig04", "fig05", "--csv", "/tmp/x.csv"])


# ---------------------------------------------------------------------------
# Replication: Sweep(replicates=K) / seeds / the seed axis
# ---------------------------------------------------------------------------

class TestSweepReplication:
    def test_replicates_expand_each_cell_k_times(self):
        sweep = Sweep(name="r", base=_base(),
                      axes={"runtime": ("tf1.15", "ort1.4")}, replicates=3)
        cells = sweep.cells(base_seed=11)
        assert len(sweep) == len(cells) == 6
        assert sweep.axis_names == ("runtime", "replicate", "seed")
        assert [c.labels["replicate"] for c in cells] == [0, 1, 2, 0, 1, 2]
        assert [c.labels["seed"] for c in cells] == [11, 12, 13, 11, 12, 13]
        assert [c.spec.seed for c in cells] == [11, 12, 13, 11, 12, 13]
        # Replicate cells stay distinct (and identifiable) by name + key.
        assert len({c.spec.cell_key for c in cells}) == 6
        assert cells[0].spec.name.endswith("/r0")

    def test_default_base_seed_is_the_project_seed(self):
        sweep = Sweep(name="r", base=_base(), replicates=2)
        assert [c.spec.seed for c in sweep.cells()] == [7, 8]

    def test_explicit_seeds_override_derivation(self):
        sweep = Sweep(name="r", base=_base(), seeds=(101, 205))
        assert sweep.replicates == 2
        assert [c.labels["seed"] for c in sweep.cells(base_seed=11)] \
            == [101, 205]

    def test_seed_axis_pins_spec_seeds(self):
        sweep = Sweep(name="r", base=_base(), axes={"seed": (3, 5, 8)})
        cells = sweep.cells()
        assert [c.spec.seed for c in cells] == [3, 5, 8]
        # The seed is a replication knob, never a ServiceConfig override.
        assert all(c.spec.overrides == {} for c in cells)
        assert sweep.axis_names == ("seed",)

    def test_seed_axis_conflicts_with_replicates(self):
        with pytest.raises(ValueError, match="replication style"):
            Sweep(name="r", base=_base(), axes={"seed": (1, 2)},
                  replicates=2)

    def test_invalid_replication_rejected(self):
        with pytest.raises(ValueError, match="positive integer"):
            Sweep(name="r", base=_base(), replicates=0)
        with pytest.raises(ValueError, match="distinct"):
            Sweep(name="r", base=_base(), seeds=(4, 4))
        with pytest.raises(ValueError, match="disagrees"):
            Sweep(name="r", base=_base(), replicates=3, seeds=(1, 2))

    def test_with_replicates_makes_an_independent_copy(self):
        sweep = Sweep(name="r", base=_base(),
                      axes={"runtime": ("tf1.15",)})
        replicated = sweep.with_replicates(4)
        assert len(sweep) == 1 and len(replicated) == 4
        assert replicated.axes == sweep.axes

    def test_explicit_cells_replicate_too(self):
        sweep = Sweep.from_specs(
            "lib", [get_scenario("burst-storm")]).with_replicates(2)
        cells = sweep.cells(base_seed=5)
        assert len(cells) == 2
        assert [c.labels["seed"] for c in cells] == [5, 6]
        assert cells[0].labels["scenario"] == "burst-storm"

    def test_study_with_replicates_and_run_meta(self):
        context = ExperimentContext(seed=3, scale=0.04, providers=("aws",))
        study = Study(name="rep-exec", sweeps=Sweep(
            name="rep-exec", base=_base(workload="w-40")))
        frame = study.with_replicates(2).run(context)
        assert len(frame) == 2
        assert frame.meta["replicates"] == {"rep-exec": 2}
        assert list(frame["seed"]) == [3, 4]
        # Replicate 0 runs at the context seed: same cell as unreplicated.
        plain = study.run(context)
        assert frame.where(replicate=0).row(0)["cost_usd"] == \
            plain.row(0)["cost_usd"]


# ---------------------------------------------------------------------------
# Constraint hook and deterministic subsampling
# ---------------------------------------------------------------------------

class TestSweepConstraint:
    def test_where_drops_and_reports(self):
        sweep = Sweep(
            name="c", base=_base(),
            axes={"memory_gb": (2.0, 4.0), "batch_size": (1, 4)},
            where=lambda labels: not (labels["memory_gb"] == 2.0
                                      and labels["batch_size"] == 4))
        expansion = sweep.expand()
        assert len(expansion.cells) == 3
        assert len(expansion.dropped) == 1
        assert expansion.dropped[0] == {"memory_gb": 2.0, "batch_size": 4}
        assert len(sweep) == 3

    def test_all_infeasible_raises_instead_of_empty_grid(self):
        sweep = Sweep(name="c", base=_base(),
                      axes={"memory_gb": (2.0, 4.0)},
                      where=lambda labels: False)
        with pytest.raises(ValueError, match="dropped all"):
            sweep.expand()

    def test_predicate_errors_carry_cell_context(self):
        sweep = Sweep(name="c", base=_base(),
                      axes={"memory_gb": (2.0,)},
                      where=lambda labels: labels["no_such_label"])
        with pytest.raises(ValueError, match="constraint on sweep 'c'"):
            sweep.expand()

    def test_non_callable_where_rejected(self):
        with pytest.raises(ValueError, match="callable"):
            Sweep(name="c", base=_base(), where=True)

    def test_constraint_applies_before_replication(self):
        sweep = Sweep(
            name="c", base=_base(), axes={"memory_gb": (2.0, 4.0)},
            where=lambda labels: labels["memory_gb"] > 2.0, replicates=2)
        expansion = sweep.expand()
        assert len(expansion.cells) == 2      # 1 feasible cell x 2 seeds
        assert len(expansion.dropped) == 1    # grid points, not runs

    def test_study_run_reports_constrained_out(self):
        context = ExperimentContext(seed=3, scale=0.04, providers=("aws",))
        study = Study(name="con-exec", sweeps=Sweep(
            name="con-exec", base=_base(workload="w-40"),
            axes={"memory_gb": (2.0, 4.0)},
            where=lambda labels: labels["memory_gb"] < 4.0))
        frame = study.run(context)
        assert len(frame) == 1
        assert frame.meta["constrained_out"] == {"con-exec": 1}


class TestSweepSampling:
    def _grid(self, **kwargs):
        return Sweep(name="s", base=_base(),
                     axes={"memory_gb": (2.0, 4.0, 8.0),
                           "batch_size": (1, 2, 4)}, **kwargs)

    def test_random_sample_is_deterministic(self):
        first = self._grid(sample=4, sample_seed=9).expand()
        second = self._grid(sample=4, sample_seed=9).expand()
        assert [c.spec.cell_key for c in first.cells] == \
            [c.spec.cell_key for c in second.cells]
        assert len(first.cells) == 4
        assert first.sampled_out == 5

    def test_different_sample_seed_changes_the_draw(self):
        draws = {tuple(c.spec.cell_key
                       for c in self._grid(sample=4,
                                           sample_seed=seed).expand().cells)
                 for seed in range(6)}
        assert len(draws) > 1

    def test_sample_larger_than_grid_is_a_noop(self):
        expansion = self._grid(sample=50).expand()
        assert len(expansion.cells) == 9
        assert expansion.sampled_out == 0

    def test_lhs_stratifies_every_axis(self):
        expansion = self._grid(sample=3, sample_method="lhs",
                               sample_seed=2).expand()
        assert len(expansion.cells) == 3
        # 3 samples over 3-value axes: LHS hits each axis value once.
        assert sorted(c.labels["memory_gb"] for c in expansion.cells) == \
            [2.0, 4.0, 8.0]
        assert sorted(c.labels["batch_size"] for c in expansion.cells) == \
            [1, 2, 4]

    def test_lhs_tops_up_after_constraint_holes(self):
        sweep = self._grid(sample=5, sample_method="lhs", sample_seed=2,
                           where=lambda labels: labels["batch_size"] < 4)
        expansion = sweep.expand()
        assert len(expansion.cells) == 5
        assert all(c.labels["batch_size"] < 4 for c in expansion.cells)

    def test_lhs_requires_axes(self):
        explicit = Sweep.from_specs("lib", [get_scenario("burst-storm")])
        with pytest.raises(ValueError, match="lhs"):
            Sweep(name="s", base=_base(),
                  explicit_cells=explicit.explicit_cells,
                  sample=1, sample_method="lhs")

    def test_invalid_sampling_rejected(self):
        with pytest.raises(ValueError, match="sample must be"):
            self._grid(sample=0)
        with pytest.raises(ValueError, match="sample_method"):
            self._grid(sample=2, sample_method="halton")


# ---------------------------------------------------------------------------
# Grouped reductions: group_by / replicate_summary / concat
# ---------------------------------------------------------------------------

class TestGroupedReductions:
    @pytest.fixture()
    def replicated_frame(self):
        rows = []
        for platform, values in (("serverless", (1.0, 2.0, 3.0)),
                                 ("cpu_server", (5.0, 5.0, 5.0))):
            for replicate, value in enumerate(values):
                rows.append({"platform": platform, "replicate": replicate,
                             "seed": 7 + replicate, "latency": value,
                             "note": f"{platform}-{replicate}"})
        return ResultFrame.from_rows(
            rows, name="g", meta={"labels": ["platform", "replicate",
                                             "seed"]})

    def test_group_by_stats_are_exact(self, replicated_frame):
        grouped = replicated_frame.group_by("platform")
        assert list(grouped["platform"]) == ["serverless", "cpu_server"]
        assert list(grouped["replicates"]) == [3, 3]
        assert grouped.row(0)["latency_mean"] == pytest.approx(2.0)
        assert grouped.row(0)["latency_std"] == pytest.approx(1.0)
        assert grouped.row(0)["latency_ci95"] == \
            pytest.approx(1.96 / 3 ** 0.5)
        assert grouped.row(1)["latency_std"] == 0.0
        assert grouped.row(1)["latency_ci95"] == 0.0

    def test_group_by_drops_varying_extras_keeps_constant_ones(self):
        frame = ResultFrame.from_rows([
            {"cell": "a", "runtime": "tf1.15", "x": 1.0, "label": "one"},
            {"cell": "a", "runtime": "tf1.15", "x": 3.0, "label": "two"},
        ])
        grouped = frame.group_by("cell")
        assert "runtime" in grouped.columns      # constant within group
        assert "label" not in grouped.columns    # varies within group
        assert grouped.row(0)["x_mean"] == 2.0

    def test_group_by_singleton_groups_have_zero_spread(self):
        frame = ResultFrame.from_rows([{"cell": "a", "x": 4.5}])
        grouped = frame.group_by("cell")
        assert grouped.row(0) == {"cell": "a", "replicates": 1,
                                  "x_mean": 4.5, "x_std": 0.0,
                                  "x_ci95": 0.0}

    def test_group_by_validates_columns(self, replicated_frame):
        with pytest.raises(KeyError):
            replicated_frame.group_by("no_such")
        with pytest.raises(KeyError):
            replicated_frame.group_by("platform", metrics=("no_such",))
        with pytest.raises(ValueError):
            replicated_frame.group_by()

    def test_replicate_summary_uses_label_metadata(self, replicated_frame):
        summary = replicated_frame.replicate_summary()
        assert len(summary) == 2
        assert "latency_ci95" in summary.columns
        assert "replicate" not in summary.columns
        assert "seed" not in summary.columns

    def test_replicate_summary_is_identity_without_replicates(self):
        frame = ResultFrame.from_rows([{"cell": "a", "x": 1.0}])
        assert frame.replicate_summary() is frame

    def test_concat_unions_columns_and_labels(self):
        left = ResultFrame.from_rows([{"a": 1, "x": 1.0}], name="l",
                                     meta={"labels": ["a"]})
        right = ResultFrame.from_rows([{"a": 2, "y": 3.0}], name="r",
                                      meta={"labels": ["a"]})
        both = ResultFrame.concat([left, right])
        assert both.columns == ["a", "x", "y"]
        assert len(both) == 2
        assert both.row(0)["y"] is None and both.row(1)["x"] is None
        assert both.meta["labels"] == ["a"]
        assert both.name == "l+r"

    def test_concat_of_replicated_frames_still_summarises(self):
        rows = [{"cell": "a", "replicate": r, "seed": 7 + r, "x": float(r)}
                for r in range(2)]
        meta = {"labels": ["cell", "replicate", "seed"]}
        one = ResultFrame.from_rows(rows, meta=meta)
        rows_b = [dict(row, cell="b") for row in rows]
        two = ResultFrame.from_rows(rows_b, meta=meta)
        summary = ResultFrame.concat([one, two]).replicate_summary()
        assert list(summary["cell"]) == ["a", "b"]
        assert list(summary["replicates"]) == [2, 2]

    def test_concat_empty_input(self):
        assert len(ResultFrame.concat([])) == 0


# ---------------------------------------------------------------------------
# Stable CSV column order under differing derived-metric mappings
# ---------------------------------------------------------------------------

class TestStableColumnOrder:
    class _FakeResult:
        """Bare-minimum RunResult stand-in for from_results."""

        def __init__(self, source):
            self.table = source.table
            self.usage = source.usage
            self.duration_s = source.duration_s

    @pytest.fixture(scope="class")
    def result(self):
        return run(_base(workload="w-40"), seed=3, scale=0.04)

    def test_agreeing_mappings_keep_declaration_order(self, result):
        frame = ResultFrame.from_results(
            [({"cell": "a"}, result), ({"cell": "b"}, result)],
            metrics={"m": lambda r: {"zeta": 1.0, "alpha": 2.0}})
        assert frame.columns[-2:] == ["zeta", "alpha"]

    def test_differing_mappings_emit_sorted_union(self, result):
        def per_cell(values):
            iterator = iter(values)
            return lambda r: next(iterator)

        metric = per_cell([{"zeta": 1.0, "mid": 2.0},
                           {"alpha": 3.0, "mid": 4.0}])
        frame = ResultFrame.from_results(
            [({"cell": "a"}, result), ({"cell": "b"}, result)],
            metrics={"m": metric})
        assert frame.columns[-3:] == ["alpha", "mid", "zeta"]
        # Order no longer depends on which cell came first.
        metric = per_cell([{"alpha": 3.0, "mid": 4.0},
                           {"zeta": 1.0, "mid": 2.0}])
        flipped = ResultFrame.from_results(
            [({"cell": "b"}, result), ({"cell": "a"}, result)],
            metrics={"m": metric})
        assert flipped.columns == frame.columns
        header = frame.to_csv().splitlines()[0]
        assert header == ",".join(frame.columns)
        assert frame.row(0)["alpha"] is None

    def test_labels_recorded_in_meta(self, result):
        frame = ResultFrame.from_results([({"cell": "a"}, result)])
        assert frame.meta["labels"] == ["cell"]


# ---------------------------------------------------------------------------
# CLI replication surface
# ---------------------------------------------------------------------------

class TestCliReplication:
    def test_sweep_replicates_collapse_and_csv_stats(self, capsys, tmp_path):
        from repro.experiments.runner import main
        csv_path = tmp_path / "rep.csv"
        code = main(["sweep", "provisioned-serverless", "--scale", "0.04",
                     "--replicates", "2", "--csv", str(csv_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 runs collapsed to 1 cells" in out
        header = csv_path.read_text().splitlines()[0].split(",")
        for column in ("replicates", "cost_usd_mean", "cost_usd_std",
                       "cost_usd_ci95"):
            assert column in header

    def test_sweep_rejects_bad_replicates(self, capsys):
        from repro.experiments.runner import main
        with pytest.raises(SystemExit):
            main(["sweep", "burst-storm", "--replicates", "0"])

    def test_fig05_replicated_study_is_registered(self):
        load_registered_studies()
        study = get_study("fig05-replicated")
        assert all(sweep.replicates == 5 for sweep in study.sweeps)
        assert len(study) == 5 * len(get_study("fig05"))


# ---------------------------------------------------------------------------
# Post-review hardening
# ---------------------------------------------------------------------------

class TestReviewHardening:
    def test_allow_empty_permits_all_dropped_grids(self):
        sweep = Sweep(name="e", base=_base(),
                      axes={"memory_gb": (2.0, 4.0)},
                      where=lambda labels: False, allow_empty=True)
        expansion = sweep.expand()
        assert expansion.cells == ()
        assert len(expansion.dropped) == 2

    def test_navigator_prefilter_may_empty_grid_when_servers_remain(self):
        from repro.tools.navigator import (
            DesignSpaceNavigator,
            NavigationConstraints,
        )
        nav = DesignSpaceNavigator(
            provider="aws", model="mobilenet",
            runtimes=("tf1.15",), memory_sizes_gb=(2.0,), batch_sizes=(1,),
            include_servers=True, prefilter=lambda labels: False)
        cells = nav.cells()
        assert [c.labels["platform"] for c in cells] == \
            ["cpu_server", "gpu_server"]
        workload = standard_workload("w-40", seed=3, scale=0.04)
        result = nav.search(workload,
                            NavigationConstraints(min_success_ratio=0.5))
        assert len(result.evaluated) == 2
        assert result.frame.meta["constrained_out"] == \
            {"nav/aws/mobilenet": 1}
        # Without servers the all-dropped grid yields an empty frame
        # with the declared schema (feasible column included) instead
        # of raising — see TestNavigatorEmptyPrefilter in test_tools.py.
        solo = DesignSpaceNavigator(
            provider="aws", model="mobilenet",
            prefilter=lambda labels: False)
        assert solo.cells() == []

    def test_replicate_summary_without_label_metadata_raises(self):
        frame = ResultFrame.from_rows(
            [{"cell": "a", "replicate": 0, "x": 1.0},
             {"cell": "a", "replicate": 1, "x": 2.0}])
        with pytest.raises(ValueError, match="label metadata"):
            frame.replicate_summary()

    def test_fig05_replicated_inherits_the_base_study_shape(self):
        load_registered_studies()
        base = get_study("fig05")
        replicated = get_study("fig05-replicated")
        assert replicated.metrics == base.metrics
        assert replicated.series == base.series
        assert [s.axes for s in replicated.sweeps] == \
            [s.axes for s in base.sweeps]
