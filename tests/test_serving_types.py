"""Tests for deployment specifications and request records."""

import numpy as np
import pytest

from repro.cloud import aws
from repro.models import get_model
from repro.runtimes import get_runtime
from repro.serving import Deployment, PlatformKind, ServiceConfig
from repro.serving.outcome_table import OutcomeColumns, OutcomeRecorder
from repro.serving.records import (
    SERVED_BY_DIRECT,
    SERVED_BY_NAMES,
    SERVED_BY_PROVISIONED,
    SERVED_BY_SPILL,
    Stage,
)

from outcome_rows import error_at


class TestServiceConfig:
    def test_defaults_match_paper(self):
        config = ServiceConfig()
        assert config.platform == PlatformKind.SERVERLESS
        assert config.memory_gb == 2.0
        assert config.batch_size == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(platform="mainframe")
        with pytest.raises(ValueError):
            ServiceConfig(memory_gb=0)
        with pytest.raises(ValueError):
            ServiceConfig(provisioned_concurrency=-1)
        with pytest.raises(ValueError):
            ServiceConfig(batch_size=0)
        with pytest.raises(ValueError):
            ServiceConfig(extra_download_mb=-1)
        with pytest.raises(ValueError):
            ServiceConfig(samples_per_request=0)
        with pytest.raises(ValueError):
            ServiceConfig(initial_instances=0)

    def test_replace(self):
        config = ServiceConfig()
        bigger = config.replace(memory_gb=8.0)
        assert bigger.memory_gb == 8.0
        assert config.memory_gb == 2.0


class TestDeployment:
    def test_labels_and_instance_types(self):
        provider = aws()
        deployment = Deployment(provider=provider, model=get_model("mobilenet"),
                                runtime=get_runtime("tf1.15"),
                                config=ServiceConfig(platform=PlatformKind.CPU_SERVER))
        assert "aws-cpu_server/mobilenet/tf1.15" == deployment.label
        assert deployment.instance_type() == "m5.2xlarge"
        gpu = deployment.with_config(platform=PlatformKind.GPU_SERVER)
        assert gpu.instance_type() == "g4dn.2xlarge"

    def test_managed_requires_supported_runtime(self):
        provider = aws()
        with pytest.raises(ValueError):
            Deployment(provider=provider, model=get_model("mobilenet"),
                       runtime=get_runtime("ort1.4"),
                       config=ServiceConfig(platform=PlatformKind.MANAGED_ML))

    def test_serverless_has_no_instance_type(self):
        deployment = Deployment(provider=aws(), model=get_model("vgg"),
                                runtime=get_runtime("tf1.15"))
        assert deployment.instance_type() == ""

    def test_explicit_instance_type_wins(self):
        deployment = Deployment(
            provider=aws(), model=get_model("vgg"), runtime=get_runtime("tf1.15"),
            config=ServiceConfig(platform=PlatformKind.CPU_SERVER,
                                 instance_type="g4dn.2xlarge"))
        assert deployment.instance_type() == "g4dn.2xlarge"


class TestStage:
    def test_stage_vocabulary(self):
        assert set(Stage.COLD_ONLY) <= set(Stage.ORDER)

    def test_served_by_names_index_by_code(self):
        assert SERVED_BY_NAMES[SERVED_BY_DIRECT] == "direct"
        assert SERVED_BY_NAMES[SERVED_BY_PROVISIONED] == "provisioned"
        assert SERVED_BY_NAMES[SERVED_BY_SPILL] == "spill"


#: Every serve-side column of a block and a value no default holds.
SERVED = {"completion_time": 2.0, "success": True, "cold_start": True,
          "instance_id": 7, "billed_duration_s": 0.5, "attempts": 2,
          "served_by": SERVED_BY_SPILL, "predict_s": 0.3}


class TestOutcomeRows:
    """A request's outcome is one row of a recorder block: the row keeps
    what the request's record used to (completion, success, stage
    seconds, its error), and the table reads it back by column."""

    def test_latency_requires_completion(self):
        recorder = OutcomeRecorder(capacity=1)
        row = recorder.register(request_id=1, client_id=0, send_time=10.0)
        table = recorder.table()
        assert np.isnan(table.latency[row])
        assert not table.success[row]
        recorder.columns.completion_time[row] = 12.5
        recorder.columns.success[row] = True
        recorder.commit(row)
        table = recorder.table()
        assert table.latency[row] == pytest.approx(2.5)
        assert table.success[row]

    def test_stage_accumulation(self):
        recorder = OutcomeRecorder(capacity=1)
        row = recorder.register(0, 0, 0.0)
        # The stage attribute and the ``stages`` entry are one column.
        recorder.columns.network_s[row] += 0.1
        recorder.columns.stages[Stage.NETWORK][row] += 0.2
        table = recorder.table()
        assert table.stage_column(Stage.NETWORK)[row] == pytest.approx(0.3)
        assert table.stage_column(Stage.PREDICT)[row] == 0.0
        with pytest.raises(KeyError):
            table.stage_column("warmup")

    def test_commit_interns_errors_in_commit_order(self):
        recorder = OutcomeRecorder(capacity=4)
        rows = [recorder.register(i, 0, float(i)) for i in range(4)]
        pending = recorder.columns.errors
        for row, error in ((2, "timeout"), (0, "throttled"), (1, None),
                           (3, "timeout")):
            if error:
                pending[row] = error
            recorder.commit(row)
        assert recorder.error_names == ["", "timeout", "throttled"]
        assert pending == {}
        table = recorder.table()
        assert [error_at(table, row) for row in rows] == [
            "throttled", "", "timeout", "timeout"]

    def test_register_past_capacity_raises(self):
        recorder = OutcomeRecorder(capacity=1)
        assert recorder.register(0, 0, 0.0) == 0
        with pytest.raises(IndexError):
            recorder.register(1, 0, 1.0)

    def test_last_completion_time_reads_registered_rows(self):
        recorder = OutcomeRecorder(capacity=3)
        for i in range(2):
            recorder.register(i, 0, float(i))
        assert recorder.last_completion_time == 0.0
        completion = recorder.columns.completion_time
        completion[0] = 4.0
        completion[2] = 9.0      # a row no request registered
        assert recorder.last_completion_time == 4.0
        completion[1] = 5.0
        assert recorder.last_completion_time == 5.0

    def test_table_is_a_view_of_the_block(self):
        recorder = OutcomeRecorder(capacity=2)
        row = recorder.register(0, 3, 1.0)
        table = recorder.table()
        assert table.count == 1
        assert table.client_id[row] == 3
        recorder.columns.completion_time[row] = 3.0
        assert table.completion_time[row] == 3.0
        assert np.shares_memory(table.send_time,
                                recorder.columns.arrays["send_time"])

    def test_sequential_request_ids_are_rebuilt_not_stored(self):
        def table(ids):
            recorder = OutcomeRecorder(capacity=len(ids))
            for send_time, request_id in enumerate(ids):
                recorder.register(request_id, 0, float(send_time))
            return recorder.table()

        sequential, shuffled = table([0, 1, 2]), table([2, 0, 1])
        assert sequential.request_id.tolist() == [0, 1, 2]
        assert not sequential.request_id.flags.writeable
        assert shuffled.request_id.tolist() == [2, 0, 1]
        assert shuffled.resident_bytes() - sequential.resident_bytes() == 24

    def test_fan_out_copies_every_serve_column(self):
        columns = OutcomeColumns(3)
        for row, (client, send) in enumerate(((1, 0.5), (4, 1.0), (6, 1.5))):
            columns.client_id[row] = client
            columns.send_time[row] = send
        columns.inferences[0] = 3
        for name, value in SERVED.items():
            getattr(columns, name)[0] = value
        columns.errors[0] = "degraded"
        columns.fan_out(0, [1, 2])
        arrays = columns.arrays
        for name, value in SERVED.items():
            assert arrays[name].tolist() == [value] * 3, name
        assert columns.errors == dict.fromkeys((0, 1, 2), "degraded")
        # Issue-time columns stay each member's own.
        assert arrays["client_id"].tolist() == [1, 4, 6]
        assert arrays["send_time"].tolist() == [0.5, 1.0, 1.5]
        assert arrays["inferences"].tolist() == [3, 1, 1]

    def test_reset_restores_defaults(self):
        columns = OutcomeColumns(2)
        for row in range(2):
            columns.client_id[row] = 5
            columns.inferences[row] = 2
            for name, value in SERVED.items():
                getattr(columns, name)[row] = value
        columns.reset(1, 2)
        arrays = columns.arrays
        assert arrays["client_id"].tolist() == [5, 0]
        assert arrays["inferences"].tolist() == [2, 1]
        assert arrays["success"].tolist() == [True, False]
        assert arrays["instance_id"].tolist() == [7, -1]
        assert arrays["attempts"].tolist() == [2, 1]
        assert arrays["predict_s"].tolist() == [0.3, 0.0]
        assert arrays["completion_time"][0] == 2.0
        assert np.isnan(arrays["completion_time"][1])

    def test_resize_keeps_rows_and_defaults_new_ones(self):
        columns = OutcomeColumns(2)
        columns.instance_id[1] = 5
        columns.queue_s[1] = 0.5
        columns.resize(4)
        assert columns.rows == 4
        assert columns.arrays["instance_id"].tolist() == [-1, 5, -1, -1]
        assert np.isnan(columns.arrays["completion_time"]).all()
        # The stage entries follow the resized columns.
        assert columns.stages[Stage.QUEUE] is columns.queue_s
        assert columns.stages[Stage.QUEUE].tolist() == [0.0, 0.5, 0.0, 0.0]
        columns.resize(1)
        assert columns.arrays["instance_id"].tolist() == [-1]
        assert len(columns.queue_s) == 1
