"""Tests for the model zoo, calibration profiles, and serving runtimes."""

import pytest

from repro.models.calibration import ColdStartStages, PredictCalibration
from repro.models.profiles import LatencyProfiles
from repro.models.zoo import get_model, list_models, model_zoo
from repro.runtimes import get_runtime, list_runtimes, onnxruntime_14, tensorflow_115
from repro.runtimes.base import ServingRuntime
from repro.runtimes.registry import register_runtime


class TestModelZoo:
    def test_paper_models_present(self):
        assert set(list_models()) == {"albert", "mobilenet", "vgg"}

    def test_model_sizes_match_paper(self):
        assert get_model("mobilenet").artifact_mb == 16.0
        assert get_model("albert").artifact_mb == 51.5
        assert get_model("vgg").artifact_mb == 548.0

    def test_vgg_is_bundled_due_to_tmp_limit(self):
        # AWS Lambda's /tmp is 512 MB; VGG (548 MB) cannot be downloaded.
        vgg = get_model("vgg")
        assert vgg.bundle_in_image
        assert vgg.download_mb == 0.0
        assert get_model("mobilenet").download_mb == 16.0

    def test_lookup_case_insensitive(self):
        assert get_model("MobileNet").name == "mobilenet"

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            get_model("resnet")

    def test_zoo_copy_is_isolated(self):
        zoo = model_zoo()
        zoo.pop("vgg")
        assert "vgg" in model_zoo()


class TestCalibrationDataclasses:
    def test_cold_start_total(self):
        stages = ColdStartStages(4.0, 1.0, 2.0)
        assert stages.total() == 7.0

    def test_predict_calibration_validation(self):
        with pytest.raises(ValueError):
            PredictCalibration(0.0)
        with pytest.raises(ValueError):
            PredictCalibration(0.1, fixed_overhead_s=0.2)


class TestLatencyProfiles:
    def test_every_paper_combination_is_calibrated(self, profiles):
        for provider in ("aws", "gcp"):
            for runtime in ("tf1.15", "ort1.4"):
                for model in ("mobilenet", "albert", "vgg"):
                    profiles.cold_start_stages(provider, runtime, model)
                    profiles.serverless_predict_calibration(
                        provider, runtime, model)

    def test_cold_start_e2e_matches_paper(self, profiles):
        """The calibrated stages must add up to the paper's Figure 10."""
        from repro.cloud import get_provider

        cases = [
            ("aws", "mobilenet", 9.08),
            ("aws", "albert", 9.49),
            ("gcp", "mobilenet", 11.71),
            ("gcp", "albert", 14.19),
        ]
        for provider_name, model_name, expected in cases:
            provider = get_provider(provider_name)
            model = get_model(model_name)
            total = (provider.serverless.sandbox_setup_s
                     + profiles.import_time(provider_name, "tf1.15",
                                            model_name)
                     + provider.storage.download_time(model.download_mb)
                     + profiles.load_time(provider_name, "tf1.15",
                                          model_name, 2.0)
                     + profiles.cold_predict_time(provider_name, "tf1.15",
                                                  model_name, 2.0))
            assert total == pytest.approx(expected, rel=0.08)

    def test_ort_cold_start_much_faster(self, profiles):
        tf = profiles.cold_start_stages("aws", "tf1.15", "mobilenet").total()
        ort = profiles.cold_start_stages("aws", "ort1.4", "mobilenet").total()
        assert ort < tf / 2.5

    def test_more_memory_reduces_predict_time(self, profiles):
        small = profiles.warm_predict_time("aws", "tf1.15", "vgg", 2.0)
        large = profiles.warm_predict_time("aws", "tf1.15", "vgg", 8.0)
        assert large < small

    def test_memory_scaling_has_floor(self, profiles):
        """The non-scalable overhead is preserved at huge memory sizes."""
        cal = profiles.serverless_predict_calibration("aws", "tf1.15", "vgg")
        huge = profiles.warm_predict_time("aws", "tf1.15", "vgg", 1024.0)
        assert huge >= cal.fixed_overhead_s

    def test_memory_validation(self, profiles):
        with pytest.raises(ValueError):
            profiles.warm_predict_time("aws", "tf1.15", "vgg", 0.0)

    def test_gpu_much_faster_than_cpu(self, profiles):
        for model in ("mobilenet", "albert", "vgg"):
            assert (profiles.server_predict_time("tf1.15", model, "gpu")
                    < profiles.server_predict_time("tf1.15", model, "cpu") / 5)

    def test_register_overrides(self, profiles):
        # Each calibration table is a field: a caller adds or overrides
        # entries by passing its own tables.
        custom = LatencyProfiles(
            serverless_predict={
                **profiles.serverless_predict,
                ("aws", "tf1.15", "custom"): PredictCalibration(0.5, 0.1)},
            cold_start={
                **profiles.cold_start,
                ("aws", "tf1.15", "custom"): ColdStartStages(1.0, 1.0, 1.0)},
            server_predict={
                **profiles.server_predict,
                ("tf1.15", "custom", "cpu"): PredictCalibration(0.9)})
        assert custom.cold_start_stages(
            "aws", "tf1.15", "custom") == ColdStartStages(1.0, 1.0, 1.0)
        assert custom.serverless_predict_calibration(
            "aws", "tf1.15", "custom") == PredictCalibration(0.5, 0.1)
        assert custom.server_predict_time("tf1.15", "custom", "cpu") == 0.9
        # The default tables are untouched.
        with pytest.raises(KeyError):
            profiles.server_predict_time("tf1.15", "custom", "cpu")

    def test_unknown_keys_raise(self, profiles):
        with pytest.raises(KeyError):
            profiles.cold_start_stages("aws", "tf2.9", "mobilenet")
        with pytest.raises(KeyError):
            profiles.server_predict_time("tf1.15", "mobilenet", "tpu")
        with pytest.raises(KeyError):
            profiles.handler_overhead_s("mainframe")


class TestRuntimes:
    def test_builtin_runtimes(self):
        assert set(list_runtimes()) >= {"ort1.4", "tf1.15"}

    def test_image_sizes_match_paper(self):
        tf = tensorflow_115()
        ort = onnxruntime_14()
        assert tf.image_size_mb("aws") == 1238.0
        assert tf.image_size_mb("gcp") == 920.0
        assert ort.image_size_mb("aws") == 391.0
        assert ort.image_size_mb("aws") < tf.image_size_mb("aws")

    def test_managed_support_flags(self):
        assert tensorflow_115().supports_managed_ml("aws")
        assert tensorflow_115().supports_managed_ml("gcp")
        assert not onnxruntime_14().supports_managed_ml("aws")

    def test_unknown_runtime(self):
        with pytest.raises(KeyError):
            get_runtime("torchserve")

    def test_register_custom_runtime(self):
        runtime = ServingRuntime(key="test-rt", display_name="Test",
                                 image_mb={"aws": 100.0})
        register_runtime(runtime)
        assert get_runtime("test-rt").display_name == "Test"

    def test_image_size_unknown_provider(self):
        with pytest.raises(KeyError):
            tensorflow_115().image_size_mb("azure")

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            ServingRuntime(key="", display_name="x")
