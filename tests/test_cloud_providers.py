"""Unit tests for provider descriptors, storage, network, and registry."""

import pytest

from repro.cloud import aws, gcp, get_provider
from repro.cloud.instances import get_instance_type, instance_catalog
from repro.cloud.network import NetworkModel
from repro.cloud.registry import ContainerRegistry
from repro.cloud.storage import ObjectStorage
from repro.sim import RandomStreams


class TestProviders:
    def test_get_provider_lookup(self):
        assert get_provider("aws").name == "aws"
        assert get_provider("GCP").name == "gcp"
        with pytest.raises(KeyError):
            get_provider("azure")

    def test_aws_storage_faster_than_gcp(self):
        assert (aws().storage.download_bandwidth_mbps
                > gcp().storage.download_bandwidth_mbps)

    def test_gcp_overprovisions_more(self):
        assert (gcp().serverless.overprovision_factor
                > aws().serverless.overprovision_factor)

    def test_gcp_sandbox_slower(self):
        assert gcp().serverless.sandbox_setup_s > aws().serverless.sandbox_setup_s

    def test_billing_init_flags(self):
        # Both platforms bill the cold-start initialisation: GCP always
        # does, and the paper deploys Lambda as container images, whose
        # init phase is part of the billed duration.
        assert aws().serverless.billing_includes_init is True
        assert gcp().serverless.billing_includes_init is True

    def test_instance_type_defaults(self):
        provider = aws()
        assert provider.managed_instance_type == "ml.m4.2xlarge"
        assert provider.cpu_instance_type == "m5.2xlarge"
        assert provider.gpu_instance_type == "g4dn.2xlarge"

    def test_with_serverless_produces_modified_copy(self):
        base = aws()
        modified = base.with_serverless(keep_alive_s=30.0)
        assert modified.serverless.keep_alive_s == 30.0
        assert base.serverless.keep_alive_s != 30.0
        assert modified.name == base.name

    def test_with_managed_and_vm_copies(self):
        base = gcp()
        copy = base.with_managed_ml(max_instances=2)
        assert copy.managed_ml.max_instances == 2
        # A copy: the base is untouched and the VM traits carry over.
        assert base.managed_ml.max_instances != 2
        assert copy.vm == base.vm


class TestInstanceCatalog:
    def test_catalog_contains_paper_shapes(self):
        catalog = instance_catalog()
        for name in ("ml.m4.2xlarge", "m5.2xlarge", "g4dn.2xlarge",
                     "n1-standard-8", "n1-standard-8-t4"):
            assert name in catalog

    def test_gpu_flags(self):
        assert get_instance_type("g4dn.2xlarge").gpus > 0
        assert get_instance_type("m5.2xlarge").gpus == 0

    def test_unknown_instance(self):
        with pytest.raises(KeyError):
            get_instance_type("m1.tiny")


class TestStorage:
    def test_download_time_scales_with_size(self):
        storage = ObjectStorage(request_latency_s=0.1,
                                download_bandwidth_mbps=100.0, jitter_cv=0.0)
        small = storage.download_time(10)
        large = storage.download_time(100)
        assert large > small
        assert small == pytest.approx(0.1 + 0.1)

    def test_zero_size_is_free(self):
        storage = ObjectStorage(request_latency_s=0.1,
                                download_bandwidth_mbps=100.0)
        assert storage.download_time(0.0) == 0.0

    def test_negative_size_rejected(self):
        storage = ObjectStorage(request_latency_s=0.1,
                                download_bandwidth_mbps=100.0)
        with pytest.raises(ValueError):
            storage.download_time(-1.0)

    def test_jitter_changes_draws_but_not_scale(self):
        storage = ObjectStorage(request_latency_s=0.1,
                                download_bandwidth_mbps=100.0, jitter_cv=0.2)
        rng = RandomStreams(3)
        draws = {storage.download_time(50, rng) for _ in range(5)}
        assert len(draws) > 1
        assert all(0.1 < d < 5.0 for d in draws)


class TestNetwork:
    def test_round_trip_includes_both_directions(self):
        network = NetworkModel(one_way_latency_s=0.02, bandwidth_mbps=10.0,
                               jitter_cv=0.0)
        rtt = network.round_trip_time(1.0, 0.0)
        assert rtt == pytest.approx(0.02 + 0.1 + 0.02)

    def test_negative_payload_rejected(self):
        network = NetworkModel(one_way_latency_s=0.02, bandwidth_mbps=10.0)
        with pytest.raises(ValueError):
            network.transfer_time(-0.1)


class TestRegistry:
    def test_pull_probability_validation(self):
        with pytest.raises(ValueError):
            ContainerRegistry(first_pull_probability=1.5, pull_bandwidth_mbps=10)
        with pytest.raises(ValueError):
            ContainerRegistry(first_pull_probability=0.1, pull_bandwidth_mbps=0)

    def test_most_pulls_are_cached(self):
        registry = ContainerRegistry(first_pull_probability=0.02,
                                     pull_bandwidth_mbps=100.0)
        rng = RandomStreams(4)
        times = [registry.pull_time(1000, rng) for _ in range(500)]
        slow = [t for t in times if t > 0]
        assert 0 < len(slow) < 40
        assert all(t > 2.0 for t in slow)

    def test_zero_probability_never_pulls(self):
        registry = ContainerRegistry(first_pull_probability=0.0,
                                     pull_bandwidth_mbps=100.0)
        rng = RandomStreams(4)
        assert all(registry.pull_time(500, rng) == 0.0 for _ in range(100))
