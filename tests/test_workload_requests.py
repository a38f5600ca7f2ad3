"""Tests for the request pool."""

import numpy as np
import pytest

from repro.workload.requests import RequestPool, RequestTemplate


class TestRequestTemplate:
    def test_validation(self):
        with pytest.raises(ValueError):
            RequestTemplate(index=0, payload_mb=-1.0)
        with pytest.raises(ValueError):
            RequestTemplate(index=0, payload_mb=0.1, samples=0)


class TestRequestPool:
    def test_pool_size(self):
        pool = RequestPool(sample_payload_mb=0.15, pool_size=200)
        assert len(pool) == 200

    def test_payloads_jittered_around_sample_size(self):
        pool = RequestPool(sample_payload_mb=0.15, pool_size=200, seed=1)
        mean = np.mean([t.payload_mb for t in pool.templates])
        assert mean == pytest.approx(0.15, rel=0.1)
        sizes = {t.payload_mb for t in pool.templates}
        assert len(sizes) > 100

    def test_samples_multiply_payload(self):
        single = RequestPool(sample_payload_mb=0.1, pool_size=50,
                             payload_jitter=0.0, seed=1)
        batched = RequestPool(sample_payload_mb=0.1, pool_size=50,
                              samples_per_request=4, payload_jitter=0.0, seed=1)
        batched_mean = np.mean([t.payload_mb for t in batched.templates])
        single_mean = np.mean([t.payload_mb for t in single.templates])
        assert batched_mean == pytest.approx(4 * single_mean)

    def test_pool_repeats_under_a_seed(self):
        def payloads(seed):
            pool = RequestPool(sample_payload_mb=0.1, pool_size=10, seed=seed)
            return [template.payload_mb for template in pool.templates]

        assert payloads(2) == payloads(2)
        assert payloads(2) != payloads(3)
        pool = RequestPool(sample_payload_mb=0.1, pool_size=10, seed=2)
        assert [template.index for template in pool.templates] == list(
            range(10))

    def test_validation(self):
        with pytest.raises(ValueError):
            RequestPool(sample_payload_mb=0.1, pool_size=0)
        with pytest.raises(ValueError):
            RequestPool(sample_payload_mb=-0.1)
        with pytest.raises(ValueError):
            RequestPool(sample_payload_mb=0.1, payload_jitter=1.5)
