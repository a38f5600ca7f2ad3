"""Request pool (Figure 3, "Request Generator").

Clients do not synthesise a fresh input for every request; instead they
draw uniformly at random from a pre-generated pool of requests (pool size
200 in the paper), which is large enough that serving systems cannot cache
prediction results yet cheap enough to keep the client side fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.sim import RandomStreams

__all__ = ["RequestTemplate", "RequestPool"]


@dataclass(frozen=True)
class RequestTemplate:
    """One reusable request payload."""

    index: int
    payload_mb: float
    #: Number of input samples packed into the request (Figure 12c varies
    #: this; the default workloads use 1).
    samples: int = 1

    def __post_init__(self) -> None:
        if self.payload_mb < 0:
            raise ValueError("payload_mb must be non-negative")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")


class RequestPool:
    """A fixed pool of request payloads for one model."""

    def __init__(self, sample_payload_mb: float, pool_size: int = 200,
                 samples_per_request: int = 1,
                 payload_jitter: float = 0.2, seed: int = 0):
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        if sample_payload_mb < 0:
            raise ValueError("sample_payload_mb must be non-negative")
        if not 0.0 <= payload_jitter < 1.0:
            raise ValueError("payload_jitter must be in [0, 1)")
        self.sample_payload_mb = sample_payload_mb
        self.samples_per_request = samples_per_request
        rng = RandomStreams(seed).stream("request-pool")
        # One vectorised draw for the whole pool.  numpy fills arrays with
        # the same per-element sampler scalar draws use, and the jitter
        # arithmetic is applied element-wise in the same order, so the
        # pool's seeded payloads are bit-identical to the old scalar loop.
        jitter = 1.0 + payload_jitter * (rng.random(pool_size) * 2.0 - 1.0)
        payloads = sample_payload_mb * samples_per_request * jitter
        self._templates: List[RequestTemplate] = [
            RequestTemplate(index=index, payload_mb=payload,
                            samples=samples_per_request)
            for index, payload in enumerate(payloads.tolist())]

    def __len__(self) -> int:
        return len(self._templates)

    @property
    def templates(self) -> List[RequestTemplate]:
        """All templates in the pool."""
        return list(self._templates)
