"""Simulated object storage (S3 / Cloud Storage).

Cold-starting serving instances download the model artifact from object
storage (Section 2.3 of the paper); the download time is one of the
cold-start sub-stages broken down in Figure 10 and varied directly in
Figure 12b.  The dominant effects are a per-object request latency and a
provider-specific sustained bandwidth, both of which this model captures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim import RandomStreams

__all__ = ["ObjectStorage"]


@dataclass(frozen=True)
class ObjectStorage:
    """Object storage characterised by request latency and bandwidth."""

    #: Time to first byte for a GET, seconds.
    request_latency_s: float
    #: Sustained download throughput into a function instance, MB/s.
    download_bandwidth_mbps: float
    #: Coefficient of variation applied as lognormal jitter to downloads.
    jitter_cv: float = 0.10

    def download_time(self, size_mb: float,
                      rng: Optional[RandomStreams] = None,
                      stream: str = "storage") -> float:
        """Seconds needed to download an object of ``size_mb`` megabytes."""
        if size_mb < 0:
            raise ValueError("size_mb must be non-negative")
        if size_mb == 0:
            return 0.0
        base = self.request_latency_s + size_mb / self.download_bandwidth_mbps
        if rng is None or self.jitter_cv == 0:
            return base
        return rng.lognormal_around(stream, base, self.jitter_cv)
