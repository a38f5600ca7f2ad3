"""Latency-profile query API used by the simulated platforms.

:class:`LatencyProfiles` answers questions like "how long does a warm
MobileNet prediction take on AWS serverless with 4 GB of memory and
OnnxRuntime?"  It wraps the raw calibration tables and applies the
memory scaling law (Figure 15); each table is a field, so a caller can
pass its own entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.models.calibration import (
    COLD_START_STAGES,
    HANDLER_OVERHEAD_S,
    LOAD_MEMORY_EXPONENT,
    MEMORY_REFERENCE_GB,
    PREDICT_MEMORY_EXPONENT,
    SERVER_PREDICT,
    SERVERLESS_PREDICT,
    ColdStartStages,
    PredictCalibration,
)

__all__ = ["LatencyProfiles"]


def _memory_scale(memory_gb: float, exponent: float) -> float:
    """Compute-time multiplier when running with ``memory_gb`` of memory.

    Serverless platforms allocate CPU proportionally to memory, so the
    compute-bound part of a stage shrinks roughly as ``(reference /
    memory) ** exponent``; the exponent < 1 captures diminishing returns
    (more vCPUs help less once the model's intra-op parallelism is
    exhausted), which is what Figure 15 shows.
    """
    if memory_gb <= 0:
        raise ValueError("memory_gb must be positive")
    return (MEMORY_REFERENCE_GB / memory_gb) ** exponent


@dataclass
class LatencyProfiles:
    """Queryable latency calibration with override support."""

    cold_start: Dict[Tuple[str, str, str], ColdStartStages] = field(
        default_factory=lambda: dict(COLD_START_STAGES))
    serverless_predict: Dict[Tuple[str, str, str], PredictCalibration] = field(
        default_factory=lambda: dict(SERVERLESS_PREDICT))
    server_predict: Dict[Tuple[str, str, str], PredictCalibration] = field(
        default_factory=lambda: dict(SERVER_PREDICT))
    handler_overhead: Dict[str, float] = field(
        default_factory=lambda: dict(HANDLER_OVERHEAD_S))

    # -- queries ------------------------------------------------------------
    def cold_start_stages(self, provider: str, runtime: str,
                          model: str) -> ColdStartStages:
        """Cold-start sub-stage latencies for one combination."""
        key = (provider, runtime, model)
        if key not in self.cold_start:
            raise KeyError(f"no cold-start calibration for {key!r}")
        return self.cold_start[key]

    def import_time(self, provider: str, runtime: str, model: str) -> float:
        """Runtime import time at cold start."""
        return self.cold_start_stages(provider, runtime, model).import_s

    def load_time(self, provider: str, runtime: str, model: str,
                  memory_gb: float = MEMORY_REFERENCE_GB) -> float:
        """Model load time at cold start, scaled to the memory size."""
        base = self.cold_start_stages(provider, runtime, model).load_s
        return base * _memory_scale(memory_gb, LOAD_MEMORY_EXPONENT)

    def cold_predict_time(self, provider: str, runtime: str, model: str,
                          memory_gb: float = MEMORY_REFERENCE_GB) -> float:
        """First-prediction time on a freshly loaded model."""
        base = self.cold_start_stages(provider, runtime, model).cold_predict_s
        warm = self.serverless_predict_calibration(provider, runtime, model)
        scalable = max(base - warm.fixed_overhead_s, 0.0)
        return (warm.fixed_overhead_s
                + scalable * _memory_scale(memory_gb, PREDICT_MEMORY_EXPONENT))

    def serverless_predict_calibration(self, provider: str, runtime: str,
                                       model: str) -> PredictCalibration:
        """Raw warm-predict calibration entry for serverless."""
        key = (provider, runtime, model)
        if key not in self.serverless_predict:
            raise KeyError(f"no serverless predict calibration for {key!r}")
        return self.serverless_predict[key]

    def warm_predict_time(self, provider: str, runtime: str, model: str,
                          memory_gb: float = MEMORY_REFERENCE_GB) -> float:
        """Warm per-request predict time on serverless at ``memory_gb``."""
        calibration = self.serverless_predict_calibration(provider, runtime, model)
        scalable = calibration.warm_predict_s - calibration.fixed_overhead_s
        return (calibration.fixed_overhead_s
                + scalable * _memory_scale(memory_gb, PREDICT_MEMORY_EXPONENT))

    def server_predict_time(self, runtime: str, model: str,
                            hardware: str) -> float:
        """Per-request service time on a CPU or GPU server."""
        key = (runtime, model, hardware)
        if key not in self.server_predict:
            raise KeyError(f"no server predict calibration for {key!r}")
        return self.server_predict[key].warm_predict_s

    def handler_overhead_s(self, platform_family: str) -> float:
        """Request parsing / response serialisation overhead per request."""
        if platform_family not in self.handler_overhead:
            raise KeyError(f"unknown platform family {platform_family!r}")
        return self.handler_overhead[platform_family]
