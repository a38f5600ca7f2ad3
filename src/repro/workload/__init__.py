"""Workload generation (the paper's "Load Generator", Figure 3).

The paper drives every experiment with synthetic workloads produced by a
Markov-Modulated Poisson Process (MMPP), because no public model-serving
traces exist.  Three workloads are used throughout (Figure 4):

==========  ============  ==============  ==================
name        peak rate     requests        duration
==========  ============  ==============  ==================
w-40        40 req/s      ~15 000         ~15 minutes
w-120       120 req/s     ~51 600         ~15 minutes
w-200       200 req/s     ~86 000         ~15 minutes
==========  ============  ==============  ==================

This package provides the MMPP itself, the three standard workloads, the
workload splitter that divides a trace across the 8 load-generating
clients, and the request pool from which clients draw payloads.

Beyond the paper's three, the **scale family** targets production-trace
request counts with block-streamed generation (arrivals are drawn
lazily during the run, so memory stays flat in the trace length):

==========  ============  ==============  ==================
name        peak rate     requests        duration
==========  ============  ==============  ==================
w-1m        280 req/s     1 000 000       2.4 hours
w-10m       280 req/s     10 000 000      24 hours
==========  ============  ==============  ==================
"""

from repro.workload.generator import (
    Workload,
    WorkloadSpec,
    generate_workload,
    register_workload_spec,
    standard_workload,
    standard_workload_specs,
)
from repro.workload.mmpp import MMPP, MMPPState
from repro.workload.requests import RequestPool, RequestTemplate
from repro.workload.splitter import merge_traces, split_trace
from repro.workload.streaming import StreamedWorkload, StreamSession
from repro.workload.traces import ArrivalTrace

__all__ = [
    "ArrivalTrace",
    "MMPP",
    "MMPPState",
    "RequestPool",
    "RequestTemplate",
    "StreamSession",
    "StreamedWorkload",
    "Workload",
    "WorkloadSpec",
    "generate_workload",
    "merge_traces",
    "register_workload_spec",
    "split_trace",
    "standard_workload",
    "standard_workload_specs",
]


def _scale_burst_windows(duration_s: float):
    """The standard two-surge burst shape, stretched to ``duration_s``."""
    return ((duration_s * 1 / 9, duration_s * 5 / 18),
            (duration_s * 5 / 9, duration_s * 8 / 9))


#: The trace-scale workloads (block-streamed; the "scale" family).
#: Rates follow the standard burst structure scaled to day-length runs;
#: the conditioned MMPP pins the realised totals exactly.
register_workload_spec(WorkloadSpec(
    name="w-1m",
    high_rate=280.0,
    low_rate=40.0,
    target_requests=1_000_000,
    duration_s=8_640.0,
    burst_windows=_scale_burst_windows(8_640.0),
    streamed=True,
    family="scale",
))
register_workload_spec(WorkloadSpec(
    name="w-10m",
    high_rate=280.0,
    low_rate=40.0,
    target_requests=10_000_000,
    duration_s=86_400.0,
    burst_windows=_scale_burst_windows(86_400.0),
    streamed=True,
    family="scale",
))
