"""Workload generator: the paper's w-40 / w-120 / w-200 workloads.

A :class:`WorkloadSpec` describes a workload the way the paper does
(Section 3): the higher of the two MMPP Poisson rates gives the workload
its name, the duration is roughly 15 minutes, and the total request
counts are 15 000 / 51 600 / 86 000.  The generator builds a state
timeline with two pronounced burst windows — matching the two demand
surges visible in Figures 6, 8, and 9 (around t≈100–250 s and
t≈500–800 s) — runs a fast-switching MMPP inside the burst windows, and
finally rescales the rates so the expected request count matches the
paper's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.workload.mmpp import MMPP, MMPPState
from repro.workload.splitter import split_trace
from repro.workload.traces import ArrivalTrace

__all__ = [
    "WorkloadSpec",
    "Workload",
    "generate_workload",
    "standard_workload_specs",
    "standard_workload",
    "register_workload_spec",
    "workload_spec",
    "known_workloads",
]

#: Burst windows (start, end) in seconds, shared by the three standard
#: workloads; chosen to match the demand surges the paper's time-series
#: figures show.
DEFAULT_BURST_WINDOWS: Tuple[Tuple[float, float], ...] = ((100.0, 250.0),
                                                          (500.0, 800.0))


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one synthetic workload."""

    name: str
    high_rate: float
    low_rate: float
    target_requests: int
    duration_s: float = 900.0
    burst_windows: Tuple[Tuple[float, float], ...] = DEFAULT_BURST_WINDOWS
    #: Mean dwell times of the fast-switching MMPP inside burst windows.
    burst_high_dwell_s: float = 25.0
    burst_low_dwell_s: float = 12.0
    num_clients: int = 8
    request_pool_size: int = 200
    #: Streamed workloads generate arrivals block-by-block during the run
    #: (flat memory) instead of materialising the whole trace up front;
    #: :func:`standard_workload` returns a
    #: :class:`~repro.workload.streaming.StreamedWorkload` for them.
    streamed: bool = False
    #: Listing family (e.g. ``"scale"`` for the trace-scale workloads);
    #: empty for the paper's standard workloads.
    family: str = ""

    def __post_init__(self) -> None:
        if self.high_rate <= 0 or self.low_rate < 0:
            raise ValueError("rates must be positive (high) / non-negative (low)")
        if self.high_rate < self.low_rate:
            raise ValueError("high_rate must be at least low_rate")
        if self.target_requests <= 0:
            raise ValueError("target_requests must be positive")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        for start, end in self.burst_windows:
            if not 0 <= start < end <= self.duration_s:
                raise ValueError(f"invalid burst window ({start}, {end})")

    def compressed(self, fraction: float) -> "WorkloadSpec":
        """A spec with the same rates over a proportionally shorter run.

        The request rates (and therefore all overload and autoscaling
        behaviour) are unchanged; only the experiment duration and hence
        the total request count shrink.  This is what the benchmark
        harness uses for quick runs.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if fraction == 1.0:
            return self
        return WorkloadSpec(
            name=self.name,
            high_rate=self.high_rate,
            low_rate=self.low_rate,
            target_requests=max(1, int(round(self.target_requests * fraction))),
            duration_s=self.duration_s * fraction,
            burst_windows=tuple((start * fraction, end * fraction)
                                for start, end in self.burst_windows),
            burst_high_dwell_s=self.burst_high_dwell_s * max(fraction, 0.25),
            burst_low_dwell_s=self.burst_low_dwell_s * max(fraction, 0.25),
            num_clients=self.num_clients,
            request_pool_size=self.request_pool_size,
            streamed=self.streamed,
            family=self.family,
        )


@dataclass
class Workload:
    """A generated workload: the aggregate trace plus per-client traces."""

    spec: WorkloadSpec
    trace: ArrivalTrace
    client_traces: List[ArrivalTrace]
    seed: int = 0

    @property
    def name(self) -> str:
        """The workload's name (e.g. ``"w-120"``)."""
        return self.spec.name

    @property
    def count(self) -> int:
        """Total number of requests across all clients."""
        return self.trace.count

    def summary(self) -> dict:
        """Descriptive statistics of the aggregate trace."""
        info = self.trace.summary()
        info["clients"] = len(self.client_traces)
        info["target_requests"] = self.spec.target_requests
        return info


def _build_timeline(spec: WorkloadSpec,
                    rng: np.random.Generator) -> List[Tuple[float, float, MMPPState]]:
    """State timeline: low rate outside bursts, fast MMPP inside bursts."""
    low_state = MMPPState("low", spec.low_rate, mean_dwell_s=spec.duration_s)
    burst_mmpp = MMPP.two_state(
        low_rate=spec.low_rate,
        high_rate=spec.high_rate,
        mean_low_dwell_s=spec.burst_low_dwell_s,
        mean_high_dwell_s=spec.burst_high_dwell_s,
    )
    timeline: List[Tuple[float, float, MMPPState]] = []
    cursor = 0.0
    for start, end in spec.burst_windows:
        if start > cursor:
            timeline.append((cursor, start, low_state))
        burst = burst_mmpp.sample_state_timeline(end - start, rng,
                                                 initial_state=1)
        timeline.extend((start + s, start + e, state) for s, e, state in burst)
        cursor = end
    if cursor < spec.duration_s:
        timeline.append((cursor, spec.duration_s, low_state))
    return timeline


def generate_workload(spec: WorkloadSpec, seed: int = 0) -> Workload:
    """Generate a workload matching ``spec``.

    The arrival process is the burst-window MMPP *conditioned on its
    total count*: the realised request count equals
    ``spec.target_requests`` exactly, while the within-run burst
    structure is untouched.  (Rescaling the rates so only the *expected*
    count matched the target left Poisson noise of ``sqrt(target)`` on
    the realised count, which for small targets strayed far enough from
    the spec to fail property tests — and made every figure's request
    column wobble run to run.)
    """
    rng = np.random.default_rng(seed)
    timeline = _build_timeline(spec, rng)
    mmpp = MMPP.two_state(spec.low_rate, spec.high_rate,
                          spec.burst_low_dwell_s, spec.burst_high_dwell_s)
    trace = mmpp.sample_arrivals_conditioned(spec.duration_s, rng,
                                             total=spec.target_requests,
                                             timeline=timeline,
                                             name=spec.name)
    clients = split_trace(trace, spec.num_clients)
    return Workload(spec=spec, trace=trace, client_traces=clients, seed=seed)


def standard_workload_specs() -> Dict[str, WorkloadSpec]:
    """The three workloads of Figure 4 (w-40, w-120, w-200)."""
    return {
        "w-40": WorkloadSpec(name="w-40", high_rate=40.0, low_rate=6.0,
                             target_requests=15_000),
        "w-120": WorkloadSpec(name="w-120", high_rate=120.0, low_rate=16.0,
                              target_requests=51_600),
        "w-200": WorkloadSpec(name="w-200", high_rate=200.0, low_rate=28.0,
                              target_requests=86_000),
    }


#: Workload specs registered beyond the paper's three (scenario library
#: additions such as the burst-storm workload).  Purely data: registering
#: a spec makes it resolvable by name everywhere a standard workload is.
_REGISTERED_SPECS: Dict[str, WorkloadSpec] = {}


def register_workload_spec(spec: WorkloadSpec,
                           overwrite: bool = False) -> WorkloadSpec:
    """Make ``spec`` resolvable by name through :func:`standard_workload`.

    The paper's three workloads cannot be shadowed; re-registering an
    identical spec is a no-op, while changing an existing name requires
    ``overwrite=True`` (guards against two scenarios silently fighting
    over one name).
    """
    if spec.name in standard_workload_specs():
        raise ValueError(f"cannot shadow the standard workload {spec.name!r}")
    existing = _REGISTERED_SPECS.get(spec.name)
    if existing is not None and existing != spec and not overwrite:
        raise ValueError(f"workload {spec.name!r} is already registered "
                         f"with a different spec (pass overwrite=True)")
    _REGISTERED_SPECS[spec.name] = spec
    return spec


def workload_spec(name: str) -> WorkloadSpec:
    """Resolve a workload name to its spec (standard or registered)."""
    specs = standard_workload_specs()
    if name in specs:
        return specs[name]
    if name in _REGISTERED_SPECS:
        return _REGISTERED_SPECS[name]
    known = sorted(specs) + sorted(_REGISTERED_SPECS)
    raise KeyError(f"unknown workload {name!r}; expected one of {known}")


def known_workloads() -> List[str]:
    """Names of every resolvable workload (standard + registered)."""
    return sorted(standard_workload_specs()) + sorted(_REGISTERED_SPECS)


def standard_workload(name: str, seed: int = 7, scale: float = 1.0):
    """Generate a workload by name (standard or registered).

    ``scale`` < 1 produces a time-compressed workload: the request rates
    (and therefore the overload behaviour every experiment depends on)
    are unchanged, but the run is proportionally shorter.  The benchmark
    harness uses this to keep CI runs short; the scale used is recorded
    in the emitted results.

    Specs flagged ``streamed`` return a
    :class:`~repro.workload.streaming.StreamedWorkload` — an immutable
    description whose arrivals are generated block-by-block during the
    run — instead of a materialised :class:`Workload`.
    """
    spec = workload_spec(name)
    if scale != 1.0:
        spec = spec.compressed(scale)
    if spec.streamed:
        from repro.workload.streaming import StreamedWorkload
        return StreamedWorkload(spec=spec, seed=seed)
    return generate_workload(spec, seed=seed)
