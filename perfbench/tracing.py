"""Layer tracing from outside the program: wrappers and one cProfile pass.

:class:`LayerTrace` replaces public entry points of each layer with thin
wrappers that add wall time or call counts to one dictionary, and puts
the originals back on :meth:`~LayerTrace.uninstall`.  Nothing under
``src/`` changes.  Worker processes of the study fan-out are forked
from the traced parent, so they inherit the wrappers; each worker ships
the counts of a cell back inside that cell's transport payload, and the
parent-side unpack wrapper folds them in.

:func:`profile_shares` runs one callable under ``cProfile`` and splits
its self time across the module tree's packages.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pickle
import pstats
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Tuple

import repro
from repro.core import parallel, shm
from repro.core.benchmark import ServingBenchmark
from repro.core.executor import Executor
from repro.core.study import ResultFrame, Study
from repro.platforms import base as platform_base
from repro.serving.outcome_table import OutcomeRecorder, OutcomeTable
from repro.serving.streaming import ChunkedOutcomeRecorder
from repro.sim.randomness import RandomStreams
from repro.workload import generator

#: The public draw methods of ``RandomStreams`` (every simulated draw).
RNG_DRAWS = ("exponential", "uniform", "lognormal_around", "lognormal_sum",
             "choice")

#: Marks a worker payload that carries the worker's trace counts.
_TAG = "perfbench-trace"

#: Self-time packages, by module path under ``repro`` (first match
#: wins); everything else, numpy and the interpreter included, is
#: ``other``.
PACKAGES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("sim.engine", ("sim/engine.py",)),
    ("sim.randomness", ("sim/randomness.py",)),
    ("sim.resources", ("sim/resources.py",)),
    ("platforms.serverless", ("platforms/serverless.py",)),
    ("platforms.control", ("platforms/pool.py", "platforms/admission.py",
                           "platforms/billing.py", "platforms/policies.py")),
    ("platforms.endpoint", ("platforms/endpoint.py",)),
    ("platforms.routing", ("platforms/routing.py",)),
    ("platforms.hybrid", ("platforms/hybrid.py",)),
    ("core.executor", ("core/executor.py",)),
    ("serving", ("serving/",)),
    ("workload", ("workload/",)),
    ("core.study", ("core/study.py",)),
)
PACKAGE_NAMES = tuple(name for name, _ in PACKAGES) + ("other",)

_REPRO_ROOT = Path(repro.__file__).resolve().parent


class LayerTrace:
    """Wall time and counts per layer, gathered by wrapping entry points."""

    def __init__(self):
        self.counters: Dict[str, float] = {}
        self._saved = []
        self._pid = os.getpid()
        self._depth: Dict[str, int] = {}

    # -- counters -----------------------------------------------------------
    def add(self, key: str, value: float) -> None:
        """Add ``value`` to one counter."""
        self.counters[key] = self.counters.get(key, 0.0) + value

    def get(self, key: str) -> float:
        """One counter's value (0 when the layer never ran)."""
        return self.counters.get(key, 0.0)

    def _enter_worker(self) -> None:
        """In a forked worker, drop the counts inherited from the parent."""
        if os.getpid() != self._pid:
            self._pid = os.getpid()
            self.counters.clear()
            self._depth.clear()

    # -- patching -----------------------------------------------------------
    def _patch(self, owner, name: str, replacement) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _patch_function(self, module, name: str, wrap) -> None:
        """Replace a module function in every loaded module bound to it."""
        original = getattr(module, name)
        wrapped = wrap(original)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__dict__", {}).get(name) is original:
                self._patch(loaded, name, wrapped)

    def _timed(self, key: str, function: Callable) -> Callable:
        """Wrap ``function``, adding its outermost wall time to ``key``."""
        trace = self
        clock = time.perf_counter

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            depth = trace._depth.get(key, 0)
            trace._depth[key] = depth + 1
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                trace._depth[key] = depth
                if not depth:
                    trace.add(key, clock() - start)
        return wrapper

    def _counted(self, key: str, function: Callable) -> Callable:
        counters = self.counters

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            counters[key] = counters.get(key, 0.0) + 1.0
            return function(*args, **kwargs)
        return wrapper

    def install(self) -> "LayerTrace":
        """Wrap every traced entry point."""
        self._patch_function(generator, "standard_workload",
                             lambda f: self._timed("workload.gen_s", f))
        self._patch_function(platform_base, "build_platform",
                             self._wrap_build_platform)
        self._patch_function(parallel, "run_cells",
                             lambda f: self._timed("parallel.run_cells_s",
                                                   f))
        self._patch(shm, "pack_arrays", self._wrap_pack(shm.pack_arrays))
        self._patch(shm, "unpack_arrays",
                    self._wrap_unpack(shm.unpack_arrays))
        self._patch(ServingBenchmark, "run",
                    self._wrap_cell(ServingBenchmark.run))
        self._patch(Executor, "execute",
                    self._timed("executor.execute_s", Executor.execute))
        for owner, name in ((OutcomeRecorder, "table"),
                            (OutcomeTable, "fail_unfinished"),
                            (ChunkedOutcomeRecorder, "finalize")):
            self._patch(owner, name, self._timed("serving.table_s",
                                                 getattr(owner, name)))
        for owner in (OutcomeRecorder, ChunkedOutcomeRecorder):
            self._patch(owner, "commit",
                        self._counted("serving.commits", owner.commit))
        for name in RNG_DRAWS:
            self._patch(RandomStreams, name,
                        self._counted("rng.draws",
                                      getattr(RandomStreams, name)))
        self._patch(Study, "expansions",
                    self._timed("study.expand_s", Study.expansions))
        from_results = ResultFrame.__dict__["from_results"].__func__
        self._patch(ResultFrame, "from_results", classmethod(
            self._timed("study.frame_s", from_results)))
        return self

    def uninstall(self) -> None:
        """Put every original back (in reverse order of patching)."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- wrappers with side work -------------------------------------------
    def _wrap_cell(self, run: Callable) -> Callable:
        timed = self._timed("cell_s", run)

        @functools.wraps(run)
        def wrapper(*args, **kwargs):
            self._enter_worker()
            return timed(*args, **kwargs)
        return wrapper

    def _wrap_build_platform(self, build: Callable) -> Callable:
        timed_build = self._timed("platform.build_s", build)

        @functools.wraps(build)
        def wrapper(*args, **kwargs):
            outer = not self._depth.get("platform.build_s")
            platform = timed_build(*args, **kwargs)
            if outer:
                # Only the outermost platform is finalized by the caller.
                platform.finalize = self._timed("platform.finalize_s",
                                                platform.finalize)
            return platform
        return wrapper

    def _wrap_pack(self, pack: Callable) -> Callable:
        """Worker side: time the pack, ship this cell's counts with it."""
        def wrapper(payload, *args, **kwargs):
            start = time.perf_counter()
            packed = pack(payload, *args, **kwargs)
            self.add("transport.pack_s", time.perf_counter() - start)
            self.add("transport.cells", 1.0)
            moved = len(pickle.dumps(packed, pickle.HIGHEST_PROTOCOL))
            if isinstance(packed, shm.ShmPayload):
                moved += packed.total_bytes
                self.add("transport.shm_cells", 1.0)
            self.add("transport.bytes", float(moved))
            counts = dict(self.counters)
            self.counters.clear()
            return (_TAG, counts, packed)
        return wrapper

    def _wrap_unpack(self, unpack: Callable) -> Callable:
        """Parent side: fold a worker's counts in, time the unpack."""
        def wrapper(payload):
            if (isinstance(payload, tuple) and len(payload) == 3
                    and payload[0] == _TAG):
                for key, value in payload[1].items():
                    self.add(key, value)
                payload = payload[2]
            start = time.perf_counter()
            try:
                return unpack(payload)
            finally:
                self.add("transport.unpack_s", time.perf_counter() - start)
        return wrapper


def _package(filename: str) -> str:
    try:
        relative = Path(filename).resolve().relative_to(_REPRO_ROOT)
    except (ValueError, OSError):
        return "other"
    path = relative.as_posix()
    for name, prefixes in PACKAGES:
        if any(path.startswith(prefix) for prefix in prefixes):
            return name
    return "other"


def profile_shares(function: Callable) -> Tuple[object, int, Dict[str, float]]:
    """Run ``function`` once under cProfile.

    Returns its result, the total Python call count, and each package's
    share of the profiled self time.
    """
    profiler = cProfile.Profile()
    result = profiler.runcall(function)
    stats = pstats.Stats(profiler).stats
    self_time = dict.fromkeys(PACKAGE_NAMES, 0.0)
    calls = 0
    for (filename, _line, _name), (_cc, ncalls, tottime, _ct, _callers) \
            in stats.items():
        calls += ncalls
        self_time[_package(filename)] += tottime
    total = sum(self_time.values()) or 1.0
    return result, calls, {name: value / total
                           for name, value in self_time.items()}
