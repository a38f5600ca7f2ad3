"""Streaming (chunked) outcome recording for trace-scale runs.

The preallocated :class:`~repro.serving.outcome_table.OutcomeRecorder`
sizes one flat buffer from the workload's request count — perfect up to
a few hundred thousand requests, hopeless at ten million (the columns
alone are gigabytes, and every metric reduction walks all of them).
This module is the flat-RSS alternative:

* :class:`ChunkedOutcomeRecorder` writes outcomes into a ring of
  fixed-size :class:`~repro.serving.outcome_table.OutcomeColumns`
  blocks, the same column block the preallocated recorder grows.  A
  chunk *seals* once every row in it has been committed and the
  simulation clock has moved past the chunk's last send time by a
  safety lag (so late re-commits through ``platform.outcome_sink`` can
  still land).  A sealed chunk folds into an :class:`OutcomeSummary`
  and its buffers are recycled, so peak memory is bounded by the seal
  lag times the arrival rate, not the trace length.

* :class:`OutcomeSummary` is the online-reduction target: running
  sums/counts for means and ratios, exact min/max, a log-binned
  :class:`LatencySketch` for quantiles and SLO attainment, and a
  base-binned success timeline for ``availability`` /
  ``time_to_recover``.  It exposes the same reduction methods a full
  :class:`~repro.serving.outcome_table.OutcomeTable` does, so
  :class:`~repro.core.results.RunResult` and the study layer consume
  either interchangeably.

Accuracy contract (asserted by ``tests/test_streaming.py``):

==========================  =============================================
reduction                   streaming vs full-table
==========================  =============================================
counts, ratios, timeline    exact (integer accumulation)
mean latency                exact up to float summation order (~1e-12 rel)
std latency                 running-moments form, ~1e-9 rel
p50/p90/p95/p99             within one sketch bin (~0.4 % relative)
slo_attainment(target)      exact ratio at a target shifted by at most
                            one sketch bin (~0.4 % of the target)
min/max                     exact
==========================  =============================================
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List, Optional

import numpy as np

from repro.core.metrics import LatencyStats
from repro.serving.outcome_table import (
    OutcomeColumns,
    OutcomeTable,
    TimelineReductions,
    _intern_error,
)
from repro.serving.records import SERVED_BY_SPILL, RequestOutcome

#: Number of hybrid path codes tracked by the per-path accumulators
#: (direct / provisioned / spill; see ``repro.serving.records``).
_N_PATHS = 3

__all__ = ["LatencySketch", "OutcomeSummary", "ChunkedOutcomeRecorder"]

#: Default number of rows per column chunk (~8 MB of columns).
DEFAULT_CHUNK_ROWS = 65_536

#: Default seal lag in simulated seconds: a chunk only folds once the
#: clock is this far past its newest send time, so late-served requests
#: (client timed out at the 300 s deadline, invocation finished after)
#: can still be re-committed.  Matches the benchmark's default client
#: deadline plus drain slack.
DEFAULT_SEAL_LAG_S = 450.0


class LatencySketch:
    """Streaming latency distribution: exact moments + log-binned histogram.

    Latencies land in geometrically spaced bins covering ``[lo, hi)``
    (values outside clamp to the edge bins), so quantile queries are
    accurate to one bin — with the default 4096 bins over seven decades
    that is ~0.4 % relative resolution.  Mean/min/max are tracked
    exactly; the standard deviation uses the running-moments form.
    """

    __slots__ = ("lo", "hi", "bins", "_inv_log_step", "_log_lo", "counts",
                 "count", "total", "total_sq", "min", "max")

    def __init__(self, lo: float = 1e-4, hi: float = 1e3, bins: int = 4096):
        if not 0 < lo < hi:
            raise ValueError("need 0 < lo < hi")
        if bins < 2:
            raise ValueError("need at least two bins")
        self.lo = lo
        self.hi = hi
        self.bins = bins
        self._log_lo = math.log(lo)
        self._inv_log_step = bins / (math.log(hi) - self._log_lo)
        self.counts = np.zeros(bins, dtype=np.int64)
        self.count = 0
        self.total = 0.0
        self.total_sq = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, values: np.ndarray) -> None:
        """Fold a block of latency values (vectorised)."""
        if values.size == 0:
            return
        self.count += int(values.size)
        self.total += float(values.sum())
        self.total_sq += float(np.square(values).sum())
        self.min = min(self.min, float(values.min()))
        self.max = max(self.max, float(values.max()))
        clipped = np.clip(values, self.lo, None)
        index = ((np.log(clipped) - self._log_lo)
                 * self._inv_log_step).astype(np.int64)
        np.clip(index, 0, self.bins - 1, out=index)
        self.counts += np.bincount(index, minlength=self.bins)

    # -- queries ----------------------------------------------------------
    @property
    def mean(self) -> float:
        """Exact running mean (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    @property
    def std(self) -> float:
        """Population standard deviation from running moments."""
        if not self.count:
            return 0.0
        mean = self.mean
        return math.sqrt(max(self.total_sq / self.count - mean * mean, 0.0))

    def _edge(self, index: int) -> float:
        """Lower edge of bin ``index`` (geometric spacing)."""
        return math.exp(self._log_lo + index / self._inv_log_step)

    def quantile(self, q: float) -> float:
        """The ``q``-th percentile (0-100), accurate to one bin."""
        if not 0 <= q <= 100:
            raise ValueError("q must be within [0, 100]")
        if not self.count:
            return 0.0
        rank = q / 100.0 * (self.count - 1)
        cumulative = np.cumsum(self.counts)
        index = int(np.searchsorted(cumulative, rank, side="right"))
        index = min(index, self.bins - 1)
        # Geometric bin midpoint, clamped to the exact extremes.
        estimate = math.sqrt(self._edge(index) * self._edge(index + 1))
        return float(min(max(estimate, self.min), self.max))

    def count_at_most(self, value: float) -> int:
        """Number of folded values ``<= value`` (to one bin of slack)."""
        if not self.count:
            return 0
        if value >= self.max:
            return self.count
        if value < self.min:
            return 0
        index = int((math.log(max(value, self.lo)) - self._log_lo)
                    * self._inv_log_step)
        index = min(max(index, 0), self.bins - 1)
        return int(self.counts[:index + 1].sum())

    def stats(self) -> LatencyStats:
        """The sketch as a :class:`~repro.core.metrics.LatencyStats`."""
        if not self.count:
            return LatencyStats(count=0, mean=0.0, std=0.0, p50=0.0,
                                p90=0.0, p95=0.0, p99=0.0, min=0.0, max=0.0)
        return LatencyStats(
            count=self.count,
            mean=self.mean,
            std=self.std,
            p50=self.quantile(50.0),
            p90=self.quantile(90.0),
            p95=self.quantile(95.0),
            p99=self.quantile(99.0),
            min=self.min,
            max=self.max,
        )


class OutcomeSummary(TimelineReductions):
    """Online reductions over folded outcome chunks.

    The streaming replacement for holding a full
    :class:`~repro.serving.outcome_table.OutcomeTable` resident: every
    headline metric, SLO reduction, and study-layer column is served
    from running accumulators whose size is independent of the trace
    length.  Methods mirror the table's reduction API
    (:meth:`slo_attainment`, :meth:`availability`,
    :meth:`time_to_recover`, :meth:`success_timeline`,
    :meth:`attempts_mean`, :meth:`degraded_ratio`, :meth:`spill_ratio`,
    :meth:`path_latency_mean`) so results built on either backend answer
    the same questions; :meth:`availability` and :meth:`time_to_recover`
    are the table's own implementation, inherited from
    :class:`~repro.serving.outcome_table.TimelineReductions` and read
    off this summary's :meth:`success_timeline`.
    """

    #: Time resolution (seconds) of the streaming success timeline; any
    #: ``bin_s`` that is an integer multiple rebins exactly.
    base_bin_s = 1.0

    def __init__(self, sketch: Optional[LatencySketch] = None):
        self.count = 0
        self.success_count = 0
        self.cold_on_success = 0
        self.attempts_total = 0
        self.degraded_count = 0
        self.chunks_folded = 0
        self.latencies = sketch if sketch is not None else LatencySketch()
        #: Per-hybrid-path request counts, indexed by ``served_by`` code.
        self.path_counts = np.zeros(_N_PATHS, dtype=np.int64)
        #: Per-path successful-request counts.
        self.path_success_counts = np.zeros(_N_PATHS, dtype=np.int64)
        #: Per-path running sums of successful latencies (seconds).
        self.path_latency_totals = np.zeros(_N_PATHS, dtype=np.float64)
        #: Per-error-name failure/annotation counts.
        self.error_counts: Dict[str, int] = {}
        self.max_send_time = 0.0
        self._timeline_requests = np.zeros(0, dtype=np.int64)
        self._timeline_successes = np.zeros(0, dtype=np.int64)
        # Chained per-chunk digest (a plain hex string, so summaries
        # pickle across process boundaries unlike a live hash object).
        self._digest_hex = ""

    # -- folding ----------------------------------------------------------
    def fold(self, table: OutcomeTable) -> None:
        """Fold one sealed chunk (any :class:`OutcomeTable`) and forget it.

        Safe to call with chunks of any size, in row order; nothing from
        ``table`` is retained, so the caller may recycle its buffers.
        """
        n = table.count
        if n == 0:
            return
        self.chunks_folded += 1
        success = table.success
        n_success = int(success.sum())
        self.count += n
        self.success_count += n_success
        self.cold_on_success += int(table.cold_start[success].sum())
        self.attempts_total += int(table.attempts.sum())
        latency = table.completion_time - table.send_time
        success_latencies = latency[success]
        self.latencies.add(success_latencies)
        served = table.served_by
        if served.any():
            self.path_counts += np.bincount(served, minlength=_N_PATHS)
            for code in range(_N_PATHS):
                mask = success & (served == code)
                hits = int(mask.sum())
                if hits:
                    self.path_success_counts[code] += hits
                    self.path_latency_totals[code] += float(
                        latency[mask].sum())
        else:
            # All-direct chunk (every non-hybrid run): no masking needed.
            self.path_counts[0] += n
            self.path_success_counts[0] += n_success
            self.path_latency_totals[0] += float(success_latencies.sum())
        error_code = table.error_code
        if error_code.any():
            names = table.error_names
            counts = np.bincount(error_code, minlength=1)
            for code in np.flatnonzero(counts):
                if code == 0:       # code 0 is the empty (no-error) label
                    continue
                name = names[int(code)]
                self.error_counts[name] = (self.error_counts.get(name, 0)
                                           + int(counts[code]))
                if name == "degraded":
                    mask = success & (error_code == code)
                    self.degraded_count += int(mask.sum())
        send = table.send_time
        if n:
            self.max_send_time = max(self.max_send_time,
                                     float(send.max()))
        index = (send / self.base_bin_s).astype(np.int64)
        needed = int(index.max()) + 1 if n else 0
        if needed > self._timeline_requests.size:
            pad = needed - self._timeline_requests.size
            self._timeline_requests = np.concatenate(
                [self._timeline_requests, np.zeros(pad, dtype=np.int64)])
            self._timeline_successes = np.concatenate(
                [self._timeline_successes, np.zeros(pad, dtype=np.int64)])
        size = self._timeline_requests.size
        self._timeline_requests += np.bincount(index, minlength=size)
        self._timeline_successes += np.bincount(index[success],
                                                minlength=size)
        chained = hashlib.sha256(self._digest_hex.encode("ascii"))
        for column in (table.request_id, table.client_id, send,
                       table.completion_time, success, table.cold_start,
                       table.instance_id, table.billed_duration_s,
                       table.inferences, error_code, table.stages,
                       table.attempts):
            chained.update(np.ascontiguousarray(column))
        if served.any():
            # Hybrid chunks fold their path column into the digest;
            # all-direct chunks skip it so historical digests stay valid.
            chained.update(np.ascontiguousarray(served))
        chained.update("\x00".join(table.error_names).encode("utf-8"))
        self._digest_hex = chained.hexdigest()

    # -- headline reductions ----------------------------------------------
    @property
    def success_ratio(self) -> float:
        """Fraction of requests that succeeded (exact)."""
        return self.success_count / self.count if self.count else 0.0

    @property
    def average_latency(self) -> float:
        """Mean successful-request latency (exact running sum)."""
        return self.latencies.mean

    @property
    def cold_start_ratio(self) -> float:
        """Fraction of successful requests served by a cold instance."""
        if not self.success_count:
            return 0.0
        return self.cold_on_success / self.success_count

    def latency_stats(self) -> LatencyStats:
        """Distributional latency statistics (quantiles from the sketch)."""
        return self.latencies.stats()

    def attempts_mean(self) -> float:
        """Mean submission attempts per request (1.0 when empty)."""
        if not self.count:
            return 1.0
        return self.attempts_total / self.count

    def degraded_ratio(self) -> float:
        """Fraction of all requests served in brownout (degraded) mode."""
        if not self.count:
            return 0.0
        return self.degraded_count / self.count

    def spill_ratio(self) -> float:
        """Fraction of all requests a hybrid front door spilled to serverless.

        Exact (integer accumulation); 0.0 on non-hybrid runs and on
        empty summaries, mirroring the table reduction.
        """
        if not self.count:
            return 0.0
        return float(self.path_counts[SERVED_BY_SPILL]) / self.count

    def path_latency_mean(self, served_by: int) -> float:
        """Mean successful latency of one hybrid path (NaN when unserved).

        Served from exact running sums, so it matches the table
        reduction up to float summation order.
        """
        hits = int(self.path_success_counts[served_by])
        if not hits:
            return float("nan")
        return float(self.path_latency_totals[served_by]) / hits

    # -- SLO reductions ----------------------------------------------------
    def slo_attainment(self, target_s: float) -> float:
        """Fraction of all requests served successfully within ``target_s``.

        The successful-latency count comes from the sketch, so the
        effective target is shifted by at most one bin (~0.4 %).
        """
        if not self.count:
            return 1.0
        return self.latencies.count_at_most(target_s) / self.count

    def success_timeline(self, bin_s: float = 10.0):
        """Per-time-bin request and success counts (by send time).

        Exact whenever ``bin_s`` is an integer multiple of
        :attr:`base_bin_s` (it aggregates the base-resolution bins);
        other widths raise rather than silently approximating.
        """
        if bin_s <= 0:
            raise ValueError("bin_s must be positive")
        factor = bin_s / self.base_bin_s
        if abs(factor - round(factor)) > 1e-9:
            raise ValueError(
                f"streaming timeline requires bin_s to be a multiple of "
                f"{self.base_bin_s} s, got {bin_s}")
        factor = int(round(factor))
        if not self.count:
            empty = np.zeros(0)
            return empty, empty.astype(np.int64), empty.astype(np.int64)
        bins = int(self.max_send_time // bin_s) + 1
        padded = bins * factor
        requests = np.zeros(padded, dtype=np.int64)
        successes = np.zeros(padded, dtype=np.int64)
        used = min(self._timeline_requests.size, padded)
        requests[:used] = self._timeline_requests[:used]
        successes[:used] = self._timeline_successes[:used]
        requests = requests.reshape(bins, factor).sum(axis=1)
        successes = successes.reshape(bins, factor).sum(axis=1)
        return np.arange(bins) * bin_s, requests, successes

    # -- determinism -------------------------------------------------------
    def digest(self) -> str:
        """SHA-256 over every folded chunk's column bytes, in fold order.

        Equal digests mean bit-identical streaming runs *at the same
        chunk size* (the byte stream interleaves columns per chunk, so
        digests from different chunk sizes are not comparable — compare
        the reductions instead).  Empty string before the first fold.
        """
        return self._digest_hex


class _Chunk(OutcomeColumns):
    """One column block of the recorder ring plus its sealing counters."""

    __slots__ = ("uncommitted", "max_send")

    def __init__(self, rows: int):
        OutcomeColumns.__init__(self, rows)
        self.uncommitted = 0
        self.max_send = 0.0

    def reset(self) -> None:
        """Restore default column values and counters for ring reuse."""
        OutcomeColumns.reset(self)
        self.uncommitted = 0
        self.max_send = 0.0


class ChunkedOutcomeRecorder:
    """Chunk-ring write side of the outcome data plane.

    The write API of :class:`~repro.serving.outcome_table.
    OutcomeRecorder` (``register`` / ``commit``) over a ring of
    ``chunk_rows``-row column chunks instead of one flat preallocation.
    Once a chunk is fully committed and the clock has passed its newest
    send time by ``seal_lag_s``, it folds into :attr:`summary` and its
    buffers are recycled, so peak memory is bounded by the seal-lag
    window rather than the trace.  :meth:`finalize` fails still-open
    rows (the ``fail_unfinished`` semantics) and folds the tail,
    returning the summary.

    All chunks share one error vocabulary: the summary's digest hashes
    the vocabulary as it stands when each chunk folds.

    A commit that arrives for an already-folded row raises — that means
    ``seal_lag_s`` was smaller than the platform's late-service window
    and the run's reductions could silently drift otherwise.
    """

    def __init__(self, chunk_rows: int = DEFAULT_CHUNK_ROWS,
                 seal_lag_s: float = DEFAULT_SEAL_LAG_S):
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be positive")
        self.chunk_rows = int(chunk_rows)
        self.summary = OutcomeSummary()
        self.seal_lag_s = float(seal_lag_s)
        self.error_names: List[str] = [""]
        self._count = 0
        self._base = 0          # index of the oldest resident chunk
        self._resident: Dict[int, _Chunk] = {}
        self._free: List[_Chunk] = []
        self._clock = 0.0       # newest completion time observed
        self._inflight: Dict[int, RequestOutcome] = {}
        #: Peak number of simultaneously resident chunks (observability).
        self.peak_resident_chunks = 0
        self._finalized = False

    # -- write path --------------------------------------------------------
    def register(self, outcome: RequestOutcome) -> int:
        """Record a freshly issued request; returns its row index."""
        row = self._count
        self._count = row + 1
        index, offset = divmod(row, self.chunk_rows)
        chunk = self._resident.get(index)
        if chunk is None:
            if self._free:
                chunk = self._free.pop()
                chunk.reset()
            else:
                chunk = _Chunk(self.chunk_rows)
            self._resident[index] = chunk
            resident = len(self._resident)
            if resident > self.peak_resident_chunks:
                self.peak_resident_chunks = resident
        outcome.row = row
        self._inflight[row] = outcome
        chunk.uncommitted += 1
        send = outcome.send_time
        if send > chunk.max_send:
            chunk.max_send = send
        chunk.request_id[offset] = outcome.request_id
        chunk.client_id[offset] = outcome.client_id
        chunk.send_time[offset] = send
        if outcome.inferences != 1:
            chunk.inferences[offset] = outcome.inferences
        return row

    def commit(self, outcome: RequestOutcome) -> None:
        """Record a finished request's completion-time fields.

        Re-commits of still-resident rows rewrite in place (the
        late-served-after-timeout path); a commit to a folded row is a
        hard error — raise rather than drift.
        """
        row = outcome.row
        index, offset = divmod(row, self.chunk_rows)
        chunk = self._resident.get(index)
        if chunk is None:
            raise RuntimeError(
                f"commit for row {row} arrived after its chunk was folded; "
                f"increase seal_lag_s (currently {self.seal_lag_s} s)")
        if self._inflight.pop(row, None) is not None:
            chunk.uncommitted -= 1
        completion = outcome.completion_time
        chunk.completion_time[offset] = completion
        chunk.write_serve_fields(offset, outcome, self.error_names)
        if completion is not None and completion > self._clock:
            self._clock = completion
            self._seal_ready()

    # -- sealing -----------------------------------------------------------
    def _seal_ready(self) -> None:
        """Fold every leading chunk that is full, committed, and aged."""
        rows = self.chunk_rows
        horizon = self._clock - self.seal_lag_s
        while True:
            chunk = self._resident.get(self._base)
            if chunk is None:
                return
            if (self._count < (self._base + 1) * rows
                    or chunk.uncommitted
                    or chunk.max_send > horizon):
                return
            self.summary.fold(chunk.view(rows, self.error_names))
            del self._resident[self._base]
            self._free.append(chunk)
            self._base += 1

    # -- read side ---------------------------------------------------------
    def finalize(self, horizon: float,
                 error: str = "unfinished") -> OutcomeSummary:
        """Fail still-open rows at ``horizon`` and fold every tail chunk.

        Mirrors the full path's ``table()`` flush followed by
        ``OutcomeTable.fail_unfinished(horizon)``: partial serve state
        is written first, then open rows complete at
        ``max(horizon, send_time)`` as failures with ``error``.
        Returns the :class:`OutcomeSummary`; idempotent per run.
        """
        if self._finalized:
            return self.summary
        rows = self.chunk_rows
        # Partial serve state first, so errors already on in-flight rows
        # enter the vocabulary before ``error`` (the digest hashes it).
        for row, outcome in self._inflight.items():
            index, offset = divmod(row, rows)
            self._resident[index].write_serve_fields(offset, outcome,
                                                     self.error_names)
        if self._inflight:
            code = _intern_error(self.error_names, error)
            for row in self._inflight:
                index, offset = divmod(row, rows)
                chunk = self._resident[index]
                chunk.completion_time[offset] = max(
                    horizon, chunk.send_time[offset])
                chunk.success[offset] = False
                chunk.error_code[offset] = code
                chunk.uncommitted -= 1
            self._inflight.clear()
        for index in sorted(self._resident):
            chunk = self._resident[index]
            n = min(self._count - index * rows, rows)
            self.summary.fold(chunk.view(n, self.error_names))
        self._resident.clear()
        self._free.clear()
        self._finalized = True
        return self.summary
