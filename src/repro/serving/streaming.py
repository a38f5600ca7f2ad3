"""Outcome summaries: the one reducer of every run's outcomes, and the
chunk ring of trace-scale runs.

Every metric the paper reports is a reduction over one run's requests:
the latency of the successful ones, the success ratio, the cold-start
breakdown, the timelines.  :class:`OutcomeSummary` computes all of them,
and is the only place that does; an
:class:`~repro.serving.outcome_table.OutcomeTable` only stores rows.  A
summary comes from one of two folds:

* :meth:`OutcomeSummary.of_table` is one fold over a finished table,
  plus what only rows answer exactly: the rows' exact
  :class:`~repro.core.metrics.LatencyStats`, the table's
  :meth:`~repro.serving.outcome_table.OutcomeTable.column_hash`, the
  per-stage cold and warm sums of the Figure 10 / 14 breakdown, and the
  successful requests' send times and latencies (the failed ones' send
  times too), in row order.  A one-fold sum over a whole column is
  ``np.mean``'s sum, so every reduction is exactly the masked numpy
  reduction over the rows.  ``ServingBenchmark.run`` folds it as the
  run finishes; every cell that runs through the run cache then drops
  its rows where it finishes (in its worker, before the result is
  pickled back to the parent), and its summary keeps, of those
  row-order arrays, only the answers its studies declare
  (:meth:`OutcomeSummary.reduced`), a few kilobytes whatever the run's
  length.

* :class:`ChunkedOutcomeRecorder` is the flat-RSS write side for
  trace-scale runs.  The preallocated
  :class:`~repro.serving.outcome_table.OutcomeRecorder` sizes one flat
  buffer from the workload's request count — perfect up to a few
  hundred thousand requests, hopeless at ten million.  The ring hands
  serving rows of one
  :class:`~repro.serving.outcome_table.OutcomeColumns` block, grouped
  into fixed-size chunks.  A chunk *seals* once no row in it can still
  be written — every row committed, none held for a serverless
  invocation served after its client gave up — and the simulation clock
  has moved past the chunk's last send time by a safety lag.  A sealed
  chunk folds into an :class:`OutcomeSummary` (:meth:`OutcomeSummary.
  fold`: running sums and counts, exact min/max, a log-binned
  :class:`LatencySketch` for quantiles and SLO attainment, and a
  base-binned success timeline) and its rows are reused by a later
  chunk, so peak memory is bounded by the seal lag times the arrival
  rate, not the trace length.

Accuracy contract of a chunk-ring summary against the whole-table
summary of the same run (asserted by ``tests/test_streaming.py``):

==========================  =============================================
reduction                   chunk ring vs whole table
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

import copy
import hashlib
import math
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.metrics import LatencyStats
from repro.serving.outcome_table import (
    OutcomeColumns,
    OutcomeTable,
    _intern_error,
)
from repro.serving.records import SERVED_BY_SPILL, Stage

#: Number of hybrid path codes tracked by the per-path accumulators
#: (direct / provisioned / spill; see ``repro.serving.records``).
_N_PATHS = 3

#: The cold/warm breakdown sums: end-to-end latency, then every stage.
_BREAKDOWN_KEYS = ("e2e",) + Stage.ORDER

__all__ = ["LatencySketch", "OutcomeSummary", "ChunkedOutcomeRecorder",
           "declared_reads"]

#: The row-level answers a study may declare it reads (``Study.reads``):
#: ``("timeline", bin_s)`` is :meth:`OutcomeSummary.success_timeline`
#: and :meth:`OutcomeSummary.latency_sums` at that width, ``("slo",
#: target_s)`` is :meth:`OutcomeSummary.slo_attainment` at that target.
READ_KINDS = ("slo", "timeline")

#: Default number of rows per column chunk (~8 MB of columns).
DEFAULT_CHUNK_ROWS = 65_536

#: Default seal lag in simulated seconds: a chunk only folds once the
#: clock is this far past its newest send time.  Matches the
#: benchmark's default client deadline plus drain slack.
DEFAULT_SEAL_LAG_S = 450.0


class LatencySketch:
    """Streaming latency distribution: exact moments + log-binned histogram.

    Latencies land in geometrically spaced bins covering ``[lo, hi)``
    (values outside clamp to the edge bins), so quantile queries are
    accurate to one bin — with the default 4096 bins over seven decades
    that is ~0.4 % relative resolution.  Mean/min/max are tracked
    exactly; the standard deviation uses the running-moments form.
    ``bins=0`` keeps the moments and extremes alone, with no histogram
    and no quantiles: a whole-table summary's, whose rows answer every
    quantile exactly.
    """

    __slots__ = ("lo", "hi", "bins", "_inv_log_step", "_log_lo", "counts",
                 "count", "total", "total_sq", "min", "max")

    def __init__(self, lo: float = 1e-4, hi: float = 1e3, bins: int = 4096):
        if not 0 < lo < hi:
            raise ValueError("need 0 < lo < hi")
        if bins < 2 and bins != 0:
            raise ValueError("need at least two bins (or none)")
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
        if not self.bins:
            return
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

    def _require_histogram(self) -> None:
        if not self.bins:
            raise ValueError("a moments-only LatencySketch (bins=0) "
                             "answers no quantile")

    def _edge(self, index: int) -> float:
        """Lower edge of bin ``index`` (geometric spacing)."""
        return math.exp(self._log_lo + index / self._inv_log_step)

    def quantile(self, q: float) -> float:
        """The ``q``-th percentile (0-100), accurate to one bin."""
        if not 0 <= q <= 100:
            raise ValueError("q must be within [0, 100]")
        self._require_histogram()
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
        self._require_histogram()
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


def declared_reads(reads: Iterable[Tuple[str, float]]
                   ) -> Tuple[Tuple[str, float], ...]:
    """``reads``, pairs of a :data:`READ_KINDS` kind and a number, as a
    sorted tuple of unique ``(kind, float)`` pairs."""
    normalized = set()
    for read in reads:
        if not (isinstance(read, tuple) and len(read) == 2
                and read[0] in READ_KINDS):
            raise ValueError(f"unknown read {read!r}; a read is a (kind, "
                             f"value) pair, kind one of {READ_KINDS}")
        normalized.add((read[0], float(read[1])))
    return tuple(sorted(normalized))


def send_bins(send_time: np.ndarray, bin_s: float) -> np.ndarray:
    """Each send time's bin, ``floor(send_time / bin_s)``: the one
    binning behind every success and latency timeline."""
    if bin_s <= 0:
        raise ValueError("bin_s must be positive")
    return (send_time / bin_s).astype(np.int64)


class OutcomeSummary:
    """Every reduction of one run's request outcomes.

    The headline metrics, the SLO and timeline reductions
    (:meth:`slo_attainment`, :meth:`success_timeline`,
    :meth:`availability`, :meth:`time_to_recover`), the retry, brownout
    and hybrid-path ratios and the study-layer columns are all served
    from accumulators the folds fill.  A chunk-ring summary
    (:meth:`fold`) keeps only accumulators whose size is independent of
    the trace length.  A whole-table summary (:meth:`of_table`) also
    keeps what only rows answer exactly, and serves
    :meth:`latency_stats`, :meth:`slo_attainment`,
    :meth:`success_timeline`, :meth:`latency_sums` and
    :meth:`breakdown_means` from it, bit for bit as the masked numpy
    reductions over its rows.  A :meth:`reduced` whole-table summary has
    dropped its row-order arrays: it answers the SLO targets and
    timeline widths it was reduced to, bit for bit as before, and
    raises ``ValueError`` for any other.
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
        #: Sums over the successful cold-start (warm) requests: end-to-end
        #: latency, then each stage in ``Stage.ORDER`` (whole-table
        #: summaries only).
        self.cold_totals: Optional[np.ndarray] = None
        self.warm_totals: Optional[np.ndarray] = None
        #: Per-error-name failure/annotation counts.
        self.error_counts: Dict[str, int] = {}
        self.max_send_time = 0.0
        self._timeline_requests = np.zeros(0, dtype=np.int64)
        self._timeline_successes = np.zeros(0, dtype=np.int64)
        # Chained per-chunk digest (a plain hex string, so summaries
        # pickle across process boundaries unlike a live hash object).
        self._digest_hex = ""
        # What only a whole table answers exactly (see of_table); None
        # on a chunk-ring summary.
        self._stats: Optional[LatencyStats] = None
        self._column_hash: Optional[str] = None
        #: Send times and latencies of the successful requests, and the
        #: send times of the failed ones, in row order (whole-table
        #: summaries only).
        self.success_send: Optional[np.ndarray] = None
        self.success_latency: Optional[np.ndarray] = None
        self.failed_send: Optional[np.ndarray] = None
        #: The declared answers a :meth:`reduced` whole-table summary
        #: keeps instead of those arrays, by declaration; None otherwise.
        self.answers: Optional[Dict[Tuple[str, float], object]] = None

    @classmethod
    def of_table(cls, table: OutcomeTable) -> "OutcomeSummary":
        """The whole-table summary of a finished ``table``.

        One :meth:`fold`'s counts and sums over the table (a single
        fold sums each column in ``np.mean``'s order, so its means are
        the rows' masked means bit for bit; its sketch keeps no
        histogram), the cold and warm breakdown sums
        (:meth:`breakdown_means`), plus what only rows answer exactly:
        the rows' :class:`~repro.core.metrics.LatencyStats` and
        :meth:`~repro.serving.outcome_table.OutcomeTable.column_hash`,
        the successful requests' send times and latencies (16 bytes per
        success) and the failed requests' send times (8 bytes per
        failure), in row order.  Nothing else of ``table`` is kept.
        """
        summary = cls(LatencySketch(bins=0))
        if table.count:
            summary._add_sums(table)
        success = table.success
        latency = table.latency
        totals = []
        for mask in (success & table.cold_start, success & ~table.cold_start):
            # Each entry sums a masked column the way ``np.mean`` does,
            # so a sum over the masked row count is its masked mean.
            totals.append(np.array(
                [latency[mask].sum()]
                + [table.stage_column(name)[mask].sum()
                   for name in Stage.ORDER]))
        summary.cold_totals, summary.warm_totals = totals
        summary.success_send = table.send_time[success]
        summary.success_latency = latency[success]
        summary.failed_send = table.send_time[~success]
        summary._stats = LatencyStats.from_values(summary.success_latency)
        summary._column_hash = table.column_hash()
        return summary

    def reduced(self, reads: Iterable[Tuple[str, float]] = ()
                ) -> "OutcomeSummary":
        """A copy of this whole-table summary without its row-order
        arrays, keeping the answers ``reads`` declares (see
        :data:`READ_KINDS`): each computed by the method that answers it
        here, so it is this summary's answer bit for bit.  What the
        arrays answer besides raises ``ValueError`` on the copy.  A
        streamed or already reduced summary is returned as is.
        """
        if self.success_send is None:
            return self
        answers = {}
        for read in declared_reads(reads):
            kind, value = read
            if kind == "slo":
                answers[read] = self.slo_attainment(value)
            else:
                # The sums at their own length: latency_sums pads them
                # to any later ``bins`` as np.bincount's minlength does.
                answers[read] = (*self.success_timeline(value),
                                 self.latency_sums(value, 0))
        summary = copy.copy(self)
        summary.success_send = summary.success_latency = None
        summary.failed_send = None
        summary.answers = answers
        return summary

    def lacks(self, reads: Iterable[Tuple[str, float]]
              ) -> Tuple[Tuple[str, float], ...]:
        """The declarations of ``reads`` a :meth:`reduced` summary kept
        no answer for (none on any other summary)."""
        if self.answers is None:
            return ()
        return tuple(read for read in declared_reads(reads)
                     if read not in self.answers)

    def _answer(self, kind: str, value: float):
        """The kept answer of a :meth:`reduced` summary to one read."""
        read = (kind, float(value))
        if read not in self.answers:
            raise ValueError(
                f"this reduced OutcomeSummary keeps no answer for {read!r}; "
                f"declare it in the study's reads (kept: "
                f"{sorted(self.answers)})")
        return self.answers[read]

    @property
    def streamed(self) -> bool:
        """True for a chunk-ring summary; False for a whole-table one
        (:meth:`of_table`), which answers every reduction exactly."""
        return self._column_hash is None

    # -- folding ----------------------------------------------------------
    def fold(self, table: OutcomeTable) -> None:
        """Fold one sealed chunk (any :class:`OutcomeTable`) and forget it.

        Safe to call with chunks of any size, in row order; nothing from
        ``table`` is retained, so the caller may recycle its buffers.
        """
        if not table.count:
            return
        self._add_sums(table)
        send = table.send_time
        success = table.success
        index = send_bins(send, self.base_bin_s)
        needed = int(index.max()) + 1
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
                       table.inferences, table.error_code, table.stages,
                       table.attempts):
            chained.update(np.ascontiguousarray(column))
        served = table.served_by
        if served.any():
            # Hybrid chunks fold their path column into the digest;
            # all-direct chunks skip it so historical digests stay valid.
            chained.update(np.ascontiguousarray(served))
        chained.update("\x00".join(table.error_names).encode("utf-8"))
        self._digest_hex = chained.hexdigest()

    def _add_sums(self, table: OutcomeTable) -> None:
        """The counts and sums of a fold over a non-empty ``table``: all
        a whole table keeps of its fold (:meth:`of_table`), whose rows
        answer what the ring keeps its timeline and digest for."""
        n = table.count
        self.chunks_folded += 1
        success = table.success
        n_success = int(success.sum())
        self.count += n
        self.success_count += n_success
        self.attempts_total += int(table.attempts.sum())
        self.cold_on_success += int(table.cold_start[success].sum())
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
        self.max_send_time = max(self.max_send_time,
                                 float(table.send_time.max()))

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
        """Distributional latency statistics: exact on a whole-table
        summary, quantiles from the sketch on a streamed one."""
        if self._stats is not None:
            return self._stats
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
        empty summaries.
        """
        if not self.count:
            return 0.0
        return float(self.path_counts[SERVED_BY_SPILL]) / self.count

    def path_latency_mean(self, served_by: int) -> float:
        """Mean successful latency of one hybrid path (NaN when unserved).

        Served from running sums: exact on a whole-table summary, up to
        float summation order on a streamed one.
        """
        hits = int(self.path_success_counts[served_by])
        if not hits:
            return float("nan")
        return float(self.path_latency_totals[served_by]) / hits

    def breakdown_means(self, cold: bool) -> Dict[str, float]:
        """Mean seconds of the successful cold-start (or warm) requests:
        end to end (``"e2e"``), then per stage (``Stage.ORDER`` names);
        every entry 0.0 when there are no such requests.  Whole-table
        summaries only: the chunk ring keeps no breakdown sums."""
        if self.cold_totals is None:
            raise ValueError("a streamed OutcomeSummary keeps no "
                             "cold/warm breakdown")
        if cold:
            n, totals = self.cold_on_success, self.cold_totals
        else:
            n = self.success_count - self.cold_on_success
            totals = self.warm_totals
        return {key: float(total) / n if n else 0.0
                for key, total in zip(_BREAKDOWN_KEYS, totals)}

    # -- SLO reductions ----------------------------------------------------
    def slo_attainment(self, target_s: float) -> float:
        """Fraction of all requests served successfully within ``target_s``.

        Exact on a whole-table summary (a :meth:`reduced` one answers
        the targets it kept).  On a streamed one the successful-latency
        count comes from the sketch, so the effective target is shifted
        by at most one bin (~0.4 %).
        """
        if self.answers is not None:
            return self._answer("slo", target_s)
        if not self.count:
            return 1.0
        if self.success_latency is not None:
            return (float((self.success_latency <= target_s).sum())
                    / self.count)
        return self.latencies.count_at_most(target_s) / self.count

    def success_timeline(self, bin_s: float = 10.0):
        """Per-time-bin request and success counts (by send time).

        Exact at any ``bin_s`` on a whole-table summary (its rows' send
        times, binned by :func:`send_bins`; a :meth:`reduced` one answers
        the widths it kept).  On a streamed one, exact whenever
        ``bin_s`` is an integer multiple of :attr:`base_bin_s` (it
        aggregates the base-resolution bins); other widths raise rather
        than silently approximating.
        """
        if self.success_send is not None:
            success = send_bins(self.success_send, bin_s)
            requests = np.bincount(np.concatenate(
                (success, send_bins(self.failed_send, bin_s))))
            successes = np.bincount(success, minlength=len(requests))
            return np.arange(len(requests)) * bin_s, requests, successes
        if self.answers is not None:
            return self._answer("timeline", bin_s)[:3]
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

    def availability(self, bin_s: float = 10.0,
                     min_success_ratio: float = 0.5) -> float:
        """Fraction of time bins in which the service was *available*.

        A bin is available when the success ratio of the requests sent
        in it reaches ``min_success_ratio``; bins with no traffic count
        as available (nothing was refused).  This is the outage-visible
        metric: a 30 s dark window under 5 s bins costs ~6 bins of
        availability regardless of how many requests piled into it.
        """
        edges, requests, successes = self.success_timeline(bin_s)
        if len(edges) == 0:
            return 1.0
        active = requests > 0
        if not active.any():
            return 1.0
        ratio = successes[active] / requests[active]
        available = int((ratio >= min_success_ratio).sum())
        available += int((~active).sum())
        return available / len(edges)

    def time_to_recover(self, after_s: float, bin_s: float = 10.0,
                        min_success_ratio: float = 0.5) -> float:
        """Seconds from ``after_s`` until service is healthy again.

        Scans the :meth:`success_timeline` for the first bin starting at
        or after ``after_s`` (the end of an outage window) that carries
        traffic and meets ``min_success_ratio``; returns the gap between
        ``after_s`` and that bin's left edge — 0.0 when the first bin
        after the outage is already healthy.  Returns NaN when the
        service never recovers within the recorded horizon.
        """
        edges, requests, successes = self.success_timeline(bin_s)
        for index in range(len(edges)):
            if edges[index] + bin_s <= after_s:
                continue
            if requests[index] == 0:
                continue
            if successes[index] / requests[index] >= min_success_ratio:
                return float(max(edges[index] - after_s, 0.0))
        return float("nan")

    def latency_sums(self, bin_s: float, bins: int) -> np.ndarray:
        """Per-time-bin sums of the successful requests' latencies, by
        send time, over ``bins`` bins (whole-table summaries only: one
        ``np.bincount`` over the row-order arrays, or the sums a
        :meth:`reduced` one kept at ``bin_s``)."""
        if self.answers is not None:
            sums = self._answer("timeline", bin_s)[3]
            return np.pad(sums, (0, max(bins - len(sums), 0)))
        return np.bincount(send_bins(self.success_send, bin_s),
                           weights=self.success_latency, minlength=bins)

    # -- determinism -------------------------------------------------------
    def digest(self) -> str:
        """SHA-256 over every folded chunk's column bytes, in fold order.

        Equal digests mean bit-identical streaming runs *at the same
        chunk size* (the byte stream interleaves columns per chunk, so
        digests from different chunk sizes are not comparable — compare
        the reductions instead).  Empty string before the first fold,
        and on a whole-table summary (see :meth:`column_hash`).
        """
        return self._digest_hex

    def column_hash(self) -> str:
        """The summarised table's
        :meth:`~repro.serving.outcome_table.OutcomeTable.column_hash`
        (a whole-table summary; a streamed one has its :meth:`digest`)."""
        if self._column_hash is None:
            raise ValueError("a streamed OutcomeSummary keeps no column "
                             "hash; compare digest() instead")
        return self._column_hash

    # -- storage ----------------------------------------------------------
    def resident_bytes(self) -> int:
        """Bytes of array data this summary holds, its latency sketch's
        histogram and its kept timelines included."""
        arrays = [value for value in vars(self).values()
                  if isinstance(value, np.ndarray)]
        arrays.append(self.latencies.counts)
        for answer in (self.answers or {}).values():
            if isinstance(answer, tuple):
                arrays.extend(answer)
        return sum(array.nbytes for array in arrays)


class _Window(OutcomeColumns):
    """The ring's rows: one chunk-sized position per resident chunk
    (reused once the chunk folds, added only when all are resident).
    :attr:`pending` counts, per position, the rows whose writes may
    still come: uncommitted rows and rows held for a late serve (-1: no
    chunk holds the position)."""

    __slots__ = ("chunk_rows", "pending")

    def __init__(self, chunk_rows: int):
        OutcomeColumns.__init__(self, 0)
        self.chunk_rows = chunk_rows
        self.pending: List[int] = []

    def hold(self, row: int) -> None:
        """Keep ``row``'s chunk resident until :meth:`release`."""
        self.pending[row // self.chunk_rows] += 1

    def release(self, row: int) -> None:
        """The held row's late write landed; its chunk may seal again."""
        self.pending[row // self.chunk_rows] -= 1


class ChunkedOutcomeRecorder:
    """Chunk-ring write side of the outcome data plane.

    The write API of :class:`~repro.serving.outcome_table.
    OutcomeRecorder` (:attr:`columns`, ``register``, ``commit``) over
    ``chunk_rows``-row chunks, which occupy chunk-sized positions of
    :attr:`columns`.  A chunk folds into :attr:`summary` once it is
    full, no row in it can still be written (every row committed, none
    held for a late serve), and the clock has passed its newest send
    time by ``seal_lag_s``; its position is then reused by the next
    chunk, so peak memory is bounded by the seal-lag window rather than
    the trace.  :meth:`finalize` fails still-open rows, folds the tail
    and frees the block.

    ``register`` returns the row's place in :attr:`columns`, not in the
    run.  All chunks share one error vocabulary: the summary's digest
    hashes it as it stands when each chunk folds.  A commit for a row
    whose chunk was already folded raises.
    """

    def __init__(self, chunk_rows: int = DEFAULT_CHUNK_ROWS,
                 seal_lag_s: float = DEFAULT_SEAL_LAG_S):
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be positive")
        self.chunk_rows = int(chunk_rows)
        #: The rows serving writes (bound once per run by the platform).
        self.columns = _Window(self.chunk_rows)
        self.summary = OutcomeSummary()
        self.seal_lag_s = float(seal_lag_s)
        self.error_names: List[str] = [""]
        self._count = 0
        self._base = 0          # index of the oldest resident chunk
        self._resident: Dict[int, int] = {}   # chunk index -> position
        self._max_send: List[float] = []      # per position
        self._free: List[int] = []
        self._position = 0      # position of the chunk being filled
        self._clock = 0.0       # newest completion time observed
        #: Peak number of simultaneously resident chunks (observability).
        self.peak_resident_chunks = 0
        self._finalized = False

    # -- write path --------------------------------------------------------
    def register(self, request_id: int, client_id: int, send_time: float,
                 inferences: int = 1) -> int:
        """Record a freshly issued request; returns its row index."""
        count = self._count
        self._count = count + 1
        rows = self.chunk_rows
        offset = count % rows
        if offset == 0:
            self._open_chunk(count // rows)
        position = self._position
        row = position * rows + offset
        columns = self.columns
        columns.pending[position] += 1
        if send_time > self._max_send[position]:
            self._max_send[position] = send_time
        columns.request_id[row] = request_id
        columns.client_id[row] = client_id
        columns.send_time[row] = send_time
        if inferences != 1:
            columns.inferences[row] = inferences
        return row

    def _open_chunk(self, index: int) -> None:
        """Give chunk ``index`` a position: a folded chunk's, or a new one."""
        rows = self.chunk_rows
        columns = self.columns
        if self._free:
            position = self._free.pop()
            columns.reset(position * rows, (position + 1) * rows)
        else:
            position = len(columns.pending)
            columns.resize(columns.rows + rows)
            columns.pending.append(0)
            self._max_send.append(0.0)
        self._position = position
        columns.pending[position] = 0
        self._max_send[position] = 0.0
        self._resident[index] = position
        resident = len(self._resident)
        if resident > self.peak_resident_chunks:
            self.peak_resident_chunks = resident

    def commit(self, row: int) -> None:
        """Signal that the request in ``row`` finished at its client.

        Interns the row's error string and advances the ring's clock to
        its completion time, folding every chunk that became ready.  A
        commit to a row whose chunk was folded is a hard error.
        """
        columns = self.columns
        position = row // self.chunk_rows
        if columns.pending[position] < 0:
            raise RuntimeError(
                f"commit for row {row} arrived after its chunk was folded; "
                f"increase seal_lag_s (currently {self.seal_lag_s} s)")
        columns.pending[position] -= 1
        if columns.errors:
            columns.intern_errors(self.error_names, (row,))
        completion = columns.completion_time[row]
        if completion > self._clock:
            self._clock = completion
            self._seal_ready()

    # -- sealing -----------------------------------------------------------
    def _seal_ready(self) -> None:
        """Fold every leading chunk that is full, settled, and aged."""
        rows = self.chunk_rows
        horizon = self._clock - self.seal_lag_s
        pending = self.columns.pending
        while True:
            position = self._resident.get(self._base)
            if position is None:
                return
            if (self._count < (self._base + 1) * rows
                    or pending[position]
                    or self._max_send[position] > horizon):
                return
            self._fold(self._base, self._view(self._base))
            self._base += 1

    def _view(self, index: int) -> OutcomeTable:
        """The registered rows of resident chunk ``index`` (no copy)."""
        rows = self.chunk_rows
        start = self._resident[index] * rows
        count = min(self._count - index * rows, rows)
        return self.columns.view(start, start + count, self.error_names)

    def _fold(self, index: int, table: OutcomeTable) -> None:
        """Fold chunk ``index`` (as ``table``) and free its position."""
        self.summary.fold(table)
        position = self._resident.pop(index)
        self.columns.pending[position] = -1
        self._free.append(position)

    # -- read side ---------------------------------------------------------
    @property
    def last_completion_time(self) -> float:
        """Latest completion time of a committed request (0 if none)."""
        return float(self._clock)

    def finalize(self, horizon: float,
                 error: str = "unfinished") -> OutcomeSummary:
        """Fail still-open rows at ``horizon`` and fold every tail chunk.

        The full path's ``table()`` followed by
        ``OutcomeTable.fail_unfinished(horizon)``, chunk by chunk: open
        rows (no completion time) complete at ``max(horizon,
        send_time)`` as failures with ``error``.  Returns the
        :class:`OutcomeSummary`; idempotent per run.
        """
        if self._finalized:
            return self.summary
        self.columns.intern_errors(self.error_names)
        tables = [(index, self._view(index))
                  for index in sorted(self._resident)]
        if any(np.isnan(table.completion_time).any() for _, table in tables):
            # Interned before the first tail chunk folds: the digest
            # hashes the vocabulary as each chunk folds.
            _intern_error(self.error_names, error)
        for index, table in tables:
            table.fail_unfinished(horizon, error)
            self._fold(index, table)
        self.columns.resize(0)
        self._finalized = True
        return self.summary
