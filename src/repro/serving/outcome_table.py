"""Columnar (struct-of-arrays) request outcomes.

The simulation's data plane used to be a ``List[RequestOutcome]`` — one
Python object plus one breakdown dict per request, walked by list
comprehensions for every metric and re-pickled wholesale through the
process pool.  :class:`OutcomeTable` replaces that with numpy columns:
every metric becomes a masked reduction, result transport shrinks to a
handful of compact arrays, and the per-request objects only live while
their request is in flight.

:class:`OutcomeRecorder` is the write side: preallocated to the
workload's known request count, it captures a request's issue-time
fields when the executor creates it and the completion-time fields when
the platform finishes it, after which the Python object is garbage.
Its rows live in one :class:`OutcomeColumns` block, the same block the
streaming ring of :mod:`repro.serving.streaming` recycles: the per-row
columns, their defaults, the serve-field writes and the zero-copy table
view are defined once, there.

``RequestOutcome`` remains the in-flight representation (platforms
mutate it incrementally) and the API-compatibility view:
:meth:`OutcomeTable.to_outcomes` reconstructs equivalent objects on
demand.  Reconstruction drops breakdown stages whose accumulated value
is exactly 0.0 (the table cannot distinguish "absent" from "zero");
``RequestOutcome.stage`` reports 0.0 for both, so metrics are unchanged.

A table stores only what its run produced.  A column whose rows all
hold the recorder default is a zero-byte, read-only ``np.broadcast_to``
view; ``request_id`` is not stored when it is the row number; and only
stage columns that are non-zero somewhere are stored.  The omitted
columns are rebuilt when read, so every reader sees the same dense
values (and :meth:`OutcomeTable.column_hash` the same bytes) as if
they were stored.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.core.metrics import LatencyStats
from repro.serving.records import (
    SERVED_BY_SPILL,
    RequestOutcome,
    Stage,
)

__all__ = ["OutcomeTable", "OutcomeColumns", "OutcomeRecorder"]

#: Column order of the per-stage latency matrix.
STAGE_ORDER = Stage.ORDER
_STAGE_INDEX: Dict[str, int] = {name: i for i, name in enumerate(STAGE_ORDER)}
_N_STAGES = len(STAGE_ORDER)

#: Every per-row column of a recorder block: its dtype and the value a
#: row holds until a request writes it.  Stages are separate: one
#: float64 column per stage, default 0.0.
_COLUMNS = {
    "request_id": (np.int64, 0),
    "client_id": (np.int32, 0),
    "send_time": (np.float64, 0.0),
    "completion_time": (np.float64, np.nan),
    "success": (np.bool_, False),
    "cold_start": (np.bool_, False),
    "instance_id": (np.int64, -1),
    "billed_duration_s": (np.float64, 0.0),
    "inferences": (np.int32, 1),
    "error_code": (np.int16, 0),
    "attempts": (np.int32, 1),
    "served_by": (np.int8, 0),
}

#: The columns a run may leave untouched (server platforms never write
#: the serverless fields; only retries, batching, hybrids and failures
#: write the rest), in constructor argument order.
_DEFAULTS = {name: _COLUMNS[name] for name in (
    "cold_start", "instance_id", "billed_duration_s", "inferences",
    "error_code", "attempts", "served_by")}


def _filled(count: int, dtype, value) -> np.ndarray:
    """A zero-byte, read-only column of ``count`` copies of ``value``."""
    return np.broadcast_to(np.array(value, dtype=dtype), (count,))


def _sequential(request_id, count: int) -> bool:
    """Whether ``request_id`` is ``arange(count)`` (None stands for it)."""
    if request_id is None or count == 0:
        return True
    return bool(request_id[0] == 0 and request_id[-1] == count - 1
                and np.array_equal(request_id,
                                   np.arange(count, dtype=np.int64)))


class TimelineReductions:
    """The reductions both outcome backends compute from one timeline.

    :class:`OutcomeTable` and the streaming
    :class:`~repro.serving.streaming.OutcomeSummary` each expose
    ``success_timeline(bin_s) -> (edges, requests, successes)``; the
    timeline-level metrics are written once, here, over that.
    """

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


class OutcomeTable(TimelineReductions):
    """Immutable-ish struct-of-arrays over one run's request outcomes.

    Columns (all length ``count``):

    * ``request_id``   int64
    * ``client_id``    int32
    * ``send_time``    float64 (seconds)
    * ``completion_time`` float64 (NaN while unfinished)
    * ``success``      bool
    * ``cold_start``   bool
    * ``instance_id``  int64 (-1 = never assigned)
    * ``billed_duration_s`` float64
    * ``inferences``   int32
    * ``error_code``   int16 (index into ``error_names``; 0 = no error)
    * ``attempts``     int32 (submission attempts; 1 = no retries)
    * ``served_by``    int8 (hybrid path code; 0 = direct, 1 =
      provisioned fleet, 2 = serverless spill)
    * ``stages``       float64 matrix of shape (count, len(Stage.ORDER))

    Columns may be read-only views.  The constructor stores only what
    the run produced: a column whose rows all hold the recorder default
    (``cold_start`` False, ``instance_id`` -1, ``billed_duration_s``
    0.0, ``inferences`` 1, ``error_code`` 0, ``attempts`` 1,
    ``served_by`` 0) becomes a zero-byte read-only broadcast view;
    ``request_id`` is not stored when it equals ``arange(count)``; and
    only stage columns that are non-zero on some row are stored.
    ``request_id`` and ``stages`` are rebuilt (read-only) on every
    read, so prefer :meth:`stage_column` for one stage.

    The constructor takes ``stages`` as one float64 column per stage in
    ``Stage.ORDER``.  Any of the defaultable columns, ``request_id`` and
    any stage column may be passed as None to mean "all default".
    :meth:`resident_bytes` reports what is stored.
    """

    def __init__(self, request_id, client_id, send_time, completion_time,
                 success, cold_start, instance_id, billed_duration_s,
                 inferences, error_code, stages,
                 error_names: Sequence[str] = ("",), attempts=None,
                 served_by=None):
        count = int(send_time.shape[0])
        self._request_id = (None if _sequential(request_id, count)
                            else request_id)
        self.client_id = client_id
        self.send_time = send_time
        self.completion_time = completion_time
        self.success = success
        defaultable = (cold_start, instance_id, billed_duration_s,
                       inferences, error_code, attempts, served_by)
        for (name, (dtype, default)), column in zip(_DEFAULTS.items(),
                                                    defaultable):
            if column is None or not (column != default).any():
                column = _filled(count, dtype, default)
            setattr(self, name, column)
        #: Stored stage columns by name, in ``STAGE_ORDER``.
        self._stages: Dict[str, np.ndarray] = {
            name: column for name, column in zip(STAGE_ORDER, stages)
            if column is not None and column.any()}
        self.error_names: List[str] = list(error_names)

    # -- shape ----------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of recorded requests."""
        return int(self.send_time.shape[0])

    def __len__(self) -> int:
        return self.count

    # -- storage --------------------------------------------------------------
    @property
    def request_id(self) -> np.ndarray:
        """Request ids (int64); the row numbers when not stored."""
        if self._request_id is None:
            ids = np.arange(self.count, dtype=np.int64)
            ids.flags.writeable = False
            return ids
        return self._request_id

    @property
    def stages(self) -> np.ndarray:
        """The (count, len(Stage.ORDER)) stage matrix, rebuilt read-only
        from the stored stage columns (unproduced stages read 0.0)."""
        matrix = np.zeros((self.count, _N_STAGES), dtype=np.float64)
        for name, column in self._stages.items():
            matrix[:, _STAGE_INDEX[name]] = column
        matrix.flags.writeable = False
        return matrix

    def resident_bytes(self) -> int:
        """Bytes of column data this table stores (zero-byte views and
        rebuilt columns count 0)."""
        columns = [self.client_id, self.send_time, self.completion_time,
                   self.success, *self._stages.values()]
        columns.extend(getattr(self, name) for name in _DEFAULTS)
        if self._request_id is not None:
            columns.append(self._request_id)
        return sum(column.nbytes for column in columns
                   if column.strides != (0,))

    # -- derived columns -------------------------------------------------------
    @property
    def latency(self) -> np.ndarray:
        """End-to-end latency per request (NaN where unfinished)."""
        return self.completion_time - self.send_time

    def successful_latencies(self) -> np.ndarray:
        """Latencies of the successful requests (the paper's headline set)."""
        return self.latency[self.success]

    # -- headline reductions ---------------------------------------------------
    @property
    def success_ratio(self) -> float:
        """Fraction of requests that succeeded (the paper's SR metric)."""
        count = self.count
        if count == 0:
            return 0.0
        return int(self.success.sum()) / count

    @property
    def average_latency(self) -> float:
        """Mean end-to-end latency of the *successful* requests."""
        latencies = self.successful_latencies()
        if latencies.size == 0:
            return 0.0
        return float(latencies.mean())

    @property
    def cold_start_ratio(self) -> float:
        """Fraction of successful requests served by a cold instance."""
        success = self.success
        n_success = int(success.sum())
        if n_success == 0:
            return 0.0
        return int(self.cold_start[success].sum()) / n_success

    def latency_stats(self) -> LatencyStats:
        """Exact distributional statistics over successful latencies."""
        return LatencyStats.from_values(self.successful_latencies())

    def stage_column(self, stage: str) -> np.ndarray:
        """Accumulated seconds in one breakdown stage, per request (the
        stored column, or a zero-byte column of zeros)."""
        column = self._stages.get(stage)
        if column is None:
            if stage not in _STAGE_INDEX:
                raise KeyError(f"unknown stage {stage!r}")
            return _filled(self.count, np.float64, 0.0)
        return column

    def error_strings(self) -> List[str]:
        """Per-request error messages ('' for plain successful requests;
        successful brownout completions carry ``"degraded"``)."""
        names = self.error_names
        return [names[code] for code in self.error_code.tolist()]

    def attempts_mean(self) -> float:
        """Mean submission attempts per request (retry amplification).

        1.0 means no request was retried; under chaos schedules with
        client-side retries this is the plottable amplification factor.
        An empty table reports 1.0.
        """
        if self.count == 0:
            return 1.0
        return float(self.attempts.mean())

    def degraded_ratio(self) -> float:
        """Fraction of all requests served in brownout (degraded) mode.

        Degraded completions are *successes* carrying the reserved error
        label ``"degraded"`` (the router served them from the cheaper
        brownout backend instead of shedding).  0.0 when the run never
        browned out; an empty table reports 0.0.
        """
        if self.count == 0:
            return 0.0
        try:
            code = self.error_names.index("degraded")
        except ValueError:
            return 0.0
        mask = self.success & (self.error_code == code)
        return float(mask.sum()) / self.count

    def spill_ratio(self) -> float:
        """Fraction of all requests a hybrid front door spilled to serverless.

        0.0 on non-hybrid runs (every request keeps the direct code) and
        on hybrid runs whose provisioned fleet never saturated; an empty
        table reports 0.0.
        """
        if self.count == 0:
            return 0.0
        return float((self.served_by == SERVED_BY_SPILL).sum()) / self.count

    def path_latency_mean(self, served_by: int) -> float:
        """Mean successful latency of one hybrid path (NaN when unserved).

        ``served_by`` is a :data:`~repro.serving.records.SERVED_BY_NAMES`
        code; the reduction mirrors the headline ``avg_latency_s`` but
        restricted to the requests that path completed successfully.
        """
        mask = self.success & (self.served_by == served_by)
        if not mask.any():
            return float("nan")
        return float(self.latency[mask].mean())

    # -- SLO reductions --------------------------------------------------------
    def slo_attainment(self, target_s: float) -> float:
        """Fraction of *all* requests served successfully within ``target_s``.

        The service-level objective of the chaos studies: failed,
        timed-out, and shed requests all count against attainment, not
        just slow successes.  An empty table attains vacuously (1.0).
        """
        if self.count == 0:
            return 1.0
        meeting = self.success & (self.latency <= target_s)
        return float(meeting.sum()) / self.count

    def success_timeline(self, bin_s: float = 10.0):
        """Per-time-bin request and success counts (by send time).

        Returns ``(edges, requests, successes)``: bin left edges from 0
        to the last send time in ``bin_s`` steps, and two aligned count
        arrays.  The shared binning behind :meth:`availability` and
        :meth:`time_to_recover`.
        """
        if bin_s <= 0:
            raise ValueError("bin_s must be positive")
        if self.count == 0:
            empty = np.zeros(0)
            return empty, empty.astype(np.int64), empty.astype(np.int64)
        bins = int(np.floor(self.send_time.max() / bin_s)) + 1
        index = np.minimum((self.send_time / bin_s).astype(np.int64),
                           bins - 1)
        requests = np.bincount(index, minlength=bins)
        successes = np.bincount(index[self.success], minlength=bins)
        edges = np.arange(bins) * bin_s
        return edges, requests, successes

    # -- mutation (benchmark-internal) ----------------------------------------
    def fail_unfinished(self, horizon: float,
                        error: str = "unfinished") -> int:
        """Mark still-open requests as failed at ``horizon`` (vectorised).

        Returns the number of requests so marked.  Mirrors the per-object
        ``outcome.finish(max(horizon, send_time), success=False)`` the
        benchmark used to apply in a Python loop.
        """
        open_mask = np.isnan(self.completion_time)
        n_open = int(open_mask.sum())
        if n_open == 0:
            return 0
        if not self.error_code.flags.writeable:
            # An all-default column is a read-only view: write to a copy.
            self.error_code = self.error_code.copy()
        self.completion_time[open_mask] = np.maximum(
            horizon, self.send_time[open_mask])
        self.success[open_mask] = False
        self.error_code[open_mask] = _intern_error(self.error_names, error)
        return n_open

    # -- interchange -----------------------------------------------------------
    @classmethod
    def from_outcomes(cls, outcomes: Iterable[RequestOutcome]) -> "OutcomeTable":
        """Build a table from materialised outcome objects.

        Unfinished outcomes keep everything except the completion fields
        (``table()`` flushes their partial state, including any error
        string already set).  The objects themselves are left untouched —
        the recorder's row bookkeeping is not leaked back to the caller.
        """
        recorder = OutcomeRecorder(capacity=0)
        for outcome in outcomes:
            caller_row = outcome.row
            recorder.register(outcome)
            if outcome.completion_time is not None:
                recorder.commit(outcome)
            outcome.row = caller_row
        return recorder.table()

    def row(self, index: int) -> RequestOutcome:
        """Reconstruct one request's outcome object."""
        completion = float(self.completion_time[index])
        instance = int(self.instance_id[index])
        breakdown: Dict[str, float] = {}
        for name in STAGE_ORDER:
            seconds = float(self.stage_column(name)[index])
            if seconds != 0.0:
                breakdown[name] = seconds
        ids = self._request_id
        return RequestOutcome(
            # Sequential ids are the row numbers; no O(n) rebuild per row.
            request_id=(range(self.count)[index] if ids is None
                        else int(ids[index])),
            client_id=int(self.client_id[index]),
            send_time=float(self.send_time[index]),
            completion_time=None if np.isnan(completion) else completion,
            success=bool(self.success[index]),
            error=self.error_names[int(self.error_code[index])],
            cold_start=bool(self.cold_start[index]),
            instance_id=None if instance < 0 else instance,
            billed_duration_s=float(self.billed_duration_s[index]),
            inferences=int(self.inferences[index]),
            breakdown=breakdown,
            attempts=int(self.attempts[index]),
            served_by=int(self.served_by[index]),
        )

    def to_outcomes(self) -> List[RequestOutcome]:
        """Reconstruct the full list of outcome objects (API-compat view).

        Reads every column once (as a Python list) rather than indexing
        numpy scalars row by row; the objects equal :meth:`row`'s.
        """
        names = self.error_names
        stages = [(name, column.tolist())
                  for name, column in self._stages.items()]
        outcomes = []
        for index, (request_id, client_id, send, completion, success,
                    code, cold, instance, billed, inferences, attempts,
                    served_by) in enumerate(zip(
                        self.request_id.tolist(), self.client_id.tolist(),
                        self.send_time.tolist(),
                        self.completion_time.tolist(),
                        self.success.tolist(), self.error_code.tolist(),
                        self.cold_start.tolist(), self.instance_id.tolist(),
                        self.billed_duration_s.tolist(),
                        self.inferences.tolist(), self.attempts.tolist(),
                        self.served_by.tolist())):
            breakdown: Dict[str, float] = {}
            for name, seconds in stages:
                if seconds[index] != 0.0:
                    breakdown[name] = seconds[index]
            outcomes.append(RequestOutcome(
                request_id=request_id,
                client_id=client_id,
                send_time=send,
                # NaN (unfinished) is the one value unequal to itself.
                completion_time=(None if completion != completion
                                 else completion),
                success=success,
                error=names[code],
                cold_start=cold,
                instance_id=None if instance < 0 else instance,
                billed_duration_s=billed,
                inferences=inferences,
                breakdown=breakdown,
                attempts=attempts,
                served_by=served_by,
            ))
        return outcomes

    # -- wire format -----------------------------------------------------------
    def packed(self) -> dict:
        """A compact lossless encoding for cross-process transport.

        Applied tricks (all exactly invertible):

        * ``request_id`` is elided when it equals ``arange(count)`` (the
          executor's normal sequential numbering);
        * integer columns travel as int32, booleans as ``packbits`` bit
          arrays;
        * columns that are mostly zero (billed duration on server
          platforms, the cold-only stage columns) travel as
          ``(indices, values)`` pairs; all-default columns vanish.
        """
        count = self.count
        packed: dict = {"count": count, "errors": self.error_names}
        if self._request_id is not None:
            packed["request_id"] = self._request_id.astype(np.int64)
        packed["client_id"] = self.client_id.astype(np.int32)
        packed["send_time"] = self.send_time
        packed["completion_time"] = self.completion_time
        packed["success"] = np.packbits(self.success)
        if self.cold_start.any():
            packed["cold_start"] = np.packbits(self.cold_start)
        if (self.instance_id >= 0).any():
            packed["instance_id"] = self.instance_id.astype(np.int32)
        if (self.inferences != 1).any():
            packed["inferences"] = self.inferences.astype(np.int32)
        if self.error_code.any():
            packed["error_code"] = self.error_code
        if (self.attempts != 1).any():
            packed["attempts"] = self.attempts.astype(np.int32)
        if self.served_by.any():
            packed["served_by"] = self.served_by.astype(np.int8)
        packed["billed_duration_s"] = _pack_sparse(self.billed_duration_s)
        packed["stages"] = [_pack_sparse(self.stage_column(name))
                            for name in STAGE_ORDER]
        return packed

    @classmethod
    def from_packed(cls, packed: dict) -> "OutcomeTable":
        """Rebuild a table from :meth:`packed` output (exact inverse).

        Fields the wire format left out become the constructor's
        zero-byte defaults; no full-size default array is allocated.
        """
        count = packed["count"]
        cold = packed.get("cold_start")
        return cls(
            request_id=_widened(packed.get("request_id"), np.int64),
            client_id=packed["client_id"].astype(np.int32),
            send_time=packed["send_time"],
            completion_time=packed["completion_time"],
            success=np.unpackbits(packed["success"],
                                  count=count).astype(bool),
            cold_start=(None if cold is None else
                        np.unpackbits(cold, count=count).astype(bool)),
            instance_id=_widened(packed.get("instance_id"), np.int64),
            billed_duration_s=_unpack_sparse(packed["billed_duration_s"],
                                             count),
            inferences=_widened(packed.get("inferences"), np.int32),
            error_code=packed.get("error_code"),
            stages=[_unpack_sparse(column, count)
                    for column in packed["stages"]],
            error_names=packed["errors"],
            attempts=_widened(packed.get("attempts"), np.int32),
            served_by=_widened(packed.get("served_by"), np.int8),
        )

    # -- determinism -----------------------------------------------------------
    def column_hash(self) -> str:
        """SHA-256 over every column's bytes (golden-hash determinism tests).

        Equal hashes mean bit-identical runs: same times, same successes,
        same stage breakdowns, same error assignments.
        """
        digest = hashlib.sha256()
        for column in (self.request_id, self.client_id, self.send_time,
                       self.completion_time, self.success, self.cold_start,
                       self.instance_id, self.billed_duration_s,
                       self.inferences, self.error_code, self.stages):
            digest.update(np.ascontiguousarray(column))
        if (self.attempts != 1).any():
            # Retried runs hash their attempts column; retry-free runs
            # skip it so historical golden digests stay valid.
            digest.update(np.ascontiguousarray(self.attempts))
        if self.served_by.any():
            # Same rule for the hybrid path column: only hybrid runs
            # (the only producers of non-zero codes) hash it.
            digest.update(np.ascontiguousarray(self.served_by))
        digest.update("\x00".join(self.error_names).encode("utf-8"))
        return digest.hexdigest()


def _pack_sparse(column: np.ndarray):
    """Shrink a float column: None (all zero) / scalar (constant) /
    (indices, values) (mostly zero) / dense ndarray."""
    nonzero = np.flatnonzero(column)
    if nonzero.size == 0:
        return None
    first = column[0]
    if nonzero.size == column.size and (column == first).all():
        # e.g. the HANDLER stage: a per-run constant on every request.
        return float(first)
    if nonzero.size * 3 < column.size:  # 12B/entry sparse vs 8B/entry dense
        return (nonzero.astype(np.int32), column[nonzero])
    return column


def _unpack_sparse(packed, count: int):
    """Inverse of :func:`_pack_sparse` (None stays None: all zero)."""
    if packed is None:
        return None
    if isinstance(packed, float):
        return np.full(count, packed, dtype=np.float64)
    if isinstance(packed, tuple):
        column = np.zeros(count, dtype=np.float64)
        indices, values = packed
        column[indices] = values
        return column
    return packed


def _widened(column, dtype):
    """A packed integer column back at its table dtype (None stays None)."""
    return None if column is None else column.astype(dtype)


def _intern_error(names: List[str], error: str) -> int:
    """Index of ``error`` in the vocabulary, appending it if new."""
    try:
        return names.index(error)
    except ValueError:
        names.append(error)
        return len(names) - 1


class OutcomeColumns:
    """One block of recorder columns: ``rows`` rows of every per-row
    column plus one float64 column per stage.

    Both recorders write through blocks: :class:`OutcomeRecorder` keeps
    one and grows it, the streaming ring recycles fixed-size ones.
    """

    __slots__ = (*_COLUMNS, "stages", "rows")

    def __init__(self, rows: int):
        self.rows = rows
        for name, (dtype, default) in _COLUMNS.items():
            # np.zeros leaves the pages of a column never written
            # unmapped, so an untouched zero-default column costs no
            # resident memory.
            setattr(self, name, np.zeros(rows, dtype=dtype) if default == 0
                    else np.full(rows, default, dtype=dtype))
        #: One column per breakdown stage, by name (a table keeps only
        #: the produced ones, without copying them).
        self.stages: Dict[str, np.ndarray] = {
            name: np.zeros(rows, dtype=np.float64) for name in STAGE_ORDER}

    def reset(self) -> None:
        """Restore every row to the column defaults (for reuse)."""
        for name, (_dtype, default) in _COLUMNS.items():
            getattr(self, name)[:] = default
        for column in self.stages.values():
            column[:] = 0.0

    def grown(self, rows: int) -> "OutcomeColumns":
        """A new ``rows``-row block that starts with this block's rows."""
        block = OutcomeColumns(rows)
        n = self.rows
        for name in _COLUMNS:
            getattr(block, name)[:n] = getattr(self, name)
        for name, column in self.stages.items():
            block.stages[name][:n] = column
        return block

    def write_serve_fields(self, row: int, outcome: RequestOutcome,
                           error_names: List[str]) -> None:
        """Write what serving set on ``outcome`` into ``row``.

        Only non-default values are written; ``error_names`` is the
        recorder's error vocabulary, extended when the error is new.
        """
        if outcome.error:
            self.error_code[row] = _intern_error(error_names, outcome.error)
        if outcome.success:
            self.success[row] = True
        if outcome.cold_start:
            self.cold_start[row] = True
        if outcome.instance_id is not None:
            self.instance_id[row] = outcome.instance_id
        if outcome.billed_duration_s:
            self.billed_duration_s[row] = outcome.billed_duration_s
        if outcome.attempts != 1:
            self.attempts[row] = outcome.attempts
        if outcome.served_by:
            self.served_by[row] = outcome.served_by
        breakdown = outcome.breakdown
        if breakdown:
            stages = self.stages
            for name, seconds in breakdown.items():
                stages[name][row] = seconds

    def view(self, n: int, error_names: List[str]) -> OutcomeTable:
        """The first ``n`` rows as an :class:`OutcomeTable`, without a
        copy: the table shares this block's buffers."""
        return OutcomeTable(
            request_id=self.request_id[:n],
            client_id=self.client_id[:n],
            send_time=self.send_time[:n],
            completion_time=self.completion_time[:n],
            success=self.success[:n],
            cold_start=self.cold_start[:n],
            instance_id=self.instance_id[:n],
            billed_duration_s=self.billed_duration_s[:n],
            inferences=self.inferences[:n],
            error_code=self.error_code[:n],
            stages=[self.stages[name][:n] for name in STAGE_ORDER],
            error_names=error_names,
            attempts=self.attempts[:n],
            served_by=self.served_by[:n],
        )


class OutcomeRecorder:
    """Preallocated write-side of an :class:`OutcomeTable`.

    Sized from the workload's known request count; grows geometrically in
    the (unusual) case more requests are issued than the hint promised.
    ``capacity`` is honoured exactly (it used to be silently clamped to a
    minimum of 16, which made chunk accounting off-by-up-to-15 for tiny
    cells); a zero-capacity recorder simply grows on first registration.
    """

    def __init__(self, capacity: int):
        self._capacity = max(int(capacity), 0)
        self._count = 0
        self.columns = OutcomeColumns(self._capacity)
        self.error_names: List[str] = [""]
        #: Registered-but-uncommitted outcomes; their partial state
        #: (accrued stages, instance assignment) is flushed by
        #: :meth:`table` so requests that never complete keep the fields
        #: they did accumulate.
        self._inflight: Dict[int, RequestOutcome] = {}

    def _grow(self) -> None:
        self._capacity = max(self._capacity * 2, 16)
        self.columns = self.columns.grown(self._capacity)

    # -- write path ------------------------------------------------------------
    def register(self, outcome: RequestOutcome) -> int:
        """Record a freshly issued request; returns its row index."""
        row = self._count
        if row >= self._capacity:
            self._grow()
        self._count = row + 1
        outcome.row = row
        self._inflight[row] = outcome
        columns = self.columns
        columns.request_id[row] = outcome.request_id
        columns.client_id[row] = outcome.client_id
        columns.send_time[row] = outcome.send_time
        if outcome.inferences != 1:
            columns.inferences[row] = outcome.inferences
        return row

    def commit(self, outcome: RequestOutcome) -> None:
        """Record a finished request's completion-time fields.

        Safe to call again for the same outcome (e.g. when a serverless
        invocation still runs — and bills — after its client already gave
        up at the 300 s deadline): the row is simply rewritten with the
        later state.
        """
        row = outcome.row
        self._inflight.pop(row, None)
        columns = self.columns
        columns.completion_time[row] = outcome.completion_time
        columns.write_serve_fields(row, outcome, self.error_names)

    # -- read side -------------------------------------------------------------
    def table(self) -> OutcomeTable:
        """The recorded outcomes as a trimmed :class:`OutcomeTable`.

        Flushes the partial state (accrued network/queue stages, instance
        assignment) of registered-but-never-committed requests first, so
        unfinished rows carry everything their in-flight objects did.
        """
        columns = self.columns
        for row, outcome in self._inflight.items():
            columns.write_serve_fields(row, outcome, self.error_names)
        return columns.view(self._count, self.error_names)
