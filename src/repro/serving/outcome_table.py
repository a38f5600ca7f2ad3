"""Columnar (struct-of-arrays) request outcomes.

:class:`OutcomeTable` holds one run's request outcomes as numpy columns:
storage and the column hash.  It computes no metric.  Every metric
reads the run's :class:`~repro.serving.streaming.OutcomeSummary`, one
fold over the table
(:meth:`~repro.serving.streaming.OutcomeSummary.of_table`), and a table
lives only as long as its cell's caller reads rows
(:attr:`~repro.core.results.RunResult.rows`).

The write side is a block of rows, :class:`OutcomeColumns`.  The
executor registers each request's row with a recorder
(:class:`OutcomeRecorder`, preallocated to the workload's request count,
or the streaming ring of :mod:`repro.serving.streaming`), and the
platform that serves it writes its stages, billing, cold start,
instance, path, error and completion straight into that row.  No
per-request object exists: the block is bound once per run, a request
is a plain row index, and ``commit(row)`` only interns the row's error
string once the request finished.  A view of the block's rows is an
:class:`OutcomeTable`, without a copy.

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
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.serving.records import Stage

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


class OutcomeTable:
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

    @property
    def latency(self) -> np.ndarray:
        """End-to-end latency per request (NaN where unfinished)."""
        return self.completion_time - self.send_time

    def stage_column(self, stage: str) -> np.ndarray:
        """Accumulated seconds in one breakdown stage, per request (the
        stored column, or a zero-byte column of zeros)."""
        column = self._stages.get(stage)
        if column is None:
            if stage not in _STAGE_INDEX:
                raise KeyError(f"unknown stage {stage!r}")
            return _filled(self.count, np.float64, 0.0)
        return column

    # -- mutation (benchmark-internal) ----------------------------------------
    def fail_unfinished(self, horizon: float,
                        error: str = "unfinished") -> int:
        """Mark still-open requests as failed at ``horizon`` (vectorised).

        Returns the number of requests so marked; each completes at
        ``max(horizon, send_time)``.
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


def _intern_error(names: List[str], error: str) -> int:
    """Index of ``error`` in the vocabulary, appending it if new."""
    try:
        return names.index(error)
    except ValueError:
        names.append(error)
        return len(names) - 1


#: Attribute name of each stage's column on a block (``queue_s`` ...).
_STAGE_ATTRS = {name: f"{name}_s" for name in STAGE_ORDER}
_STAGE_NAMES = {attr: name for name, attr in _STAGE_ATTRS.items()}
#: Every column of a block, stage columns included: dtype and default.
_BLOCK_COLUMNS = {**_COLUMNS, **{attr: (np.float64, 0.0)
                                 for attr in _STAGE_ATTRS.values()}}
#: The columns serving writes: all but the issue-time ones (written at
#: ``register``) and ``error_code`` (interned at commit).
_SERVE_COLUMNS = tuple(name for name in _COLUMNS if name not in (
    "request_id", "client_id", "send_time", "inferences", "error_code")
) + tuple(_STAGE_ATTRS.values())


class OutcomeColumns:
    """One block of outcome rows: every per-row column, one float64
    column per stage (an attribute ``queue_s``, ``network_s``, ... and
    an entry of :attr:`stages`), and the pending error strings.

    The one place serving writes a request's outcome (see the module
    docstring).  Each column is a numpy array in :attr:`arrays`, and the
    attribute of the same name is a ``memoryview`` of it: serving reads
    and writes single rows through the views, which costs about half a
    numpy scalar access (a third for ``+=``), while tables, resets and
    batch fan-outs work on the arrays.  Error strings wait in
    :attr:`errors` until the recorder interns them at commit, so the
    vocabulary only holds errors a finished request kept: a retried
    attempt's error never enters it.  ``hold``/``release`` bracket a
    write that may come after the row's commit (a serverless invocation
    served after its client gave up): a plain block ignores them, the
    chunk ring keeps the row's chunk resident, the router's attempt rows
    forward the late billing.
    """

    __slots__ = (*_COLUMNS, *_STAGE_ATTRS.values(), "arrays", "stages",
                 "errors", "rows")

    def __init__(self, rows: int):
        self.rows = 0
        self.arrays: Dict[str, np.ndarray] = {}
        #: The stage columns' row views, by stage name.
        self.stages: Dict[str, memoryview] = {}
        #: Error strings of finished rows not yet committed.
        self.errors: Dict[int, str] = {}
        self.resize(rows)

    def resize(self, rows: int) -> None:
        """Give the block ``rows`` rows, in place.

        The block object, which platforms bind, stays the same; rows
        below both sizes keep their index and values, and new rows hold
        the defaults.  The chunk ring and the router's attempt rows grow
        on demand this way; ``resize(0)`` frees the storage.
        """
        kept = min(self.rows, rows)
        self.rows = rows
        for name, (dtype, default) in _BLOCK_COLUMNS.items():
            # np.zeros leaves the pages of a column never written
            # unmapped, so an untouched zero-default column costs no
            # resident memory.  Column by column, so a growing block
            # never holds two copies of every column at once.
            array = (np.zeros(rows, dtype=dtype) if default == 0
                     else np.full(rows, default, dtype=dtype))
            if kept:
                array[:kept] = self.arrays[name][:kept]
            self.arrays[name] = array
            setattr(self, name, memoryview(array))
            if name in _STAGE_NAMES:
                self.stages[_STAGE_NAMES[name]] = getattr(self, name)

    def reset(self, start: int, stop: int) -> None:
        """Restore rows ``[start, stop)`` to the column defaults."""
        for name, (_dtype, default) in _COLUMNS.items():
            self.arrays[name][start:stop] = default
        for attr in _STAGE_ATTRS.values():
            self.arrays[attr][start:stop] = 0.0

    def hold(self, row: int) -> None:
        """A write to ``row`` may still come after its commit."""

    def release(self, row: int) -> None:
        """The write announced by :meth:`hold` has landed."""

    def fan_out(self, row: int, rows: Sequence[int]) -> None:
        """Copy every column serving writes from ``row`` to ``rows``.

        A client-side batch is one invocation: the carrier's row fans
        out to the other members, column by column, so no serve-side
        field can be left behind.
        """
        targets = list(rows)
        for name in _SERVE_COLUMNS:
            array = self.arrays[name]
            array[targets] = array[row]
        error = self.errors.get(row)
        if error:
            self.errors.update(dict.fromkeys(targets, error))

    def intern_errors(self, error_names: List[str],
                      rows: Optional[Iterable[int]] = None) -> None:
        """Move pending error strings into ``error_code``: those of
        ``rows``, or of every row (in row order)."""
        errors = self.errors
        for row in sorted(errors) if rows is None else rows:
            error = errors.pop(row, None)
            if error:
                self.error_code[row] = _intern_error(error_names, error)

    def view(self, start: int, stop: int,
             error_names: List[str]) -> OutcomeTable:
        """Rows ``[start, stop)`` as an :class:`OutcomeTable`, without a
        copy: the table shares this block's buffers."""
        rows = slice(start, stop)
        columns = {name: array[rows] for name, array in self.arrays.items()}
        return OutcomeTable(
            stages=[columns.pop(_STAGE_ATTRS[name]) for name in STAGE_ORDER],
            error_names=error_names, **columns)


class OutcomeRecorder:
    """Preallocated write side of an :class:`OutcomeTable`.

    Sized exactly from the run's request count (``ServingBenchmark.run``
    counts the workload's arrivals): rows never move, so a platform
    binds :attr:`columns` once per run.  It does not grow: registering
    more than ``capacity`` rows raises ``IndexError``.
    """

    def __init__(self, capacity: int):
        self._count = 0
        #: The rows serving writes (bound once per run by the platform).
        self.columns = OutcomeColumns(max(int(capacity), 0))
        self.error_names: List[str] = [""]

    # -- write path ------------------------------------------------------------
    def register(self, request_id: int, client_id: int, send_time: float,
                 inferences: int = 1) -> int:
        """Record a freshly issued request; returns its row index."""
        row = self._count
        columns = self.columns
        self._count = row + 1
        columns.request_id[row] = request_id
        columns.client_id[row] = client_id
        columns.send_time[row] = send_time
        if inferences != 1:
            columns.inferences[row] = inferences
        return row

    def commit(self, row: int) -> None:
        """The request in ``row`` finished at its client (serving already
        wrote the row): intern its error string."""
        if self.columns.errors:
            self.columns.intern_errors(self.error_names, (row,))

    # -- read side -------------------------------------------------------------
    @property
    def last_completion_time(self) -> float:
        """Latest completion time of a recorded request (0 if none)."""
        completion = self.columns.arrays["completion_time"][:self._count]
        finished = completion[~np.isnan(completion)]
        return float(finished.max()) if finished.size else 0.0

    def table(self) -> OutcomeTable:
        """The recorded rows as an :class:`OutcomeTable` (no copy).

        Rows still in flight keep whatever serving wrote so far; their
        completion time is NaN until ``fail_unfinished`` closes them.
        """
        self.columns.intern_errors(self.error_names)
        return self.columns.view(0, self._count, self.error_names)
