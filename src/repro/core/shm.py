"""Shared-memory column transport for worker results.

Worker-to-parent result payloads carry numpy arrays: a cell's
:class:`~repro.serving.streaming.OutcomeSummary`, as the plain dict of
:meth:`~repro.serving.streaming.OutcomeSummary.state`, holds its sums
and the timelines its study declared (an unreduced whole-table summary
holds its successful requests' send times and latencies and its failed
requests' send times instead).  Returning them through the
``ProcessPoolExecutor`` result pipe costs two full copies: pickle
serialises the array bytes into the pipe, and the parent deserialises
them back out.  This module
moves the bytes through one :class:`multiprocessing.shared_memory`
segment instead: the worker copies every array into the segment and
returns only tiny ``(offset, dtype, shape)`` descriptors; the parent
maps the segment, copies the arrays out, and unlinks it.  One copy per
side, no pickling of bulk data, and the result pipe stays small.

The packing is structural and lossless: :func:`pack_arrays` walks any
composition of dicts / lists / tuples, lifts every ndarray it finds into
the segment, and leaves everything else untouched, so
:func:`unpack_arrays` rebuilds an object tree equal to the original
(the transport tests compare every rebuilt array with the original, bit
for bit).  Payloads whose array bytes fall under the threshold are
returned unchanged — a shared-memory segment per tiny result would cost
more than it saves.  A whole-table cell reduced to its declared
answers ships a few kilobytes whatever its length (about 3 KB per
``study-fig05`` cell), so no registered study or scenario reaches the
threshold.  A streamed cell of a day-long trace does (``w-10m`` keeps
86,400 one-second timeline bins, 1.4 MB), and so do an unreduced
summary's row-order arrays; the transport tests force the path with
``REPRO_SHM_MIN_BYTES``.

Set ``REPRO_SHM=0`` to disable the path entirely (workers then return
plain pickled payloads); any failure to create or map a segment also
falls back to the plain payload, never to an error.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, List, Tuple

import numpy as np

__all__ = ["pack_arrays", "unpack_arrays", "shm_enabled", "ShmPayload"]

#: Minimum total array bytes before a payload moves to shared memory.
#: Override with ``REPRO_SHM_MIN_BYTES`` (the tests use this to force the
#: segment path onto small payloads).
SHM_MIN_BYTES = 1 << 20


def _min_bytes() -> int:
    """The effective shared-memory threshold (env-overridable)."""
    try:
        return int(os.environ.get("REPRO_SHM_MIN_BYTES", SHM_MIN_BYTES))
    except ValueError:
        return SHM_MIN_BYTES


def shm_enabled() -> bool:
    """Whether the shared-memory transport is enabled (``REPRO_SHM``)."""
    return os.environ.get("REPRO_SHM", "1") != "0"


@dataclass(frozen=True)
class _ArrayRef:
    """Placeholder for one lifted ndarray: where it lives in the segment."""

    offset: int
    dtype: str
    shape: Tuple[int, ...]


@dataclass
class ShmPayload:
    """A payload whose ndarrays live in a named shared-memory segment.

    ``tree`` is the original object tree with every ndarray replaced by
    an :class:`_ArrayRef`; ``name`` is the segment holding their bytes.
    The receiver (and only the receiver) unlinks the segment.
    """

    name: str
    tree: Any
    total_bytes: int


def _strip(node: Any, arrays: List[np.ndarray]) -> Any:
    """Copy ``node`` with ndarrays replaced by indices into ``arrays``."""
    if isinstance(node, np.ndarray):
        index = len(arrays)
        arrays.append(node)
        return _ArrayRef(index, "", ())  # offset patched once layout is known
    if isinstance(node, dict):
        return {key: _strip(value, arrays) for key, value in node.items()}
    if isinstance(node, tuple):
        return tuple(_strip(value, arrays) for value in node)
    if isinstance(node, list):
        return [_strip(value, arrays) for value in node]
    return node


def _patch(node: Any, refs: List[_ArrayRef]) -> Any:
    """Swap the index placeholders from :func:`_strip` for real refs."""
    if isinstance(node, _ArrayRef):
        return refs[node.offset]
    if isinstance(node, dict):
        return {key: _patch(value, refs) for key, value in node.items()}
    if isinstance(node, tuple):
        return tuple(_patch(value, refs) for value in node)
    if isinstance(node, list):
        return [_patch(value, refs) for value in node]
    return node


def pack_arrays(payload: Any, min_bytes: int | None = None) -> Any:
    """Lift ``payload``'s ndarrays into a shared-memory segment.

    Returns a :class:`ShmPayload` when the arrays total at least
    ``min_bytes`` (default :data:`SHM_MIN_BYTES`, env-overridable via
    ``REPRO_SHM_MIN_BYTES``) and the segment could be created; otherwise
    returns ``payload`` unchanged (small results and restricted
    sandboxes both take the plain-pickle path).
    """
    if not shm_enabled():
        return payload
    if min_bytes is None:
        min_bytes = _min_bytes()
    arrays: List[np.ndarray] = []
    tree = _strip(payload, arrays)
    total = sum(array.nbytes for array in arrays)
    if not arrays or total < min_bytes:
        return payload
    try:
        from multiprocessing import shared_memory
        segment = shared_memory.SharedMemory(create=True, size=max(total, 1))
    except Exception:  # noqa: BLE001 - any failure means "use pickle"
        return payload
    try:
        refs: List[_ArrayRef] = []
        offset = 0
        buffer = segment.buf
        for array in arrays:
            contiguous = np.ascontiguousarray(array)
            nbytes = contiguous.nbytes
            buffer[offset:offset + nbytes] = contiguous.tobytes()
            refs.append(_ArrayRef(offset, contiguous.dtype.str,
                                  contiguous.shape))
            offset += nbytes
        name = segment.name
        payload = ShmPayload(name=name, tree=_patch(tree, refs),
                             total_bytes=total)
    except Exception:  # noqa: BLE001 - roll the segment back, use pickle
        segment.close()
        try:
            segment.unlink()
        except Exception:  # noqa: BLE001 - best-effort cleanup
            pass
        return payload
    # The receiver owns the segment's lifetime: keep this process's
    # resource tracker from "reclaiming" (deleting) it at exit.
    segment.close()
    try:
        from multiprocessing import resource_tracker
        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:  # noqa: BLE001 - tracker internals vary by version
        pass
    return payload


def unpack_arrays(payload: Any) -> Any:
    """Rebuild a :func:`pack_arrays` payload (pass-through otherwise).

    Copies every array out of the segment and unlinks it — the payload
    is consumed; a second unpack of the same :class:`ShmPayload` fails.
    """
    if not isinstance(payload, ShmPayload):
        return payload
    from multiprocessing import shared_memory
    segment = shared_memory.SharedMemory(name=payload.name)
    try:
        buffer = segment.buf

        def rebuild(node: Any) -> Any:
            if isinstance(node, _ArrayRef):
                dtype = np.dtype(node.dtype)
                count = int(np.prod(node.shape, dtype=np.int64))
                array = np.frombuffer(buffer, dtype=dtype,
                                      count=count, offset=node.offset)
                return array.reshape(node.shape).copy()
            if isinstance(node, dict):
                return {key: rebuild(value) for key, value in node.items()}
            if isinstance(node, tuple):
                return tuple(rebuild(value) for value in node)
            if isinstance(node, list):
                return [rebuild(value) for value in node]
            return node

        return rebuild(payload.tree)
    finally:
        segment.close()
        segment.unlink()
