"""The worker-result hand-off hooks of :mod:`repro.core.parallel`.

A pooled cell crosses the result pipe as its reduced
:class:`~repro.core.results.RunResult`, pickled: :func:`pack_arrays`
and :func:`unpack_arrays` each return their argument, and
:class:`ShmPayload` is never constructed.  They stay because the
benchmark's tracer patches the two functions by name to carry each
worker's counts home and checks payloads against the class.
"""

from __future__ import annotations

from typing import Any

__all__ = ["pack_arrays", "unpack_arrays", "ShmPayload"]


class ShmPayload:
    """A payload type no worker returns (see the module docstring)."""


def pack_arrays(payload: Any) -> Any:
    """Worker side of the hand-off: returns ``payload`` itself."""
    return payload


def unpack_arrays(payload: Any) -> Any:
    """Parent side of the hand-off: returns ``payload`` itself."""
    return payload
