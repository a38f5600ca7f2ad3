"""Reproducible random number streams with block-buffered draws.

Every stochastic component of the simulation (arrival processes, latency
jitter, scheduler placement noise, ...) draws from its own named stream so
that changing one component's consumption of randomness does not perturb
the others.  Streams are derived from a single experiment seed with
``numpy``'s ``SeedSequence.spawn``-style child seeding, keyed by name.

Block buffering
---------------
Scalar draws through ``numpy.random.Generator`` pay ~1.4 us of ufunc
dispatch each; at roughly three jitter draws per simulated request that
was ~10% of a full run's wall-clock.  Each convenience method therefore
pre-draws a block of *standard* variates per stream (standard normal /
standard exponential / unit uniform / bounded integers) and serves the
scaled values from a cursor, which amortises the dispatch cost ~10x.
The block size is set when the family is built
(``RandomStreams(seed, block_size=...)``; ``ServingBenchmark`` passes
its ``rng_block_size``) and defaults to :data:`DEFAULT_BLOCK_SIZE`; a
block size of 1 draws unbuffered.

The served sequence is **bit-identical to scalar draws** at any block
size, because ``numpy`` fills arrays with the same per-element samplers
it uses for scalar calls and the scaling ops (``low + (high-low)*u``,
``mean*e``, ``exp(mu + sigma*z)``) are exactly the ones ``Generator``
applies internally.  Two caveats keep that guarantee:

* a named stream must be used with a single draw family (which is how
  every call site in the simulator behaves — e.g. ``"storage"`` only
  ever draws lognormals, ``"request-pick"`` only bounded integers);
* ``choice`` buffers are keyed by the bound ``n``; changing ``n``
  mid-stream discards the remaining block (no current call site does).

Accessing :meth:`stream` directly bypasses the buffers; mixing raw
access and convenience draws on the *same* name forfeits the
scalar-equivalence (the underlying generator runs ahead of the cursor).

Pre-bound draws
---------------
A draw whose parameters stay fixed for a whole run (a network leg, a
warm prediction, the request pick) can be bound once:
:meth:`RandomStreams.lognormal_draw` and :meth:`RandomStreams.choice_draw`
return zero-argument callables that serve from the *same* per-stream
block as the scalar methods, so bound and unbound draws may be mixed on
one stream and the sequence stays the scalar one.  A bound draw skips
argument validation, the parameter lookup and the buffer lookup, which
were most of a scalar draw's cost.

Draw count
----------
:attr:`RandomStreams.draws` is the number of variates served so far,
computed from the blocks rather than counted per draw: variates
pre-drawn into blocks, minus what is left in the current blocks.  The
unbuffered path (block size 1) counts per call.
"""

from __future__ import annotations

import math
import zlib
from typing import Callable, Dict, Tuple

import numpy as np

__all__ = ["RandomStreams", "DEFAULT_BLOCK_SIZE"]

#: Default number of standard variates pre-drawn per stream and family.
DEFAULT_BLOCK_SIZE = 1024


class RandomStreams:
    """A family of named, independently seeded ``numpy`` generators."""

    def __init__(self, seed: int = 0, block_size: int | None = None):
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}
        if block_size is None:
            block_size = DEFAULT_BLOCK_SIZE
        self._block = max(1, int(block_size))
        # Per-stream buffers: name -> [values, cursor, bound], the bound
        # (``n``) only for bounded integers.  A buffer lives as long as
        # its stream (refills replace its contents in place), so
        # pre-bound draws can hold on to it; it starts drained.
        self._normals: Dict[str, list] = {}
        self._exponentials: Dict[str, list] = {}
        self._uniforms: Dict[str, list] = {}
        self._integers: Dict[str, list] = {}
        # Lognormal parameterisation cache: (mean, cv) -> (mu, sigma).
        self._lognormal_params: Dict[Tuple[float, float], Tuple[float, float]] = {}
        #: Variates pre-drawn into blocks (less any discarded unserved
        #: remainder), or served one by one when unbuffered.
        self._drawn = 0

    @property
    def seed(self) -> int:
        """The base seed the streams are derived from."""
        return self._seed

    @property
    def block_size(self) -> int:
        """Number of variates pre-drawn per refill (1 = unbuffered)."""
        return self._block

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating if needed) the generator for ``name``."""
        if name not in self._streams:
            key = zlib.crc32(name.encode("utf-8"))
            self._streams[name] = np.random.default_rng(
                np.random.SeedSequence(entropy=self._seed, spawn_key=(key,)))
        return self._streams[name]

    @property
    def draws(self) -> int:
        """Number of variates served so far, over every stream.

        Counted per block, not per draw: variates pre-drawn minus what
        is left in the current blocks.  A ``lognormal_sum`` of ``count``
        terms serves ``count`` variates; a draw with ``cv == 0`` serves
        none.
        """
        left = 0
        for buffers in (self._normals, self._exponentials, self._uniforms,
                        self._integers):
            for buffer in buffers.values():
                left += self._block - buffer[1]
        return self._drawn - left

    # Buffer refills -------------------------------------------------------
    def _buffer(self, buffers: Dict[str, list], name: str) -> list:
        """The buffer of one stream, created drained on first use."""
        buffer = buffers.get(name)
        if buffer is None:
            buffer = buffers[name] = [None, self._block, None]
        return buffer

    def _refill(self, buffer: list, name: str, family: str) -> list:
        """Pre-draw a fresh block of standard variates into ``buffer``.

        ``family`` is the ``Generator`` method producing the standard
        variate ("standard_normal" / "standard_exponential" / "random");
        it is resolved only here, once per block.  Returns the values.
        """
        values = getattr(self.stream(name), family)(self._block).tolist()
        buffer[0] = values
        buffer[1] = 0
        self._drawn += self._block
        return values

    def _next(self, buffers: Dict[str, list], name: str,
              family: str) -> float:
        """Serve one pre-drawn standard variate (refilling when drained)."""
        buffer = buffers.get(name)
        if buffer is None:
            buffer = self._buffer(buffers, name)
        position = buffer[1]
        if position == self._block:
            values = self._refill(buffer, name, family)
            position = 0
        else:
            values = buffer[0]
        buffer[1] = position + 1
        return values[position]

    def _refill_integers(self, buffer: list, name: str, n: int) -> list:
        """Pre-draw a block of integers in ``[0, n)``; a bound change
        discards the unserved rest of the old block."""
        self._drawn -= self._block - buffer[1]
        values = self.stream(name).integers(0, n, size=self._block).tolist()
        buffer[0] = values
        buffer[1] = 0
        buffer[2] = n
        self._drawn += self._block
        return values

    def _next_integer(self, name: str, n: int) -> int:
        buffer = self._integers.get(name)
        if buffer is None:
            buffer = self._buffer(self._integers, name)
        position = buffer[1]
        if position == self._block or buffer[2] != n:
            values = self._refill_integers(buffer, name, n)
            position = 0
        else:
            values = buffer[0]
        buffer[1] = position + 1
        return values[position]

    # Convenience draws -----------------------------------------------------
    def exponential(self, name: str, mean: float) -> float:
        """One exponential draw with the given mean from stream ``name``."""
        if mean <= 0:
            raise ValueError("exponential mean must be positive")
        if self._block == 1:
            self._drawn += 1
            return float(self.stream(name).exponential(mean))
        return mean * self._next(self._exponentials, name,
                                 "standard_exponential")

    def uniform(self, name: str, low: float, high: float) -> float:
        """One uniform draw in ``[low, high)`` from stream ``name``."""
        if high < low:
            raise ValueError("uniform bounds must satisfy low <= high")
        if self._block == 1:
            self._drawn += 1
            return float(self.stream(name).uniform(low, high))
        return low + (high - low) * self._next(self._uniforms, name, "random")

    def _lognormal_mu_sigma(self, mean: float, cv: float) -> Tuple[float, float]:
        key = (mean, cv)
        params = self._lognormal_params.get(key)
        if params is None:
            sigma2 = math.log(1.0 + cv * cv)
            params = (math.log(mean) - sigma2 / 2.0, math.sqrt(sigma2))
            self._lognormal_params[key] = params
        return params

    def lognormal_around(self, name: str, mean: float, cv: float) -> float:
        """A lognormal draw with the given mean and coefficient of variation.

        Latency jitter in the simulator is modelled as lognormal noise
        around a calibrated mean, which matches the heavy right tail seen
        in cloud measurements without producing negative values.
        """
        _check_lognormal(mean, cv)
        if cv == 0:
            return float(mean)
        mu, sigma = self._lognormal_mu_sigma(mean, cv)
        if self._block == 1:
            self._drawn += 1
            return float(self.stream(name).lognormal(mean=mu, sigma=sigma))
        return math.exp(mu + sigma * self._next(self._normals, name,
                                                "standard_normal"))

    def lognormal_sum(self, name: str, mean: float, cv: float,
                      count: int) -> float:
        """The sum of ``count`` lognormal draws (batched jitter).

        Equivalent to summing ``count`` calls to :meth:`lognormal_around`
        — same stream, same sequence, same sequential float additions —
        but parameterised once and served straight off the pre-drawn
        normal blocks.  Used for multi-inference invocations
        (client-side batching, Figure 12d).
        """
        if count <= 0:
            raise ValueError("count must be >= 1")
        _check_lognormal(mean, cv)
        if cv == 0:
            return float(mean) * count
        if self._block == 1:
            total = 0.0
            for _ in range(count):
                total += self.lognormal_around(name, mean, cv)
            return total
        mu, sigma = self._lognormal_mu_sigma(mean, cv)
        buffer = self._buffer(self._normals, name)
        block = self._block
        exp = math.exp
        total = 0.0
        remaining = count
        while remaining:
            position = buffer[1]
            if position == block:
                self._refill(buffer, name, "standard_normal")
                position = 0
            take = min(remaining, block - position)
            for z in buffer[0][position:position + take]:
                total += exp(mu + sigma * z)
            buffer[1] = position + take
            remaining -= take
        return total

    def choice(self, name: str, n: int) -> int:
        """A uniform integer in ``[0, n)`` from stream ``name``."""
        if n <= 0:
            raise ValueError("choice requires n >= 1")
        if self._block == 1:
            self._drawn += 1
            return int(self.stream(name).integers(0, n))
        return self._next_integer(name, n)

    # Pre-bound draws -------------------------------------------------------
    def lognormal_draw(self, name: str, mean: float,
                       cv: float) -> Callable[[], float]:
        """A zero-argument :meth:`lognormal_around` with fixed parameters.

        Each call serves the next variate of stream ``name``'s normal
        block, the one :meth:`lognormal_around` and :meth:`lognormal_sum`
        serve from, so bound and unbound draws interleave on one stream
        exactly like scalar draws.  Parameters are validated here, once.
        """
        _check_lognormal(mean, cv)
        if cv == 0:
            value = float(mean)
            return lambda: value
        if self._block == 1:
            return lambda: self.lognormal_around(name, mean, cv)
        mu, sigma = self._lognormal_mu_sigma(mean, cv)
        buffer = self._buffer(self._normals, name)
        refill = self._refill
        block = self._block
        exp = math.exp

        def draw() -> float:
            position = buffer[1]
            if position == block:
                refill(buffer, name, "standard_normal")
                position = 0
            buffer[1] = position + 1
            return exp(mu + sigma * buffer[0][position])
        return draw

    def choice_draw(self, name: str, n: int) -> Callable[[], int]:
        """A zero-argument :meth:`choice` with a fixed bound ``n``.

        Serves from stream ``name``'s integer block, the one
        :meth:`choice` serves from.
        """
        if n <= 0:
            raise ValueError("choice requires n >= 1")
        if self._block == 1:
            return lambda: self.choice(name, n)
        buffer = self._buffer(self._integers, name)
        refill = self._refill_integers
        block = self._block

        def draw() -> int:
            position = buffer[1]
            if position == block or buffer[2] != n:
                refill(buffer, name, n)
                position = 0
            buffer[1] = position + 1
            return buffer[0][position]
        return draw


def _check_lognormal(mean: float, cv: float) -> None:
    """Reject lognormal parameters no draw can serve."""
    if mean <= 0:
        raise ValueError("lognormal mean must be positive")
    if cv < 0:
        raise ValueError("coefficient of variation must be >= 0")
