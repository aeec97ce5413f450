"""Deterministic random-number streams.

A single master seed fans out into named, independent streams (one per
process, one for the network, one per fault injector, ...).  Stream
derivation uses :func:`numpy.random.SeedSequence.spawn`-style keying via
``SeedSequence(entropy, spawn_key)`` so that adding a new stream never
perturbs existing ones — essential for comparing runs across code versions.
"""

from __future__ import annotations

import functools
import hashlib
import itertools

import numpy as np


def _stream_key(name: str) -> int:
    """Stable 64-bit key for a stream name."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class BatchedDoubles:
    """Stream-preserving batched view over a generator's uniform doubles.

    numpy's ``Generator.random()`` and ``Generator.uniform(lo, hi)`` each
    consume exactly one underlying double, and scalar ``uniform(lo, hi)``
    equals ``lo + (hi - lo) * random()`` bit-for-bit.  This wrapper
    therefore prefetches ``random(size=batch)`` blocks and serves them one
    at a time: any interleaving of :attr:`random` and :meth:`uniform`
    calls yields exactly the values the raw generator would have produced
    for the same call sequence — which is what lets the engine batch its
    hot streams without perturbing seeded runs.  Hot call sites write
    ``lo + (hi - lo) * random()`` themselves, which gives the same double
    on a raw generator and on this view.

    :attr:`random` is not a method but ``functools.partial(next, it)``
    over one C iterator that flattens ``memoryview(gen.random(batch))``
    blocks, pulled lazily one block at a time: neither a draw nor a block
    refill runs a Python frame.  A block stays a raw buffer of ``batch``
    doubles (2 KB at the default 256, about a quarter of a list of Python
    floats), and iterating its memoryview returns each double as a plain
    ``float``.  The view holds that live iterator, so it is run-local and
    must not be pickled (a copy would fork the stream, and itertools
    iterators stop pickling in Python 3.14).

    The contract is all-or-nothing per stream: once a stream is wrapped,
    every subsequent draw must go through the wrapper (a direct draw on
    the raw generator would skip the prefetched-but-unserved tail).
    Draws that are *not* expressible as one uniform double per call
    (e.g. ``lognormal``) must keep using the raw generator; see the
    ``uniform_only`` flags on delay models and step policies.
    """

    __slots__ = ("random",)

    def __init__(self, gen: np.random.Generator, batch: int = 256) -> None:
        if batch < 1:
            raise ValueError("batch must be >= 1")
        # A float64 memoryview yields plain floats (no np.float64 boxing).
        blocks = map(memoryview,
                     map(gen.random, itertools.repeat(int(batch))))
        #: Next double in [0, 1) — identical to ``gen.random()``.
        self.random = functools.partial(
            next, itertools.chain.from_iterable(blocks))

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Next uniform in [low, high) — identical to ``gen.uniform``."""
        return low + (high - low) * self.random()


class RngRegistry:
    """Factory of named, independent :class:`numpy.random.Generator` streams.

    >>> reg = RngRegistry(seed=42)
    >>> a = reg.stream("network")
    >>> b = reg.stream("process:p")
    >>> a is reg.stream("network")   # streams are cached
    True
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}
        self._batched: dict[str, BatchedDoubles] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the (cached) generator for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            seq = np.random.SeedSequence(
                entropy=self.seed, spawn_key=(_stream_key(name),)
            )
            gen = np.random.default_rng(seq)
            self._streams[name] = gen
        return gen

    def batched(self, name: str, batch: int = 256) -> BatchedDoubles:
        """A (cached) :class:`BatchedDoubles` view of stream ``name``.

        Safe to request after the raw stream has already been consumed —
        the wrapper prefetches from the generator's *current* state.  All
        later draws on the stream must then go through the wrapper.
        """
        wrapper = self._batched.get(name)
        if wrapper is None:
            wrapper = BatchedDoubles(self.stream(name), batch=batch)
            self._batched[name] = wrapper
        return wrapper

    def fork(self, salt: str) -> "RngRegistry":
        """Derive a new registry whose streams are independent of this one.

        Useful when one experiment runs several sub-simulations from a single
        experiment-level seed.
        """
        return RngRegistry(seed=(self.seed * 1_000_003 + _stream_key(salt)) % (2**63))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RngRegistry(seed={self.seed}, streams={sorted(self._streams)})"
