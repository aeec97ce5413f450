"""Deterministic random-number streams.

A single master seed fans out into named, independent streams of uniform
doubles (one per process, one for the network, one per fault injector,
...), each served as a :class:`BatchedDoubles` view.  Stream
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
    """A stream of uniform doubles, served from prefetched blocks.

    This is the one way a run draws randomness: every named stream of an
    :class:`RngRegistry` is one of these views, and a draw is either
    :attr:`random` or :meth:`uniform`.  A draw of any other distribution
    is computed from uniform doubles by its caller (e.g. a lognormal by
    inverse CDF), so a schedule is one stream of doubles per name.

    The view serves exactly the doubles the wrapped generator would:
    numpy's ``Generator.random()`` and ``Generator.uniform(lo, hi)`` each
    consume one underlying double, and scalar ``uniform(lo, hi)`` equals
    ``lo + (hi - lo) * random()`` bit-for-bit.  So any interleaving of
    :attr:`random` and :meth:`uniform` calls yields the values the raw
    generator would have produced for the same call sequence.  Hot call
    sites write ``lo + (hi - lo) * random()`` themselves, which gives the
    same double.

    :attr:`random` is not a method but ``functools.partial(next, it)``
    over one C iterator that flattens ``memoryview(gen.random(batch))``
    blocks, pulled lazily one block at a time: neither a draw nor a block
    refill runs a Python frame.  A block stays a raw buffer of ``batch``
    doubles (2 KB at the default 256, about a quarter of a list of Python
    floats), and iterating its memoryview returns each double as a plain
    ``float``.  The view holds that live iterator, so it is run-local and
    must not be pickled (a copy would fork the stream, and itertools
    iterators stop pickling in Python 3.14).
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
    """Factory of named, independent :class:`BatchedDoubles` streams.

    >>> reg = RngRegistry(seed=42)
    >>> a = reg.stream("network")
    >>> b = reg.stream("process:p")
    >>> a is reg.stream("network")   # streams are cached
    True
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._streams: dict[str, BatchedDoubles] = {}

    def stream(self, name: str) -> BatchedDoubles:
        """Return the (cached) stream for ``name``."""
        view = self._streams.get(name)
        if view is None:
            seq = np.random.SeedSequence(
                entropy=self.seed, spawn_key=(_stream_key(name),)
            )
            view = BatchedDoubles(np.random.default_rng(seq))
            self._streams[name] = view
        return view

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RngRegistry(seed={self.seed}, streams={sorted(self._streams)})"
