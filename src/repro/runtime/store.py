"""Content-addressed result store: spec hash in, cached run payload out.

:func:`repro.runtime.builder.execute` is a pure function of its
:class:`~repro.runtime.spec.RunSpec`, so a run's outcome is fully named
by a canonical hash of the spec.  :class:`ResultStore` exploits that: a
JSONL-segment file keyed by :func:`spec_hash`, appended as results land,
so

* a re-submitted spec is a **cache hit** (no re-simulation), and
* a campaign interrupted mid-flight keeps every per-seed result it
  already computed — ``repro chaos --resume`` / ``repro sweep --resume``
  skip the stored seeds and produce aggregates byte-identical to an
  uninterrupted run.

Durability model: one JSON object per line, appended with flush+fsync
per put, last-write-wins on duplicate keys at load.  A crash mid-append
leaves one truncated fragment, which load tolerates whether it is still
the file's tail or a later append has terminated it (the payload of
that line is simply lost and will be recomputed).  Payload JSON
preserves key order (no ``sort_keys``), so dicts round-trip with their
original insertion order and resumed aggregates serialize to the same
bytes as fresh ones.

Open is an index scan, not a parse: a line in the exact byte frame
``put`` writes is recorded as ``key -> (offset, length)`` and its JSON
body is parsed — once — by the first ``get``/``items`` that reads it.
Any other line (hand-written, re-spaced, escaped key) is parsed at
open.  So open validates the framing of every line, and first read
validates the body.

:func:`resumable_map` is the generic checkpoint/resume harness over a
:class:`~repro.runtime.executor.SupervisedExecutor`: given per-task
store keys plus encode/decode hooks, it serves cached tasks from the
store and checkpoints fresh results the moment they complete — also on
the serial path, so an interrupted ``--workers 1`` campaign resumes too.
"""

from __future__ import annotations

import contextlib
import dataclasses
import fcntl
import hashlib
import json
import os
import pathlib
import re
from typing import (
    IO,
    Any,
    AnyStr,
    Callable,
    Mapping,
    Optional,
    Sequence,
    TypeVar,
)

from repro.errors import ConfigurationError, ExecutionError
from repro.obs.registry import MetricsRegistry
from repro.runtime.executor import SupervisedExecutor
from repro.runtime.spec import RunSpec

T = TypeVar("T")
R = TypeVar("R")

#: Schema tag stamped on every store line.
STORE_SCHEMA = "repro.store.v1"

#: Version salt mixed into every spec hash: bump when RunSpec semantics
#: change incompatibly, so stale stores miss instead of serving results
#: computed under different rules.  The store is a cache — entries
#: written under an older salt are never read again and simply re-run.
#: v6: what a key *holds* changed — every surface stores the one
#: ``repro.result.v1`` envelope, whose summary carries three more fields
#: (``starving``, ``last_violation_end``, ``worst_overtaking``).
#: v7: ``RunSpec.trace`` accepts only ``full`` | ``counters``, and no
#: stored summary or verdict names the trace sink any more.
SPEC_HASH_VERSION = "repro.spec.v7"


def canonical_spec(spec: RunSpec) -> dict[str, Any]:
    """The spec as a plain, deterministic dict (all fields, field order)."""
    return dataclasses.asdict(spec)


#: What :func:`spec_hash` walks, listed once instead of once per hash.
_SPEC_FIELDS = tuple(f.name for f in dataclasses.fields(RunSpec))
#: ... and the encoder it hashes, built once: these are the arguments
#: ``json.dumps`` would build a fresh encoder from on every call.
_SPEC_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                 default=str)


def spec_hash(spec: RunSpec) -> str:
    """Canonical content address of one run: sha256 over the versioned,
    key-sorted JSON encoding of every spec field.

    Two equal specs hash equally regardless of construction path (JSON vs
    kwargs, defaults spelled out or not), and the hash is stable across
    processes, machines, and worker counts.
    """
    # A shallow field walk: the encoder recurses into the nested mappings
    # itself, so this is byte-for-byte the encoding of canonical_spec(spec)
    # without asdict's deep copy (every field is plain JSON data).
    fields = {name: getattr(spec, name) for name in _SPEC_FIELDS}
    payload = {"version": SPEC_HASH_VERSION, "spec": fields}
    blob = _SPEC_ENCODER.encode(payload)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: What :func:`durable_append` writes ahead of a record when the file's
#: tail is unterminated.  Space + newline, not a bare newline: a fragment
#: torn right after a ``}}`` then ends in ``}} \n``, which the store's
#: frame test rejects, so it is fully parsed (and skipped) at open instead
#: of being indexed as a record and failing at first read.
_HEAL = b" \n"


def durable_append(path: "str | pathlib.Path", data: bytes) -> None:
    """Append ``data`` to ``path`` and fsync before returning.

    The bytes go down in one ``os.write`` on an ``O_APPEND`` descriptor,
    so concurrent appends from separate processes (two campaigns sharing
    a store, a service restarting over a live file) land as whole lines
    instead of interleaving — POSIX serializes each append write at the
    file offset.  Pinned by ``tests/runtime/test_store_concurrent.py``.
    The store and the service's job journal both persist through here.

    A crashed writer can leave the file ending mid-record.  The record is
    never welded onto such a fragment: when the last byte is not a
    newline, the fragment is terminated first, so it stays a line of its
    own that both loaders recognise (:func:`is_torn_fragment`) and skip.
    The check and the write happen under an exclusive ``flock`` — a live
    writer's half-landed record must not be mistaken for a dead one's.
    """
    fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        try:
            size = os.fstat(fd).st_size
            if size and os.pread(fd, 1, size - 1) != b"\n":
                data = _HEAL + data
            while data:
                data = data[os.write(fd, data):]
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
        os.fsync(fd)
    finally:
        os.close(fd)


def is_torn_fragment(line: "AnyStr", heads: "Sequence[AnyStr]") -> bool:
    """Whether an unparseable ``line`` is what a crashed writer leaves: a
    prefix of a record.  ``heads`` are the byte sequences the writer's
    records open with; a fragment either starts with one or, torn earlier
    still, is a prefix of one.  Anything else is foreign damage."""
    line = line.strip()
    return any(line.startswith(head) or head.startswith(line)
               for head in heads)


#: The bytes every ``put``-written line opens with ...
_FRAME_HEAD = f'{{"schema":"{STORE_SCHEMA}",'.encode("ascii")
#: ... the whole frame up to the payload's opening brace.  The key class
#: admits only bytes ``json.dumps`` emits unescaped, so a match *is* the
#: key: no escapes to undo, nothing a strict parser would refuse.
_FRAMED = re.compile(
    re.escape(_FRAME_HEAD) +
    rb'"key":"([^"\\\x00-\x1f\x80-\xff]*)","payload":\{').match
#: ... and how it closes: the payload object, the record, the newline.
_FRAME_TAIL = b"}}\n"


class _Unparsed(tuple):
    """Index entry for a framed line whose body has not been read yet:
    ``(offset, length, lineno)``.  A type of its own so that no parsed
    payload, whatever its JSON type, is mistaken for one."""

    __slots__ = ()


class ResultStore:
    """Append-only JSONL store mapping content keys to result payloads.

    ``get``/``get_many``/``put``/``__contains__`` are the whole surface;
    hit/miss/put counts publish into ``metrics`` (``store.hits``,
    ``store.misses``, ``store.puts``, ``store.corrupt_lines``) so cache
    behavior is observable — the acceptance path for resume verification.
    """

    def __init__(self, path: "str | pathlib.Path",
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.path = pathlib.Path(path)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: key -> payload, or -> where its line is until first read.
        self._index: dict[str, Any] = {}
        if self.path.exists():
            if self.path.is_dir():
                raise ConfigurationError(
                    f"store path {self.path} is a directory")
            self._load()
        else:
            parent = self.path.parent
            if not parent.is_dir():
                raise ConfigurationError(
                    f"store directory {parent} does not exist")
            if not os.access(parent, os.W_OK):
                raise ConfigurationError(
                    f"store directory {parent} is not writable")

    def _load(self) -> None:
        index = self._index
        offset = 0
        with open(self.path, "rb", buffering=1 << 20) as fh:
            for lineno, line in enumerate(fh, 1):
                framed = _FRAMED(line) if line.endswith(_FRAME_TAIL) else None
                if framed is not None:
                    index[framed.group(1).decode("ascii")] = _Unparsed(
                        (offset, len(line), lineno))
                elif line.strip():
                    self._load_unframed(line, lineno)
                offset += len(line)

    def _load_unframed(self, line: bytes, lineno: int) -> None:
        """A line ``put`` did not frame: parsed here and now, in full."""
        try:
            rec = json.loads(line)
            key = rec["key"]
            payload = rec["payload"]
        except (json.JSONDecodeError, UnicodeDecodeError, KeyError,
                TypeError):
            if (not line.endswith(b"\n")
                    or is_torn_fragment(line, (_FRAME_HEAD,))):
                # A torn append (crash mid-write), still the file's tail
                # or since terminated by the next append: that one result
                # is lost and will be recomputed; every other line is
                # intact.
                self.metrics.counter("store.corrupt_lines").inc()
                return
            raise self._corrupt(lineno) from None
        self._index[key] = payload

    def _corrupt(self, lineno: int) -> ExecutionError:
        return ExecutionError(
            f"{self.path}:{lineno}: corrupt store line (not a "
            f"{STORE_SCHEMA} record); move the file aside or "
            "restart without --store")

    def _parse(self, fh: IO[bytes], key: str, entry: _Unparsed) -> Any:
        """First read of a framed line: parse its body, once, and keep the
        payload in the index in place of the span."""
        offset, length, lineno = entry
        fh.seek(offset)
        try:
            rec = json.loads(fh.read(length))
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise self._corrupt(lineno) from None
        if rec["key"] != key:  # a second "key" member later in the body
            raise self._corrupt(lineno)
        payload = self._index[key] = rec["payload"]
        return payload

    # -- the surface ---------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self._index)

    def items(self) -> "list[tuple[str, dict[str, Any]]]":
        """``(key, payload)`` pairs in append order (``repro store ls``);
        uncounted — inspection is not cache traffic.  Parses every payload
        not read yet, so it is also the full-file body check."""
        unread = [(key, entry) for key, entry in self._index.items()
                  if type(entry) is _Unparsed]
        if unread:
            with open(self.path, "rb") as fh:
                for key, entry in unread:
                    self._parse(fh, key, entry)
        return list(self._index.items())

    def get(self, key: str) -> Optional[dict[str, Any]]:
        """The payload stored under ``key``; counts a hit or a miss."""
        return self.get_many((key,))[0]

    def get_many(self, keys: Sequence[str]) -> list[Optional[dict[str, Any]]]:
        """The payloads under ``keys``, in order, each counted as a hit or
        a miss; unread lines are read through one file handle."""
        out = []
        with contextlib.ExitStack() as files:
            fh = None
            for key in keys:
                payload = self._index.get(key)
                if type(payload) is _Unparsed:
                    fh = fh or files.enter_context(open(self.path, "rb"))
                    payload = self._parse(fh, key, payload)
                self.metrics.counter("store.misses" if payload is None
                                     else "store.hits").inc()
                out.append(payload)
        return out

    def put(self, key: str, payload: Mapping[str, Any]) -> None:
        """Durably append ``key -> payload`` as one line
        (:func:`durable_append`: single write, fsync per record)."""
        line = json.dumps(
            {"schema": STORE_SCHEMA, "key": key, "payload": payload},
            separators=(",", ":"))
        durable_append(self.path, (line + "\n").encode("utf-8"))
        self._index[key] = dict(payload)
        self.metrics.counter("store.puts").inc()

    def stats(self) -> dict[str, float]:
        """Flat counter view (``store.hits`` / ``.misses`` / ``.puts``)."""
        return dict(self.metrics.snapshot().counters)


def resumable_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    keys: Sequence[str],
    *,
    encode: Callable[[R], Mapping[str, Any]],
    decode: Callable[[dict[str, Any], int, T], R],
    store: Optional[ResultStore] = None,
    resume: bool = False,
    executor: Optional[SupervisedExecutor] = None,
    on_result: Optional[Callable[[int, R, bool], None]] = None,
) -> list[R]:
    """``[fn(x) for x in items]`` with content-addressed checkpointing.

    ``keys[i]`` is the content address of ``items[i]``.  With ``resume``,
    stored keys are served from ``store`` via ``decode(payload, i, item)``
    without executing; ``decode`` is total — whatever is stored under a
    key is that item's result, so a hit is a hit.  Fresh results are
    checkpointed via ``encode`` the moment they land (completion order),
    so an interruption at any point loses at most the tasks still in
    flight.  Results come back in item order either way — and, because
    every task is a pure function of its item, a resumed map returns
    exactly what an uninterrupted one would.

    ``on_result(index, value, cached)`` fires once per item as it lands:
    at load for cache hits (``cached=True``), in completion order for
    fresh results — the hook live progress reporting plugs into.
    """
    if len(keys) != len(items):
        raise ConfigurationError(
            f"got {len(keys)} keys for {len(items)} items")
    if resume and store is None:
        raise ConfigurationError("resume requires a result store")
    results: dict[int, R] = {}
    todo: list[int] = []
    payloads = store.get_many(keys) if resume else [None] * len(keys)
    for i, payload in enumerate(payloads):
        if payload is None:
            todo.append(i)
            continue
        results[i] = value = decode(payload, i, items[i])
        if on_result is not None:
            on_result(i, value, True)

    def checkpoint(pos: int, value: R) -> None:
        index = todo[pos]
        results[index] = value
        if store is not None:
            store.put(keys[index], dict(encode(value)))
        if on_result is not None:
            on_result(index, value, False)

    executor = executor or SupervisedExecutor(workers=1)
    executor.map(fn, [items[i] for i in todo], on_result=checkpoint)
    return [results[i] for i in range(len(items))]
