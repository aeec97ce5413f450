"""The store opens by index and parses on first read — and nobody can tell.

``ResultStore`` recognises the lines ``put`` wrote by their byte frame,
indexes them unparsed, and parses a body the first time it is read.  The
property test holds that against the loader it replaced (parse every
line at open), kept here verbatim as the reference; the deterministic
tests pin the three things the laziness itself promises.
"""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.runtime.store import STORE_SCHEMA, ResultStore


def eager_load(path):
    """The pre-index ``ResultStore._load``: ``(index, corrupt_lines)``."""
    index, corrupt = {}, 0
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            key = rec["key"]
            payload = rec["payload"]
        except (json.JSONDecodeError, KeyError, TypeError):
            if i == len(lines) - 1 and not text.endswith("\n"):
                corrupt += 1
                continue
            raise ExecutionError(f"{path}:{i + 1}: corrupt store line")
        index[key] = payload
    return index, corrupt


_scalars = (st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=False) | st.text(max_size=6))
_values = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)
_payloads = st.dictionaries(st.text(max_size=4), _values, max_size=4)
# A small key pool (so duplicates happen) of plain keys and of keys whose
# JSON form needs escapes or is not ASCII.
_keys = st.sampled_from(["k0", "k1", "a-b.c", 'q"uote', "back\\slash",
                         "tab\there", "ünï", " ", ""])

_put = st.tuples(st.just("put"), _keys, _payloads)
# Valid records `put` would not have written byte for byte: re-spaced,
# reordered, a non-object payload, a member after the payload.
_hand = st.tuples(
    st.sampled_from(["spaced", "payload-first", "trailing-member"]),
    _keys, _payloads | _values)
# Written as they are: blank lines, and lines no store ever held.
_raw = st.tuples(st.sampled_from(["", "  ", "\t", "not json at all",
                                  '{"key":"k0"}', "[1,2]"]),
                 st.none(), st.none())


def _hand_line(style, key, payload):
    if style == "spaced":
        return json.dumps({"schema": STORE_SCHEMA, "key": key,
                           "payload": payload})
    if style == "payload-first":
        return json.dumps({"payload": payload, "key": key},
                          separators=(",", ":"))
    return json.dumps({"schema": STORE_SCHEMA, "key": key,
                       "payload": payload, "note": {}},
                      separators=(",", ":"))


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(_put | _hand | _raw, max_size=12),
       torn=st.none() | st.tuples(_put | _hand, st.integers(min_value=1)))
def test_lazy_open_equals_eager_load(tmp_path_factory, steps, torn):
    path = tmp_path_factory.mktemp("lazy") / "s.jsonl"
    path.touch()
    writer = ResultStore(path)
    for style, key, payload in steps:
        if style == "put":
            writer.put(key, payload)
        else:
            line = _hand_line(style, key, payload) if key is not None \
                else style
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
    if torn is not None:
        (style, key, payload), cut = torn
        if style == "put":
            line = json.dumps({"schema": STORE_SCHEMA, "key": key,
                               "payload": payload}, separators=(",", ":"))
        else:
            line = _hand_line(style, key, payload)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line[:1 + cut % len(line)])  # may be the whole line

    try:
        want, corrupt = eager_load(path)
    except ExecutionError as exc:
        with pytest.raises(ExecutionError) as lazy:
            ResultStore(path)
        assert str(lazy.value).startswith(str(exc))  # the same path:line
        return
    store = ResultStore(path)
    assert len(store) == len(want)
    assert all(key in store for key in want)
    assert "absent" not in store
    assert store.stats().get("store.corrupt_lines", 0) == corrupt
    for key, payload in want.items():
        assert store.get(key) == payload
    # append order, and member order inside every payload
    assert json.dumps(store.items()) == json.dumps(list(want.items()))
    assert json.dumps(ResultStore(path).items()) == json.dumps(store.items())


def _framed_store(path, n=5):
    store = ResultStore(path)
    for i in range(n):
        store.put(f"key-{i}", {"i": i, "nested": {"values": [i, i + 1]}})
    return [f"key-{i}" for i in range(n)]


def test_open_parses_no_framed_line(tmp_path, monkeypatch):
    path = tmp_path / "s.jsonl"
    keys = _framed_store(path)
    calls = []
    real_loads = json.loads

    def counting_loads(*args, **kwargs):
        calls.append(args)
        return real_loads(*args, **kwargs)

    monkeypatch.setattr(json, "loads", counting_loads)
    store = ResultStore(path)
    assert len(store) == len(keys) and all(key in store for key in keys)
    assert calls == []
    store.get(keys[2])
    store.get(keys[2])
    assert len(calls) == 1  # parsed on first read, and only then
    store.items()
    assert len(calls) == len(keys)


def test_damaged_body_is_reported_at_first_read_of_that_key(tmp_path):
    path = tmp_path / "s.jsonl"
    keys = _framed_store(path)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[3] = lines[3].replace(b'"nested":{', b'"nested":{{')
    path.write_bytes(b"".join(lines))

    store = ResultStore(path)  # framing intact: opens, counts the entry
    assert len(store) == len(keys) and keys[3] in store
    for key in keys[:3] + keys[4:]:
        assert store.get(key)["i"] == int(key[-1])
    where = re.escape(f"{path}:4: corrupt store line")
    with pytest.raises(ExecutionError, match=where):
        store.get(keys[3])
    with pytest.raises(ExecutionError, match=where):
        store.items()


def test_get_returns_the_same_object_every_time(tmp_path):
    path = tmp_path / "s.jsonl"
    keys = _framed_store(path)
    store = ResultStore(path)
    first = store.get(keys[0])
    assert store.get(keys[0]) is first
    assert dict(store.items())[keys[0]] is first


# -- the batched read: get_many is per-key get through one file handle --------


def test_get_many_counts_and_returns_what_per_key_get_does(tmp_path):
    path = tmp_path / "s.jsonl"
    keys = _framed_store(path)
    wanted = [keys[3], "absent", keys[0], keys[3], "gone", keys[4]]
    batched, single = ResultStore(path), ResultStore(path)
    assert batched.get_many(wanted) == [single.get(key) for key in wanted]
    assert batched.stats() == single.stats()
    assert batched.stats()["store.hits"] == 4
    assert batched.stats()["store.misses"] == 2
    assert batched.get_many([]) == [] and batched.stats() == single.stats()


def test_get_many_opens_the_file_once(tmp_path, monkeypatch):
    import builtins

    from repro.runtime import store as store_module

    path = tmp_path / "s.jsonl"
    keys = _framed_store(path)
    store = ResultStore(path)
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return builtins.open(*args, **kwargs)

    monkeypatch.setattr(store_module, "open", counting_open, raising=False)
    assert [p["i"] for p in store.get_many(keys)] == [0, 1, 2, 3, 4]
    assert opened == [path]
    store.get_many(keys)  # every body is parsed: nothing left to read
    assert opened == [path]


def test_get_many_names_a_damaged_line_as_get_does(tmp_path):
    path = tmp_path / "s.jsonl"
    keys = _framed_store(path)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[3] = lines[3].replace(b'"nested":{', b'"nested":{{')
    path.write_bytes(b"".join(lines))

    where = re.escape(f"{path}:4: corrupt store line")
    batched, single = ResultStore(path), ResultStore(path)
    with pytest.raises(ExecutionError, match=where):
        batched.get_many(keys)
    with pytest.raises(ExecutionError, match=where):
        for key in keys:
            single.get(key)
    assert batched.stats() == single.stats()
    assert batched.stats()["store.hits"] == 3


def test_get_many_skips_and_counts_a_torn_tail(tmp_path):
    path = tmp_path / "s.jsonl"
    keys = _framed_store(path, n=2)
    with open(path, "ab") as fh:
        fh.write(b'{"schema":"repro.store.v1","key":"key-2","payload":{"i"')
    store = ResultStore(path)
    assert store.get_many(keys + ["key-2"]) == [
        {"i": 0, "nested": {"values": [0, 1]}},
        {"i": 1, "nested": {"values": [1, 2]}},
        None]
    stats = store.stats()
    assert stats["store.corrupt_lines"] == 1
    assert stats["store.hits"] == 2 and stats["store.misses"] == 1
