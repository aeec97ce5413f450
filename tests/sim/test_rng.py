"""Unit tests for deterministic RNG streams."""

import functools
import tracemalloc

import numpy as np
import pytest

from repro.sim.engine import Engine, SimConfig
from repro.sim.network import FixedDelays, PartialSynchronyDelays
from repro.sim.rng import BatchedDoubles, RngRegistry, _stream_key
from repro.sim.transport import ReliableTransport, RetransmitPolicy
from repro.types import Message


def _raw(seed, name):
    """The raw generator whose doubles ``RngRegistry(seed).stream(name)``
    serves (the reference the registry's views are checked against)."""
    return np.random.default_rng(np.random.SeedSequence(
        entropy=seed, spawn_key=(_stream_key(name),)))


def _take(view, n):
    return [view.random() for _ in range(n)]


def test_same_name_returns_cached_stream():
    reg = RngRegistry(seed=1)
    assert isinstance(reg.stream("a"), BatchedDoubles)
    assert reg.stream("a") is reg.stream("a")


def test_different_names_give_independent_streams():
    reg = RngRegistry(seed=1)
    a = _take(reg.stream("a"), 8)
    b = _take(reg.stream("b"), 8)
    assert not np.allclose(a, b)


def test_same_seed_reproduces_streams():
    xs = _take(RngRegistry(seed=7).stream("net"), 16)
    ys = _take(RngRegistry(seed=7).stream("net"), 16)
    assert xs == ys


def test_different_seeds_differ():
    xs = _take(RngRegistry(seed=7).stream("net"), 16)
    ys = _take(RngRegistry(seed=8).stream("net"), 16)
    assert xs != ys


def test_stream_independent_of_creation_order():
    r1 = RngRegistry(seed=3)
    r1.stream("x").random()
    a = _take(r1.stream("y"), 4)
    r2 = RngRegistry(seed=3)
    b = _take(r2.stream("y"), 4)   # no prior "x" stream
    assert a == b


def test_stream_serves_the_keyed_generator_across_blocks():
    # 700 draws cross two 256-double block boundaries.
    view = RngRegistry(seed=4).stream("s")
    assert _draws(view, 700) == _draws(_raw(4, "s"), 700)


def test_stream_key_is_stable():
    assert _stream_key("network") == _stream_key("network")
    assert _stream_key("network") != _stream_key("networl")


# -- BatchedDoubles: a batched view serves the raw generator's doubles --------


def _draws(rng, n):
    """Interleave random() with uniform() over mixed bounds."""
    out = []
    for i in range(n):
        if i % 3 == 0:
            out.append(rng.uniform(-2.5, 7.25))
        elif i % 3 == 1:
            out.append(rng.random())
        else:
            out.append(rng.uniform(0.4, 1.2))
    return out


@pytest.mark.parametrize("batch", [1, 3, 7, 256])
def test_batched_interleaving_matches_raw_generator(batch):
    raw = np.random.default_rng(11)
    view = BatchedDoubles(np.random.default_rng(11), batch=batch)
    got = _draws(view, 700)  # crosses many block boundaries at every batch
    assert got == _draws(raw, 700)
    assert all(type(x) is float for x in got)


def test_batched_view_continues_a_consumed_stream():
    # A view serves its generator's doubles from the generator's state.
    gen = _raw(4, "s")
    raw_prefix = gen.random(5).tolist()
    view = BatchedDoubles(gen, batch=3)
    ref = _raw(4, "s")
    assert raw_prefix == ref.random(5).tolist()
    assert _take(view, 10) == ref.random(10).tolist()


def test_batched_random_is_a_c_callable():
    # No Python frame per draw: the attribute is a partial over next().
    view = BatchedDoubles(np.random.default_rng(0))
    assert isinstance(view.random, functools.partial)
    assert view.random.func is next


def test_batched_views_hold_raw_blocks():
    # 1,000 streams after one draw each, generators included: a block is
    # 256 raw doubles, where a list of Python floats held 9.7 MB in all.
    tracemalloc.start()
    try:
        views = [BatchedDoubles(np.random.default_rng(i)) for i in range(1000)]
        for view in views:
            view.random()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 5e6, f"{held / 1e6:.2f} MB"


def test_batched_rejects_empty_blocks():
    with pytest.raises(ValueError):
        BatchedDoubles(np.random.default_rng(0), batch=0)


def _parent_partial_synchrony_delay(model, now, rng):
    """The delay model as written with ``rng.uniform`` (the reference)."""
    if now >= model.gst:
        return rng.uniform(0.1 * model.delta, model.delta)
    deliver_at = now + rng.uniform(1e-9, model.pre_gst_max)
    cap = model.gst + rng.uniform(0.1 * model.delta, model.delta)
    d = (cap if cap < deliver_at else deliver_at) - now
    return d if d > 1e-9 else 1e-9


@pytest.mark.parametrize("now", [0.0, 37.5, 119.9, 120.0, 500.0])
def test_partial_synchrony_delay_same_on_raw_and_batched(now):
    model = PartialSynchronyDelays(gst=120.0, delta=1.5, pre_gst_max=30.0)
    msg = Message("a", "b", "t", "k")
    ref = np.random.default_rng(3)
    raw = np.random.default_rng(3)
    view = BatchedDoubles(np.random.default_rng(3), batch=7)
    for _ in range(50):
        want = _parent_partial_synchrony_delay(model, now, ref)
        assert model.delay(msg, now, raw) == want
        assert model.delay(msg, now, view) == want


def _timer_times(engine, transport):
    return sorted(t for t, _, handler, _ in engine._heap
                  if handler == transport._timer)


@pytest.mark.parametrize("now", [0.0, 300.0])
def test_transport_jitter_same_on_raw_and_batched(now):
    policy = RetransmitPolicy(rto_initial=8.0, rto_max=120.0, jitter=0.25)
    ref = _raw(9, "transport")
    runs = []
    for raw in (False, True):
        eng = Engine(SimConfig(seed=9), delay_model=FixedDelays(1.0))
        transport = ReliableTransport(policy).install(eng)
        if raw:
            transport._rng = _raw(9, "transport")
        eng.add_process("a")
        eng.add_process("b")
        eng.clock.advance_to(now)
        for i in range(40):
            transport.wrap_and_send(Message("a", "b", "rx", "data", {"n": i}))
        # One retransmission round: every timer fires once, rto doubles.
        for entry in list(transport._pending.values()):
            transport._on_timer(entry)
        runs.append(_timer_times(eng, transport))
    spread = policy.jitter * policy.rto_initial
    want = [now + max(8.0 + ref.uniform(-spread, spread), 1e-9)
            for _ in range(40)]
    spread = policy.jitter * 16.0
    want += [now + max(16.0 + ref.uniform(-spread, spread), 1e-9)
             for _ in range(40)]
    assert runs[0] == runs[1] == sorted(want)
