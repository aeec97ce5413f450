"""Tests for the diner client drivers."""

import numpy as np
import pytest

from repro.dining.client import EagerClient, PeriodicClient
from repro.dining.hygienic import HygienicDining
from repro.dining.spec import eating_intervals
from repro.errors import ConfigurationError
from repro.graphs import pair_graph
from repro.sim import Engine, FixedDelays, SimConfig


def build(client_factory, seed=1, max_time=400.0):
    g = pair_graph("a", "b")
    eng = Engine(SimConfig(seed=seed, max_time=max_time),
                 delay_model=FixedDelays(1.0))
    for pid in ("a", "b"):
        eng.add_process(pid)
    inst = HygienicDining("DX", g)
    diners = inst.attach(eng)
    clients = {}
    for pid in ("a", "b"):
        clients[pid] = eng.process(pid).add_component(
            client_factory(pid, diners[pid], eng))
    eng.run()
    return eng, diners, clients


def test_eager_client_validates_eat_steps():
    with pytest.raises(ConfigurationError):
        EagerClient("c", diner=None, eat_steps=0)


def test_eager_client_cycles():
    eng, diners, _ = build(lambda pid, d, e: EagerClient("c", d, eat_steps=2))
    assert diners["a"].sessions_eaten > 10
    assert diners["b"].sessions_eaten > 10


def test_eager_client_max_sessions():
    eng, diners, _ = build(
        lambda pid, d, e: EagerClient("c", d, eat_steps=1, max_sessions=3))
    assert diners["a"].sessions_eaten == 3
    assert diners["b"].sessions_eaten == 3


def test_periodic_client_respects_time_ranges():
    eng, diners, _ = build(
        lambda pid, d, e: PeriodicClient(
            "c", d, rng=np.random.default_rng(hash(pid) % 2**32),
            think_time=(5.0, 10.0), eat_time=(2.0, 4.0)))
    ivs = eating_intervals(eng.trace, "DX", "a", eng.now)
    assert ivs
    # Sessions last at least the minimum eat time (modulo one step delay).
    assert all(b - a >= 1.5 for a, b in ivs[:-1])


def test_periodic_client_validates_ranges():
    with pytest.raises(ConfigurationError):
        PeriodicClient("c", None, np.random.default_rng(0),
                       think_time=(5.0, 1.0))
