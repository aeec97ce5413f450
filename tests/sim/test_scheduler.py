"""Tests for step-scheduling policies."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.scheduler import BurstySteps

RNG = np.random.default_rng(0)


class TestBursty:
    def test_pauses_occur(self):
        pol = BurstySteps(pause_prob=0.3, pause_lo=20.0, pause_hi=30.0)
        draws = [pol.next_delay("p", 0.0, RNG) for _ in range(300)]
        assert any(d >= 20.0 for d in draws)
        assert any(d <= 0.6 for d in draws)

    def test_all_delays_finite_positive(self):
        pol = BurstySteps(pause_prob=0.5)
        assert all(0 < pol.next_delay("p", 0.0, RNG) < 1e6
                   for _ in range(300))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BurstySteps(pause_prob=1.0)
        with pytest.raises(ConfigurationError):
            BurstySteps(pause_lo=5.0, pause_hi=1.0)


def test_engine_integration_bursty_still_fair():
    """Bursty scheduling slows processes but never stops them."""
    from repro.sim import Engine, FixedDelays, SimConfig
    from repro.sim.component import Component, action

    class Ticker(Component):
        def __init__(self):
            super().__init__("t")
            self.n = 0

        @action(guard=lambda self: True)
        def tick(self):
            self.n += 1

    eng = Engine(
        SimConfig(seed=4, max_time=500.0,
                  step_policy=BurstySteps(pause_prob=0.1)),
        delay_model=FixedDelays(1.0),
    )
    tickers = [eng.add_process(f"p{i}").add_component(Ticker())
               for i in range(3)]
    eng.run()
    assert all(t.n > 50 for t in tickers)


def test_engine_integration_policy_is_deterministic():
    from repro.sim import Engine, FixedDelays, SimConfig
    from repro.sim.component import Component, action

    class Ticker(Component):
        def __init__(self):
            super().__init__("t")
            self.n = 0

        @action(guard=lambda self: True)
        def tick(self):
            self.n += 1

    def world():
        eng = Engine(
            SimConfig(seed=5, max_time=200.0,
                      step_policy=BurstySteps(pause_prob=0.2)),
            delay_model=FixedDelays(1.0),
        )
        t = eng.add_process("p").add_component(Ticker())
        eng.run()
        return t.n

    assert world() == world()
