"""Eager RunSpec / executor-knob validation: fail at construction,
with an actionable message, not deep inside a fanned-out worker."""

import pytest

from repro.errors import ConfigurationError
from repro.runtime import RetryPolicy, RunSpec, SupervisedExecutor


class TestRunSpecValidation:
    @pytest.mark.parametrize("kwargs, match", [
        ({"seed": "7"}, "seed must be an int"),
        ({"seed": True}, "seed must be an int"),
        ({"max_time": 0.0}, "max_time must be positive"),
        ({"max_time": -5.0}, "max_time must be positive"),
        ({"gst": -1.0}, "gst must be non-negative"),
        ({"grace": -0.5}, "grace must be non-negative"),
        ({"drop": 1.5}, "drop must be a probability"),
        ({"drop": -0.1}, "drop must be a probability"),
        ({"duplicate": 2.0}, "duplicate must be a probability"),
        ({"detector": "psychic"}, "unknown detector"),
        ({"trace": "ring:notanumber"}, "ring:notanumber"),
        ({"trace": "laserdisc"}, "unknown trace sink"),
        ({"algorithm": "nope"}, "malformed dining box 'nope'"),
        ({"algorithm": "deferred:abc"}, "malformed dining box 'deferred:abc'"),
        ({"detector": "flawed_cm", "detector_params": {"box": "bogus"}},
         "malformed dining box 'bogus'"),
        ({"detector": "extracted", "detector_params": {"box": "fair:0"}},
         "malformed dining box 'fair:0'"),
    ])
    def test_bad_field_rejected_eagerly(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            RunSpec(**kwargs)

    @pytest.mark.parametrize("kwargs, match", [
        ({"pairs": "neighbors:0"}, "hop count must be >= 1"),
        ({"pairs": ["all"]}, "pair selection must be a string"),
        ({"algorithm": ["wf-ewx"]}, "malformed dining box"),
        ({"pairs": "neighbors:2", "algorithm": "fair:0"},
         "malformed dining box 'fair:0'"),
        ({"detector": "extracted", "detector_params": {"box": ["wf-ewx"]}},
         "malformed dining box"),
    ])
    def test_bad_grammar_rejected_on_every_construction(self, kwargs, match):
        # the parse of a good (pairs, algorithm) pair is remembered; a bad
        # one never is, whether it was seen before or is unhashable
        RunSpec(pairs="neighbors:2", algorithm="wf-ewx")
        for _ in range(3):
            with pytest.raises(ConfigurationError, match=match):
                RunSpec(**kwargs)

    def test_box_param_parse_is_remembered(self):
        from repro.runtime.spec import _check_grammars

        spec = dict(detector="extracted", detector_params={"box": "manager"})
        RunSpec(**spec)
        hits = _check_grammars.cache_info().hits
        RunSpec(**spec)
        assert _check_grammars.cache_info().hits == hits + 1

    def test_good_spec_constructs(self):
        spec = RunSpec(graph="ring:5", seed=3, max_time=100.0,
                       trace="counters")
        assert spec.seed == 3

    def test_from_dict_still_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            RunSpec.from_dict({"graph": "ring:3", "tpyo": 1})


class TestExecutorKnobValidation:
    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigurationError, match="workers"):
            SupervisedExecutor(workers=-2)

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ConfigurationError, match="timeout"):
            SupervisedExecutor(workers=2, timeout=0.0)

    def test_bad_maxtasksperchild_rejected(self):
        with pytest.raises(ConfigurationError, match="maxtasksperchild"):
            SupervisedExecutor(workers=2, maxtasksperchild=0)

    @pytest.mark.parametrize("kwargs, match", [
        ({"max_attempts": 0}, "max_attempts"),
        ({"backoff_initial": -1.0}, "backoff"),
        ({"jitter": 1.5}, "jitter"),
    ])
    def test_bad_retry_policy_rejected(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            RetryPolicy(**kwargs)

    def test_retry_delays_are_deterministic_and_bounded(self):
        policy = RetryPolicy(max_attempts=5, backoff_initial=0.25,
                             backoff_max=1.0, jitter=0.25, seed=42)
        delays = [policy.delay(7, a) for a in range(1, 5)]
        assert delays == [policy.delay(7, a) for a in range(1, 5)]
        assert all(0.0 < d <= 1.0 * 1.25 for d in delays)
        # Different tasks jitter differently (no thundering herd).
        assert policy.delay(7, 1) != policy.delay(8, 1)
