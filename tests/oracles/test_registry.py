"""The detector registry: specs, errors, and end-to-end equivalence of
every registered detector on a real run."""

import hashlib

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.oracles import registry
from repro.oracles.registry import (
    BOX_LABEL,
    DEFAULT_DETECTOR,
    REGISTRY,
    DetectorSpec,
    detector_kind_help,
    resolve_detector,
)
from repro.runtime.builder import execute
from repro.runtime.spec import RunSpec

EXPECTED_NAMES = {"eventually_perfect", "perfect", "trusting", "strong",
                  "eventually_strong", "omega", "flawed_cm", "extracted"}

#: The WF-◇WX boxes of the box grammar: what ``extracted`` may run over.
LEGAL_BOXES = ["wf-ewx", "deferred:150", "manager"]


def _digest(result) -> str:
    """sha256 over the retained trace, uid fields excluded (the golden
    -trace digest convention)."""
    h = hashlib.sha256()
    for rec in result.trace:
        row = (repr(rec.time), rec.kind, rec.pid,
               tuple(sorted((k, repr(v)) for k, v in rec.data.items()
                            if k != "uid")))
        h.update(repr(row).encode("utf-8"))
    return h.hexdigest()


class TestRegistryShape:
    def test_all_expected_detectors_registered(self):
        assert set(REGISTRY) == EXPECTED_NAMES

    def test_default_is_registered(self):
        assert DEFAULT_DETECTOR in REGISTRY

    def test_entries_are_self_consistent(self):
        for name, entry in REGISTRY.items():
            assert entry.name == name
            assert entry.summary and entry.example
            assert entry.label
            assert entry.assumptions.label == entry.label
            assert callable(entry.install)

    def test_help_mentions_every_detector(self):
        text = detector_kind_help()
        for name in EXPECTED_NAMES:
            assert name in text


class TestDetectorSpec:
    def test_unknown_name_enumerates_registry(self):
        with pytest.raises(ConfigurationError, match="registered detectors"):
            resolve_detector("psychic")
        with pytest.raises(ConfigurationError, match="eventually_perfect"):
            DetectorSpec("psychic")

    def test_unknown_param_names_the_accepted_ones(self):
        with pytest.raises(ConfigurationError, match="initial_timeout"):
            DetectorSpec("eventually_perfect", {"timeout": 3})

    def test_merged_params_overlay_defaults(self):
        spec = DetectorSpec("eventually_perfect", {"initial_timeout": 20})
        merged = spec.merged_params()
        assert merged["initial_timeout"] == 20
        assert merged["heartbeat_period"] == 4  # default preserved


class TestRunSpecIntegration:
    def test_runspec_validates_detector_eagerly(self):
        with pytest.raises(ConfigurationError, match="registered detectors"):
            RunSpec(detector="psychic")
        with pytest.raises(ConfigurationError, match="accepted"):
            RunSpec(detector_params={"bogus": 1})

    @pytest.mark.parametrize("box", ["deferred:abc", "wf"])
    def test_flawed_cm_box_uses_the_dining_grammar(self, box):
        # Refused when the spec is built, before any worker sees it.
        with pytest.raises(ConfigurationError, match="deferred\\[:horizon\\]"):
            RunSpec(graph="ring:3", detector="flawed_cm",
                    detector_params={"box": box})


class TestExtracted:
    """The paper's reduction, registered: ◇P extracted by Algs. 1/2 from a
    WF-◇WX box claims ◇P's battery and keeps it over every legal box."""

    @pytest.mark.parametrize("box", LEGAL_BOXES)
    def test_accurate_over_every_legal_box(self, box):
        result = execute(RunSpec(graph="ring:4", detector="extracted",
                                 detector_params={"box": box}))
        assert result.oracle_accuracy_ok

    @pytest.mark.parametrize("box", LEGAL_BOXES)
    def test_complete_and_wait_free_with_one_crash(self, box):
        result = execute(RunSpec(graph="ring:4", detector="extracted",
                                 detector_params={"box": box},
                                 crashes={"p1": 400.0}))
        assert result.oracle_accuracy_ok
        assert result.oracle_completeness_ok
        assert result.wait_freedom.ok

    def test_shares_the_reduction_hook_with_flawed_cm(self):
        hooks = {REGISTRY[name].install.func
                 for name in ("extracted", "flawed_cm")}
        assert len(hooks) == 1

    def test_substrate_runs_under_its_own_label(self):
        result = execute(RunSpec(graph="ring:4", max_time=400.0,
                                 detector="extracted"))
        assert result.detector_stats("extracted.sub")["suspicion_churn"] > 0


@pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
def test_every_detector_executes_a_real_run(name):
    result = execute(RunSpec(graph="ring:4", seed=3, max_time=400.0,
                             crashes={"p1": 150.0}, detector=name))
    assert result.checked
    assert result.wait_freedom.ok
    # Completeness holds for every registered detector: the crashed
    # process is eventually suspected by everyone live.
    assert result.oracle_completeness_ok
    entry = REGISTRY[name]
    assert entry.label == (
        BOX_LABEL if name not in ("omega", "flawed_cm", "extracted")
        else entry.label)
    if name == "flawed_cm":
        # The corrigendum's point: the [8] extraction claims ◇P accuracy
        # and fails it over the adversarial-but-legal deferred box.
        assert not result.oracle_accuracy_ok
    else:
        assert result.oracle_accuracy_ok


def test_detector_rng_is_order_independent():
    # Substrate noise must replay per owner regardless of worker count or
    # construction order: two identical specs produce identical digests.
    spec = RunSpec(graph="ring:4", seed=11, max_time=300.0,
                   detector="eventually_strong")
    assert _digest(execute(spec)) == _digest(execute(spec))


def test_rng_for_ranks_the_pids_once_per_context(monkeypatch):
    # Every owner asks for its noise stream; ranking the pids costs one
    # sort per context, not one per owner, and the streams do not move.
    sorts = []
    monkeypatch.setattr(registry, "sorted",
                        lambda xs: sorts.append(1) or sorted(xs),
                        raising=False)
    pids = ["p3", "p1", "p10", "p0", "p2"]
    ctx = registry.InstallContext(engine=None, pids=pids, schedule=None,
                                  peers_of=None, seed=-5)
    draws = {pid: ctx.rng_for(pid, salt=1).random() for pid in pids}
    assert len(sorts) == 1
    for index, pid in enumerate(sorted(pids)):
        ref = np.random.default_rng(
            np.random.SeedSequence(entropy=5, spawn_key=(index, 1)))
        assert draws[pid] == ref.random()
