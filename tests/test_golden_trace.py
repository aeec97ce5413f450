"""Golden-trace regression tests: fixed-seed runs are bit-identical.

Hot-path optimization of the engine (batched RNG draws, lazy trace fast
paths, cheaper dispatch) is only admissible when it leaves every run's
event history untouched under a fixed seed.  These tests pin sha256
digests of full traces — every record's time (full float precision),
kind, pid, and data — for three representative run shapes:

* one **reduction** run (the paper's witness/subject extraction over a
  WF-◇WX black box);
* one **chaos scenario** (link faults, partition, transport, adversary —
  the batched link-faults/transport/network streams all in play);
* one **sweep shard** (a declarative scenario under a fanout-derived
  seed).

plus one direct-engine run under a step *policy* and the
:class:`~repro.sim.network.AsynchronousDelays` model (a lognormal body
drawn by inverse CDF from one uniform double).

State and suspicion rows see transport timing only indirectly, so three
further pins hold the wire and the campaign surfaces still:

* the chaos scenario rerun with ``record_messages`` — every send,
  deliver and drop row plus the transport counters;
* a seed-7 chaos campaign's ``to_json()`` and ``run_records()``;
* a two-seed lattice matrix's ``to_records()``.

and the judged side of a run is pinned too: the ``repro.span.v1`` rows
and the probe snapshot of two runs, and every stored verdict plus the
detector battery of two more.

``Message.uid`` values are excluded from digests: the uid counter is
process-global, so absolute uids depend on how many messages earlier
tests created; everything else about a record is seed-determined.

The constants were recorded from the engine *before* the optimization
pass (PR "hot-path engine optimization"); any future engine change that
shifts them is a replay-compatibility break and must be deliberate.

Regenerating (only for an *intended* semantic change): run the failing
test — pytest's assertion diff shows the newly computed digest and event
count — and update the ``GOLDEN``/``GOLDEN_EVENTS`` constants in the
same commit as the change, stating in the commit message why the event
stream moved.
"""

import dataclasses
import hashlib
import json

from repro.runtime.builder import instantiate
from repro.runtime.seeds import fanout_seeds
from repro.runtime.spec import RunSpec


def trace_digest(trace, kinds=None) -> str:
    """sha256 over the full retained history (or its ``kinds`` rows), uid
    fields excluded."""
    h = hashlib.sha256()
    for rec in trace:
        if kinds is not None and rec.kind not in kinds:
            continue
        row = (repr(rec.time), rec.kind, rec.pid,
               tuple(sorted((k, repr(v)) for k, v in rec.data.items()
                            if k != "uid")))
        h.update(repr(row).encode("utf-8"))
    return h.hexdigest()


class TestReductionRunGolden:
    GOLDEN = "63417a1c08dcbffbe073c9f52721162b8a4221b6914bca565d01ea9c0f1414cc"
    GOLDEN_EVENTS = 1246

    def test_digest_unchanged(self):
        from repro.core import build_full_extraction
        from repro.dining.boxes import box_factory
        from repro.runtime.builder import build_system
        from repro.runtime.spec import RunSpec

        system = build_system(RunSpec(graph="pair:p,q", seed=5, gst=150.0,
                                      max_time=400.0))
        build_full_extraction(system.engine, system.pids,
                              box_factory("wf-ewx", system.provider))
        system.engine.run()
        assert system.engine.events_processed == self.GOLDEN_EVENTS
        assert trace_digest(system.engine.trace) == self.GOLDEN


class TestChaosScenarioGolden:
    GOLDEN = "a8e8324cdea09e70259a8852089271011bc9f1e230222cb54e1619c338c96e91"
    GOLDEN_EVENTS = 5444

    def test_digest_unchanged(self):
        from repro.chaos import ChaosConfig, build_run

        spec = build_run(2885616951, ChaosConfig(max_time=400.0))
        built = instantiate(spec)
        built.engine.run()
        assert built.engine.events_processed == self.GOLDEN_EVENTS
        assert trace_digest(built.engine.trace) == self.GOLDEN


class TestChaosWireGolden:
    """The chaos scenario's wire: every send, deliver and drop row, with
    the transport's own counters."""

    GOLDEN = "d41346eb25b4b8e12ef151d82cc0fc40f9bcf8098410d8904e36e4b46ea54726"
    GOLDEN_EVENTS = 5444
    GOLDEN_TRANSPORT = {
        "transport.abandoned": 0.0,
        "transport.acks_sent": 1150.0,
        "transport.data_sent": 696.0,
        "transport.delivered_unique": 695.0,
        "transport.duplicates_suppressed": 455.0,
        "transport.retransmissions": 591.0,
    }

    def test_digest_unchanged(self):
        from repro.chaos import ChaosConfig, build_run

        spec = build_run(2885616951, ChaosConfig(max_time=400.0))
        built = instantiate(dataclasses.replace(spec, record_messages=True))
        built.engine.run()
        counters = built.engine.registry.snapshot().counters
        assert built.engine.events_processed == self.GOLDEN_EVENTS
        assert {k: v for k, v in counters.items()
                if k.startswith("transport.")} == self.GOLDEN_TRANSPORT
        assert trace_digest(built.engine.trace,
                            kinds={"send", "deliver", "drop"}) == self.GOLDEN


def json_digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


class TestCampaignPins:
    """Whole-surface pins: what ``repro chaos`` and ``repro lattice``
    print is a function of these payloads."""

    CHAOS_JSON = \
        "d218801398dc5d92927377710bd6f57bc70a3ba1da3e7ea2bfdd55323fd53f0e"
    CHAOS_RECORDS = \
        "18d775fd3487812e8ebbf1c5bd7f59a410c7619baeec23d704055270843ca916"
    LATTICE_RECORDS = \
        "93916bbe09ac2de093a779f31258f05d6aa15e79a8793afbefb37f6244505cb1"

    def test_chaos_campaign_unchanged(self):
        from repro.chaos import ChaosConfig, run_campaign

        result = run_campaign(ChaosConfig(campaigns=8, seed=7))
        assert result.ok
        assert json_digest(result.to_json()) == self.CHAOS_JSON
        assert json_digest(result.run_records()) == self.CHAOS_RECORDS

    def test_lattice_matrix_unchanged(self):
        import repro

        matrix = repro.compare(graphs=("ring:4",), seeds=2, seed=7)
        assert json_digest(matrix.to_records()) == self.LATTICE_RECORDS


def repr_digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode("utf-8")).hexdigest()


CHAOS_GOLDEN_SEED = 2885616951


def chaos_golden_spec():
    from repro.chaos import ChaosConfig, build_run

    return build_run(CHAOS_GOLDEN_SEED, ChaosConfig(max_time=400.0))


def sweep_golden_spec():
    return RunSpec(name="golden-sweep", graph="ring:4",
                   seed=fanout_seeds(0, 3)[2], max_time=400.0,
                   crashes={"p1": 180.0})


def omega_golden_spec():
    return RunSpec(name="golden-omega", graph="ring:4", detector="omega",
                   seed=7, max_time=600.0, crashes={"p1": 200.0})


class TestSpanAndProbePins:
    """The span export and the probe snapshot, byte for byte: the chaos
    golden scenario, and an Ω run (two suspicion labels, a leader
    series) on ``ring:4`` with a crash."""

    PINS = {
        "chaos": (
            "2e1566795db36ae47a18b02e7c63c745d3a91e7b97d8e4ca681373928a7929c6",
            "89d275fa8f4b7c0989050d9a0f65cf2cd24f8498a8252a619b953b58040433d6"),
        "omega": (
            "77527ef0b875f87a5520d5afbb0df14bae8e76745708d9ec0a2e0c704726b695",
            "a24a674d83d21ea676b093785947189050adb2da61db07c64876f6c7ce41ada8"),
    }

    def check(self, name, spec):
        from repro.runtime.builder import execute

        result = execute(dataclasses.replace(spec, spans=True))
        spans, obs = self.PINS[name]
        assert json_digest(result.span_records()) == spans
        assert json_digest(result.obs.to_dict()) == obs

    def test_chaos_spans_and_obs_unchanged(self):
        self.check("chaos", chaos_golden_spec())

    def test_omega_spans_and_obs_unchanged(self):
        self.check("omega", omega_golden_spec())


class TestVerdictPins:
    """Every verdict ``execute`` stores, plus the detector battery with
    its details, for the chaos and sweep golden specs."""

    PINS = {
        "chaos": (
            "6c4ba3dc3c196abb6062732cf6b00624d142107cb824cf2654c855c209bbb163",
            "0463da25e0cae159d902f9addbe35b73ab4930fc375887c76d110ac188629da9",
            "5f8a2a2918c0c03f3d2ba120155cb13d7a000c4a191b7b10afa468e5b05dbaa8",
            "eb946fe9a76a8627d4c4fac9e61867225c5263027620d61c1734cef5d213362a"),
        "sweep": (
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
            "60a6fd79a93019433ac0379f75c09dff84ceed1ae103dd7a78fb190940846118",
            "258b2904d1ad871e40cfa25bd11d1e141db28c3b7b1034b093aed34b8eaf97c0",
            "eb946fe9a76a8627d4c4fac9e61867225c5263027620d61c1734cef5d213362a"),
    }

    def check(self, name, spec):
        from repro.oracles.properties import check_detector_properties
        from repro.runtime.builder import execute

        result = execute(spec)
        built = instantiate(spec)
        built.engine.run()
        system = built.system
        verdicts = check_detector_properties(
            built.engine.trace, system.pids, system.schedule,
            system.assumptions, pairs=system.monitors)
        assert (repr_digest(result.exclusion.violations),
                repr_digest(result.wait_freedom),
                repr_digest(result.fairness.samples),
                repr_digest(verdicts)) == self.PINS[name]

    def test_chaos_verdicts_unchanged(self):
        self.check("chaos", chaos_golden_spec())

    def test_sweep_verdicts_unchanged(self):
        self.check("sweep", sweep_golden_spec())


class TestSweepShardGolden:
    GOLDEN = "d3910b4090ca0996d2a6613a95da95e51c44adf554281797aff1e1969cf6a649"
    GOLDEN_EVENTS = 2406

    def test_digest_unchanged(self):
        shard_seed = fanout_seeds(0, 3)[2]
        spec = RunSpec(name="golden-sweep", graph="ring:4", seed=shard_seed,
                       max_time=400.0, crashes={"p1": 180.0})
        built = instantiate(spec)
        built.engine.run()
        assert built.engine.events_processed == self.GOLDEN_EVENTS
        assert trace_digest(built.engine.trace) == self.GOLDEN


class TestPolicyAndAsyncDelaysGolden:
    """A step policy over the lognormal channel: BurstySteps over
    AsynchronousDelays, whose body is drawn by inverse CDF from the
    ``network`` stream like every other delay."""

    GOLDEN = "42151bc0162384dd2aab44ad7755152851f752bbf1562435a41186505990557c"
    GOLDEN_EVENTS = 1028

    def test_digest_unchanged(self):
        from repro.sim import Engine, SimConfig
        from repro.sim.component import Component, action, receive
        from repro.sim.network import AsynchronousDelays
        from repro.sim.scheduler import BurstySteps

        class Chatter(Component):
            def __init__(self, peer):
                super().__init__("chat")
                self.peer = peer

            @action(guard=lambda self: True)
            def talk(self):
                self.send(self.peer, "chat", "gossip")

            @receive("gossip")
            def on_gossip(self, msg):
                pass

        eng = Engine(SimConfig(seed=9, max_time=1e9, record_messages=True,
                               step_policy=BurstySteps()),
                     delay_model=AsynchronousDelays())
        pids = ["a", "b", "c"]
        for pid in pids:
            eng.add_process(pid)
        for i, pid in enumerate(pids):
            eng.processes[pid].add_component(
                Chatter(pids[(i + 1) % len(pids)]))
        eng.run(until=120.0)
        assert eng.events_processed == self.GOLDEN_EVENTS
        assert trace_digest(eng.trace) == self.GOLDEN
