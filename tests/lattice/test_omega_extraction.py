"""Ω derived from dining: the sound extraction stabilizes, the flawed
one keeps flapping — the corrigendum's contrast at the leader level.

◇P is strictly above Ω, so the extraction composed with the classical
◇P→Ω rule ("elect the smallest unsuspected process") gives leader
election from nothing but a dining box; over [8]'s construction
(``FlawedCMPair``) and a deferred-mistake box the leader never settles.
"""

from repro.core.extraction import build_full_extraction
from repro.core.flawed_cm import FlawedCMPair
from repro.core.pair import ReductionPair
from repro.dining.boxes import box_factory
from repro.obs import IntervalMachine
from repro.oracles.omega import OmegaElector
from repro.oracles.properties import leader_agreement
from repro.runtime.builder import build_system
from repro.runtime.spec import RunSpec

PIDS = ["p0", "p1", "p2"]


def run_extraction(box, construction=ReductionPair, crashes=None, seed=11,
                   max_time=2000.0):
    """An :class:`OmegaElector` per process over the dining-extracted ◇P."""
    system = build_system(RunSpec(graph="clique:3", seed=seed, gst=150.0,
                                  max_time=max_time, crashes=crashes or {}))
    detectors, _ = build_full_extraction(
        system.engine, PIDS, box_factory(box, system.provider),
        construction=construction)
    electors = {pid: system.engine.process(pid).add_component(
        OmegaElector("omega.elect", facade))
        for pid, facade in detectors.items()}
    system.engine.run()
    return system, electors


def leader_report(system):
    machine = IntervalMachine(system.schedule)
    return leader_agreement(
        machine.replay(system.engine.trace.records(kind="leader")), PIDS)


def leader_stability_spans(trace, owner, end_time):
    """``(leader, start, end)`` per leader-estimate interval of ``owner``,
    the last one closed at ``end_time``."""
    series = trace.series("leader", "leader", pid=owner)
    ends = [t for t, _ in series[1:]] + [float(end_time)]
    return [(leader, float(t), float(end))
            for (t, leader), end in zip(series, ends)]


def final_leader(trace, owner):
    series = trace.series("leader", "leader", pid=owner)
    return series[-1][1] if series else None


class TestSoundExtraction:
    def test_leaders_agree_on_smallest_correct(self):
        system, electors = run_extraction("wf-ewx")
        report = leader_report(system)
        assert report.ok
        for pid in PIDS:
            assert final_leader(system.engine.trace, pid) == "p0"
            assert electors[pid].leader == "p0"

    def test_crash_of_leader_forces_reelection(self):
        system, _ = run_extraction("wf-ewx", crashes={"p0": 600.0})
        correct = [p for p in PIDS if p != "p0"]
        report = leader_report(system)
        assert report.ok
        for pid in correct:
            assert final_leader(system.engine.trace, pid) == "p1"

    def test_stability_spans_end_with_an_unbounded_suffix(self):
        system, _ = run_extraction("wf-ewx")
        end = system.engine.now
        for pid in PIDS:
            spans = leader_stability_spans(system.engine.trace, pid, end)
            assert spans, f"{pid} never elected a leader"
            leader, start, stop = spans[-1]
            assert leader == "p0" and stop == end
            # The final span must cover a real suffix, not a last-moment
            # flip.
            assert stop - start > 100.0


class TestFlawedExtraction:
    def test_flawed_leader_never_stabilizes(self):
        # Over the adversarial-but-legal deferred box, the [8] extraction
        # wrongfully suspects forever, so the derived leader keeps
        # flapping: many short spans all the way to the horizon, against
        # the sound extraction's single long suffix.
        sound, _ = run_extraction("wf-ewx")
        flawed, _ = run_extraction("deferred", FlawedCMPair)
        end_s, end_f = sound.engine.now, flawed.engine.now

        def last_span_len(system, end):
            spans = leader_stability_spans(system.engine.trace, "p1", end)
            assert spans
            leader, start, stop = spans[-1]
            return stop - start, len(spans)

        sound_len, sound_spans = last_span_len(sound, end_s)
        flawed_len, flawed_spans = last_span_len(flawed, end_f)
        assert flawed_spans > sound_spans
        assert sound_len > flawed_len

    def test_flawed_flapping_continues_into_the_suffix(self):
        system, _ = run_extraction("deferred", FlawedCMPair)
        end = system.engine.now
        # p0 trivially elects itself forever (it never self-suspects);
        # the flapping shows at the owners above it in the id order.
        spans = leader_stability_spans(system.engine.trace, "p2", end)
        # Leader changes keep happening in the last quarter of the run —
        # the quiet-suffix condition the lattice checks can never hold.
        late = [s for s in spans if s[1] > end * 0.75]
        assert len(late) >= 2
