"""Acceptance: the paper's reduction works over emulated reliable channels.

The witness/subject threads (Alg. 1/2) assume the Section 4 channel model:
reliable, non-FIFO delivery between correct processes.  Here the wire is
fair-lossy — ≥10% random drop plus a partition window — and the
:class:`~repro.sim.transport.ReliableTransport` restores the contract
underneath.  The reduction code runs *unchanged*: everything below is the
same ``build_full_extraction`` harness the clean-network tests use, with
only engine-level fault/transport configuration added.
"""

from repro.core.extraction import build_full_extraction
from repro.dining.boxes import box_factory
from repro.oracles.properties import (
    check_eventual_strong_accuracy,
    check_strong_completeness,
)
from repro.runtime.builder import build_system
from repro.runtime.spec import RunSpec

#: Snappy retransmission so recovery timescales fit the test horizon.
POLICY = {"rto_initial": 5.0, "rto_max": 40.0}


def run_lossy_pair(seed=3, crashes=None, max_time=2500.0, drop=0.12,
                   partition=None):
    system = build_system(RunSpec(
        graph="pair:p,q", seed=seed, gst=150.0, max_time=max_time,
        crashes=crashes or {}, drop=drop, partition=partition,
        transport=POLICY))
    detectors, pairs = build_full_extraction(
        system.engine, system.pids, box_factory("wf-ewx", system.provider),
        monitors=[("p", "q")])
    system.engine.run()
    return system, detectors, pairs[("p", "q")]


class TestExtractionOverLossyWire:
    def test_accuracy_with_drop_and_partition(self):
        """◇P extraction converges (no permanent false suspicion of the
        correct subject) despite 12% loss and a mid-run partition."""
        part = {"side": ["q"], "start": 400.0, "end": 650.0}
        system, _, _ = run_lossy_pair(partition=part)
        rep = check_eventual_strong_accuracy(
            system.engine.trace, ["p"], ["q"], system.schedule,
            detector="extracted")
        assert rep.ok, rep.format_table()
        assert system.transport is not None
        assert system.engine.network.dropped > 0          # faults really hit
        assert system.transport.retransmissions > 0       # and were repaired

    def test_completeness_with_drop(self):
        """A crashed subject is eventually permanently suspected even while
        the wire keeps losing (and the transport keeps repairing) traffic."""
        system, _, _ = run_lossy_pair(
            crashes={"q": 900.0}, drop=0.15)
        rep = check_strong_completeness(
            system.engine.trace, ["p"], ["q"], system.schedule,
            detector="extracted")
        assert rep.ok, rep.format_table()

    def test_deterministic_replay(self):
        """Same seed, same faults: the extracted suspicion history is
        identical — the chaos-replay guarantee at the reduction layer."""
        def history(seed):
            system, _, _ = run_lossy_pair(seed=seed, max_time=1200.0)
            return [
                (r.time, r["suspected"])
                for r in system.engine.trace.records(
                    kind="suspect", pid="p",
                    where=lambda r: r.get("detector") == "extracted")
            ]

        assert history(5) == history(5)
        assert history(5) != history(6)

    def test_heavy_loss_still_converges(self):
        part = {"side": ["p"], "start": 300.0, "end": 480.0}
        system, _, _ = run_lossy_pair(seed=11, drop=0.25, partition=part,
                                      max_time=3000.0)
        rep = check_eventual_strong_accuracy(
            system.engine.trace, ["p"], ["q"], system.schedule,
            detector="extracted")
        assert rep.ok, rep.format_table()


class TestRawLossyWireBreaksAssumptions:
    def test_without_transport_wire_loses_for_good(self):
        """Control experiment: the same faults with no transport leave the
        application short of messages — the Section 4 premise really is
        doing work in the tests above."""
        system = build_system(RunSpec(graph="pair:p,q", seed=3, gst=150.0,
                                      max_time=800.0, drop=0.3,
                                      transport=False))
        build_full_extraction(system.engine, system.pids,
                              box_factory("wf-ewx", system.provider),
                              monitors=[("p", "q")])
        system.engine.run()
        net = system.engine.network
        assert system.transport is None
        assert net.dropped > 0
        assert net.delivered < net.sent
