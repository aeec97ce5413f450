"""End-to-end: dining black box -> extracted ◇P -> consensus.

The full chain the paper's equivalence enables: take a black-box WF-◇WX
dining solution, extract ◇P with the reduction, and hand the extracted
oracle to Chandra–Toueg consensus.  The round-1 coordinator is crashed to
force the oracle to earn its keep.

Run:  python examples/consensus_on_extracted_oracle.py
"""

from repro.consensus.chandra_toueg import check_consensus, setup_consensus
from repro.core import build_full_extraction
from repro.dining.boxes import box_factory
from repro.runtime.builder import build_system
from repro.runtime.spec import RunSpec



def main() -> None:
    system = build_system(RunSpec(
        graph="clique:4", seed=8, gst=120.0, max_time=8000.0,
        crashes={"p0": 40.0},   # round-1 coordinator dies
    ))
    pids = system.pids
    detectors, pairs = build_full_extraction(
        system.engine, pids, box_factory("wf-ewx", system.provider))
    proposals = {pid: f"value-from-{pid}" for pid in pids}
    endpoints = setup_consensus(system.engine, pids, detectors, proposals)

    system.engine.run(stop_when=lambda: all(
        system.engine.process(p).crashed or endpoints[p].decided is not None
        for p in pids
    ))

    result = check_consensus(system.engine.trace, pids, system.schedule,
                             proposals)
    print(f"{len(pairs)} reduction pairs "
          f"({2 * len(pairs)} dining instances) fed the oracle\n")
    print(result.format_table())
    print(f"\nvirtual time to decision: {system.engine.now:.1f}")
    assert result.ok, "consensus should hold with the extracted oracle"


if __name__ == "__main__":
    main()
