"""Eventually k-fair dining via the Section 8 wrapper construction.

Wraps a black-box WF-◇WX dining instance in the fairness layer of
``repro.dining.fair_wrapper`` and shows the overtake-budget knob at work:
tighter budgets mean stricter turn-taking and lower throughput.

Run:  python examples/fair_dining.py
"""

from repro.dining.client import EagerClient
from repro.dining.fair_wrapper import FairDining
from repro.dining.fairness import measure_fairness
from repro.dining.spec import check_exclusion, check_wait_freedom
from repro.dining.wf_ewx import WaitFreeEWXDining
from repro.graphs import clique
from repro.runtime.builder import build_system

N = 3
INSTANCE = "FAIR"


def run_with_budget(k: int | None) -> str:
    graph = clique(N)
    pids = sorted(graph.nodes)
    system = build_system(pids, seed=21, max_time=2500.0)
    inner = lambda iid, g: WaitFreeEWXDining(iid, g, system.provider)  # noqa: E731
    if k is None:
        diners = inner(INSTANCE, graph).attach(system.engine)
    else:
        wrapper = FairDining(INSTANCE, graph, inner, system.provider, k=k)
        diners = wrapper.attach(system.engine)
    for pid in pids:
        system.engine.process(pid).add_component(
            EagerClient("client", diners[pid], eat_steps=2))
    system.engine.run()
    eng = system.engine

    wf = check_wait_freedom(eng.trace, graph, INSTANCE, system.schedule,
                            eng.now, grace=150.0)
    excl = check_exclusion(eng.trace, graph, INSTANCE, system.schedule,
                           eng.now)
    conv = (excl.last_violation_end or 0.0) + 250.0
    fairness = measure_fairness(eng.trace, graph, INSTANCE, eng.now,
                                system.schedule)
    label = "no wrapper" if k is None else f"k={k}"
    return (f"{label:>10}: wait-free={wf.ok}  "
            f"suffix overtaking={fairness.worst_after(conv)}  "
            f"total sessions={sum(wf.sessions.values())}")


def main() -> None:
    print(f"{N}-diner clique, eager clients, 2500 time units\n")
    for k in (1, 2, 3, None):
        print(run_with_budget(k))
    print("\nsmaller k = stricter turn-taking = fewer total sessions")


if __name__ == "__main__":
    main()
