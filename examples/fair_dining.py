"""Eventually k-fair dining via the Section 8 wrapper construction.

Wraps a black-box WF-◇WX dining instance in the fairness layer of
``repro.dining.fair_wrapper`` (the ``fair:k`` box) and shows the
overtake-budget knob at work: tighter budgets mean stricter turn-taking
and lower throughput.

Run:  python examples/fair_dining.py
"""

import repro

N = 3


def run_with_budget(k: int | None) -> str:
    result = repro.run(repro.RunSpec(
        graph=f"clique:{N}", algorithm="wf-ewx" if k is None else f"fair:{k}",
        client="eager:2", seed=21, gst=150.0, max_time=2500.0, grace=150.0))
    conv = (result.exclusion.last_violation_end or 0.0) + 250.0
    label = "no wrapper" if k is None else f"k={k}"
    return (f"{label:>10}: wait-free={result.wait_freedom.ok}  "
            f"suffix overtaking={result.fairness.worst_after(conv)}  "
            f"total sessions={sum(result.wait_freedom.sessions.values())}")


def main() -> None:
    print(f"{N}-diner clique, eager clients, 2500 time units\n")
    for k in (1, 2, 3, None):
        print(run_with_budget(k))
    print("\nsmaller k = stricter turn-taking = fewer total sessions")


if __name__ == "__main__":
    main()
