"""Regenerate the paper's Figure 1 as an SVG file.

Runs one reduction pair to convergence, extracts the witness/subject
eating sessions of both dining instances, and renders the exclusive-suffix
window as ``figure1.svg`` — short witness bars strictly between long,
pairwise-overlapping subject bars, with the convergence point marked.

Run:  python examples/render_figure1.py
"""

import pathlib

from repro.analysis.sessions import analyze_pair_sessions
from repro.analysis.svg import render_svg_timeline, save_svg
from repro.core import build_full_extraction
from repro.dining.boxes import box_factory
from repro.dining.spec import check_exclusion
from repro.runtime.builder import build_system
from repro.runtime.spec import RunSpec

OUT = pathlib.Path(__file__).parent / "figure1.svg"


def main() -> None:
    system = build_system(RunSpec(graph="pair:p,q", seed=101, gst=150.0,
                                  max_time=2500.0))
    _, pairs = build_full_extraction(system.engine, system.pids,
                                     box_factory("wf-ewx", system.provider),
                                     monitors=[("p", "q")])
    system.engine.run()
    pair = pairs[("p", "q")]
    end = system.engine.now

    conv = 0.0
    for iid in pair.instance_ids():
        rep = check_exclusion(system.engine.trace, system.graph, iid,
                              system.schedule, end)
        if rep.last_violation_end is not None:
            conv = max(conv, rep.last_violation_end)

    analysis = analyze_pair_sessions(system.engine.trace, pair, end)
    window = (end - 400.0, end)
    tracks = {}
    for i in (0, 1):
        tracks[f"DX{i} witness (p.w{i})"] = analysis.witness[i]
        tracks[f"DX{i} subject (q.s{i})"] = analysis.subject[i]
    svg = render_svg_timeline(
        tracks, window[0], window[1],
        title="Fig. 1 — witness and subject eating sessions "
              "(exclusive suffix)",
    )
    path = save_svg(svg, OUT)
    print(f"wrote {path} "
          f"({analysis.counts()} sessions; exclusion converged by "
          f"t={conv:.1f})")


if __name__ == "__main__":
    main()
