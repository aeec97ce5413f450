"""Ω extracted from the paper's witness/subject ◇P construction.

The corrigendum's positive direction extracts ◇P from any wait-free
◇WX dining black box (:func:`repro.core.build_full_extraction`).  ◇P is
strictly above Ω in the Chandra–Toueg hierarchy, so composing the
extraction with the classical ◇P→Ω derivation ("elect the smallest
unsuspected process") yields eventual leader election *from dining* —
each process's :class:`~repro.oracles.omega.OmegaElector` reads the
extracted per-process suspicion facade instead of a native module.

:func:`leader_stability_spans` turns the recorded ``"leader"`` trace
rows into per-owner stability spans (who was leader, from when to when),
the evidence :func:`~repro.oracles.properties.check_leader_agreement`
judges: after the last span boundary all correct owners must agree on a
correct leader forever.

For the refuted direction, pass ``construction=FlawedCMPair`` (the
*flawed* single-instance construction of [8]): because that extraction
wrongfully suspects forever over an adversarial-but-legal deferred box,
the elected leader never stabilizes — the deliberately-failing reference
the lattice and experiment E4 point at.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from repro.core.extraction import build_full_extraction
from repro.core.pair import ReductionPair
from repro.oracles.omega import OmegaElector
from repro.oracles.properties import check_leader_agreement

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pair import DiningBoxFactory
    from repro.sim.engine import Engine
    from repro.sim.trace import Trace
    from repro.types import ProcessId, Time

__all__ = [
    "build_omega_extraction",
    "leader_stability_spans",
    "check_leader_agreement",
]


def build_omega_extraction(
    engine: "Engine",
    pids: Sequence["ProcessId"],
    box_factory: "DiningBoxFactory",
    *,
    construction: Callable[..., Any] = ReductionPair,
) -> dict["ProcessId", OmegaElector]:
    """◇P-from-dining composed with ◇P→Ω: one elector per process.

    Installs ``construction`` (default: the witness/subject reduction,
    paper Algs. 1–2) over every ordered pair of ``box_factory``, then
    stacks an :class:`OmegaElector` on each process's extracted
    suspicion facade.  Once the box's exclusive suffix starts and the
    extracted ◇P converges, every correct process's leader estimate
    stabilizes on the smallest correct pid — Ω, obtained from nothing
    but a wait-free ◇WX dining service.  Over [8]'s construction and a
    deferred-mistake box the estimates keep flapping instead.
    """
    detectors, _pairs = build_full_extraction(
        engine, list(pids), box_factory, construction=construction)
    electors: dict["ProcessId", OmegaElector] = {}
    for pid, facade in detectors.items():
        elector = OmegaElector("omega.elect", facade)
        engine.process(pid).add_component(elector)
        electors[pid] = elector
    return electors


def leader_stability_spans(
    trace: "Trace", owner: "ProcessId", end_time: "Time",
) -> list[tuple["ProcessId", float, float]]:
    """One span per leader-estimate interval: ``(leader, start, end)``.

    The final span is closed at ``end_time``; an Ω-satisfying run shows
    every correct owner's last span covering an unbounded suffix with the
    same correct leader, while a flapping extraction shows many short
    spans all the way to the horizon.
    """
    series = trace.series("leader", "leader", pid=owner)
    spans: list[tuple["ProcessId", float, float]] = []
    for i, (t, leader) in enumerate(series):
        end = series[i + 1][0] if i + 1 < len(series) else float(end_time)
        spans.append((leader, float(t), float(end)))
    return spans


def final_leader(trace: "Trace", owner: "ProcessId",
                 ) -> Optional["ProcessId"]:
    """The owner's last recorded leader estimate (None if never set)."""
    series = trace.series("leader", "leader", pid=owner)
    return series[-1][1] if series else None
