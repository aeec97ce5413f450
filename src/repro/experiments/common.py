"""Shared scaffolding for the experiment harnesses.

All engine/oracle/transport construction lives in the canonical runtime
builder (:mod:`repro.runtime.builder`); this module re-exports
:func:`build_system` and :class:`System` from there so the twenty
experiment harnesses keep their historical import path, and adds only the
experiment-specific bits: the result record and the black-box dining
factories the reduction experiments parameterize over (each one spelling
of :func:`repro.dining.box_factory`'s grammar).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.analysis.report import Table
from repro.dining.base import DiningBoxFactory
from repro.dining.boxes import box_factory
from repro.runtime.builder import System, build_system
from repro.types import Time

__all__ = [
    "BOX_BUILDERS",
    "ExperimentResult",
    "System",
    "build_system",
    "deferred_box",
    "manager_box",
    "wf_box",
]


@dataclass
class ExperimentResult:
    """One experiment's outcome: a verdict, a table, and raw data."""

    exp_id: str
    title: str
    ok: bool
    table: Table
    notes: list[str] = field(default_factory=list)
    data: dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        parts = [f"[{self.exp_id}] {self.title} — {verdict}", "",
                 self.table.render()]
        if self.notes:
            parts += [""] + [f"note: {n}" for n in self.notes]
        return "\n".join(parts)


def wf_box(system: System) -> DiningBoxFactory:
    """The well-behaved WF-◇WX black box bound to the system's oracle."""
    return box_factory("wf-ewx", system.provider)


def deferred_box(system: System, horizon: Time = 150.0) -> DiningBoxFactory:
    """The adversarial-but-legal WF-◇WX black box (Section 3)."""
    return box_factory(f"deferred:{horizon}", system.provider)


def manager_box(system: System) -> DiningBoxFactory:
    """The coordinator-based WF-◇WX black box (migrating manager role)."""
    return box_factory("manager", system.provider)


BOX_BUILDERS = {"wf": wf_box, "deferred": deferred_box, "manager": manager_box}
