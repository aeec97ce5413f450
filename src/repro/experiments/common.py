"""The result record every experiment harness returns.

Experiments build their runs with :class:`~repro.runtime.spec.RunSpec`
and :func:`~repro.runtime.builder.execute` where a spec can say what they
run, and with :func:`~repro.runtime.builder.build_system` plus
:func:`repro.dining.box_factory` where they read the reduction's
internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.analysis.report import Table


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
