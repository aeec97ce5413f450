"""Processes: containers of guarded-action components.

A process executes the union of its components' actions under interleaving
semantics.  In each atomic step it executes at most one enabled action,
consuming at most one delivered message — exactly the step model of the
paper's Section 4.

Scheduling within a process is round-robin over the action list: the scan
for an enabled action starts just after the last action executed, so every
continuously-enabled action of a correct process is executed infinitely
often (weak fairness).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping, Optional, Sequence

from repro.errors import ConfigurationError, CrashedProcessError, SimulationError
from repro.sim.component import BoundAction, Component
from repro.types import Message, ProcessId, Time

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


class Process:
    """A single (possibly faulty) process of the system Π."""

    def __init__(self, pid: ProcessId) -> None:
        self.pid = pid
        self.crashed = False
        self.crash_time: Optional[Time] = None
        self._components: dict[str, Component] = {}
        self._actions: list[BoundAction] = []
        self._rotation = 0
        # Buffered deliveries, bucketed by component tag.  Receive actions
        # only ever match their own tag, so bucketing turns the per-probe
        # inbox scan into a scan of just that component's backlog — O(1)
        # for the common empty/miss case instead of O(total inbox).  Within
        # a bucket, arrival order (= "earliest buffered") is preserved, so
        # message selection is identical to the historical flat list.
        self._inbox: dict[str, list[Message]] = {}
        self._inbox_count = 0
        self._engine: "Engine | None" = None
        self.steps_taken = 0

    # -- construction -------------------------------------------------------

    def add_component(self, component: Component) -> Component:
        """Attach ``component``; its actions join this process's action set."""
        if component.name in self._components:
            raise ConfigurationError(
                f"process {self.pid}: duplicate component {component.name!r}"
            )
        component.process = self
        self._components[component.name] = component
        self._actions.extend(component.bound_actions())
        component.attached()
        return component

    def component(self, name: str) -> Component:
        """Look up an attached component by name."""
        try:
            return self._components[name]
        except KeyError:
            raise ConfigurationError(
                f"process {self.pid}: no component named {name!r}"
            ) from None

    def components(self) -> list[Component]:
        return list(self._components.values())

    def bind(self, engine: "Engine") -> None:
        if self._engine is not None and self._engine is not engine:
            raise ConfigurationError(f"process {self.pid} already bound")
        self._engine = engine

    # -- facilities used by components ---------------------------------------

    def send(self, msg: Message) -> None:
        if self.crashed:
            raise CrashedProcessError(f"crashed process {self.pid} cannot send")
        engine = self._engine
        if engine is None:
            engine = self._require_engine()  # raises
        engine.network.send(msg)

    def send_all(self, receivers: Sequence[ProcessId], tag: str, kind: str,
                 payload: Mapping[str, Any]) -> None:
        """Broadcast form of :meth:`send`: one envelope per receiver."""
        if self.crashed:
            raise CrashedProcessError(f"crashed process {self.pid} cannot send")
        self._require_engine().network.send_many(
            self.pid, receivers, tag, kind, payload)

    def env_now(self) -> Time:
        """Environment-only access to the global clock.

        The paper's clock is inaccessible to algorithm code.  Only
        *environment* components (client drivers, workload models) may call
        this; algorithm components must not.
        """
        engine = self._engine
        if engine is None:
            engine = self._require_engine()  # raises
        return engine.clock._now

    # -- engine-facing API ----------------------------------------------------

    def deliver(self, msg: Message) -> None:
        """Buffer a delivered message (dropped silently if crashed)."""
        if not self.crashed:
            bucket = self._inbox.get(msg.tag)
            if bucket is None:
                self._inbox[msg.tag] = [msg]
            else:
                bucket.append(msg)
            self._inbox_count += 1

    def crash(self, at: Time) -> None:
        """Cease execution permanently (crash fault)."""
        self.crashed = True
        self.crash_time = at

    def inbox_size(self) -> int:
        return self._inbox_count

    def step(self) -> Optional[str]:
        """Execute one enabled action; return its qualified name (or None).

        At most one message is consumed.  The rotation pointer advances past
        the executed action so no continuously-enabled action starves.
        """
        if self.crashed:
            raise CrashedProcessError(f"crashed process {self.pid} cannot step")
        self.steps_taken += 1
        actions = self._actions
        n = len(actions)
        if n == 0:
            return None
        # Round-robin scan, firing inlined: this is the single hottest
        # process-side path, and most probed actions are disabled
        # (guard False or no matching message), so the scan must be cheap.
        rotation = self._rotation
        inbox = self._inbox
        for offset in range(n):
            idx = rotation + offset
            if idx >= n:
                idx -= n
            act = actions[idx]
            guard = act.guard
            if act.kind == "internal":
                if guard is not None and not guard(act.component):
                    continue
                act.effect()
            else:
                # receive action: earliest-buffered matching message from
                # this component's own tag bucket
                bucket = inbox.get(act.tag)
                if not bucket:
                    continue
                want_kind = act.message_kind
                hit = -1
                for i, msg in enumerate(bucket):
                    if want_kind is not None and msg.kind != want_kind:
                        continue
                    if guard is not None and not guard(act.component, msg):
                        continue
                    hit = i
                    break
                if hit < 0:
                    continue
                msg = bucket[hit]
                del bucket[hit]
                self._inbox_count -= 1
                act.effect(msg)
            self._rotation = idx + 1 if idx + 1 < n else 0
            return act.qname
        return None

    # -- internals --------------------------------------------------------------

    def _require_engine(self) -> "Engine":
        if self._engine is None:
            raise SimulationError(f"process {self.pid} is not bound to an engine")
        return self._engine

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        status = "crashed" if self.crashed else "live"
        return f"Process({self.pid!r}, {status}, components={sorted(self._components)})"
