"""Guarded-action components.

The paper specifies its algorithms (Alg. 1 witness, Alg. 2 subject) as
*guarded-command action systems* executed under interleaving semantics:
each process runs the union of its threads' actions, and in each atomic
step executes one enabled action, receiving at most one message.

A :class:`Component` is one such thread: a named bundle of actions attached
to a :class:`~repro.sim.process.Process`.  Actions are declared with the
:func:`action` (internal, state-guarded) and :func:`receive`
(message-triggered) decorators and are collected in definition order.

Example — a tiny echo thread::

    class Echo(Component):
        @receive("ping")
        def on_ping(self, msg):
            self.send(msg.sender, msg.tag, "pong")

Fairness contract: the owning process executes its components' actions
round-robin, so every continuously-enabled action is eventually executed
(weak fairness), provided the process is correct.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from repro import types as _types
from repro.errors import ConfigurationError, SimulationError
from repro.types import Message, ProcessId, make_message

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.process import Process

GuardFn = Callable[..., bool]


def action(guard: Callable[[Any], bool], name: str | None = None):
    """Declare an internal action with guard ``guard(self) -> bool``.

    The decorated method is the action's effect; it runs only when the guard
    holds at the moment the process scheduler reaches it.
    """

    def deco(fn):
        fn._action_spec = ("internal", guard, name or fn.__name__)
        return fn

    return deco


def receive(kind: str, guard: Callable[[Any, Message], bool] | None = None,
            name: str | None = None):
    """Declare a message-receipt action for messages of ``kind``.

    The decorated method has signature ``fn(self, msg)``.  The action is
    enabled when a message of the given kind addressed to this component is
    deliverable and ``guard(self, msg)`` (if any) holds; the message stays
    buffered until then (guarded receive).
    """

    def deco(fn):
        fn._action_spec = ("receive", kind, guard, name or fn.__name__)
        return fn

    return deco


@functools.cache
def _action_specs(klass: type) -> tuple[tuple[str, tuple], ...]:
    """``klass``'s decorated ``(attr, spec)`` pairs in MRO, then
    class-definition, order; walked once per class (each subclass is its
    own cache key)."""
    out: list[tuple[str, tuple]] = []
    seen: set[str] = set()
    for k in klass.__mro__:
        for attr, fn in vars(k).items():
            spec = getattr(fn, "_action_spec", None)
            if spec is None or attr in seen:
                continue
            seen.add(attr)
            out.append((attr, spec))
    return tuple(out)


@dataclass(slots=True)
class BoundAction:
    """An action bound to a component instance, ready for scheduling.

    ``tag`` and ``qname`` are derived from the component at construction
    so the per-step scheduler scan never rebuilds them.
    """

    component: "Component"
    name: str
    kind: str  # "internal" | "receive"
    guard: Optional[Callable]
    effect: Callable
    message_kind: Optional[str] = None
    tag: str = ""
    qname: str = ""

    def __post_init__(self) -> None:
        self.tag = self.component.name
        self.qname = f"{self.component.name}.{self.name}"

    def qualified_name(self) -> str:
        return self.qname


class Component:
    """Base class for guarded-action threads.

    Subclasses declare actions with :func:`action` / :func:`receive`.
    ``name`` doubles as the component's inbox tag: messages sent with
    ``tag == name`` are routed here.
    """

    def __init__(self, name: str) -> None:
        if not name:
            raise ConfigurationError("component name must be non-empty")
        self.name = name
        self.process: "Process | None" = None

    # -- wiring -----------------------------------------------------------

    def attached(self) -> None:
        """Hook called after the component is attached to its process."""

    def bound_actions(self) -> list[BoundAction]:
        """Collect this instance's actions in class-definition order."""
        out: list[BoundAction] = []
        for attr, spec in _action_specs(type(self)):
            bound = getattr(self, attr)
            if spec[0] == "internal":
                _, guard, name = spec
                out.append(BoundAction(self, name, "internal", guard, bound))
            else:
                _, kind, guard, name = spec
                out.append(
                    BoundAction(self, name, "receive", guard, bound,
                                message_kind=kind)
                )
        return out

    # -- facilities available to effects -----------------------------------

    @property
    def pid(self) -> ProcessId:
        """Identifier of the owning process."""
        return self._process().pid

    def send(self, to: ProcessId, tag: str, kind: str, **payload: Any) -> None:
        """Send a message; delivery is reliable, delayed, non-FIFO."""
        proc = self.process
        if proc is None:
            proc = self._process()  # raises
        proc.send(make_message((proc.pid, to, tag, kind, payload,
                                next(_types._msg_counter))))

    def send_all(self, receivers: Sequence[ProcessId], tag: str, kind: str,
                 **payload: Any) -> None:
        """Send the same message to every receiver, in order.

        Equivalent to calling :meth:`send` once per receiver (same uids,
        same delay draws, same delivery order) in one trip through the
        process and network layers; the envelopes share one payload
        mapping, which receivers must treat as read-only.
        """
        self._process().send_all(receivers, tag, kind, payload)

    def record(self, kind: str, **data: Any) -> None:
        """Append a structured record to the run trace."""
        proc = self.process
        engine = None if proc is None else proc._engine
        if engine is None:
            engine = self._process()._require_engine()  # raises
        engine.trace.record(kind, proc.pid, component=self.name, **data)

    def other_component(self, name: str) -> "Component":
        """Access a sibling component on the same process.

        The paper's subject threads share variables ("the variables used by
        q.s0 and q.s1 are mutually accessible to each other"); this is the
        mechanism that models that sharing.
        """
        return self._process().component(name)

    def _process(self) -> "Process":
        if self.process is None:
            raise SimulationError(
                f"component {self.name!r} is not attached to a process"
            )
        return self.process

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        owner = self.process.pid if self.process else "<detached>"
        return f"{type(self).__name__}({self.name!r}@{owner})"
