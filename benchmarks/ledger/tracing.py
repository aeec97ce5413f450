"""In-memory spans around the calls into each layer's public functions.

The ledger's traced pass never edits ``src/``: it swaps the *names* the
program looks its own functions up under (module globals such as
``repro.runtime.builder.instantiate``, class attributes such as
``Engine.run``) for wrappers that record one span per call, and swaps them
back when the pass ends.  A span is ``(name, start, end, parent, thread)``;
spans nest through a per-thread stack, and a span opened on a helper thread
with an empty stack (the embedded service's executor thread) is adopted by
whatever span the measuring thread has open — the request that caused it.

Two boundaries are too hot for a span per call and are aggregated into
counters instead: ``Process.step`` (one call per simulated step; bucketed
by the layer that owns the fired action) and ``Network.send``.

Times are reported as *self time*: a span's duration minus the part of it
its child spans cover, so the per-layer seconds of one repetition add up to
at most the repetition's wall.
"""

from __future__ import annotations

import functools
import importlib
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Optional

#: ``(module, attribute, span name)`` — module-global names the program
#: resolves at call time, so rebinding them reroutes its internal calls.
FUNCTION_TARGETS = (
    ("repro.runtime.builder", "parse_graph", "graphs.parse"),
    ("repro.runtime.builder", "validate_conflict_graph", "graphs.parse"),
    ("repro.chaos", "parse_graph", "graphs.parse"),
    ("repro.chaos", "build_run", "chaos.build_run"),
    ("repro.chaos", "check_invariants", "chaos.check_invariants"),
    ("repro.chaos", "run_campaign", "chaos.run_campaign"),
    ("repro.lattice.compare", "run_campaign", "chaos.run_campaign"),
    ("repro.lattice.compare", "cell_from_record", "lattice.cell"),
    ("repro.runtime.builder", "instantiate", "builder.instantiate"),
    ("repro.runtime.builder", "check_exclusion", "dining.spec.check"),
    ("repro.runtime.builder", "check_wait_freedom", "dining.spec.check"),
    ("repro.runtime.builder", "measure_fairness", "dining.spec.check"),
    ("repro.runtime.builder", "check_detector_properties",
     "oracles.properties.check"),
    ("repro.runtime.builder", "justify_violations",
     "oracles.properties.check"),
    ("repro.runtime.builder", "collect_metrics", "obs.collect_metrics"),
    ("repro.runtime.store", "spec_hash", "store.spec_hash"),
    ("repro.chaos", "spec_hash", "store.spec_hash"),
    ("repro.service.server", "spec_hash", "store.spec_hash"),
    ("repro.service.encoding", "result_payload", "encoding.payload"),
    ("repro.service.encoding", "payload_bytes", "encoding.payload"),
    ("repro.service.server", "payload_bytes", "encoding.payload"),
)

#: ``(module, class, method, span name)`` — patched on the class, so every
#: instance built during the pass is traced.
METHOD_TARGETS = (
    ("repro.sim.engine", "Engine", "run", "engine.run"),
    ("repro.runtime.store", "ResultStore", "__init__", "store.open"),
    ("repro.runtime.store", "ResultStore", "put", "store.put"),
    ("repro.runtime.store", "ResultStore", "get", "store.get"),
    ("repro.chaos", "StoredVerdict", "__init__", "store.decode"),
    ("repro.runtime.executor", "SupervisedExecutor", "map", "executor.map"),
)

#: Layers a fired action's step time is bucketed under (``other`` catches
#: components outside them, e.g. the lattice's Ω electors).
STEP_LAYERS = ("oracles", "dining", "core", "transport", "other")


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread")

    def __init__(self, name: str, parent: "Optional[Span]") -> None:
        self.name = name
        self.parent = parent
        self.thread = threading.current_thread().name
        self.end = 0.0
        self.start = perf_counter()


def _covered(intervals: "list[tuple[float, float]]") -> float:
    """Length of the union of ``intervals`` (children on two threads may
    overlap; counting the overlap twice would make self time negative)."""
    total = 0.0
    edge = float("-inf")
    for start, end in sorted(intervals):
        if end <= edge:
            continue
        total += end - max(start, edge)
        edge = end
    return total


class Tracer:
    """Span recorder plus the patch set that feeds it."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[Span] = []
        #: Exact counts and hot-path time buckets (``process.*``,
        #: ``network.*``, ``engine.events`` ...), summed over the pass.
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[Span] = []
        self._undo: list[tuple[Any, str, Any]] = []
        self._step_layer: dict[str, str] = {}

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> "list[Span]":
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent: Optional[Span] = stack[-1]
        elif stack is self._main_stack or not self._main_stack:
            parent = None
        else:
            parent = self._main_stack[-1]
        span = Span(name, parent)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def traced(self, fn: Callable, name: str,
               after: "Optional[Callable]" = None) -> Callable:
        """``fn`` recording one span per call; ``after(args, result)``
        runs inside the span to read exact counts off the call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                self.close(span)

        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Reroute every target through a span wrapper."""
        for module, attr, name in FUNCTION_TARGETS:
            owner = importlib.import_module(module)
            after = self._reset_step_layers if attr == "instantiate" else None
            self._patch(owner, attr,
                        self.traced(getattr(owner, attr), name, after))
        hooks = {"engine.run": self._after_engine_run,
                 "store.open": self._after_store_open}
        for module, klass, attr, name in METHOD_TARGETS:
            owner = getattr(importlib.import_module(module), klass)
            self._patch(owner, attr, self.traced(owner.__dict__[attr], name,
                                                 hooks.get(name)))
        from repro.sim.network import Network
        from repro.sim.process import Process

        self._patch(Process, "step", self._traced_step(Process.step))
        self._patch(Network, "send", self._traced_send(Network.send))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- exact counts read at the boundaries ----------------------------------

    def _after_engine_run(self, args: tuple, _result: Any) -> None:
        engine = args[0]
        c = self.counters
        c["engine.runs"] += 1
        c["engine.events"] += engine.events_processed
        c["trace.records"] += engine.trace.total_recorded
        counts = engine.registry.snapshot().counters
        for ours, theirs in (
                ("network.sent", "net.messages_sent"),
                ("network.delivered", "net.messages_delivered"),
                ("network.dropped", "net.messages_dropped"),
                ("network.duplicated", "net.messages_duplicated"),
                ("transport.retransmissions", "transport.retransmissions"),
                ("transport.acks_sent", "transport.acks_sent")):
            c[ours] += counts.get(theirs, 0.0)

    def _after_store_open(self, args: tuple, _result: Any) -> None:
        self.counters["store.entries_loaded"] += len(args[0])

    def _reset_step_layers(self, _args: tuple, _result: Any) -> None:
        # Component names are only unique within one built run: the same
        # name can belong to another class under another detector.
        self._step_layer.clear()

    # -- aggregated hot paths --------------------------------------------------

    def _traced_step(self, step: Callable) -> Callable:
        counters = self.counters
        layers = self._step_layer

        def resolve(proc: Any, qname: str) -> str:
            component = proc.component(qname.rpartition(".")[0])
            parts = type(component).__module__.split(".")
            layer = parts[1] if len(parts) > 1 else "other"
            if layer == "sim" and len(parts) > 2:
                layer = parts[2]
            if layer not in STEP_LAYERS:
                layer = "other"
            layers[qname] = layer
            return layer

        @functools.wraps(step)
        def traced_step(proc):
            t0 = perf_counter()
            qname = step(proc)
            dt = perf_counter() - t0
            counters["process.steps"] += 1
            counters["process.step_s"] += dt
            counters["process.actions"] += len(getattr(proc, "_actions", ()))
            if qname is None:
                counters["process.idle_steps"] += 1
            else:
                layer = layers.get(qname) or resolve(proc, qname)
                counters[layer + ".step_s"] += dt
            return qname

        return traced_step

    def _traced_send(self, send: Callable) -> Callable:
        counters = self.counters

        @functools.wraps(send)
        def traced_send(network, msg):
            t0 = perf_counter()
            try:
                return send(network, msg)
            finally:
                counters["network.send_s"] += perf_counter() - t0
                counters["network.sends"] += 1

        return traced_send

    # -- reading the tree ------------------------------------------------------

    def self_times(self) -> "dict[Span, float]":
        children: defaultdict[Optional[Span], list] = defaultdict(list)
        for span in self.spans:
            children[span.parent].append((span.start, span.end))
        return {span: (span.end - span.start) - _covered(
            [(max(s, span.start), min(e, span.end))
             for s, e in children.get(span, ()) if e > span.start
             and s < span.end]) for span in self.spans}

    def self_time_by_name(self) -> "dict[str, float]":
        totals: defaultdict[str, float] = defaultdict(float)
        for span, self_s in self.self_times().items():
            totals[span.name] += self_s
        return dict(totals)

    def calls_by_name(self) -> "dict[str, int]":
        calls: defaultdict[str, int] = defaultdict(int)
        for span in self.spans:
            calls[span.name] += 1
        return dict(calls)

    def durations(self, name: str) -> "list[float]":
        return [s.end - s.start for s in self.spans if s.name == name]

    def to_json(self) -> "dict[str, Any]":
        """The flushed trace: every span with its parent's index."""
        index = {span: i for i, span in enumerate(self.spans)}
        t0 = self.spans[0].start if self.spans else 0.0
        return {
            "schema": "ledger.trace.v1",
            "workload": self.workload,
            "spans": [{"id": i, "name": s.name,
                       "start": s.start - t0, "end": s.end - t0,
                       "parent": (None if s.parent is None
                                  else index[s.parent]),
                       "thread": s.thread, "workload": self.workload}
                      for i, s in enumerate(self.spans)],
            "counters": dict(self.counters),
        }


class _SpanContext:
    __slots__ = ("tracer", "name", "span")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> Span:
        self.span = self.tracer.open(self.name)
        return self.span

    def __exit__(self, *exc_info) -> None:
        self.tracer.close(self.span)
