"""Discrete-event simulator for asynchronous message-passing systems.

This package is the execution substrate for every experiment in the
reproduction.  It implements the system model of the paper's Section 4:

* a finite set of processes executing **guarded actions** as atomic steps
  (receive at most one message, make a state transition, send messages);
* **reliable, non-FIFO channels** — every message sent to a correct process
  is eventually delivered, exactly once, uncorrupted, in arbitrary order;
* **crash faults** — a faulty process ceases execution without warning and
  never recovers;
* a **discrete global clock** that is a conceptual device only: algorithm
  code cannot read it, but delay models and trace checkers can.

Beyond the paper's model, the substrate can also inject link faults
(:mod:`repro.sim.link_faults`: drops, duplication, partitions over
fair-lossy links) and recover reliability by retransmission
(:mod:`repro.sim.transport`), so the same algorithms can be stressed
under realistic network failure — see ``docs/fault_model.md``.

Determinism: a single master seed fans out into independent per-purpose RNG
streams (:mod:`repro.sim.rng`), so any run is reproducible bit-for-bit.
"""

from repro.sim.clock import Clock
from repro.sim.component import Component, action, receive
from repro.sim.engine import Engine, SimConfig
from repro.sim.faults import CrashSchedule
from repro.sim.link_faults import LinkFaultModel, Partition
from repro.sim.network import (
    AsynchronousDelays,
    DelayModel,
    FixedDelays,
    Network,
    PartialSynchronyDelays,
)
from repro.sim.process import Process
from repro.sim.rng import RngRegistry
from repro.sim.trace import Trace, TraceRecord
from repro.sim.transport import ReliableTransport, RetransmitPolicy

__all__ = [
    "AsynchronousDelays",
    "Clock",
    "Component",
    "CrashSchedule",
    "DelayModel",
    "Engine",
    "FixedDelays",
    "LinkFaultModel",
    "Network",
    "PartialSynchronyDelays",
    "Partition",
    "Process",
    "ReliableTransport",
    "RetransmitPolicy",
    "RngRegistry",
    "SimConfig",
    "Trace",
    "TraceRecord",
    "action",
    "receive",
]
