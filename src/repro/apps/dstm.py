"""DSTM-style obstruction-free transactional memory, in shared memory.

This is the exact setting of the paper's Section 3 discussion of [8]:
an *obstruction-free* software transactional memory whose progress is
guaranteed only for transactions running in isolation, boosted to
wait-freedom by a contention manager (here: a WF-◇WX dining instance).

The design follows DSTM's ownership-record scheme, simplified:

* every object ``o`` has two atomic registers — an ownership record
  ``("orec", o)`` holding the owning transaction id (or None) and a value
  cell ``("val", o)`` holding ``(value, version)``;
* a transaction CAS-acquires the orec of every object it touches, one per
  atomic step; on meeting a *foreign* orec it **aborts itself** (no
  waiting, no helping — obstruction-freedom), releases what it holds, and
  retries;
* with all orecs held it applies its updates and releases.

A crashed owner leaves its orecs acquired forever, so raw DSTM is not even
obstruction-free under crashes — but admission through a *wait-free* ◇WX
contention manager makes the common case contention-free; the stale-orec
hazard is mitigated with suspicion-gated orec stealing (steal only from
owners the local ◇P suspects — mistakes are finite, so stealing from a
live owner happens finitely often and only costs an abort, never safety,
because the victim's commit CAS fails).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from repro.dining.base import DinerComponent
from repro.errors import ConfigurationError
from repro.sim.component import Component, action
from repro.sim.shm import SharedMemory
from repro.types import DinerState, ProcessId


class DSTMClient(Component):
    """One client running increment transactions over its object set.

    Phase machine (one shared-memory operation per action step):
    ``idle → [admission] → acquiring → updating → releasing → idle``;
    an abort jumps to ``releasing`` and retries after release.
    """

    def __init__(self, name: str, shm: SharedMemory,
                 objects: Sequence[str], tx_target: int,
                 cm_diner: Optional[DinerComponent] = None,
                 suspect: Optional[Callable[[ProcessId], bool]] = None,
                 owner_of: Optional[Callable[[str], ProcessId]] = None) -> None:
        super().__init__(name)
        if tx_target < 0:
            raise ConfigurationError("tx_target must be >= 0")
        self.shm = shm
        self.objects = tuple(sorted(objects))   # global order: no livelock
        self.tx_target = tx_target
        self.cm_diner = cm_diner
        self.suspect = suspect
        self.owner_of = owner_of    # txid -> owning process (for stealing)

        self.committed = 0
        self.aborted = 0
        self.steals = 0
        self._txid = 0
        self._phase = "idle"
        self._acquired: list[str] = []
        self._staged: dict[str, tuple] = {}
        self._commit_done = False

    # -- helpers ------------------------------------------------------------

    def _tx(self) -> str:
        return f"{self.pid}#{self._txid}"

    def _admitted(self) -> bool:
        return self.cm_diner is None or self.cm_diner.state is DinerState.EATING

    @property
    def done(self) -> bool:
        return self.committed >= self.tx_target

    # -- phases ------------------------------------------------------------------

    @action(guard=lambda self: self._phase == "idle" and not self.done)
    def begin(self) -> None:
        self._txid += 1
        if self.cm_diner is not None:
            self.cm_diner.become_hungry()
            self._phase = "admission"
        else:
            self._phase = "acquiring"

    @action(guard=lambda self: self._phase == "admission" and self._admitted())
    def admitted(self) -> None:
        self._phase = "acquiring"

    @action(guard=lambda self: self._phase == "acquiring")
    def acquire_one(self) -> None:
        """One CAS per step; foreign orec => obstruction => abort self."""
        remaining = [o for o in self.objects if o not in self._acquired]
        if not remaining:
            self._phase = "updating"
            self._staged = {}
            return
        obj = remaining[0]
        if self.shm.cas(("orec", obj), None, self._tx()):
            self._acquired.append(obj)
            return
        holder_tx = self.shm.read(("orec", obj))
        if self._may_steal(holder_tx):
            # Suspected-owner orec: reclaim it (a victim that is somehow
            # alive fails validation at its publication step, harmlessly).
            self.shm.write(("orec", obj), self._tx())
            self._acquired.append(obj)
            self.steals += 1
            return
        self.aborted += 1
        self.record("tx", outcome="abort", txid=self._txid)
        self._phase = "releasing"

    def _may_steal(self, holder_tx) -> bool:
        if holder_tx is None or self.suspect is None or self.owner_of is None:
            return False
        owner = self.owner_of(holder_tx)
        return owner != self.pid and self.suspect(owner)

    @action(guard=lambda self: self._phase == "updating")
    def stage_or_commit(self) -> None:
        """Stage one read per step, then one atomic publication step.

        The final step validates every orec is still ours and publishes all
        staged values together — modelling DSTM's single status-word CAS
        that makes a transaction's writes visible atomically.  A victim
        whose orec was stolen mid-transaction fails validation and aborts
        with no partial effects (atomicity preserved).
        """
        pending = [o for o in self._acquired if o not in self._staged]
        if pending:
            obj = pending[0]
            value, version = self.shm.read(("val", obj), default=(0, 0))
            self._staged[obj] = (value + 1, version + 1)
            return
        if all(self.shm.read(("orec", o)) == self._tx()
               for o in self._acquired):
            for obj, vv in self._staged.items():
                self.shm.write(("val", obj), vv)
            self.committed += 1
            self._commit_done = True
            self.record("tx", outcome="commit", txid=self._txid)
        else:
            self.aborted += 1
            self.record("tx", outcome="abort", txid=self._txid)
        self._phase = "releasing"

    @action(guard=lambda self: self._phase == "releasing")
    def release_one(self) -> None:
        if self._acquired:
            obj = self._acquired.pop()
            # Release only our own orec (a stealer may have taken it).
            self.shm.cas(("orec", obj), self._tx(), None)
            return
        self._staged = {}
        if self._commit_done:
            # Leave the CM after a commit; an aborted attempt retries
            # under the same admission.
            if (self.cm_diner is not None
                    and self.cm_diner.state is DinerState.EATING):
                self.cm_diner.exit_eating()
            self._commit_done = False
            self._phase = "idle"
        else:
            self._phase = "acquiring"


@dataclass
class DSTMReport:
    """Outcome of one shared-memory DSTM run."""

    with_cm: bool
    clients: int
    tx_target: int
    all_done: bool
    committed: int
    aborted: int
    steals: int
    end_time: float
    final_counter: Optional[int]
    shm_ops: dict

    def serializable(self) -> bool:
        """The shared counter must equal the global commit count."""
        return self.final_counter == self.committed

    def abort_ratio(self) -> float:
        total = self.committed + self.aborted
        return self.aborted / total if total else 0.0

    def format_row(self) -> str:
        mode = "with CM" if self.with_cm else "no CM  "
        return (f"{mode} clients={self.clients} committed={self.committed:4d} "
                f"aborted={self.aborted:4d} (ratio {self.abort_ratio():.2f}) "
                f"steals={self.steals} counter={self.final_counter} "
                f"done={self.all_done} t={self.end_time:.0f}")


class SharedMemorySTM:
    """Builds and runs one shared-memory DSTM scenario.

    Clients share the objects (default: one counter — a clique conflict
    graph for the CM), named ``p0..p{n-1}``.  Pass ``crashes`` (pid ->
    crash time) to exercise the
    suspicion-gated orec stealing: a client crashed mid-transaction leaves
    its orecs behind, and survivors reclaim them once their ◇P suspects it.
    """

    def __init__(self, n_clients: int = 4, tx_target: int = 15,
                 seed: int = 0, gst: float = 100.0, max_time: float = 8000.0,
                 objects: Sequence[str] = ("counter",),
                 crashes: Optional[Mapping[str, float]] = None) -> None:
        self.n_clients = n_clients
        self.tx_target = tx_target
        self.seed = seed
        self.gst = gst
        self.max_time = max_time
        self.objects = tuple(objects)
        self.crashes = dict(crashes or {})

    def run(self, with_cm: bool) -> DSTMReport:
        from repro.dining.wf_ewx import WaitFreeEWXDining
        from repro.runtime.builder import build_system
        from repro.runtime.spec import RunSpec

        system = build_system(RunSpec(
            graph=f"clique:{self.n_clients}", seed=self.seed, gst=self.gst,
            max_time=self.max_time, crashes=self.crashes))
        shm = SharedMemory()
        diners = {}
        if with_cm:
            cm = WaitFreeEWXDining("CM", system.graph, system.provider)
            diners = dict(cm.attach(system.engine))

        owner_of = lambda txid: txid.split("#", 1)[0]  # noqa: E731
        clients = {}
        for pid in system.pids:
            suspect = system.provider(pid)
            clients[pid] = system.engine.process(pid).add_component(
                DSTMClient("dstm", shm, self.objects, self.tx_target,
                           cm_diner=diners.get(pid),
                           suspect=suspect, owner_of=owner_of))

        def finished() -> bool:
            return all(
                system.engine.process(pid).crashed or clients[pid].done
                for pid in system.pids
            )

        system.engine.run(stop_when=finished)
        live = [c for pid, c in clients.items()
                if not system.engine.process(pid).crashed]
        counter = shm.read(("val", self.objects[0]), default=(0, 0))[0]
        return DSTMReport(
            with_cm=with_cm,
            clients=self.n_clients,
            tx_target=self.tx_target,
            all_done=all(c.done for c in live),
            committed=sum(c.committed for c in clients.values()),
            aborted=sum(c.aborted for c in clients.values()),
            steals=sum(c.steals for c in clients.values()),
            end_time=system.engine.now,
            final_counter=counter,
            shm_ops=shm.op_counts(),
        )
