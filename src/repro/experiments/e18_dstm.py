"""E18 — the [8] setting verbatim: shared-memory obstruction-free STM.

Sections 2–3 discuss contention managers in *shared memory*; footnote 1
notes the paper's results transfer there.  This experiment runs the
DSTM-style obstruction-free transactional memory of
:mod:`repro.apps.dstm` over the atomic-register substrate
(:mod:`repro.sim.shm`):

* raw obstruction-freedom drowns in aborts as contention grows;
* admission through the WF-◇WX contention manager makes every transaction
  commit with almost no aborts (finitely many, from the CM's own mistake
  prefix and suspicion-gated orec stealing);
* serializability — the shared counter equals the global commit count —
  holds in every configuration, including a client crashed mid-transaction
  whose ownership records survivors must steal.
"""

from __future__ import annotations

from repro.analysis.report import Table
from repro.apps.dstm import SharedMemorySTM
from repro.experiments.common import ExperimentResult

EXP_ID = "E18"
TITLE = "Shared-memory DSTM: CM boosting + serializability (the [8] setting)"


def run(seed: int = 1801, client_counts: tuple[int, ...] = (2, 4, 6),
        tx_target: int = 12, max_time: float = 10000.0) -> ExperimentResult:
    table = Table(["clients", "mode", "committed", "aborted", "abort ratio",
                   "steals", "serializable", "all done"], title=TITLE)
    ok_all = True
    for n in client_counts:
        stm = SharedMemorySTM(n_clients=n, tx_target=tx_target,
                              seed=seed + n, max_time=max_time)
        raw = stm.run(with_cm=False)
        managed = stm.run(with_cm=True)
        for r in (raw, managed):
            table.add_row([n, "with CM" if r.with_cm else "no CM",
                           r.committed, r.aborted, r.abort_ratio(),
                           r.steals, r.serializable(), r.all_done])
        ok_all &= (
            raw.serializable() and managed.serializable()
            and raw.all_done and managed.all_done
            and managed.abort_ratio() < raw.abort_ratio()
        )
        if n >= 4:
            ok_all &= raw.abort_ratio() > 0.3   # contention really bites

    # Crash row: a client dies holding ownership records; survivors steal
    # them via suspicion and still finish, serializably.
    crash_stm = SharedMemorySTM(n_clients=3, tx_target=tx_target, seed=40,
                                max_time=max_time,
                                crashes={"p1": 60.0})
    crashed = crash_stm.run(with_cm=False)
    table.add_row(["3 (crash p1)", "no CM", crashed.committed,
                   crashed.aborted, crashed.abort_ratio(), crashed.steals,
                   crashed.serializable(), crashed.all_done])
    ok_all &= (crashed.serializable() and crashed.all_done
               and crashed.steals > 0)
    return ExperimentResult(
        exp_id=EXP_ID, title=TITLE, ok=ok_all, table=table,
        notes=["serializable = shared counter equals global commit count; "
               "steals reclaim ownership records of suspected (crashed) "
               "owners — a wrongly-stolen live owner's publication fails "
               "validation, so safety never depends on suspicion accuracy"],
    )
