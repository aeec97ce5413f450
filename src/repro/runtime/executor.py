"""Supervised parallel campaign execution: fan tasks out, survive workers.

Because :func:`repro.runtime.builder.execute` is a pure function of its
spec, running N specs on N cores is embarrassingly parallel *and*
deterministic: results are keyed by spec (seed), not by completion order,
so ``workers=4`` reproduces ``workers=1`` bit for bit, per seed.

:class:`SupervisedExecutor` is the one executor (``--workers N`` on the
CLI).  ``workers <= 1`` is a plain in-process loop — no pool, no
pickling.  With more workers it owns its worker processes directly
(explicit ``multiprocessing`` context, one task/result pipe pair per
worker) so it can do what a bare ``Pool`` cannot: enforce per-task
wall-clock timeouts, detect workers that were SIGKILLed or died mid-task
(OOM killer, segfault), retry the lost task with seeded exponential
backoff + jitter, recycle workers after ``maxtasksperchild`` tasks, and
degrade gracefully to in-process serial execution when the pool proves
irrecoverable.  Retry/timeout/crash counts are published to a
:class:`~repro.obs.registry.MetricsRegistry`.

Determinism under supervision: task functions must be module-level
(picklable by reference) and pure functions of their argument, so a
retried task recomputes the *same* value — retries change wall-clock
cost, never results.  A clean Python exception raised by the task
function is *not* retried (it would deterministically recur) and is
re-raised in the parent, matching ``multiprocessing.Pool.map`` semantics.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import time
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Iterable, Optional, Sequence, TypeVar

import numpy as np

from repro.errors import ConfigurationError, ExecutionError
from repro.obs.registry import MetricsRegistry
from repro.runtime.builder import execute
from repro.runtime.result import RunResult
from repro.runtime.spec import RunSpec

T = TypeVar("T")
R = TypeVar("R")

#: How long (seconds) a worker gets to exit after a poison pill / terminate
#: before escalating to SIGKILL during shutdown.
_SHUTDOWN_GRACE = 1.0

#: Supervisor poll tick (seconds) when nothing is imminently due: liveness
#: and deadline checks run at least this often.  Worker *crashes* are
#: detected faster than the tick — a dead worker's result pipe hits EOF,
#: which wakes :func:`multiprocessing.connection.wait` immediately.
_POLL_TICK = 0.25


def mp_context() -> mp.context.BaseContext:
    """The pinned multiprocessing context for all campaign pools.

    ``fork`` where the platform offers it (cheap worker startup, and the
    historical Linux behavior the determinism suite grew up on), else
    ``spawn``.  Pinning the method explicitly means campaigns behave the
    same regardless of what other libraries set as the global default.
    """
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with seeded exponential backoff + jitter.

    ``delay(task_id, attempt)`` is a pure function of the policy seed,
    the task id, and the attempt number, so a re-run campaign retries on
    an identical schedule — supervision never introduces nondeterminism.
    """

    max_attempts: int = 3
    backoff_initial: float = 0.25
    backoff_max: float = 4.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_initial < 0 or self.backoff_max < 0:
            raise ConfigurationError("backoff bounds must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, task_id: int, attempt: int) -> float:
        """Seconds to wait before attempt ``attempt + 1`` of ``task_id``."""
        base = min(self.backoff_max,
                   self.backoff_initial * (2.0 ** max(0, attempt - 1)))
        word = np.random.SeedSequence(
            [self.seed, int(task_id) & 0xFFFFFFFF, int(attempt)]
        ).generate_state(1)[0]
        return base * (1.0 + self.jitter * (float(word) / 2.0 ** 32))


def _picklesafe(exc: BaseException) -> BaseException:
    """``exc`` if it survives pickling, else a carrier with its repr."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return ExecutionError(f"worker task failed: {exc!r}")


def _worker_main(worker_id: int, fn: Callable, task_conn, result_conn,
                 fault_hook: Optional[Callable[[int, int], None]]) -> None:
    """Worker loop: recv ``(task_id, arg)``, send ``(task_id, ok, value)``.

    Exits on a ``None`` poison pill or EOF (parent closed the pipe).
    ``fault_hook`` is the self-chaos injection point — called before each
    task with ``(worker_id, task_id)``, it may hang, ``os._exit``, or
    raise, simulating hung / OOM-killed / crashing workers.
    """
    try:
        while True:
            try:
                item = task_conn.recv()
            except (EOFError, OSError):
                return
            if item is None:
                return
            task_id, arg = item
            if fault_hook is not None:
                fault_hook(worker_id, task_id)
            try:
                payload = (task_id, True, fn(arg))
            except Exception as exc:  # deterministic task error: report it
                payload = (task_id, False, _picklesafe(exc))
            try:
                result_conn.send(payload)
            except Exception:
                try:
                    result_conn.send((task_id, False, ExecutionError(
                        f"task {task_id} produced an unpicklable result")))
                except Exception:
                    return
    except KeyboardInterrupt:
        return


class _Worker:
    """Parent-side handle on one supervised worker process."""

    __slots__ = ("proc", "task_conn", "result_conn", "inflight", "deadline",
                 "served")

    def __init__(self, proc, task_conn, result_conn) -> None:
        self.proc = proc
        self.task_conn = task_conn
        self.result_conn = result_conn
        #: ``[task_id, attempt]`` currently running, or None when idle.
        self.inflight: Optional[list] = None
        self.deadline: Optional[float] = None
        self.served = 0

    def close(self) -> None:
        for conn in (self.task_conn, self.result_conn):
            try:
                conn.close()
            except OSError:
                pass


class SupervisedExecutor:
    """A fault-tolerant deterministic map over supervised worker processes.

    Parameters
    ----------
    workers:
        Worker process count; ``<= 1`` runs serially in-process.
    timeout:
        Per-task wall-clock budget in seconds.  A worker that exceeds it
        is SIGKILLed and its task retried elsewhere.  ``None`` disables
        (tasks may run forever, but crashed workers are still detected).
    retry:
        :class:`RetryPolicy` for tasks lost to crashes/timeouts.  A task
        that exhausts its attempts falls back to one final in-process
        execution, so a flaky pool cannot fail a campaign.
    maxtasksperchild:
        Recycle each worker after this many tasks (bounds worker-state
        drift on long campaigns); ``None`` disables recycling.
    fault_hook:
        Self-chaos injection point (module-level picklable callable) run
        in the worker before each task; see ``tests/runtime/
        test_supervisor_chaos.py``.
    metrics:
        Registry the supervision counters publish into (default: a fresh
        one per executor).  Counters: ``executor.tasks``, ``.retries``,
        ``.timeouts``, ``.worker_crashes``, ``.workers_recycled``,
        ``.inline_fallbacks``; gauge ``executor.degraded``.
    """

    def __init__(self, workers: int = 1,
                 timeout: Optional[float] = None,
                 retry: Optional[RetryPolicy] = None,
                 maxtasksperchild: Optional[int] = 32,
                 fault_hook: Optional[Callable[[int, int], None]] = None,
                 degrade_after: Optional[int] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if workers < 0:
            raise ConfigurationError(
                f"workers must be non-negative, got {workers}")
        if timeout is not None and timeout <= 0:
            raise ConfigurationError(
                f"timeout must be positive (or None), got {timeout}")
        if maxtasksperchild is not None and maxtasksperchild < 1:
            raise ConfigurationError(
                f"maxtasksperchild must be >= 1 (or None), "
                f"got {maxtasksperchild}")
        self.workers = workers
        self.timeout = timeout
        self.retry = retry or RetryPolicy()
        self.maxtasksperchild = maxtasksperchild
        self.fault_hook = fault_hook
        #: Pool incidents (crashes + timeouts + spawn failures) tolerated
        #: before abandoning the pool for in-process serial execution.
        self.degrade_after = (degrade_after if degrade_after is not None
                              else max(4, 2 * workers))
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    # -- public surface ------------------------------------------------------

    def map(self, fn: Callable[[T], R], items: Iterable[T],
            on_result: Optional[Callable[[int, R], None]] = None) -> list[R]:
        """``[fn(x) for x in items]`` under supervision, order-preserved.

        ``on_result(index, value)`` fires as each result lands (completion
        order) — checkpoint stores hook in here so an interrupted campaign
        keeps everything already computed.
        """
        tasks = list(items)
        if self.workers <= 1 or len(tasks) <= 1:
            out = []
            for i, x in enumerate(tasks):
                value = fn(x)
                self.metrics.counter("executor.tasks").inc()
                if on_result is not None:
                    on_result(i, value)
                out.append(value)
            return out
        return _PoolSupervisor(self, fn, tasks, on_result).run()

    def stats(self) -> dict[str, float]:
        """Flat view of the supervision counters (name → value)."""
        snap = self.metrics.snapshot()
        return {**snap.counters, **snap.gauges}


class _PoolSupervisor:
    """One ``map`` call's supervision state machine."""

    def __init__(self, ex: SupervisedExecutor, fn: Callable,
                 tasks: Sequence, on_result) -> None:
        self.ex = ex
        self.fn = fn
        self.tasks = tasks
        self.on_result = on_result
        self.ctx = mp_context()
        self.results: dict[int, Any] = {}
        #: ``[task_id, attempt]`` plus the monotonic time it becomes
        #: dispatchable (backoff): list of ``[task_id, attempt, ready_at]``.
        self.pending: list[list] = [[tid, 1, 0.0]
                                    for tid in range(len(tasks))]
        self.workers: list[_Worker] = []
        self.retired: list[_Worker] = []
        self.next_worker_id = 0
        self.incidents = 0
        self.degraded = False

    # -- lifecycle -----------------------------------------------------------

    def run(self) -> list:
        try:
            self._loop()
        finally:
            self._terminate_all()
        return [self.results[i] for i in range(len(self.tasks))]

    def _loop(self) -> None:
        n = len(self.tasks)
        while len(self.results) < n:
            if self.degraded:
                self._run_inline_remaining()
                return
            now = time.monotonic()
            self._dispatch(now)
            busy = [w for w in self.workers if w.inflight is not None]
            wait_for = self._wakeup_timeout(time.monotonic())
            if busy:
                ready = mp_connection.wait(
                    [w.result_conn for w in busy], timeout=wait_for)
                for w in busy:
                    if w.result_conn in ready:
                        self._collect(w)
            elif self.pending:
                time.sleep(wait_for)
            now = time.monotonic()
            for w in list(self.workers):
                if w.inflight is None:
                    continue
                if not w.proc.is_alive():
                    self._on_crash(w)
                elif w.deadline is not None and now >= w.deadline:
                    self._on_timeout(w)
            self._reap_retired()

    # -- dispatch ------------------------------------------------------------

    def _dispatch(self, now: float) -> None:
        ready = sorted((p for p in self.pending if p[2] <= now),
                       key=lambda p: p[0])
        for p in ready:
            worker = self._idle_or_new()
            if worker is None:
                return  # no free slot (or we just degraded)
            try:
                worker.task_conn.send((p[0], self.tasks[p[0]]))
            except (OSError, ValueError) as exc:
                self._discard(worker)
                self._incident("executor.worker_crashes",
                               f"task pipe broken: {exc}")
                continue
            worker.inflight = [p[0], p[1]]
            worker.deadline = (None if self.ex.timeout is None
                               else now + self.ex.timeout)
            worker.served += 1
            self.pending.remove(p)

    def _idle_or_new(self) -> Optional[_Worker]:
        for w in self.workers:
            if w.inflight is None:
                return w
        if len(self.workers) >= self.ex.workers or self.degraded:
            return None
        return self._spawn()

    def _spawn(self) -> Optional[_Worker]:
        wid = self.next_worker_id
        self.next_worker_id += 1
        try:
            task_r, task_w = self.ctx.Pipe(duplex=False)
            result_r, result_w = self.ctx.Pipe(duplex=False)
            proc = self.ctx.Process(
                target=_worker_main,
                args=(wid, self.fn, task_r, result_w, self.ex.fault_hook),
                name=f"repro-worker-{wid}",
                daemon=True,
            )
            proc.start()
        except (OSError, ValueError, pickle.PicklingError) as exc:
            self._incident("executor.worker_crashes",
                           f"worker spawn failed: {exc}")
            self.degraded = True
            return None
        # Close the child's ends in the parent so worker death surfaces
        # as EOF on result_r instead of a silent hang.
        task_r.close()
        result_w.close()
        worker = _Worker(proc, task_w, result_r)
        self.workers.append(worker)
        return worker

    # -- result / failure handling -------------------------------------------

    def _collect(self, worker: _Worker) -> None:
        try:
            task_id, ok, value = worker.result_conn.recv()
        except (EOFError, OSError):
            self._on_crash(worker)
            return
        inflight = worker.inflight
        worker.inflight = None
        worker.deadline = None
        if (self.ex.maxtasksperchild is not None
                and worker.served >= self.ex.maxtasksperchild):
            self._retire(worker)
        if inflight is None or task_id != inflight[0] \
                or task_id in self.results:
            return  # stale duplicate; nothing to record
        if not ok:
            # A clean Python exception from fn is deterministic — retrying
            # would recur.  Re-raise in the parent (Pool.map semantics);
            # run()'s finally tears the pool down.
            raise value
        self._finish(task_id, value)

    def _on_crash(self, worker: _Worker) -> None:
        exitcode = worker.proc.exitcode
        inflight = worker.inflight
        self._discard(worker)
        self._incident("executor.worker_crashes",
                       f"worker died (exitcode {exitcode})")
        if inflight is not None:
            self._retry(inflight)

    def _on_timeout(self, worker: _Worker) -> None:
        inflight = worker.inflight
        self.ex.metrics.counter("executor.timeouts").inc()
        try:
            worker.proc.kill()
        except (OSError, AttributeError):
            worker.proc.terminate()
        worker.proc.join(_SHUTDOWN_GRACE)
        self._discard(worker)
        self._incident(None, "task timed out")
        if inflight is not None:
            self._retry(inflight)

    def _retry(self, inflight: list) -> None:
        task_id, attempt = inflight
        if attempt >= self.ex.retry.max_attempts:
            # Last resort: the pool kept losing this task; run it here.
            self.ex.metrics.counter("executor.inline_fallbacks").inc()
            self._finish(task_id, self.fn(self.tasks[task_id]))
            return
        self.ex.metrics.counter("executor.retries").inc()
        delay = self.ex.retry.delay(task_id, attempt)
        self.pending.append([task_id, attempt + 1,
                             time.monotonic() + delay])

    def _finish(self, task_id: int, value: Any) -> None:
        self.results[task_id] = value
        self.ex.metrics.counter("executor.tasks").inc()
        if self.on_result is not None:
            self.on_result(task_id, value)

    def _incident(self, counter: Optional[str], reason: str) -> None:
        if counter is not None:
            self.ex.metrics.counter(counter).inc()
        self.incidents += 1
        if self.incidents >= self.ex.degrade_after:
            self.degraded = True

    def _run_inline_remaining(self) -> None:
        """The pool is irrecoverable: finish every outstanding task
        serially in-process (graceful degradation, not data loss)."""
        self.ex.metrics.gauge("executor.degraded").set(1.0)
        for w in self.workers:
            if w.inflight is not None:
                self.pending.append([w.inflight[0], w.inflight[1], 0.0])
        self._terminate_all()
        for task_id, _, _ in sorted(self.pending, key=lambda p: p[0]):
            if task_id not in self.results:
                self._finish(task_id, self.fn(self.tasks[task_id]))
        self.pending.clear()

    # -- timing --------------------------------------------------------------

    def _wakeup_timeout(self, now: float) -> float:
        """Sleep no longer than the next deadline / backoff expiry."""
        due = [w.deadline for w in self.workers if w.deadline is not None]
        due += [p[2] for p in self.pending]
        horizon = min((d - now for d in due if d > now), default=_POLL_TICK)
        return max(0.01, min(horizon, _POLL_TICK))

    # -- teardown ------------------------------------------------------------

    def _retire(self, worker: _Worker) -> None:
        self.ex.metrics.counter("executor.workers_recycled").inc()
        self.workers.remove(worker)
        try:
            worker.task_conn.send(None)
        except (OSError, ValueError):
            pass
        self.retired.append(worker)

    def _discard(self, worker: _Worker) -> None:
        """Drop a dead/killed worker: close pipes, reap the process."""
        if worker in self.workers:
            self.workers.remove(worker)
        worker.close()
        if worker.proc.is_alive():
            worker.proc.terminate()
        worker.proc.join(_SHUTDOWN_GRACE)
        if worker.proc.is_alive():  # pragma: no cover - terminate sufficed
            worker.proc.kill()
            worker.proc.join()

    def _reap_retired(self) -> None:
        for worker in list(self.retired):
            if not worker.proc.is_alive():
                worker.proc.join()
                worker.close()
                self.retired.remove(worker)

    def _terminate_all(self) -> None:
        """Poison-pill, then escalate: no orphan worker survives shutdown
        (including KeyboardInterrupt unwinding through ``run``)."""
        everyone = self.workers + self.retired
        self.workers = []
        self.retired = []
        for worker in everyone:
            try:
                worker.task_conn.send(None)
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + _SHUTDOWN_GRACE
        for worker in everyone:
            worker.proc.join(max(0.0, deadline - time.monotonic()))
        for worker in everyone:
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(_SHUTDOWN_GRACE)
            if worker.proc.is_alive():  # pragma: no cover
                worker.proc.kill()
                worker.proc.join()
            worker.close()


def _execute_detached(spec: RunSpec,
                      check: Optional[bool] = None) -> RunResult:
    """Worker-side task: run one spec, ship verdicts/metrics back without
    the bulk trace (event history stays in the worker).  Bind ``check``
    with :func:`functools.partial` — a partial of a module-level function
    pickles by reference."""
    return execute(spec, check=check).detach_trace()
