"""The process substrate: a forked worker group over an anonymous arena.

Both process engines — :class:`~repro.parallel.backends.processes.ProcessSDCCalculator`
(color chunks of one box) and
:class:`~repro.parallel.backends.sharded.ShardedSDCCalculator` (one
worker per shard) — run on the pieces in this module:

* :class:`_Arena` — one anonymous shared ``mmap`` per epoch, carved into
  float64 NumPy views from a per-worker ``{name: shape}`` layout.  It is
  created *before* the fork, so the parent and every worker address the
  same pages, and there is no named ``/dev/shm`` segment that could
  outlive a crashed run.
* a *program* per worker — a ``{phase token: closure}`` dict whose
  closures capture that worker's static state (its chunk of the
  schedule, the pair CSR, the potential, the kernel tier) and its arena
  views.  Programs are bound before the fork, so nothing is pickled on
  the way in.
* :class:`_ProcessGroup` — one persistent forked worker per program, fed
  phase tokens over a pipe.  ``run_phase(token)`` sends the token to
  every worker and returns only when every worker answered (the phase
  barrier).  Each reply carries the task's small result plus a
  :class:`PhaseTiming` (pid, ``perf_counter`` origin, elapsed) so the
  parent can lay the worker's task out on its timeline.
* :class:`_InlineGroup` — the same protocol executed in the calling
  process (the deterministic reference, and the fallback without
  ``fork``).
* :class:`GroupEngine` — what both engines share on top: the group and
  arena lifecycle, kernel-tier pinning, profiler/tracer hooks, and the
  restart-once rule.

Failure contract: a task raising re-raises *its own* exception after
every worker answered; a worker dying (signal, ``os._exit``) or missing
the phase deadline raises
:class:`~repro.parallel.backends.base.BackendError` and marks the group
broken.  The engines then stop the group, fork a fresh one over the same
arena, and retry the evaluation once.
"""

from __future__ import annotations

import mmap
import multiprocessing as mp
import os
import pickle
import time
import weakref
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.parallel.backends.base import BackendError
from repro.utils.profiler import NULL_PHASE, PHASE_BARRIER, PHASE_SETUP, PhaseProfiler

#: generous per-phase barrier timeout; a phase exceeding it is treated as
#: a lost worker group (BackendError), not silently waited on forever
DEFAULT_PHASE_TIMEOUT_S = 120.0

#: phase token -> closure, bound to one worker's state before the fork
Program = Dict[str, Callable[[], object]]

#: per-worker arena layout: field name -> array shape (float64)
Layout = Mapping[str, Tuple[int, ...]]

_ALIGN = 64


class PhaseTiming(NamedTuple):
    """Where and when one worker ran its task, in the worker's clock."""

    pid: int
    origin_s: float
    elapsed_s: float


def record_health(
    category: str, event: str, severity: str = "info", **fields: object
) -> None:
    """Record a flight-recorder event (never raises)."""
    try:
        from repro.obs.recorder import record

        record(category, event, severity=severity, **fields)
    except Exception:  # pragma: no cover - health plane must stay optional
        pass


def count_health(name: str) -> None:
    """Bump a named health counter (never raises)."""
    try:
        from repro.obs.recorder import count

        count(name)
    except Exception:  # pragma: no cover - health plane must stay optional
        pass


def portable_exception(exc: BaseException) -> BaseException:
    """An exception object that survives a pickle round-trip.

    Returns ``exc`` itself when it pickles cleanly; otherwise a
    ``RuntimeError`` carrying the original type name and message, so the
    parent still gets *an* exception describing the failure.
    """
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


class _Arena:
    """One anonymous shared mapping, viewed as per-worker NumPy arrays.

    ``layouts[k]`` names the float64 arrays of worker ``k`` and their
    shapes; ``views[k]`` holds the matching arrays.  An engine whose
    workers share one set of arrays passes a single layout.  Forked
    workers inherit the mapping, so the mapping cannot outlive its
    processes.
    """

    def __init__(self, layouts: Sequence[Layout]) -> None:
        placed: List[List[Tuple[str, Tuple[int, ...], int]]] = []
        total = 0
        for layout in layouts:
            fields = []
            for name, shape in layout.items():
                shape = tuple(int(d) for d in shape)
                fields.append((name, shape, total))
                n_items = int(np.prod(shape))
                total += ((n_items * 8 + _ALIGN - 1) // _ALIGN) * _ALIGN
            placed.append(fields)
        #: mapped size in bytes (at least one page)
        self.nbytes = max(total, mmap.PAGESIZE)
        self._mm = mmap.mmap(-1, self.nbytes)
        self.views: List[Dict[str, np.ndarray]] = [
            {
                name: np.frombuffer(
                    self._mm,
                    dtype=np.float64,
                    count=int(np.prod(shape)),
                    offset=offset,
                ).reshape(shape)
                for name, shape, offset in fields
            }
            for fields in placed
        ]

    def close(self) -> None:
        """Drop the views and unmap (idempotent, best effort)."""
        self.views = []
        try:
            self._mm.close()
        except BufferError:  # pragma: no cover - an exported view survives
            pass  # the mapping dies with the process regardless


def _run_task(program: Program, token: str, pid: int) -> tuple:
    """Run one phase token: ``(status, result or exception, timing)``."""
    start = time.perf_counter()
    try:
        task = program.get(token)
        if task is None:
            raise RuntimeError(f"unknown phase {token!r}")
        status, value = "ok", task()
    except BaseException as exc:  # noqa: BLE001 - status channel
        status, value = "err", exc
    return status, value, PhaseTiming(pid, start, time.perf_counter() - start)


def _settle(group, replies: Sequence[tuple]) -> List[object]:
    """Record the phase's timings; re-raise the first task exception only
    now that every worker answered; else return the results."""
    group.timings = [timing for _, _, timing in replies]
    for status, value, _ in replies:
        if status == "err":
            raise value
    return [value for _, value, _ in replies]


def _worker_main(conn, program: Program) -> None:
    """Persistent worker: execute phase tokens until ``exit``.

    The program's closures were captured before the fork, so they address
    the arena pages directly; only the phase token and a small
    ``(status, value, timing)`` reply cross the pipe.
    """
    pid = os.getpid()
    try:
        conn.send(("ready", pid, None))
        while True:
            try:
                token = conn.recv()
            except (EOFError, OSError):
                break
            if token == "exit":
                break
            status, value, timing = _run_task(program, token, pid)
            if status == "err":
                value = portable_exception(value)
            conn.send((status, value, timing))
    finally:
        conn.close()


class _ProcessGroup:
    """One persistent forked worker per program, fed phase tokens over pipes.

    The warm-start rendezvous (each worker acknowledges ``ready`` before
    the group is considered live) means the first phase never races
    worker startup.
    """

    def __init__(
        self,
        programs: Sequence[Program],
        timeout_s: float = DEFAULT_PHASE_TIMEOUT_S,
    ) -> None:
        self.timeout_s = timeout_s
        self.broken = False
        #: per-worker timing of the last completed phase
        self.timings: List[PhaseTiming] = []
        ctx = mp.get_context("fork")
        self._procs = []
        self._conns = []
        for program in programs:
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            process = ctx.Process(
                target=_worker_main, args=(child_conn, program), daemon=True
            )
            process.start()
            child_conn.close()
            self._procs.append(process)
            self._conns.append(parent_conn)
        for worker, conn in enumerate(self._conns):
            try:
                ready = conn.poll(self.timeout_s) and conn.recv()[0] == "ready"
            except (EOFError, OSError):
                ready = False
            if not ready:
                self.stop()
                raise BackendError(
                    f"worker {worker} never reached the warm-start rendezvous"
                )

    @property
    def pids(self) -> List[int]:
        return [p.pid for p in self._procs if p.is_alive() and p.pid]

    def run_phase(self, token: str) -> List[object]:
        """Dispatch one phase token to every worker; barrier on all.

        Worker death raises :class:`BackendError` (and marks the group
        broken); a task exception is re-raised after every worker
        answered, so the phase barrier held either way.
        """
        if self.broken:
            raise BackendError("worker group is broken")
        for worker, conn in enumerate(self._conns):
            try:
                conn.send(token)
            except (BrokenPipeError, OSError) as exc:
                self.broken = True
                raise BackendError(
                    f"worker {worker} is gone (send failed)"
                ) from exc
        replies, dead = [], []
        for worker, conn in enumerate(self._conns):
            try:
                replies.append(conn.recv() if conn.poll(self.timeout_s) else None)
            except (EOFError, OSError):
                replies.append(None)
            if replies[-1] is None:
                dead.append(worker)
        if dead:
            self.broken = True
            raise BackendError(f"worker(s) {dead} died during phase {token!r}")
        return _settle(self, replies)

    def stop(self) -> None:
        """Tear the group down and reap every worker (idempotent)."""
        for conn in self._conns:
            try:
                conn.send("exit")
            except Exception:
                pass
        for process in self._procs:
            process.join(5.0)
            if process.is_alive():  # pragma: no cover - watchdog path
                process.terminate()
                process.join(5.0)
        for conn in self._conns:
            conn.close()
        self._procs = []
        self._conns = []
        self.broken = True


class _InlineGroup:
    """The same phase protocol executed in the calling process."""

    broken = False
    pids: List[int] = []

    def __init__(self, programs: Sequence[Program]) -> None:
        self._programs = list(programs)
        self.timings: List[PhaseTiming] = []

    def run_phase(self, token: str) -> List[object]:
        pid = os.getpid()
        return _settle(self, [_run_task(p, token, pid) for p in self._programs])

    def stop(self) -> None:
        self._programs = []


class _Resources:
    """The live group and arena, separate from the engine so a
    ``weakref.finalize`` on the engine can release them."""

    def __init__(self) -> None:
        self.group = None
        self.arena: Optional[_Arena] = None

    def stop_group(self) -> None:
        if self.group is not None:
            self.group.stop()
            self.group = None

    def release(self) -> None:
        """Stop the group first, then unmap the arena (idempotent)."""
        self.stop_group()
        if self.arena is not None:
            self.arena.close()
            self.arena = None


class GroupEngine:
    """Lifecycle, telemetry hooks and the restart-once rule that both
    process engines share.

    A subclass binds ``self._programs`` (and the arena on
    ``self._resources``) at each epoch, calls :meth:`_spawn_group`, and
    runs its phases through :meth:`_run_phase` inside
    :meth:`_with_restart`.
    """

    name = "group-engine"
    #: flight-recorder category of this engine's events
    health_category = "engine"
    #: event recorded when a lost group is replaced
    restart_event = "pool-restart"

    def __init__(
        self,
        kernel_tier: "kernels.TierSpec",
        restart_on_failure: bool,
        timeout_s: float = DEFAULT_PHASE_TIMEOUT_S,
    ) -> None:
        #: pinned kernel tier; None follows the active tier at each epoch
        #: (resolved eagerly so an unknown spec surfaces here)
        self._tier = kernels.get(kernel_tier) if kernel_tier is not None else None
        self.restart_on_failure = restart_on_failure
        self.timeout_s = timeout_s
        self._profiler: Optional[PhaseProfiler] = None
        self._tracer = None
        self._trace_phase = 0
        self._programs: List[Program] = []
        self._epoch = 0
        self._n_spawns = 0
        self._n_restarts = 0
        self._n_worker_deaths = 0
        self._resources = _Resources()
        self._finalizer = weakref.finalize(self, self._resources.release)

    def __enter__(self):
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:  # pragma: no cover - subclasses override
        self._resources.release()

    # --- kernel tier -----------------------------------------------------------

    @property
    def kernel_tier(self) -> str:
        """Resolved tier name the worker programs run on."""
        return self._resolved_tier().name

    def _resolved_tier(self):
        return self._tier if self._tier is not None else kernels.active_tier()

    def set_kernel_tier(self, tier) -> None:
        """Pin the worker programs' kernel tier (None reverts to the active
        tier).  Accepts anything :func:`repro.kernels.get` accepts; the
        resolved tier is part of the epoch key, so the next ``compute``
        forks workers bound to exactly this variant."""
        self._tier = kernels.get(tier) if tier is not None else None

    # --- observability ---------------------------------------------------------

    def attach_profiler(self, profiler: PhaseProfiler) -> None:
        """Record per-phase wall-clock (and barrier slack) into *profiler*."""
        self._profiler = profiler

    def detach_profiler(self) -> None:
        self._profiler = None

    def attach_tracer(self, tracer) -> None:
        """Record timeline spans, plus one task span per worker and group
        phase on its ``worker-<pid>`` track, into *tracer*."""
        self._tracer = tracer
        self._trace_phase = 0

    def detach_tracer(self) -> None:
        self._tracer = None

    def _phase(self, name: str):
        if self._profiler is None:
            return NULL_PHASE
        return self._profiler.phase(name)

    def _span(self, name: str, **args):
        if self._tracer is None:
            return NULL_PHASE
        return self._tracer.span(name, **args)

    def _health(self, event: str, severity: str = "info", **fields) -> None:
        record_health(self.health_category, event, severity, **fields)

    def worker_pids(self) -> List[int]:
        """PIDs of the live workers (empty without a forked group)."""
        group = self._resources.group
        return list(group.pids) if group is not None else []

    def arena_bytes(self) -> int:
        """Bytes of the live shared arena (0 when none is mapped)."""
        arena = self._resources.arena
        return arena.nbytes if arena is not None else 0

    # --- the group -------------------------------------------------------------

    def _make_group(self, programs: Sequence[Program]):
        return _ProcessGroup(programs, self.timeout_s)

    def _spawn_group(self) -> None:
        """Replace any group with a fresh one over the current programs."""
        self._resources.stop_group()
        started = time.perf_counter()
        try:
            self._resources.group = self._make_group(self._programs)
        except BackendError as exc:
            self._health("pool-spawn-failed", "critical", error=str(exc))
            raise
        self._n_spawns += 1
        self._health(
            "pool-spawn",
            n_workers=len(self._programs),
            spawn_seconds=time.perf_counter() - started,
            spawn_count=self._n_spawns,
            epoch=self._epoch,
            arena_bytes=self.arena_bytes(),
            pids=self.worker_pids(),
        )

    def _run_phase(self, token: str, label: Optional[str] = None) -> List[object]:
        """One group phase; worker death is counted, recorded and
        re-raised as :class:`BackendError`."""
        group = self._resources.group
        start = time.perf_counter()
        try:
            results = group.run_phase(token)
        except BackendError as exc:
            self._n_worker_deaths += 1
            self._health(
                "worker-death", "warning", phase=label or token, error=str(exc)
            )
            raise
        end = time.perf_counter()
        timings = group.timings
        if self._profiler is not None and timings:
            longest = max(t.elapsed_s for t in timings)
            self._profiler.add(PHASE_BARRIER, max(0.0, end - start - longest))
        if self._tracer is not None:
            self._trace_worker_phase(label or token, timings, start, end)
        return results

    def _trace_worker_phase(
        self, label: str, timings: Sequence[PhaseTiming], start: float, end: float
    ) -> None:
        """A task span per worker on its ``worker-<pid>`` track, the
        barrier wait after it, and the phase span.  Worker origins are
        aligned into the parent's clock with
        :func:`repro.obs.tracer.align_worker_spans`."""
        from repro.obs.tracer import CAT_BARRIER, CAT_PHASE, CAT_TASK, Span
        from repro.obs.tracer import align_worker_spans

        phase = self._trace_phase
        self._trace_phase += 1
        for task, timing in enumerate(timings):
            track = f"worker-{timing.pid}"
            raw = Span(
                f"{label}:task", CAT_TASK, timing.origin_s, timing.elapsed_s,
                pid=timing.pid, track=track, args={"phase": phase, "task": task},
            )
            (span,) = align_worker_spans([raw], timing.origin_s, start, end)
            self._tracer.record(span)
            if end > span.end_s:
                self._tracer.record(Span(
                    "barrier-wait", CAT_BARRIER, span.end_s, end - span.end_s,
                    pid=timing.pid, track=track, args={"phase": phase},
                ))
        self._tracer.add(
            f"{label}/phase{phase}", CAT_PHASE, start, end - start,
            phase=phase, n_tasks=len(timings),
        )

    def _with_restart(self, evaluate: Callable[[], object]):
        """Run ``evaluate``; on :class:`BackendError`, fork a fresh group
        over the same arena and programs and run it once more."""
        for attempt in (0, 1):
            try:
                return evaluate()
            except BackendError as exc:
                if attempt or not self.restart_on_failure:
                    self._health(
                        "engine-failed", "critical", error=str(exc), attempt=attempt
                    )
                    raise
                self._n_restarts += 1
                self._health(
                    self.restart_event,
                    "warning",
                    epoch=self._epoch,
                    restart_count=self._n_restarts,
                    error=str(exc),
                )
                with self._phase(PHASE_SETUP):
                    with self._span("setup", restart=True):
                        self._spawn_group()
        raise AssertionError("unreachable")  # pragma: no cover
