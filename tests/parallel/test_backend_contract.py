"""Backend conformance suite: the shared ExecutionBackend contract.

One parametrized suite over the in-process backends — serial and
threads.  Every future backend earns the same coverage by adding one row
to ``BACKEND_FACTORIES``:

* ``run_phase`` barrier semantics (every closure settled at return),
* task-exception propagation (the task's own exception, after the barrier),
* observer hook ordering (``on_phase_begin`` strictly before the first
  ``on_task_begin``; ``on_phase_end`` after the last ``on_task_end``),
* ``close()`` idempotence and rejection of phases after close,
* no ``/dev/shm`` residue.

The forked worker group the process engines run on has its own contract
suite (``tests/parallel/test_worker_group.py``).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.parallel.backends import SerialBackend, ThreadBackend

BACKEND_FACTORIES = {
    "serial": lambda: SerialBackend(),
    "threads": lambda: ThreadBackend(2),
}


@pytest.fixture(params=list(BACKEND_FACTORIES))
def backend(request):
    instance = BACKEND_FACTORIES[request.param]()
    yield instance
    instance.close()


def shared_slots(n: int):
    """A float64 array the phase's closures write into."""
    return np.zeros(n)


class RecordingObserver:
    """Append-only log of every observer hook invocation."""

    def __init__(self) -> None:
        self.events = []

    def on_phase_begin(self, phase: int, n_tasks: int) -> None:
        self.events.append(("phase_begin", phase, n_tasks))

    def on_task_begin(self, phase: int, task: int) -> None:
        self.events.append(("task_begin", phase, task))

    def on_task_end(self, phase: int, task: int) -> None:
        self.events.append(("task_end", phase, task))

    def on_phase_end(self, phase: int) -> None:
        self.events.append(("phase_end", phase))


class TestBackendContract:
    def test_barrier_all_closures_settled(self, backend):
        """run_phase returns only after every closure executed."""
        slots = shared_slots(8)

        def writer(k):
            return lambda: slots.__setitem__(k, k + 1.0)

        backend.run_phase([writer(k) for k in range(8)])
        assert np.array_equal(slots, np.arange(1.0, 9.0))

    def test_usable_across_phases(self, backend):
        slots = shared_slots(2)
        backend.run_phase([lambda: slots.__setitem__(0, 1.0)])
        backend.run_phase([lambda: slots.__setitem__(1, 2.0)])
        assert slots[0] == 1.0 and slots[1] == 2.0

    def test_empty_phase_is_legal(self, backend):
        backend.run_phase([])

    def test_task_exception_propagates(self, backend):
        """A closure raising propagates the task's own exception type —
        not BackendError — and the backend stays usable."""

        def boom():
            raise ValueError("task boom")

        with pytest.raises(ValueError, match="task boom"):
            backend.run_phase([boom, lambda: None])
        backend.run_phase([lambda: None])

    def test_exception_does_not_break_barrier(self, backend):
        """Tasks after a raising one still run before the phase returns."""
        slots = shared_slots(4)

        def boom():
            raise RuntimeError("early task failed")

        def writer(k):
            return lambda: slots.__setitem__(k, 1.0)

        with pytest.raises(RuntimeError, match="early task failed"):
            backend.run_phase([boom, writer(1), writer(2), writer(3)])
        assert np.array_equal(slots[1:], np.ones(3))

    def test_observer_hook_ordering(self, backend):
        observer = RecordingObserver()
        backend.attach_observer(observer)
        try:
            backend.run_phase([lambda: None] * 3)
        finally:
            backend.detach_observer()
        events = observer.events
        kinds = [e[0] for e in events]
        assert kinds[0] == "phase_begin"
        assert events[0] == ("phase_begin", 0, 3)
        assert kinds[-1] == "phase_end"
        # phase_begin strictly before the first task_begin, phase_end
        # after the last task_end
        assert kinds.index("task_begin") > kinds.index("phase_begin")
        assert len(kinds) - 1 - kinds[::-1].index("task_end") < kinds.index(
            "phase_end", 1
        ) or kinds.index("phase_end") == len(kinds) - 1
        # every task gets a begin and a matching later end
        for task in range(3):
            begin = events.index(("task_begin", 0, task))
            end = events.index(("task_end", 0, task))
            assert begin < end
        assert kinds.count("task_begin") == 3
        assert kinds.count("task_end") == 3

    def test_observer_phase_end_fires_on_task_raise(self, backend):
        observer = RecordingObserver()
        backend.attach_observer(observer)

        def boom():
            raise ValueError("observed failure")

        try:
            with pytest.raises(ValueError):
                backend.run_phase([boom])
        finally:
            backend.detach_observer()
        kinds = [e[0] for e in observer.events]
        assert kinds[-1] == "phase_end"
        assert "task_end" in kinds  # on_task_end fires also on raise

    def test_close_idempotent(self, backend):
        backend.close()
        backend.close()

    def test_closed_backend_rejects_phases(self, backend):
        backend.close()
        with pytest.raises(RuntimeError):
            backend.run_phase([lambda: None])

    @pytest.mark.linux
    def test_no_dev_shm_residue(self, backend):
        before = set(os.listdir("/dev/shm"))
        slots = shared_slots(4)
        backend.run_phase([lambda k=k: slots.__setitem__(k, 1.0) for k in range(4)])
        backend.close()
        leaked = set(os.listdir("/dev/shm")) - before
        assert not leaked

    def test_health_snapshot_shape(self, backend):
        snapshot = backend.health_snapshot()
        assert snapshot["backend"] == type(backend).__name__
        assert "phases_run" in snapshot
        assert "observed" in snapshot

