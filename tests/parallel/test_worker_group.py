"""The process substrate: worker-group contract, arena, engine hygiene.

Both process engines run on :mod:`repro.parallel.backends.group`, so its
contract is checked once here, over the forked group and its in-process
twin:

* every worker answers before ``run_phase`` returns (the phase barrier),
* a task's own exception is re-raised after the barrier,
* a worker killed with ``os._exit`` or SIGKILL raises ``BackendError``,
* ``stop()`` is idempotent and leaves no live child.

Programs are bound before the fork, so the tests' side channels live in
an :class:`_Arena` — writes to process-private arrays would be invisible
to the parent.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time

import numpy as np
import pytest

from repro.obs.tracer import CAT_TASK, Tracer
from repro.parallel.backends import BackendError
from repro.parallel.backends.group import (
    PhaseTiming,
    _Arena,
    _InlineGroup,
    _ProcessGroup,
)

pytestmark = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="requires fork"
)

GROUPS = {
    "process": lambda programs: _ProcessGroup(programs, timeout_s=60.0),
    "inline": _InlineGroup,
}

N_WORKERS = 3


@pytest.fixture()
def arena():
    arena = _Arena([{"slots": (N_WORKERS,)}])
    yield arena
    arena.close()


def _programs(arena, **extra):
    """Worker ``k`` writes ``k + 1`` into slot ``k`` and returns ``k``;
    ``extra`` maps a token to a per-worker closure factory."""
    slots = arena.views[0]["slots"]

    def program(k):
        def write():
            if k == 0:
                time.sleep(0.05)  # the slowest worker answers last
            slots[k] = k + 1.0
            return k

        entries = {"write": write}
        entries.update({token: make(k) for token, make in extra.items()})
        return entries

    return [program(k) for k in range(N_WORKERS)]


@pytest.fixture(params=list(GROUPS))
def make_group(request):
    groups = []

    def make(programs):
        group = GROUPS[request.param](programs)
        groups.append(group)
        return group

    yield make
    for group in groups:
        group.stop()


class TestGroupContract:
    def test_every_worker_answers_before_return(self, make_group, arena):
        group = make_group(_programs(arena))
        assert group.run_phase("write") == list(range(N_WORKERS))
        assert np.array_equal(
            arena.views[0]["slots"], np.arange(1.0, N_WORKERS + 1)
        )

    def test_replies_carry_worker_timings(self, make_group, arena):
        group = make_group(_programs(arena))
        start = time.perf_counter()
        group.run_phase("write")
        end = time.perf_counter()
        timings = group.timings
        assert len(timings) == N_WORKERS
        assert all(isinstance(t, PhaseTiming) for t in timings)
        for timing in timings:
            assert start <= timing.origin_s <= end
            assert 0.0 <= timing.elapsed_s <= end - start
        assert timings[0].elapsed_s >= 0.04
        if group.pids:
            assert [t.pid for t in timings] == group.pids

    def test_task_exception_reraised_after_barrier(self, make_group, arena):
        slots = arena.views[0]["slots"]

        def boom(k):
            def task():
                if k == 0:
                    raise ValueError("task boom")
                slots[k] = -1.0

            return task

        group = make_group(_programs(arena, boom=boom))
        with pytest.raises(ValueError, match="task boom"):
            group.run_phase("boom")
        # the other workers ran before the exception surfaced
        assert np.array_equal(slots[1:], -np.ones(N_WORKERS - 1))
        # a task failure is not a substrate failure
        assert not group.broken
        assert group.run_phase("write") == list(range(N_WORKERS))

    def test_unknown_token_is_a_task_error(self, make_group, arena):
        group = make_group(_programs(arena))
        with pytest.raises((RuntimeError, KeyError)):
            group.run_phase("no-such-phase")

    def test_stop_is_idempotent_and_reaps_children(self, make_group, arena):
        group = make_group(_programs(arena))
        group.run_phase("write")
        pids = list(group.pids)
        group.stop()
        group.stop()
        assert group.pids == []
        live = {child.pid for child in mp.active_children()}
        assert not live & set(pids)
        assert not any(os.path.exists(f"/proc/{pid}") for pid in pids)


class TestWorkerDeath:
    """Only the forked group has workers that can die."""

    def _group(self, arena, **extra):
        return _ProcessGroup(_programs(arena, **extra), timeout_s=60.0)

    def test_os_exit_raises_backend_error(self, arena):
        def suicide(k):
            def task():
                if k == 1:
                    os._exit(7)
                return k

            return task

        group = self._group(arena, suicide=suicide)
        try:
            with pytest.raises(BackendError):
                group.run_phase("suicide")
            assert group.broken
            with pytest.raises(BackendError):
                group.run_phase("write")
        finally:
            group.stop()

    def test_sigkill_raises_backend_error(self, arena):
        group = self._group(arena)
        try:
            group.run_phase("write")
            os.kill(group.pids[0], signal.SIGKILL)
            with pytest.raises(BackendError):
                group.run_phase("write")
            assert group.broken
        finally:
            group.stop()
        assert group.pids == []


class TestArena:
    def test_per_worker_layout(self):
        arena = _Arena([{"a": (4, 3), "b": (5,)}, {"a": (2, 3)}])
        try:
            assert [sorted(v) for v in arena.views] == [["a", "b"], ["a"]]
            assert arena.views[0]["a"].shape == (4, 3)
            assert arena.views[0]["b"].shape == (5,)
            assert arena.views[1]["a"].shape == (2, 3)
            # blocks do not alias each other
            for view in (arena.views[0]["a"], arena.views[0]["b"]):
                view[...] = 1.0
            assert not arena.views[1]["a"].any()
            assert arena.nbytes >= (12 + 5 + 6) * 8
        finally:
            arena.close()
            arena.close()

    def test_empty_layout_still_maps_a_page(self):
        arena = _Arena([{"x": (0,)}])
        assert arena.views[0]["x"].shape == (0,)
        assert arena.nbytes > 0
        arena.close()


class _ExplodingDensity:
    """Duck-typed potential whose density phase raises inside the worker."""

    def __init__(self, inner) -> None:
        self.cutoff = inner.cutoff
        self.density_deriv = inner.density_deriv
        self.pair_energy = inner.pair_energy
        self.pair_energy_deriv = inner.pair_energy_deriv
        self.embed = inner.embed
        self.embed_deriv = inner.embed_deriv

    def density(self, r):
        raise RuntimeError("density exploded")


def _engines():
    from repro.parallel.backends.processes import ProcessSDCCalculator
    from repro.parallel.backends.sharded import ShardedSDCCalculator

    return {
        "processes": lambda: ProcessSDCCalculator(dims=2, n_workers=2),
        "sharded": lambda: ShardedSDCCalculator(n_shards=2),
    }


@pytest.mark.linux
def test_engines_create_no_dev_shm_entries(potential, sdc_atoms, sdc_nlist):
    """Computing (also through a task failure) and closing either engine
    leaves /dev/shm exactly as it was: the arena is anonymous."""
    before = set(os.listdir("/dev/shm"))
    for key, make in _engines().items():
        calc = make()
        try:
            with pytest.raises(RuntimeError, match="exploded"):
                calc.compute(
                    _ExplodingDensity(potential), sdc_atoms.copy(), sdc_nlist
                )
            result = calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
            assert np.isfinite(result.potential_energy), key
            assert calc.arena_bytes() > 0, key
        finally:
            calc.close()
        assert calc.arena_bytes() == 0, key
        assert calc.worker_pids() == [], key
    assert set(os.listdir("/dev/shm")) - before == set()


def test_traced_sharded_compute_has_worker_task_spans(
    potential, sdc_atoms, sdc_nlist
):
    """Each shard worker lands one task span per group phase on its own
    ``worker-<pid>`` track."""
    from repro.parallel.backends.sharded import ShardedSDCCalculator

    tracer = Tracer()
    with ShardedSDCCalculator(n_shards=2, engine="processes") as calc:
        calc.attach_tracer(tracer)
        calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
        pids = set(calc.worker_pids())
    assert len(pids) == 2
    by_phase = {}
    for span in tracer.by_category(CAT_TASK):
        by_phase.setdefault(span.args["phase"], []).append(span)
    assert len(by_phase) == 3  # density, embedding, force
    for spans in by_phase.values():
        assert {s.pid for s in spans} == pids
        assert {s.track for s in spans} == {f"worker-{pid}" for pid in pids}
