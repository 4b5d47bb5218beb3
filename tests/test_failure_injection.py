"""Failure injection: broken inputs and crashing components must fail
loudly and leave no corrupted state behind."""

import numpy as np
import pytest

from repro.geometry.box import Box
from repro.md.atoms import Atoms
from repro.md.neighbor.verlet import NeighborList, build_neighbor_list
from repro.parallel.backends import SerialBackend, ThreadBackend
from repro.potentials import fe_potential
from repro.potentials.base import EAMPotential
from repro.utils.arrays import CSR


class ExplodingPotential(EAMPotential):
    """A potential that detonates after N evaluations (worker-crash sim)."""

    def __init__(self, fuse: int = 0) -> None:
        self._inner = fe_potential()
        self._fuse = fuse
        self.calls = 0

    @property
    def cutoff(self) -> float:
        return self._inner.cutoff

    def _tick(self) -> None:
        self.calls += 1
        if self.calls > self._fuse:
            raise RuntimeError("potential exploded")

    def density(self, r):
        self._tick()
        return self._inner.density(r)

    def density_deriv(self, r):
        return self._inner.density_deriv(r)

    def pair_energy(self, r):
        return self._inner.pair_energy(r)

    def pair_energy_deriv(self, r):
        return self._inner.pair_energy_deriv(r)

    def embed(self, rho):
        return self._inner.embed(rho)

    def embed_deriv(self, rho):
        return self._inner.embed_deriv(rho)


class TestCrashingKernels:
    def test_thread_backend_surfaces_worker_crash(
        self, sdc_atoms, sdc_nlist
    ):
        from repro.core.strategies import SDCStrategy

        with ThreadBackend(2) as backend:
            strategy = SDCStrategy(dims=2, n_threads=2, backend=backend)
            with pytest.raises(RuntimeError, match="exploded"):
                strategy.compute(
                    ExplodingPotential(fuse=2), sdc_atoms.copy(), sdc_nlist
                )

    def test_process_backend_surfaces_worker_crash(self, sdc_atoms, sdc_nlist):
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            pytest.skip("requires fork")
        from repro.parallel.backends.processes import ProcessSDCCalculator

        calc = ProcessSDCCalculator(dims=2, n_workers=2)
        with pytest.raises(Exception, match="exploded"):
            calc.compute(ExplodingPotential(fuse=0), sdc_atoms.copy(), sdc_nlist)


class KamikazePotential:
    """Duck-typed potential whose density phase SIGKILLs its own worker."""

    def __init__(self) -> None:
        self._inner = fe_potential()
        self.cutoff = self._inner.cutoff
        self.density_deriv = self._inner.density_deriv
        self.pair_energy = self._inner.pair_energy
        self.pair_energy_deriv = self._inner.pair_energy_deriv
        self.embed = self._inner.embed
        self.embed_deriv = self._inner.embed_deriv

    def density(self, r):
        import os
        import signal

        os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.slow
@pytest.mark.linux
class TestWorkerKill:
    """SIGKILL against the persistent pool: never a hang, never partial
    scatters — either a transparent restart with correct forces or the
    documented :class:`BackendError`."""

    @pytest.fixture(autouse=True)
    def _needs_fork(self):
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            pytest.skip("requires fork")

    def test_killed_worker_restarts_transparently(
        self, potential, sdc_atoms, sdc_nlist, reference_result
    ):
        import os
        import signal

        from repro.parallel.backends.processes import ProcessSDCCalculator

        with ProcessSDCCalculator(dims=2, n_workers=2) as calc:
            calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
            victim = calc.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            # default policy: the broken pool is detected, restarted, and
            # the evaluation retried from the zero fill — correct forces
            result = calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
            assert np.allclose(
                result.forces, reference_result.forces, atol=1e-12
            )
            assert victim not in calc.worker_pids()

    def test_killed_worker_raises_backend_error_without_retry(
        self, potential, sdc_atoms, sdc_nlist, reference_result
    ):
        import os
        import signal

        from repro.parallel.backends import BackendError
        from repro.parallel.backends.processes import ProcessSDCCalculator

        with ProcessSDCCalculator(
            dims=2, n_workers=2, restart_on_failure=False
        ) as calc:
            calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
            os.kill(calc.worker_pids()[0], signal.SIGKILL)
            with pytest.raises(BackendError):
                calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
            # the failure is clean: the next call re-creates the pool
            result = calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
            assert np.allclose(
                result.forces, reference_result.forces, atol=1e-12
            )

    def test_mid_phase_suicide_surfaces_backend_error(
        self, potential, sdc_atoms, sdc_nlist, reference_result
    ):
        from repro.parallel.backends import BackendError
        from repro.parallel.backends.processes import ProcessSDCCalculator

        with ProcessSDCCalculator(dims=2, n_workers=2) as calc:
            # the kamikaze kills its worker on both the original attempt
            # and the post-restart retry -> the documented error, no hang
            with pytest.raises(BackendError):
                calc.compute(
                    KamikazePotential(), sdc_atoms.copy(), sdc_nlist
                )
            # the calculator itself stays usable with a sane potential
            result = calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
            assert np.allclose(
                result.forces, reference_result.forces, atol=1e-12
            )


class TestMalformedStructures:
    def test_neighbor_list_with_corrupt_csr_rejected(self):
        with pytest.raises(ValueError):
            CSR(offsets=np.array([0, 5]), values=np.array([1, 2]))

    def test_reorder_rejects_partial_permutation(self, sdc_nlist):
        from repro.core.reorder import remap_neighbor_list

        bad = np.zeros(sdc_nlist.n_atoms, dtype=np.int64)  # not a permutation
        with pytest.raises(ValueError, match="permutation"):
            remap_neighbor_list(sdc_nlist, bad)

    def test_pair_partition_rejects_foreign_list(self, sdc_atoms, sdc_nlist):
        from repro.core.domain import decompose
        from repro.core.partition import build_pair_partition, build_partition

        grid = decompose(sdc_atoms.box, 3.9, dims=2)
        partition = build_partition(sdc_nlist.reference_positions, grid)
        foreign = build_neighbor_list(
            sdc_atoms.positions[:100], sdc_atoms.box, 3.6, skin=0.3
        )
        with pytest.raises(ValueError):
            build_pair_partition(partition, foreign)

    def test_stale_neighbor_list_detected(self, potential):
        """The driver rebuilds when atoms outrun the skin — no silent
        wrong-physics window."""
        from repro.harness.cases import Case
        from repro.md.simulation import Simulation

        atoms = Case(key="f", label="f", n_cells=4).build(seed=1)
        sim = Simulation(atoms, potential, skin=0.2)
        first = sim.ensure_neighbor_list()
        atoms.positions[0] += 0.5  # way past skin/2
        second = sim.ensure_neighbor_list()
        assert second is not first


class TestStopwatchExceptionSafety:
    def test_section_records_time_on_exception(self):
        from repro.utils.timers import Stopwatch

        sw = Stopwatch()
        with pytest.raises(ValueError):
            with sw.section("failing"):
                raise ValueError("boom")
        assert sw.count("failing") == 1
        assert sw.total("failing") >= 0.0


class TestBackendPartialPhase:
    def test_serial_backend_settles_phase_before_raising(self):
        """Serial honors the same barrier contract as the parallel
        backends: exceptions surface only after every submitted task
        settled (a parallel backend cannot un-submit the rest of a
        phase, so serial must not abort it either — the backend
        conformance suite pins this across all backends)."""
        log = []

        def ok(k):
            return lambda: log.append(k)

        def boom():
            raise RuntimeError("task 2 died")

        backend = SerialBackend()
        with pytest.raises(RuntimeError, match="task 2 died"):
            backend.run_phase([ok(0), ok(1), boom, ok(3)])
        assert log == [0, 1, 3]  # in order, and the phase ran to the barrier

    def test_thread_backend_runs_all_before_raising(self):
        import threading

        lock = threading.Lock()
        count = {"n": 0}

        def ok():
            with lock:
                count["n"] += 1

        def boom():
            raise RuntimeError("one of many")

        with ThreadBackend(2) as backend:
            with pytest.raises(RuntimeError):
                backend.run_phase([ok, boom, ok, ok])
        assert count["n"] == 3  # barrier waits for everything first
