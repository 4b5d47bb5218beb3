"""400-step cross-engine trajectory check: the SDC engines vs serial.

Both process engines fork their worker group once per neighbor-list
epoch, so a long run exercises many forks, arenas and decompositions;
the threaded ``SDCStrategy`` re-decomposes at every epoch and runs one
pair slice per thread per color.  The serial kernels,
``ProcessSDCCalculator(dims=2, n_workers=2)``,
``ShardedSDCCalculator(n_shards=4)`` and ``SDCStrategy(dims=3,
n_threads=2)`` on a two-thread backend start from identical seeded
inputs (bcc 8^3, 1024 atoms, 600 K, NVE) and must end at the same
positions and with the same energy drift to floating-point noise.
"""

from __future__ import annotations

import multiprocessing as mp

import numpy as np
import pytest

from repro.harness.cases import Case
from repro.md.observables import kinetic_energy
from repro.md.simulation import Simulation

pytestmark = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="requires fork"
)

N_STEPS = 400
MIN_REBUILDS = 17
#: final-position agreement with serial, in Å
POSITION_ATOL = 1e-12
#: agreement of the NVE energy drift with serial, in eV/atom
DRIFT_ATOL = 1e-12


def _run(potential, calculator):
    """Positions, NVE drift per atom and rebuild count of one run."""
    atoms = Case(key="nve400", label="nve400", n_cells=8).build(
        perturbation=0.05, temperature=600.0, seed=7
    )
    with Simulation(atoms, potential, calculator=calculator) as sim:
        start = sim.compute_forces().potential_energy + kinetic_energy(atoms)
        report = sim.run(N_STEPS, sample_every=N_STEPS)
    drift = (report.records[-1].total_energy - start) / atoms.n_atoms
    return atoms.positions.copy(), drift, report.n_neighbor_rebuilds


@pytest.fixture(scope="module")
def serial_run(potential):
    return _run(potential, None)


def _engines():
    from repro.core.strategies import SDCStrategy
    from repro.parallel.backends import ThreadBackend
    from repro.parallel.backends.processes import ProcessSDCCalculator
    from repro.parallel.backends.sharded import ShardedSDCCalculator

    return {
        "processes": lambda: ProcessSDCCalculator(dims=2, n_workers=2),
        "sharded": lambda: ShardedSDCCalculator(n_shards=4),
        "threads-sdc": lambda: SDCStrategy(
            dims=3, n_threads=2, backend=ThreadBackend(2)
        ),
    }


@pytest.mark.parametrize("engine", ["processes", "sharded", "threads-sdc"])
def test_400_steps_match_serial(potential, serial_run, engine):
    serial_positions, serial_drift, serial_rebuilds = serial_run
    # the workload must span many epochs, or the check pins nothing
    assert serial_rebuilds >= MIN_REBUILDS
    positions, drift, rebuilds = _run(potential, _engines()[engine]())
    assert rebuilds == serial_rebuilds
    assert np.max(np.abs(positions - serial_positions)) <= POSITION_ATOL
    assert abs(drift - serial_drift) <= DRIFT_ATOL

