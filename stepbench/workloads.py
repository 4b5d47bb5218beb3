"""The four named MD workloads and how their inputs are generated.

Every workload is NVE with a 1 fs velocity-Verlet step, a 0.3 A Verlet
skin, the Johnson Fe potential and the NumPy kernel tier, and runs on at
most two workers.  Inputs are a bcc Fe lattice (optionally with a void)
plus Maxwell-Boltzmann velocities drawn from the benchmark's ``--seed``;
the program under test receives only those arrays.

Each workload exists because one layer does most of the work in it and
little in another (see ``why``), so a change to that layer has a workload
that should move and one that should not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from repro import kernels, units
from repro.core.strategies import SDCStrategy
from repro.geometry import SphereRegion, bcc_lattice
from repro.md import Atoms
from repro.md.simulation import SerialCalculator
from repro.parallel.backends import (
    ShardedSDCCalculator,
    ThreadBackend,
    make_shard_grid,
)
from repro.parallel.backends.processes import ProcessSDCCalculator

TIMESTEP_PS = 1.0e-3
SKIN = 0.3
KERNEL_TIER = "numpy"
#: void volume as a share of the box (fe23k-void-hot-sharded2)
VOID_VOLUME_FRACTION = 0.15


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a system, a temperature and an engine."""

    name: str
    n_cells: int
    temperature_k: float
    engine: str
    n_workers: int
    void: bool
    why: str
    make_calculator: Callable[[], object]

    def describe(self) -> Dict[str, object]:
        """The facts printed with every result of this workload."""
        return {
            "workload": self.name,
            "system": f"bcc Fe {self.n_cells}^3 cells"
            + (f", {VOID_VOLUME_FRACTION:.0%}-volume off-centre void"
               if self.void else ""),
            "temperature_k": self.temperature_k,
            "engine": self.engine,
            "n_workers": self.n_workers,
            "why": self.why,
        }


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fe54k-serial",
            n_cells=30,
            temperature_k=300.0,
            engine="SerialCalculator",
            n_workers=1,
            void=False,
            why="the paper's small case on the serial kernel: the "
            "single-threaded baseline, where NumPy kernels take most of "
            "the step and no backend runs",
            make_calculator=SerialCalculator,
        ),
        Workload(
            name="fe54k-sdc2d-procs2",
            n_cells=30,
            temperature_k=300.0,
            engine="ProcessSDCCalculator(dims=2, n_workers=2)",
            n_workers=2,
            void=False,
            why="the same atoms on the process substrate: arena sync, "
            "worker barriers and SDC re-decomposition at each rebuild",
            make_calculator=lambda: ProcessSDCCalculator(
                dims=2, n_workers=2, kernel_tier=KERNEL_TIER
            ),
        ),
        Workload(
            name="fe23k-void-hot-sharded2",
            n_cells=24,
            temperature_k=1500.0,
            engine="ShardedSDCCalculator(n_shards=2, dims=2)",
            n_workers=2,
            void=True,
            why="a hot crystal rebuilds every few steps, each rebuild a "
            "sharded epoch, and the off-centre void makes the two shards "
            "own unequal atom counts",
            make_calculator=lambda: ShardedSDCCalculator(
                n_shards=2, dims=2, kernel_tier=KERNEL_TIER
            ),
        ),
        Workload(
            name="fe8k-sdc3d-threads2",
            n_cells=16,
            temperature_k=300.0,
            engine="SDCStrategy(dims=3, n_threads=2) on ThreadBackend(2)",
            n_workers=2,
            void=False,
            why="an L2-sized system bound by per-subdomain dispatch; the "
            "only workload that runs core.strategies.sdc and the thread "
            "backend",
            make_calculator=lambda: SDCStrategy(
                dims=3, n_threads=2, backend=ThreadBackend(2)
            ),
        ),
    )
}


def build_atoms(workload: Workload, seed: int) -> Atoms:
    """Generate the workload's atoms and velocities from ``seed``.

    The same seed gives bit-identical inputs.  Velocities are drawn from
    the Maxwell-Boltzmann distribution, the centre-of-mass drift removed
    and the kinetic temperature rescaled to exactly ``temperature_k``.
    """
    n = workload.n_cells
    positions, box = bcc_lattice(units.FE_BCC_LATTICE_A, (n, n, n))
    if workload.void:
        # centred a quarter of the way along the axis the two-shard grid
        # splits, so one shard loses most of the void's volume
        split_axis = int(np.argmax(make_shard_grid(box, 2).counts))
        center = 0.5 * np.asarray(box.lengths, dtype=np.float64)
        center[split_axis] = 0.25 * box.lengths[split_axis]
        radius = (
            3.0 * VOID_VOLUME_FRACTION * box.volume / (4.0 * np.pi)
        ) ** (1.0 / 3.0)
        void = SphereRegion(center=tuple(center), radius=radius)
        positions = positions[~void.contains(positions, box)]
    rng = np.random.default_rng(seed)
    mass = units.FE_MASS_AMU
    kt = units.KB_EV_PER_K * workload.temperature_k
    sigma = np.sqrt(kt / (mass * units.MVV_TO_EV))
    velocities = rng.normal(0.0, sigma, size=positions.shape)
    velocities -= velocities.mean(axis=0)
    kinetic = 0.5 * mass * units.MVV_TO_EV * float(np.sum(velocities**2))
    velocities *= np.sqrt(1.5 * len(positions) * kt / kinetic)
    return Atoms(box=box, positions=positions, velocities=velocities)


def select_kernel_tier() -> str:
    """Make the NumPy tier the active tier and return its resolved name."""
    return kernels.set_active_tier(KERNEL_TIER).name
