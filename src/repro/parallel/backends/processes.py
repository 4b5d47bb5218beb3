"""Process-parallel SDC: color-chunk programs on the forked worker group.

Python's GIL caps what :class:`~repro.parallel.backends.threads.ThreadBackend`
can demonstrate; this engine runs the SDC color phases across *processes*,
the closest Python analog of the paper's OpenMP threads.  It runs on the
substrate of :mod:`repro.parallel.backends.group`, the same one the
sharded engine uses:

* at each *epoch* — a new neighbor list, potential, resolved kernel tier
  or box — the engine builds the grid, coloring, pair partition and color
  schedule, allocates one anonymous shared arena (positions, rho,
  embedding derivatives, forces and the cached pair geometry), binds
  each worker's ``static_assignment`` chunk of every color into
  ``density:<c>``/``force:<c>`` closures, and forks the group.  This
  honors the paper's amortization argument ("steps 1 and 2 will be done
  when the neighbor list is created or updated", Section II.D);
* each step syncs positions into the arena, zeroes the reduction arrays,
  and runs one group phase per color.  Within a phase, workers scatter
  concurrently **without any locks** — legal for exactly the reason the
  paper gives: same-color subdomains have disjoint write sets.  The
  density pass publishes each pair's minimum-image geometry, which the
  force pass reuses; the embedding runs in the parent between the two.

Worker death, the restart-once rule and cleanup are the substrate's
(DESIGN.md §7.1).
"""

from __future__ import annotations

import functools
import multiprocessing as mp
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.core.coloring import lattice_coloring, validate_coloring
from repro.core.domain import SubdomainGrid, decompose_balanced
from repro.core.partition import (
    PairPartition,
    build_pair_partition,
    build_partition,
)
from repro.core.schedule import ColorSchedule, build_schedule, static_assignment
from repro.md.atoms import Atoms
from repro.md.neighbor.verlet import NeighborList
from repro.parallel.backends.group import (
    GroupEngine,
    Program,
    _Arena,
    count_health,
)
from repro.potentials.base import EAMPotential
from repro.potentials.eam import EAMComputation
from repro.utils.profiler import PHASE_NEIGHBOR, PHASE_SETUP, PHASE_SYNC


def _chunk_program(
    chunks: Sequence[Sequence[int]],
    pairs: PairPartition,
    views: Dict[str, np.ndarray],
    potential: EAMPotential,
    tier,
    box,
    record_writes: bool,
) -> Program:
    """One worker's phase closures: its chunk of every color, both passes.

    ``chunks[c]`` lists the worker's subdomains of color ``c``.  Each
    closure returns ``(pair_energy, writes)``: the density pass sums the
    chunk's pair energy while it holds each pair's distance, and
    ``writes`` is the flat written-index list when ``record_writes`` is
    on (the shadowed arrays write through to the arena), else None.
    """
    positions = views["positions"]
    rho = views["rho"]
    fp = views["fp"]
    forces = views["forces"]
    pair_delta = views["pair_delta"]
    pair_r = views["pair_r"]
    offsets = pairs.offsets
    pair_i = pairs.i_idx
    pair_j = pairs.j_idx

    def shadow(array: np.ndarray, name: str):
        if not record_writes:
            return array, None
        from repro.analysis.shadow import TaskWriteLog, wrap_array

        log = TaskWriteLog()
        return wrap_array(array, name, log), log

    def density(subdomains: Sequence[int]) -> Tuple[float, Optional[List[int]]]:
        target, log = shadow(rho, "rho")
        pair_energy = 0.0
        for s in subdomains:
            lo, hi = int(offsets[s]), int(offsets[s + 1])
            if lo == hi:
                continue
            i_idx, j_idx = pair_i[lo:hi], pair_j[lo:hi]
            delta, r = tier.pair_geometry(positions, box, i_idx, j_idx)
            pair_delta[lo:hi] = delta
            pair_r[lo:hi] = r
            pair_energy += float(np.sum(potential.pair_energy(r)))
            phi = tier.density_pair_values(potential, r)
            tier.scatter_rho_half(target, i_idx, j_idx, phi)
        return pair_energy, log.flat("rho").tolist() if log is not None else None

    def force(subdomains: Sequence[int]) -> Tuple[float, Optional[List[int]]]:
        target, log = shadow(forces, "forces")
        for s in subdomains:
            lo, hi = int(offsets[s]), int(offsets[s + 1])
            if lo == hi:
                continue
            i_idx, j_idx = pair_i[lo:hi], pair_j[lo:hi]
            # geometry cached by the density pass for these exact positions
            coeff = tier.force_pair_coefficients(
                potential, pair_r[lo:hi], fp[i_idx], fp[j_idx],
                pair_ids=(i_idx, j_idx),
            )
            pair_forces = coeff[:, None] * pair_delta[lo:hi]
            tier.scatter_force_half(target, i_idx, j_idx, pair_forces)
        return 0.0, log.flat("forces").tolist() if log is not None else None

    program: Program = {"tier": lambda: tier.name}
    for color, subdomains in enumerate(chunks):
        subdomains = [int(s) for s in subdomains]
        program[f"density:{color}"] = functools.partial(density, subdomains)
        program[f"force:{color}"] = functools.partial(force, subdomains)
    return program


class ProcessSDCCalculator(GroupEngine):
    """SDC force computation on a forked worker group.

    Satisfies the :class:`~repro.md.simulation.ForceCalculator` protocol.
    Requires a platform with the ``fork`` start method (Linux).

    ``close()`` (or the context-manager exit) releases the group and the
    arena; a closed calculator revives on the next ``compute``.  Worker
    death raises :class:`~repro.parallel.backends.base.BackendError`
    after one transparent group restart + retry
    (``restart_on_failure=False`` disables the retry).
    """

    name = "sdc-processes"

    def __init__(
        self,
        dims: int = 2,
        n_workers: int = 2,
        record_writes: bool = False,
        restart_on_failure: bool = True,
        kernel_tier: "kernels.TierSpec" = None,
    ) -> None:
        if dims not in (1, 2, 3):
            raise ValueError(f"dims must be 1, 2 or 3, got {dims}")
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if "fork" not in mp.get_all_start_methods():
            raise RuntimeError("ProcessSDCCalculator requires fork support")
        super().__init__(kernel_tier, restart_on_failure)
        self.dims = dims
        self.n_workers = n_workers
        #: when True, workers shadow their arena views and ship the flat
        #: write indices back; ``last_write_record`` then holds one
        #: ``(kind, per_worker_write_sets)`` entry per color phase for the
        #: dynamic race detector (repro.analysis.racecheck)
        self.record_writes = record_writes
        self.last_write_record: List[Tuple[str, List[List[int]]]] = []
        # epoch state, keyed on (neighbor list, potential, tier, box)
        self._key: Optional[tuple] = None
        self._grid: Optional[SubdomainGrid] = None
        self._pairs: Optional[PairPartition] = None
        self._schedule: Optional[ColorSchedule] = None

    # --- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Stop the worker group and unmap the arena (idempotent).

        The calculator stays usable: the next ``compute`` rebuilds the
        epoch from scratch.
        """
        if self._resources.group is not None:
            self._health(
                "engine-close",
                n_workers=self.n_workers,
                arena_bytes_released=self.arena_bytes(),
            )
        self._resources.release()
        self._key = None
        self._programs = []
        self._pairs = None
        self._schedule = None
        self._grid = None

    def worker_kernel_tiers(self) -> Dict[int, str]:
        """Resolved tier name per live worker pid (diagnostic).

        Requires a live group (compute at least once first).
        """
        group = self._resources.group
        if group is None:
            raise RuntimeError("no live worker group; call compute() first")
        names = group.run_phase("tier")
        return {t.pid: name for t, name in zip(group.timings, names)}

    def health_snapshot(self) -> Dict[str, object]:
        """Engine lifecycle state for :meth:`HealthMonitor.snapshot`."""
        return {
            "engine": self.name,
            "pool_live": self._resources.group is not None,
            "n_workers": self.n_workers,
            "worker_pids": self.worker_pids(),
            "epoch": self._epoch,
            "arena_bytes": self.arena_bytes(),
            "n_pool_spawns": self._n_spawns,
            "n_restarts": self._n_restarts,
            "n_worker_deaths": self._n_worker_deaths,
            "kernel_tier": self.kernel_tier,
            "decomposition_cached": self._pairs is not None,
        }

    # --- epoch -------------------------------------------------------------------

    @property
    def grid(self) -> Optional[SubdomainGrid]:
        """The cached decomposition (None before the first compute)."""
        return self._grid

    @property
    def pair_partition(self) -> Optional[PairPartition]:
        """The cached pair partition (None before the first compute)."""
        return self._pairs

    @property
    def schedule(self) -> Optional[ColorSchedule]:
        """The cached color schedule (None before the first compute)."""
        return self._schedule

    def _prepare(
        self, potential: EAMPotential, atoms: Atoms, nlist: NeighborList
    ) -> bool:
        """(Re)build grid/partition/coloring/schedule at a new epoch.

        Returns True when a new epoch started (the caller then binds the
        programs and forks the group).  A broken group left behind by a
        failed compute also starts a new epoch.
        """
        box = atoms.box
        key = (id(nlist), id(potential), self.kernel_tier,
               tuple(box.lengths), tuple(box.periodic))
        group = self._resources.group
        if self._key == key and group is not None and not group.broken:
            count_health("sdc_decomp_cache_hit")
            return False
        count_health("sdc_decomp_cache_miss")
        self._resources.release()
        reach = nlist.cutoff + nlist.skin
        grid = decompose_balanced(box, reach, self.dims, self.n_workers)
        coloring = lattice_coloring(grid)
        validate_coloring(grid, coloring)
        partition = build_partition(nlist.reference_positions, grid)
        self._pairs = build_pair_partition(partition, nlist)
        self._schedule = build_schedule(coloring)
        self._grid = grid
        self._key = key
        return True

    def _bind_epoch(self, potential: EAMPotential, atoms: Atoms) -> None:
        """Allocate the arena, bind every worker's program, fork the group."""
        n, n_pairs = atoms.n_atoms, self._pairs.n_pairs
        layout = {
            "positions": (n, 3),
            "rho": (n,),
            "fp": (n,),
            "forces": (n, 3),
            "pair_delta": (n_pairs, 3),
            "pair_r": (n_pairs,),
        }
        arena = self._resources.arena = _Arena([layout])
        phases = self._schedule.phases
        assignments = [
            static_assignment(len(members), self.n_workers) for members in phases
        ]
        tier = self._resolved_tier()
        self._programs = [
            _chunk_program(
                [members[chunks[w]] for members, chunks in zip(phases, assignments)],
                self._pairs,
                arena.views[0],
                potential,
                tier,
                atoms.box,
                self.record_writes,
            )
            for w in range(self.n_workers)
        ]
        self._epoch += 1
        self._spawn_group()

    # --- phase execution -------------------------------------------------------

    def _color_passes(self, kind: str) -> float:
        """Every color phase of one pass, in schedule order; returns the
        summed pair-energy partials (non-zero only for density)."""
        pair_energy = 0.0
        with self._phase(kind):
            for color, members in enumerate(self._schedule.phases):
                label = f"{kind}:color{color}"
                with self._span(label, color=color, n_subdomains=len(members)):
                    results = self._run_phase(f"{kind}:{color}", label)
                pair_energy += sum(partial for partial, _ in results)
                if self.record_writes:
                    self.last_write_record.append(
                        (kind, [writes for _, writes in results])
                    )
        return pair_energy

    def _evaluate(self, potential: EAMPotential, atoms: Atoms) -> EAMComputation:
        """Sync → density → embedding → force on the live group.

        The pair energy is assembled from the density workers' partial
        sums — they already hold each pair's distance, so the parent
        never recomputes pair geometry serially.
        """
        views = self._resources.arena.views[0]
        rho, fp, forces = views["rho"], views["fp"], views["forces"]
        # sync: in-place state refresh — the whole per-step setup cost
        with self._phase(PHASE_SYNC):
            with self._span("sync"):
                views["positions"][:] = atoms.positions
                rho[:] = 0.0
                fp[:] = 0.0
                forces[:] = 0.0
        self.last_write_record = []
        pair_energy = self._color_passes("density")
        # embedding in the parent (no dependences)
        with self._phase("embedding"):
            with self._span("embedding"):
                embedding_energy = float(np.sum(potential.embed(rho)))
                fp[:] = potential.embed_deriv(rho)
        self._color_passes("force")
        return EAMComputation(
            pair_energy=pair_energy,
            embedding_energy=embedding_energy,
            rho=rho.copy(),
            fp=fp.copy(),
            forces=forces.copy(),
        )

    # --- the ForceCalculator protocol -----------------------------------------

    def compute(
        self,
        potential: EAMPotential,
        atoms: Atoms,
        nlist: NeighborList,
    ) -> EAMComputation:
        if not nlist.half:
            raise ValueError("SDC consumes half neighbor lists")
        with self._phase(PHASE_NEIGHBOR):
            with self._span("neighbor-rebuild"):
                new_epoch = self._prepare(potential, atoms, nlist)
        if new_epoch:
            with self._phase(PHASE_SETUP):
                with self._span("setup", epoch=self._epoch + 1):
                    self._bind_epoch(potential, atoms)
        result = self._with_restart(lambda: self._evaluate(potential, atoms))
        atoms.rho[:] = result.rho
        atoms.fp[:] = result.fp
        atoms.forces[:] = result.forces
        return result
