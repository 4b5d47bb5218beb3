"""Sharded spatial decomposition with real halo exchange (ROADMAP item 3).

The analytic hybrid model in :mod:`repro.parallel.cluster` predicts how
SDC composes with a distributed spatial decomposition; this module makes
one actually execute.  The global box is split into a near-cubic grid of
*shards* (:func:`repro.parallel.cluster.node_grid` picks the factor
assignment, largest count on the longest axis).  Each shard owns the
atoms whose wrapped position falls inside its region and runs a complete
intra-shard SDC pipeline — decomposition, lattice coloring, pair
partition, kernel-tier primitives — exactly the machinery the
single-box strategies use.

Correctness across shard boundaries is explicit **halo exchange**,
ordered like a distributed EAM step (cf. the hybrid MPI+OpenMP designs in
PAPERS.md):

1. **ghost construction** (at every neighbor-list rebuild): every
   ``(atom, periodic image)`` whose shifted position lies within
   ``reach = cutoff + skin`` of a shard's region becomes a *ghost* of
   that shard, carrying its lattice image shift
   (:meth:`~repro.geometry.box.Box.lattice_image_shifts`).  Shards build
   their local half pair list over owned+ghost coordinates in an *open*
   extended box — ghost coordinates are image-shifted, so plain
   (non-periodic) pair geometry is exact.  A global-id dedup rule keeps
   every physical pair on exactly one shard: owned–owned pairs always,
   owned–ghost pairs only when the owned atom's global id is smaller.
2. **position refresh** (every force evaluation): shard-local coordinates
   are rebuilt as ``R + minimum_image(wrap(p) - R)`` (``R`` = the
   neighbor list's reference positions) — the same displacement formula
   as the Verlet rebuild criterion, so coordinates stay in the image
   branch the ghosts were constructed in even when an atom drifts across
   a periodic face mid-epoch.
3. **density reduction**: after the density pass, ghost ``rho``
   contributions are accumulated onto their owners and the completed
   owned densities written back.
4. **embedding + ghost-fp refresh**: each shard embeds its *owned* atoms
   (energy counted once); ``F'(rho)`` for ghosts is then refreshed from
   the owners before the force pass needs ``fp_i + fp_j``.
5. **force reduction**: ghost force contributions are accumulated back
   onto their owners (Newton's third law globally).
6. **atom migration** (at every rebuild): ownership is recomputed from
   the new reference positions; atoms are re-homed and the migration
   count lands in the flight recorder.

Execution engines: ``engine="processes"`` runs one forked worker per
shard on the process substrate (:mod:`repro.parallel.backends.group`,
DESIGN.md §7.1), with positions/rho/fp/forces in one arena block per
shard, kept warm between neighbor rebuilds (the epoch);
``engine="inline"`` runs the identical protocol in-process (the
differential reference, and the fallback without ``fork``).

Intra-shard SDC coloring keeps its ``edge > 2*reach`` constraint; a shard
too small to decompose degrades to a single-subdomain schedule.  Shard
edges themselves may be arbitrarily small: ghost selection enumerates
periodic images globally rather than assuming a 26-neighbor stencil.

Steady-state health-plane cost follows the DESIGN §7.3 overhead
contract: per-compute work only bumps counters; flight-recorder *events*
(``sharded`` category: ``shard-epoch``, ``migration``, ``halo-refresh``)
are emitted at epoch changes.
"""

from __future__ import annotations

import multiprocessing as mp
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.core.coloring import lattice_coloring
from repro.core.domain import (
    DecompositionError,
    SubdomainGrid,
    decompose_balanced,
)
from repro.core.partition import PairPartition, build_partition, group_pairs
from repro.core.schedule import ColorSchedule, build_schedule
from repro.geometry.box import Box
from repro.md.atoms import Atoms
from repro.md.neighbor.verlet import NeighborList, build_neighbor_list
from repro.parallel.backends.group import (
    DEFAULT_PHASE_TIMEOUT_S,
    GroupEngine,
    Program,
    _Arena,
    _InlineGroup,
    count_health,
    record_health,
)
from repro.parallel.cluster import node_grid
from repro.potentials.base import EAMPotential
from repro.potentials.eam import (
    EAMComputation,
    density_pair_values,
    force_pair_coefficients,
    pair_geometry,
    scatter_force_half,
    scatter_rho_half,
)

__all__ = [
    "HaloSpec",
    "ShardGrid",
    "ShardedSDCCalculator",
    "build_halo",
    "make_shard_grid",
]

#: per-ghost exchange traffic per force evaluation, in bytes: position
#: push (24) + rho reduction (8) + fp refresh (8) + force reduction (24)
GHOST_BYTES_PER_STEP = 64


# ---------------------------------------------------------------------------
# shard grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShardGrid:
    """A near-cubic grid of spatial shards over the global box.

    Unlike :class:`~repro.core.domain.SubdomainGrid` (the intra-shard SDC
    decomposition, whose color-safety argument needs edges longer than
    ``2 * reach``), a shard edge may be arbitrarily small: the halo
    construction enumerates periodic images globally, so correctness
    never rests on a 26-stencil assumption.
    """

    box: Box
    counts: Tuple[int, int, int]

    def __post_init__(self) -> None:
        if any(c < 1 for c in self.counts):
            raise ValueError(f"counts must be >= 1, got {self.counts}")

    @property
    def n_shards(self) -> int:
        """Total shard count."""
        return self.counts[0] * self.counts[1] * self.counts[2]

    def edge_lengths(self) -> np.ndarray:
        """Shard edge lengths per axis."""
        return self.box.lengths / np.asarray(self.counts, dtype=np.float64)

    def shard_of_positions(self, positions: np.ndarray) -> np.ndarray:
        """Flat shard id owning each (wrapped) position."""
        positions = self.box.wrap(np.asarray(positions, dtype=np.float64))
        coords = np.floor(positions / self.edge_lengths()).astype(np.int64)
        coords = np.clip(coords, 0, np.asarray(self.counts) - 1)
        _, ny, nz = self.counts
        return (coords[..., 0] * ny + coords[..., 1]) * nz + coords[..., 2]

    def bounds_of(self, shard: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)`` corner coordinates of one shard's region."""
        _, ny, nz = self.counts
        coords = np.array(
            [shard // (ny * nz), (shard // nz) % ny, shard % nz],
            dtype=np.float64,
        )
        edges = self.edge_lengths()
        lo = coords * edges
        return lo, lo + edges


def make_shard_grid(box: Box, n_shards: int) -> ShardGrid:
    """Near-cubic shard grid: largest factor on the longest axis.

    Reuses :func:`repro.parallel.cluster.node_grid` — the same
    surface-minimizing factorization the analytic hybrid model assumes —
    then assigns the sorted factors to axes by decreasing box length, so
    halo shells stay as thin as the factorization allows.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    factors = sorted(node_grid(n_shards), reverse=True)
    axis_order = np.argsort(-box.lengths, kind="stable")
    counts = [1, 1, 1]
    for factor, axis in zip(factors, axis_order):
        counts[int(axis)] = int(factor)
    return ShardGrid(box=box, counts=(counts[0], counts[1], counts[2]))


# ---------------------------------------------------------------------------
# halo construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HaloSpec:
    """The ghost set of one shard.

    ``source_ids[k]`` is the global index of the atom whose periodic
    image ``positions[source_ids[k]] + shifts[k]`` lies within ``reach``
    of the shard's region.  The same atom may appear several times with
    different shifts (distinct periodic images are distinct ghosts).
    """

    source_ids: np.ndarray
    shifts: np.ndarray

    @property
    def n_ghosts(self) -> int:
        """Number of ghost entries."""
        return len(self.source_ids)


def build_halo(
    positions: np.ndarray, grid: ShardGrid, reach: float
) -> List[HaloSpec]:
    """Ghost selection for every shard.

    For shard ``s`` with region ``[lo, hi]``, the ghost set is exactly
    the ``(atom, image shift)`` pairs whose shifted wrapped position lies
    inside the rectangular halo shell ``[lo - reach, hi + reach]`` (per
    axis, inclusive), excluding the shard's own atoms at the identity
    shift.  Periodic images come from
    :meth:`~repro.geometry.box.Box.lattice_image_shifts`; on non-periodic
    axes only the primary image exists.  This is the property the
    hypothesis suite checks against an independent scalar oracle.
    """
    if reach <= 0:
        raise ValueError(f"reach must be positive, got {reach}")
    box = grid.box
    wrapped = box.wrap(np.asarray(positions, dtype=np.float64))
    shard_of = grid.shard_of_positions(wrapped)
    image_shifts = box.lattice_image_shifts()
    specs: List[HaloSpec] = []
    for shard in range(grid.n_shards):
        lo, hi = grid.bounds_of(shard)
        ids_parts: List[np.ndarray] = []
        shift_parts: List[np.ndarray] = []
        for shift in image_shifts:
            shifted = wrapped + shift
            inside = np.all(
                (shifted >= lo - reach) & (shifted <= hi + reach), axis=1
            )
            if not shift.any():
                # the identity image of a shard's own atoms is the owned
                # set, not a ghost
                inside &= shard_of != shard
            idx = np.flatnonzero(inside)
            if len(idx):
                ids_parts.append(idx.astype(np.int64))
                shift_parts.append(np.broadcast_to(shift, (len(idx), 3)))
        if ids_parts:
            specs.append(
                HaloSpec(
                    source_ids=np.concatenate(ids_parts),
                    shifts=np.ascontiguousarray(np.concatenate(shift_parts)),
                )
            )
        else:
            specs.append(
                HaloSpec(
                    source_ids=np.empty(0, dtype=np.int64),
                    shifts=np.empty((0, 3), dtype=np.float64),
                )
            )
    return specs


# ---------------------------------------------------------------------------
# per-shard plan (local frame, pair partition, intra-shard SDC)
# ---------------------------------------------------------------------------

@dataclass
class _ShardPlan:
    """Everything static about one shard within a decomposition epoch."""

    shard: int
    owned: np.ndarray  # global indices of owned atoms
    halo: HaloSpec
    src: np.ndarray  # concat(owned, halo.source_ids)
    shift: np.ndarray  # (n_local, 3) lattice shifts; zero on owned rows
    ext_box: Box  # open box bounding owned + ghost coordinates
    grid: SubdomainGrid  # intra-shard SDC grid (possibly 1x1x1)
    pairs: PairPartition  # deduplicated local pairs, subdomain-grouped
    schedule: ColorSchedule

    @property
    def n_owned(self) -> int:
        return len(self.owned)

    @property
    def n_local(self) -> int:
        return len(self.src)

    @property
    def n_ghosts(self) -> int:
        return self.halo.n_ghosts

    @property
    def halo_fraction(self) -> float:
        """Ghost share of the shard's local atom set."""
        return self.n_ghosts / self.n_local if self.n_local else 0.0


def _build_shard_plan(
    shard: int,
    grid: ShardGrid,
    shard_of: np.ndarray,
    halo: HaloSpec,
    reference: np.ndarray,
    cutoff: float,
    skin: float,
    dims: int,
) -> _ShardPlan:
    """Local frame, deduplicated pair list, and intra-shard SDC for one shard."""
    reach = cutoff + skin
    lo, hi = grid.bounds_of(shard)
    owned = np.flatnonzero(shard_of == shard).astype(np.int64)
    src = np.concatenate([owned, halo.source_ids])
    shift = np.concatenate(
        [np.zeros((len(owned), 3)), halo.shifts], axis=0
    )
    n_owned = len(owned)
    n_local = len(src)
    # open extended box: the halo shell plus a pad so inclusive-boundary
    # ghosts land strictly inside [0, L_ext)
    pad = 1e-9 * (1.0 + float(np.max(grid.box.lengths)))
    origin = lo - reach - pad
    ext_box = Box(
        (hi - lo) + 2.0 * (reach + pad), periodic=(False, False, False)
    )
    local_reference = reference[src] + shift
    build_pos = local_reference - origin

    if n_local:
        local_nlist = build_neighbor_list(
            build_pos, ext_box, cutoff=cutoff, skin=skin, half=True
        )
        i_idx, j_idx = local_nlist.pair_arrays()
    else:
        i_idx = j_idx = np.empty(0, dtype=np.int64)

    # exactly-once pair ownership: owned-owned pairs belong here; an
    # owned-ghost pair belongs to the shard whose *owned* endpoint has
    # the smaller global id (its mirror on the ghost's owner shard is
    # dropped there); ghost-ghost pairs always belong elsewhere
    owned_i = i_idx < n_owned
    owned_j = j_idx < n_owned
    gid_i = src[i_idx] if len(i_idx) else i_idx
    gid_j = src[j_idx] if len(j_idx) else j_idx
    keep = (owned_i & owned_j) | (
        owned_i & ~owned_j & (gid_i < gid_j)
    ) | (~owned_i & owned_j & (gid_j < gid_i))
    i_idx = np.ascontiguousarray(i_idx[keep])
    j_idx = np.ascontiguousarray(j_idx[keep])

    # intra-shard SDC, reused unchanged; shards too small for the
    # > 2*reach constraint degrade to a single-subdomain schedule
    try:
        sub_grid = decompose_balanced(ext_box, reach, dims, 1)
    except DecompositionError:
        sub_grid = SubdomainGrid(box=ext_box, counts=(1, 1, 1), reach=reach)
    coloring = lattice_coloring(sub_grid)
    partition = build_partition(build_pos, sub_grid)
    pairs = group_pairs(partition, i_idx, j_idx)
    schedule = build_schedule(coloring)
    return _ShardPlan(
        shard=shard,
        owned=owned,
        halo=halo,
        src=src,
        shift=shift,
        ext_box=ext_box,
        grid=sub_grid,
        pairs=pairs,
        schedule=schedule,
    )


# ---------------------------------------------------------------------------
# shard programs
# ---------------------------------------------------------------------------

def _make_shard_program(
    plan: _ShardPlan,
    views: Dict[str, np.ndarray],
    potential: EAMPotential,
    tier,
) -> Program:
    """Phase closures of one shard, bound to its arena views.

    Each scatter phase walks the intra-shard color schedule subdomain by
    subdomain through the same kernel-tier primitives the single-box SDC
    strategy dispatches — coloring and tier dispatch reused unchanged.
    """
    positions = views["positions"]
    rho = views["rho"]
    fp = views["fp"]
    forces = views["forces"]
    pairs = plan.pairs
    schedule = plan.schedule
    ext_box = plan.ext_box
    n_owned = plan.n_owned

    def density() -> float:
        pair_energy = 0.0
        for members in schedule.phases:
            for sub in members:
                i_idx, j_idx = pairs.pairs_of(int(sub))
                if len(i_idx) == 0:
                    continue
                _, r = pair_geometry(
                    positions, ext_box, i_idx, j_idx, tier=tier
                )
                phi = density_pair_values(potential, r, tier=tier)
                scatter_rho_half(rho, i_idx, j_idx, phi, tier=tier)
                pair_energy += float(np.sum(potential.pair_energy(r)))
        return pair_energy

    def embedding() -> float:
        if n_owned == 0:
            return 0.0
        owned_rho = rho[:n_owned]
        energy = float(np.sum(potential.embed(owned_rho)))
        fp[:n_owned] = potential.embed_deriv(owned_rho)
        return energy

    def force() -> None:
        for members in schedule.phases:
            for sub in members:
                i_idx, j_idx = pairs.pairs_of(int(sub))
                if len(i_idx) == 0:
                    continue
                delta, r = pair_geometry(
                    positions, ext_box, i_idx, j_idx, tier=tier
                )
                coeff = force_pair_coefficients(
                    potential,
                    r,
                    fp[i_idx],
                    fp[j_idx],
                    pair_ids=(i_idx, j_idx),
                    tier=tier,
                )
                scatter_force_half(
                    forces, i_idx, j_idx, coeff[:, None] * delta, tier=tier
                )
        return None

    return {"density": density, "embedding": embedding, "force": force}


# ---------------------------------------------------------------------------
# the force engine
# ---------------------------------------------------------------------------

class ShardedSDCCalculator(GroupEngine):
    """Multi-shard EAM force engine with explicit halo exchange.

    Satisfies the :class:`~repro.md.simulation.ForceCalculator` protocol.
    See the module docstring for the exchange protocol; per-evaluation
    ordering is *sync → density → rho reduction → embedding → fp refresh
    → force → force reduction*, with atom migration re-homing ownership
    at every neighbor-list rebuild (a new decomposition epoch: worker
    group and arena are rebuilt, then stay warm until the next rebuild).

    Parameters
    ----------
    n_shards:
        number of spatial shards; :func:`make_shard_grid` picks the
        near-cubic grid.
    dims:
        intra-shard SDC decomposition dimensionality (shards too small
        for the SDC constraints degrade to one subdomain).
    engine:
        ``"processes"`` (persistent forked worker group, the default) or
        ``"inline"`` (same protocol in-process — the deterministic
        differential reference, and the automatic fallback where
        ``fork`` is unavailable).
    kernel_tier:
        pinned kernel tier for the shard programs (None follows the
        active tier, re-resolved at every decomposition epoch).
    timeout_s:
        per-phase barrier timeout before a worker is declared lost.
    """

    name = "sdc-sharded"
    health_category = "sharded"
    restart_event = "group-restart"

    def __init__(
        self,
        n_shards: int = 2,
        dims: int = 2,
        engine: str = "processes",
        kernel_tier: "kernels.TierSpec" = None,
        timeout_s: float = DEFAULT_PHASE_TIMEOUT_S,
        restart_on_failure: bool = True,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if dims not in (1, 2, 3):
            raise ValueError(f"dims must be 1, 2 or 3, got {dims}")
        if engine not in ("processes", "inline"):
            raise ValueError(f"unknown engine {engine!r}")
        if engine == "processes" and "fork" not in mp.get_all_start_methods():
            record_health(
                "sharded",
                "engine-fallback",
                "warning",
                wanted="processes",
                used="inline",
                reason="no fork support",
            )
            engine = "inline"
        super().__init__(kernel_tier, restart_on_failure, timeout_s)
        self.n_shards = n_shards
        self.dims = dims
        self.engine = engine
        # epoch state
        self._cached_key: Optional[tuple] = None
        self._shard_grid: Optional[ShardGrid] = None
        self._plans: List[_ShardPlan] = []
        # ownership cache + migration accounting (keyed on nlist identity)
        self._ownership_key: Optional[int] = None
        self._ownership: Optional[Tuple[ShardGrid, np.ndarray]] = None
        self._prev_assignment: Optional[Tuple[np.ndarray, np.ndarray]] = None
        # lifecycle counters surfaced by health_snapshot()
        self._n_epochs = 0
        self._n_migrated_total = 0
        self._halo_bytes_total = 0
        self._n_computes = 0

    # --- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Stop the worker group and unmap the arena (idempotent).

        The calculator stays usable: the next ``compute`` rebuilds the
        epoch from scratch.
        """
        if self._resources.group is not None:
            self._health(
                "engine-close",
                n_shards=self.n_shards,
                epoch=self._epoch,
            )
        self._resources.release()
        self._cached_key = None
        self._plans = []
        self._programs = []
        self._ownership_key = None
        self._ownership = None

    def _make_group(self, programs: Sequence[Program]):
        if self.engine == "inline":
            return _InlineGroup(programs)
        return super()._make_group(programs)

    def shard_schedule_items(
        self,
    ) -> List[Tuple[int, PairPartition, ColorSchedule]]:
        """Per-shard ``(shard, pair partition, schedule)`` for metrics."""
        return [
            (plan.shard, plan.pairs, plan.schedule) for plan in self._plans
        ]

    @property
    def shard_grid(self) -> Optional[ShardGrid]:
        """The current shard grid (None before the first compute)."""
        return self._shard_grid

    def halo_stats(self) -> Dict[str, object]:
        """Per-shard halo occupancy of the current epoch."""
        return {
            "n_owned": [plan.n_owned for plan in self._plans],
            "n_ghosts": [plan.n_ghosts for plan in self._plans],
            "halo_fraction": [plan.halo_fraction for plan in self._plans],
            "bytes_per_step": GHOST_BYTES_PER_STEP
            * int(sum(plan.n_ghosts for plan in self._plans)),
        }

    def health_snapshot(self) -> Dict[str, object]:
        """Engine lifecycle state for :meth:`HealthMonitor.snapshot`."""
        grid = self._shard_grid
        return {
            "engine": self.name,
            "shard_engine": self.engine,
            "n_shards": self.n_shards,
            "shard_grid": list(grid.counts) if grid is not None else None,
            "group_live": self._resources.group is not None,
            "worker_pids": self.worker_pids(),
            "epoch": self._epoch,
            "n_epochs": self._n_epochs,
            "n_restarts": self._n_restarts,
            "n_worker_deaths": self._n_worker_deaths,
            "n_migrated_total": self._n_migrated_total,
            "halo_bytes_total": self._halo_bytes_total,
            "n_ghosts": int(sum(p.n_ghosts for p in self._plans)),
            "kernel_tier": self.kernel_tier,
            "decomposition_cached": self._cached_key is not None,
        }

    # --- ownership and migration ------------------------------------------------

    def on_neighbor_rebuild(self, atoms: Atoms, nlist: NeighborList) -> None:
        """Simulation rebuild hook: re-home atoms to their shards eagerly.

        Migration accounting runs here (before the next force evaluation
        needs the new epoch), so the flight-recorder ``migration`` event
        lands next to the scheduler's ``neighbor-rebuild`` event.
        """
        self._assign_ownership(atoms, nlist)

    def _assign_ownership(
        self, atoms: Atoms, nlist: NeighborList
    ) -> Tuple[ShardGrid, np.ndarray]:
        """Shard ownership for this neighbor list (cached, accounted once)."""
        if self._ownership_key == id(nlist) and self._ownership is not None:
            return self._ownership
        grid = make_shard_grid(atoms.box, self.n_shards)
        shard_of = grid.shard_of_positions(nlist.reference_positions)
        ids = np.asarray(atoms.ids, dtype=np.int64)
        n_migrated = 0
        if self._prev_assignment is not None:
            prev_ids, prev_shard = self._prev_assignment
            if np.array_equal(prev_ids, ids):
                n_migrated = int(np.count_nonzero(prev_shard != shard_of))
            else:  # align by permanent atom id (reordered snapshots)
                order_prev = np.argsort(prev_ids, kind="stable")
                order_now = np.argsort(ids, kind="stable")
                common = min(len(order_prev), len(order_now))
                n_migrated = int(
                    np.count_nonzero(
                        prev_shard[order_prev[:common]]
                        != shard_of[order_now[:common]]
                    )
                )
            self._n_migrated_total += n_migrated
            self._health(
                "migration",
                epoch=self._epoch,
                n_migrated=n_migrated,
                n_atoms=len(ids),
                n_shards=self.n_shards,
            )
            count_health("sharded_migration_events")
        self._prev_assignment = (ids.copy(), shard_of.copy())
        self._ownership_key = id(nlist)
        self._ownership = (grid, shard_of)
        return self._ownership

    # --- epoch build -------------------------------------------------------------

    def _prepare(
        self, potential: EAMPotential, atoms: Atoms, nlist: NeighborList
    ) -> None:
        """(Re)build shards, halo, arena and worker group when the
        neighbor list (or the tier/potential binding) changed."""
        tier = self._resolved_tier()
        key = (id(nlist), id(potential), tier.name)
        group = self._resources.group
        if self._cached_key == key and group is not None and not group.broken:
            count_health("sharded_epoch_cache_hit")
            return
        count_health("sharded_epoch_cache_miss")
        self._resources.release()
        grid, shard_of = self._assign_ownership(atoms, nlist)
        halos = build_halo(
            nlist.reference_positions, grid, nlist.cutoff + nlist.skin
        )
        plans = [
            _build_shard_plan(
                shard,
                grid,
                shard_of,
                halos[shard],
                nlist.reference_positions,
                nlist.cutoff,
                nlist.skin,
                self.dims,
            )
            for shard in range(grid.n_shards)
        ]
        arena = _Arena(
            [
                {
                    "positions": (plan.n_local, 3),
                    "rho": (plan.n_local,),
                    "fp": (plan.n_local,),
                    "forces": (plan.n_local, 3),
                }
                for plan in plans
            ]
        )
        programs = [
            _make_shard_program(plan, views, potential, tier)
            for plan, views in zip(plans, arena.views)
        ]
        self._resources.arena = arena
        self._programs = programs
        self._epoch += 1
        self._spawn_group()
        self._shard_grid = grid
        self._plans = plans
        self._n_epochs += 1
        self._cached_key = key
        n_ghosts = int(sum(plan.n_ghosts for plan in plans))
        self._health(
            "shard-epoch",
            epoch=self._epoch,
            engine=self.engine,
            n_shards=grid.n_shards,
            grid=list(grid.counts),
            n_atoms=nlist.n_atoms,
            n_ghosts=n_ghosts,
            n_local_pairs=int(sum(plan.pairs.n_pairs for plan in plans)),
            mean_halo_fraction=float(
                np.mean([plan.halo_fraction for plan in plans])
            ),
            kernel_tier=tier.name,
        )
        self._health(
            "halo-refresh",
            epoch=self._epoch,
            n_ghosts=n_ghosts,
            bytes_per_step=GHOST_BYTES_PER_STEP * n_ghosts,
            n_shards=grid.n_shards,
        )

    # --- the force evaluation -----------------------------------------------------

    def compute(
        self, potential: EAMPotential, atoms: Atoms, nlist: NeighborList
    ) -> EAMComputation:
        """Full sharded EAM evaluation; also updates ``atoms`` in place."""
        if not nlist.half:
            raise ValueError("the sharded engine consumes half neighbor lists")
        if nlist.n_atoms != atoms.n_atoms:
            raise ValueError(
                f"neighbor list covers {nlist.n_atoms} atoms, system has "
                f"{atoms.n_atoms}"
            )
        with self._phase("neighbor-rebuild"):
            with self._span("neighbor-rebuild"):
                self._prepare(potential, atoms, nlist)
        return self._with_restart(lambda: self._compute_once(atoms, nlist))

    def _compute_once(
        self, atoms: Atoms, nlist: NeighborList
    ) -> EAMComputation:
        arena = self._resources.arena
        box = atoms.box
        n = atoms.n_atoms
        reference = nlist.reference_positions
        # image-consistent coordinates: the Verlet criterion bounds the
        # displacement by skin/2, so the minimum image recovers the true
        # drift and every atom stays in its epoch's image branch
        current = reference + box.minimum_image(
            box.wrap(atoms.positions) - reference
        )
        n_ghosts = 0
        with self._span("halo-refresh"):
            for plan, views in zip(self._plans, arena.views):
                views["positions"][:] = current[plan.src] + plan.shift
                views["rho"][:] = 0.0
                views["fp"][:] = 0.0
                views["forces"][:] = 0.0
                n_ghosts += plan.n_ghosts

        with self._phase("density"):
            with self._span("density", n_shards=len(self._plans)):
                pair_parts = self._run_phase("density")
        pair_energy = float(sum(p or 0.0 for p in pair_parts))

        rho = np.zeros(n)
        with self._span("halo-exchange:rho", n_ghosts=n_ghosts):
            for plan, views in zip(self._plans, arena.views):
                local_rho = views["rho"]
                rho[plan.owned] += local_rho[: plan.n_owned]
                np.add.at(
                    rho, plan.halo.source_ids, local_rho[plan.n_owned:]
                )
            for plan, views in zip(self._plans, arena.views):
                views["rho"][: plan.n_owned] = rho[plan.owned]

        with self._phase("embedding"):
            with self._span("embedding"):
                emb_parts = self._run_phase("embedding")
        embedding_energy = float(sum(e or 0.0 for e in emb_parts))

        fp = np.empty(n)
        with self._span("halo-exchange:fp", n_ghosts=n_ghosts):
            for plan, views in zip(self._plans, arena.views):
                fp[plan.owned] = views["fp"][: plan.n_owned]
            for plan, views in zip(self._plans, arena.views):
                views["fp"][plan.n_owned:] = fp[plan.halo.source_ids]

        with self._phase("force"):
            with self._span("force", n_shards=len(self._plans)):
                self._run_phase("force")

        forces = np.zeros((n, 3))
        with self._span("halo-exchange:force", n_ghosts=n_ghosts):
            for plan, views in zip(self._plans, arena.views):
                local_forces = views["forces"]
                forces[plan.owned] += local_forces[: plan.n_owned]
                np.add.at(
                    forces,
                    plan.halo.source_ids,
                    local_forces[plan.n_owned:],
                )

        self._n_computes += 1
        self._halo_bytes_total += GHOST_BYTES_PER_STEP * n_ghosts
        count_health("sharded_halo_refresh")
        atoms.rho[:] = rho
        atoms.fp[:] = fp
        atoms.forces[:] = forces
        return EAMComputation(
            pair_energy=pair_energy,
            embedding_energy=embedding_energy,
            rho=rho,
            fp=fp,
            forces=forces,
        )
