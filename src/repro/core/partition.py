"""Atom and pair partitions over a subdomain grid.

The paper's parallel kernels (Figs. 7-8) iterate subdomain atoms through a
CSR pair of arrays: ``for ipart in pstart[spart] .. pstart[spart+1]:
i = partindex[ipart]``.  :class:`Partition` is that structure;
:class:`PairPartition` extends it to the flat neighbor-pair slots so a
strategy can grab "all half-list pairs owned by subdomain s" — or a whole
thread's block of same-color subdomains — as one contiguous slice, the
unit of parallel work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.domain import SubdomainGrid
from repro.core.schedule import ColorSchedule
from repro.md.neighbor.verlet import NeighborList
from repro.utils.arrays import CSR


@dataclass(frozen=True)
class Partition:
    """Atoms grouped by subdomain.

    ``csr.offsets`` is the paper's ``pstart``; ``csr.values`` its
    ``partindex``.
    """

    grid: SubdomainGrid
    csr: CSR
    subdomain_of_atom: np.ndarray

    @property
    def n_atoms(self) -> int:
        """Number of partitioned atoms."""
        return len(self.subdomain_of_atom)

    def atoms_of(self, subdomain: int) -> np.ndarray:
        """Atom indices owned by ``subdomain`` (ascending)."""
        return self.csr.row(subdomain)

    def counts(self) -> np.ndarray:
        """Atoms per subdomain."""
        return self.csr.row_lengths()


def build_partition(positions: np.ndarray, grid: SubdomainGrid) -> Partition:
    """Assign each atom to the subdomain containing its wrapped position."""
    subdomain_of_atom = grid.subdomain_of_positions(positions)
    order = np.argsort(subdomain_of_atom, kind="stable")
    counts = np.bincount(subdomain_of_atom, minlength=grid.n_subdomains)
    offsets = np.zeros(grid.n_subdomains + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return Partition(
        grid=grid,
        csr=CSR(offsets=offsets, values=order.astype(np.int64)),
        subdomain_of_atom=subdomain_of_atom,
    )


@dataclass(frozen=True)
class PairPartition:
    """Half-list pair slots grouped by the owning atom's subdomain.

    Layout: each subdomain's pairs form one contiguous *slot*, and the
    slots follow the color schedule the partition was built for (the
    concatenated ``ColorSchedule.phases``; subdomain id order without a
    schedule).  Within a slot the pairs keep the neighbor list's order.
    Any run of consecutive members of one color — a subdomain, one
    thread's ``static_assignment`` block, or the whole color — is
    therefore a single ``[lo, hi)`` pair range (:meth:`pair_range`), the
    unit one kernel call covers.

    Attributes
    ----------
    i_idx, j_idx:
        pair endpoint arrays permuted into slot order.
    offsets:
        CSR offsets over slots: slot ``k`` holds
        ``i_idx[offsets[k]:offsets[k+1]]`` (ditto ``j_idx``).
    slot_of:
        the slot of each subdomain id.
    """

    partition: Partition
    i_idx: np.ndarray
    j_idx: np.ndarray
    offsets: np.ndarray
    slot_of: np.ndarray

    @property
    def n_pairs(self) -> int:
        """Total number of grouped pairs."""
        return len(self.i_idx)

    def slots(self, subdomains) -> np.ndarray:
        """Slot positions of ``subdomains`` (``int64``)."""
        return self.slot_of[np.asarray(subdomains, dtype=np.int64)]

    def pair_range(self, subdomains) -> tuple[int, int]:
        """``[lo, hi)`` pair range of ``subdomains``, which must occupy
        consecutive slots in this order (empty input gives ``(0, 0)``)."""
        slots = self.slots(subdomains)
        if len(slots) == 0:
            return 0, 0
        first = int(slots[0])
        if np.any(slots != np.arange(first, first + len(slots))):
            raise ValueError(
                f"subdomains {np.asarray(subdomains).tolist()} do not "
                "occupy consecutive slots of this pair layout"
            )
        return int(self.offsets[first]), int(self.offsets[first + len(slots)])

    def pairs_of(self, subdomain: int) -> tuple[np.ndarray, np.ndarray]:
        """``(i, j)`` views of the pairs owned by ``subdomain``."""
        slot = self.slot_of[subdomain]
        lo, hi = self.offsets[slot], self.offsets[slot + 1]
        return self.i_idx[lo:hi], self.j_idx[lo:hi]

    def pair_counts(self) -> np.ndarray:
        """Pairs per subdomain id — the load-balance weight for scheduling."""
        return np.diff(self.offsets)[self.slot_of]

    def write_set(self, subdomain: int) -> np.ndarray:
        """All atom indices subdomain ``s`` updates in the scatter phases.

        Union of its own atoms and the ``j`` side of its pairs — the set the
        SDC conflict-freedom argument is about.
        """
        i, j = self.pairs_of(subdomain)
        own = self.partition.atoms_of(subdomain)
        return np.unique(np.concatenate([own, i, j]))


def build_pair_partition(
    partition: Partition,
    nlist: NeighborList,
    schedule: Optional[ColorSchedule] = None,
) -> PairPartition:
    """Group a neighbor list's pairs by owning subdomain.

    A pair is *owned* by the subdomain of its row atom ``i`` — matching the
    paper's kernels, where the outer loop runs over a subdomain's atoms and
    the inner loop over their neighbor rows.  The slots follow
    ``schedule`` when given (see :class:`PairPartition`).
    """
    if partition.n_atoms != nlist.n_atoms:
        raise ValueError(
            f"partition covers {partition.n_atoms} atoms, list has "
            f"{nlist.n_atoms}"
        )
    return group_pairs(partition, *nlist.pair_arrays(), schedule=schedule)


def group_pairs(
    partition: Partition,
    i_idx: np.ndarray,
    j_idx: np.ndarray,
    schedule: Optional[ColorSchedule] = None,
) -> PairPartition:
    """Group explicit half pairs ``(i_idx[k], j_idx[k])`` by the subdomain
    of their row atom (the CSR behind :func:`build_pair_partition`).

    The sort key is the subdomain's slot — its position in the
    concatenated ``schedule.phases``, which must list every subdomain
    exactly once — so each color's pairs end up contiguous, in the order
    its threads walk them.  The stable sort keeps each subdomain's pairs
    in list order.
    """
    n_sub = partition.grid.n_subdomains
    if schedule is None:
        order = np.arange(n_sub, dtype=np.int64)
    else:
        order = np.concatenate(
            [np.asarray(m, dtype=np.int64) for m in schedule.phases]
            or [np.empty(0, dtype=np.int64)]
        )
        if len(order) != n_sub or not np.array_equal(
            np.sort(order), np.arange(n_sub)
        ):
            raise ValueError(
                f"schedule phases must list each of the {n_sub} "
                "subdomains exactly once"
            )
    slot_of = np.empty(n_sub, dtype=np.int64)
    slot_of[order] = np.arange(n_sub, dtype=np.int64)
    pair_slot = slot_of[partition.subdomain_of_atom[i_idx]]
    pair_perm = np.argsort(pair_slot, kind="stable")
    counts = np.bincount(pair_slot, minlength=n_sub)
    offsets = np.zeros(n_sub + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return PairPartition(
        partition=partition,
        i_idx=np.ascontiguousarray(i_idx[pair_perm]),
        j_idx=np.ascontiguousarray(j_idx[pair_perm]),
        offsets=offsets,
        slot_of=slot_of,
    )
