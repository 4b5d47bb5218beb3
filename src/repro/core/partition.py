"""Atom and pair partitions over a subdomain grid.

The paper's parallel kernels (Figs. 7-8) iterate subdomain atoms through a
CSR pair of arrays: ``for ipart in pstart[spart] .. pstart[spart+1]:
i = partindex[ipart]``.  :class:`Partition` is that structure;
:class:`PairPartition` extends it to the flat neighbor-pair slots so a
strategy can grab "all half-list pairs owned by subdomain s" as one
contiguous slice — the unit of parallel work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.domain import SubdomainGrid
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

    Attributes
    ----------
    i_idx, j_idx:
        pair endpoint arrays *already permuted* into subdomain-contiguous
        order; the pairs of subdomain ``s`` are
        ``i_idx[offsets[s]:offsets[s+1]]`` (ditto ``j_idx``).
    offsets:
        CSR offsets over subdomains.
    pair_perm:
        the permutation from the neighbor list's flat slot order into the
        grouped order (kept for instrumentation/round-trips).
    """

    partition: Partition
    i_idx: np.ndarray
    j_idx: np.ndarray
    offsets: np.ndarray
    pair_perm: np.ndarray

    @property
    def n_pairs(self) -> int:
        """Total number of grouped pairs."""
        return len(self.i_idx)

    def pairs_of(self, subdomain: int) -> tuple[np.ndarray, np.ndarray]:
        """``(i, j)`` views of the pairs owned by ``subdomain``."""
        lo, hi = self.offsets[subdomain], self.offsets[subdomain + 1]
        return self.i_idx[lo:hi], self.j_idx[lo:hi]

    def pair_counts(self) -> np.ndarray:
        """Pairs per subdomain — the load-balance weight for scheduling."""
        return np.diff(self.offsets)

    def write_set(self, subdomain: int) -> np.ndarray:
        """All atom indices subdomain ``s`` updates in the scatter phases.

        Union of its own atoms and the ``j`` side of its pairs — the set the
        SDC conflict-freedom argument is about.
        """
        i, j = self.pairs_of(subdomain)
        own = self.partition.atoms_of(subdomain)
        return np.unique(np.concatenate([own, i, j]))


def build_pair_partition(
    partition: Partition, nlist: NeighborList
) -> PairPartition:
    """Group a neighbor list's pairs by owning subdomain.

    A pair is *owned* by the subdomain of its row atom ``i`` — matching the
    paper's kernels, where the outer loop runs over a subdomain's atoms and
    the inner loop over their neighbor rows.
    """
    if partition.n_atoms != nlist.n_atoms:
        raise ValueError(
            f"partition covers {partition.n_atoms} atoms, list has "
            f"{nlist.n_atoms}"
        )
    return group_pairs(partition, *nlist.pair_arrays())


def group_pairs(
    partition: Partition, i_idx: np.ndarray, j_idx: np.ndarray
) -> PairPartition:
    """Group explicit half pairs ``(i_idx[k], j_idx[k])`` by the subdomain
    of their row atom (the CSR behind :func:`build_pair_partition`)."""
    pair_sub = partition.subdomain_of_atom[i_idx]
    pair_perm = np.argsort(pair_sub, kind="stable")
    counts = np.bincount(pair_sub, minlength=partition.grid.n_subdomains)
    offsets = np.zeros(partition.grid.n_subdomains + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return PairPartition(
        partition=partition,
        i_idx=np.ascontiguousarray(i_idx[pair_perm]),
        j_idx=np.ascontiguousarray(j_idx[pair_perm]),
        offsets=offsets,
        pair_perm=pair_perm,
    )
