"""Verlet neighbor lists in the paper's CSR layout.

A :class:`NeighborList` stores, for every atom ``i``, the indices of atoms
within ``cutoff + skin``.  The *half* variant stores each pair once
(``i < j``) — this is what enables the Section II.D optimizations (reuse of
``phi(r_ij)`` for both atoms, Newton's-third-law force accumulation) and
what creates the irregular write conflicts the paper's SDC method solves.
The *full* variant stores both directions and is what the Redundant
Computation (RC) baseline strategy consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.geometry.box import Box, squared_norms
from repro.md.neighbor.cells import CellList, build_cell_list, concat_ranges
from repro.utils.arrays import CSR


@dataclass(frozen=True)
class NeighborList:
    """CSR neighbor list bound to the positions it was built from.

    Attributes
    ----------
    csr:
        per-atom neighbor rows; ``csr.offsets`` is the paper's
        ``neighindex`` (with ``neighlen = diff(offsets)``), ``csr.values``
        the paper's ``neighlist``.
    cutoff:
        interaction cutoff r_c in Å.
    skin:
        Verlet skin in Å; the list contains all pairs within
        ``cutoff + skin`` and remains valid until some atom moves more than
        ``skin / 2``.
    half:
        if True each pair appears once with ``i < j``; if False both
        directions are stored.
    reference_positions:
        wrapped positions at build time (for the rebuild criterion).
    """

    csr: CSR
    cutoff: float
    skin: float
    half: bool
    reference_positions: np.ndarray
    box: Box

    @property
    def n_atoms(self) -> int:
        """Number of atoms the list covers."""
        return self.csr.n_rows

    @property
    def n_pairs(self) -> int:
        """Number of stored (directed) entries."""
        return self.csr.n_values

    def pair_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Flat ``(i_idx, j_idx)`` arrays aligned with the CSR payload.

        ``i_idx[k]`` is the row owning slot ``k``; this is the layout the
        vectorized kernels iterate over.
        """
        return self.csr.row_of_value(), self.csr.values

    def neighbors_of(self, i: int) -> np.ndarray:
        """Neighbor indices of atom ``i`` (view)."""
        return self.csr.row(i)

    def max_displacement(self, positions: np.ndarray) -> float:
        """Largest minimum-image displacement since the list was built."""
        delta = self.box.minimum_image(
            self.box.wrap(positions) - self.reference_positions
        )
        if len(delta) == 0:
            return 0.0
        return float(np.sqrt(np.max(squared_norms(delta))))

    def needs_rebuild(self, positions: np.ndarray) -> bool:
        """Standard Verlet criterion: any atom moved more than ``skin/2``."""
        return self.max_displacement(positions) > self.skin / 2.0


def _candidate_pairs(cells: CellList) -> Tuple[np.ndarray, np.ndarray]:
    """All candidate atom pairs from the deduplicated 27-cell stencil.

    Returns directed candidates (both (i, j) and (j, i) appear; self pairs
    are kept and filtered by the caller together with the distance cut).
    """
    src_cells, dst_cells = cells.neighbor_cell_pairs()
    counts = cells.counts()
    # for every (cell, neighbor-cell) pair: block of counts[src] * counts[dst]
    block = counts[src_cells] * counts[dst_cells]
    keep = block > 0
    src_cells, dst_cells = src_cells[keep], dst_cells[keep]
    # i side: atoms of src cell, each repeated by occupancy of dst cell
    i_ranges = concat_ranges(cells.starts[src_cells], counts[src_cells])
    i_atoms = cells.order[i_ranges]
    i_rep = np.repeat(counts[dst_cells], counts[src_cells])
    i_idx = np.repeat(i_atoms, i_rep)
    # j side: for each atom of the src cell, the whole dst cell
    j_starts = np.repeat(cells.starts[dst_cells], counts[src_cells])
    j_ranges = concat_ranges(j_starts, i_rep)
    j_idx = cells.order[j_ranges]
    return i_idx, j_idx


#: candidate pairs filtered per chunk: the chunk's pair geometry stays
#: cache-sized and the build never holds it for all candidates at once
FILTER_CHUNK = 1 << 16


def _within_reach(
    positions: np.ndarray,
    box: Box,
    i_idx: np.ndarray,
    j_idx: np.ndarray,
    reach: float,
    half: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    """The candidate pairs, in order, with ``i != j`` (``i < j`` when
    ``half``) and minimum-image distance ``<= reach``."""
    kept_i, kept_j = [], []
    for lo in range(0, len(i_idx), FILTER_CHUNK):
        ii = i_idx[lo:lo + FILTER_CHUNK]
        jj = j_idx[lo:lo + FILTER_CHUNK]
        mask = ii < jj if half else ii != jj
        ii, jj = ii[mask], jj[mask]
        _, r2 = box.pair_displacements(positions, ii, jj)
        keep = r2 <= reach * reach
        kept_i.append(ii[keep])
        kept_j.append(jj[keep])
    if not kept_i:
        return i_idx, j_idx
    return np.concatenate(kept_i), np.concatenate(kept_j)


def _pairs_to_csr(
    i_idx: np.ndarray, j_idx: np.ndarray, n_atoms: int
) -> CSR:
    """Sort directed pairs by (i, j) and pack them into CSR rows."""
    if len(i_idx):
        order = np.lexsort((j_idx, i_idx))
        i_idx = i_idx[order]
        j_idx = j_idx[order]
    lengths = np.bincount(i_idx, minlength=n_atoms)
    offsets = np.zeros(n_atoms + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return CSR(offsets=offsets, values=j_idx.astype(np.int64, copy=False))


def build_neighbor_list(
    positions: np.ndarray,
    box: Box,
    cutoff: float,
    skin: float = 0.3,
    half: bool = True,
    cells: Optional[CellList] = None,
) -> NeighborList:
    """Build a Verlet neighbor list with link cells.

    Parameters
    ----------
    positions:
        ``(n, 3)`` coordinates (wrapped internally).
    cutoff:
        interaction cutoff r_c.
    skin:
        extra shell so the list survives several timesteps.
    half:
        store each pair once (``i < j``) or both directions.
    cells:
        an existing :class:`CellList` built with cell size >=
        ``cutoff + skin`` to reuse; built fresh when omitted.
    """
    if cutoff <= 0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    if skin < 0:
        raise ValueError(f"skin must be >= 0, got {skin}")
    reach = cutoff + skin
    if reach >= box.max_cutoff():
        raise ValueError(
            f"cutoff+skin={reach:.3f} exceeds the minimum-image limit "
            f"{box.max_cutoff():.3f} for this box"
        )
    positions = box.wrap(np.asarray(positions, dtype=np.float64))
    n_atoms = len(positions)
    if cells is None:
        cells = build_cell_list(positions, box, reach)
    i_idx, j_idx = _within_reach(positions, box, *_candidate_pairs(cells),
                                 reach, half)
    csr = _pairs_to_csr(i_idx, j_idx, n_atoms)
    return NeighborList(
        csr=csr,
        cutoff=cutoff,
        skin=skin,
        half=half,
        reference_positions=positions.copy(),
        box=box,
    )


def build_reordered_neighbor_list(
    positions: np.ndarray,
    box: Box,
    cutoff: float,
    skin: float = 0.3,
    half: bool = True,
) -> Tuple[NeighborList, np.ndarray, np.ndarray]:
    """Build the Section II.D cache-optimized layout: sorted atoms + CSR list.

    Bins ``positions`` into link cells, renumbers atoms in cell order
    (the :attr:`CellList.order` permutation), and builds the neighbor
    list *in the new numbering* — so both the atom arrays and the
    per-row ``j`` streams walk memory almost sequentially.  Rows come out
    CSR-sorted (ascending ``j`` within each row) by construction.

    Returns ``(nlist, perm, inverse)``:

    * ``nlist`` — neighbor list over the reordered atoms;
    * ``perm`` — apply with :meth:`repro.md.atoms.Atoms.reorder` (new
      index ``k`` was old ``perm[k]``);
    * ``inverse`` — maps old indices to new (``inverse[perm[k]] == k``),
      the output map: ``result_old = result_new[inverse]``.
    """
    from repro.utils.arrays import invert_permutation

    positions = box.wrap(np.asarray(positions, dtype=np.float64))
    reach = cutoff + skin
    cells = build_cell_list(positions, box, reach)
    perm = cells.order.copy()
    inverse = invert_permutation(perm)
    nlist = build_neighbor_list(
        positions[perm], box, cutoff, skin=skin, half=half
    )
    return nlist, perm, inverse


def brute_force_neighbor_list(
    positions: np.ndarray,
    box: Box,
    cutoff: float,
    skin: float = 0.0,
    half: bool = True,
) -> NeighborList:
    """O(N^2) reference builder (tests only; exact same semantics)."""
    positions = box.wrap(np.asarray(positions, dtype=np.float64))
    n = len(positions)
    reach = cutoff + skin
    if reach >= box.max_cutoff():
        raise ValueError("cutoff+skin exceeds minimum-image limit")
    delta = box.minimum_image(positions[:, None, :] - positions[None, :, :])
    r2 = np.sum(delta * delta, axis=-1)
    mask = r2 <= reach * reach
    np.fill_diagonal(mask, False)
    if half:
        mask = np.triu(mask, k=1)
    i_idx, j_idx = np.nonzero(mask)
    csr = _pairs_to_csr(i_idx.astype(np.int64), j_idx.astype(np.int64), n)
    return NeighborList(
        csr=csr,
        cutoff=cutoff,
        skin=skin,
        half=half,
        reference_positions=positions.copy(),
        box=box,
    )


def full_from_half(nlist: NeighborList) -> NeighborList:
    """Expand a half list into a full list (what the RC strategy consumes).

    This materializes the doubled neighbor storage the paper attributes to
    the redundant-computation approach ("neighbor list requires more memory
    space").
    """
    if not nlist.half:
        return nlist
    i_idx, j_idx = nlist.pair_arrays()
    all_i = np.concatenate([i_idx, j_idx])
    all_j = np.concatenate([j_idx, i_idx])
    csr = _pairs_to_csr(all_i, all_j, nlist.n_atoms)
    return NeighborList(
        csr=csr,
        cutoff=nlist.cutoff,
        skin=nlist.skin,
        half=False,
        reference_positions=nlist.reference_positions,
        box=nlist.box,
    )


def half_from_full(nlist: NeighborList) -> NeighborList:
    """Reduce a full list to a half (``i < j``) list."""
    if nlist.half:
        return nlist
    i_idx, j_idx = nlist.pair_arrays()
    keep = i_idx < j_idx
    csr = _pairs_to_csr(i_idx[keep], j_idx[keep], nlist.n_atoms)
    return NeighborList(
        csr=csr,
        cutoff=nlist.cutoff,
        skin=nlist.skin,
        half=True,
        reference_positions=nlist.reference_positions,
        box=nlist.box,
    )
