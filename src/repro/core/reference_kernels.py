"""Literal transcriptions of the paper's pseudocode (Figs. 1, 2, 7, 8).

The vectorized kernels in :mod:`repro.potentials.eam` and
:mod:`repro.core.strategies.sdc` are what the library runs; these
plain-Python nested loops are what the *paper prints*.  Keeping both, and
testing them equal, anchors the reproduction to the paper's exact data
layout and iteration structure:

* Figs. 1-2 — the serial electron-density and force loops over
  ``neighindex`` / ``neighlen`` / ``neighlist``;
* Figs. 7-8 — the SDC parallel loops: the color loop outside, the
  ``spart`` worksharing loop inside (stepping through the subdomains of
  one color), atoms via ``pstart`` / ``partindex``.

They run at interpreter speed and exist for validation and pedagogy only.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.partition import PairPartition
from repro.core.schedule import ColorSchedule
from repro.geometry.box import Box
from repro.md.neighbor.verlet import NeighborList
from repro.potentials.base import EAMPotential


def _pair_distance(
    positions: np.ndarray, box: Box, i: int, j: int
) -> tuple[np.ndarray, float]:
    delta = box.minimum_image(positions[i] - positions[j])
    return delta, float(np.sqrt(np.dot(delta, delta)))


def fig1_density_loop(
    potential: EAMPotential,
    positions: np.ndarray,
    box: Box,
    nlist: NeighborList,
) -> np.ndarray:
    """Fig. 1: the serial electron-density loop, verbatim structure.

    ``for i in atoms: for k in neighstart..neighend: j = neighlist[k];
    rho[i] += phi; rho[j] += phi`` — including the paper's Section II.D
    optimization of charging both endpoints from one phi evaluation.
    """
    n = len(positions)
    neighindex = nlist.csr.offsets
    neighlen = nlist.csr.row_lengths()
    neighlist = nlist.csr.values
    rho = np.zeros(n)
    for i in range(n):
        neighstart = neighindex[i]
        neighend = neighstart + neighlen[i]
        for k in range(neighstart, neighend):
            j = int(neighlist[k])
            _, r = _pair_distance(positions, box, i, j)
            phi = float(potential.density(np.array([r]))[0])
            rho[i] += phi
            rho[j] += phi
    return rho


def fig2_force_loop(
    potential: EAMPotential,
    positions: np.ndarray,
    box: Box,
    nlist: NeighborList,
    fp: np.ndarray,
) -> np.ndarray:
    """Fig. 2: the serial force loop, verbatim structure.

    One scalar ``forc`` per pair scales the separation components; the
    paper's six scatter updates (``force[i][X] += ...; force[j][X] -= ...``)
    become the two vector updates here.
    """
    n = len(positions)
    neighindex = nlist.csr.offsets
    neighlen = nlist.csr.row_lengths()
    neighlist = nlist.csr.values
    force = np.zeros((n, 3))
    for i in range(n):
        neighstart = neighindex[i]
        neighend = neighstart + neighlen[i]
        for k in range(neighstart, neighend):
            j = int(neighlist[k])
            delta, r = _pair_distance(positions, box, i, j)
            vp = float(potential.pair_energy_deriv(np.array([r]))[0])
            dp = float(potential.density_deriv(np.array([r]))[0])
            forc = -(vp + (fp[i] + fp[j]) * dp) / r
            force[i] += forc * delta
            force[j] -= forc * delta
    return force


def _subdomains_of_color(
    schedule: ColorSchedule, cpart: int
) -> Sequence[int]:
    """The paper iterates ``spart = cpart; spart < subdomains; spart += colors``
    assuming a color-interleaved flat ordering; our schedule stores the
    color classes explicitly, which is the same set of subdomains."""
    return [int(s) for s in schedule.phases[cpart]]


def fig7_sdc_density(
    potential: EAMPotential,
    positions: np.ndarray,
    box: Box,
    pairs: PairPartition,
    schedule: ColorSchedule,
) -> np.ndarray:
    """Fig. 7: the SDC-parallel density computation, verbatim structure.

    Outer loop over colors (serial); inner loop over that color's
    subdomains (the ``#pragma omp for`` — any execution order is legal
    because write sets are disjoint); innermost the paper's
    ``pstart``/``partindex`` atom loop and neighbor loop.
    """
    n = len(positions)
    pstart = pairs.partition.csr.offsets
    partindex = pairs.partition.csr.values
    rho = np.zeros(n)
    # reconstruct per-atom CSR access through the grouped pair arrays
    for cpart in range(schedule.n_colors):
        for spart in _subdomains_of_color(schedule, cpart):
            for ipart in range(pstart[spart], pstart[spart + 1]):
                i = int(partindex[ipart])
                i_pairs, j_pairs = pairs.pairs_of(spart)
                for j in j_pairs[i_pairs == i]:
                    _, r = _pair_distance(positions, box, i, int(j))
                    phi = float(potential.density(np.array([r]))[0])
                    rho[i] += phi
                    rho[int(j)] += phi
    return rho


def fig8_sdc_force(
    potential: EAMPotential,
    positions: np.ndarray,
    box: Box,
    pairs: PairPartition,
    schedule: ColorSchedule,
    fp: np.ndarray,
) -> np.ndarray:
    """Fig. 8: the SDC-parallel force computation, verbatim structure."""
    n = len(positions)
    pstart = pairs.partition.csr.offsets
    partindex = pairs.partition.csr.values
    force = np.zeros((n, 3))
    for cpart in range(schedule.n_colors):
        for spart in _subdomains_of_color(schedule, cpart):
            for ipart in range(pstart[spart], pstart[spart + 1]):
                i = int(partindex[ipart])
                i_pairs, j_pairs = pairs.pairs_of(spart)
                for j in j_pairs[i_pairs == i]:
                    j = int(j)
                    delta, r = _pair_distance(positions, box, i, j)
                    vp = float(potential.pair_energy_deriv(np.array([r]))[0])
                    dp = float(potential.density_deriv(np.array([r]))[0])
                    forc = -(vp + (fp[i] + fp[j]) * dp) / r
                    force[i] += forc * delta
                    force[j] -= forc * delta
    return force
