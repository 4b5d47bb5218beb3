"""Structural analysis observables: RDF, MSD, coordination.

Used by the example applications and by tests that validate the crystal
structure the harness claims to build (bcc shell distances/multiplicities
show up directly in the radial distribution function).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.geometry.box import Box
from repro.md.neighbor.verlet import build_neighbor_list


@dataclass(frozen=True)
class RDFResult:
    """Radial distribution function g(r) on a uniform grid."""

    r: np.ndarray
    g: np.ndarray

    def peaks(self, threshold: float = 1.5) -> np.ndarray:
        """Bin centers of local maxima with g(r) above ``threshold``."""
        g = self.g
        interior = (g[1:-1] > g[:-2]) & (g[1:-1] >= g[2:]) & (
            g[1:-1] > threshold
        )
        return self.r[1:-1][interior]


def radial_distribution(
    positions: np.ndarray,
    box: Box,
    r_max: float,
    n_bins: int = 200,
) -> RDFResult:
    """g(r) of a periodic configuration via a half neighbor list.

    ``r_max`` must respect the minimum-image limit; normalization uses the
    ideal-gas shell count so a random gas gives g ~ 1.
    """
    if n_bins < 2:
        raise ValueError("n_bins must be >= 2")
    if r_max <= 0 or r_max >= box.max_cutoff():
        raise ValueError("r_max must be in (0, box.max_cutoff())")
    n = len(positions)
    if n < 2:
        raise ValueError("need at least two atoms")
    nlist = build_neighbor_list(
        positions, box, cutoff=r_max, skin=0.0, half=True
    )
    i_idx, j_idx = nlist.pair_arrays()
    _, r2 = box.pair_displacements(positions, i_idx, j_idx)
    distances = np.sqrt(r2)
    edges = np.linspace(0.0, r_max, n_bins + 1)
    counts, _ = np.histogram(distances, bins=edges)
    counts = counts * 2.0  # half list stores each pair once
    centers = 0.5 * (edges[1:] + edges[:-1])
    shell_volumes = 4.0 / 3.0 * np.pi * (edges[1:] ** 3 - edges[:-1] ** 3)
    density = n / box.volume
    ideal = density * shell_volumes * n
    g = np.where(ideal > 0, counts / ideal, 0.0)
    return RDFResult(r=centers, g=g)


def coordination_number(
    rdf: RDFResult, density: float, r_cut: float
) -> float:
    """Integrate g(r) to the running coordination number at ``r_cut``."""
    mask = rdf.r <= r_cut
    if not np.any(mask):
        return 0.0
    r = rdf.r[mask]
    integrand = 4.0 * np.pi * density * rdf.g[mask] * r * r
    return float(np.trapezoid(integrand, r))


def mean_squared_displacement(
    trajectory: Sequence[np.ndarray],
    box: Box,
) -> np.ndarray:
    """MSD(t) of a wrapped trajectory, unwrapping via minimum image.

    Assumes no atom moves more than half a box length between consecutive
    frames (standard MD sampling cadence).
    """
    frames = [np.asarray(f, dtype=np.float64) for f in trajectory]
    if len(frames) < 1:
        raise ValueError("need at least one frame")
    unwrapped = [frames[0].copy()]
    for prev_wrapped, current in zip(frames[:-1], frames[1:]):
        step = box.minimum_image(current - prev_wrapped)
        unwrapped.append(unwrapped[-1] + step)
    origin = unwrapped[0]
    return np.array(
        [float(np.mean(np.sum((f - origin) ** 2, axis=1))) for f in unwrapped]
    )


def displacement_from_lattice(
    positions: np.ndarray,
    reference: np.ndarray,
    box: Box,
) -> Tuple[float, float]:
    """(mean, max) displacement magnitude from reference sites.

    The micro-deformation example uses this to quantify how far the
    crystal has moved off its ideal lattice.
    """
    delta = box.minimum_image(np.asarray(positions) - np.asarray(reference))
    magnitudes = np.sqrt(np.sum(delta * delta, axis=1))
    if len(magnitudes) == 0:
        return 0.0, 0.0
    return float(np.mean(magnitudes)), float(np.max(magnitudes))
