"""Orthorhombic periodic simulation box.

The paper simulates bulk bcc iron "under periodic boundary conditions"; an
orthorhombic (rectangular) box with full periodicity in x, y, z is all the
workloads need.  The box owns the two geometric primitives everything else
builds on: coordinate wrapping and minimum-image displacement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.utils.validation import check_shape


@dataclass(frozen=True)
class Box:
    """An axis-aligned periodic box ``[0, Lx) x [0, Ly) x [0, Lz)``.

    Attributes
    ----------
    lengths:
        edge lengths ``(Lx, Ly, Lz)`` in Å, all strictly positive.
    periodic:
        per-axis periodicity flags; the paper's systems are fully periodic
        but the engine supports open boundaries for the example scenarios
        (e.g. free surfaces in the micro-deformation example).
    """

    lengths: np.ndarray
    periodic: np.ndarray

    def __init__(
        self,
        lengths: Sequence[float],
        periodic: Sequence[bool] = (True, True, True),
    ) -> None:
        lengths_arr = np.asarray(lengths, dtype=np.float64)
        periodic_arr = np.asarray(periodic, dtype=bool)
        check_shape(lengths_arr, (3,), "lengths")
        check_shape(periodic_arr, (3,), "periodic")
        if np.any(lengths_arr <= 0):
            raise ValueError(f"box lengths must be positive, got {lengths_arr}")
        object.__setattr__(self, "lengths", lengths_arr)
        object.__setattr__(self, "periodic", periodic_arr)

    # --- derived geometry ---------------------------------------------------

    @property
    def volume(self) -> float:
        """Box volume in Å^3."""
        return float(np.prod(self.lengths))

    def min_length(self) -> float:
        """Shortest edge, the binding constraint for cutoffs and subdomains."""
        return float(np.min(self.lengths))

    # --- core primitives ------------------------------------------------------

    def wrap(self, positions: np.ndarray) -> np.ndarray:
        """Map positions into the primary cell along periodic axes.

        Non-periodic axes are left untouched.  Returns a new array.
        """
        positions = np.asarray(positions, dtype=np.float64)
        wrapped = positions.copy()
        # an MD step moves few atoms out of the cell, so only those pay
        # for the (slow) float modulo; the rest are already x % L == x.
        # signbit also catches -0.0, which x % L maps to +0.0
        stray = np.signbit(wrapped)
        stray |= wrapped >= self.lengths
        stray &= self.periodic
        if stray.any():
            lengths = np.broadcast_to(self.lengths, wrapped.shape)[stray]
            folded = np.remainder(wrapped[stray], lengths)
            # float modulo of a tiny negative value rounds to exactly
            # `length`; fold that onto 0 so wrap stays idempotent and
            # wrapped points satisfy 0 <= x < length
            folded[folded >= lengths] = 0.0
            wrapped[stray] = folded
        return wrapped

    def minimum_image(self, displacement: np.ndarray) -> np.ndarray:
        """Apply the minimum-image convention to displacement vectors.

        For each periodic axis, folds components into ``[-L/2, L/2)``.
        Works on any ``(..., 3)`` array; returns a new (column-major)
        array and never writes to ``displacement``.
        """
        folded = np.array(displacement, dtype=np.float64, order="F")
        self._fold(folded)
        return folded

    def pair_displacements(
        self, positions: np.ndarray, i_idx: np.ndarray, j_idx: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Minimum-image ``positions[i] - positions[j]`` per pair, and its
        squared length.

        Returns ``(delta, r2)`` with ``delta`` of shape ``(n_pairs, 3)``
        and ``r2[k] = |delta[k]|^2``.  This is the one gather-and-fold
        the kernels, the neighbor build and the analysis tools share.
        ``delta`` is column-major, so the fold and the norm run along
        the pairs instead of over rows of three.
        """
        delta = np.subtract(
            np.take(positions, i_idx, axis=0),
            np.take(positions, j_idx, axis=0),
            order="F",
        )
        self._fold(delta)
        return delta, squared_norms(delta)

    def _fold(self, delta: np.ndarray) -> None:
        """Minimum-image fold of ``delta`` in place (periodic axes only)."""
        # floor-based fold maps into [-L/2, L/2) and, unlike np.round's
        # banker's rounding, resolves the exact-L/2 tie the same way for
        # every lattice image of a displacement
        shift = np.divide(delta, self.lengths)
        shift += 0.5
        np.floor(shift, out=shift)
        shift *= self.lengths
        if not self.periodic.all():
            shift[..., ~self.periodic] = 0.0
        delta -= shift

    def distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Minimum-image distances between position arrays ``a`` and ``b``."""
        delta = self.minimum_image(np.asarray(a) - np.asarray(b))
        return np.sqrt(np.sum(delta * delta, axis=-1))

    def contains(self, positions: np.ndarray) -> np.ndarray:
        """Boolean mask: is each position inside the primary cell?"""
        positions = np.asarray(positions, dtype=np.float64)
        inside = np.ones(positions.shape[:-1], dtype=bool)
        for axis in range(3):
            inside &= (positions[..., axis] >= 0.0) & (
                positions[..., axis] < self.lengths[axis]
            )
        return inside

    def max_cutoff(self) -> float:
        """Largest pair cutoff the minimum-image convention supports.

        A cutoff must be < L/2 along every periodic axis, otherwise an atom
        would interact with two images of the same neighbor.
        """
        limits = [
            self.lengths[axis] / 2.0 for axis in range(3) if self.periodic[axis]
        ]
        return min(limits) if limits else float("inf")

    def lattice_image_shifts(self, radius: int = 1) -> np.ndarray:
        """Lattice translation vectors ``n * L`` for ``|n_axis| <= radius``.

        Non-periodic axes only contribute ``n = 0``.  The zero shift is the
        first row; the rest follow in lexicographic ``n`` order, so callers
        can treat row 0 as "the primary image" deterministically.  This is
        the enumeration the sharded halo construction uses to find every
        periodic ghost image of an atom near a shard face.
        """
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        per_axis = [
            range(-radius, radius + 1) if self.periodic[axis] else (0,)
            for axis in range(3)
        ]
        images = np.array(
            [(nx, ny, nz) for nx in per_axis[0] for ny in per_axis[1] for nz in per_axis[2]],
            dtype=np.float64,
        )
        # put the zero image first, keep the rest in enumeration order
        zero = np.all(images == 0.0, axis=1)
        images = np.concatenate([images[zero], images[~zero]], axis=0)
        return images * self.lengths

    def scaled(self, factor: float) -> "Box":
        """Return a copy with all edges multiplied by ``factor`` (strain)."""
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        return Box(self.lengths * factor, tuple(self.periodic))


def squared_norms(vectors: np.ndarray) -> np.ndarray:
    """``|v|^2`` over the last axis of ``vectors`` (one pass, no temporary)."""
    return np.einsum("...i,...i->...", vectors, vectors)
