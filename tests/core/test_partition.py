"""Atom and pair partitions (the paper's pstart/partindex structures)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.racecheck import merge_color_phases
from repro.core.coloring import lattice_coloring
from repro.core.domain import decompose, decompose_balanced
from repro.core.partition import build_pair_partition, build_partition
from repro.core.schedule import ColorSchedule, build_schedule
from repro.geometry import bcc_lattice
from repro.geometry.lattice import perturb_positions
from repro.kernels.base import slot_ranges
from repro.md.neighbor.verlet import build_neighbor_list


@pytest.fixture(scope="module")
def setup(sdc_atoms, sdc_nlist):
    grid = decompose(sdc_atoms.box, reach=3.9, dims=3)
    partition = build_partition(sdc_nlist.reference_positions, grid)
    pairs = build_pair_partition(partition, sdc_nlist)
    return grid, partition, pairs


class TestPartition:
    def test_every_atom_assigned_once(self, setup, sdc_atoms):
        _, partition, _ = setup
        all_atoms = np.concatenate(
            [partition.atoms_of(s) for s in range(partition.grid.n_subdomains)]
        )
        assert sorted(all_atoms.tolist()) == list(range(sdc_atoms.n_atoms))

    def test_counts_sum_to_n_atoms(self, setup, sdc_atoms):
        _, partition, _ = setup
        assert partition.counts().sum() == sdc_atoms.n_atoms

    def test_assignment_matches_geometry(self, setup, sdc_atoms):
        grid, partition, _ = setup
        expected = grid.subdomain_of_positions(sdc_atoms.positions)
        assert np.array_equal(partition.subdomain_of_atom, expected)

    def test_uniform_crystal_roughly_balanced(self, setup):
        """Perturbed bcc crystal: subdomain occupancy within 10 % of mean."""
        _, partition, _ = setup
        counts = partition.counts()
        mean = counts.mean()
        assert counts.max() <= 1.1 * mean
        assert counts.min() >= 0.9 * mean


class TestPairPartition:
    def test_pair_counts_sum(self, setup, sdc_nlist):
        _, _, pairs = setup
        assert pairs.pair_counts().sum() == sdc_nlist.n_pairs
        assert pairs.n_pairs == sdc_nlist.n_pairs

    def test_pairs_owned_by_i_side(self, setup):
        _, partition, pairs = setup
        for s in range(partition.grid.n_subdomains):
            i_idx, _ = pairs.pairs_of(s)
            assert np.all(partition.subdomain_of_atom[i_idx] == s)

    def test_grouping_preserves_pair_set(self, setup, sdc_nlist):
        _, _, pairs = setup
        original = set(
            zip(*(arr.tolist() for arr in sdc_nlist.pair_arrays()))
        )
        grouped = set(zip(pairs.i_idx.tolist(), pairs.j_idx.tolist()))
        assert grouped == original

    def test_write_set_contains_own_atoms(self, setup):
        _, partition, pairs = setup
        for s in range(0, partition.grid.n_subdomains, 3):
            ws = set(pairs.write_set(s).tolist())
            assert set(partition.atoms_of(s).tolist()) <= ws

    def test_write_set_contains_j_side(self, setup):
        _, _, pairs = setup
        i_idx, j_idx = pairs.pairs_of(0)
        ws = set(pairs.write_set(0).tolist())
        assert set(j_idx.tolist()) <= ws

    def test_write_set_geometric_reach(self, setup, sdc_nlist):
        """Every written atom lies within reach of the subdomain's box.

        Per-axis periodic gap to the interval [lo, hi]: zero inside,
        otherwise the shorter of the two circular distances to an
        endpoint.  The Euclidean combination must not exceed the list
        reach (positions at list-build time define the partition).
        """
        grid, _, pairs = setup
        lo, hi = grid.bounds_of(0)
        lengths = grid.box.lengths
        positions = sdc_nlist.reference_positions[pairs.write_set(0)]
        for pos in positions:
            gaps = np.zeros(3)
            for axis in range(3):
                x, a, b, L = pos[axis], lo[axis], hi[axis], lengths[axis]
                if a - 1e-9 <= x <= b + 1e-9:
                    continue
                gaps[axis] = min((a - x) % L, (x - b) % L)
            assert np.linalg.norm(gaps) <= 3.9 + 1e-6

    def test_size_mismatch_rejected(self, setup, small_nlist):
        _, partition, _ = setup
        with pytest.raises(ValueError):
            build_pair_partition(partition, small_nlist)


class TestScheduleOrderedLayout:
    """Pairs laid out in color-schedule order (one slice per thread block)."""

    @settings(max_examples=25, deadline=None)
    @given(
        cells=st.tuples(*(st.integers(6, 11) for _ in range(3))),
        dims=st.integers(1, 3),
        n_workers=st.integers(1, 4),
        merge=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_thread_blocks_are_contiguous_slices(
        self, potential, cells, dims, n_workers, merge, seed
    ):
        positions, box = bcc_lattice(2.8665, cells)
        positions = perturb_positions(
            positions, box, 0.1, np.random.default_rng(seed)
        )
        nlist = build_neighbor_list(positions, box, potential.cutoff, skin=0.3)
        grid = decompose_balanced(box, nlist.cutoff + nlist.skin, dims, n_workers)
        partition = build_partition(nlist.reference_positions, grid)
        schedule = build_schedule(lattice_coloring(grid))
        if merge and schedule.n_colors >= 2:
            schedule = merge_color_phases(schedule)
        pairs = build_pair_partition(partition, nlist, schedule)
        by_id = build_pair_partition(partition, nlist)

        # each (color, worker) block is one range holding its members'
        # pairs in order, and the blocks tile the pair arrays in order
        cursor = 0
        for color in range(schedule.n_colors):
            for block in schedule.thread_assignment(color, n_workers):
                lo, hi = pairs.pair_range(block)
                if len(block):
                    assert lo == cursor
                    expected = [pairs.pairs_of(int(s)) for s in block]
                    assert np.array_equal(
                        pairs.i_idx[lo:hi],
                        np.concatenate([i for i, _ in expected]),
                    )
                    assert np.array_equal(
                        pairs.j_idx[lo:hi],
                        np.concatenate([j for _, j in expected]),
                    )
                    cursor = hi
            # a whole color is one slice as well
            color_slots = pairs.slots(schedule.phases[color])
            assert len(slot_ranges(pairs.offsets, color_slots)) <= 1
        assert cursor == pairs.n_pairs == nlist.n_pairs

        # every listed pair exactly once
        listed = np.stack(nlist.pair_arrays(), axis=1)
        laid_out = np.stack([pairs.i_idx, pairs.j_idx], axis=1)
        assert np.array_equal(
            np.unique(listed, axis=0, return_counts=True)[1],
            np.unique(laid_out, axis=0, return_counts=True)[1],
        )
        assert np.array_equal(
            np.unique(listed, axis=0), np.unique(laid_out, axis=0)
        )

        # per-subdomain views keep their id-ordered meaning
        assert np.array_equal(pairs.pair_counts(), by_id.pair_counts())
        for s in range(grid.n_subdomains):
            for got, want in zip(pairs.pairs_of(s), by_id.pairs_of(s)):
                assert np.array_equal(got, want)
            assert np.array_equal(pairs.write_set(s), by_id.write_set(s))

    def test_non_consecutive_subdomains_have_no_single_range(
        self, sdc_atoms, sdc_nlist
    ):
        grid = decompose(sdc_atoms.box, reach=3.9, dims=3)
        partition = build_partition(sdc_nlist.reference_positions, grid)
        pairs = build_pair_partition(partition, sdc_nlist)
        assert pairs.pair_range([]) == (0, 0)
        with pytest.raises(ValueError, match="consecutive"):
            pairs.pair_range([0, 2])

    def test_schedule_must_list_each_subdomain_once(self, sdc_atoms, sdc_nlist):
        grid = decompose(sdc_atoms.box, reach=3.9, dims=3)
        partition = build_partition(sdc_nlist.reference_positions, grid)
        schedule = build_schedule(lattice_coloring(grid))
        broken = ColorSchedule(
            coloring=schedule.coloring,
            phases=[schedule.phases[0], schedule.phases[0]],
        )
        with pytest.raises(ValueError, match="exactly once"):
            build_pair_partition(partition, sdc_nlist, broken)
