"""Strategy equivalence and strategy-specific behaviour.

The central contract: every strategy computes the same physics as the
serial reference kernels, bit-close, regardless of decomposition,
thread count, or backend.
"""

import numpy as np
import pytest

from repro.core.strategies import (
    STRATEGY_REGISTRY,
    ArrayPrivatizationStrategy,
    AtomicStrategy,
    CriticalSectionStrategy,
    RedundantComputationStrategy,
    SDCStrategy,
    SerialStrategy,
)
from repro.md.neighbor.verlet import full_from_half
from repro.parallel.backends import SerialBackend, ThreadBackend

FORCE_TOL = 1e-12
RHO_TOL = 1e-12


def assert_matches_reference(result, reference):
    assert np.allclose(result.forces, reference.forces, atol=FORCE_TOL)
    assert np.allclose(result.rho, reference.rho, atol=RHO_TOL)
    assert np.allclose(result.fp, reference.fp, atol=RHO_TOL)
    assert result.pair_energy == pytest.approx(reference.pair_energy)
    assert result.embedding_energy == pytest.approx(reference.embedding_energy)


ALL_STRATEGIES = [
    SerialStrategy(),
    SDCStrategy(dims=1, n_threads=2),
    SDCStrategy(dims=2, n_threads=3),
    SDCStrategy(dims=3, n_threads=4),
    SDCStrategy(dims=2, n_threads=2, adaptive=False),
    CriticalSectionStrategy(n_threads=3),
    ArrayPrivatizationStrategy(n_threads=3),
    RedundantComputationStrategy(n_threads=3),
    AtomicStrategy(n_threads=3),
]


@pytest.mark.parametrize(
    "strategy", ALL_STRATEGIES, ids=lambda s: f"{s.name}-{getattr(s, 'dims', '')}{getattr(s, 'n_threads', '')}"
)
def test_strategy_matches_serial_reference(
    strategy, potential, sdc_atoms, sdc_nlist, reference_result
):
    atoms = sdc_atoms.copy()
    result = strategy.compute(potential, atoms, sdc_nlist)
    assert_matches_reference(result, reference_result)
    # atoms were updated in place too
    assert np.allclose(atoms.forces, reference_result.forces, atol=FORCE_TOL)


@pytest.mark.parametrize("dims", [1, 2, 3])
def test_sdc_with_thread_backend_matches(
    dims, potential, sdc_atoms, sdc_nlist, reference_result
):
    with ThreadBackend(2) as backend:
        strategy = SDCStrategy(
            dims=dims, n_threads=2, backend=backend, validate_conflicts=True
        )
        result = strategy.compute(potential, sdc_atoms.copy(), sdc_nlist)
    assert_matches_reference(result, reference_result)


@pytest.mark.parametrize(
    "factory",
    [
        lambda b: CriticalSectionStrategy(n_threads=2, backend=b),
        lambda b: ArrayPrivatizationStrategy(n_threads=2, backend=b),
        lambda b: RedundantComputationStrategy(n_threads=2, backend=b),
        lambda b: AtomicStrategy(n_threads=2, backend=b),
    ],
    ids=["cs", "sap", "rc", "atomic"],
)
def test_other_strategies_with_thread_backend(
    factory, potential, sdc_atoms, sdc_nlist, reference_result
):
    with ThreadBackend(2) as backend:
        result = factory(backend).compute(potential, sdc_atoms.copy(), sdc_nlist)
    assert_matches_reference(result, reference_result)


class TestSDCSpecifics:
    def test_grid_cached_per_neighbor_list(self, potential, sdc_atoms, sdc_nlist):
        strategy = SDCStrategy(dims=2, n_threads=2)
        strategy.compute(potential, sdc_atoms.copy(), sdc_nlist)
        grid_first = strategy.grid
        strategy.compute(potential, sdc_atoms.copy(), sdc_nlist)
        assert strategy.grid is grid_first

    def test_grid_rebuilt_on_new_list(self, potential, sdc_atoms, sdc_nlist):
        from repro.md.neighbor.verlet import build_neighbor_list

        strategy = SDCStrategy(dims=2, n_threads=2)
        strategy.compute(potential, sdc_atoms.copy(), sdc_nlist)
        grid_first = strategy.grid
        fresh = build_neighbor_list(
            sdc_atoms.positions, sdc_atoms.box, potential.cutoff, skin=0.3
        )
        strategy.compute(potential, sdc_atoms.copy(), fresh)
        assert strategy.grid is not grid_first

    def test_rejects_full_list(self, potential, sdc_atoms, sdc_nlist):
        strategy = SDCStrategy(dims=2)
        with pytest.raises(ValueError, match="half"):
            strategy.compute(potential, sdc_atoms.copy(), full_from_half(sdc_nlist))

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            SDCStrategy(dims=0)

    def test_conflict_validation_passes_on_valid_grid(
        self, potential, sdc_atoms, sdc_nlist
    ):
        strategy = SDCStrategy(dims=3, n_threads=2, validate_conflicts=True)
        strategy.compute(potential, sdc_atoms.copy(), sdc_nlist)

    def test_decomposition_error_when_box_too_small(
        self, potential, small_atoms, small_nlist
    ):
        from repro.core.domain import DecompositionError

        # 5-cell box (14.3 Å) cannot host 2 subdomains of edge > 7.8 Å
        strategy = SDCStrategy(dims=1, n_threads=2)
        with pytest.raises(DecompositionError):
            strategy.compute(potential, small_atoms.copy(), small_nlist)


class _PhaseSpy(SerialBackend):
    """Serial backend that records how many closures each phase gets."""

    def __init__(self) -> None:
        super().__init__()
        self.phase_sizes = []

    def run_phase(self, closures) -> None:
        closures = list(closures)
        self.phase_sizes.append(len(closures))
        super().run_phase(closures)


@pytest.fixture(scope="module")
def wide_system(potential):
    """bcc 12^3 (3456 atoms): a dims=2 grid with several subdomains per
    color, so thread blocks hold more than one subdomain."""
    from repro.geometry import bcc_lattice
    from repro.geometry.lattice import perturb_positions
    from repro.md import Atoms, build_neighbor_list
    from repro.potentials import compute_eam_forces_serial

    positions, box = bcc_lattice(2.8665, (12, 12, 12))
    positions = perturb_positions(
        positions, box, 0.08, np.random.default_rng(3)
    )
    atoms = Atoms(box=box, positions=positions)
    nlist = build_neighbor_list(positions, box, potential.cutoff, skin=0.3)
    reference = compute_eam_forces_serial(potential, atoms.copy(), nlist)
    return atoms, nlist, reference


class TestSDCTaskGranularity:
    """One closure per thread block per color; one per subdomain under
    the race detector."""

    def _color_phase_sizes(self, strategy, spy):
        n_colors = strategy.schedule.n_colors
        sizes = spy.phase_sizes
        assert len(sizes) == 2 * n_colors + 1  # density, embedding, force
        return sizes[:n_colors], sizes[n_colors + 1 :]

    @pytest.mark.parametrize("n_threads", [1, 2, 3])
    def test_at_most_one_closure_per_thread(
        self, potential, wide_system, n_threads
    ):
        atoms, nlist, reference = wide_system
        spy = _PhaseSpy()
        strategy = SDCStrategy(dims=2, n_threads=n_threads, backend=spy)
        result = strategy.compute(potential, atoms.copy(), nlist)
        assert_matches_reference(result, reference)
        density, force = self._color_phase_sizes(strategy, spy)
        members = [len(m) for m in strategy.schedule.phases]
        assert max(members) > 1
        expected = [min(n_threads, m) for m in members]
        assert density == expected
        assert force == expected
        assert max(density) <= n_threads

    def test_instrumented_run_keeps_one_closure_per_subdomain(
        self, potential, wide_system
    ):
        from repro.analysis.racecheck import run_instrumented

        atoms, nlist, reference = wide_system
        spy = _PhaseSpy()
        strategy = SDCStrategy(dims=2, n_threads=2, backend=spy)
        result, recorder = run_instrumented(
            strategy, potential, atoms.copy(), nlist
        )
        assert_matches_reference(result, reference)
        assert not recorder.conflicts
        density, force = self._color_phase_sizes(strategy, spy)
        members = [len(m) for m in strategy.schedule.phases]
        assert density == members
        assert force == members


class TestRCSpecifics:
    def test_full_list_cached(self, potential, sdc_atoms, sdc_nlist):
        strategy = RedundantComputationStrategy(n_threads=2)
        strategy.compute(potential, sdc_atoms.copy(), sdc_nlist)
        first = strategy._full
        strategy.compute(potential, sdc_atoms.copy(), sdc_nlist)
        assert strategy._full is first

    def test_accepts_full_list_directly(
        self, potential, sdc_atoms, sdc_nlist, reference_result
    ):
        strategy = RedundantComputationStrategy(n_threads=2)
        result = strategy.compute(
            potential, sdc_atoms.copy(), full_from_half(sdc_nlist)
        )
        assert_matches_reference(result, reference_result)


class TestRegistry:
    def test_all_strategies_registered(self):
        assert set(STRATEGY_REGISTRY) == {
            "serial",
            "sdc",
            "critical-section",
            "array-privatization",
            "redundant-computation",
            "atomic",
            "localwrite",
        }

    def test_constructor_validation(self):
        for cls in (
            CriticalSectionStrategy,
            ArrayPrivatizationStrategy,
            RedundantComputationStrategy,
            AtomicStrategy,
        ):
            with pytest.raises(ValueError):
                cls(n_threads=0)
