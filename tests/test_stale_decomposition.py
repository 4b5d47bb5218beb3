"""Engine caches must not survive their neighbor list.

Every engine caches its decomposition per neighbor list.  Keyed on
``id(nlist)`` alone, a list built after the previous one was freed can
land at the same address and reuse the stale decomposition — wrong
forces, no error.  Each frame here builds a temporary list on freshly
perturbed positions, computes with one long-lived engine, then drops
the list, so freed addresses do get reused.
"""

from __future__ import annotations

import gc
import multiprocessing as mp

import numpy as np
import pytest

from repro.core.strategies import (
    LocalWriteStrategy,
    RedundantComputationStrategy,
    SDCStrategy,
)
from repro.core.strategies.pairwise import SDCPairCalculator, SerialPairCalculator
from repro.geometry import bcc_lattice
from repro.geometry.lattice import perturb_positions
from repro.md import Atoms, build_neighbor_list
from repro.potentials import compute_eam_forces_serial
from repro.potentials.lj import LennardJones

N_FRAMES = 30
#: per-frame force agreement with the serial kernel, in eV/Å
FORCE_ATOL = 1e-9

needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="requires fork"
)


def _processes():
    from repro.parallel.backends.processes import ProcessSDCCalculator

    return ProcessSDCCalculator(dims=2, n_workers=2)


def _sharded():
    from repro.parallel.backends.sharded import ShardedSDCCalculator

    return ShardedSDCCalculator(n_shards=2)


ENGINES = {
    "sdc": (SDCStrategy, "eam"),
    "pair-sdc": (SDCPairCalculator, "lj"),
    "localwrite": (LocalWriteStrategy, "eam"),
    "redundant": (RedundantComputationStrategy, "eam"),
    "processes": (_processes, "eam"),
    "sharded": (_sharded, "eam"),
}


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=needs_fork)
        if name in ("processes", "sharded")
        else name
        for name in ENGINES
    ],
)
def test_fresh_list_at_a_reused_address_is_not_a_cache_hit(potential, name):
    make_engine, kind = ENGINES[name]
    if kind == "lj":
        pot = LennardJones(epsilon=0.3, sigma=2.27, r_cut=3.6, r_switch=3.2)
        serial = SerialPairCalculator().compute
    else:
        pot = potential
        serial = lambda *args: compute_eam_forces_serial(*args)  # noqa: E731
    lattice, box = bcc_lattice(2.8665, (8, 8, 8))
    rng = np.random.default_rng(17)
    engine = make_engine()
    try:
        for frame in range(N_FRAMES):
            atoms = Atoms(
                box=box, positions=perturb_positions(lattice, box, 0.2, rng)
            )
            nlist = build_neighbor_list(
                atoms.positions, box, pot.cutoff, skin=0.3
            )
            got = engine.compute(pot, atoms.copy(), nlist).forces
            want = serial(pot, atoms.copy(), nlist).forces
            error = float(np.max(np.abs(got - want)))
            assert error <= FORCE_ATOL, f"frame {frame}: max |dF| = {error}"
            del nlist
            gc.collect(0)
    finally:
        close = getattr(engine, "close", None)
        if close is not None:
            close()
